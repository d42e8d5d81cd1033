//! The metric catalog. `BENCHMARK.json` at the repository root is the
//! one list of workloads and metrics — names, units, directions, bounds
//! — and is compiled into the program, which prints exactly what it
//! names. Its keys are fixed by the benchmark contract, so what it
//! cannot hold lives here: for each per-layer metric, the end-to-end
//! metric it is expected to move and the workload that measures that
//! metric with the most repetitions ([`MOVES`]). Everywhere else the
//! prediction is no change.

use crate::json::{self, Value};
use crate::run::Workload;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by
    /// which it may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

/// `BENCHMARK.json`, as far as the program needs it.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Seconds of measuring one run is sized for.
    pub run_seconds: u32,
    /// A user of the system would see these (untraced runs print them).
    pub end_to_end: Vec<Metric>,
    /// Numbers about single layers (traced runs print them).
    pub per_layer: Vec<Metric>,
}

fn metrics(doc: &Value, key: &str) -> Result<Vec<Metric>, String> {
    let field = |m: &Value, field: &str| {
        m.get(field)
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or(format!("{key}: a metric lacks {field}"))
    };
    doc.get(key)
        .and_then(Value::as_array)
        .ok_or(format!("no {key} list"))?
        .iter()
        .map(|m| {
            Ok(Metric {
                name: field(m, "name")?,
                unit: field(m, "unit")?,
                better: match field(m, "better")?.as_str() {
                    "higher" => Better::Higher,
                    "lower" => Better::Lower,
                    other => return Err(format!("{key}: better is {other:?}")),
                },
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

impl Spec {
    /// Parse the compiled-in `BENCHMARK.json`.
    pub fn load() -> Result<Self, String> {
        let doc = json::parse(include_str!("../../BENCHMARK.json"))?;
        let spec = Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("no run_seconds")? as u32,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        };
        if let Some(m) = spec.end_to_end.iter().find(|m| m.bound.is_none()) {
            return Err(format!("end-to-end metric {} has no bound", m.name));
        }
        Ok(spec)
    }
}

use Workload::{AnalystMix, BulkExport, CampaignIngest, FleetRecovery};

/// `(per-layer metric, the end-to-end metric a change to it should
/// move, the workload on which to look for it)`.
#[rustfmt::skip]
pub const MOVES: [(&str, &str, Workload); 73] = [
    // collector
    ("collector.processes", "collect_us_p50", CampaignIngest),
    ("collector.datagrams_per_process", "ingest_datagrams_per_s", CampaignIngest),
    ("collector.policy_skip_ratio", "collect_us_p50", CampaignIngest),
    ("collector.collect_us_p99", "collect_us_p50", CampaignIngest),
    // fuzzy
    ("fuzzy.hash_mb_per_s", "collect_us_p50", CampaignIngest),
    ("fuzzy.index_build_us_per_hash", "commit_ms_p50", CampaignIngest),
    ("fuzzy.search_us_p50", "neighbors_ms_p50", AnalystMix),
    ("fuzzy.candidates_per_hit", "neighbors_ms_p50", AnalystMix),
    // wire
    ("wire.encode_ns_per_datagram", "collect_us_p50", CampaignIngest),
    ("wire.decode_ns_per_datagram", "ingest_datagrams_per_s", CampaignIngest),
    ("wire.reassemble_ns_per_datagram", "ingest_datagrams_per_s", CampaignIngest),
    ("wire.bytes_per_datagram", "ingest_datagrams_per_s", CampaignIngest),
    // net (the UDP epoch)
    ("net.udp_send_ns_per_datagram", "collect_us_p50", CampaignIngest),
    ("net.udp_delivered_ratio", "ingest_datagrams_per_s", CampaignIngest),
    ("net.udp_overflowed", "ingest_datagrams_per_s", CampaignIngest),
    ("net.udp_commit_lag_ms", "commit_ms_p50", CampaignIngest),
    ("net.generator_late_ms_p99", "ingest_datagrams_per_s", CampaignIngest),
    // ingest
    ("ingest.push_ns_per_datagram", "ingest_datagrams_per_s", CampaignIngest),
    ("ingest.backpressure_waits", "ingest_datagrams_per_s", CampaignIngest),
    ("ingest.finish_ms", "commit_ms_p50", CampaignIngest),
    ("ingest.duplicates", "ingest_datagrams_per_s", CampaignIngest),
    ("ingest.incomplete", "ingest_datagrams_per_s", CampaignIngest),
    ("ingest.shards1_datagrams_per_s", "ingest_datagrams_per_s", CampaignIngest),
    ("ingest.shards2_datagrams_per_s", "ingest_datagrams_per_s", CampaignIngest),
    // db / consolidate
    ("db.insert_ns_per_message", "commit_ms_p50", CampaignIngest),
    ("consolidate.us_per_record", "commit_ms_p50", CampaignIngest),
    // store
    ("store.write_mb_per_s", "commit_ms_p50", CampaignIngest),
    ("store.fsync_floor_mb_per_s", "commit_ms_p50", CampaignIngest),
    ("store.write_x_floor", "commit_ms_p50", CampaignIngest),
    ("store.write_amplification", "disk_bytes_per_record", CampaignIngest),
    ("store.open_records_per_s", "reopen_records_per_s", FleetRecovery),
    ("store.compact_ms", "commit_ms_p50", CampaignIngest),
    // hash
    ("hash.fnv1a64_mb_per_s", "export_rows_per_s", BulkExport),
    ("hash.xxh3_mb_per_s", "export_rows_per_s", BulkExport),
    ("hash.memcpy_floor_mb_per_s", "export_rows_per_s", BulkExport),
    // service
    ("service.import_epoch_ms_p50", "commit_ms_p50", CampaignIngest),
    ("service.layer_build_us_per_record", "commit_ms_p50", CampaignIngest),
    ("service.with_epoch_ms", "commit_ms_p50", CampaignIngest),
    ("service.snapshot_layers", "query_ms_p50", AnalystMix),
    ("service.snapshot_merges", "commit_ms_p50", CampaignIngest),
    ("service.open_ms_p50", "reopen_records_per_s", FleetRecovery),
    ("service.snapshot_rebuild_records_per_s", "reopen_records_per_s", FleetRecovery),
    ("service.plan_rows_ns_per_row", "export_rows_per_s", BulkExport),
    ("service.job_plan_us_p50", "query_ms_p50", AnalystMix),
    ("service.neighbors_us_p50", "neighbors_ms_p50", AnalystMix),
    // proto
    ("proto.bytes_per_row", "export_rows_per_s", BulkExport),
    ("proto.batch_encode_ns_per_row", "export_rows_per_s", BulkExport),
    ("proto.batch_decode_ns_per_row", "export_rows_per_s", BulkExport),
    ("proto.frame_write_mb_per_s", "export_rows_per_s", BulkExport),
    ("proto.frame_write_x_memcpy", "export_rows_per_s", BulkExport),
    ("proto.loopback_floor_mb_per_s", "export_rows_per_s", BulkExport),
    ("proto.status_rtt_us_p50", "query_ms_p50", AnalystMix),
    // reactor: the serving tier as a client sees it
    ("reactor.connect_us_p50", "query_ms_p50", AnalystMix),
    ("reactor.fetch_page_ms_p50", "export_rows_per_s", BulkExport),
    ("reactor.close_cursor_us_p50", "query_ms_p50", AnalystMix),
    ("reactor.query_ms_p99", "queries_per_s", AnalystMix),
    ("reactor.query_ms_max", "queries_per_s", AnalystMix),
    ("reactor.export_first_row_ms_max", "first_row_ms_p50", BulkExport),
    // federation
    ("federation.route_overhead_ratio", "routed_export_rows_per_s", BulkExport),
    ("federation.router_rows_per_s", "routed_export_rows_per_s", BulkExport),
    ("federation.merge_ns_per_row", "routed_export_rows_per_s", BulkExport),
    ("federation.first_row_ms_p50", "routed_export_rows_per_s", BulkExport),
    ("federation.backends_dialed_per_query", "query_ms_p50", AnalystMix),
    ("federation.routed_query_ms_p50", "query_ms_p50", AnalystMix),
    ("federation.direct_query_ms_p50", "query_ms_p50", AnalystMix),
    // service::replicate
    ("repl.apply_ms_p50", "catchup_rows_per_s", FleetRecovery),
    ("repl.epochs_per_s", "catchup_rows_per_s", FleetRecovery),
    ("repl.promote_ms_p50", "catchup_rows_per_s", FleetRecovery),
    ("repl.post_promote_import_ms_p50", "catchup_rows_per_s", FleetRecovery),
    ("repl.reconnects", "catchup_rows_per_s", FleetRecovery),
    // obs and the benchmark's own tracing: move nothing; they bound
    // how far the traced numbers can be trusted.
    ("obs.span_record_ns", "query_ms_p50", AnalystMix),
    ("bench.trace_overhead_pct", "query_ms_p50", AnalystMix),
    ("bench.trace_root_coverage_pct", "query_ms_p50", AnalystMix),
];
