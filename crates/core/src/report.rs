//! Paper-style report rendering over consolidated records.
//!
//! Each function regenerates one table/figure of the paper's §4 and
//! returns it as text.

use siren_analysis as analysis;
use siren_analysis::Labeler;
use siren_consolidate::ProcessRecord;
use siren_obs::{MetricsSnapshot, SpanRecord, TraceTree};
use siren_text::SubstringDeriver;

/// Table 2.
pub fn usage_report(records: &[ProcessRecord]) -> String {
    analysis::usage::render_usage(&analysis::usage_table(records))
}

/// Table 3 (top 10 rows, like the paper).
pub fn system_report(records: &[ProcessRecord]) -> String {
    analysis::system_usage::render_system(&analysis::system_table(records), 10)
}

/// Table 4 (bash library variants).
pub fn bash_variants_report(records: &[ProcessRecord]) -> String {
    analysis::system_usage::render_library_variants(&analysis::library_variant_table(
        records,
        "/usr/bin/bash",
    ))
}

/// Table 5.
pub fn labels_report(records: &[ProcessRecord]) -> String {
    analysis::labels::render_labels(&analysis::label_table(records, &Labeler::default()))
}

/// Table 6.
pub fn compilers_report(records: &[ProcessRecord]) -> String {
    analysis::compilers::render_compilers(&analysis::compiler_table(records))
}

/// Table 7 — similarity search from the UNKNOWN baseline. Empty string
/// when no UNKNOWN instance exists in the records.
pub fn similarity_report(records: &[ProcessRecord]) -> String {
    let Some(baseline) = crate::find_unknown_baseline(records) else {
        return "Table 7: no UNKNOWN baseline present in this campaign\n".to_string();
    };
    let rows = analysis::similarity_search_table(records, baseline, &Labeler::default(), 10);
    analysis::similarity::render_similarity(&rows)
}

/// Table 8.
pub fn interpreters_report(records: &[ProcessRecord]) -> String {
    analysis::python_stats::render_interpreters(&analysis::interpreter_table(records))
}

/// Figure 2 (data series).
pub fn derived_libs_report(records: &[ProcessRecord]) -> String {
    analysis::derived_libs::render_derived_libs(&analysis::derived_library_stats(
        records,
        &SubstringDeriver::paper(),
    ))
}

/// Figure 3 (data series).
pub fn packages_report(records: &[ProcessRecord]) -> String {
    analysis::python_stats::render_packages(&analysis::package_stats(
        records,
        siren_cluster::python::PACKAGE_CATALOG,
    ))
}

/// Figure 4.
pub fn compiler_matrix_report(records: &[ProcessRecord]) -> String {
    analysis::compiler_matrix(records, &Labeler::default())
        .render("Figure 4: Compiler identification by software label")
}

/// Figure 5.
pub fn library_matrix_report(records: &[ProcessRecord]) -> String {
    analysis::library_matrix(records, &Labeler::default(), &SubstringDeriver::paper())
        .render("Figure 5: Loaded shared object usage by software label")
}

/// Format a nanosecond quantity with a human-scale unit.
fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}us", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

/// One latency histogram as `name p50=.. p99=.. max=.. (n=..)`, or
/// nothing when the series is absent or empty.
fn hist_line(out: &mut String, metrics: &MetricsSnapshot, label: &str, name: &str) {
    if let Some(h) = metrics.histogram(name) {
        if !h.is_empty() {
            out.push_str(&format!(
                "    {label}: p50={} p99={} max={} (n={})\n",
                fmt_ns(h.p50()),
                fmt_ns(h.p99()),
                fmt_ns(h.max),
                h.count
            ));
        }
    }
}

/// True when any counter under `prefix` was registered — the section
/// gate, so a snapshot renders only the tiers that actually ran.
fn has_series(metrics: &MetricsSnapshot, prefix: &str) -> bool {
    metrics.counters.iter().any(|(n, _)| n.starts_with(prefix))
        || metrics.gauges.iter().any(|(n, _)| n.starts_with(prefix))
        || metrics
            .histograms
            .iter()
            .any(|(n, _)| n.starts_with(prefix))
}

/// The unified telemetry renderer: every pipeline tier, one report,
/// driven entirely by a [`MetricsSnapshot`]. The same function renders
/// a [`crate::DeploymentResult::metrics`] snapshot (transport + ingest
/// series), a `SirenDaemon::metrics_snapshot`, and a
/// `SirenClient::metrics()` answer fetched over the wire — sections
/// whose series never registered are skipped, so each source shows
/// exactly the tiers it ran.
pub fn telemetry_report(metrics: &MetricsSnapshot) -> String {
    let c = |name: &str| metrics.counter(name);
    let mut out = String::from("Telemetry report\n");

    if has_series(metrics, "net.") {
        out.push_str(&format!(
            "  transport: {} datagrams sent, {} delivered, {} dropped\n",
            c("net.datagrams_sent"),
            c("net.datagrams_delivered"),
            c("net.datagrams_dropped")
        ));
    }
    if has_series(metrics, "ingest.") {
        out.push_str(&format!(
            "  ingest: {} messages received, {} reassembled ({} incomplete, {} duplicate chunks, {} inconsistent)\n",
            c("ingest.messages_received"),
            c("ingest.reassembled"),
            c("ingest.incomplete"),
            c("ingest.duplicates"),
            c("ingest.inconsistent")
        ));
        out.push_str(&format!(
            "  ingest: {} rows stored in {} batches, {} backpressure waits\n",
            c("ingest.rows_stored"),
            c("ingest.batches"),
            c("ingest.backpressure_waits")
        ));
        out.push_str(&format!(
            "  ingest replay: {} records recovered, {} torn-tail bytes discarded\n",
            c("ingest.replayed_records"),
            c("ingest.replay_tail_bytes")
        ));
        hist_line(&mut out, metrics, "reassembly", "ingest.reassembly_ns");
        hist_line(&mut out, metrics, "batch insert", "ingest.batch_insert_ns");
    }
    if has_series(metrics, "store.") {
        out.push_str(&format!(
            "  store: {} segments sealed, {} compaction passes ({} bytes rewritten)\n",
            c("store.segments_sealed"),
            c("store.compaction_passes"),
            c("store.compaction_bytes")
        ));
        hist_line(&mut out, metrics, "wal fsync", "store.wal_fsync_ns");
        hist_line(&mut out, metrics, "segment seal", "store.segment_seal_ns");
        hist_line(&mut out, metrics, "compaction", "store.compaction_ns");
    }
    if has_series(metrics, "service.") {
        out.push_str(&format!(
            "  service: {} epochs committed ({} records), {} background merges\n",
            c("service.epochs_committed"),
            c("service.records_committed"),
            c("service.snapshot_merges")
        ));
        out.push_str(&format!(
            "  ingest health: {} epoch-tag mismatches, {} quiet-period fallbacks\n",
            c("service.epoch_tag_mismatches"),
            c("service.quiet_period_fallbacks")
        ));
        hist_line(&mut out, metrics, "epoch commit", "service.commit_ns");
        hist_line(&mut out, metrics, "snapshot publish", "service.publish_ns");
        hist_line(&mut out, metrics, "layer merge", "service.merge_ns");
    }
    if has_series(metrics, "query.") {
        out.push_str(&format!(
            "  query: {} requests over {} connections ({} refused)\n",
            c("query.requests"),
            c("query.connections_accepted"),
            c("query.connections_refused")
        ));
        out.push_str(&format!(
            "  query: {} neighbor plans fell back to full scans\n",
            c("query.fuzzy_scan_fallbacks")
        ));
        hist_line(&mut out, metrics, "queue wait", "query.queue_wait_ns");
        hist_line(&mut out, metrics, "execution", "query.exec_ns");
        hist_line(
            &mut out,
            metrics,
            "batch serialize",
            "query.batch_serialize_ns",
        );
    }
    if has_series(metrics, "cursor.") {
        let (open, high_water) = metrics
            .gauge("cursor.open")
            .map(|g| (g.value, g.high_water))
            .unwrap_or((0, 0));
        out.push_str(&format!(
            "  cursors: {open} open (high water {high_water}), {} hits, {} misses, evicted {} by capacity / {} by TTL\n",
            c("cursor.hits"),
            c("cursor.misses"),
            c("cursor.evicted_capacity"),
            c("cursor.evicted_ttl")
        ));
    }
    if has_series(metrics, "fed.") {
        let up = metrics.gauge("fed.backends_up").map_or(0, |g| g.value);
        let down = metrics.gauge("fed.backends_down").map_or(0, |g| g.value);
        out.push_str(&format!(
            "  federation: {up} backends up, {down} down; {} queries merged ({} rows), {} partial results\n",
            c("fed.queries"),
            c("fed.rows_merged"),
            c("fed.partial_results")
        ));
        out.push_str(&format!(
            "  federation: {} replica failovers, {} promotions; {} probes ({} failed)\n",
            c("fed.failovers"),
            c("fed.promotions"),
            c("fed.probes"),
            c("fed.probe_failures")
        ));
        hist_line(&mut out, metrics, "scatter-gather", "fed.merge_ns");
        for (name, _) in &metrics.histograms {
            if let Some(set) = name.strip_prefix("fed.probe_ns.") {
                hist_line(&mut out, metrics, &format!("probe {set}"), name);
            }
        }
    }
    if !metrics.slow_queries.is_empty() {
        out.push_str(&format!(
            "  slow queries ({} most recent):\n",
            metrics.slow_queries.len()
        ));
        for entry in &metrics.slow_queries {
            let trace = if entry.trace_id != 0 {
                format!(" trace={:016x}", entry.trace_id)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "    plan {:016x} [{}]: {} rows in {}{trace}\n",
                entry.fingerprint,
                entry.shape,
                entry.rows,
                fmt_ns(entry.total_ns)
            ));
        }
    }
    out
}

/// Flame-style text rendering of reassembled trace trees: one block per
/// trace, each span indented under its parent with its duration and its
/// start offset relative to the earliest span in the tree. Spans whose
/// parent fell off the flight-recorder ring render at top level, so a
/// partially overwritten trace still shows everything that survived.
pub fn trace_report(trees: &[TraceTree]) -> String {
    let mut out = String::new();
    for tree in trees {
        out.push_str(&format!(
            "trace {} — {} spans, {}\n",
            tree.trace,
            tree.spans.len(),
            fmt_ns(tree.duration_ns())
        ));
        let known: std::collections::HashSet<u64> = tree.spans.iter().map(|s| s.id.0).collect();
        let base = tree.spans.first().map(|s| s.start_ns).unwrap_or(0);
        for span in &tree.spans {
            let rooted = match span.parent {
                None => true,
                Some(parent) => !known.contains(&parent.0),
            };
            if rooted {
                render_span(&mut out, tree, span, 1, base);
            }
        }
    }
    out
}

/// One span line plus, recursively, its children (start-order, the
/// order [`TraceTree`] keeps them in).
fn render_span(out: &mut String, tree: &TraceTree, span: &SpanRecord, depth: usize, base: u64) {
    out.push_str(&"  ".repeat(depth));
    out.push_str(&format!(
        "{} {} (+{})",
        span.stage,
        fmt_ns(span.duration_ns),
        fmt_ns(span.start_ns.saturating_sub(base))
    ));
    for (key, value) in &span.annotations {
        out.push_str(&format!(" {key}={value}"));
    }
    out.push('\n');
    for child in &tree.spans {
        if child.parent == Some(span.id) {
            render_span(out, tree, child, depth + 1, base);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Deployment, DeploymentConfig};

    #[test]
    fn telemetry_report_covers_deployment_series() {
        let mut cfg = DeploymentConfig::default();
        cfg.campaign.scale = 0.001;
        cfg.shards = 2;
        cfg.ingest_clamp = false;
        let result = Deployment::new(cfg).run();
        let report = super::telemetry_report(&result.metrics);
        assert!(report.contains("transport:"));
        assert!(report.contains("messages received"));
        assert!(report.contains("rows stored"));
        assert!(report.contains("replay: 0 records recovered"));
        assert!(report.contains("reassembly: p50="));
        assert!(report.contains("batch insert: p50="));
        assert_eq!(
            result.metrics.counter("ingest.rows_stored"),
            result.db_rows,
            "registry and result must agree"
        );
        // A deployment snapshot has no daemon-side series to render.
        assert!(!report.contains("query:"));
        assert!(!report.contains("cursors:"));
    }

    #[test]
    fn telemetry_report_covers_service_series() {
        use siren_obs::{Registry, SlowQueryEntry};
        let registry = Registry::new();
        registry.counter("query.requests").add(9);
        registry.counter("query.connections_accepted").add(5);
        registry.counter("query.connections_refused").add(7);
        registry.counter("cursor.hits").add(2);
        registry.gauge("cursor.open").set(3);
        registry.histogram("query.exec_ns").record(1_500_000);
        registry.counter("service.epochs_committed").add(3);
        registry.counter("service.records_committed").add(1234);
        registry.slow_queries().push(SlowQueryEntry {
            fingerprint: 0xdead_beef,
            shape: "records/time_asc sel=job".into(),
            rows: 500,
            total_ns: 123_400_000,
            trace_id: 0xabcd,
        });
        let report = super::telemetry_report(&registry.snapshot());
        assert!(report.contains("9 requests over 5 connections (7 refused)"));
        assert!(report.contains("3 open (high water 3)"));
        assert!(report.contains("execution: p50="));
        assert!(report.contains("3 epochs committed (1234 records)"));
        assert!(report.contains("slow queries (1 most recent):"));
        assert!(report.contains("plan 00000000deadbeef [records/time_asc sel=job]: 500 rows"));
        assert!(
            report.contains("trace=000000000000abcd"),
            "slow entries carry their trace id"
        );
        // No transport/ingest series registered: those sections vanish.
        assert!(!report.contains("transport:"));
        assert!(!report.contains("messages received"));

        let empty = super::telemetry_report(&Registry::new().snapshot());
        assert_eq!(empty, "Telemetry report\n");
    }

    #[test]
    fn telemetry_report_covers_federation_series() {
        use siren_obs::Registry;
        let registry = Registry::new();
        registry.counter("fed.queries").add(12);
        registry.counter("fed.rows_merged").add(3400);
        registry.counter("fed.partial_results").add(2);
        registry.counter("fed.failovers").add(1);
        registry.counter("fed.promotions").add(1);
        registry.counter("fed.probes").add(40);
        registry.counter("fed.probe_failures").add(3);
        registry.gauge("fed.backends_up").set(3);
        registry.gauge("fed.backends_down").set(1);
        registry.histogram("fed.merge_ns").record(2_000_000);
        registry.histogram("fed.probe_ns.shard-0").record(400_000);
        let report = super::telemetry_report(&registry.snapshot());
        assert!(report.contains("federation: 3 backends up, 1 down"));
        assert!(report.contains("12 queries merged (3400 rows), 2 partial results"));
        assert!(report.contains("1 replica failovers, 1 promotions; 40 probes (3 failed)"));
        assert!(report.contains("scatter-gather: p50="));
        assert!(report.contains("probe shard-0: p50="));
        // Router snapshots carry only fed.* series: no other section.
        assert!(!report.contains("query:"));
        assert!(!report.contains("  service:"));
    }

    #[test]
    fn trace_report_indents_children_under_parents() {
        use siren_obs::{TraceFilter, TraceStore};
        let store = TraceStore::default();
        let mut root = store.buffer().root("request.plan", None);
        root.annotate("shape", "records/time_asc");
        let exec = root.child("exec");
        let serialize = exec.child("serialize");
        serialize.finish();
        exec.finish();
        root.finish();

        let trees = store.traces(&TraceFilter::recent());
        let report = super::trace_report(&trees);
        assert!(report.contains("trace "), "header line present");
        assert!(report.contains("  request.plan"), "root at depth 1");
        assert!(report.contains("    exec"), "child indented under root");
        assert!(
            report.contains("      serialize"),
            "grandchild indented twice"
        );
        assert!(report.contains("shape=records/time_asc"));
        assert_eq!(super::trace_report(&[]), "");
    }

    #[test]
    fn every_artifact_renders() {
        use super::*;
        let mut cfg = DeploymentConfig::default();
        cfg.campaign.scale = 0.002;
        let records = Deployment::new(cfg).run().records;
        let report = [
            usage_report(&records),
            system_report(&records),
            bash_variants_report(&records),
            labels_report(&records),
            compilers_report(&records),
            similarity_report(&records),
            interpreters_report(&records),
            derived_libs_report(&records),
            packages_report(&records),
            compiler_matrix_report(&records),
            library_matrix_report(&records),
        ]
        .concat();
        for artifact in [
            "Table 2", "Table 3", "Table 4", "Table 5", "Table 6", "Table 7", "Table 8",
            "Figure 2", "Figure 3", "Figure 4", "Figure 5",
        ] {
            assert!(report.contains(artifact), "missing {artifact}");
        }
        // Spot-check structure: the campaign's users and softwares appear.
        assert!(report.contains("user_1"));
        assert!(report.contains("/usr/bin/bash"));
        assert!(report.contains("icon"));
        assert!(report.contains("python3."));
    }
}
