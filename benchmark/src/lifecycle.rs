//! One run, start to finish: ingest → fleet population → analyst
//! queries → bulk export → recovery (→ layer probes when traced), then
//! the named metrics.

use crate::analyst::{self, Analyst, AnalystOut};
use crate::export::{Export, ExportOut};
use crate::fleet::Fleet;
use crate::gen::{self, Catalog};
use crate::ingest::{self, Ingest, IngestOut};
use crate::probes::{self, Values};
use crate::recovery::{Recovery, RecoveryOut};
use crate::run::{Res, Run, CORPUS_EPOCHS};
use crate::spans;
use crate::stats::{median, percentile};
use crate::world::{self, RunDir};
use std::sync::Arc;

/// Everything one run measured.
#[derive(Debug)]
pub struct Measured {
    pub ingest: IngestOut,
    pub import_ms: Vec<f64>,
    pub analyst: AnalystOut,
    pub export: ExportOut,
    pub recovery: RecoveryOut,
    /// Isolated-layer numbers (traced runs only).
    pub probes: Values,
}

/// Slices every phase's repetitions are dealt into. The phases take
/// turns — a few epochs, a batch of queries, an export pair, a recovery
/// round, and round again — so each metric's samples span the whole
/// run and a slow spell of the machine lands on all of them alike
/// rather than on whichever phase happened to be running.
const CYCLES: usize = 4;

/// `total` repetitions dealt over [`CYCLES`] as evenly as they go.
fn slice(total: usize, cycle: usize) -> usize {
    total / CYCLES + usize::from(cycle < total % CYCLES)
}

/// Perform the whole lifecycle under `dir`.
pub fn perform(run: &mut Run, dir: &RunDir) -> Res<Measured> {
    let counts = run.counts;
    let mut ingest = Ingest::open(run, &dir.sub("ingest"))?;
    ingest.epochs(run, CORPUS_EPOCHS)?;
    let corpus = ingest.take_corpus();
    let catalog = run.setup("setup.catalog", |_| Arc::new(Catalog::from_corpus(&corpus)));

    let fleet = run.setup("setup.fleet.build", |run| {
        Fleet::build(&dir.sub("fleet"), &corpus, &mut run.spans)
    })?;

    let small_epoch = run.setup("setup.recovery.small_epoch", |run| {
        let fleet = gen::fleet(run.seed, gen::SMALL_EPOCH_SCALE);
        let input = gen::generate_epoch(&fleet, counts.ingest_epochs + 2, &mut run.spans);
        ingest::reference_epoch(&input, &mut run.spans)
    })?;
    let mut analyst = Analyst::warm(run, &fleet, &catalog)?;
    let mut export = Export::warm(run, &fleet)?;
    let mut recovery = Recovery::warm(
        run,
        &dir.sub("leader"),
        &dir.sub("follower"),
        &corpus,
        small_epoch,
    )?;

    for cycle in 0..CYCLES {
        ingest.epochs(run, slice(counts.ingest_epochs - CORPUS_EPOCHS, cycle))?;
        analyst.ops(run, &fleet, slice(counts.analyst_ops, cycle))?;
        export.pairs(run, slice(counts.export_pairs, cycle))?;
        recovery.rounds(run, slice(counts.recovery_rounds, cycle))?;
    }

    let mut probe_values = Values::new();
    if run.trace {
        probe_values.extend(run.rooted("probe.serving", |run| probes::serving(run, &fleet))?);
    }
    let import_ms = fleet.import_ms.clone();
    let analyst = analyst.finish();
    let export = export.finish();
    let recovery = recovery.finish(run);
    run.rooted("teardown.fleet", |_| drop(fleet));
    let ingest = ingest.finish(run)?;

    if run.trace {
        let sample = ingest
            .sample
            .as_ref()
            .ok_or("a traced run keeps its last epoch's input for the probes")?;
        probe_values.extend(run.rooted("probe.write_path", |run| {
            probes::write_path(run, sample, &dir.sub("probe"))
        })?);
        probe_values.extend(run.rooted("probe.read_path", |run| {
            probes::read_path(run, &corpus, &catalog)
        })?);
    }

    Ok(Measured {
        ingest,
        import_ms,
        analyst,
        export,
        recovery,
        probes: probe_values,
    })
}

/// A named value; `spec` knows its unit.
pub type Metric = (&'static str, f64);

fn latencies(m: &Measured, keep: impl Fn(&analyst::OpSample) -> bool) -> Vec<f64> {
    m.analyst
        .samples
        .iter()
        .filter(|s| keep(s))
        .map(|s| s.ms)
        .collect()
}

/// The fourteen end-to-end metrics.
pub fn end_to_end(run: &Run, m: &Measured) -> Vec<Metric> {
    // The direct and the routed client answer from different tiers, so
    // their latencies form two clusters and the median of the pooled
    // sample sits in the gap between them, where it jumps about. Each
    // client's own median is steady; report their mean.
    let per_client = |keep: &dyn Fn(&analyst::OpSample) -> bool| -> Vec<Vec<f64>> {
        [0u32, 1]
            .into_iter()
            .map(|client| latencies(m, |s| s.client == client && keep(s)))
            .collect()
    };
    let mean_of_medians = |clients: &[Vec<f64>]| {
        clients.iter().map(|ms| median(ms)).sum::<f64>() / clients.len() as f64
    };
    let all = per_client(&|_| true);
    let neighbors = per_client(&|s| s.kind == "neighbors");
    let queries_per_s: f64 = all
        .iter()
        .map(|ms| ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3))
        .sum();
    let rows = m.export.rows as f64;
    let records = m.recovery.records as f64;
    vec![
        ("setup_s", run.setup.as_secs_f64()),
        ("peak_rss_mb", world::peak_rss_mb()),
        ("ingest_datagrams_per_s", median(&m.ingest.datagrams_per_s)),
        ("commit_ms_p50", median(&m.ingest.commit_ms)),
        ("collect_us_p50", median(&m.ingest.collect_us)),
        (
            "disk_bytes_per_record",
            m.ingest.disk_bytes as f64 / m.ingest.records as f64,
        ),
        ("query_ms_p50", mean_of_medians(&all)),
        ("queries_per_s", queries_per_s),
        ("neighbors_ms_p50", mean_of_medians(&neighbors)),
        ("first_row_ms_p50", median(&m.export.direct_first_row_ms)),
        ("export_rows_per_s", rows / median(&m.export.direct_s)),
        (
            "routed_export_rows_per_s",
            rows / median(&m.export.routed_s),
        ),
        (
            "reopen_records_per_s",
            records / median(&m.recovery.reopen_s),
        ),
        (
            "catchup_rows_per_s",
            records / median(&m.recovery.catchup_s),
        ),
    ]
}

/// The per-layer metrics of a traced run: what the workload's own
/// phases showed about each layer, then the isolated probes.
pub fn per_layer(run: &Run, m: &Measured) -> Vec<Metric> {
    let i = &m.ingest;
    let all = latencies(m, |_| true);
    let direct = latencies(m, |s| s.client == 0);
    let routed = latencies(m, |s| s.client == 1);
    let catchup = median(&m.recovery.catchup_s);
    let (obs_span_ns, own_span_ns) = probes::span_costs(run);
    let recorded = run.spans.records().len() as f64;
    let coverage = spans::root_coverage(run.spans.records())
        .into_iter()
        .map(|(_, share)| share)
        .fold(1.0, f64::min);
    let mut out: Vec<Metric> = vec![
        ("collector.processes", i.observed as f64),
        (
            "collector.datagrams_per_process",
            i.datagrams as f64 / i.observed as f64,
        ),
        (
            "collector.policy_skip_ratio",
            i.skipped as f64 / (i.observed + i.skipped) as f64,
        ),
        ("collector.collect_us_p99", percentile(&i.collect_us, 99.0)),
        ("net.udp_send_ns_per_datagram", i.udp.send_ns_per_datagram),
        (
            "net.udp_delivered_ratio",
            i.udp.received as f64 / i.udp.sent as f64,
        ),
        ("net.udp_overflowed", i.udp.overflowed as f64),
        ("net.udp_commit_lag_ms", i.udp.commit_lag_ms),
        (
            "net.generator_late_ms_p99",
            percentile(&i.udp.late_ms, 99.0),
        ),
        (
            "ingest.push_ns_per_datagram",
            median(&i.push_ns_per_datagram),
        ),
        ("ingest.backpressure_waits", i.backpressure_waits as f64),
        ("ingest.duplicates", i.duplicates as f64),
        ("ingest.incomplete", i.incomplete as f64),
        ("service.import_epoch_ms_p50", median(&m.import_ms)),
        ("service.snapshot_layers", i.snapshot_layers as f64),
        ("service.snapshot_merges", i.snapshot_merges as f64),
        ("service.open_ms_p50", median(&m.recovery.open_ms)),
        ("reactor.query_ms_p99", percentile(&all, 99.0)),
        ("reactor.query_ms_max", percentile(&all, 100.0)),
        (
            "reactor.export_first_row_ms_max",
            percentile(&m.export.direct_first_row_ms, 100.0),
        ),
        (
            "federation.route_overhead_ratio",
            median(&m.export.routed_s) / median(&m.export.direct_s),
        ),
        (
            "federation.first_row_ms_p50",
            median(&m.export.routed_first_row_ms),
        ),
        (
            "federation.backends_dialed_per_query",
            m.analyst.backend_dials as f64 / routed.len().max(1) as f64,
        ),
        ("federation.routed_query_ms_p50", median(&routed)),
        ("federation.direct_query_ms_p50", median(&direct)),
        ("repl.apply_ms_p50", median(&m.recovery.apply_ms)),
        (
            "repl.epochs_per_s",
            m.recovery.epochs_per_round as f64 / catchup,
        ),
        ("repl.promote_ms_p50", median(&m.recovery.promote_ms)),
        (
            "repl.post_promote_import_ms_p50",
            median(&m.recovery.post_promote_import_ms),
        ),
        ("repl.reconnects", m.recovery.reconnects as f64),
        ("obs.span_record_ns", obs_span_ns),
        (
            "bench.trace_overhead_pct",
            recorded * own_span_ns / (run.measured.as_nanos() as f64) * 100.0,
        ),
        ("bench.trace_root_coverage_pct", coverage * 100.0),
    ];
    out.extend(m.probes.iter().copied());
    out
}
