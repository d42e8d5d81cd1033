//! Demonstrates the TCP query protocol end to end: a daemon ingests one
//! small campaign as an epoch, serves the query protocol on a loopback
//! port, and a typed [`SirenClient`] asks it for status, per-job
//! records, library usage, and fuzzy nearest neighbors — exactly what
//! an analyst-side tool would do against a production deployment. The
//! second half uses composable [`QueryPlan`]s directly, answered as lazy
//! [`RowStream`]s with server-side pagination, stamps a paged plan with
//! a trace id and renders the span tree the server recorded for it, and
//! closes with a federated router in front of a two-shard fleet.
//!
//! ```bash
//! cargo run --release --example query_client
//! ```

use siren_repro::cluster::{Campaign, CampaignConfig};
use siren_repro::collector::{Collector, PolicyMode};
use siren_repro::consolidate::{record_order, ProcessRecord};
use siren_repro::federation::{FleetConfig, Router, RouterDaemon};
use siren_repro::net::{SimChannel, SimConfig};
use siren_repro::proto::{
    Order, Projection, QueryPlan, RetryPolicy, Selection, SirenClient, TraceFilter, TraceId,
};
use siren_repro::report::trace_report;
use siren_repro::service::{ServiceConfig, SirenDaemon};
use siren_repro::wire::ShardRouter;
use std::time::Duration;

fn main() {
    let data_dir = std::env::temp_dir().join(format!("siren-query-client-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);

    // A daemon with the TCP query server enabled on an ephemeral port.
    let cfg = ServiceConfig {
        query_addr: Some("127.0.0.1:0".parse().unwrap()),
        shards: 2,
        ..ServiceConfig::at(&data_dir)
    };
    let (mut daemon, _) = SirenDaemon::open(cfg).expect("open daemon");
    let addr = daemon.query_addr().expect("query server up");
    println!("daemon serving queries on {addr}");

    // Ingest one small campaign as epoch 0 (collector → messages →
    // daemon; the sentinel burst closes and commits the epoch).
    let (tx, rx) = SimChannel::create(SimConfig::perfect());
    let mut collector = Collector::new(&tx, PolicyMode::Selective).with_epoch(0);
    Campaign::new(CampaignConfig {
        scale: 0.002,
        ..CampaignConfig::default()
    })
    .run(|ctx| collector.observe(&ctx));
    collector.end_campaign();
    for msg in rx.drain_messages().0 {
        daemon.push(msg).expect("ingest");
    }

    // Everything below talks to the daemon over TCP only. Connect
    // under the default retry policy: a daemon still binding its port
    // (or restarting) costs a few jittered backoffs, not a failure.
    let timeout = Duration::from_secs(5);
    let mut client =
        SirenClient::connect_with_retry(addr, timeout, &RetryPolicy::default()).expect("connect");

    let status = client.status().expect("status");
    println!(
        "status: {} records across epochs {:?} (tag mismatches {}, quiet fallbacks {})",
        status.records,
        status.committed_epochs,
        status.epoch_tag_mismatches,
        status.quiet_period_fallbacks,
    );

    // Per-job drill-down on whichever job the first record belongs to
    // (`by_job` and `neighbors` are sugar over the plans shown below).
    let snapshot = daemon.snapshot();
    let probe = &snapshot.get(0).expect("campaign produced records").record;
    let rows = client.by_job(probe.key.job_id).expect("by_job");
    println!(
        "job {}: {} records, first on host {}",
        probe.key.job_id,
        rows.len(),
        rows[0].record.key.host,
    );

    // Library usage restricted to that record's host.
    let usage = client
        .library_usage(Selection::all().host(probe.key.host.clone()))
        .expect("library_usage");
    println!("top libraries on {}:", probe.key.host);
    for row in usage.iter().take(5) {
        println!(
            "  {:<40} {:>5} processes on {:>3} hosts",
            row.library, row.processes, row.hosts
        );
    }

    // Fuzzy nearest neighbors of a real FILE_H from the campaign.
    if let Some(hash) = snapshot.iter().find_map(|er| er.record.file_hash.clone()) {
        let neighbors = client.neighbors(&hash, 5, 50).expect("neighbors");
        println!("nearest neighbors of {hash}:");
        for n in &neighbors {
            println!(
                "  score {:>3}  epoch {}  {}",
                n.score,
                n.epoch,
                n.record.exe_path().unwrap_or("?"),
            );
        }
    }

    // ---- Composable plans, streamed answers. ----

    // A record stream over an epoch slice, newest first, keys only,
    // delivered in bounded batches through a server-side cursor. The
    // RowStream fetches pages lazily as the iterator advances, and the
    // cursor pins the snapshot it opened on, so the answer is immune
    // to epochs committing mid-pagination.
    let plan = QueryPlan::records()
        .filter(Selection::all().job(probe.key.job_id).epochs(0, 0))
        .order_by(Order::TimeDesc)
        .project(Projection::Keys)
        .limit(8)
        .batch_rows(4)
        .page_rows(4);
    let stream = client.query(plan).expect("open plan stream");
    println!("plan stream (job {}, newest first):", probe.key.job_id);
    for row in stream {
        let row = row.expect("stream row").into_record().expect("record row");
        println!(
            "  t={} epoch {} host {}",
            row.record.key.time, row.epoch, row.record.key.host
        );
    }

    // The paper's per-user usage table as a plan.
    let usage_rows = client
        .query(QueryPlan::usage_table().limit(5))
        .expect("usage plan")
        .collect_rows()
        .expect("usage rows");
    println!("top users (usage-table plan):");
    for row in usage_rows {
        let row = row.into_usage().expect("usage row");
        println!(
            "  {:<10} {:>4} jobs, {:>5} system / {:>4} user / {:>4} python processes",
            row.user, row.jobs, row.system_procs, row.user_procs, row.python_procs
        );
    }

    // The daemon's whole metric registry in one request: ingest and
    // commit spans, query latency histograms, cursor-table counters,
    // and the slow-query ring — everything the queries above recorded.
    let metrics = client.metrics().expect("metrics");
    println!(
        "telemetry: {} requests served, commit p50 {}us, exec p50 {}us",
        metrics.counter("query.requests"),
        metrics
            .histogram("service.commit_ns")
            .map(|h| h.p50() / 1_000)
            .unwrap_or(0),
        metrics
            .histogram("query.exec_ns")
            .map(|h| h.p50() / 1_000)
            .unwrap_or(0),
    );
    print!("{}", metrics.render_text());

    // ---- End-to-end tracing. ----
    //
    // Stamp a paged plan with a trace id of our choosing; the server
    // threads it through queue wait, execution, and every batch
    // serialization, and the parked cursor rejoins each later fetch to
    // the same tree. Then pull the reassembled tree back over the wire
    // and render it as an indented span outline.
    let trace = TraceId::generate();
    let traced_plan = QueryPlan::records()
        .filter(Selection::all().job(probe.key.job_id))
        .batch_rows(4)
        .page_rows(4);
    let traced_rows = client
        .query_traced(traced_plan, trace)
        .expect("traced plan")
        .collect_rows()
        .expect("traced rows");
    println!(
        "traced plan returned {} rows under trace {trace}",
        traced_rows.len()
    );

    let trees = client
        .traces(TraceFilter::recent().trace(trace))
        .expect("traces");
    print!("{}", trace_report(&trees));

    // Server-side work leaves its own trees: the epoch ingested above
    // recorded recv → reassembly → wal_insert → fold → commit → publish.
    let ingest_trees = client
        .traces(TraceFilter::recent().stage("epoch.ingest").limit(1))
        .expect("ingest traces");
    print!("{}", trace_report(&ingest_trees));

    // ---- Federation: one router port over a sharded fleet. ----
    //
    // Split the same corpus into two job-hash shards, each held by its
    // own daemon, and put a federated router in front. The router
    // scatter-gathers every plan across the shards, k-way-merges the
    // ordered streams, and serves the ordinary wire protocol — so the
    // unmodified SirenClient below cannot tell it from a single daemon
    // holding the union.
    let shard_router = ShardRouter::new(2);
    let mut union: Vec<ProcessRecord> = snapshot.iter().map(|er| er.record.clone()).collect();
    union.sort_by(record_order);
    let mut shard_daemons: Vec<SirenDaemon> = (0..2u32)
        .map(|k| {
            let dir = data_dir.join(format!("shard-{k}"));
            let cfg = ServiceConfig {
                query_addr: Some("127.0.0.1:0".parse().unwrap()),
                shards: 2,
                ..ServiceConfig::at(&dir)
            };
            let (mut d, _) = SirenDaemon::open(cfg).expect("open shard daemon");
            let subset: Vec<ProcessRecord> = union
                .iter()
                .filter(|r| shard_router.shard_of_job(r.key.job_id) == k as usize)
                .cloned()
                .collect();
            d.import_epoch(subset).expect("import shard subset");
            d
        })
        .collect();
    let fleet = FleetConfig {
        retry: RetryPolicy {
            max_retries: 1,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(20),
            jitter: false,
        },
        ..FleetConfig::sharded(shard_daemons.iter().map(|d| d.query_addr().unwrap()))
    };
    let router = RouterDaemon::spawn(Router::new(fleet).expect("fleet config"), "127.0.0.1:0")
        .expect("spawn router");
    let mut fed_client = SirenClient::connect(router.local_addr()).expect("connect router");
    let fed_status = fed_client.status().expect("fleet status");
    println!(
        "federated fleet on {}: {} records across 2 shards, epochs {:?}",
        router.local_addr(),
        fed_status.records,
        fed_status.committed_epochs,
    );
    let merged = fed_client
        .query(QueryPlan::records().order_by(Order::TimeAsc).limit(6))
        .expect("federated plan")
        .collect_rows()
        .expect("merged rows");
    println!("first {} rows of the time-ordered merge:", merged.len());
    for row in &merged {
        let row = row.clone().into_record().expect("record row");
        println!(
            "  t={} job {} host {}",
            row.record.key.time, row.record.key.job_id, row.record.key.host
        );
    }

    // Kill one shard: the same plan now degrades to a typed partial
    // result — the surviving shard's rows plus a warning naming the
    // missing backend, never a silently wrong answer.
    drop(shard_daemons.pop());
    let (partial, warnings) = fed_client
        .query(QueryPlan::records())
        .expect("degraded plan")
        .collect_rows_warned()
        .expect("partial rows");
    println!(
        "with shard-1 dark: {} rows and warning \"{}\"",
        partial.len(),
        warnings.first().map(|w| w.to_string()).unwrap_or_default(),
    );
    router.shutdown();

    drop(daemon);
    let _ = std::fs::remove_dir_all(&data_dir);
}
