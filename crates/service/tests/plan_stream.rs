//! End-to-end plan tests: composable plans answered as batch streams
//! with resumable, snapshot-pinned cursors.
//!
//! The acceptance bar: a client paginating an epoch-slice plan **while
//! epochs commit mid-cursor** returns exactly the rows the in-process
//! snapshot held when the cursor opened, and the property suite fuzzes
//! plans (slices, filters, orders, limits, projections, batch/page
//! geometry) against a hand-computed oracle.

use proptest::test_runner::rng_for;
use siren_consolidate::ProcessRecord;
use siren_db::Record;
use siren_proto::{
    ClientError, Order, PlanRow, Projection, QueryError, QueryPlan, RecordRow, Selection,
    SirenClient,
};
use siren_service::{ServiceConfig, SirenDaemon};
use siren_store::SegmentedOptions;
use siren_wire::{Layer, MessageType};
use std::path::PathBuf;
use std::time::Duration;

fn record(i: u64, jobs: u64) -> ProcessRecord {
    let row = Record {
        job_id: i % jobs,
        step_id: 0,
        pid: i as u32,
        exe_hash: format!("{i:032x}"),
        host: format!("nid{:06}", i % 7),
        time: 1_700_000_000 + (i * 37) % 1000,
        layer: Layer::SelfExe,
        mtype: MessageType::Meta,
        content: String::new(),
    };
    let mut rec = ProcessRecord::new(&row);
    rec.meta.insert("user".into(), format!("user_{}", i % 5));
    rec.meta
        .insert("path".into(), format!("/opt/app/bin{}", i % 16));
    rec.objects = Some(vec!["/lib64/libc.so.6".into()]);
    rec.file_hash = Some(format!("12:abcdef{i:04}ghijkl:mnopqr{i:04}stuvwx"));
    rec
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("siren-plan-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn server_config(dir: &PathBuf) -> ServiceConfig {
    ServiceConfig {
        store: SegmentedOptions {
            compact_min_files: 4,
            background_compaction: false,
        },
        query_addr: Some("127.0.0.1:0".parse().unwrap()),
        ..ServiceConfig::at(dir)
    }
}

/// The headline guarantee: a cursor opened before an epoch commits
/// keeps answering from the snapshot it pinned — pagination mid-ingest
/// returns exactly the job's records in the in-process snapshot taken
/// *before* the commits, and a fresh plan afterwards sees the new
/// epochs.
#[test]
fn pagination_is_snapshot_consistent_across_mid_cursor_commits() {
    let dir = temp_dir("pinned");
    let (mut daemon, _) = SirenDaemon::open(server_config(&dir)).unwrap();

    // A 3-epoch corpus where job 3 has rows in every epoch.
    for epoch in 0..3u64 {
        let records: Vec<ProcessRecord> = (epoch * 200..(epoch + 1) * 200)
            .map(|i| record(i, 10))
            .collect();
        assert_eq!(daemon.import_epoch(records).unwrap(), epoch);
    }
    let addr = daemon.query_addr().unwrap();

    // The oracle: job 3's records in the current (to-be-pinned)
    // snapshot, read in-process through the per-job postings.
    let pinned: Vec<RecordRow> = daemon
        .snapshot()
        .job_records(3)
        .into_iter()
        .map(|er| RecordRow {
            epoch: er.epoch,
            record: er.record.clone(),
        })
        .collect();
    assert!(!pinned.is_empty());

    // Open the streamed cursor with a page far smaller than the answer,
    // so pagination spans many fetches.
    let mut client = SirenClient::connect(addr).unwrap();
    let plan = QueryPlan::records()
        .filter(Selection::all().job(3).epochs(0, 2))
        .batch_rows(4)
        .page_rows(8);
    let mut stream = client.query(plan).unwrap();

    // First page only, then let two more epochs commit mid-cursor.
    let mut streamed: Vec<RecordRow> = Vec::new();
    for _ in 0..8 {
        match stream.next() {
            Some(Ok(row)) => streamed.push(row.into_record().unwrap()),
            other => panic!("expected a row, got {other:?}"),
        }
    }
    for epoch in 3..5u64 {
        let records: Vec<ProcessRecord> = (epoch * 200..(epoch + 1) * 200)
            .map(|i| record(i, 10))
            .collect();
        daemon.import_epoch(records).unwrap();
    }

    // Drain the rest of the cursor: the mid-cursor commits must be
    // invisible (pinned snapshot), so rows == the pre-commit oracle.
    for row in &mut stream {
        streamed.push(row.unwrap().into_record().unwrap());
    }
    drop(stream);
    assert_eq!(streamed, pinned, "pagination tore across commits");

    // A *fresh* plan sees the new epochs (the pin is per-cursor, not a
    // stale server).
    let fresh: Vec<PlanRow> = client
        .query(QueryPlan::records().filter(Selection::all().job(3)))
        .unwrap()
        .collect_rows()
        .unwrap();
    assert!(fresh.len() > pinned.len());

    // And the epoch-slice plan still answers only the sliced epochs.
    let sliced: Vec<PlanRow> = client
        .query(QueryPlan::records().filter(Selection::all().job(3).epochs(0, 2)))
        .unwrap()
        .collect_rows()
        .unwrap();
    assert_eq!(
        sliced
            .into_iter()
            .map(|r| r.into_record().unwrap())
            .collect::<Vec<_>>(),
        pinned
    );

    drop(daemon);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Fuzzed plans over fuzzed corpora: the wire stream (batched and
/// paginated) must equal a hand-computed oracle — filter, order,
/// limit, projection — applied to the daemon's snapshot.
#[test]
fn fuzzed_plans_match_the_oracle_over_the_wire() {
    let dir = temp_dir("prop");
    let (mut daemon, _) = SirenDaemon::open(server_config(&dir)).unwrap();
    let mut rng = rng_for("fuzzed_plans_match_the_oracle");

    let epochs = 4u64;
    let per_epoch = 120u64;
    for epoch in 0..epochs {
        let records: Vec<ProcessRecord> = (epoch * per_epoch..(epoch + 1) * per_epoch)
            .map(|i| record(i, 13))
            .collect();
        daemon.import_epoch(records).unwrap();
    }
    let snapshot = daemon.snapshot();
    let addr = daemon.query_addr().unwrap();
    let mut client = SirenClient::connect(addr).unwrap();

    for _ in 0..40 {
        // Random selection over the corpus's actual value ranges.
        let mut sel = Selection::all();
        if rng.below(3) == 0 {
            sel = sel.job(rng.below(15));
        }
        if rng.below(3) == 0 {
            sel = sel.host(format!("nid{:06}", rng.below(8)));
        }
        if rng.below(3) == 0 {
            let lo = rng.below(epochs);
            sel = sel.epochs(lo, lo + rng.below(3));
        }
        if rng.below(3) == 0 {
            let lo = 1_700_000_000 + rng.below(800);
            sel = sel.between(lo, lo + rng.below(400));
        }
        let order = match rng.below(3) {
            0 => Order::Commit,
            1 => Order::TimeAsc,
            _ => Order::TimeDesc,
        };
        let projection = if rng.below(2) == 0 {
            Projection::Full
        } else {
            Projection::Keys
        };
        let mut plan = QueryPlan::records()
            .filter(sel.clone())
            .order_by(order)
            .project(projection)
            .batch_rows(1 + rng.below(7) as u32)
            .page_rows(1 + rng.below(40) as u32);
        let limit = if rng.below(2) == 0 {
            let l = rng.below(200);
            plan = plan.limit(l);
            Some(l as usize)
        } else {
            None
        };

        // Oracle: filter in commit order, stable-sort, limit, project.
        let mut expected: Vec<RecordRow> = snapshot
            .iter()
            .filter(|er| sel.matches(er.epoch, &er.record))
            .map(|er| RecordRow {
                epoch: er.epoch,
                record: er.record.clone(),
            })
            .collect();
        match order {
            Order::Commit => {}
            Order::TimeAsc => expected.sort_by_key(|r| r.record.key.time),
            Order::TimeDesc => expected.sort_by_key(|r| std::cmp::Reverse(r.record.key.time)),
        }
        if let Some(l) = limit {
            expected.truncate(l);
        }
        for row in &mut expected {
            projection.apply(&mut row.record);
        }

        let got: Vec<RecordRow> = client
            .query(plan.clone())
            .unwrap()
            .collect_rows()
            .unwrap()
            .into_iter()
            .map(|r| r.into_record().unwrap())
            .collect();
        if got != expected {
            eprintln!("PLAN: {plan:?}");
            eprintln!("got {} rows, expected {}", got.len(), expected.len());
            for (i, (g, e)) in got.iter().zip(expected.iter()).enumerate() {
                if g != e {
                    eprintln!(
                        "first mismatch at {i}:\n  got {:?} {:?}\n  exp {:?} {:?}",
                        g.epoch, g.record.key, e.epoch, e.record.key
                    );
                    break;
                }
            }
            panic!("plan answered wrong rows");
        }
    }

    // Aggregation source: the usage table over a fuzzed selection must
    // equal the snapshot's own aggregation.
    for _ in 0..5 {
        let sel = if rng.below(2) == 0 {
            Selection::all()
        } else {
            Selection::all().epochs(0, rng.below(epochs))
        };
        let expected = {
            let records: Vec<ProcessRecord> = snapshot
                .iter()
                .filter(|er| sel.matches(er.epoch, &er.record))
                .map(|er| er.record.clone())
                .collect();
            siren_analysis::usage_table(&records)
        };
        let got: Vec<_> = client
            .query(QueryPlan::usage_table().filter(sel).batch_rows(3))
            .unwrap()
            .collect_rows()
            .unwrap()
            .into_iter()
            .map(|r| r.into_usage().unwrap())
            .collect();
        assert_eq!(got, expected);
    }

    // Neighbor source: scores and order must match the snapshot search.
    let probe = snapshot
        .iter()
        .find_map(|er| er.record.file_hash.clone())
        .unwrap();
    let got: Vec<_> = client
        .query(QueryPlan::neighbors(&probe, 50).limit(10).batch_rows(3))
        .unwrap()
        .collect_rows()
        .unwrap()
        .into_iter()
        .map(|r| r.into_neighbor().unwrap())
        .collect();
    let expected: Vec<(u32, u64)> = snapshot
        .nearest_neighbors(&probe, 10, 50)
        .into_iter()
        .map(|n| (n.score, n.epoch))
        .collect();
    assert_eq!(
        got.iter().map(|n| (n.score, n.epoch)).collect::<Vec<_>>(),
        expected
    );
    assert_eq!(got[0].score, 100);

    // A *filtered* neighbor plan ranks over the selection — filter
    // first, then limit — so in-selection hits shadowed by better
    // out-of-selection ones still surface. (The probe's exact match
    // lives in some epoch E; slicing to a different epoch must still
    // return that epoch's own best hits, not an empty set.)
    for slice in 0..epochs {
        let sel = Selection::all().epochs(slice, slice);
        let got: Vec<_> = client
            .query(
                QueryPlan::neighbors(&probe, 30)
                    .filter(sel.clone())
                    .limit(4),
            )
            .unwrap()
            .collect_rows()
            .unwrap()
            .into_iter()
            .map(|r| r.into_neighbor().unwrap())
            .collect();
        let expected: Vec<(u32, u64)> = snapshot
            .nearest_neighbors(&probe, usize::MAX, 30)
            .into_iter()
            .filter(|n| sel.matches(n.epoch, n.record))
            .take(4)
            .map(|n| (n.score, n.epoch))
            .collect();
        assert_eq!(
            got.iter().map(|n| (n.score, n.epoch)).collect::<Vec<_>>(),
            expected,
            "epoch slice {slice}"
        );
        assert!(got.iter().all(|n| n.epoch == slice));
        assert!(!got.is_empty(), "every epoch has in-slice hits");
    }

    drop(daemon);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The in-process `plan_rows` surface and the wire stream are the same
/// executor; spot-check they agree (the wire side is already oracle-
/// checked above).
#[test]
fn in_process_plan_rows_equals_wire_stream() {
    let dir = temp_dir("inproc");
    let (mut daemon, _) = SirenDaemon::open(server_config(&dir)).unwrap();
    daemon
        .import_epoch((0..300).map(|i| record(i, 9)).collect())
        .unwrap();
    daemon
        .import_epoch((300..500).map(|i| record(i, 9)).collect())
        .unwrap();
    let addr = daemon.query_addr().unwrap();
    let mut client = SirenClient::connect(addr).unwrap();

    let plan = QueryPlan::records()
        .filter(Selection::all().epochs(1, 1).host("nid000003"))
        .order_by(Order::TimeDesc)
        .project(Projection::Keys)
        .batch_rows(5)
        .page_rows(11);
    let local = daemon.snapshot().plan_rows(plan.clone()).unwrap();
    let wire = client.query(plan).unwrap().collect_rows().unwrap();
    assert!(!local.is_empty());
    assert_eq!(local, wire);

    drop(daemon);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Inverted ranges draw the typed `InvalidPlan` error on every wire
/// path: plan open and LibraryUsage.
#[test]
fn inverted_ranges_are_rejected_with_typed_errors() {
    let dir = temp_dir("inverted");
    let (mut daemon, _) = SirenDaemon::open(server_config(&dir)).unwrap();
    daemon
        .import_epoch((0..50).map(|i| record(i, 4)).collect())
        .unwrap();
    let addr = daemon.query_addr().unwrap();

    let mut client = SirenClient::connect(addr).unwrap();
    // Client-side validation fires first…
    assert!(matches!(
        client.query(QueryPlan::records().filter(Selection::all().between(9, 3))),
        Err(ClientError::Server(QueryError::InvalidPlan(_)))
    ));
    // …and the server rejects a hand-rolled inverted LibraryUsage too.
    assert!(matches!(
        client.call(&siren_proto::QueryRequest::LibraryUsage {
            selection: Selection::all().between(9, 3),
        }),
        Err(ClientError::Server(QueryError::InvalidPlan(_)))
    ));
    // The connection survives the typed error.
    assert!(client.status().is_ok());

    drop(daemon);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Cursor lifecycle: TTL eviction, explicit close, capacity bound, and
/// the Status gauges that surface it all.
#[test]
fn cursor_ttl_capacity_and_status_gauges() {
    let dir = temp_dir("cursors");
    let cfg = ServiceConfig {
        cursor_ttl: Duration::from_millis(400),
        query_max_cursors: 2,
        ..server_config(&dir)
    };
    let (mut daemon, _) = SirenDaemon::open(cfg).unwrap();
    daemon
        .import_epoch((0..400).map(|i| record(i, 3)).collect())
        .unwrap();
    let addr = daemon.query_addr().unwrap();

    let paged = || {
        QueryPlan::records()
            .filter(Selection::all().job(1))
            .batch_rows(4)
            .page_rows(4)
    };

    // 1. TTL: a parked cursor expires and a late fetch draws the typed
    //    UnknownCursor error (stream surfaces it as a server error).
    {
        let mut client = SirenClient::connect(addr).unwrap();
        let mut stream = client.query(paged()).unwrap();
        for _ in 0..4 {
            stream.next().unwrap().unwrap();
        }
        // The server parks the cursor right after flushing the page;
        // give its worker a beat before reading the gauge.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(daemon.open_cursors(), 1);
        assert_eq!(daemon.status().open_cursors, 1);
        std::thread::sleep(Duration::from_millis(1000));
        assert_eq!(daemon.open_cursors(), 0, "TTL must evict the cursor");
        match stream.next() {
            Some(Err(ClientError::Server(QueryError::UnknownCursor(_)))) => {}
            other => panic!("expected UnknownCursor, got {other:?}"),
        }
        drop(stream);
        // A typed server error arrives on a frame boundary: the
        // connection stays usable — dropping the failed stream must
        // not poison the client.
        assert!(
            client.status().is_ok(),
            "client must survive a clean typed stream error"
        );
    }

    // 2. Capacity: parking a third cursor evicts the stalest.
    {
        let mut c1 = SirenClient::connect(addr).unwrap();
        let mut c2 = SirenClient::connect(addr).unwrap();
        let mut c3 = SirenClient::connect(addr).unwrap();
        let mut s1 = c1.query(paged()).unwrap();
        s1.next().unwrap().unwrap();
        let mut s2 = c2.query(paged()).unwrap();
        s2.next().unwrap().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(daemon.open_cursors(), 2);
        let mut s3 = c3.query(paged()).unwrap();
        s3.next().unwrap().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(daemon.open_cursors(), 2, "capacity bound must hold");
        // The stalest (s1) was evicted; draining it hits UnknownCursor.
        let r1: Result<Vec<_>, _> = s1.collect_rows();
        assert!(matches!(
            r1,
            Err(ClientError::Server(QueryError::UnknownCursor(_)))
        ));
        // The survivors drain fine.
        assert!(s2.collect_rows().is_ok());
        assert!(s3.collect_rows().is_ok());
    }

    // 3. Dropping a stream mid-page closes its cursor (explicit close)
    //    and the connection stays usable.
    {
        let mut client = SirenClient::connect(addr).unwrap();
        {
            let mut stream = client.query(paged()).unwrap();
            stream.next().unwrap().unwrap();
        } // drop mid-stream
        assert_eq!(daemon.open_cursors(), 0, "drop must close the cursor");
        let status = client.status().unwrap();
        assert_eq!(status.open_cursors, 0);
        // Histogram counts this test's current-version connections (the
        // daemon here is fresh, so only the default negotiation shows
        // up).
        assert!(status
            .version_connections
            .iter()
            .any(|&(v, n)| v == siren_proto::PROTOCOL_VERSION && n >= 1));
        assert_eq!(status.queries_refused, 0);
    }

    drop(daemon);
    std::fs::remove_dir_all(&dir).unwrap();
}
