//! Reactor serving-tier E2E: hundreds of concurrent TCP connections,
//! each running interleaved multiplexed (v3) cursor streams, against a
//! live daemon. Every stream's rows must be byte-identical to the same
//! plan executed in-process on the same snapshot — multiplexing,
//! server-side prefetch, and frame compression are transparent to
//! results. A second suite drives hostile v3 envelopes and pins the
//! connection-scoped (stream 0) error behavior.

use siren_cluster::{Campaign, CampaignConfig, FleetConfig};
use siren_collector::{Collector, PolicyMode};
use siren_net::{Sender as _, SimChannel, SimConfig, UdpReceiver, UdpSender};
use siren_proto::{
    decode_stream_frame, encode_hello, read_frame, write_frame, FrameError, PlanRow, QueryError,
    QueryPlan, QueryResponse, SirenClient, CONNECTION_STREAM, PROTOCOL_VERSION,
};
use siren_service::{ServiceConfig, SirenDaemon};
use siren_store::SegmentedOptions;
use siren_wire::Message;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Concurrent connections held open at once; the acceptance floor.
const CONNECTIONS: usize = 256;
/// Client threads; each drives `CONNECTIONS / THREADS` connections.
const THREADS: usize = 32;

fn campaign_messages(cluster: usize, epoch: u64) -> Vec<Message> {
    let cfg = FleetConfig {
        clusters: 3,
        base: CampaignConfig {
            scale: 0.001,
            ..CampaignConfig::default()
        },
        ..FleetConfig::default()
    }
    .campaign_config(cluster);
    let (tx, rx) = SimChannel::create(SimConfig::perfect());
    let mut collector = Collector::new(&tx, PolicyMode::Selective)
        .with_sender_id(cluster as u32)
        .with_epoch(epoch);
    Campaign::new(cfg).run(|ctx| collector.observe(&ctx));
    collector.end_campaign();
    rx.drain_messages().0
}

fn temp_data_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("siren-reactor-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn server_config(dir: &PathBuf) -> ServiceConfig {
    ServiceConfig {
        store: SegmentedOptions {
            rotate_bytes: 16 * 1024,
            compact_min_files: 2,
            background_compaction: false,
        },
        shards: 2,
        query_addr: Some("127.0.0.1:0".parse().unwrap()),
        // Hundreds of connections are held open while a small thread
        // pool round-robins them: registration bursts must not be
        // refused, parked streams must not be deadline-dropped, and
        // one parked cursor per stream must fit the table.
        query_backlog: 2 * CONNECTIONS,
        query_deadline: Duration::from_secs(120),
        query_max_cursors: 4 * CONNECTIONS,
        quiet_period: Duration::from_millis(400),
        ..ServiceConfig::at(dir)
    }
}

/// Start a daemon and commit one epoch so plans have rows to stream.
fn daemon_with_data(tag: &str) -> SirenDaemon {
    let dir = temp_data_dir(tag);
    let (mut daemon, _) = SirenDaemon::open(server_config(&dir)).unwrap();
    let receiver = UdpReceiver::spawn(65_536).unwrap();
    let sender = UdpSender::connect(receiver.local_addr()).unwrap();
    for msg in campaign_messages(0, 0) {
        sender.send(&msg.encode());
    }
    let summaries = daemon.drain_udp(&receiver, 1).unwrap();
    assert_eq!(summaries.len(), 1, "the epoch must commit");
    daemon
}

/// The acceptance scenario: 256 connections open simultaneously, each
/// interleaving two multiplexed cursor streams with different paging
/// shapes (so their FetchCursor cadences collide on the wire), a
/// quarter of them with compressed replies enabled. Every stream must
/// reproduce the in-process oracle exactly, and every parked cursor
/// must be retired by the time the streams are drained.
#[test]
fn hundreds_of_multiplexed_connections_match_the_oracle() {
    let daemon = daemon_with_data("mux");
    let qaddr = daemon.query_addr().unwrap();
    let snapshot = daemon.snapshot();

    // Small batches and mismatched page sizes force multi-page
    // streams: cursors park, prefetch fires, stream ids interleave.
    let plan_a = QueryPlan::records().batch_rows(3).page_rows(6);
    let plan_b = QueryPlan::usage_table().batch_rows(2).page_rows(4);
    let expected_a = snapshot.plan_rows(plan_a.clone()).unwrap();
    let expected_b = snapshot.plan_rows(plan_b.clone()).unwrap();
    assert!(
        expected_a.len() > 12,
        "records plan must span multiple pages (got {} rows)",
        expected_a.len()
    );
    assert!(!expected_b.is_empty(), "usage plan must produce rows");

    let per_thread = CONNECTIONS / THREADS;
    let barrier = Arc::new(Barrier::new(THREADS));
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let barrier = Arc::clone(&barrier);
            let plan_a = plan_a.clone();
            let plan_b = plan_b.clone();
            let expected_a = expected_a.clone();
            let expected_b = expected_b.clone();
            std::thread::spawn(move || {
                // Open this thread's connections first, then rendezvous:
                // all 256 are registered with the reactor at once.
                let muxes: Vec<_> = (0..per_thread)
                    .map(|c| {
                        let mut client = SirenClient::connect(qaddr).expect("connect");
                        if (t * per_thread + c).is_multiple_of(4) {
                            client.set_accept_compressed(true);
                        }
                        client.into_mux().expect("usable connection")
                    })
                    .collect();
                barrier.wait();
                for mux in &muxes {
                    let mut a = mux.query(plan_a.clone()).expect("open stream a");
                    let mut b = mux.query(plan_b.clone()).expect("open stream b");
                    assert_ne!(a.stream_id(), b.stream_id());
                    // Interleave: one row from each in turn, so both
                    // streams are mid-flight on the connection at once.
                    let mut rows_a: Vec<PlanRow> = Vec::new();
                    let mut rows_b: Vec<PlanRow> = Vec::new();
                    loop {
                        let next_a = a.next().transpose().expect("stream a row");
                        let next_b = b.next().transpose().expect("stream b row");
                        if let Some(row) = next_a {
                            rows_a.push(row);
                        }
                        if let Some(row) = next_b {
                            rows_b.push(row);
                        }
                        if a.is_done() && b.is_done() {
                            break;
                        }
                    }
                    assert_eq!(rows_a, expected_a, "stream a diverged from oracle");
                    assert_eq!(rows_b, expected_b, "stream b diverged from oracle");
                }
                // Keep every connection open until all threads have
                // drained theirs, so peak concurrency is the full set.
                barrier.wait();
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("mux worker");
    }

    // Cursor hygiene: every stream ran to exhaustion, so nothing may
    // still be parked.
    assert_eq!(
        daemon.open_cursors(),
        0,
        "drained streams must retire cursors"
    );

    // The gauge saw all connections alive at once, and compression
    // actually engaged for the opted-in quarter.
    let mut probe = SirenClient::connect(qaddr).unwrap();
    let m = probe.metrics().unwrap();
    let gauge = m.gauge("net.active_connections").unwrap();
    assert!(
        gauge.high_water >= CONNECTIONS as i64,
        "high-water {} must cover the {} simultaneous connections",
        gauge.high_water,
        CONNECTIONS
    );
    assert!(m.counter("query.negotiated_v3") >= CONNECTIONS as u64);
}

/// Compression is negotiated per request and transparent: the same
/// plan with replies compressed yields identical rows, and the frame
/// counters prove compression actually happened.
#[test]
fn compressed_replies_are_byte_identical_and_counted() {
    let daemon = daemon_with_data("compress");
    let qaddr = daemon.query_addr().unwrap();
    let snapshot = daemon.snapshot();

    // One big page: the batch body comfortably clears the compression
    // threshold (default 4 KiB) so the reply arrives compressed.
    let plan = QueryPlan::records().batch_rows(512).page_rows(4096);
    let expected = snapshot.plan_rows(plan.clone()).unwrap();

    let mut client = SirenClient::connect(qaddr).unwrap();
    client.set_accept_compressed(true);
    let rows = client.query(plan).unwrap().collect_rows().unwrap();
    assert_eq!(rows, expected, "compressed stream diverged from oracle");

    let m = client.metrics().unwrap();
    assert!(
        m.counter("stream.compressed_frames") >= 1,
        "a large batch reply must have been compressed"
    );
    assert!(m.counter("stream.compressed_bytes_saved") > 0);
}

/// Dropping a multiplexed stream mid-page must drain it to its frame
/// boundary and synchronously close the parked cursor — the shared
/// connection stays usable and the cursor table ends empty.
#[test]
fn dropped_mux_stream_closes_its_cursor_and_connection_survives() {
    let daemon = daemon_with_data("drop");
    let qaddr = daemon.query_addr().unwrap();
    let snapshot = daemon.snapshot();

    let plan = QueryPlan::records().batch_rows(2).page_rows(4);
    let expected = snapshot.plan_rows(plan.clone()).unwrap();
    assert!(expected.len() > 8, "need a multi-page plan");

    let client = SirenClient::connect(qaddr).unwrap().into_mux().unwrap();
    {
        let mut doomed = client.query(plan.clone()).expect("open stream");
        let first = doomed.next().expect("first row").expect("row ok");
        assert_eq!(first, expected[0]);
        // Dropped here, mid-page with a cursor parked server-side.
    }
    assert_eq!(
        daemon.open_cursors(),
        0,
        "dropping the stream must close its parked cursor"
    );
    // Same handle still streams correctly after the abandoned sibling.
    let rows = client
        .query(plan)
        .expect("reuse connection")
        .collect_rows()
        .expect("drain rows");
    assert_eq!(rows, expected);
}

/// Hostile envelopes: a post-negotiation frame too short to carry the
/// stream header is a connection-scoped fault — the server answers
/// with a typed error on stream 0 and closes. (The frame-layer hostile
/// suite lives in `query_server.rs`; this is its envelope counterpart.)
#[test]
fn undersized_v3_envelope_draws_stream_zero_error_and_close() {
    let daemon = daemon_with_data("hostile");
    let qaddr = daemon.query_addr().unwrap();

    let mut stream = TcpStream::connect(qaddr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write_frame(&mut stream, &encode_hello(1, PROTOCOL_VERSION)).unwrap();
    let ack = read_frame(&mut stream).unwrap();
    assert_eq!(siren_proto::decode_hello_ack(&ack), Some(PROTOCOL_VERSION));

    // Four bytes: a valid *frame*, but not a valid envelope (the
    // stream header alone is five). The envelope is unattributable, so
    // the failure is connection-scoped.
    write_frame(&mut stream, &[0xEE, 1, 2, 3]).unwrap();
    let payload = read_frame(&mut stream).expect("error reply before close");
    let frame = decode_stream_frame(&payload).expect("reply must carry an envelope");
    assert_eq!(
        frame.stream_id, CONNECTION_STREAM,
        "unattributable faults answer on stream 0"
    );
    match QueryResponse::decode(&frame.body) {
        Ok(QueryResponse::Error(QueryError::Malformed(_))) => {}
        other => panic!("expected Malformed on stream 0, got {other:?}"),
    }
    match read_frame(&mut stream) {
        Err(FrameError::Closed) => {}
        other => panic!("expected clean close after stream-0 error, got {other:?}"),
    }
}
