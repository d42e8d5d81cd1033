//! Reactor serving-tier E2E: hundreds of concurrent TCP connections
//! against a live daemon, and two cursor streams multiplexed over one
//! raw connection. Every stream's rows must be byte-identical to the
//! same plan executed in-process on the same snapshot — stream-id
//! multiplexing, server-side prefetch, and frame compression are
//! transparent to results. A second suite drives hostile envelopes and
//! pins the connection-scoped (stream 0) error behavior.

use siren_cluster::{Campaign, CampaignConfig, FleetConfig};
use siren_collector::{Collector, PolicyMode};
use siren_net::{Sender as _, SimChannel, SimConfig, UdpReceiver, UdpSender};
use siren_proto::{
    decode_stream_frame, encode_hello, encode_stream_frame, read_frame, write_frame, FrameError,
    PlanRow, QueryError, QueryPlan, QueryRequest, QueryResponse, SirenClient, CONNECTION_STREAM,
    PROTOCOL_VERSION,
};
use siren_service::{ServiceConfig, SirenDaemon};
use siren_store::SegmentedOptions;
use siren_wire::Message;
use std::io::Write;
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
/// draining two plans with different paging shapes (so their
/// FetchCursor cadences collide across connections), a quarter of them
/// with compressed replies enabled. Every stream must reproduce the
/// in-process oracle exactly, and every parked cursor must be retired
/// by the time the streams are drained.
#[test]
fn hundreds_of_multiplexed_connections_match_the_oracle() {
    let daemon = daemon_with_data("mux");
    let qaddr = daemon.query_addr().unwrap();
    let snapshot = daemon.snapshot();

    // Small batches and mismatched page sizes force multi-page
    // streams: cursors park and prefetch fires.
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
                let mut clients: Vec<_> = (0..per_thread)
                    .map(|c| {
                        let mut client = SirenClient::connect(qaddr).expect("connect");
                        if (t * per_thread + c).is_multiple_of(4) {
                            client.set_accept_compressed(true);
                        }
                        client
                    })
                    .collect();
                barrier.wait();
                for client in &mut clients {
                    let rows_a = client.query(plan_a.clone()).expect("open stream a");
                    let rows_a = rows_a.collect_rows().expect("stream a rows");
                    let rows_b = client.query(plan_b.clone()).expect("open stream b");
                    let rows_b = rows_b.collect_rows().expect("stream b rows");
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
        worker.join().expect("client worker");
    }

    // Cursor hygiene: every stream ran to exhaustion, so nothing may
    // still be parked.
    assert_eq!(
        daemon.open_cursors(),
        0,
        "drained streams must retire cursors"
    );

    // The gauge saw all connections alive at once.
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

/// Two plans pipelined on one raw connection under stream ids 1 and 2:
/// the server answers both at once, interleaving their frames by id
/// (a frame of one reply lands between two frames of the other), and
/// each stream's cursor continues under its own id. Demultiplexed by
/// id, both reproduce the oracle, and no cursor outlives them.
#[test]
fn two_streams_on_one_connection_interleave_by_stream_id() {
    let daemon = daemon_with_data("interleave");
    let qaddr = daemon.query_addr().unwrap();
    let snapshot = daemon.snapshot();

    let plans = [
        QueryPlan::records().batch_rows(3).page_rows(6),
        QueryPlan::usage_table().batch_rows(2).page_rows(4),
    ];
    let expected: Vec<Vec<PlanRow>> = plans
        .iter()
        .map(|plan| snapshot.plan_rows(plan.clone()).unwrap())
        .collect();
    // The corpus arrives over UDP, so its size varies with loss; the
    // records plan must still page, so stream 1 resumes its cursor.
    assert!(
        expected[0].len() > 6,
        "records plan must span pages (got {} rows)",
        expected[0].len()
    );
    assert!(!expected[1].is_empty(), "usage plan must produce rows");

    let mut stream = TcpStream::connect(qaddr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write_frame(
        &mut stream,
        &encode_hello(PROTOCOL_VERSION, PROTOCOL_VERSION),
    )
    .unwrap();
    let ack = read_frame(&mut stream).unwrap();
    assert_eq!(siren_proto::decode_hello_ack(&ack), Some(PROTOCOL_VERSION));

    let framed = |id: u32, request: QueryRequest| {
        siren_store::encode_frame(&encode_stream_frame(id, &request.encode(), false, None))
    };
    // Both plans in one write, so the server holds both replies at once.
    let mut pipelined = framed(1, QueryRequest::Plan(plans[0].clone()));
    pipelined.extend(framed(2, QueryRequest::Plan(plans[1].clone())));
    stream.write_all(&pipelined).unwrap();

    let mut rows: [Vec<PlanRow>; 2] = Default::default();
    let mut open = [true, true];
    // A stream is mid-reply between the first frame of a page and its
    // StreamEnd; a frame of the other stream arriving then interleaves.
    let mut mid_reply = [false, false];
    let mut interleaved = 0;
    while open.iter().any(|&o| o) {
        let frame = decode_stream_frame(&read_frame(&mut stream).unwrap()).unwrap();
        let id = frame.stream_id;
        assert!(id == 1 || id == 2, "reply tagged unknown stream {id}");
        let slot = (id - 1) as usize;
        if mid_reply[1 - slot] {
            interleaved += 1;
        }
        mid_reply[slot] = true;
        match QueryResponse::decode(&frame.body).unwrap() {
            QueryResponse::Batch(batch) => rows[slot].extend(batch.into_rows()),
            QueryResponse::StreamEnd {
                cursor: Some(cursor),
            } => {
                mid_reply[slot] = false;
                let fetch = framed(id, QueryRequest::FetchCursor { cursor });
                stream.write_all(&fetch).unwrap();
            }
            QueryResponse::StreamEnd { cursor: None } => {
                mid_reply[slot] = false;
                open[slot] = false;
            }
            other => panic!("stream {id}: unexpected {other:?}"),
        }
    }

    assert_eq!(rows[0], expected[0], "stream 1 diverged from oracle");
    assert_eq!(rows[1], expected[1], "stream 2 diverged from oracle");
    assert!(
        interleaved > 0,
        "the two replies must interleave on the wire"
    );
    assert_eq!(daemon.open_cursors(), 0, "both cursors must be retired");
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
