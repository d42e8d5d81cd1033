//! End-to-end query-server tests: a daemon ingesting epochs over real
//! UDP loopback while concurrent clients query over TCP. At every
//! commit point the wire answers must equal the in-process
//! [`QuerySnapshot`] results — the acceptance bar for the query
//! protocol. A second suite feeds the server hostile bytes
//! (truncated frames, bad checksums, unknown tags, absurd length
//! prefixes) and requires typed errors and clean closes, never panics.

use siren_cluster::{Campaign, CampaignConfig, FleetConfig};
use siren_collector::{Collector, PolicyMode};
use siren_consolidate::{consolidate, ProcessRecord};
use siren_db::Database;
use siren_net::{Sender as _, SimChannel, SimConfig, UdpReceiver, UdpSender};
use siren_proto::{
    decode_hello_ack, decode_stream_frame, encode_hello, encode_stream_frame, read_frame,
    write_frame, ClientError, NeighborRow, QueryError, QueryRequest, QueryResponse, RecordRow,
    Selection, SirenClient, TraceFilter, TraceId, PROTOCOL_VERSION,
};
use siren_service::{ServiceConfig, SirenDaemon};
use siren_store::SegmentedOptions;
use siren_wire::{Message, MessageType, Reassembler};
use std::io::Write as _;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn campaign_messages(cluster: usize, epoch: u64, seed: u64) -> Vec<Message> {
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
    let _ = seed;
    Campaign::new(cfg).run(|ctx| collector.observe(&ctx));
    collector.end_campaign();
    rx.drain_messages().0
}

/// The reference: one serial reassembler + database + consolidation.
fn reference_fold(messages: &[Message]) -> Vec<ProcessRecord> {
    let mut reasm = Reassembler::new();
    let rows = Database::in_memory();
    for msg in messages {
        if let Some(done) = reasm.push(msg.clone()) {
            rows.insert_message(done).unwrap();
        }
    }
    consolidate(&rows).records
}

fn temp_data_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("siren-qserver-{tag}-{}", std::process::id()));
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
        quiet_period: Duration::from_millis(400),
        ..ServiceConfig::at(dir)
    }
}

#[test]
fn tcp_answers_equal_in_process_snapshot_at_every_commit_point() {
    let dir = temp_data_dir("e2e");
    let (mut daemon, _) = SirenDaemon::open(server_config(&dir)).unwrap();
    let qaddr = daemon.query_addr().expect("query server must be up");

    // Concurrent chaos clients: hammer the server on their own
    // connections for the whole ingest run, asserting only invariants
    // that hold at *any* instant (snapshot consistency: the Status
    // answer's record count and epoch list must describe one committed
    // snapshot, never a half-commit).
    let stop = Arc::new(AtomicBool::new(false));
    let chaos: Vec<_> = (0..2u64)
        .map(|i| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = SirenClient::connect(qaddr).expect("chaos connect");
                let mut calls = 0u64;
                let mut last_records = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let status = client.status().expect("status during ingest");
                    // Commits only ever add records; a torn snapshot
                    // could show a regression.
                    assert!(
                        status.records >= last_records,
                        "records went backwards: {} -> {}",
                        last_records,
                        status.records
                    );
                    last_records = status.records;
                    let job = calls * 7 + i;
                    let rows = client.by_job(job).expect("by_job during ingest");
                    assert!(rows.iter().all(|row| row.record.key.job_id == job));
                    calls += 1;
                }
                calls
            })
        })
        .collect();

    // Ingest three epochs over real UDP loopback.
    let receiver = UdpReceiver::spawn(65_536).unwrap();
    let sender = UdpSender::connect(receiver.local_addr()).unwrap();
    for epoch in 0..3u64 {
        let messages = campaign_messages(epoch as usize, epoch, epoch);
        for msg in &messages {
            sender.send(&msg.encode());
        }
        let summaries = daemon.drain_udp(&receiver, 1).unwrap();
        assert_eq!(summaries.len(), 1, "epoch {epoch} must commit");
        assert_eq!(summaries[0].epoch, epoch);

        // ---- Commit point: wire answers must equal the snapshot. ----
        let snapshot = daemon.snapshot();
        let mut client = SirenClient::connect(qaddr).unwrap();

        let status = client.status().unwrap();
        assert_eq!(status.committed_epochs, snapshot.epochs());
        assert_eq!(status.records, snapshot.len() as u64);
        assert_eq!(status.open_epoch, None);
        assert_eq!(status.protocol_version, PROTOCOL_VERSION);

        // Every job present in the snapshot answers identically on the
        // wire (spot-check a handful to keep the test fast).
        let mut jobs: Vec<u64> = snapshot.iter().map(|er| er.record.key.job_id).collect();
        jobs.sort_unstable();
        jobs.dedup();
        for &job in jobs.iter().step_by(jobs.len() / 5 + 1) {
            let wire = client.by_job(job).unwrap();
            let local: Vec<RecordRow> = snapshot
                .job_records(job)
                .into_iter()
                .map(|er| RecordRow {
                    epoch: er.epoch,
                    record: er.record.clone(),
                })
                .collect();
            assert_eq!(wire, local, "job {job} at epoch {epoch}");
        }
        // And an absent job answers an empty row set.
        assert!(client.by_job(u64::MAX).unwrap().is_empty());

        // Library usage under a host + time-range selection.
        let probe = &snapshot.get(snapshot.len() / 2).unwrap().record;
        let selection = Selection::all()
            .host(probe.key.host.clone())
            .between(0, u64::MAX / 2);
        let wire_rows = client.library_usage(selection.clone()).unwrap();
        let local_rows = snapshot
            .select()
            .host(&probe.key.host)
            .between(0, u64::MAX / 2)
            .library_usage();
        assert_eq!(wire_rows, local_rows, "library usage at epoch {epoch}");

        // Nearest neighbors around a real FILE_H probe.
        let probe_hash = snapshot.iter().find_map(|er| er.record.file_hash.clone());
        if let Some(hash) = probe_hash {
            let wire = client.neighbors(&hash, 5, 50).unwrap();
            let local: Vec<NeighborRow> = snapshot
                .nearest_neighbors(&hash, 5, 50)
                .into_iter()
                .map(|n| NeighborRow {
                    score: n.score,
                    epoch: n.epoch,
                    record: n.record.clone(),
                })
                .collect();
            assert_eq!(wire, local, "neighbors at epoch {epoch}");
            assert_eq!(wire[0].score, 100);
        }
    }

    stop.store(true, Ordering::Relaxed);
    for handle in chaos {
        let calls = handle.join().expect("chaos client must not panic");
        assert!(calls > 0, "chaos client never got a query through");
    }
    assert!(daemon.queries_served() > 0);
    let (accepted, _refused) = daemon.query_connections();
    assert!(accepted > 0, "chaos clients must register as accepted");
    drop(daemon);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn quiet_period_fallback_commits_and_is_surfaced_in_status() {
    let dir = temp_data_dir("quiet");
    let (mut daemon, _) = SirenDaemon::open(server_config(&dir)).unwrap();
    let qaddr = daemon.query_addr().unwrap();

    let receiver = UdpReceiver::spawn(65_536).unwrap();
    let sender = UdpSender::connect(receiver.local_addr()).unwrap();
    // Strip every sentinel: the epoch can only close via the fallback.
    let payloads: Vec<Message> = campaign_messages(0, 0, 9)
        .into_iter()
        .filter(|msg| msg.header.mtype != MessageType::End)
        .collect();
    // Paced, so the loopback socket buffer never overflows before the
    // receiver's reader thread moves datagrams into its channel: this
    // test checks that nothing that arrived is lost, not loopback loss.
    for batch in payloads.chunks(16) {
        for msg in batch {
            sender.send(&msg.encode());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let started = Instant::now();
    let summaries = daemon.drain_udp(&receiver, 1).unwrap();
    let elapsed = started.elapsed();
    assert_eq!(summaries.len(), 1);
    assert_eq!(summaries[0].senders_closed, 0, "no sentinel ever arrived");
    // Every payload survives the loss of every sentinel…
    assert_eq!(
        summaries[0].records,
        reference_fold(&payloads).len() as u64,
        "the fallback commit must hold every payload"
    );
    // …and the drain gave up only after the configured silence.
    let quiet = server_config(&dir).quiet_period;
    assert!(
        elapsed >= quiet,
        "gave up before the quiet period: {elapsed:?}"
    );

    let mut client = SirenClient::connect(qaddr).unwrap();
    let status = client.status().unwrap();
    assert_eq!(status.quiet_period_fallbacks, 1);
    assert_eq!(status.epoch_tag_mismatches, 0);
    assert_eq!(status.committed_epochs, vec![0]);

    // Mismatched-tag sentinels are counted live and visible over TCP
    // while the epoch is still open.
    daemon.begin_epoch().unwrap();
    for _ in 0..3 {
        daemon
            .push(siren_wire::sentinel_message_with_epoch(7, 0, Some(99)))
            .unwrap();
    }
    let status = client.status().unwrap();
    assert_eq!(status.open_epoch, Some(1));
    assert_eq!(status.epoch_tag_mismatches, 3);
    daemon.close_epoch().unwrap();
    drop(daemon);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn metrics_request_returns_live_registry_snapshot() {
    let dir = temp_data_dir("metrics");
    let cfg = ServiceConfig {
        // Zero threshold: every streamed plan lands in the slow ring,
        // so the ring's wire surface is exercised deterministically.
        slow_query_threshold: Duration::ZERO,
        ..server_config(&dir)
    };
    let (mut daemon, _) = SirenDaemon::open(cfg).unwrap();
    let qaddr = daemon.query_addr().unwrap();

    // Ingest one epoch over real UDP loopback so the ingest and commit
    // spans measure real work, not synthetic increments.
    let receiver = UdpReceiver::spawn(65_536).unwrap();
    let sender = UdpSender::connect(receiver.local_addr()).unwrap();
    for msg in campaign_messages(0, 0, 1) {
        sender.send(&msg.encode());
    }
    let summaries = daemon.drain_udp(&receiver, 1).unwrap();
    assert_eq!(summaries.len(), 1, "the epoch must commit");

    let mut client = SirenClient::connect(qaddr).unwrap();
    // A paged plan walk: parks a cursor between pages, so the cursor
    // table's hit counter and open-gauge high-water both move.
    let plan = siren_proto::QueryPlan::records().batch_rows(4).page_rows(8);
    let fingerprint = plan.fingerprint();
    let shape = plan.shape();
    let rows = client.query(plan).unwrap().collect_rows().unwrap();
    assert!(rows.len() > 8, "need multiple pages to exercise cursors");
    let status = client.status().unwrap();

    let m = client.metrics().unwrap();
    // Ingest tier: every histogram the acceptance bar names is nonzero.
    assert!(m.counter("ingest.messages_received") > 0);
    assert!(m.counter("ingest.rows_stored") > 0);
    assert!(m.histogram("ingest.reassembly_ns").unwrap().count > 0);
    assert!(m.histogram("ingest.batch_insert_ns").unwrap().count > 0);
    // Commit tier.
    assert_eq!(m.counter("service.epochs_committed"), 1);
    assert_eq!(
        m.counter("service.records_committed"),
        daemon.snapshot().len() as u64
    );
    assert_eq!(m.histogram("service.commit_ns").unwrap().count, 1);
    assert_eq!(m.histogram("service.publish_ns").unwrap().count, 1);
    // Query tier: the plan walk and the status call above all recorded
    // execution and serialization spans.
    assert!(m.counter("query.requests") > 0);
    assert!(m.histogram("query.exec_ns").unwrap().count > 0);
    assert!(m.histogram("query.queue_wait_ns").unwrap().count > 0);
    assert!(m.histogram("query.batch_serialize_ns").unwrap().count > 0);
    assert!(m.counter("query.negotiated_v3") >= 1);
    // Cursor table: pages parked and resumed.
    assert!(m.counter("cursor.hits") >= 1);
    let open = m.gauge("cursor.open").unwrap();
    assert!(open.high_water >= 1, "a cursor must have been parked");
    assert_eq!(open.value, 0, "the exhausted cursor must have retired");
    // Slow-query ring: the zero threshold catches the paged plan, with
    // its fingerprint and value-free shape — never predicate values.
    assert!(!m.slow_queries.is_empty());
    let entry = m
        .slow_queries
        .iter()
        .find(|e| e.fingerprint == fingerprint)
        .expect("the paged plan must be in the slow ring");
    assert_eq!(entry.shape, shape);
    assert!(entry.rows > 0);
    // The Status answer is *derived from* this registry: no parallel
    // bookkeeping to drift.
    assert_eq!(
        status.queries_refused,
        m.counter("query.connections_refused")
    );
    assert_eq!(
        status.epoch_tag_mismatches,
        m.counter("service.epoch_tag_mismatches")
    );
    assert!(status
        .version_connections
        .iter()
        .any(|&(v, n)| v == PROTOCOL_VERSION && n >= 1));

    drop(daemon);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn traced_plan_reassembles_into_one_tree_across_cursor_fetches() {
    let dir = temp_data_dir("traces");
    let cfg = ServiceConfig {
        // Zero threshold: the traced plan is guaranteed a slow-ring
        // entry, so the entry→trace join can be asserted.
        slow_query_threshold: Duration::ZERO,
        ..server_config(&dir)
    };
    let (mut daemon, _) = SirenDaemon::open(cfg).unwrap();
    let qaddr = daemon.query_addr().unwrap();

    // Ingest one epoch over real UDP loopback so the epoch pipeline
    // records a real trace alongside the request traces.
    let receiver = UdpReceiver::spawn(65_536).unwrap();
    let sender = UdpSender::connect(receiver.local_addr()).unwrap();
    for msg in campaign_messages(0, 0, 1) {
        sender.send(&msg.encode());
    }
    let summaries = daemon.drain_udp(&receiver, 1).unwrap();
    assert_eq!(summaries.len(), 1, "the epoch must commit");

    // A client-supplied trace id on a paged plan: the whole walk —
    // however many cursor fetches — must reassemble into ONE tree.
    let mut client = SirenClient::connect(qaddr).unwrap();
    let trace = TraceId(0x5ca1_ab1e_0000_0001);
    let plan = siren_proto::QueryPlan::records().batch_rows(4).page_rows(8);
    let fingerprint = plan.fingerprint();
    let rows = client
        .query_traced(plan, trace)
        .unwrap()
        .collect_rows()
        .unwrap();
    assert!(
        rows.len() > 8,
        "need multiple pages to force cursor fetches"
    );

    let trees = client.traces(TraceFilter::recent().trace(trace)).unwrap();
    assert_eq!(trees.len(), 1, "one client trace id, one tree");
    let tree = &trees[0];
    assert_eq!(tree.trace, trace);
    let root = tree.root().expect("the plan request span is the root");
    assert_eq!(root.stage, "request.plan");
    assert_eq!(
        root.annotation(siren_obs::FINGERPRINT_ANNOTATION),
        Some(format!("{fingerprint:016x}").as_str()),
        "the root carries the plan fingerprint annotation"
    );
    for stage in ["queue_wait", "exec", "serialize", "request.fetch"] {
        assert!(tree.contains_stage(stage), "missing {stage} span: {tree:?}");
    }
    let fetches = tree
        .spans
        .iter()
        .filter(|s| s.stage == "request.fetch")
        .count();
    assert!(fetches >= 2, "multiple cursor fetches rejoin the same tree");
    let serializes = tree.spans.iter().filter(|s| s.stage == "serialize").count();
    assert!(serializes >= 2, "one serialize span per row batch");
    // Every span reassembled under the one trace id.
    assert!(tree.spans.iter().all(|s| s.trace == trace));

    // The slow-query ring entry for that plan carries the trace id, and
    // the id resolves over the wire to that same tree.
    let m = client.metrics().unwrap();
    let entry = m
        .slow_queries
        .iter()
        .find(|e| e.fingerprint == fingerprint)
        .expect("zero threshold puts the traced plan in the slow ring");
    assert_eq!(entry.trace_id, trace.0, "slow entry joins to the trace");
    let resolved = client
        .traces(TraceFilter::recent().trace(TraceId(entry.trace_id)))
        .unwrap();
    assert_eq!(resolved.len(), 1);
    assert_eq!(
        &resolved[0], tree,
        "the slow entry resolves to the same tree"
    );

    // The ingest epoch recorded its own pipeline trace: recv,
    // per-shard reassembly, WAL inserts and fold, then commit and
    // publish, all under the `epoch.ingest` root.
    let epochs = client
        .traces(TraceFilter::recent().stage("epoch.ingest"))
        .unwrap();
    let epoch_tree = epochs.first().expect("the committed epoch has a trace");
    assert_eq!(epoch_tree.root().unwrap().stage, "epoch.ingest");
    for stage in [
        "recv",
        "reassembly",
        "wal_insert",
        "fold",
        "commit",
        "publish",
    ] {
        assert!(
            epoch_tree.contains_stage(stage),
            "epoch trace missing {stage}: {epoch_tree:?}"
        );
    }
    // The wire answer and the in-process accessor read the same ring.
    let in_process = daemon.traces(&TraceFilter::recent().trace(trace));
    assert_eq!(in_process.len(), 1);
    assert_eq!(&in_process[0], tree);

    drop(daemon);
    std::fs::remove_dir_all(&dir).unwrap();
}

// ------------------------------------------------ hostile inputs --

fn hostile_daemon(tag: &str) -> (SirenDaemon, std::net::SocketAddr, PathBuf) {
    let dir = temp_data_dir(tag);
    let (daemon, _) = SirenDaemon::open(server_config(&dir)).unwrap();
    let addr = daemon.query_addr().unwrap();
    (daemon, addr, dir)
}

/// Raw TCP connection that has completed the hello exchange: these
/// hostile cases drive the frame layer byte by byte (hostile stream
/// envelopes live in the reactor E2E suite).
fn negotiated_stream(addr: std::net::SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write_frame(
        &mut stream,
        &encode_hello(PROTOCOL_VERSION, PROTOCOL_VERSION),
    )
    .unwrap();
    let ack = read_frame(&mut stream).unwrap();
    assert_eq!(decode_hello_ack(&ack), Some(PROTOCOL_VERSION));
    stream
}

/// Read one enveloped reply frame: `(stream id, response)`.
fn read_reply(stream: &mut TcpStream) -> (u32, QueryResponse) {
    let payload = read_frame(stream).expect("server must answer");
    let frame = decode_stream_frame(&payload).expect("replies are enveloped");
    (
        frame.stream_id,
        QueryResponse::decode(&frame.body).expect("reply must decode"),
    )
}

/// Expect one typed error, then a clean close. `enveloped` is false
/// only for a refused hello, answered before any envelope exists.
fn expect_error_then_close(mut stream: TcpStream, enveloped: bool) -> QueryError {
    let response = if enveloped {
        read_reply(&mut stream).1
    } else {
        let payload = read_frame(&mut stream).expect("server must answer before closing");
        QueryResponse::decode(&payload).expect("refusal must decode")
    };
    let err = match response {
        QueryResponse::Error(err) => err,
        other => panic!("expected error response, got {other:?}"),
    };
    // …and then a clean close.
    assert!(matches!(
        read_frame(&mut stream),
        Err(siren_proto::FrameError::Closed)
    ));
    err
}

#[test]
fn hostile_protocol_input_draws_typed_errors_and_clean_closes() {
    let (daemon, addr, dir) = hostile_daemon("hostile");

    // 1. Oversized length prefix: refused before allocation, typed
    //    error. (Only the 5 header bytes are sent, so the server-side
    //    close is a clean FIN rather than an unread-data RST.)
    {
        let mut stream = negotiated_stream(addr);
        let mut evil = vec![0xD8u8];
        evil.extend_from_slice(&(u32::MAX).to_le_bytes());
        stream.write_all(&evil).unwrap();
        assert!(matches!(
            expect_error_then_close(stream, true),
            QueryError::FrameTooLarge(_)
        ));
    }

    // 2. Bad checksum: Malformed error, close.
    {
        let mut stream = negotiated_stream(addr);
        let envelope = encode_stream_frame(1, &QueryRequest::Status.encode(), false, None);
        let mut frame = siren_store::encode_frame(&envelope);
        let last = frame.len() - 1;
        frame[last] ^= 0xFF;
        stream.write_all(&frame).unwrap();
        assert!(matches!(
            expect_error_then_close(stream, true),
            QueryError::Malformed(_)
        ));
    }

    // 3. Garbage magic (a single wrong byte, again to avoid unread
    //    bytes at close time): Malformed error, close.
    {
        let mut stream = negotiated_stream(addr);
        stream.write_all(&[0x00u8]).unwrap();
        assert!(matches!(
            expect_error_then_close(stream, true),
            QueryError::Malformed(_)
        ));
    }

    // 4. Unknown request tag inside an intact frame: typed error and
    //    the connection SURVIVES for the next (valid) request.
    {
        let mut stream = negotiated_stream(addr);
        let unknown = encode_stream_frame(1, &[0xEEu8, 1, 2, 3], false, None);
        write_frame(&mut stream, &unknown).unwrap();
        assert!(matches!(
            read_reply(&mut stream),
            (1, QueryResponse::Error(QueryError::UnknownRequest(0xEE)))
        ));
        let status = encode_stream_frame(2, &QueryRequest::Status.encode(), false, None);
        write_frame(&mut stream, &status).unwrap();
        assert!(matches!(
            read_reply(&mut stream),
            (2, QueryResponse::Status(_))
        ));
    }

    // 5. Truncated frame then abrupt client close: server just closes.
    {
        let mut stream = negotiated_stream(addr);
        let envelope = encode_stream_frame(1, &QueryRequest::Status.encode(), false, None);
        let frame = siren_store::encode_frame(&envelope);
        stream.write_all(&frame[..frame.len() / 2]).unwrap();
        drop(stream);
    }

    // 6. A future-only client version is refused with the server's one
    //    version, in a plain frame (no envelope before the ack).
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        write_frame(
            &mut stream,
            &encode_hello(PROTOCOL_VERSION + 1, PROTOCOL_VERSION + 3),
        )
        .unwrap();
        assert!(matches!(
            expect_error_then_close(stream, false),
            QueryError::UnsupportedVersion {
                server_min: 3,
                server_max: 3
            }
        ));
    }

    // 7. Client-side: connecting to a dead port surfaces a transport
    //    error, not a hang or panic.
    drop(daemon);
    assert!(matches!(
        SirenClient::connect_with_timeout(addr, Duration::from_millis(500)),
        Err(ClientError::Frame(_))
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}
