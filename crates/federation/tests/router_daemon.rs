//! The runnable router: unmodified wire-protocol clients federate
//! transparently through a [`RouterDaemon`] port — plans stream merged
//! rows, the client's `by_job` sugar refuses partial results typed,
//! Status/Metrics aggregate the fleet, and the hello is refused or
//! acknowledged exactly as a daemon does it.

use proptest::test_runner::{rng_for, TestRng};
use siren_consolidate::{record_order, ProcessRecord};
use siren_db::Record;
use siren_federation::{FleetConfig, Router, RouterDaemon};
use siren_proto::{
    decode_hello_ack, decode_stream_frame, encode_hello, encode_stream_frame, negotiate,
    read_frame, write_frame, FrameError, QueryError, QueryPlan, QueryRequest, QueryResponse,
    RetryPolicy, Selection, SirenClient,
};
use siren_service::{ServiceConfig, SirenDaemon};
use siren_wire::{Layer, MessageType, ShardRouter};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

fn temp_data_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("siren-fedwire-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn arb_record(rng: &mut TestRng, job_pool: &[u64]) -> ProcessRecord {
    let row = Record {
        job_id: job_pool[rng.below(job_pool.len() as u64) as usize],
        step_id: rng.below(3) as u32,
        pid: rng.next_u64() as u32,
        exe_hash: format!("{:016x}", rng.next_u64()),
        host: format!("nid{:06}", rng.below(4)),
        time: 1_700_000_000 + rng.below(500),
        layer: Layer::SelfExe,
        mtype: MessageType::Meta,
        content: String::new(),
    };
    ProcessRecord::new(&row)
}

/// Two job-hash shard daemons plus the union oracle, canonical order.
struct Fixture {
    shards: Vec<SirenDaemon>,
    oracle: SirenDaemon,
}

fn fixture(tag: &str) -> Fixture {
    let mut rng = rng_for(tag);
    let shard_router = ShardRouter::new(2);
    let pools: Vec<Vec<u64>> = (0..2)
        .map(|k| {
            (0..64)
                .filter(|&j| shard_router.shard_of_job(j) == k)
                .collect()
        })
        .collect();
    let spawn = |suffix: &str| {
        let dir = temp_data_dir(&format!("{tag}-{suffix}"));
        let cfg = ServiceConfig {
            shards: 2,
            query_addr: Some("127.0.0.1:0".parse().unwrap()),
            ..ServiceConfig::at(&dir)
        };
        SirenDaemon::open(cfg).unwrap().0
    };
    let mut shards = vec![spawn("s0"), spawn("s1")];
    let mut oracle = spawn("union");
    for _epoch in 0..2 {
        let mut union: Vec<ProcessRecord> = Vec::new();
        for pool in &pools {
            for _ in 0..(4 + rng.below(6)) {
                union.push(arb_record(&mut rng, pool));
            }
        }
        union.sort_by(record_order);
        for (k, daemon) in shards.iter_mut().enumerate() {
            let subset: Vec<ProcessRecord> = union
                .iter()
                .filter(|r| shard_router.shard_of_job(r.key.job_id) == k)
                .cloned()
                .collect();
            daemon.import_epoch(subset).unwrap();
        }
        oracle.import_epoch(union).unwrap();
    }
    Fixture { shards, oracle }
}

fn spawn_router(leaders: impl IntoIterator<Item = SocketAddr>) -> RouterDaemon {
    let cfg = FleetConfig {
        retry: RetryPolicy {
            max_retries: 1,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(20),
            jitter: false,
        },
        ..FleetConfig::sharded(leaders)
    };
    RouterDaemon::spawn(Router::new(cfg).unwrap(), "127.0.0.1:0").unwrap()
}

/// An unmodified `SirenClient` pointed at the router port sees the
/// union daemon: plan streams, Status, Metrics, `by_job` — all without
/// knowing a fleet exists.
#[test]
fn unmodified_clients_federate_transparently() {
    let fx = fixture("fedwire-transparent");
    let leaders: Vec<SocketAddr> = fx.shards.iter().map(|d| d.query_addr().unwrap()).collect();
    let daemon = spawn_router(leaders);
    let mut oracle_client = SirenClient::connect(fx.oracle.query_addr().unwrap()).unwrap();

    // Blocking client, plan path.
    let mut client = SirenClient::connect(daemon.local_addr()).unwrap();
    for plan in [
        QueryPlan::records().batch_rows(3),
        QueryPlan::records().filter(Selection::all().host("nid000001")),
        QueryPlan::usage_table(),
    ] {
        let merged = client.query(plan.clone()).unwrap().collect_rows().unwrap();
        let expected = oracle_client.query(plan).unwrap().collect_rows().unwrap();
        assert_eq!(merged, expected, "router port must serve union answers");
    }

    // Status aggregates the union; Metrics carries the fed.* series.
    let status = client.status().unwrap();
    let total: u64 = fx.shards.iter().map(|d| d.snapshot().len() as u64).sum();
    assert_eq!(status.records, total);
    assert_eq!(status.committed_epochs, vec![0, 1]);
    let metrics = client.metrics().unwrap();
    assert!(metrics.counter("fed.queries") >= 3);
    assert!(metrics.counter("fed.rows_merged") > 0);

    // `by_job` is a job-filtered plan (its selection prunes to one
    // shard).
    let shard_router = ShardRouter::new(2);
    let snapshot = fx.oracle.snapshot();
    let mut jobs = snapshot.iter().map(|er| er.record.key.job_id);
    let job = jobs.find(|&j| shard_router.shard_of_job(j) == 1).unwrap();
    let from_router = client.by_job(job).unwrap();
    assert!(!from_router.is_empty());
    assert_eq!(from_router, oracle_client.by_job(job).unwrap());

    // Cursors are never parked: any cursor id is unknown. The client
    // library refuses to send FetchCursor outside a stream, so speak
    // raw frames.
    let mut raw = dial(daemon.local_addr());
    send(
        &mut raw,
        7,
        &QueryRequest::FetchCursor { cursor: 99 }.encode(),
    );
    match read_reply(&mut raw) {
        (7, QueryResponse::Error(QueryError::UnknownCursor(99))) => {}
        other => panic!("expected UnknownCursor, got {other:?}"),
    }
    drop(raw);

    // LibraryUsage is not federatable: typed refusal, never wrong sums.
    match client.call(&QueryRequest::LibraryUsage {
        selection: Selection::default(),
    }) {
        Err(siren_proto::ClientError::Server(QueryError::Internal(detail))) => {
            assert!(detail.contains("not federatable"), "{detail}");
        }
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    drop(client);

    daemon.shutdown();
}

/// A raw connection that has sent `hello` as its first frame.
fn connect_raw(addr: SocketAddr, hello: &[u8]) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write_frame(&mut stream, hello).unwrap();
    stream
}

/// A raw connection whose hello has been acknowledged.
fn dial(addr: SocketAddr) -> TcpStream {
    let mut stream = connect_raw(addr, &encode_hello(3, 3));
    assert_eq!(decode_hello_ack(&read_frame(&mut stream).unwrap()), Some(3));
    stream
}

fn send(stream: &mut TcpStream, id: u32, body: &[u8]) {
    write_frame(stream, &encode_stream_frame(id, body, false, None)).unwrap();
}

fn read_reply(stream: &mut TcpStream) -> (u32, QueryResponse) {
    let frame = decode_stream_frame(&read_frame(stream).unwrap()).unwrap();
    (frame.stream_id, QueryResponse::decode(&frame.body).unwrap())
}

/// A refused hello: one plain (unenveloped) typed error, then a close.
fn refusal_then_close(stream: &mut TcpStream) -> QueryError {
    let payload = read_frame(stream).unwrap();
    assert_eq!(decode_hello_ack(&payload), None, "a refusal is not an ack");
    let err = match QueryResponse::decode(&payload) {
        Ok(QueryResponse::Error(err)) => err,
        other => panic!("expected a typed refusal, got {other:?}"),
    };
    assert!(matches!(read_frame(stream), Err(FrameError::Closed)));
    err
}

/// The handshake table, run against both wire servers — the reactor
/// daemon and `RouterDaemon` — at raw-frame level: an offered range
/// containing 3 is acknowledged with 3; any other range, empty or
/// inverted ones included, draws a plain `UnsupportedVersion { 3, 3 }`
/// and a close; a malformed hello draws `Malformed` and a close. On an
/// acknowledged connection the retired one-shot tags 1 and 3 draw
/// `UnknownRequest` and the connection still answers `Status`.
#[test]
fn handshake_table_on_daemon_and_router() {
    let fx = fixture("fedwire-hello");
    let leaders: Vec<SocketAddr> = fx.shards.iter().map(|d| d.query_addr().unwrap()).collect();
    let router = spawn_router(leaders);
    let refused = [(1u16, 1u16), (1, 2), (2, 2), (4, 9), (3, 2)];
    let accepted = [(1u16, 3u16), (3, 3), (2, u16::MAX)];
    let unsupported = Err(QueryError::UnsupportedVersion {
        server_min: 3,
        server_max: 3,
    });
    assert!(refused.iter().all(|&(a, b)| negotiate(a, b) == unsupported));
    assert!(accepted.iter().all(|&(a, b)| negotiate(a, b) == Ok(3)));

    for (name, addr) in [
        ("daemon", fx.oracle.query_addr().unwrap()),
        ("router", router.local_addr()),
    ] {
        for (min, max) in refused {
            let mut stream = connect_raw(addr, &encode_hello(min, max));
            let refusal = Err(refusal_then_close(&mut stream));
            assert_eq!(refusal, unsupported, "{name}: offered ({min}, {max})");
        }
        let mut stream = connect_raw(addr, b"XXXX\x03\x00\x03\x00");
        let refusal = refusal_then_close(&mut stream);
        assert!(matches!(refusal, QueryError::Malformed(_)), "{name}");

        for (min, max) in accepted {
            let mut stream = connect_raw(addr, &encode_hello(min, max));
            let ack = decode_hello_ack(&read_frame(&mut stream).unwrap());
            assert_eq!(ack, Some(3), "{name}: offered ({min}, {max})");
            for (id, tag) in [(1u32, 1u8), (2, 3)] {
                // Tag, a u64 argument, the trace id: the retired shape.
                send(&mut stream, id, &[&[tag][..], &[0u8; 16]].concat());
                let expected = (id, QueryResponse::Error(QueryError::UnknownRequest(tag)));
                assert_eq!(read_reply(&mut stream), expected, "{name}: tag {tag}");
            }
            send(&mut stream, 9, &QueryRequest::Status.encode());
            assert!(
                matches!(read_reply(&mut stream), (9, QueryResponse::Status(_))),
                "{name}: the connection survives reserved tags"
            );
        }
    }
    router.shutdown();
}

/// Partial results pass through the wire typed: a dead shard reaches
/// the client as a `Warning` frame before stream end, and the client's
/// `by_job` sugar — which has nowhere to carry a warning — refuses
/// rather than answering silently incomplete.
#[test]
fn partial_results_reach_wire_clients_typed() {
    let fx = fixture("fedwire-partial");
    let live_addr = fx.shards[0].query_addr().unwrap();
    let dead_addr = fx.shards[1].query_addr().unwrap();
    let daemon = spawn_router([live_addr, dead_addr]);
    let Fixture { mut shards, .. } = fx;
    drop(shards.pop()); // kill shard-1

    let mut client = SirenClient::connect(daemon.local_addr()).unwrap();
    let (rows, warnings) = client
        .query(QueryPlan::records())
        .unwrap()
        .collect_rows_warned()
        .unwrap();
    assert!(!rows.is_empty(), "the live shard's rows still arrive");
    assert_eq!(warnings.len(), 1);
    assert_eq!(warnings[0].missing, vec!["shard-1".to_string()]);

    // `by_job` needing the dead shard draws a typed error carrying the
    // warning text.
    let shard_router = ShardRouter::new(2);
    let dead_job = (0..64)
        .find(|&j| shard_router.shard_of_job(j) == 1)
        .unwrap();
    match client.by_job(dead_job) {
        Err(siren_proto::ClientError::Server(QueryError::Internal(detail))) => {
            assert!(detail.contains("shard-1"), "{detail}");
        }
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    daemon.shutdown();
}
