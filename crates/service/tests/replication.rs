//! Fault-injected replication convergence suite.
//!
//! A leader daemon commits epochs; a follower daemon replicates them
//! over the wire through [`Replicator`], optionally via a seeded
//! [`FaultProxy`] that severs connections at fuzzed byte offsets. The
//! properties pinned here:
//!
//! 1. Once lag reaches zero, the follower's wire answers to a fixed
//!    `QueryPlan` set are identical to the leader's — replication is
//!    invisible to queries.
//! 2. Killing the leader mid-replication (`simulate_crash`) and
//!    restarting it converges the follower with no duplicated or lost
//!    records.
//! 3. Killing the follower at fuzzed apply points resumes from its
//!    durable high-water mark (the seal markers in its own store).

use siren_cluster::{Campaign, CampaignConfig, FleetConfig};
use siren_collector::{Collector, PolicyMode};
use siren_net::{
    FaultConfig, FaultProxy, Sender as _, SimChannel, SimConfig, UdpReceiver, UdpSender,
};
use siren_proto::{FrameError, QueryPlan, QueryRequest, RetryPolicy, Selection, SirenClient};
use siren_service::{Replicator, ReplicatorConfig, ServiceConfig, SirenDaemon};
use siren_store::SegmentedOptions;
use siren_wire::Message;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

const CONVERGE_TIMEOUT: Duration = Duration::from_secs(30);

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
    let dir = std::env::temp_dir().join(format!("siren-repl-{tag}-{}", std::process::id()));
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

/// A leader with one UDP-ingested epoch plus `extra` imported epochs
/// (each re-importing epoch 0's records, so every epoch has rows).
fn leader_with_epochs(tag: &str, extra: u64) -> SirenDaemon {
    let dir = temp_data_dir(tag);
    let (mut daemon, _) = SirenDaemon::open(server_config(&dir)).unwrap();
    let receiver = UdpReceiver::spawn(65_536).unwrap();
    let sender = UdpSender::connect(receiver.local_addr()).unwrap();
    for msg in campaign_messages(0, 0) {
        sender.send(&msg.encode());
    }
    let summaries = daemon.drain_udp(&receiver, 1).unwrap();
    assert_eq!(summaries.len(), 1, "the seed epoch must commit");
    for _ in 0..extra {
        commit_extra_epoch(&mut daemon);
    }
    daemon
}

/// Commit one more epoch on `daemon` by re-importing epoch 0's records.
fn commit_extra_epoch(daemon: &mut SirenDaemon) -> u64 {
    let records: Vec<_> = daemon
        .snapshot()
        .epoch_records(0)
        .into_iter()
        .cloned()
        .collect();
    assert!(!records.is_empty());
    daemon.import_epoch(records).unwrap()
}

/// An empty follower at its own data dir, serving queries.
fn fresh_follower(tag: &str) -> SirenDaemon {
    let dir = temp_data_dir(tag);
    let (daemon, _) = SirenDaemon::open(server_config(&dir)).unwrap();
    daemon
}

/// Fast-cadence replication config for tests.
fn fast_config(leader: SocketAddr) -> ReplicatorConfig {
    ReplicatorConfig {
        poll_interval: Duration::from_millis(10),
        retry: RetryPolicy {
            max_retries: u32::MAX,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(50),
            jitter: true,
        },
        ..ReplicatorConfig::to(leader)
    }
}

/// The fixed plan set both sides answer for the byte-identity oracle.
fn oracle_plans() -> Vec<QueryPlan> {
    vec![
        QueryPlan::records().batch_rows(3).page_rows(64),
        QueryPlan::usage_table().batch_rows(2).page_rows(64),
    ]
}

/// Assert the follower's wire answers equal the leader's: plan streams
/// row-for-row, single-frame replies byte-for-byte.
fn assert_wire_identical(leader_addr: SocketAddr, follower_addr: SocketAddr) {
    let mut leader = SirenClient::connect(leader_addr).unwrap();
    let mut follower = SirenClient::connect(follower_addr).unwrap();
    for plan in oracle_plans() {
        let from_leader = leader.query(plan.clone()).unwrap().collect_rows().unwrap();
        let from_follower = follower.query(plan).unwrap().collect_rows().unwrap();
        assert_eq!(from_leader, from_follower, "plan rows must match");
        assert!(!from_leader.is_empty(), "oracle plans must return rows");
    }
    // Single-frame replies must be byte-identical (Status is excluded: its
    // live traffic counters legitimately differ between daemons).
    let usage = QueryRequest::LibraryUsage {
        selection: Selection::default(),
    };
    let from_leader = leader.call(&usage).unwrap().encode();
    let from_follower = follower.call(&usage).unwrap().encode();
    assert_eq!(
        from_leader, from_follower,
        "single-frame reply bytes must match"
    );
}

/// Property 1: a follower converges and its answers are
/// indistinguishable from the leader's; lag and apply metrics land.
#[test]
fn follower_converges_and_answers_match_the_leader() {
    let leader = leader_with_epochs("conv-leader", 2);
    let leader_addr = leader.query_addr().unwrap();
    let follower = fresh_follower("conv-follower");
    let follower_addr = follower.query_addr().unwrap();

    let repl = Replicator::spawn(follower, fast_config(leader_addr)).unwrap();
    assert!(repl.wait_for_epoch(2, CONVERGE_TIMEOUT), "must catch up");
    assert!(repl.wait_caught_up(CONVERGE_TIMEOUT));

    assert_wire_identical(leader_addr, follower_addr);

    // The follower's own Status reports its replication posture.
    let mut client = SirenClient::connect(follower_addr).unwrap();
    let status = client.status().unwrap();
    assert_eq!(status.repl_high_water, 3, "applied through epoch 2");
    assert_eq!(status.repl_lag_epochs, 0);
    assert!(status.repl_reconnects >= 1);
    let metrics = client.metrics().unwrap();
    assert_eq!(metrics.counter("repl.epochs_applied"), 3);
    assert!(metrics.counter("repl.records_applied") > 0);
    drop(client);

    // The leader counted the shipping side.
    let mut client = SirenClient::connect(leader_addr).unwrap();
    let metrics = client.metrics().unwrap();
    assert!(metrics.counter("repl.subscriptions") >= 1);
    assert!(metrics.counter("repl.epochs_shipped") >= 3);
    assert!(metrics.counter("repl.bytes_shipped") > 0);
    drop(client);

    let follower = repl.shutdown();
    assert_eq!(follower.committed_epochs(), vec![0, 1, 2]);
    assert_eq!(follower.snapshot().len(), leader.snapshot().len());
}

/// Property 1 under fire: the follower reaches the same state through a
/// proxy that severs its connections at fuzzed byte offsets.
#[test]
fn follower_converges_through_severing_proxy() {
    let leader = leader_with_epochs("sever-leader", 3);
    let leader_addr = leader.query_addr().unwrap();
    // Every epoch re-imports epoch 0's records, so each ships at least
    // `epoch_bytes` (the record encodings alone; UDP loss during the
    // seed ingest moves this, hence measured, not assumed).
    let epoch_bytes: u64 = leader
        .snapshot()
        .epoch_records(0)
        .iter()
        .map(|r| r.encode().len() as u64)
        .sum();
    let proxy = FaultProxy::spawn(
        leader_addr,
        FaultConfig {
            seed: 42,
            // Some draws cut mid-epoch (no progress that exchange),
            // some let whole epochs through — progress interleaves with
            // teardowns, which is the property under test. No budget
            // reaches the four epochs' bytes, so the first subscription
            // is always cut.
            cut_bytes: Some((epoch_bytes / 8, 3 * epoch_bytes)),
            ..FaultConfig::default()
        },
    )
    .unwrap();

    let follower = fresh_follower("sever-follower");
    let follower_addr = follower.query_addr().unwrap();
    let mut cfg = fast_config(proxy.local_addr());
    cfg.batch_rows = 4; // small frames: cuts land mid-epoch, not mid-noop
    let repl = Replicator::spawn(follower, cfg).unwrap();

    assert!(
        repl.wait_for_epoch(3, CONVERGE_TIMEOUT),
        "must converge despite severed connections (applied {} epochs)",
        repl.epochs_applied()
    );
    assert!(repl.wait_caught_up(CONVERGE_TIMEOUT));
    assert!(proxy.cuts() >= 1, "the proxy must actually have cut");

    assert_wire_identical(leader_addr, follower_addr);

    let follower = repl.shutdown();
    assert_eq!(follower.committed_epochs(), vec![0, 1, 2, 3]);
    assert_eq!(follower.snapshot().len(), leader.snapshot().len());
    // Torn subscriptions were retried and re-dialed.
    let metrics = follower.metrics_snapshot();
    assert!(metrics.counter("repl.retries") >= 1);
    assert!(metrics.counter("repl.reconnects") >= 2);
}

/// Property 2: kill the leader mid-replication, restart it from its own
/// store, repoint the proxy — the follower converges with no
/// duplicated or lost records.
#[test]
fn leader_crash_and_restart_converges_without_loss_or_duplication() {
    let leader = leader_with_epochs("failover-leader", 1);
    let leader_dir = leader.data_dir().to_path_buf();
    let leader_addr = leader.query_addr().unwrap();
    let proxy = FaultProxy::spawn(
        leader_addr,
        FaultConfig {
            // A per-chunk delay keeps epochs in flight long enough that
            // the crash below lands mid-stream.
            delay: Some(Duration::from_millis(2)),
            ..FaultConfig::default()
        },
    )
    .unwrap();

    let follower = fresh_follower("failover-follower");
    let follower_addr = follower.query_addr().unwrap();
    let repl = Replicator::spawn(follower, fast_config(proxy.local_addr())).unwrap();
    assert!(repl.wait_for_epoch(1, CONVERGE_TIMEOUT));

    // Commit one more epoch, then kill the leader before the follower
    // can be sure of having it.
    let mut leader = leader;
    commit_extra_epoch(&mut leader);
    leader.simulate_crash().unwrap();

    // Restart from the same store; the embedded server binds a fresh
    // port, so repoint the proxy — the follower keeps dialing one
    // stable address throughout.
    let (leader, recovery) = SirenDaemon::open(server_config(&leader_dir)).unwrap();
    assert_eq!(recovery.committed_epochs, vec![0, 1, 2]);
    proxy.set_target(leader.query_addr().unwrap());

    assert!(
        repl.wait_for_epoch(2, CONVERGE_TIMEOUT),
        "follower must converge past the failover"
    );
    assert!(repl.wait_caught_up(CONVERGE_TIMEOUT));
    assert_wire_identical(leader.query_addr().unwrap(), follower_addr);

    let follower = repl.shutdown();
    assert_eq!(follower.committed_epochs(), vec![0, 1, 2]);
    assert_eq!(
        follower.snapshot().len(),
        leader.snapshot().len(),
        "no records lost or duplicated across the failover"
    );
}

/// Property 3: kill the follower at fuzzed apply points; each restart
/// resumes from the durable high-water mark and re-delivered epochs
/// apply idempotently.
#[test]
fn follower_crash_at_fuzzed_apply_points_resumes_from_high_water() {
    let leader = leader_with_epochs("fuzz-leader", 3);
    let leader_addr = leader.query_addr().unwrap();

    for crash_after in 1..=3u64 {
        let tag = format!("fuzz-follower-{crash_after}");
        let follower = fresh_follower(&tag);
        let follower_dir = follower.data_dir().to_path_buf();

        // Phase 1: replicate until the crash hook fires mid-catch-up.
        let mut cfg = fast_config(leader_addr);
        cfg.crash_after_applies = Some(crash_after);
        let repl = Replicator::spawn(follower, cfg).unwrap();
        let deadline = std::time::Instant::now() + CONVERGE_TIMEOUT;
        while !repl.crashed() {
            assert!(std::time::Instant::now() < deadline, "crash hook must fire");
            std::thread::sleep(Duration::from_millis(5));
        }
        let follower = repl.shutdown();
        assert_eq!(follower.committed_epochs().len() as u64, crash_after);
        follower.simulate_crash().unwrap();

        // Phase 2: reopen from disk — the committed set *is* the
        // high-water mark — and converge the rest of the way.
        let (follower, recovery) = SirenDaemon::open(server_config(&follower_dir)).unwrap();
        assert_eq!(
            recovery.committed_epochs,
            (0..crash_after).collect::<Vec<_>>(),
            "recovery must resume exactly at the crash point"
        );
        let repl = Replicator::spawn(follower, fast_config(leader_addr)).unwrap();
        assert_eq!(repl.high_water(), crash_after, "resume from high water");
        assert!(repl.wait_for_epoch(3, CONVERGE_TIMEOUT));
        assert!(repl.wait_caught_up(CONVERGE_TIMEOUT));
        let follower = repl.shutdown();
        assert_eq!(follower.committed_epochs(), vec![0, 1, 2, 3]);
        assert_eq!(follower.snapshot().len(), leader.snapshot().len());
    }
}

/// Satellite: dropping the daemon while a replication subscriber and
/// several multiplexed row streams are mid-flight closes every
/// connection cleanly (no hang, no leaked loop threads).
#[test]
fn dropping_the_daemon_closes_subscribers_and_streams_mid_flight() {
    let leader = leader_with_epochs("shutdown", 2);
    let addr = leader.query_addr().unwrap();

    // A replication subscriber mid-stream: read exactly one epoch of
    // the three available, leaving the rest queued or unproduced.
    let mut subscriber = SirenClient::connect(addr).unwrap();
    let mut stream = subscriber.subscribe_epochs(0, 1).unwrap();
    let first = stream.next_event().unwrap().expect("first epoch");
    match first {
        siren_proto::EpochStreamEvent::Epoch { epoch, .. } => assert_eq!(epoch, 0),
        other => panic!("expected an epoch, got {other:?}"),
    }

    // Several mux connections each holding a paged row stream open.
    let mut row_clients: Vec<SirenClient> = Vec::new();
    for _ in 0..4 {
        let mut client = SirenClient::connect(addr).unwrap();
        let mut rows = client
            .query(QueryPlan::records().batch_rows(2).page_rows(4))
            .unwrap();
        let _ = rows.next().expect("first row").unwrap();
        std::mem::forget(rows); // leave the stream genuinely mid-flight
        row_clients.push(client);
    }

    // Drop the daemon: the reactor must unwind without hanging…
    drop(leader);

    // …and every client must observe its connection closing. Frames
    // already queued in socket buffers may drain first — the stream is
    // allowed to finish off buffered bytes, but the connection must
    // then be dead.
    let torn = loop {
        match stream.next_event() {
            Ok(Some(_)) => continue, // buffered frames drain
            Ok(None) => break false, // whole reply was already in flight
            Err(err) => {
                assert!(
                    matches!(
                        err,
                        siren_proto::ClientError::Frame(FrameError::Closed | FrameError::Io(_))
                    ),
                    "subscriber must see a transport close, got {err:?}"
                );
                break true;
            }
        }
    };
    drop(stream);
    if !torn {
        assert!(
            subscriber.status().is_err(),
            "subscriber connection must be closed after the drop"
        );
    }
    for client in &mut row_clients {
        let res = client.status();
        assert!(res.is_err(), "row-stream connection must be closed");
    }
}
