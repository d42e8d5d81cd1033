//! Daemon lifecycle tests: epoch commits, sentinel-driven closes,
//! crash-resume, and cross-epoch queries — all against the reference
//! serial consolidation of the same message streams.

use siren_cluster::{Campaign, CampaignConfig, FleetConfig};
use siren_collector::{Collector, PolicyMode, SENTINEL_BURST};
use siren_consolidate::{consolidate, ProcessRecord};
use siren_db::Database;
use siren_net::{SimChannel, SimConfig};
use siren_obs::TraceFilter;
use siren_service::{ServiceConfig, SirenDaemon};
use siren_store::SegmentedOptions;
use siren_wire::{Message, MessageType, Reassembler};
use std::path::PathBuf;

fn fleet() -> FleetConfig {
    FleetConfig {
        clusters: 2,
        base: CampaignConfig {
            scale: 0.001,
            ..CampaignConfig::default()
        },
    }
}

/// Collect one cluster campaign into a message vector (losslessly or
/// with injected datagram loss), ending with epoch-tagged sentinels.
fn campaign_messages(cluster: usize, epoch: u64, loss: f64, seed: u64) -> Vec<Message> {
    let cfg = fleet().campaign_config(cluster);
    let channel = if loss > 0.0 {
        SimConfig::with_loss(loss, seed)
    } else {
        SimConfig::perfect()
    };
    let (tx, rx) = SimChannel::create(channel);
    let mut collector = Collector::new(&tx, PolicyMode::Selective)
        .with_sender_id(cluster as u32)
        .with_epoch(epoch);
    Campaign::new(cfg).run(|ctx| collector.observe(&ctx));
    collector.end_campaign();
    rx.drain_messages().0
}

/// The reference: one serial reassembler + database + consolidation.
fn serial_reference(messages: &[Message]) -> Vec<ProcessRecord> {
    let mut reasm = Reassembler::new();
    let rows = Database::in_memory();
    for msg in messages {
        if msg.header.mtype == MessageType::End {
            continue;
        }
        if let Some(done) = reasm.push(msg.clone()) {
            rows.insert_message(done).unwrap();
        }
    }
    consolidate(&rows).records
}

fn temp_data_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("siren-service-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tight_store() -> SegmentedOptions {
    SegmentedOptions {
        compact_min_files: 2,
        background_compaction: false,
    }
}

#[test]
fn sentinels_close_epochs_and_queries_span_them() {
    let dir = temp_data_dir("epochs");
    let cfg = ServiceConfig {
        store: tight_store(),
        shards: 2,
        ..ServiceConfig::at(&dir)
    };
    let (mut daemon, recovery) = SirenDaemon::open(cfg).unwrap();
    assert_eq!(recovery, Default::default());

    let mut references = Vec::new();
    for epoch in 0..2u64 {
        let messages = campaign_messages(epoch as usize, epoch, 0.0, 0);
        references.push(serial_reference(&messages));
        let mut summary = None;
        for msg in messages {
            if let Some(s) = daemon.push(msg).unwrap() {
                summary = Some(s);
            }
        }
        let summary = summary.expect("sentinel burst must close the epoch");
        assert_eq!(summary.epoch, epoch);
        assert_eq!(summary.records as usize, references[epoch as usize].len());
        assert_eq!(summary.senders_closed, 1);
        // First END copy closes; later copies fall outside the epoch.
        assert_eq!(summary.sentinels_seen as usize, 1);
        assert_eq!(summary.epoch_tag_mismatches, 0);
        assert_eq!(daemon.open_epoch(), None);
    }
    assert_eq!(daemon.committed_epochs(), vec![0, 1]);

    // Cross-epoch queries.
    let query = daemon.snapshot();
    assert_eq!(query.epochs(), vec![0, 1]);
    for (epoch, reference) in references.iter().enumerate() {
        let got: Vec<ProcessRecord> = query
            .epoch_records(epoch as u64)
            .into_iter()
            .cloned()
            .collect();
        assert_eq!(&got, reference, "epoch {epoch} records");
    }
    // Per-job lookups agree with the reference.
    let probe = &references[1][0];
    let hits = query.job_records(probe.key.job_id);
    assert!(hits.iter().any(|er| &er.record == probe));
    assert!(hits
        .iter()
        .all(|er| er.record.key.job_id == probe.key.job_id));

    // Library usage over a host/time selection matches a hand filter.
    let host = probe.key.host.clone();
    let rows = query.select().host(&host).library_usage();
    let hand: Vec<&ProcessRecord> = references
        .iter()
        .flatten()
        .filter(|r| r.key.host == host)
        .collect();
    let hand_rows = siren_analysis::library_usage(hand);
    assert_eq!(rows, hand_rows);

    // Fuzzy nearest neighbors: probing with a record's own FILE_H must
    // return that record with score 100.
    if let Some((hash, owner)) = references
        .iter()
        .flatten()
        .find_map(|r| r.file_hash.clone().map(|h| (h, r.clone())))
    {
        let snapshot = daemon.snapshot();
        let neighbors = snapshot.nearest_neighbors(&hash, 5, 50);
        assert!(!neighbors.is_empty());
        assert_eq!(neighbors[0].score, 100);
        assert_eq!(
            neighbors[0].record.file_hash.as_deref(),
            Some(hash.as_str())
        );
        let _ = owner;
    } else {
        panic!("campaign must produce at least one FILE_H record");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn restart_between_epochs_recovers_committed_records() {
    let dir = temp_data_dir("restart");
    let cfg = || ServiceConfig {
        store: tight_store(),
        ..ServiceConfig::at(&dir)
    };

    let messages = campaign_messages(0, 0, 0.0, 1);
    let reference = serial_reference(&messages);
    {
        let (mut daemon, _) = SirenDaemon::open(cfg()).unwrap();
        for msg in messages {
            daemon.push(msg).unwrap();
        }
        assert_eq!(daemon.committed_epochs(), vec![0]);
    }
    let (daemon, recovery) = SirenDaemon::open(cfg()).unwrap();
    assert_eq!(recovery.committed_epochs, vec![0]);
    assert_eq!(recovery.consolidated_records as usize, reference.len());
    assert_eq!(recovery.resumed_epoch, None);
    let got: Vec<ProcessRecord> = daemon
        .snapshot()
        .epoch_records(0)
        .into_iter()
        .cloned()
        .collect();
    assert_eq!(got, reference);
    // The next campaign lands in a fresh epoch — even when it commits
    // zero records (every datagram lost), its seal marker must survive
    // the next restart so the id is never reused.
    let (mut daemon, _) = (daemon, ());
    let next = daemon.begin_epoch().unwrap();
    assert_eq!(next, 1);
    let summary = daemon.close_epoch().unwrap();
    assert_eq!(summary.records, 0);
    drop(daemon);

    let (mut daemon, recovery) = SirenDaemon::open(cfg()).unwrap();
    assert_eq!(
        recovery.committed_epochs,
        vec![0, 1],
        "empty epoch's commit survives restart via its seal"
    );
    assert_eq!(daemon.begin_epoch().unwrap(), 2, "id not reused");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn reopen_records_one_store_open_span() {
    let dir = temp_data_dir("open-span");
    let cfg = || ServiceConfig {
        store: tight_store(),
        ..ServiceConfig::at(&dir)
    };
    {
        let (mut daemon, _) = SirenDaemon::open(cfg()).unwrap();
        for msg in campaign_messages(0, 0, 0.0, 2) {
            daemon.push(msg).unwrap();
        }
        assert_eq!(daemon.committed_epochs(), vec![0]);
    }
    let (daemon, recovery) = SirenDaemon::open(cfg()).unwrap();
    let opens = daemon.traces(&TraceFilter::recent().stage("store.open"));
    assert_eq!(opens.len(), 1, "one open, one store.open trace: {opens:?}");
    let root = opens[0].root().expect("store.open is a root span");
    assert_eq!(root.stage, "store.open");
    let annotation = |key: &str| -> u64 {
        root.annotation(key)
            .unwrap_or_else(|| panic!("store.open lacks {key}: {root:?}"))
            .parse()
            .unwrap()
    };
    let store = recovery.store;
    assert_eq!(
        annotation("files"),
        (store.runs_loaded + store.segments_loaded) as u64
    );
    assert!(annotation("files") >= 1);
    // Every committed row plus the epoch's seal marker.
    assert_eq!(
        annotation("records"),
        recovery.consolidated_records + 1,
        "records annotation counts rows and seals"
    );
    assert_eq!(annotation("records"), store.records_loaded);
    assert_eq!(annotation("bytes"), daemon.sealed_bytes());
    assert!(annotation("workers") >= 1);
    drop(daemon);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crash_mid_epoch_resumes_and_converges_on_resend() {
    let dir = temp_data_dir("crash");
    let cfg = || ServiceConfig {
        store: tight_store(),
        shards: 2,
        ..ServiceConfig::at(&dir)
    };

    let epoch0 = campaign_messages(0, 0, 0.0, 2);
    let epoch1 = campaign_messages(1, 1, 0.0, 3);
    let ref0 = serial_reference(&epoch0);
    let ref1 = serial_reference(&epoch1);

    // Run epoch 0 to completion, then die partway through epoch 1.
    {
        let (mut daemon, _) = SirenDaemon::open(cfg()).unwrap();
        for msg in &epoch0 {
            daemon.push(msg.clone()).unwrap();
        }
        let split = epoch1.len() / 3;
        for msg in &epoch1[..split] {
            daemon.push(msg.clone()).unwrap();
        }
        daemon.simulate_crash().unwrap();
    }
    // Harsher: tear the tail off one of the epoch's shard WALs.
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        if name.contains(".msgs.shard0") {
            let data = std::fs::read(&path).unwrap();
            std::fs::write(&path, &data[..data.len() - data.len() / 7]).unwrap();
        }
    }

    // Restart: epoch 0 is back from the consolidated store, epoch 1
    // resumes from its WALs; a full re-send converges.
    let (mut daemon, recovery) = SirenDaemon::open(cfg()).unwrap();
    assert_eq!(recovery.committed_epochs, vec![0]);
    assert_eq!(recovery.resumed_epoch, Some(1));
    assert_eq!(daemon.open_epoch(), Some(1));
    let mut summary = None;
    for msg in &epoch1 {
        if let Some(s) = daemon.push(msg.clone()).unwrap() {
            summary = Some(s);
        }
    }
    let summary = summary.expect("re-sent sentinel closes the resumed epoch");
    assert_eq!(summary.epoch, 1);
    assert!(
        summary
            .shard_stats
            .iter()
            .map(|s| s.replayed_records)
            .sum::<u64>()
            > 0,
        "resume must replay persisted rows"
    );

    let query = daemon.snapshot();
    assert_eq!(query.epochs(), vec![0, 1]);
    let got0: Vec<ProcessRecord> = query.epoch_records(0).into_iter().cloned().collect();
    let got1: Vec<ProcessRecord> = query.epoch_records(1).into_iter().cloned().collect();
    assert_eq!(got0, ref0);
    assert_eq!(got1, ref1, "crash + resend must equal the crash-free run");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stray_and_mismatched_sentinels_are_tolerated() {
    let dir = temp_data_dir("stray");
    let (mut daemon, _) = SirenDaemon::open(ServiceConfig {
        store: tight_store(),
        ..ServiceConfig::at(&dir)
    })
    .unwrap();

    // Sentinels with no open epoch are dropped.
    for _ in 0..SENTINEL_BURST {
        assert!(daemon
            .push(siren_wire::sentinel_message(9, 0))
            .unwrap()
            .is_none());
    }

    // A campaign whose sender believes it is epoch 7 must NOT close the
    // daemon's epoch 0 — a mismatched tag is a straggler from another
    // campaign, counted and ignored (trusting it would commit a torn
    // epoch mid-stream).
    let messages = campaign_messages(0, 7, 0.0, 4);
    for msg in messages {
        assert!(
            daemon.push(msg).unwrap().is_none(),
            "mismatched sentinel tag must never close the epoch"
        );
    }
    assert_eq!(daemon.open_epoch(), Some(0), "epoch stays open");
    let summary = daemon.close_epoch().unwrap();
    assert_eq!(summary.epoch, 0);
    assert_eq!(summary.epoch_tag_mismatches, SENTINEL_BURST as u64);
    assert_eq!(summary.senders_closed, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn injected_loss_streams_consolidate_like_serial() {
    let dir = temp_data_dir("loss");
    let (mut daemon, _) = SirenDaemon::open(ServiceConfig {
        store: tight_store(),
        shards: 3,
        ..ServiceConfig::at(&dir)
    })
    .unwrap();

    for epoch in 0..2u64 {
        let messages = campaign_messages(epoch as usize, epoch, 0.05, 40 + epoch);
        let reference = serial_reference(&messages);
        for msg in &messages {
            daemon.push(msg.clone()).unwrap();
        }
        // Loss may have eaten every sentinel copy; the operator-driven
        // close covers that path.
        if daemon.open_epoch().is_some() {
            daemon.close_epoch().unwrap();
        }
        let got: Vec<ProcessRecord> = daemon
            .snapshot()
            .epoch_records(epoch)
            .into_iter()
            .cloned()
            .collect();
        assert_eq!(got, reference, "epoch {epoch} under loss");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
