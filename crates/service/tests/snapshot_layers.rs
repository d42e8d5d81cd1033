//! The layered-snapshot contract, fuzzed: a snapshot grown one epoch at
//! a time through `with_epoch` (the delta commit path), with any number
//! of background-style `merged_once` folds applied along the way, must
//! answer every query byte-identically to a monolithic
//! `QuerySnapshot::build` over the same records — and its indexed
//! `Neighbors` answers must equal a hand-rolled linear scan of the full
//! fuzzy corpus. A daemon-level pass covers `import_epoch` bulk commits
//! and crash-resume (reopen), where the recovered base layer meets
//! freshly stacked delta layers.

use proptest::test_runner::{rng_for, TestRng};
use siren_consolidate::ProcessRecord;
use siren_db::Record;
use siren_fuzzy::{similarity_search, FuzzyHash};
use siren_proto::Selection;
use siren_service::{EpochRecord, QuerySnapshot, ServiceConfig, SirenDaemon};
use siren_store::SegmentedOptions;
use siren_wire::{Layer, MessageType};

// ---------------------------------------------------- generators --

/// A record with fuzzed identity and a `FILE_H` drawn from shapes that
/// stress the candidate index: absent, unparseable, low-entropy (runs
/// the comparison collapses), high-entropy, or duplicated across
/// records (the identity rule).
fn arb_record(rng: &mut TestRng, shared_hashes: &[String]) -> ProcessRecord {
    let row = Record {
        job_id: rng.below(12),
        step_id: rng.below(3) as u32,
        pid: rng.next_u64() as u32,
        exe_hash: format!("{:016x}", rng.next_u64()),
        host: format!("nid{:06}", rng.below(5)),
        time: 1_700_000_000 + rng.below(1_000),
        layer: Layer::SelfExe,
        mtype: MessageType::Meta,
        content: String::new(),
    };
    let mut rec = ProcessRecord::new(&row);
    rec.file_hash = match rng.below(6) {
        0 => None,
        1 => Some("not-a-fuzzy-hash".into()),
        2 => Some(format!(
            "96:{:016x}00000000:{:08x}",
            rng.next_u64(),
            rng.below(1 << 20)
        )),
        3 if !shared_hashes.is_empty() => {
            Some(shared_hashes[rng.below(shared_hashes.len() as u64) as usize].clone())
        }
        _ => {
            let sig: String = (0..24)
                .map(|_| b"ABCDEFabcdef0123456789+/"[rng.below(24) as usize] as char)
                .collect();
            Some(format!("48:{sig}:{}", &sig[..12]))
        }
    };
    rec
}

/// `epochs` batches of records; epoch ids are consecutive from 0.
fn arb_epochs(rng: &mut TestRng) -> Vec<Vec<ProcessRecord>> {
    let shared: Vec<String> = (0..3)
        .map(|i| {
            format!(
                "96:{:032x}:{:016x}",
                rng.next_u64() as u128 * 31 + i,
                rng.next_u64()
            )
        })
        .collect();
    let n_epochs = rng.below(6) as usize + 1;
    (0..n_epochs)
        .map(|_| {
            let n = rng.below(30) as usize; // empty epochs included
            (0..n).map(|_| arb_record(rng, &shared)).collect()
        })
        .collect()
}

fn tag(epoch: u64, records: &[ProcessRecord]) -> Vec<EpochRecord> {
    records
        .iter()
        .map(|record| EpochRecord {
            epoch,
            record: record.clone(),
        })
        .collect()
}

// ---------------------------------------------------- references --

/// The linear-scan `Neighbors` oracle: parse every `FILE_H` in commit
/// order (the monolithic corpus) and run the unindexed batch search.
fn scan_neighbors(
    all: &[EpochRecord],
    hash: &str,
    k: usize,
    min_score: u32,
) -> Vec<(u32, u64, ProcessRecord)> {
    let Ok(baseline) = FuzzyHash::parse(hash) else {
        return Vec::new();
    };
    let mut corpus = Vec::new();
    let mut owners = Vec::new();
    for (i, er) in all.iter().enumerate() {
        if let Some(h) = &er.record.file_hash {
            if let Ok(parsed) = FuzzyHash::parse(h) {
                corpus.push(parsed);
                owners.push(i);
            }
        }
    }
    similarity_search(&baseline, &corpus, min_score)
        .into_iter()
        .take(k)
        .map(|hit| {
            let er = &all[owners[hit.index]];
            (hit.score, er.epoch, er.record.clone())
        })
        .collect()
}

/// Assert `snapshot` answers exactly like the monolithic rebuild of
/// `all` — every query kind the protocol serves.
fn assert_equivalent(case: usize, snapshot: &QuerySnapshot, all: &[EpochRecord]) {
    let reference = QuerySnapshot::build(all.to_vec());

    assert_eq!(snapshot.len(), reference.len(), "case {case}: len");
    assert_eq!(snapshot.epochs(), reference.epochs(), "case {case}: epochs");
    let got: Vec<&EpochRecord> = snapshot.iter().collect();
    let want: Vec<&EpochRecord> = reference.iter().collect();
    assert_eq!(got, want, "case {case}: commit-order iteration");
    for i in [0, all.len() / 2, all.len().saturating_sub(1), all.len()] {
        assert_eq!(snapshot.get(i), reference.get(i), "case {case}: get({i})");
    }

    for job in 0..12u64 {
        assert_eq!(
            snapshot.job_records(job),
            reference.job_records(job),
            "case {case}: job {job}"
        );
    }
    assert_eq!(snapshot.job_records(u64::MAX), Vec::<&EpochRecord>::new());

    for epoch in snapshot.epochs() {
        assert_eq!(
            snapshot.epoch_records(epoch),
            reference.epoch_records(epoch),
            "case {case}: epoch {epoch}"
        );
    }

    for selection in [
        Selection::all(),
        Selection::all().host("nid000002"),
        Selection::all().between(1_700_000_000, 1_700_000_500),
        Selection::all().epoch(1).host("nid000000"),
    ] {
        assert_eq!(
            snapshot.filtered(&selection),
            reference.filtered(&selection),
            "case {case}: selection {selection:?}"
        );
    }

    // Neighbors: every distinct FILE_H probe (parseable or not) must
    // answer the linear scan's hits exactly, through both the layered
    // and the monolithic snapshot.
    let mut probes: Vec<String> = all
        .iter()
        .filter_map(|er| er.record.file_hash.clone())
        .collect();
    probes.sort();
    probes.dedup();
    probes.push("96:ZZZZZZZZZZZZZZZZ:YYYYYYYY".into()); // stranger
    for hash in &probes {
        for (k, min_score) in [(5usize, 1u32), (3, 60), (100, 0)] {
            let scan = scan_neighbors(all, hash, k, min_score);
            for (label, snap) in [("layered", snapshot), ("monolithic", &reference)] {
                let got: Vec<(u32, u64, ProcessRecord)> = snap
                    .nearest_neighbors(hash, k, min_score)
                    .into_iter()
                    .map(|n| (n.score, n.epoch, n.record.clone()))
                    .collect();
                assert_eq!(
                    got, scan,
                    "case {case}: {label} neighbors of {hash} k={k} min={min_score}"
                );
            }
        }
    }
}

// --------------------------------------------------------- tests --

#[test]
fn delta_built_snapshot_equals_full_rebuild() {
    let mut rng = rng_for("snapshot-layers-delta");
    for case in 0..25 {
        let epochs = arb_epochs(&mut rng);
        let mut snapshot = QuerySnapshot::empty();
        let mut all: Vec<EpochRecord> = Vec::new();
        for (epoch, records) in epochs.iter().enumerate() {
            let rows = tag(epoch as u64, records);
            all.extend(rows.iter().cloned());
            snapshot = snapshot.with_epoch(rows);
            // Interleave background-style merges at fuzzed points.
            while rng.below(3) == 0 {
                match snapshot.merged_once() {
                    Some(merged) => snapshot = merged,
                    None => break,
                }
            }
        }
        assert_equivalent(case, &snapshot, &all);
    }
}

#[test]
fn merging_to_one_layer_changes_no_answer() {
    let mut rng = rng_for("snapshot-layers-merge");
    let epochs = arb_epochs(&mut rng);
    let mut snapshot = QuerySnapshot::empty();
    let mut all: Vec<EpochRecord> = Vec::new();
    for (epoch, records) in epochs.iter().enumerate() {
        let rows = tag(epoch as u64, records);
        all.extend(rows.iter().cloned());
        snapshot = snapshot.with_epoch(rows);
    }
    // Drain every possible merge (the soft bound stops `merged_once`,
    // so fold manually through with_epoch-free recomposition too).
    while let Some(merged) = snapshot.merged_once() {
        snapshot = merged;
    }
    assert!(snapshot.layer_count() <= siren_service::SOFT_MAX_LAYERS);
    assert_equivalent(1000, &snapshot, &all);
}

#[test]
fn daemon_import_and_crash_resume_preserve_equivalence() {
    let mut rng = rng_for("snapshot-layers-daemon");
    for case in 0..3 {
        let dir = std::env::temp_dir().join(format!(
            "siren-snapshot-layers-{case}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // At least `compact_min_files` epochs go in before the reopen, so
        // the store compacts them into a run that the reopen reads back.
        let min_files = SegmentedOptions::default().compact_min_files;
        let mut epochs = arb_epochs(&mut rng);
        while epochs.len() <= min_files {
            epochs.extend(arb_epochs(&mut rng));
        }
        let mut all: Vec<EpochRecord> = Vec::new();

        // First half of the epochs: bulk `import_epoch` commits.
        let split = (epochs.len() / 2).max(min_files);
        {
            let (mut daemon, _) = SirenDaemon::open(ServiceConfig::at(&dir)).unwrap();
            for records in &epochs[..split] {
                let epoch = daemon.import_epoch(records.clone()).unwrap();
                all.extend(tag(epoch, records));
            }
            assert_equivalent(2000 + case, &daemon.snapshot(), &all);
        }
        // Dropping the daemon ran the compactor's queued passes.
        let runs = std::fs::read_dir(dir.join("consolidated"))
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .is_some_and(|x| x == "run")
            })
            .count();
        assert_eq!(runs, 1, "case {case}: the committed epochs were compacted");

        // Reopen (commit-then-stop is the crash-resume commit path:
        // recovery rebuilds the base layer from the store) and stack
        // the remaining epochs as fresh delta layers on top of it.
        let (mut daemon, recovery) = SirenDaemon::open(ServiceConfig::at(&dir)).unwrap();
        assert_eq!(recovery.consolidated_records as usize, all.len());
        for records in &epochs[split..] {
            let epoch = daemon.import_epoch(records.clone()).unwrap();
            all.extend(tag(epoch, records));
        }
        assert_equivalent(3000 + case, &daemon.snapshot(), &all);
        drop(daemon);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn background_merger_bounds_layer_fanout() {
    let dir = std::env::temp_dir().join(format!("siren-layer-fanout-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut rng = rng_for("snapshot-layers-fanout");
    let (mut daemon, _) = SirenDaemon::open(ServiceConfig::at(&dir)).unwrap();
    let mut all: Vec<EpochRecord> = Vec::new();
    for _ in 0..40 {
        let records: Vec<ProcessRecord> = (0..rng.below(8) + 1)
            .map(|_| arb_record(&mut rng, &[]))
            .collect();
        let epoch = daemon.import_epoch(records.clone()).unwrap();
        all.extend(tag(epoch, &records));
    }
    // 40 commits against a hard bound of 16 and a background target of
    // 8: the maintainer must have merged, and the fan-out must settle
    // at the soft bound once it catches up.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while daemon.snapshot_layers() > siren_service::SOFT_MAX_LAYERS
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(
        daemon.snapshot_layers() <= siren_service::SOFT_MAX_LAYERS,
        "fan-out stuck at {} layers",
        daemon.snapshot_layers()
    );
    assert!(daemon.snapshot_merges() > 0, "no background merge ran");
    assert_equivalent(4000, &daemon.snapshot(), &all);
    drop(daemon);
    std::fs::remove_dir_all(&dir).unwrap();
}
