//! Crash-recovery property tests for the sealed-file store. A kill in
//! the middle of `append_sealed` or of a compaction — simulated at a
//! fuzzed point on the files a real run wrote — must reopen to exactly
//! the durable prefix of whole batches, in commit order. A sealed
//! segment torn afterwards (media damage) keeps its intact frame
//! prefix. Each property has an `#[ignore]`d twin with many more cases:
//! `cargo test -p siren-store --release -- --ignored`.

use proptest::collection::vec;
use proptest::prelude::*;
use siren_store::{
    read_segment, write_segment, Persist, RecoveryStats, SegmentRead, SegmentedBackend,
    SegmentedOptions,
};
use std::path::{Path, PathBuf};

#[derive(Debug, Clone, PartialEq, Eq)]
struct Item {
    seq: u64,
    body: String,
}

impl Persist for Item {
    fn encode(&self) -> Vec<u8> {
        let mut out = self.seq.to_le_bytes().to_vec();
        out.extend_from_slice(&(self.body.len() as u32).to_le_bytes());
        out.extend_from_slice(self.body.as_bytes());
        out
    }

    fn decode(data: &[u8]) -> Option<Self> {
        let seq = u64::from_le_bytes(data.get(..8)?.try_into().ok()?);
        let len = u32::from_le_bytes(data.get(8..12)?.try_into().ok()?) as usize;
        if 12 + len != data.len() {
            return None;
        }
        Some(Self {
            seq,
            body: String::from_utf8(data.get(12..)?.to_vec()).ok()?,
        })
    }
}

/// One batch per entry of `sizes`. Sequence numbers *descend* over the
/// whole run, so anything that sorted by them would reverse commit
/// order.
fn batches(sizes: &[usize]) -> Vec<Vec<Item>> {
    let total: usize = sizes.iter().sum();
    let mut next = total as u64;
    sizes
        .iter()
        .map(|&n| {
            (0..n)
                .map(|_| {
                    next -= 1;
                    Item {
                        seq: next,
                        body: format!("payload-{next}-{}", "x".repeat((next % 23) as usize)),
                    }
                })
                .collect()
        })
        .collect()
}

fn opts() -> SegmentedOptions {
    SegmentedOptions {
        compact_min_files: 2,
        background_compaction: false, // compaction only when the test asks
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "siren-store-crash-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn reopen(dir: &Path) -> (Vec<Item>, RecoveryStats) {
    let (_b, recovered, stats) = SegmentedBackend::<Item>::open(dir, opts()).unwrap();
    (recovered, stats)
}

/// `(start, end)` generations of a sealed file name.
fn gen_range(name: &str) -> Option<(u64, u64)> {
    if let Some(n) = name
        .strip_prefix("seg-")
        .and_then(|s| s.strip_suffix(".seg"))
    {
        let n = n.parse().ok()?;
        return Some((n, n));
    }
    let (a, b) = name
        .strip_prefix("run-")?
        .strip_suffix(".run")?
        .split_once('-')?;
    Some((a.parse().ok()?, b.parse().ok()?))
}

/// Every sealed file in `dir` with its generation range and bytes, in
/// generation order.
fn sealed_files(dir: &Path) -> Vec<((u64, u64), PathBuf, Vec<u8>)> {
    let mut files: Vec<((u64, u64), PathBuf, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name()?.to_str()?.to_string();
            let range = gen_range(&name)?;
            let bytes = std::fs::read(&path).unwrap();
            Some((range, path, bytes))
        })
        .collect();
    files.sort_by_key(|(range, _, _)| *range);
    files
}

fn tmp_of(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

fn cut_at(len: usize, frac: f64) -> usize {
    ((len as f64 * frac) as usize).min(len.saturating_sub(1))
}

/// Kill points of `append_sealed` (write `seg-N.tmp`, fsync, rename):
/// `0` after the rename, `1` after the fsync, `2` mid-write with the
/// `.tmp` torn at `cut_frac`. Recovery yields every batch before the
/// last, plus the last one only if its rename landed — whole batches,
/// in commit order — and the store keeps appending after them.
fn kill_mid_append(sizes: &[usize], compact_every: usize, kill: u8, cut_frac: f64) {
    let dir = fresh_dir("append");
    let all = batches(sizes);
    let (last, done) = all.split_last().expect("at least one batch");
    let gen = {
        let (mut b, _, _) = SegmentedBackend::<Item>::open(&dir, opts()).unwrap();
        for (i, batch) in done.iter().enumerate() {
            b.append_sealed(batch).unwrap();
            if compact_every > 0 && (i + 1) % compact_every == 0 {
                b.compact_now().unwrap();
            }
        }
        b.append_sealed(last).unwrap()
    };
    let seg = dir.join(format!("seg-{gen:010}.seg"));
    let tmp = tmp_of(&seg);
    if kill > 0 {
        std::fs::rename(&seg, &tmp).unwrap();
    }
    if kill > 1 {
        let data = std::fs::read(&tmp).unwrap();
        std::fs::write(&tmp, &data[..cut_at(data.len(), cut_frac)]).unwrap();
    }

    let durable = if kill == 0 { all.len() } else { all.len() - 1 };
    let (got, stats) = reopen(&dir);
    assert_eq!(got, all[..durable].concat(), "kill point {kill}");
    assert_eq!(stats.partial_files_discarded, usize::from(kill > 0));
    assert!(!tmp.exists());

    // The next batch lands after the durable prefix.
    {
        let (mut b, _, _) = SegmentedBackend::<Item>::open(&dir, opts()).unwrap();
        b.append_sealed(last).unwrap();
    }
    let (got, stats) = reopen(&dir);
    assert_eq!(
        got,
        [&all[..durable], std::slice::from_ref(last)]
            .concat()
            .concat()
    );
    assert_eq!(stats.partial_files_discarded, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Kill points of a compaction pass (write `run-A-B.tmp`, fsync,
/// rename, unlink the inputs in generation order): `0` after the
/// rename with the first `keep_frac` of the unlinks done, `1` before the
/// rename with the `.tmp` torn at `cut_frac` (or whole), `2` a torn run
/// renamed into place. Recovery yields the same items in the same
/// order either way. Also checks that the run's bytes are exactly
/// `write_segment` over its inputs' items concatenated.
fn kill_mid_compaction(
    sizes: &[usize],
    pre_compact: usize,
    kill: u8,
    keep_frac: f64,
    cut_frac: f64,
) {
    let dir = fresh_dir("compact");
    let all = batches(sizes);
    let before = {
        let (mut b, _, _) = SegmentedBackend::<Item>::open(&dir, opts()).unwrap();
        for (i, batch) in all.iter().enumerate() {
            b.append_sealed(batch).unwrap();
            if i + 1 == pre_compact {
                b.compact_now().unwrap();
            }
        }
        let before = sealed_files(&dir);
        if !b.compact_now().unwrap() {
            // Tiering spared a dominant run and left one newer file:
            // nothing merged, nothing to kill.
            drop(b);
            std::fs::remove_dir_all(&dir).unwrap();
            return;
        }
        before
    };
    let after = sealed_files(&dir);
    let (run_range, run, run_bytes) = after
        .iter()
        .find(|(range, _, _)| !before.iter().any(|(r, _, _)| r == range))
        .cloned()
        .expect("the pass wrote a run");
    let inputs: Vec<&((u64, u64), PathBuf, Vec<u8>)> = before
        .iter()
        .filter(|((a, b), _, _)| run_range.0 <= *a && *b <= run_range.1)
        .collect();
    assert!(inputs.len() >= 2);

    // Restore every input: the state a kill right after the rename
    // leaves. Their items, concatenated, make the run byte for byte.
    let mut input_items: Vec<Item> = Vec::new();
    for (_, path, bytes) in &inputs {
        std::fs::write(path, bytes).unwrap();
        match read_segment::<Item>(path).unwrap() {
            SegmentRead::Valid(items) => input_items.extend(items),
            SegmentRead::Partial(_) => panic!("{} was valid", path.display()),
        }
    }
    let side = fresh_dir("compact-side");
    let expected_run = side.join("expected.run");
    write_segment(&expected_run, &input_items).unwrap();
    assert_eq!(std::fs::read(&expected_run).unwrap(), run_bytes);
    std::fs::remove_dir_all(&side).unwrap();

    let mut superseded = 0;
    let mut partial = 0;
    match kill {
        0 => {
            let unlinked = (inputs.len() as f64 * keep_frac) as usize;
            for (_, path, _) in &inputs[..unlinked] {
                std::fs::remove_file(path).unwrap();
            }
            superseded = inputs.len() - unlinked;
        }
        1 => {
            let tmp = tmp_of(&run);
            std::fs::rename(&run, &tmp).unwrap();
            if cut_frac < 0.5 {
                std::fs::write(&tmp, &run_bytes[..cut_at(run_bytes.len(), cut_frac * 2.0)])
                    .unwrap();
            }
            partial = 1;
        }
        _ => {
            std::fs::write(&run, &run_bytes[..cut_at(run_bytes.len(), cut_frac)]).unwrap();
            partial = 1;
        }
    }

    let (got, stats) = reopen(&dir);
    assert_eq!(got, all.concat(), "kill point {kill}");
    assert_eq!(stats.superseded_files_removed, superseded);
    assert_eq!(stats.partial_files_discarded, partial);
    let (again, stats) = reopen(&dir);
    assert_eq!(again, got);
    assert_eq!(
        (
            stats.superseded_files_removed,
            stats.partial_files_discarded
        ),
        (0, 0)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Items whose frames lie wholly inside the first `cut` bytes of a
/// segment: 8 bytes of magic, then `[magic][len][payload][checksum]`
/// frames of 13 + payload bytes each.
fn intact_prefix(items: &[Item], cut: usize) -> usize {
    let mut pos = 8;
    items
        .iter()
        .take_while(|item| {
            pos += 13 + item.encode().len();
            pos <= cut
        })
        .count()
}

/// Media damage: a sealed segment torn at `cut_frac`, with no other copy
/// of its batch anywhere. Recovery keeps exactly the intact frame
/// prefix, counts the file as partial and rewrites it valid.
fn torn_sealed_segment(sizes: &[usize], victim_frac: f64, cut_frac: f64) {
    let dir = fresh_dir("salvage");
    let all = batches(sizes);
    {
        let (mut b, _, _) = SegmentedBackend::<Item>::open(&dir, opts()).unwrap();
        for batch in &all {
            b.append_sealed(batch).unwrap();
        }
    }
    let victim = ((all.len() as f64 * victim_frac) as usize).min(all.len() - 1);
    let seg = dir.join(format!("seg-{victim:010}.seg"));
    let data = std::fs::read(&seg).unwrap();
    let cut = cut_at(data.len(), cut_frac);
    std::fs::write(&seg, &data[..cut]).unwrap();

    let kept = &all[victim][..intact_prefix(&all[victim], cut)];
    let want = [&all[..victim], &[kept.to_vec()], &all[victim + 1..]]
        .concat()
        .concat();
    let (got, stats) = reopen(&dir);
    assert_eq!(got, want);
    assert_eq!(stats.partial_files_discarded, 1);
    match read_segment::<Item>(&seg).unwrap() {
        SegmentRead::Valid(items) => assert_eq!(items, kept),
        SegmentRead::Partial(_) => panic!("the salvaged segment is rewritten valid"),
    }
    let (again, stats) = reopen(&dir);
    assert_eq!(again, want);
    assert_eq!(stats.partial_files_discarded, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn kill_mid_append_sealed_recovers_whole_batches(
        sizes in vec(0usize..12, 1..10),
        compact_every in 0usize..4,
        kill in 0u8..3,
        cut_frac in 0.0f64..1.0,
    ) {
        kill_mid_append(&sizes, compact_every, kill, cut_frac);
    }

    #[test]
    fn kill_mid_compaction_recovers_the_same_items_in_order(
        sizes in vec(0usize..12, 2..10),
        pre_compact in 0usize..10,
        kill in 0u8..3,
        keep_frac in 0.0f64..1.0,
        cut_frac in 0.0f64..1.0,
    ) {
        kill_mid_compaction(&sizes, pre_compact, kill, keep_frac, cut_frac);
    }

    #[test]
    fn torn_sealed_segment_keeps_its_intact_frame_prefix(
        sizes in vec(0usize..12, 1..8),
        victim_frac in 0.0f64..1.0,
        cut_frac in 0.0f64..1.0,
    ) {
        torn_sealed_segment(&sizes, victim_frac, cut_frac);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// The store crash fuzz smoke: `cargo test -p siren-store
    /// --release -- --ignored`.
    #[test]
    #[ignore = "larger crash fuzz smoke, run explicitly by the CI store fuzz gate"]
    fn kill_mid_append_sealed_recovers_whole_batches_fuzz_smoke(
        sizes in vec(0usize..40, 1..16),
        compact_every in 0usize..6,
        kill in 0u8..3,
        cut_frac in 0.0f64..1.0,
    ) {
        kill_mid_append(&sizes, compact_every, kill, cut_frac);
    }

    #[test]
    #[ignore = "larger crash fuzz smoke, run explicitly by the CI store fuzz gate"]
    fn kill_mid_compaction_recovers_the_same_items_in_order_fuzz_smoke(
        sizes in vec(0usize..40, 2..16),
        pre_compact in 0usize..16,
        kill in 0u8..3,
        keep_frac in 0.0f64..1.0,
        cut_frac in 0.0f64..1.0,
    ) {
        kill_mid_compaction(&sizes, pre_compact, kill, keep_frac, cut_frac);
    }

    #[test]
    #[ignore = "larger crash fuzz smoke, run explicitly by the CI store fuzz gate"]
    fn torn_sealed_segment_keeps_its_intact_frame_prefix_fuzz_smoke(
        sizes in vec(0usize..40, 1..16),
        victim_frac in 0.0f64..1.0,
        cut_frac in 0.0f64..1.0,
    ) {
        torn_sealed_segment(&sizes, victim_frac, cut_frac);
    }
}
