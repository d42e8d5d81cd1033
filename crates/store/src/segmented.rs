//! The segmented backend: active WAL → sealed segments → sorted runs.

use crate::backend::StorageBackend;
use crate::compact::{compact_pass, Compactor};
use crate::metrics::StoreMetrics;
use crate::segment::{
    available_workers, read_segment_with, sync_parent_dir, write_segment, SegmentRead,
};
use crate::wal::{WalReader, WalWriter};
use crate::Persist;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Tuning knobs for a segmented store.
#[derive(Debug, Clone, Copy)]
pub struct SegmentedOptions {
    /// Rotate the active WAL into a sealed segment once it exceeds this
    /// many bytes.
    pub rotate_bytes: u64,
    /// Compact once at least this many sealed files (segments + runs)
    /// are live.
    pub compact_min_files: usize,
    /// Run compaction on a background thread. When `false`, call
    /// [`SegmentedBackend::compact_now`] explicitly (deterministic mode
    /// for tests and benchmarks).
    pub background_compaction: bool,
}

impl Default for SegmentedOptions {
    fn default() -> Self {
        Self {
            rotate_bytes: 1 << 20,
            compact_min_files: 4,
            background_compaction: true,
        }
    }
}

/// What recovery found and did while opening a segmented store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Records loaded into memory across all live files and WALs.
    pub records_loaded: u64,
    /// Records replayed out of leftover WAL files.
    pub wal_records_replayed: u64,
    /// Bytes dropped from torn WAL tails.
    pub wal_tail_bytes_discarded: u64,
    /// Valid sealed segments adopted.
    pub segments_loaded: usize,
    /// Valid sorted runs adopted.
    pub runs_loaded: usize,
    /// Partial files discarded (`*.tmp` leftovers, torn segments).
    pub partial_files_discarded: usize,
    /// Files deleted because a wider run superseded them.
    pub superseded_files_removed: usize,
    /// Rotations that had sealed their segment but not yet removed the
    /// source WAL when the process died; recovery finished them.
    pub interrupted_rotations_completed: usize,
}

/// Kind of a sealed (immutable) file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FileKind {
    /// Arrival-order segment from one WAL generation.
    Segment,
    /// Sorted run covering a contiguous generation range.
    Run,
}

/// One immutable file in the store, covering generations `start..=end`.
#[derive(Debug, Clone)]
pub(crate) struct SealedFile {
    pub start: u64,
    pub end: u64,
    pub path: PathBuf,
    pub kind: FileKind,
}

/// The live-file catalog shared with the compactor thread.
#[derive(Debug)]
pub(crate) struct Catalog {
    pub dir: PathBuf,
    /// Keyed by range start; ranges are disjoint and sorted.
    pub files: BTreeMap<u64, SealedFile>,
}

pub(crate) fn wal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("wal-{generation:010}.wal"))
}

pub(crate) fn seg_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("seg-{generation:010}.seg"))
}

pub(crate) fn run_path(dir: &Path, start: u64, end: u64) -> PathBuf {
    dir.join(format!("run-{start:010}-{end:010}.run"))
}

/// Parse a store file name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StoreFile {
    Wal(u64),
    Seg(u64),
    Run(u64, u64),
    Tmp,
}

fn parse_name(name: &str) -> Option<StoreFile> {
    if name.ends_with(".tmp") {
        return Some(StoreFile::Tmp);
    }
    if let Some(n) = name
        .strip_prefix("wal-")
        .and_then(|s| s.strip_suffix(".wal"))
    {
        return n.parse().ok().map(StoreFile::Wal);
    }
    if let Some(n) = name
        .strip_prefix("seg-")
        .and_then(|s| s.strip_suffix(".seg"))
    {
        return n.parse().ok().map(StoreFile::Seg);
    }
    if let Some(ab) = name
        .strip_prefix("run-")
        .and_then(|s| s.strip_suffix(".run"))
    {
        let (a, b) = ab.split_once('-')?;
        return Some(StoreFile::Run(a.parse().ok()?, b.parse().ok()?));
    }
    None
}

/// Segmented, compacting persistent store for `T`.
///
/// See the crate docs for the on-disk layout and the crash-consistency
/// contract. All appends go through an active WAL; [`Self::append_sealed`]
/// bypasses it to commit a batch as one atomic segment.
pub struct SegmentedBackend<T: Persist + Clone> {
    opts: SegmentedOptions,
    catalog: Arc<Mutex<Catalog>>,
    active: WalWriter<T>,
    active_gen: u64,
    /// In-memory mirror of the active WAL, bounded by `rotate_bytes`;
    /// sealing re-encodes from here instead of re-reading the file.
    active_items: Vec<T>,
    compactor: Option<Compactor>,
    metrics: StoreMetrics,
}

impl<T: Persist + Clone> SegmentedBackend<T> {
    /// Open (or create) the store in `dir`, running full crash recovery.
    /// Returns the backend, every record it holds (file order: sorted
    /// runs, then segments, then replayed WALs by generation), and the
    /// recovery report. Metrics record into a detached bundle; use
    /// [`Self::open_with_metrics`] to surface them in a shared registry.
    pub fn open(
        dir: &Path,
        opts: SegmentedOptions,
    ) -> std::io::Result<(Self, Vec<T>, RecoveryStats)> {
        Self::open_with_metrics(dir, opts, StoreMetrics::detached())
    }

    /// [`Self::open`], recording `store.*` metrics into `metrics` —
    /// including the background compactor's pass durations and bytes.
    pub fn open_with_metrics(
        dir: &Path,
        opts: SegmentedOptions,
        metrics: StoreMetrics,
    ) -> std::io::Result<(Self, Vec<T>, RecoveryStats)> {
        std::fs::create_dir_all(dir)?;
        let mut span = metrics.spans.as_ref().map(|s| s.root("store.open", None));
        let workers = available_workers();
        let mut stats = RecoveryStats::default();

        let mut wals: Vec<u64> = Vec::new();
        let mut segs: Vec<u64> = Vec::new();
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            match parse_name(name) {
                Some(StoreFile::Tmp) => {
                    // Interrupted atomic write: never renamed, never live.
                    std::fs::remove_file(entry.path())?;
                    stats.partial_files_discarded += 1;
                }
                Some(StoreFile::Wal(n)) => wals.push(n),
                Some(StoreFile::Seg(n)) => segs.push(n),
                Some(StoreFile::Run(a, b)) => runs.push((a, b)),
                None => {}
            }
        }
        wals.sort_unstable();
        segs.sort_unstable();
        runs.sort_unstable();

        // 1. Validate runs; keep the widest, discard contained ones.
        let mut valid_runs: Vec<(u64, u64, Vec<T>)> = Vec::new();
        for (a, b) in runs {
            let path = run_path(dir, a, b);
            match read_segment_with::<T>(&path, workers)? {
                SegmentRead::Valid(items) => valid_runs.push((a, b, items)),
                SegmentRead::Partial(_) => {
                    // A run is only renamed into place after fsync; a
                    // torn one is pre-rename garbage that escaped the
                    // .tmp convention. Its inputs are still live.
                    std::fs::remove_file(&path)?;
                    stats.partial_files_discarded += 1;
                }
            }
        }
        valid_runs.sort_by_key(|&(a, b, _)| (std::cmp::Reverse(b - a), a));
        let mut kept_runs: Vec<(u64, u64, Vec<T>)> = Vec::new();
        for (a, b, items) in valid_runs {
            if kept_runs.iter().any(|&(ka, kb, _)| ka <= a && b <= kb) {
                std::fs::remove_file(run_path(dir, a, b))?;
                stats.superseded_files_removed += 1;
            } else {
                kept_runs.push((a, b, items));
            }
        }
        let covered =
            |g: u64, kept: &[(u64, u64, Vec<T>)]| kept.iter().any(|&(a, b, _)| a <= g && g <= b);

        // 2. Segments: drop ones a run supersedes; salvage torn ones.
        let mut live_segs: Vec<(u64, Vec<T>)> = Vec::new();
        for n in segs {
            let path = seg_path(dir, n);
            if covered(n, &kept_runs) {
                std::fs::remove_file(&path)?;
                stats.superseded_files_removed += 1;
                continue;
            }
            match read_segment_with::<T>(&path, workers)? {
                SegmentRead::Valid(items) => live_segs.push((n, items)),
                SegmentRead::Partial(prefix) => {
                    stats.partial_files_discarded += 1;
                    if wals.contains(&n) {
                        // The seal never completed; the WAL still holds
                        // everything. Drop the partial segment.
                        std::fs::remove_file(&path)?;
                    } else {
                        // No WAL to fall back to (it was already removed,
                        // so the segment *was* fully written once and has
                        // since been damaged). Keep the intact prefix and
                        // rewrite the file so it is valid again.
                        write_segment(&path, &prefix)?;
                        live_segs.push((n, prefix));
                    }
                }
            }
        }

        // 3. WALs: a sibling segment or covering run means the seal
        //    completed — drop the WAL. Otherwise replay and seal it now.
        let mut max_gen: Option<u64> = None;
        for &g in wals
            .iter()
            .chain(live_segs.iter().map(|(n, _)| n))
            .chain(kept_runs.iter().map(|(_, b, _)| b))
        {
            max_gen = Some(max_gen.map_or(g, |m: u64| m.max(g)));
        }
        for n in wals {
            let path = wal_path(dir, n);
            if covered(n, &kept_runs) || live_segs.iter().any(|&(s, _)| s == n) {
                std::fs::remove_file(&path)?;
                stats.interrupted_rotations_completed += 1;
                continue;
            }
            let (items, replay) = WalReader::<T>::open(&path)?.replay()?;
            stats.wal_records_replayed += replay.records;
            stats.wal_tail_bytes_discarded += replay.corrupt_tail_bytes;
            if !items.is_empty() {
                write_segment(&seg_path(dir, n), &items)?;
                live_segs.push((n, items));
            }
            std::fs::remove_file(&path)?;
        }
        live_segs.sort_by_key(|&(n, _)| n);

        // 4. Build the catalog and the in-memory record image.
        stats.runs_loaded = kept_runs.len();
        stats.segments_loaded = live_segs.len();
        let mut files: BTreeMap<u64, SealedFile> = BTreeMap::new();
        let mut loaded: BTreeMap<u64, Vec<T>> = BTreeMap::new();
        for (a, b, items) in kept_runs {
            files.insert(
                a,
                SealedFile {
                    start: a,
                    end: b,
                    path: run_path(dir, a, b),
                    kind: FileKind::Run,
                },
            );
            loaded.insert(a, items);
        }
        for (n, items) in live_segs {
            files.insert(
                n,
                SealedFile {
                    start: n,
                    end: n,
                    path: seg_path(dir, n),
                    kind: FileKind::Segment,
                },
            );
            loaded.insert(n, items);
        }
        let records: Vec<T> = loaded.into_values().flatten().collect();
        stats.records_loaded = records.len() as u64;

        let active_gen = max_gen.map_or(0, |m| m + 1);
        let active = WalWriter::append_to(&wal_path(dir, active_gen))?;
        let catalog = Arc::new(Mutex::new(Catalog {
            dir: dir.to_path_buf(),
            files,
        }));
        let compactor = if opts.background_compaction {
            Some(Compactor::spawn::<T>(
                Arc::clone(&catalog),
                opts.compact_min_files,
                metrics.clone(),
            ))
        } else {
            None
        };

        let backend = Self {
            opts,
            catalog,
            active,
            active_gen,
            active_items: Vec::new(),
            compactor,
            metrics,
        };
        if let Some(span) = &mut span {
            span.annotate(
                "files",
                &(stats.runs_loaded + stats.segments_loaded).to_string(),
            );
            span.annotate("records", &stats.records_loaded.to_string());
            span.annotate("bytes", &backend.sealed_bytes().to_string());
            span.annotate("workers", &workers.to_string());
        }
        backend.notify_compactor();
        Ok((backend, records, stats))
    }

    fn notify_compactor(&self) {
        if let Some(c) = &self.compactor {
            c.notify();
        }
    }

    fn dir(&self) -> PathBuf {
        self.catalog.lock().expect("catalog lock").dir.clone()
    }

    /// Seal the active WAL into `seg-<gen>.seg` and start a fresh WAL.
    /// No-op when the active WAL is empty.
    fn rotate(&mut self) -> std::io::Result<()> {
        if self.active_items.is_empty() {
            return Ok(());
        }
        let dir = self.dir();
        let gen = self.active_gen;
        // Make the WAL itself durable first: until the segment rename
        // lands, the WAL is the only copy.
        let fsync_start = Instant::now();
        self.active.sync()?;
        self.metrics
            .wal_fsync_ns
            .record_duration(fsync_start.elapsed());
        let seal_start = Instant::now();
        write_segment(&seg_path(&dir, gen), &self.active_items)?;
        {
            let mut catalog = self.catalog.lock().expect("catalog lock");
            catalog.files.insert(
                gen,
                SealedFile {
                    start: gen,
                    end: gen,
                    path: seg_path(&dir, gen),
                    kind: FileKind::Segment,
                },
            );
        }
        self.metrics
            .segment_seal_ns
            .record_duration(seal_start.elapsed());
        self.metrics.segments_sealed.inc();
        // Segment is durable: swap in a fresh WAL, then drop the old
        // one. A failed unlink is survivable — recovery drops a WAL
        // superseded by its sibling segment — so it must not fail a
        // rotation whose segment already landed.
        self.active_gen += 1;
        self.active = WalWriter::append_to(&wal_path(&dir, self.active_gen))?;
        self.active_items.clear();
        if std::fs::remove_file(wal_path(&dir, gen)).is_err() {
            self.metrics.io_errors.inc();
        }
        sync_parent_dir(&wal_path(&dir, gen));
        self.notify_compactor();
        Ok(())
    }

    /// Commit `items` as one atomic sealed segment: after a crash either
    /// the entire batch is recovered or none of it. Any pending active-WAL
    /// content is rotated out first so global record order is preserved.
    /// Returns the generation the batch was sealed under.
    pub fn append_sealed(&mut self, items: &[T]) -> std::io::Result<u64> {
        self.rotate()?;
        let dir = self.dir();
        let gen = self.active_gen;
        let seal_start = Instant::now();
        write_segment(&seg_path(&dir, gen), items)?;
        {
            let mut catalog = self.catalog.lock().expect("catalog lock");
            catalog.files.insert(
                gen,
                SealedFile {
                    start: gen,
                    end: gen,
                    path: seg_path(&dir, gen),
                    kind: FileKind::Segment,
                },
            );
        }
        self.metrics
            .segment_seal_ns
            .record_duration(seal_start.elapsed());
        self.metrics.segments_sealed.inc();
        // The sealed segment took over this generation; move the (empty)
        // active WAL past it. As in `rotate`, a failed unlink of the
        // superseded WAL is survivable and must not fail the commit.
        let old_wal = wal_path(&dir, gen);
        self.active_gen += 1;
        self.active = WalWriter::append_to(&wal_path(&dir, self.active_gen))?;
        if std::fs::remove_file(&old_wal).is_err() {
            self.metrics.io_errors.inc();
        }
        self.notify_compactor();
        Ok(gen)
    }

    /// Run one synchronous compaction pass (foreground mode). Returns
    /// whether anything was merged. With background compaction enabled
    /// this only nudges the worker instead (returns `false`).
    pub fn compact_now(&mut self) -> std::io::Result<bool> {
        if self.compactor.is_some() {
            self.notify_compactor();
            return Ok(false);
        }
        compact_pass::<T>(&self.catalog, self.opts.compact_min_files, &self.metrics)
    }

    /// Number of live `(segments, runs)` on disk.
    pub fn file_census(&self) -> (usize, usize) {
        let catalog = self.catalog.lock().expect("catalog lock");
        let segs = catalog
            .files
            .values()
            .filter(|f| f.kind == FileKind::Segment)
            .count();
        (segs, catalog.files.len() - segs)
    }

    /// Total bytes of live sealed files (segments + runs) on disk —
    /// the store's durable footprint. Files that vanish mid-walk
    /// (compaction racing the census) count as zero; this is an
    /// observability export, not an integrity check. Replication uses
    /// it as the leader/follower "bytes behind" yardstick.
    pub fn sealed_bytes(&self) -> u64 {
        let catalog = self.catalog.lock().expect("catalog lock");
        catalog
            .files
            .values()
            .filter_map(|f| std::fs::metadata(&f.path).ok())
            .map(|m| m.len())
            .sum()
    }

    /// Completed compaction passes (background and foreground), read
    /// from the `store.compaction_passes` metric.
    pub fn compaction_passes(&self) -> u64 {
        self.metrics.compaction_passes.get()
    }

    /// The store's options.
    pub fn options(&self) -> SegmentedOptions {
        self.opts
    }
}

impl<T: Persist + Clone> StorageBackend<T> for SegmentedBackend<T> {
    fn append_batch(&mut self, items: &[T]) -> std::io::Result<()> {
        for item in items {
            self.active.append(item)?;
            self.active_items.push(item.clone());
            if self.active.bytes_written() >= self.opts.rotate_bytes {
                self.rotate()?;
            }
        }
        Ok(())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.active.flush()
    }

    fn sync(&mut self) -> std::io::Result<()> {
        let fsync_start = Instant::now();
        self.active.sync()?;
        self.metrics
            .wal_fsync_ns
            .record_duration(fsync_start.elapsed());
        Ok(())
    }

    fn kind(&self) -> &'static str {
        "segmented"
    }
}

impl<T: Persist + Clone> Drop for SegmentedBackend<T> {
    fn drop(&mut self) {
        // Push buffered frames to the OS so a clean shutdown keeps
        // everything; a real crash is what recovery is for.
        let _ = self.active.flush();
        if let Some(compactor) = self.compactor.take() {
            compactor.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testitem::{temp_dir, TestItem};

    fn opts_foreground(rotate_bytes: u64, compact_min_files: usize) -> SegmentedOptions {
        SegmentedOptions {
            rotate_bytes,
            compact_min_files,
            background_compaction: false,
        }
    }

    fn items(range: std::ops::Range<u64>) -> Vec<TestItem> {
        range.map(TestItem::new).collect()
    }

    fn sorted(mut v: Vec<TestItem>) -> Vec<TestItem> {
        v.sort();
        v
    }

    #[test]
    fn append_rotate_reopen_round_trip() {
        let dir = temp_dir("segb-rt");
        let all = items(0..500);
        {
            let (mut b, recovered, _) =
                SegmentedBackend::<TestItem>::open(&dir, opts_foreground(256, usize::MAX)).unwrap();
            assert!(recovered.is_empty());
            for chunk in all.chunks(7) {
                b.append_batch(chunk).unwrap();
            }
            b.sync().unwrap();
            let (segs, runs) = b.file_census();
            assert!(segs > 1, "tiny rotate threshold must produce segments");
            assert_eq!(runs, 0);
        }
        let (_b, recovered, stats) =
            SegmentedBackend::<TestItem>::open(&dir, opts_foreground(256, usize::MAX)).unwrap();
        assert_eq!(sorted(recovered), all);
        assert_eq!(stats.records_loaded, 500);
        assert_eq!(stats.wal_tail_bytes_discarded, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn record_order_is_preserved_without_compaction() {
        let dir = temp_dir("segb-order");
        let all = items(0..200);
        {
            let (mut b, _, _) =
                SegmentedBackend::<TestItem>::open(&dir, opts_foreground(128, usize::MAX)).unwrap();
            b.append_batch(&all).unwrap();
            b.sync().unwrap();
        }
        let (_b, recovered, _) =
            SegmentedBackend::<TestItem>::open(&dir, opts_foreground(128, usize::MAX)).unwrap();
        // No compaction ran, so arrival order survives verbatim.
        assert_eq!(recovered, all);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreground_compaction_merges_to_one_sorted_run() {
        let dir = temp_dir("segb-compact");
        let all = items(0..300);
        let (mut b, _, _) =
            SegmentedBackend::<TestItem>::open(&dir, opts_foreground(128, 2)).unwrap();
        b.append_batch(&all).unwrap();
        b.sync().unwrap();
        let (segs_before, _) = b.file_census();
        assert!(segs_before >= 2);
        assert!(b.compact_now().unwrap());
        let (segs, runs) = b.file_census();
        assert_eq!((segs, runs), (0, 1));
        drop(b);

        let (_b, recovered, stats) =
            SegmentedBackend::<TestItem>::open(&dir, opts_foreground(128, 2)).unwrap();
        assert_eq!(stats.runs_loaded, 1);
        assert_eq!(sorted(recovered.clone()), all);
        // The run region is sorted by Persist::order.
        let run_len = recovered.len() - (stats.wal_records_replayed as usize);
        for w in recovered[..run_len].windows(2) {
            assert!(TestItem::order(&w[0], &w[1]) != std::cmp::Ordering::Greater);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_then_more_appends_then_compaction_again() {
        let dir = temp_dir("segb-recompact");
        let (mut b, _, _) =
            SegmentedBackend::<TestItem>::open(&dir, opts_foreground(128, 2)).unwrap();
        b.append_batch(&items(0..150)).unwrap();
        assert!(b.compact_now().unwrap());
        b.append_batch(&items(150..300)).unwrap();
        b.sync().unwrap();
        // Now: one run + fresh segments. Compact again merges run + segs.
        assert!(b.compact_now().unwrap());
        let (segs, runs) = b.file_census();
        assert_eq!((segs, runs), (0, 1));
        drop(b);
        let (_b, recovered, _) =
            SegmentedBackend::<TestItem>::open(&dir, opts_foreground(128, 2)).unwrap();
        assert_eq!(sorted(recovered), items(0..300));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_sealed_is_atomic_and_ordered() {
        let dir = temp_dir("segb-sealed");
        let (mut b, _, _) =
            SegmentedBackend::<TestItem>::open(&dir, opts_foreground(1 << 20, usize::MAX)).unwrap();
        b.append_batch(&items(0..10)).unwrap();
        let gen = b.append_sealed(&items(10..20)).unwrap();
        assert!(gen > 0, "pending WAL content must rotate out first");
        b.append_batch(&items(20..30)).unwrap();
        b.sync().unwrap();
        drop(b);
        let (_b, recovered, stats) =
            SegmentedBackend::<TestItem>::open(&dir, opts_foreground(1 << 20, usize::MAX)).unwrap();
        assert_eq!(recovered, items(0..30), "sealed batch keeps global order");
        assert!(stats.segments_loaded >= 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn background_compaction_eventually_merges() {
        let dir = temp_dir("segb-bg");
        let opts = SegmentedOptions {
            rotate_bytes: 128,
            compact_min_files: 2,
            background_compaction: true,
        };
        let (mut b, _, _) = SegmentedBackend::<TestItem>::open(&dir, opts).unwrap();
        b.append_batch(&items(0..400)).unwrap();
        b.sync().unwrap();
        // Tiered compaction may legitimately leave a dominant run plus a
        // straggler or two; what must happen is that passes run and the
        // file count collapses well below the rotation count.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let (segs, runs) = b.file_census();
            if b.compaction_passes() >= 1 && segs + runs <= 3 && runs >= 1 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "background compaction never converged: {segs} segs {runs} runs"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        drop(b);
        let (b, recovered, _) = SegmentedBackend::<TestItem>::open(&dir, opts).unwrap();
        assert_eq!(sorted(recovered), items(0..400));
        // The reopened backend's compactor must be joined before the
        // unlink, or a pass can write into the directory being removed.
        drop(b);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // ----------------------------------------------- crash scenarios --

    #[test]
    fn tiering_spares_a_dominant_run() {
        let dir = temp_dir("segb-tier");
        let (mut b, _, _) =
            SegmentedBackend::<TestItem>::open(&dir, opts_foreground(128, 2)).unwrap();
        // Build a large run…
        b.append_batch(&items(0..400)).unwrap();
        assert!(b.compact_now().unwrap());
        let (_, runs) = b.file_census();
        assert_eq!(runs, 1);
        let run_sizes = |dir: &std::path::Path| -> Vec<u64> {
            let mut sizes: Vec<u64> = std::fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .filter(|p| p.extension().is_some_and(|e| e == "run"))
                .map(|p| std::fs::metadata(p).unwrap().len())
                .collect();
            sizes.sort_unstable();
            sizes
        };
        let big_run_bytes = run_sizes(&dir)[0];
        // …then trickle in a little new data: the pass must merge only
        // the new segments, leaving the big run untouched.
        b.append_batch(&items(400..440)).unwrap();
        b.sync().unwrap();
        let (segs_before, _) = b.file_census();
        assert!(segs_before >= 2, "need at least two fresh segments");
        assert!(b.compact_now().unwrap());
        let (segs, runs) = b.file_census();
        assert_eq!(segs, 0, "fresh segments merged");
        assert_eq!(runs, 2, "dominant run left alone");
        assert_eq!(
            run_sizes(&dir).last().copied(),
            Some(big_run_bytes),
            "big run not rewritten"
        );
        drop(b);
        let (_b, recovered, _) =
            SegmentedBackend::<TestItem>::open(&dir, opts_foreground(128, 2)).unwrap();
        assert_eq!(sorted(recovered), items(0..440));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_interrupted_rotation_segment_and_wal_both_present() {
        let dir = temp_dir("segb-crash-rot");
        // Build a real store with one sealed segment, then recreate the
        // source WAL beside it — the state a kill between segment rename
        // and WAL unlink leaves behind.
        let all = items(0..50);
        {
            let (mut b, _, _) =
                SegmentedBackend::<TestItem>::open(&dir, opts_foreground(1, usize::MAX)).unwrap();
            b.append_batch(&all).unwrap(); // rotates immediately (threshold 1)
        }
        // seg-0 exists; resurrect wal-0 with the same records.
        let mut w = WalWriter::<TestItem>::append_to(&wal_path(&dir, 0)).unwrap();
        for item in &all {
            w.append(item).unwrap();
        }
        w.sync().unwrap();
        drop(w);

        let (_b, recovered, stats) =
            SegmentedBackend::<TestItem>::open(&dir, opts_foreground(1, usize::MAX)).unwrap();
        assert_eq!(
            sorted(recovered),
            all,
            "completed seal + leftover WAL must not double-count"
        );
        assert!(stats.interrupted_rotations_completed >= 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_partial_segment_with_wal_falls_back_to_wal() {
        let dir = temp_dir("segb-crash-partial");
        let all = items(0..40);
        // WAL holds everything; the segment write died partway (simulated
        // as a truncated segment that *did* get renamed — harsher than
        // the .tmp convention ever produces).
        let mut w = WalWriter::<TestItem>::append_to(&wal_path(&dir, 0)).unwrap();
        for item in &all {
            w.append(item).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        write_segment(&seg_path(&dir, 0), &all).unwrap();
        let seg_bytes = std::fs::read(seg_path(&dir, 0)).unwrap();
        std::fs::write(seg_path(&dir, 0), &seg_bytes[..seg_bytes.len() / 3]).unwrap();

        let (_b, recovered, stats) =
            SegmentedBackend::<TestItem>::open(&dir, opts_foreground(1 << 20, usize::MAX)).unwrap();
        assert_eq!(sorted(recovered), all, "WAL must cover the torn segment");
        assert_eq!(stats.partial_files_discarded, 1);
        assert_eq!(stats.wal_records_replayed, 40);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_interrupted_compaction_run_supersedes_inputs() {
        let dir = temp_dir("segb-crash-compact");
        let all = items(0..120);
        // Three sealed segments…
        write_segment(&seg_path(&dir, 0), &items(0..40)).unwrap();
        write_segment(&seg_path(&dir, 1), &items(40..80)).unwrap();
        write_segment(&seg_path(&dir, 2), &items(80..120)).unwrap();
        // …and a completed run over them whose inputs were never deleted.
        let mut merged = all.clone();
        merged.sort();
        write_segment(&run_path(&dir, 0, 2), &merged).unwrap();

        let (_b, recovered, stats) =
            SegmentedBackend::<TestItem>::open(&dir, opts_foreground(1 << 20, usize::MAX)).unwrap();
        assert_eq!(recovered, merged, "run supersedes its inputs exactly once");
        assert_eq!(stats.superseded_files_removed, 3);
        assert_eq!(stats.runs_loaded, 1);
        assert!(!seg_path(&dir, 0).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_partial_run_keeps_inputs() {
        let dir = temp_dir("segb-crash-runtorn");
        write_segment(&seg_path(&dir, 0), &items(0..30)).unwrap();
        write_segment(&seg_path(&dir, 1), &items(30..60)).unwrap();
        let mut merged = items(0..60);
        merged.sort();
        write_segment(&run_path(&dir, 0, 1), &merged).unwrap();
        let run_bytes = std::fs::read(run_path(&dir, 0, 1)).unwrap();
        std::fs::write(run_path(&dir, 0, 1), &run_bytes[..run_bytes.len() / 2]).unwrap();

        let (_b, recovered, stats) =
            SegmentedBackend::<TestItem>::open(&dir, opts_foreground(1 << 20, usize::MAX)).unwrap();
        assert_eq!(sorted(recovered), items(0..60));
        assert_eq!(stats.partial_files_discarded, 1);
        assert_eq!(stats.segments_loaded, 2);
        assert!(!run_path(&dir, 0, 1).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_tmp_files_are_deleted() {
        let dir = temp_dir("segb-crash-tmp");
        write_segment(&seg_path(&dir, 0), &items(0..10)).unwrap();
        std::fs::write(dir.join("seg-0000000001.seg.tmp"), b"half-written").unwrap();
        std::fs::write(dir.join("run-0000000000-0000000000.run.tmp"), b"junk").unwrap();
        let (_b, recovered, stats) =
            SegmentedBackend::<TestItem>::open(&dir, opts_foreground(1 << 20, usize::MAX)).unwrap();
        assert_eq!(recovered, items(0..10));
        assert_eq!(stats.partial_files_discarded, 2);
        assert!(!dir.join("seg-0000000001.seg.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_nested_runs_keep_widest() {
        let dir = temp_dir("segb-crash-nested");
        let mut narrow = items(0..20);
        narrow.sort();
        write_segment(&run_path(&dir, 0, 1), &narrow).unwrap();
        let mut wide = items(0..40);
        wide.sort();
        write_segment(&run_path(&dir, 0, 3), &wide).unwrap();
        let (_b, recovered, stats) =
            SegmentedBackend::<TestItem>::open(&dir, opts_foreground(1 << 20, usize::MAX)).unwrap();
        assert_eq!(recovered, wide);
        assert_eq!(stats.superseded_files_removed, 1);
        assert_eq!(stats.runs_loaded, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
