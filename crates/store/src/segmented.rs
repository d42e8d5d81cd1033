//! The segmented backend: sealed batches → merged runs, in commit order.

use crate::compact::{compact_pass, Compactor};
use crate::metrics::StoreMetrics;
use crate::segment::{available_workers, read_segment_with, write_segment, SegmentRead};
use crate::Persist;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Tuning knobs for a segmented store.
#[derive(Debug, Clone, Copy)]
pub struct SegmentedOptions {
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
            compact_min_files: 4,
            background_compaction: true,
        }
    }
}

/// What recovery found and did while opening a segmented store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Records loaded into memory across all live files.
    pub records_loaded: u64,
    /// Valid sealed segments adopted.
    pub segments_loaded: usize,
    /// Valid runs adopted.
    pub runs_loaded: usize,
    /// Partial files discarded or salvaged (`*.tmp` leftovers, torn
    /// runs, torn segments cut back to their intact prefix).
    pub partial_files_discarded: usize,
    /// Files deleted because a wider run superseded them.
    pub superseded_files_removed: usize,
}

/// Kind of a sealed (immutable) file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FileKind {
    /// One [`SegmentedBackend::append_sealed`] batch.
    Segment,
    /// Merge of a contiguous generation range, in generation order.
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

pub(crate) fn seg_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("seg-{generation:010}.seg"))
}

pub(crate) fn run_path(dir: &Path, start: u64, end: u64) -> PathBuf {
    dir.join(format!("run-{start:010}-{end:010}.run"))
}

/// Parse a store file name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StoreFile {
    /// A write-ahead log left by a store from before sealed-only
    /// stores (always empty there); see recovery step 1.
    Wal,
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
        return n.parse::<u64>().ok().map(|_| StoreFile::Wal);
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
/// contract. Every write is one [`Self::append_sealed`] batch, committed
/// as one atomic segment; the order [`Self::open`] returns is the order
/// the batches were committed in.
pub struct SegmentedBackend<T: Persist> {
    opts: SegmentedOptions,
    catalog: Arc<Mutex<Catalog>>,
    /// The generation the next sealed batch is written under.
    next_gen: u64,
    compactor: Option<Compactor>,
    metrics: StoreMetrics,
    _items: std::marker::PhantomData<fn() -> T>,
}

impl<T: Persist> SegmentedBackend<T> {
    /// Open (or create) the store in `dir`, running full crash recovery.
    /// Returns the backend, every record it holds in commit order, and
    /// the recovery report. Metrics record into a detached bundle; use
    /// [`Self::open_with_metrics`] to surface them in a shared registry.
    pub fn open(
        dir: &Path,
        opts: SegmentedOptions,
    ) -> std::io::Result<(Self, Vec<T>, RecoveryStats)> {
        Self::open_with_metrics(dir, opts, StoreMetrics::detached())
    }

    /// [`Self::open`], recording `store.*` metrics into `metrics` —
    /// including the background compactor's pass durations and bytes.
    ///
    /// Fails with [`std::io::ErrorKind::InvalidData`], naming the file
    /// and before touching the directory, when it holds a non-empty
    /// `wal-*.wal`: no writer of a sealed-only store ever appended to
    /// one, so its records have no place in commit order.
    pub fn open_with_metrics(
        dir: &Path,
        opts: SegmentedOptions,
        metrics: StoreMetrics,
    ) -> std::io::Result<(Self, Vec<T>, RecoveryStats)> {
        std::fs::create_dir_all(dir)?;
        let mut span = metrics.spans.as_ref().map(|s| s.root("store.open", None));
        let workers = available_workers();
        let mut stats = RecoveryStats::default();

        let mut tmps: Vec<PathBuf> = Vec::new();
        let mut wals: Vec<PathBuf> = Vec::new();
        let mut segs: Vec<u64> = Vec::new();
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            match parse_name(name) {
                Some(StoreFile::Tmp) => tmps.push(entry.path()),
                Some(StoreFile::Wal) => wals.push(entry.path()),
                Some(StoreFile::Seg(n)) => segs.push(n),
                Some(StoreFile::Run(a, b)) => runs.push((a, b)),
                None => {}
            }
        }
        segs.sort_unstable();
        runs.sort_unstable();

        // 1. WALs: a store written before sealed-only stores holds one
        //    empty `wal-N.wal`, which goes. A non-empty one is refused
        //    before anything is removed.
        for path in &wals {
            if std::fs::metadata(path)?.len() > 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "{}: non-empty write-ahead log in a sealed-only store",
                        path.display()
                    ),
                ));
            }
        }
        for path in wals {
            std::fs::remove_file(path)?;
        }
        for path in tmps {
            // Interrupted atomic write: never renamed, never live.
            std::fs::remove_file(path)?;
            stats.partial_files_discarded += 1;
        }

        // 2. Validate runs; keep the widest, discard contained ones.
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

        // 3. Segments: drop ones a run supersedes; salvage torn ones.
        let mut live_segs: Vec<(u64, Vec<T>)> = Vec::new();
        for n in segs {
            let path = seg_path(dir, n);
            if kept_runs.iter().any(|&(a, b, _)| a <= n && n <= b) {
                std::fs::remove_file(&path)?;
                stats.superseded_files_removed += 1;
                continue;
            }
            match read_segment_with::<T>(&path, workers)? {
                SegmentRead::Valid(items) => live_segs.push((n, items)),
                SegmentRead::Partial(prefix) => {
                    // Renamed into place only after fsync, so the file
                    // was whole once and has been damaged since. Keep
                    // the intact frame prefix and rewrite the file so
                    // it is valid again.
                    stats.partial_files_discarded += 1;
                    write_segment(&path, &prefix)?;
                    live_segs.push((n, prefix));
                }
            }
        }

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

        let next_gen = files.values().next_back().map_or(0, |f| f.end + 1);
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
            next_gen,
            compactor,
            metrics,
            _items: std::marker::PhantomData,
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

    /// Commit `items` as one atomic sealed segment: after a crash either
    /// the entire batch is recovered, after every batch committed before
    /// it, or none of it. Returns the generation the batch was sealed
    /// under.
    pub fn append_sealed(&mut self, items: &[T]) -> std::io::Result<u64> {
        let gen = self.next_gen;
        let dir = self.catalog.lock().expect("catalog lock").dir.clone();
        let path = seg_path(&dir, gen);
        let seal_start = Instant::now();
        write_segment(&path, items)?;
        self.catalog.lock().expect("catalog lock").files.insert(
            gen,
            SealedFile {
                start: gen,
                end: gen,
                path,
                kind: FileKind::Segment,
            },
        );
        self.next_gen += 1;
        self.metrics
            .segment_seal_ns
            .record_duration(seal_start.elapsed());
        self.metrics.segments_sealed.inc();
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
}

impl<T: Persist> Drop for SegmentedBackend<T> {
    fn drop(&mut self) {
        // Queued passes run before the worker exits.
        if let Some(compactor) = self.compactor.take() {
            compactor.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testitem::{temp_dir, TestItem};
    use crate::WalWriter;

    fn opts_foreground(compact_min_files: usize) -> SegmentedOptions {
        SegmentedOptions {
            compact_min_files,
            background_compaction: false,
        }
    }

    /// Number of live `(segments, runs)` on disk.
    fn file_census(b: &SegmentedBackend<TestItem>) -> (usize, usize) {
        let catalog = b.catalog.lock().expect("catalog lock");
        let segs = catalog
            .files
            .values()
            .filter(|f| f.kind == FileKind::Segment)
            .count();
        (segs, catalog.files.len() - segs)
    }

    /// `n` batches of `size` items whose keys *descend* across the
    /// whole sequence, so any sort by key would reverse commit order.
    fn batches(n: u64, size: u64) -> Vec<Vec<TestItem>> {
        (0..n)
            .map(|b| {
                (0..size)
                    .map(|i| TestItem::new(n * size - (b * size + i)))
                    .collect()
            })
            .collect()
    }

    fn seal_all(b: &mut SegmentedBackend<TestItem>, batches: &[Vec<TestItem>]) {
        for batch in batches {
            b.append_sealed(batch).unwrap();
        }
    }

    fn wal_files(dir: &Path) -> Vec<PathBuf> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "wal"))
            .collect()
    }

    #[test]
    fn sealed_batches_reopen_in_commit_order_and_leave_no_wal() {
        let dir = temp_dir("segb-rt");
        let all = batches(6, 7);
        {
            let (mut b, recovered, _) =
                SegmentedBackend::<TestItem>::open(&dir, opts_foreground(usize::MAX)).unwrap();
            assert!(recovered.is_empty());
            for (i, batch) in all.iter().enumerate() {
                assert_eq!(b.append_sealed(batch).unwrap(), i as u64);
            }
            assert_eq!(file_census(&b), (6, 0));
        }
        let (mut b, recovered, stats) =
            SegmentedBackend::<TestItem>::open(&dir, opts_foreground(usize::MAX)).unwrap();
        assert_eq!(recovered, all.concat());
        assert_eq!(stats.records_loaded, 42);
        assert_eq!(stats.segments_loaded, 6);
        assert_eq!(b.append_sealed(&[]).unwrap(), 6, "generations continue");
        assert!(wal_files(&dir).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreground_compaction_concatenates_in_generation_order() {
        let dir = temp_dir("segb-compact");
        let all = batches(5, 20);
        let (mut b, _, _) = SegmentedBackend::<TestItem>::open(&dir, opts_foreground(2)).unwrap();
        seal_all(&mut b, &all);
        assert!(b.compact_now().unwrap());
        assert_eq!(file_census(&b), (0, 1));
        drop(b);

        let (_b, recovered, stats) =
            SegmentedBackend::<TestItem>::open(&dir, opts_foreground(2)).unwrap();
        assert_eq!(stats.runs_loaded, 1);
        assert_eq!(recovered, all.concat(), "a run keeps commit order");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_then_more_appends_then_compaction_again() {
        let dir = temp_dir("segb-recompact");
        let all = batches(10, 15);
        let (mut b, _, _) = SegmentedBackend::<TestItem>::open(&dir, opts_foreground(2)).unwrap();
        seal_all(&mut b, &all[..5]);
        assert!(b.compact_now().unwrap());
        seal_all(&mut b, &all[5..]);
        // Now: one run + fresh segments. Compact again merges run + segs.
        assert!(b.compact_now().unwrap());
        assert_eq!(file_census(&b), (0, 1));
        drop(b);
        let (_b, recovered, _) =
            SegmentedBackend::<TestItem>::open(&dir, opts_foreground(2)).unwrap();
        assert_eq!(recovered, all.concat());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn background_compaction_eventually_merges() {
        let dir = temp_dir("segb-bg");
        let opts = SegmentedOptions {
            compact_min_files: 2,
            background_compaction: true,
        };
        let all = batches(20, 20);
        let (mut b, _, _) = SegmentedBackend::<TestItem>::open(&dir, opts).unwrap();
        seal_all(&mut b, &all);
        // Tiered compaction may legitimately leave a dominant run plus a
        // straggler or two; what must happen is that passes run and the
        // file count collapses well below the append count.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let (segs, runs) = file_census(&b);
            if b.metrics.compaction_passes.get() >= 1 && segs + runs <= 3 && runs >= 1 {
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
        assert_eq!(recovered, all.concat());
        // The reopened backend's compactor must be joined before the
        // unlink, or a pass can write into the directory being removed.
        drop(b);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tiering_spares_a_dominant_run() {
        let dir = temp_dir("segb-tier");
        let all = batches(12, 40);
        let (mut b, _, _) = SegmentedBackend::<TestItem>::open(&dir, opts_foreground(2)).unwrap();
        // Build a large run…
        seal_all(&mut b, &all[..10]);
        assert!(b.compact_now().unwrap());
        assert_eq!(file_census(&b), (0, 1));
        let run_sizes = |dir: &Path| -> Vec<u64> {
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
        seal_all(&mut b, &all[10..]);
        assert!(b.compact_now().unwrap());
        let (segs, runs) = file_census(&b);
        assert_eq!(segs, 0, "fresh segments merged");
        assert_eq!(runs, 2, "dominant run left alone");
        assert_eq!(
            run_sizes(&dir).last().copied(),
            Some(big_run_bytes),
            "big run not rewritten"
        );
        drop(b);
        let (_b, recovered, _) =
            SegmentedBackend::<TestItem>::open(&dir, opts_foreground(2)).unwrap();
        assert_eq!(recovered, all.concat());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // ----------------------------------------------- crash scenarios --

    #[test]
    fn layout_with_an_empty_wal_opens_to_the_same_items() {
        // What stores written before sealed-only stores look like: sealed
        // segments and runs plus one empty active `wal-N.wal`, N one past
        // the newest sealed generation.
        let dir = temp_dir("segb-legacy");
        let all = batches(5, 8);
        write_segment(&run_path(&dir, 0, 2), &all[..3].concat()).unwrap();
        write_segment(&seg_path(&dir, 3), &all[3]).unwrap();
        write_segment(&seg_path(&dir, 4), &all[4]).unwrap();
        drop(WalWriter::<TestItem>::append_to(&dir.join("wal-0000000005.wal")).unwrap());

        let (mut b, recovered, stats) =
            SegmentedBackend::<TestItem>::open(&dir, opts_foreground(usize::MAX)).unwrap();
        assert_eq!(recovered, all.concat());
        assert_eq!((stats.runs_loaded, stats.segments_loaded), (1, 2));
        assert_eq!(stats.partial_files_discarded, 0);
        assert!(wal_files(&dir).is_empty(), "the empty WAL is removed");
        assert_eq!(b.append_sealed(&[]).unwrap(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_empty_wal_is_refused_before_anything_is_removed() {
        let dir = temp_dir("segb-wal-refused");
        write_segment(&seg_path(&dir, 0), &batches(1, 4)[0]).unwrap();
        std::fs::write(dir.join("seg-0000000001.seg.tmp"), b"half-written").unwrap();
        let wal = dir.join("wal-0000000001.wal");
        let mut w = WalWriter::<TestItem>::append_to(&wal).unwrap();
        w.append(&TestItem::new(9)).unwrap();
        w.sync().unwrap();
        drop(w);

        let err = match SegmentedBackend::<TestItem>::open(&dir, opts_foreground(usize::MAX)) {
            Ok(_) => panic!("a non-empty WAL must be refused"),
            Err(err) => err,
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("wal-0000000001.wal"), "{err}");
        assert!(wal.exists());
        assert!(dir.join("seg-0000000001.seg.tmp").exists());
        assert!(seg_path(&dir, 0).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_interrupted_compaction_run_supersedes_inputs() {
        let dir = temp_dir("segb-crash-compact");
        let all = batches(3, 40);
        // Three sealed segments…
        for (n, batch) in all.iter().enumerate() {
            write_segment(&seg_path(&dir, n as u64), batch).unwrap();
        }
        // …and a completed run over them whose inputs were never deleted.
        write_segment(&run_path(&dir, 0, 2), &all.concat()).unwrap();

        let (_b, recovered, stats) =
            SegmentedBackend::<TestItem>::open(&dir, opts_foreground(usize::MAX)).unwrap();
        assert_eq!(
            recovered,
            all.concat(),
            "run supersedes its inputs exactly once"
        );
        assert_eq!(stats.superseded_files_removed, 3);
        assert_eq!(stats.runs_loaded, 1);
        assert!(!seg_path(&dir, 0).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_partial_run_keeps_inputs() {
        let dir = temp_dir("segb-crash-runtorn");
        let all = batches(2, 30);
        write_segment(&seg_path(&dir, 0), &all[0]).unwrap();
        write_segment(&seg_path(&dir, 1), &all[1]).unwrap();
        write_segment(&run_path(&dir, 0, 1), &all.concat()).unwrap();
        let run_bytes = std::fs::read(run_path(&dir, 0, 1)).unwrap();
        std::fs::write(run_path(&dir, 0, 1), &run_bytes[..run_bytes.len() / 2]).unwrap();

        let (_b, recovered, stats) =
            SegmentedBackend::<TestItem>::open(&dir, opts_foreground(usize::MAX)).unwrap();
        assert_eq!(recovered, all.concat());
        assert_eq!(stats.partial_files_discarded, 1);
        assert_eq!(stats.segments_loaded, 2);
        assert!(!run_path(&dir, 0, 1).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_tmp_files_are_deleted() {
        let dir = temp_dir("segb-crash-tmp");
        let batch = &batches(1, 10)[0];
        write_segment(&seg_path(&dir, 0), batch).unwrap();
        std::fs::write(dir.join("seg-0000000001.seg.tmp"), b"half-written").unwrap();
        std::fs::write(dir.join("run-0000000000-0000000000.run.tmp"), b"junk").unwrap();
        let (_b, recovered, stats) =
            SegmentedBackend::<TestItem>::open(&dir, opts_foreground(usize::MAX)).unwrap();
        assert_eq!(&recovered, batch);
        assert_eq!(stats.partial_files_discarded, 2);
        assert!(!dir.join("seg-0000000001.seg.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_nested_runs_keep_widest() {
        let dir = temp_dir("segb-crash-nested");
        let all = batches(4, 10);
        write_segment(&run_path(&dir, 0, 1), &all[..2].concat()).unwrap();
        write_segment(&run_path(&dir, 0, 3), &all.concat()).unwrap();
        let (_b, recovered, stats) =
            SegmentedBackend::<TestItem>::open(&dir, opts_foreground(usize::MAX)).unwrap();
        assert_eq!(recovered, all.concat());
        assert_eq!(stats.superseded_files_removed, 1);
        assert_eq!(stats.runs_loaded, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
