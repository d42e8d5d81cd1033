//! Background compaction: merge contiguous sealed files into one run,
//! concatenated in generation order — the order they were committed in.
//!
//! The compactor only ever reads immutable files and performs one atomic
//! rename, so it needs the catalog lock only to snapshot the input set
//! and to swap in the result — reads and the merge itself run unlocked.
//! Crash safety comes from the supersession rule (see the crate docs),
//! not from locking.

use crate::metrics::StoreMetrics;
use crate::segment::{read_segment_with, write_segment, SegmentRead};
use crate::segmented::{run_path, Catalog, FileKind, SealedFile};
use crate::Persist;
use siren_obs::TraceId;
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// When the oldest file is a run more than this factor larger than all
/// newer files combined, compaction merges only the newer files.
const TIER_FACTOR: u64 = 4;

pub(crate) enum Msg {
    Notify,
    Shutdown,
}

/// Handle to the background compaction worker.
pub(crate) struct Compactor {
    tx: Sender<Msg>,
    handle: Option<JoinHandle<()>>,
}

impl Compactor {
    pub(crate) fn spawn<T: Persist>(
        catalog: Arc<Mutex<Catalog>>,
        min_files: usize,
        metrics: StoreMetrics,
    ) -> Self {
        let (tx, rx) = channel::<Msg>();
        let handle = std::thread::Builder::new()
            .name("siren-store-compact".into())
            .spawn(move || {
                while let Ok(msg) = rx.recv() {
                    match msg {
                        Msg::Shutdown => break,
                        Msg::Notify => {
                            // Drain queued notifications; one pass covers
                            // them all.
                            // I/O errors leave the inputs untouched; the
                            // next pass (or recovery) retries.
                            let _ = compact_pass::<T>(&catalog, min_files, &metrics);
                        }
                    }
                }
            })
            .expect("spawn compactor thread");
        Self {
            tx,
            handle: Some(handle),
        }
    }

    pub(crate) fn notify(&self) {
        let _ = self.tx.send(Msg::Notify);
    }

    pub(crate) fn shutdown(mut self) {
        let _ = self.tx.send(Msg::Shutdown);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// One compaction pass: if at least `min_files` sealed files are live,
/// merge them all into a single run. Returns whether a merge happened.
pub(crate) fn compact_pass<T: Persist>(
    catalog: &Arc<Mutex<Catalog>>,
    min_files: usize,
    metrics: &StoreMetrics,
) -> std::io::Result<bool> {
    let pass_start = Instant::now();
    // Snapshot the input set under the lock.
    let (dir, mut inputs): (std::path::PathBuf, Vec<SealedFile>) = {
        let catalog = catalog.lock().expect("catalog lock");
        if catalog.files.len() < min_files.max(2) {
            return Ok(false);
        }
        (
            catalog.dir.clone(),
            catalog.files.values().cloned().collect(),
        )
    };

    // Tiering: leave a dominant oldest run out of the merge. Without
    // this, every pass reads and rewrites the entire store — a daemon
    // with a 10 GB historical run would pay 10 GB of I/O per few MiB of
    // fresh data, quadratic write amplification over its lifetime. The
    // newer files still merge among themselves (their generation range
    // stays disjoint from the kept run's, so the supersession rule is
    // untouched), and the big run is only rewritten once the newcomers
    // reach a constant fraction of its size.
    if inputs[0].kind == FileKind::Run {
        let size = |f: &SealedFile| std::fs::metadata(&f.path).map(|m| m.len()).unwrap_or(0);
        let head = size(&inputs[0]);
        let tail: u64 = inputs[1..].iter().map(size).sum();
        if tail.saturating_mul(TIER_FACTOR) < head {
            inputs.remove(0);
            if inputs.len() < 2 {
                return Ok(false);
            }
        }
    }

    // Read and merge outside the lock — inputs are immutable. One
    // reader thread: the compactor runs beside ingest and queries. The
    // catalog lists files by generation, so concatenating them keeps
    // commit order; a run's bytes are exactly `write_segment` over its
    // inputs' items in that order.
    let mut merged: Vec<T> = Vec::new();
    for file in &inputs {
        match read_segment_with::<T>(&file.path, 1)? {
            SegmentRead::Valid(items) => merged.extend(items),
            SegmentRead::Partial(_) => {
                // A live catalog entry must be valid; bail out and let
                // recovery adjudicate on the next open.
                return Ok(false);
            }
        }
    }

    let start = inputs.first().expect("non-empty input set").start;
    let end = inputs.last().expect("non-empty input set").end;
    let out = run_path(&dir, start, end);
    write_segment(&out, &merged)?;
    metrics
        .compaction_bytes
        .add(std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0));

    // Swap the run in for its inputs, then unlink them. A crash before
    // the unlinks is fine: the run supersedes them on recovery.
    {
        let mut catalog = catalog.lock().expect("catalog lock");
        for file in &inputs {
            catalog.files.remove(&file.start);
        }
        catalog.files.insert(
            start,
            SealedFile {
                start,
                end,
                path: out,
                kind: FileKind::Run,
            },
        );
    }
    for file in &inputs {
        // Survivable: a superseded input left behind is re-recognized
        // (and re-unlinked) by the next recovery; only count it.
        if std::fs::remove_file(&file.path).is_err() {
            metrics.io_errors.inc();
        }
    }
    let pass_elapsed = pass_start.elapsed();
    metrics.compaction_ns.record_duration(pass_elapsed);
    metrics.compaction_passes.inc();
    if let Some(spans) = &metrics.spans {
        spans.record_past(
            TraceId::generate(),
            None,
            "store.compaction",
            pass_start,
            pass_elapsed,
        );
    }
    Ok(true)
}
