//! The owned, immutable, **layered** query snapshot.
//!
//! A [`QuerySnapshot`] is a cheap composition of immutable
//! [`SnapshotLayer`]s, one per committed epoch (plus one base layer for
//! everything recovered at startup). Each layer owns its records and
//! the indexes queries need — per-job posting lists, the pre-parsed
//! `FILE_H` fuzzy corpus, and the n-gram candidate index
//! ([`siren_fuzzy::FuzzyIndex`]) — all built once at commit time.
//!
//! Committing epoch `N` therefore costs O(epoch `N`): the new layer is
//! built from the epoch's records alone and the published snapshot
//! reuses every earlier layer by `Arc` (`with_epoch`). The monolithic
//! predecessor rebuilt all indexes from a clone of the *entire* history
//! on every commit, so commit cost grew with total records, not epoch
//! size.
//!
//! Unbounded layer counts would tax every query (each one visits each
//! layer), so fan-out is bounded two ways:
//!
//! * a **background merge** (`daemon::SnapshotMaintainer`) folds the
//!   smallest adjacent pair whenever the count exceeds
//!   [`SOFT_MAX_LAYERS`], off the commit path;
//! * `with_epoch` merges **inline** past [`HARD_MAX_LAYERS`], the
//!   safety valve for commit rates that outrun the background thread.
//!
//! Merging concatenates adjacent layers (commit order is preserved by
//! adjacency) and rebuilds their indexes, so a merged snapshot answers
//! every query identically — the layered/merged/monolithic equivalence
//! is property-tested in `tests/snapshot_layers.rs`.
//!
//! Because a snapshot is immutable and `Arc`-shared, any number of
//! query threads read it with no locking while the daemon ingests and
//! commits the next epoch — commit publishes a *new* snapshot;
//! in-flight queries keep the one they started with (see
//! `daemon::SharedState`).

use crate::daemon::EpochRecord;
use siren_analysis::{library_usage, LibraryUsageRow};
use siren_consolidate::ProcessRecord;
use siren_fuzzy::{FuzzyHash, FuzzyIndex};
use siren_proto::Selection;
use std::collections::HashMap;
use std::sync::Arc;

/// Above this many layers the background maintainer starts merging.
pub const SOFT_MAX_LAYERS: usize = 8;
/// Above this many layers `with_epoch` merges inline before publishing.
pub const HARD_MAX_LAYERS: usize = 16;

/// One nearest-neighbor hit, borrowing the matching record from the
/// snapshot it was found in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Neighbor<'a> {
    /// Similarity score, 0–100.
    pub score: u32,
    /// Epoch the matching record was committed under.
    pub epoch: u64,
    /// The matching record.
    pub record: &'a ProcessRecord,
}

/// One immutable slab of committed records with its query indexes,
/// built once (at epoch commit, recovery, or merge) and shared by every
/// snapshot that contains it.
#[derive(Debug, Default)]
pub struct SnapshotLayer {
    records: Vec<EpochRecord>,
    by_job: HashMap<u64, Vec<u32>>,
    /// Pre-parsed `FILE_H` hashes, in record order.
    corpus: Vec<FuzzyHash>,
    corpus_owners: Vec<u32>,
    /// N-gram candidate index over `corpus`.
    index: FuzzyIndex,
    /// Distinct epochs present, ascending.
    epochs: Vec<u64>,
}

impl SnapshotLayer {
    /// Index `records` (one pass; `FILE_H` hashes parsed and gram-
    /// indexed up front).
    pub fn build(records: Vec<EpochRecord>) -> Self {
        // Indexes are u32 (halves posting memory); refuse wrap-around
        // rather than silently mis-addressing records past 4 billion.
        u32::try_from(records.len()).expect("layer exceeds u32 records");
        let mut by_job: HashMap<u64, Vec<u32>> = HashMap::new();
        let mut corpus = Vec::new();
        let mut corpus_owners = Vec::new();
        let mut epochs: Vec<u64> = Vec::new();
        for (i, er) in records.iter().enumerate() {
            by_job
                .entry(er.record.key.job_id)
                .or_default()
                .push(i as u32);
            if let Some(h) = &er.record.file_hash {
                if let Ok(parsed) = FuzzyHash::parse(h) {
                    corpus.push(parsed);
                    corpus_owners.push(i as u32);
                }
            }
            epochs.push(er.epoch);
        }
        epochs.sort_unstable();
        epochs.dedup();
        let index = FuzzyIndex::build(&corpus);
        Self {
            records,
            by_job,
            corpus,
            corpus_owners,
            index,
            epochs,
        }
    }

    /// Records in this layer.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the layer holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Fold adjacent layers into one (commit order is their
    /// concatenation order), rebuilding the merged indexes.
    fn merge(layers: &[Arc<SnapshotLayer>]) -> SnapshotLayer {
        let total = layers.iter().map(|l| l.len()).sum();
        let mut records = Vec::with_capacity(total);
        for layer in layers {
            records.extend(layer.records.iter().cloned());
        }
        SnapshotLayer::build(records)
    }

    /// The layer's records, in commit order.
    pub(crate) fn layer_records(&self) -> &[EpochRecord] {
        &self.records
    }

    /// Distinct epochs present in this layer, ascending — what the
    /// plan executor prunes epoch-slice scans with.
    pub(crate) fn layer_epochs(&self) -> &[u64] {
        &self.epochs
    }
}

/// An immutable, index-carrying view of every committed record: an
/// ordered stack of `Arc`-shared [`SnapshotLayer`]s.
#[derive(Debug, Default, Clone)]
pub struct QuerySnapshot {
    /// Non-empty layers in commit order.
    layers: Vec<Arc<SnapshotLayer>>,
    /// `offsets[i]` = records in layers before layer `i`.
    offsets: Vec<usize>,
    /// Global corpus offset per layer (nearest-neighbor tie-breaking
    /// must reproduce the monolithic corpus order).
    corpus_offsets: Vec<usize>,
    total: usize,
    /// Distinct epochs across layers, ascending.
    epochs: Vec<u64>,
}

impl QuerySnapshot {
    /// Index `records` as a single layer — the from-scratch build used
    /// at recovery (and as the reference path in tests and benches).
    pub fn build(records: Vec<EpochRecord>) -> Self {
        Self::from_layers(vec![Arc::new(SnapshotLayer::build(records))])
    }

    /// The snapshot of an empty store.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Compose existing layers (empty ones are dropped; they answer no
    /// query — committed-but-empty epochs are tracked by the daemon's
    /// seal markers, not the snapshot, exactly as before).
    pub fn from_layers(layers: Vec<Arc<SnapshotLayer>>) -> Self {
        let layers: Vec<Arc<SnapshotLayer>> =
            layers.into_iter().filter(|l| !l.is_empty()).collect();
        let mut offsets = Vec::with_capacity(layers.len());
        let mut corpus_offsets = Vec::with_capacity(layers.len());
        let mut total = 0;
        let mut corpus_total = 0;
        let mut epochs: Vec<u64> = Vec::new();
        for layer in &layers {
            offsets.push(total);
            corpus_offsets.push(corpus_total);
            total += layer.len();
            corpus_total += layer.corpus.len();
            epochs.extend_from_slice(&layer.epochs);
        }
        epochs.sort_unstable();
        epochs.dedup();
        Self {
            layers,
            offsets,
            corpus_offsets,
            total,
            epochs,
        }
    }

    /// The successor snapshot after committing one epoch: every
    /// existing layer is reused by `Arc`, only the new epoch is
    /// indexed — O(epoch), not O(history). Merges inline past
    /// [`HARD_MAX_LAYERS`] (the background maintainer normally keeps
    /// fan-out at [`SOFT_MAX_LAYERS`] before that bites).
    pub fn with_epoch(&self, records: Vec<EpochRecord>) -> Self {
        let mut layers = self.layers.clone();
        let layer = SnapshotLayer::build(records);
        if !layer.is_empty() {
            layers.push(Arc::new(layer));
        }
        let mut next = Self::from_layers(layers);
        while next.layers.len() > HARD_MAX_LAYERS {
            next = next
                .merged_once_at(HARD_MAX_LAYERS)
                .expect("over the bound");
        }
        next
    }

    /// One background-merge step: fold the smallest adjacent layer pair
    /// if more than [`SOFT_MAX_LAYERS`] layers are stacked. `None` when
    /// fan-out is already within bounds — the maintainer's stop signal.
    pub fn merged_once(&self) -> Option<Self> {
        self.merged_once_at(SOFT_MAX_LAYERS)
    }

    fn merged_once_at(&self, max_layers: usize) -> Option<Self> {
        if self.layers.len() <= max_layers.max(1) {
            return None;
        }
        // Cheapest merge first: the adjacent pair with the fewest
        // records. Only adjacent layers may fold (commit order).
        let (i, _) = self
            .layers
            .windows(2)
            .map(|w| w[0].len() + w[1].len())
            .enumerate()
            .min_by_key(|&(_, combined)| combined)
            .expect("at least two layers");
        let merged = Arc::new(SnapshotLayer::merge(&self.layers[i..=i + 1]));
        let mut layers = Vec::with_capacity(self.layers.len() - 1);
        layers.extend(self.layers[..i].iter().cloned());
        layers.push(merged);
        layers.extend(self.layers[i + 2..].iter().cloned());
        Some(Self::from_layers(layers))
    }

    /// Layers currently stacked (fan-out diagnostic).
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Total records across epochs.
    pub fn len(&self) -> usize {
        self.total
    }

    /// True when no epoch has committed records.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Every record, epoch-tagged, in commit order.
    pub fn iter(&self) -> impl Iterator<Item = &EpochRecord> + '_ {
        self.layers.iter().flat_map(|l| l.records.iter())
    }

    /// The record at commit-order position `i`.
    pub fn get(&self, i: usize) -> Option<&EpochRecord> {
        if i >= self.total {
            return None;
        }
        let layer = self.offsets.partition_point(|&off| off <= i) - 1;
        self.layers[layer].records.get(i - self.offsets[layer])
    }

    /// Distinct epochs present, ascending.
    pub fn epochs(&self) -> Vec<u64> {
        self.epochs.clone()
    }

    /// Every record of one job, across epochs, in commit order.
    pub fn job_records(&self, job_id: u64) -> Vec<&EpochRecord> {
        let mut out = Vec::new();
        for layer in &self.layers {
            if let Some(idxs) = layer.by_job.get(&job_id) {
                out.extend(idxs.iter().map(|&i| &layer.records[i as usize]));
            }
        }
        out
    }

    /// All records of one epoch, in consolidation order.
    pub fn epoch_records(&self, epoch: u64) -> Vec<&ProcessRecord> {
        self.layers
            .iter()
            .filter(|l| l.epochs.binary_search(&epoch).is_ok())
            .flat_map(|l| l.records.iter())
            .filter(|r| r.epoch == epoch)
            .map(|r| &r.record)
            .collect()
    }

    /// Records passing `selection`, in commit order.
    pub fn filtered(&self, selection: &Selection) -> Vec<&ProcessRecord> {
        self.iter()
            .filter(|er| selection.matches(er.epoch, &er.record))
            .map(|er| &er.record)
            .collect()
    }

    /// Start building a filtered selection.
    pub fn select(&self) -> SnapshotSelection<'_> {
        SnapshotSelection {
            snapshot: self,
            selection: Selection::all(),
        }
    }

    /// Fuzzy-hash nearest neighbors of `hash` (an SSDeep-style
    /// `block:sig1:sig2` string) over the records' `FILE_H` column.
    /// Returns up to `k` hits scoring at least `min_score`, best first.
    ///
    /// Each layer's n-gram index prunes its candidates before the
    /// edit-distance scoring; per-layer hits merge on (score desc,
    /// corpus position asc), reproducing the monolithic scan's order
    /// exactly because the layer corpora concatenate to the monolithic
    /// corpus.
    pub fn nearest_neighbors(&self, hash: &str, k: usize, min_score: u32) -> Vec<Neighbor<'_>> {
        self.neighbor_hits(hash, k, min_score)
            .0
            .into_iter()
            .map(|(score, li, owner)| {
                let er = &self.layers[li as usize].records[owner as usize];
                Neighbor {
                    score,
                    epoch: er.epoch,
                    record: &er.record,
                }
            })
            .collect()
    }

    /// The hit list behind [`nearest_neighbors`](Self::nearest_neighbors)
    /// as owned `(score, layer, record-index)` descriptors — the form a
    /// plan cursor can park across replies without borrowing the
    /// snapshot it already pins by `Arc` — plus the number of layers
    /// whose n-gram index fell back to a full corpus scan (the
    /// `query.fuzzy_scan_fallbacks` telemetry signal).
    pub(crate) fn neighbor_hits(
        &self,
        hash: &str,
        k: usize,
        min_score: u32,
    ) -> (Vec<(u32, u32, u32)>, u64) {
        let Ok(baseline) = FuzzyHash::parse(hash) else {
            return (Vec::new(), 0);
        };
        // (score, global corpus position, layer, local record index)
        let mut hits: Vec<(u32, usize, usize, u32)> = Vec::new();
        let mut scan_fallbacks = 0u64;
        for (li, layer) in self.layers.iter().enumerate() {
            let (layer_hits, fell_back) =
                layer
                    .index
                    .search_counted(&layer.corpus, &baseline, min_score);
            scan_fallbacks += u64::from(fell_back);
            for hit in layer_hits {
                hits.push((
                    hit.score,
                    self.corpus_offsets[li] + hit.index,
                    li,
                    layer.corpus_owners[hit.index],
                ));
            }
        }
        hits.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let hits = hits
            .into_iter()
            .take(k)
            .map(|(score, _, li, owner)| (score, li as u32, owner))
            .collect();
        (hits, scan_fallbacks)
    }

    /// The layer stack (plan execution walks layers directly so
    /// epoch-slice plans can skip non-matching layers wholesale).
    pub(crate) fn layer_stack(&self) -> &[Arc<SnapshotLayer>] {
        &self.layers
    }
}

/// Fluent filter over a [`QuerySnapshot`].
#[derive(Debug)]
pub struct SnapshotSelection<'s> {
    snapshot: &'s QuerySnapshot,
    selection: Selection,
}

impl<'s> SnapshotSelection<'s> {
    /// Restrict to one host.
    pub fn host(mut self, host: &str) -> Self {
        self.selection = self.selection.host(host);
        self
    }

    /// Restrict to `start ..= end` collection timestamps.
    pub fn between(mut self, start: u64, end: u64) -> Self {
        self.selection = self.selection.between(start, end);
        self
    }

    /// Library usage over the selection (`siren-analysis` aggregation —
    /// the same computation behind the paper's library tables).
    pub fn library_usage(self) -> Vec<LibraryUsageRow> {
        library_usage(self.snapshot.filtered(&self.selection))
    }
}
