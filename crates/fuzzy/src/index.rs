//! N-gram candidate index for similarity search.
//!
//! [`similarity_search`] scores a baseline
//! against *every* corpus entry, which is O(corpus) edit-distance work
//! per query. But a nonzero score is only possible in two narrow cases
//! (see [`compare_parsed`]):
//!
//! 1. the two hashes are **identical** (block size and both raw
//!    signatures), or
//! 2. the pair of signatures compared at a common effective block size
//!    shares a 7-character substring *after* run collapsing — that is
//!    the [`has_common_substring`](crate::compare::has_common_substring)
//!    evidence gate, and 7 is [`ROLLING_WINDOW`].
//!
//! So an inverted index from `(effective block size, 7-gram)` to the
//! corpus entries containing that gram — plus a second map keyed by the
//! whole hash for the identity rule — yields a **candidate superset**:
//! every entry that could possibly score above 0 is in it, and entries
//! outside it are skipped with no string work at all. Scoring only the
//! candidates therefore returns *exactly* the full scan's hits (the
//! equivalence is property-tested in `tests/index_equivalence.rs`).
//!
//! Posting keys are folded 32-bit FNV-1a digests of the gram bytes
//! mixed with the effective block size. A digest collision merely
//! merges two posting runs, enlarging candidate sets — the superset
//! property cannot be lost, only sharpness.
//!
//! Degenerate corpora (low-entropy signatures full of repeated runs,
//! e.g. zero-padded hex) can make the grams unselective. When the
//! candidate set exceeds [`FULL_SCAN_FRACTION`] of the corpus,
//! [`FuzzyIndex::search`] falls back to the parallel full scan, which
//! is faster than probing most of the corpus one entry at a time —
//! and identical in output by construction.

use crate::batch::{similarity_search, SearchHit};
use crate::compare::{compare_parsed, eliminate_sequences};
use crate::{FuzzyHash, ROLLING_WINDOW};
use siren_hash::fnv1a64;

/// `search` falls back to the linear scan when more than
/// `1/FULL_SCAN_FRACTION` of the corpus is a candidate.
pub const FULL_SCAN_FRACTION: usize = 2;

/// Inverted n-gram index over a fuzzy-hash corpus. Built once (at
/// snapshot-layer commit time in the service tier), queried many times.
///
/// Layout: a flat, sorted posting table instead of a hash map — one
/// `(key, entry)` pair per gram occurrence, sorted and grouped at build
/// time. Building is one `sort_unstable` over a flat vector (no
/// per-key allocations, which dominated a map-based prototype), lookup
/// is a binary search per probe gram, and the whole index is three
/// dense arrays. Keys are 32-bit digest folds: two grams colliding
/// merely merges their posting runs, enlarging candidate sets, never
/// shrinking them.
#[derive(Debug, Default, Clone)]
pub struct FuzzyIndex {
    /// Distinct posting keys, ascending. Gram keys digest
    /// `(effective block size, 7-gram)`; identity keys digest the whole
    /// hash (the identity rule can fire with signatures too short to
    /// own any 7-gram). The two families share the table — a cross
    /// collision is as harmless as any other.
    keys: Vec<u32>,
    /// `postings[starts[i]..starts[i + 1]]` = ascending entry ids
    /// filed under `keys[i]`.
    starts: Vec<u32>,
    postings: Vec<u32>,
    entries: u32,
}

/// Mirror of `compare_parsed`'s block-size arithmetic: the doubled
/// block size wraps at `u32` exactly as the comparison's
/// `wrapping_mul(2)` does, so the index stays a candidate superset even
/// for hand-built hashes whose block size is outside the `3·2^i`
/// series a parse would enforce.
fn doubled(block_size: u32) -> u32 {
    block_size.wrapping_mul(2)
}

fn fold32(digest: u64) -> u32 {
    (digest ^ (digest >> 32)) as u32
}

fn gram_key(effective_block_size: u32, gram: &[u8]) -> u32 {
    let mut bytes = [0u8; 4 + ROLLING_WINDOW];
    bytes[..4].copy_from_slice(&effective_block_size.to_le_bytes());
    bytes[4..].copy_from_slice(gram);
    fold32(fnv1a64(&bytes))
}

fn exact_key(h: &FuzzyHash) -> u32 {
    // Tagged so an exact key can never equal a gram key by meaning
    // (a digest collision remains harmless either way).
    let mut bytes = Vec::with_capacity(6 + h.sig1.len() + h.sig2.len());
    bytes.push(b'=');
    bytes.extend_from_slice(&h.block_size.to_le_bytes());
    bytes.extend_from_slice(h.sig1.as_bytes());
    bytes.push(b':');
    bytes.extend_from_slice(h.sig2.as_bytes());
    fold32(fnv1a64(&bytes))
}

/// The `(effective block size, gram)` keys under which `h` must be
/// filed: its run-collapsed `sig1` represents chunking at `block_size`,
/// its run-collapsed `sig2` at double that.
fn feature_keys(h: &FuzzyHash, keys: &mut Vec<u32>) {
    keys.clear();
    for (sig, eff_bs) in [(&h.sig1, h.block_size), (&h.sig2, doubled(h.block_size))] {
        let collapsed = eliminate_sequences(sig);
        for gram in collapsed.as_bytes().windows(ROLLING_WINDOW) {
            keys.push(gram_key(eff_bs, gram));
        }
    }
}

impl FuzzyIndex {
    /// Index `corpus`. Entry ids are positions in the slice; [`search`]
    /// must be called with the same corpus.
    ///
    /// [`search`]: FuzzyIndex::search
    pub fn build(corpus: &[FuzzyHash]) -> Self {
        let entries = u32::try_from(corpus.len()).expect("corpus exceeds u32 entries");
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(corpus.len() * 8);
        let mut keys = Vec::new();
        for (i, h) in corpus.iter().enumerate() {
            let i = i as u32;
            feature_keys(h, &mut keys);
            pairs.extend(keys.iter().map(|&key| (key, i)));
            pairs.push((exact_key(h), i));
        }
        // Sort + dedup groups each key's entry ids ascending (an entry
        // repeating a gram — that is what runs are — files once).
        pairs.sort_unstable();
        pairs.dedup();

        let mut index = Self {
            keys: Vec::new(),
            starts: Vec::new(),
            postings: Vec::with_capacity(pairs.len()),
            entries,
        };
        for (key, entry) in pairs {
            if index.keys.last() != Some(&key) {
                index.keys.push(key);
                index.starts.push(index.postings.len() as u32);
            }
            index.postings.push(entry);
        }
        index.starts.push(index.postings.len() as u32);
        index
    }

    /// Entries indexed.
    pub fn len(&self) -> usize {
        self.entries as usize
    }

    /// True when the index covers no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Distinct posting keys held (an index-size diagnostic).
    pub fn gram_keys(&self) -> usize {
        self.keys.len()
    }

    /// Ascending ids of every entry that could score above 0 against
    /// `baseline` — a superset, pruned without any edit-distance work.
    ///
    /// A candidate pair must share a gram at a common effective block
    /// size. `baseline.sig1` chunks at `block_size` and `sig2` at
    /// double it, so probing those two key families covers all three
    /// comparable block-size relations (equal, half, double); the exact
    /// map covers the identity rule.
    pub fn candidates(&self, baseline: &FuzzyHash) -> Vec<u32> {
        let mut keys = Vec::new();
        feature_keys(baseline, &mut keys);
        keys.push(exact_key(baseline));
        keys.sort_unstable();
        keys.dedup();
        let mut out: Vec<u32> = Vec::new();
        for key in keys {
            if let Ok(pos) = self.keys.binary_search(&key) {
                let (lo, hi) = (self.starts[pos] as usize, self.starts[pos + 1] as usize);
                out.extend_from_slice(&self.postings[lo..hi]);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Exactly [`similarity_search`]'s hits — same scores, same order —
    /// scoring only the candidate set (or falling back to the parallel
    /// full scan when the candidates are no real pruning; either path
    /// returns identical results).
    ///
    /// `corpus` must be the slice the index was built over.
    pub fn search(
        &self,
        corpus: &[FuzzyHash],
        baseline: &FuzzyHash,
        min_score: u32,
    ) -> Vec<SearchHit> {
        self.search_counted(corpus, baseline, min_score).0
    }

    /// [`search`](Self::search), also reporting whether the index gave
    /// up on pruning and fell back to the parallel full scan — the
    /// telemetry signal that a corpus has grown too gram-dense for the
    /// index to pay for itself.
    pub fn search_counted(
        &self,
        corpus: &[FuzzyHash],
        baseline: &FuzzyHash,
        min_score: u32,
    ) -> (Vec<SearchHit>, bool) {
        assert_eq!(
            corpus.len(),
            self.len(),
            "index was built over a different corpus"
        );
        let candidates = self.candidates(baseline);
        if candidates.len() * FULL_SCAN_FRACTION >= corpus.len() {
            return (similarity_search(baseline, corpus, min_score), true);
        }
        let mut hits: Vec<SearchHit> = candidates
            .into_iter()
            .filter_map(|i| {
                let index = i as usize;
                let score = compare_parsed(baseline, &corpus[index]);
                (score >= min_score && score > 0).then_some(SearchHit { index, score })
            })
            .collect();
        // Candidates are scored in ascending id order, so the stable
        // sort reproduces the scan's (score desc, index asc) order.
        hits.sort_by_key(|hit| std::cmp::Reverse(hit.score));
        (hits, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzzy_hash;

    fn family_corpus() -> Vec<FuzzyHash> {
        let base: Vec<u8> = (0..10_000u32).map(|i| (i * 17 % 251) as u8).collect();
        let mut out = vec![fuzzy_hash(&base)];
        for k in 1..4u8 {
            let mut v = base.clone();
            for b in v.iter_mut().skip(1000 * k as usize).take(40) {
                *b ^= k;
            }
            out.push(fuzzy_hash(&v));
        }
        for seed in [7u32, 8, 9] {
            let unrelated: Vec<u8> = (0..10_000u32)
                .map(|i| ((i * 31 + seed * 1013) % 247) as u8)
                .collect();
            out.push(fuzzy_hash(&unrelated));
        }
        out
    }

    #[test]
    fn indexed_search_equals_linear_scan() {
        let corpus = family_corpus();
        let index = FuzzyIndex::build(&corpus);
        for baseline in &corpus {
            for min_score in [0, 1, 50, 90, 101] {
                assert_eq!(
                    index.search(&corpus, baseline, min_score),
                    similarity_search(baseline, &corpus, min_score),
                    "baseline {baseline} min_score {min_score}"
                );
            }
        }
    }

    #[test]
    fn candidates_cover_every_scoring_entry() {
        let corpus = family_corpus();
        let index = FuzzyIndex::build(&corpus);
        for baseline in &corpus {
            let candidates = index.candidates(baseline);
            for (i, h) in corpus.iter().enumerate() {
                if compare_parsed(baseline, h) > 0 {
                    assert!(
                        candidates.binary_search(&(i as u32)).is_ok(),
                        "entry {i} scores but is not a candidate"
                    );
                }
            }
        }
    }

    #[test]
    fn identity_rule_found_without_grams() {
        // Signatures too short for any 7-gram can only match by
        // identity; the exact map must surface them.
        let short = FuzzyHash::parse("3:abc:de").unwrap();
        let other = FuzzyHash::parse("3:xyz:uv").unwrap();
        let corpus = vec![other, short.clone()];
        let index = FuzzyIndex::build(&corpus);
        let hits = index.search(&corpus, &short, 1);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].index, 1);
        assert_eq!(hits[0].score, 100);
    }

    #[test]
    fn empty_corpus_and_empty_signatures() {
        let index = FuzzyIndex::build(&[]);
        assert!(index.is_empty());
        let probe = FuzzyHash::parse("3:ABCDEFGH:").unwrap();
        assert!(index.search(&[], &probe, 0).is_empty());

        let blank = FuzzyHash::parse("3::").unwrap();
        let corpus = vec![blank.clone()];
        let index = FuzzyIndex::build(&corpus);
        // Two blank hashes score 0 (the identity rule requires a
        // non-empty sig1), exactly as the scan says.
        assert_eq!(
            index.search(&corpus, &blank, 0),
            similarity_search(&blank, &corpus, 0)
        );
    }

    #[test]
    fn run_collapsed_grams_still_match() {
        // Long runs collapse before gram extraction on both sides, so a
        // low-entropy pair must still be a candidate of each other.
        let a = FuzzyHash::parse("96:0000000000000516RSTUVWX:000").unwrap();
        let b = FuzzyHash::parse("96:000516RSTUVWXnnnnnnnn:111").unwrap();
        let corpus = vec![b.clone()];
        let index = FuzzyIndex::build(&corpus);
        assert_eq!(
            index.search(&corpus, &a, 0),
            similarity_search(&a, &corpus, 0)
        );
        assert_eq!(index.candidates(&a), vec![0]);
    }
}
