//! Unsupervised software-family clustering via fuzzy-hash similarity.
//!
//! The paper derives software labels from path names (Table 5) and uses
//! similarity search to place one unknown at a time (Table 7). The
//! natural generalization — and the direction the paper's HPC-application
//! classification companion work \[22\] points to — is *clustering*: build
//! the similarity graph over all distinct binaries (edges where
//! `FILE_H` similarity ≥ threshold) and take connected components as
//! software families, with no path information at all.
//!
//! Implemented as union-find over the pairwise comparisons (block-size
//! pruning makes this cheap: incompatible block sizes never compare).
//! [`clustering_quality`] scores components against ground-truth labels
//! (purity and recall of same-family pairs), quantifying how much family
//! structure fuzzy hashing alone recovers.

use crate::labels::{Labeler, UNKNOWN_LABEL};
use crate::render::render_table;
use crate::{category_of, RecordCategory};
use siren_consolidate::ProcessRecord;
use siren_fuzzy::{compare_parsed, FuzzyHash};
use std::collections::HashMap;

/// Disjoint-set forest with path compression and union by size.
#[derive(Debug)]
pub struct UnionFind {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
            size: vec![1; n],
        }
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merge the sets containing `a` and `b`.
    pub fn union(&mut self, a: usize, b: usize) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra;
        self.size[ra] += self.size[rb];
    }
}

/// One distinct binary in the clustering input.
#[derive(Debug, Clone)]
pub struct BinaryNode {
    /// `FILE_H` of the binary.
    pub file_hash: String,
    /// Parsed form (for comparison).
    pub parsed: FuzzyHash,
    /// Ground-truth label (path-derived; `UNKNOWN` for nondescript paths).
    pub truth: String,
}

/// A clustering of distinct binaries.
#[derive(Debug)]
pub struct Clustering {
    /// The nodes (one per distinct `FILE_H`).
    pub nodes: Vec<BinaryNode>,
    /// Cluster id per node (dense, 0-based).
    pub assignment: Vec<usize>,
    /// Number of clusters.
    pub n_clusters: usize,
    /// Similarity threshold used.
    pub threshold: u32,
}

/// Collect distinct binaries from user-directory records and cluster them
/// by fuzzy similarity ≥ `threshold`.
pub fn cluster_binaries(
    records: &[ProcessRecord],
    labeler: &Labeler,
    threshold: u32,
) -> Clustering {
    let mut nodes: Vec<BinaryNode> = Vec::new();
    let mut seen: HashMap<String, ()> = HashMap::new();
    for rec in records {
        if category_of(rec) != RecordCategory::User {
            continue;
        }
        let (Some(path), Some(fh)) = (rec.exe_path(), rec.file_hash.as_ref()) else {
            continue;
        };
        if seen.insert(fh.clone(), ()).is_some() {
            continue;
        }
        let Ok(parsed) = FuzzyHash::parse(fh) else {
            continue;
        };
        nodes.push(BinaryNode {
            file_hash: fh.clone(),
            parsed,
            truth: labeler.label(path).to_string(),
        });
    }

    let mut uf = UnionFind::new(nodes.len());
    for i in 0..nodes.len() {
        for j in (i + 1)..nodes.len() {
            // Block-size pruning: incomparable hashes can never reach any
            // positive threshold.
            let (a, b) = (nodes[i].parsed.block_size, nodes[j].parsed.block_size);
            if a != b && a != b.wrapping_mul(2) && b != a.wrapping_mul(2) {
                continue;
            }
            if compare_parsed(&nodes[i].parsed, &nodes[j].parsed) >= threshold {
                uf.union(i, j);
            }
        }
    }

    // Dense cluster ids.
    let mut dense: HashMap<usize, usize> = HashMap::new();
    let mut assignment = Vec::with_capacity(nodes.len());
    for i in 0..nodes.len() {
        let root = uf.find(i);
        let next = dense.len();
        let id = *dense.entry(root).or_insert(next);
        assignment.push(id);
    }

    Clustering {
        nodes,
        assignment,
        n_clusters: dense.len(),
        threshold,
    }
}

/// Quality of a clustering against ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterQuality {
    /// Distinct binaries clustered.
    pub binaries: usize,
    /// Clusters produced.
    pub clusters: usize,
    /// Weighted purity: fraction of binaries whose cluster's majority
    /// label equals their own label.
    pub purity: f64,
    /// Same-label binary pairs placed in the same cluster.
    pub pair_recall: f64,
    /// Different-label binary pairs incorrectly co-clustered.
    pub pair_false_merges: u64,
}

/// Score `clustering` against its nodes' ground-truth labels. UNKNOWN
/// nodes participate in clustering but are excluded from truth pairs
/// (they have no ground truth by definition).
pub fn clustering_quality(clustering: &Clustering) -> ClusterQuality {
    let n = clustering.nodes.len();

    // Majority label per cluster.
    let mut label_counts: HashMap<usize, HashMap<&str, usize>> = HashMap::new();
    for (i, node) in clustering.nodes.iter().enumerate() {
        *label_counts
            .entry(clustering.assignment[i])
            .or_default()
            .entry(node.truth.as_str())
            .or_insert(0) += 1;
    }
    let majority: HashMap<usize, &str> = label_counts
        .iter()
        .map(|(c, counts)| {
            let label = counts
                .iter()
                .max_by_key(|(_, n)| **n)
                .map(|(l, _)| *l)
                .unwrap_or("");
            (*c, label)
        })
        .collect();

    let pure = clustering
        .nodes
        .iter()
        .enumerate()
        .filter(|(i, node)| majority[&clustering.assignment[*i]] == node.truth)
        .count();

    let mut same_pairs = 0u64;
    let mut same_recovered = 0u64;
    let mut false_merges = 0u64;
    for i in 0..n {
        if clustering.nodes[i].truth == UNKNOWN_LABEL {
            continue;
        }
        for j in (i + 1)..n {
            if clustering.nodes[j].truth == UNKNOWN_LABEL {
                continue;
            }
            let same_truth = clustering.nodes[i].truth == clustering.nodes[j].truth;
            let same_cluster = clustering.assignment[i] == clustering.assignment[j];
            if same_truth {
                same_pairs += 1;
                same_recovered += u64::from(same_cluster);
            } else if same_cluster {
                false_merges += 1;
            }
        }
    }

    ClusterQuality {
        binaries: n,
        clusters: clustering.n_clusters,
        purity: if n == 0 { 0.0 } else { pure as f64 / n as f64 },
        pair_recall: if same_pairs == 0 {
            0.0
        } else {
            same_recovered as f64 / same_pairs as f64
        },
        pair_false_merges: false_merges,
    }
}

/// Render a clustering-quality report.
pub fn render_clusters(q: &ClusterQuality, threshold: u32) -> String {
    render_table(
        &format!("Unsupervised binary clustering (fuzzy threshold {threshold})"),
        &["Metric", "Value"],
        &[
            vec!["distinct binaries".into(), q.binaries.to_string()],
            vec!["clusters".into(), q.clusters.to_string()],
            vec!["purity".into(), format!("{:.1}%", 100.0 * q.purity)],
            vec![
                "same-family pair recall".into(),
                format!("{:.1}%", 100.0 * q.pair_recall),
            ],
            vec!["false merges".into(), q.pair_false_merges.to_string()],
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::record;
    use siren_fuzzy::fuzzy_hash;

    fn family(seed: u64, n: usize) -> Vec<String> {
        // n variants of one base content: contiguous region rewritten.
        let mut x = seed | 1;
        let base: Vec<u8> = (0..20_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect();
        (0..n)
            .map(|i| {
                let mut v = base.clone();
                for b in v.iter_mut().skip(i * 512).take(600) {
                    *b ^= 0x77;
                }
                fuzzy_hash(&v).to_string_repr()
            })
            .collect()
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert_ne!(uf.find(0), uf.find(1));
        uf.union(0, 1);
        uf.union(1, 2);
        assert_eq!(uf.find(0), uf.find(2));
        assert_ne!(uf.find(0), uf.find(3));
        uf.union(0, 0); // self-union is a no-op
        assert_eq!(uf.find(0), uf.find(1));
    }

    #[test]
    fn families_cluster_apart() {
        let labeler = Labeler::default();
        let mut records = Vec::new();
        for (i, fh) in family(1, 3).iter().enumerate() {
            records.push(record(
                i as u64,
                i as u32,
                "u",
                "/users/u/icon-model/bin/icon",
                Some(fh),
                None,
                None,
                i as u64,
            ));
        }
        for (i, fh) in family(0xDEAD_BEEF, 3).iter().enumerate() {
            records.push(record(
                10 + i as u64,
                10 + i as u32,
                "u",
                "/users/u/lammps/bin/lmp",
                Some(fh),
                None,
                None,
                10 + i as u64,
            ));
        }
        let clustering = cluster_binaries(&records, &labeler, 40);
        assert_eq!(clustering.nodes.len(), 6);
        let q = clustering_quality(&clustering);
        assert_eq!(q.pair_false_merges, 0, "families must not merge");
        assert!(q.purity > 0.99);
        assert!(q.pair_recall > 0.5, "recall {}", q.pair_recall);
        assert!(clustering.n_clusters >= 2);
    }

    #[test]
    fn duplicate_hashes_deduplicated() {
        let labeler = Labeler::default();
        let fh = family(5, 1).remove(0);
        let records = vec![
            record(1, 1, "u", "/users/u/app1", Some(&fh), None, None, 1),
            record(2, 2, "u", "/users/u/app2", Some(&fh), None, None, 2),
        ];
        let clustering = cluster_binaries(&records, &labeler, 60);
        assert_eq!(clustering.nodes.len(), 1);
    }

    #[test]
    fn empty_input() {
        let labeler = Labeler::default();
        let clustering = cluster_binaries(&[], &labeler, 60);
        assert_eq!(clustering.n_clusters, 0);
        let q = clustering_quality(&clustering);
        assert_eq!(q.binaries, 0);
        assert!(render_clusters(&q, 60).contains("clusters"));
    }
}
