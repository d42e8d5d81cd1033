//! Table 5 — derived software labels for user applications.
//!
//! "System operators can often deduce to which software an executable
//! belongs based on file or path names by using regular expressions to
//! match with known software names" (§4.3). Executables matching no rule
//! are labeled `UNKNOWN` — the starting point of the Table 7 similarity
//! search.

use crate::render::{group_digits, render_table};
use crate::{category_of, RecordCategory};
use siren_consolidate::ProcessRecord;
use siren_text::RuleSet;
use std::collections::{HashMap, HashSet};

/// Label applied when no rule matches.
pub const UNKNOWN_LABEL: &str = "UNKNOWN";

/// The default rule list for the simulated deployment's software
/// population (ordered; first match wins; case-insensitive).
pub fn default_label_rules() -> RuleSet {
    RuleSet::new(&[
        ("LAMMPS", r"lmp|lammps"),
        ("GROMACS", r"gmx|gromacs"),
        ("miniconda", r"conda"),
        ("janko", r"janko"),
        ("icon", r"icon"),
        ("amber", r"amber|pmemd|sander"),
        ("gzip", r"gzip"),
        ("alexandria", r"alexandria"),
        ("RadRad", r"radrad"),
    ])
    .expect("default rules compile")
}

/// A path → label classifier.
pub struct Labeler {
    rules: RuleSet,
}

impl Default for Labeler {
    fn default() -> Self {
        Self {
            rules: default_label_rules(),
        }
    }
}

impl Labeler {
    /// Labeler with custom rules.
    pub fn new(rules: RuleSet) -> Self {
        Self { rules }
    }

    /// Label one executable path.
    pub fn label(&self, exe_path: &str) -> &str {
        self.rules.first_match(exe_path).unwrap_or(UNKNOWN_LABEL)
    }
}

/// One Table-5 row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelRow {
    /// Derived software label.
    pub label: String,
    /// Distinct users.
    pub unique_users: u64,
    /// Jobs containing at least one process of this software.
    pub job_count: u64,
    /// Processes.
    pub process_count: u64,
    /// Distinct `FILE_H` values (distinct binaries).
    pub unique_file_h: u64,
}

/// Compute Table 5 over user-directory records. Sorted like the paper:
/// descending users, jobs, processes, FILE_H; ties by label.
pub fn label_table(records: &[ProcessRecord], labeler: &Labeler) -> Vec<LabelRow> {
    struct Acc {
        users: HashSet<String>,
        jobs: HashSet<u64>,
        procs: u64,
        hashes: HashSet<String>,
    }
    let mut by_label: HashMap<String, Acc> = HashMap::new();

    for rec in records {
        if category_of(rec) != RecordCategory::User {
            continue;
        }
        let Some(path) = rec.exe_path() else { continue };
        let label = labeler.label(path).to_string();
        let acc = by_label.entry(label).or_insert_with(|| Acc {
            users: HashSet::new(),
            jobs: HashSet::new(),
            procs: 0,
            hashes: HashSet::new(),
        });
        if let Some(u) = rec.user() {
            acc.users.insert(u.to_string());
        }
        acc.jobs.insert(rec.key.job_id);
        acc.procs += 1;
        if let Some(h) = &rec.file_hash {
            acc.hashes.insert(h.clone());
        }
    }

    let mut rows: Vec<LabelRow> = by_label
        .into_iter()
        .map(|(label, acc)| LabelRow {
            label,
            unique_users: acc.users.len() as u64,
            job_count: acc.jobs.len() as u64,
            process_count: acc.procs,
            unique_file_h: acc.hashes.len() as u64,
        })
        .collect();
    rows.sort_by(|a, b| {
        (
            b.unique_users,
            b.job_count,
            b.process_count,
            b.unique_file_h,
        )
            .cmp(&(
                a.unique_users,
                a.job_count,
                a.process_count,
                a.unique_file_h,
            ))
            .then_with(|| a.label.cmp(&b.label))
    });
    rows
}

/// Render Table 5.
pub fn render_labels(rows: &[LabelRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                r.unique_users.to_string(),
                group_digits(r.job_count),
                group_digits(r.process_count),
                r.unique_file_h.to_string(),
            ]
        })
        .collect();
    render_table(
        "Table 5: Derived labels for user applications",
        &["Software", "Users", "Jobs", "Processes", "Unique FILE_H"],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::record;

    #[test]
    fn labeler_matches_paths() {
        let l = Labeler::default();
        assert_eq!(l.label("/users/u2/lammps/build/lmp"), "LAMMPS");
        assert_eq!(l.label("/users/u8/gromacs-2024/bin/gmx_mpi"), "GROMACS");
        assert_eq!(l.label("/users/u2/miniconda3/bin/python3.11"), "miniconda");
        assert_eq!(l.label("/users/u4/icon-model/build_3/bin/icon"), "icon");
        assert_eq!(l.label("/users/u10/amber22/bin/pmemd.hip"), "amber");
        assert_eq!(l.label("/users/u2/tools/gzip-1.13/bin/gzip"), "gzip");
        assert_eq!(
            l.label("/scratch/project_462000123/run_0/a.out"),
            UNKNOWN_LABEL
        );
    }

    #[test]
    fn table5_aggregates_per_label() {
        let l = Labeler::default();
        let records = vec![
            record(
                1,
                1,
                "user_2",
                "/users/user_2/lammps/build/lmp",
                Some("3:a:b"),
                None,
                None,
                1,
            ),
            record(
                2,
                2,
                "user_2",
                "/users/user_2/lammps/build/lmp",
                Some("3:a:b"),
                None,
                None,
                2,
            ),
            record(
                3,
                3,
                "user_3",
                "/users/user_3/lammps/build/lmp",
                Some("3:c:d"),
                None,
                None,
                3,
            ),
            record(
                4,
                4,
                "user_4",
                "/scratch/p/a.out",
                Some("3:e:f"),
                None,
                None,
                4,
            ),
            // System record must be ignored.
            record(5, 5, "user_1", "/usr/bin/rm", None, None, None, 5),
        ];
        let rows = label_table(&records, &l);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].label, "LAMMPS");
        assert_eq!(rows[0].unique_users, 2);
        assert_eq!(rows[0].job_count, 3);
        assert_eq!(rows[0].process_count, 3);
        assert_eq!(rows[0].unique_file_h, 2);
        assert_eq!(rows[1].label, UNKNOWN_LABEL);
        assert_eq!(rows[1].process_count, 1);
    }

    #[test]
    fn tied_rows_order_by_label() {
        let l = Labeler::default();
        // One user, job, process and FILE_H each: tied on every count.
        let records = vec![
            record(
                1,
                1,
                "a",
                "/users/a/lammps/build/lmp",
                Some("3:a:b"),
                None,
                None,
                1,
            ),
            record(
                2,
                2,
                "b",
                "/users/b/gromacs/bin/gmx",
                Some("3:c:d"),
                None,
                None,
                2,
            ),
        ];
        let rows = label_table(&records, &l);
        assert_eq!(rows[0].label, "GROMACS");
        assert_eq!(rows[1].label, "LAMMPS");
        let first = render_labels(&rows);
        for _ in 0..32 {
            assert_eq!(render_labels(&label_table(&records, &l)), first);
        }
    }

    #[test]
    fn rule_order_wins() {
        // A path matching both "conda" and "icon" takes the earlier rule.
        let l = Labeler::default();
        assert_eq!(l.label("/users/x/miniconda3/icon-tool"), "miniconda");
    }

    #[test]
    fn render_contains_labels() {
        let l = Labeler::default();
        let records = vec![record(
            1,
            1,
            "u",
            "/users/u/janko/bin/janko",
            Some("3:a:b"),
            None,
            None,
            1,
        )];
        let out = render_labels(&label_table(&records, &l));
        assert!(out.contains("janko"));
    }
}
