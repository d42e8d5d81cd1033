//! Table 6 — compiler information of applications in user directories.
//!
//! Raw `.comment` strings are normalized to the paper's
//! `Name [Provenance]` display form (`GCC: (SUSE Linux) 13.2.1` →
//! `GCC [SUSE]`), then grouped by the *combination* present in each
//! executable: "if the application executable is built from dependencies
//! with different parts compiled by different compiler versions, this may
//! result in a list of compilers".

use crate::render::{group_digits, render_table};
use crate::{category_of, RecordCategory};
use siren_consolidate::ProcessRecord;
use std::collections::{BTreeSet, HashMap, HashSet};

/// Normalize one `.comment` string into `Name [Provenance]` form.
/// Unrecognized strings pass through verbatim (novel toolchains must
/// surface, not vanish — that is the §4.3 point about Rust and conda).
pub fn normalize_compiler(comment: &str) -> String {
    let c = comment;
    if c.contains("rustc") {
        return "rustc".to_string();
    }
    if c.contains("LLD") {
        return "LLD [AMD]".to_string();
    }
    if c.contains("AMD clang") {
        return "clang [AMD]".to_string();
    }
    if c.contains("clang") && c.contains("Cray") {
        return "clang [Cray]".to_string();
    }
    if c.starts_with("GCC") {
        if c.contains("SUSE") {
            return "GCC [SUSE]".to_string();
        }
        if c.contains("Red Hat") {
            return "GCC [Red Hat]".to_string();
        }
        if c.contains("conda") {
            return "GCC [conda]".to_string();
        }
        if c.contains("HPE") {
            return "GCC [HPE]".to_string();
        }
        return "GCC [unknown]".to_string();
    }
    c.to_string()
}

/// The normalized, deduplicated, order-preserving compiler combination of
/// one record.
pub fn compiler_combo(rec: &ProcessRecord) -> Option<Vec<String>> {
    let list = rec.compilers.as_ref()?;
    let mut seen = BTreeSet::new();
    let mut combo = Vec::new();
    for raw in list {
        let norm = normalize_compiler(raw);
        if seen.insert(norm.clone()) {
            combo.push(norm);
        }
    }
    Some(combo)
}

/// One Table-6 row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompilerRow {
    /// The compiler combination (display order as collected).
    pub combo: Vec<String>,
    /// Distinct users.
    pub unique_users: u64,
    /// Jobs.
    pub job_count: u64,
    /// Processes.
    pub process_count: u64,
    /// Distinct binaries.
    pub unique_file_h: u64,
}

/// Compute Table 6 over user-directory records. Sorted by descending
/// users, jobs, processes, distinct binaries; ties by combination.
pub fn compiler_table(records: &[ProcessRecord]) -> Vec<CompilerRow> {
    struct Acc {
        users: HashSet<String>,
        jobs: HashSet<u64>,
        procs: u64,
        hashes: HashSet<String>,
    }
    let mut by_combo: HashMap<Vec<String>, Acc> = HashMap::new();

    for rec in records {
        if category_of(rec) != RecordCategory::User {
            continue;
        }
        let Some(combo) = compiler_combo(rec) else {
            continue;
        };
        if combo.is_empty() {
            continue;
        }
        let acc = by_combo.entry(combo).or_insert_with(|| Acc {
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

    let mut rows: Vec<CompilerRow> = by_combo
        .into_iter()
        .map(|(combo, acc)| CompilerRow {
            combo,
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
            .then_with(|| a.combo.cmp(&b.combo))
    });
    rows
}

/// Render Table 6.
pub fn render_compilers(rows: &[CompilerRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.combo.join(", "),
                r.unique_users.to_string(),
                group_digits(r.job_count),
                group_digits(r.process_count),
                r.unique_file_h.to_string(),
            ]
        })
        .collect();
    render_table(
        "Table 6: Compiler information of applications in user directories",
        &[
            "Compiler Name [Provenance]",
            "Users",
            "Jobs",
            "Processes",
            "Unique FILE_H",
        ],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::record;

    #[test]
    fn normalization_covers_paper_provenances() {
        assert_eq!(
            normalize_compiler("GCC: (SUSE Linux) 13.2.1 20240206"),
            "GCC [SUSE]"
        );
        assert_eq!(
            normalize_compiler("GCC: (GNU) 8.5.0 (Red Hat 8.5.0-18)"),
            "GCC [Red Hat]"
        );
        assert_eq!(
            normalize_compiler("GCC: (conda-forge gcc 12.3.0-3) 12.3.0"),
            "GCC [conda]"
        );
        assert_eq!(
            normalize_compiler("GCC: (HPE) 12.2.0 20230601"),
            "GCC [HPE]"
        );
        assert_eq!(
            normalize_compiler("LLD 17.0.0 [AMD ROCm 5.6.1]"),
            "LLD [AMD]"
        );
        assert_eq!(
            normalize_compiler("clang version 16.0.1 (Cray Inc.)"),
            "clang [Cray]"
        );
        assert_eq!(
            normalize_compiler("AMD clang version 16.0.0 (roc-5.6.1)"),
            "clang [AMD]"
        );
        assert_eq!(normalize_compiler("rustc version 1.74.0"), "rustc");
        assert_eq!(normalize_compiler("GCC: (Gentoo) 14"), "GCC [unknown]");
        assert_eq!(normalize_compiler("tcc 0.9.27"), "tcc 0.9.27"); // pass-through
    }

    #[test]
    fn combos_group_and_dedup() {
        let rec1 = record(
            1,
            1,
            "u",
            "/users/u/a",
            Some("3:a:b"),
            None,
            Some(vec![
                "GCC: (SUSE Linux) 13.2.1",
                "clang version 16.0.1 (Cray Inc.)",
            ]),
            1,
        );
        let combo = compiler_combo(&rec1).unwrap();
        assert_eq!(combo, vec!["GCC [SUSE]", "clang [Cray]"]);

        // Duplicate comments collapse.
        let rec2 = record(
            1,
            2,
            "u",
            "/users/u/b",
            None,
            None,
            Some(vec!["GCC: (SUSE Linux) 13.2.1", "GCC: (SUSE Linux) 13.2.0"]),
            1,
        );
        assert_eq!(compiler_combo(&rec2).unwrap(), vec!["GCC [SUSE]"]);
    }

    #[test]
    fn table6_aggregates() {
        let mk = |job, pid, user: &str, fh: &str, comps: Vec<&'static str>| {
            record(
                job,
                pid,
                user,
                "/users/u/app",
                Some(fh),
                None,
                Some(comps),
                job,
            )
        };
        let records = vec![
            mk(1, 1, "a", "3:x:1", vec!["GCC: (SUSE Linux) 13"]),
            mk(2, 2, "b", "3:x:2", vec!["GCC: (SUSE Linux) 13"]),
            mk(3, 3, "a", "3:x:3", vec!["LLD 17.0.0 [AMD ROCm]"]),
        ];
        let rows = compiler_table(&records);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].combo, vec!["GCC [SUSE]"]);
        assert_eq!(rows[0].unique_users, 2);
        assert_eq!(rows[0].unique_file_h, 2);
    }

    #[test]
    fn tied_rows_order_by_combo() {
        // One user, job, process and FILE_H each: tied on every count.
        let records = vec![
            record(
                1,
                1,
                "a",
                "/users/a/x",
                Some("3:x:1"),
                None,
                Some(vec!["rustc version 1"]),
                1,
            ),
            record(
                2,
                2,
                "b",
                "/users/b/y",
                Some("3:x:2"),
                None,
                Some(vec!["GCC: (HPE) 12"]),
                2,
            ),
        ];
        let rows = compiler_table(&records);
        assert_eq!(rows[0].combo, vec!["GCC [HPE]"]);
        assert_eq!(rows[1].combo, vec!["rustc"]);
        let first = render_compilers(&rows);
        for _ in 0..32 {
            assert_eq!(render_compilers(&compiler_table(&records)), first);
        }
    }

    #[test]
    fn system_records_excluded() {
        let rec = record(
            1,
            1,
            "u",
            "/usr/bin/rm",
            None,
            None,
            Some(vec!["GCC: (SUSE) 1"]),
            1,
        );
        assert!(compiler_table(&[rec]).is_empty());
    }
}
