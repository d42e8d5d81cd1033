//! Recognition of repeated executions — the abstract's second promise:
//!
//! > …identification of unknown software and **recognition of repeated
//! > executions**, which facilitate system optimization and security
//! > improvements.
//!
//! Repeated executions of the *same binary* are recognized by `FILE_H`
//! equality (exact fuzzy-hash match ⇒ effectively identical file, §4.3);
//! repeated executions of the *same application in a different build* are
//! recognized by high-but-imperfect similarity. This module produces the
//! per-binary execution history that downstream use cases (performance-
//! variability studies over "repetitive job behavior" \[14\], energy
//! prediction \[36\]) consume.

use crate::render::{group_digits, render_table};
use crate::{category_of, RecordCategory};
use siren_consolidate::ProcessRecord;
use std::collections::{HashMap, HashSet};

/// Execution history of one distinct binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecurrenceRow {
    /// `FILE_H` of the binary.
    pub file_hash: String,
    /// Representative executable path (first observed).
    pub example_path: String,
    /// Total executions (process observations).
    pub executions: u64,
    /// Distinct jobs it ran in.
    pub jobs: u64,
    /// Distinct users who ran it.
    pub users: u64,
    /// Distinct paths it was observed under (copies of one binary in
    /// several locations — the paper notes this explicitly).
    pub paths: u64,
    /// First observation timestamp.
    pub first_seen: u64,
    /// Last observation timestamp.
    pub last_seen: u64,
}

impl RecurrenceRow {
    /// Is this binary *recurrent* (executed in more than one job)?
    pub fn is_recurrent(&self) -> bool {
        self.jobs > 1
    }
}

/// Build the execution history for every distinct user-directory binary.
/// Sorted by executions descending (ties by first-seen, hash).
pub fn recurrence_table(records: &[ProcessRecord]) -> Vec<RecurrenceRow> {
    struct Acc {
        example_path: String,
        executions: u64,
        jobs: HashSet<u64>,
        users: HashSet<String>,
        paths: HashSet<String>,
        first_seen: u64,
        last_seen: u64,
    }
    let mut by_hash: HashMap<String, Acc> = HashMap::new();

    for rec in records {
        if category_of(rec) != RecordCategory::User {
            continue;
        }
        let (Some(path), Some(fh)) = (rec.exe_path(), rec.file_hash.clone()) else {
            continue;
        };
        let acc = by_hash.entry(fh).or_insert_with(|| Acc {
            example_path: path.to_string(),
            executions: 0,
            jobs: HashSet::new(),
            users: HashSet::new(),
            paths: HashSet::new(),
            first_seen: u64::MAX,
            last_seen: 0,
        });
        acc.executions += 1;
        acc.jobs.insert(rec.key.job_id);
        if let Some(u) = rec.user() {
            acc.users.insert(u.to_string());
        }
        acc.paths.insert(path.to_string());
        acc.first_seen = acc.first_seen.min(rec.key.time);
        acc.last_seen = acc.last_seen.max(rec.key.time);
    }

    let mut rows: Vec<RecurrenceRow> = by_hash
        .into_iter()
        .map(|(file_hash, acc)| RecurrenceRow {
            file_hash,
            example_path: acc.example_path,
            executions: acc.executions,
            jobs: acc.jobs.len() as u64,
            users: acc.users.len() as u64,
            paths: acc.paths.len() as u64,
            first_seen: acc.first_seen,
            last_seen: acc.last_seen,
        })
        .collect();
    rows.sort_by(|a, b| {
        (b.executions, a.first_seen, &a.file_hash).cmp(&(a.executions, b.first_seen, &b.file_hash))
    });
    rows
}

/// Summary statistics over a recurrence table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecurrenceSummary {
    /// Distinct binaries observed.
    pub distinct_binaries: u64,
    /// Binaries executed in more than one job.
    pub recurrent_binaries: u64,
    /// Binaries observed under more than one path (copies).
    pub multi_path_binaries: u64,
    /// Total executions covered by recurrent binaries.
    pub recurrent_executions: u64,
}

/// Summarize a recurrence table.
pub fn recurrence_summary(rows: &[RecurrenceRow]) -> RecurrenceSummary {
    RecurrenceSummary {
        distinct_binaries: rows.len() as u64,
        recurrent_binaries: rows.iter().filter(|r| r.is_recurrent()).count() as u64,
        multi_path_binaries: rows.iter().filter(|r| r.paths > 1).count() as u64,
        recurrent_executions: rows
            .iter()
            .filter(|r| r.is_recurrent())
            .map(|r| r.executions)
            .sum(),
    }
}

/// Render the top-`n` recurrence rows plus the summary.
pub fn render_recurrence(rows: &[RecurrenceRow], n: usize) -> String {
    let summary = recurrence_summary(rows);
    let body: Vec<Vec<String>> = rows
        .iter()
        .take(n)
        .map(|r| {
            vec![
                r.example_path.clone(),
                group_digits(r.executions),
                group_digits(r.jobs),
                r.users.to_string(),
                r.paths.to_string(),
                format!("{}", r.last_seen.saturating_sub(r.first_seen) / 86_400),
            ]
        })
        .collect();
    format!(
        "{}\nsummary: {} distinct binaries, {} recurrent (≥2 jobs), {} under multiple paths, {} recurrent executions\n",
        render_table(
            &format!("Repeated-execution recognition (top {n} binaries)"),
            &["Example path", "Execs", "Jobs", "Users", "Paths", "Span (days)"],
            &body,
        ),
        summary.distinct_binaries,
        summary.recurrent_binaries,
        summary.multi_path_binaries,
        summary.recurrent_executions,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::record;

    #[test]
    fn repeated_executions_recognized_by_file_hash() {
        let records = vec![
            record(
                1,
                1,
                "a",
                "/users/a/app/bin/x",
                Some("3:f:1"),
                None,
                None,
                100,
            ),
            record(
                2,
                2,
                "a",
                "/users/a/app/bin/x",
                Some("3:f:1"),
                None,
                None,
                200,
            ),
            record(3, 3, "b", "/users/b/copy/x", Some("3:f:1"), None, None, 300),
            record(
                4,
                4,
                "a",
                "/users/a/app/bin/y",
                Some("3:f:2"),
                None,
                None,
                150,
            ),
        ];
        let rows = recurrence_table(&records);
        assert_eq!(rows.len(), 2);
        let top = &rows[0];
        assert_eq!(top.file_hash, "3:f:1");
        assert_eq!(top.executions, 3);
        assert_eq!(top.jobs, 3);
        assert_eq!(top.users, 2);
        assert_eq!(top.paths, 2, "same binary under two paths");
        assert_eq!((top.first_seen, top.last_seen), (100, 300));
        assert!(top.is_recurrent());
        assert!(!rows[1].is_recurrent());
    }

    #[test]
    fn summary_counts() {
        let records = vec![
            record(1, 1, "a", "/users/a/x", Some("3:f:1"), None, None, 1),
            record(2, 2, "a", "/users/a/x", Some("3:f:1"), None, None, 2),
            record(3, 3, "a", "/users/a/y", Some("3:f:2"), None, None, 3),
        ];
        let s = recurrence_summary(&recurrence_table(&records));
        assert_eq!(s.distinct_binaries, 2);
        assert_eq!(s.recurrent_binaries, 1);
        assert_eq!(s.recurrent_executions, 2);
        assert_eq!(s.multi_path_binaries, 0);
    }

    #[test]
    fn system_records_excluded() {
        let records = vec![record(
            1,
            1,
            "a",
            "/usr/bin/rm",
            Some("3:f:1"),
            None,
            None,
            1,
        )];
        assert!(recurrence_table(&records).is_empty());
    }

    #[test]
    fn missing_file_hash_excluded() {
        let records = vec![record(1, 1, "a", "/users/a/x", None, None, None, 1)];
        assert!(recurrence_table(&records).is_empty());
    }

    #[test]
    fn render_contains_summary() {
        let records = vec![
            record(1, 1, "a", "/users/a/x", Some("3:f:1"), None, None, 1),
            record(2, 2, "a", "/users/a/x", Some("3:f:1"), None, None, 90_000),
        ];
        let out = render_recurrence(&recurrence_table(&records), 5);
        assert!(out.contains("recurrent"));
        assert!(out.contains("/users/a/x"));
        assert!(out.contains("1 recurrent"));
    }
}
