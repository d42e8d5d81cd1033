//! Table 8 & Figure 3 — Python interpreters and imported packages.

use crate::render::{group_digits, render_table};
use crate::{category_of, RecordCategory};
use siren_consolidate::{extract_python_imports, ProcessRecord};
use std::collections::{HashMap, HashSet};

/// One Table-8 row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterpreterRow {
    /// Interpreter executable name (`python3.10`).
    pub interpreter: String,
    /// Distinct users.
    pub unique_users: u64,
    /// Jobs.
    pub job_count: u64,
    /// Processes.
    pub process_count: u64,
    /// Distinct `SCRIPT_H` values (distinct input scripts).
    pub unique_script_h: u64,
}

/// Compute Table 8 over Python-interpreter records. Sorted by
/// descending users, jobs, processes, distinct scripts; ties by
/// interpreter name.
pub fn interpreter_table(records: &[ProcessRecord]) -> Vec<InterpreterRow> {
    struct Acc {
        users: HashSet<String>,
        jobs: HashSet<u64>,
        procs: u64,
        scripts: HashSet<String>,
    }
    let mut by_interp: HashMap<String, Acc> = HashMap::new();

    for rec in records {
        if category_of(rec) != RecordCategory::Python {
            continue;
        }
        let Some(name) = rec.exe_name() else { continue };
        let acc = by_interp.entry(name.to_string()).or_insert_with(|| Acc {
            users: HashSet::new(),
            jobs: HashSet::new(),
            procs: 0,
            scripts: HashSet::new(),
        });
        if let Some(u) = rec.user() {
            acc.users.insert(u.to_string());
        }
        acc.jobs.insert(rec.key.job_id);
        acc.procs += 1;
        if let Some(script) = &rec.script {
            if let Some(h) = &script.script_hash {
                acc.scripts.insert(h.clone());
            }
        }
    }

    let mut rows: Vec<InterpreterRow> = by_interp
        .into_iter()
        .map(|(interpreter, acc)| InterpreterRow {
            interpreter,
            unique_users: acc.users.len() as u64,
            job_count: acc.jobs.len() as u64,
            process_count: acc.procs,
            unique_script_h: acc.scripts.len() as u64,
        })
        .collect();
    rows.sort_by(|a, b| {
        (
            b.unique_users,
            b.job_count,
            b.process_count,
            b.unique_script_h,
        )
            .cmp(&(
                a.unique_users,
                a.job_count,
                a.process_count,
                a.unique_script_h,
            ))
            .then_with(|| a.interpreter.cmp(&b.interpreter))
    });
    rows
}

/// One Figure-3 bar: a package with its four series values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackageRow {
    /// Package name.
    pub package: String,
    /// Distinct users importing it.
    pub unique_users: u64,
    /// Jobs.
    pub job_count: u64,
    /// Processes.
    pub process_count: u64,
    /// Distinct scripts importing it.
    pub unique_scripts: u64,
}

/// Compute Figure 3 over Python-interpreter records, given the known
/// package catalog (package extraction happens here, on the memory maps,
/// as the paper's post-processing does).
pub fn package_stats(records: &[ProcessRecord], catalog: &[&str]) -> Vec<PackageRow> {
    struct Acc {
        users: HashSet<String>,
        jobs: HashSet<u64>,
        procs: u64,
        scripts: HashSet<String>,
    }
    let mut by_pkg: HashMap<&str, Acc> = HashMap::new();

    for rec in records {
        if category_of(rec) != RecordCategory::Python {
            continue;
        }
        let Some(maps) = &rec.maps else { continue };
        let imports = extract_python_imports(maps, catalog);
        for pkg in imports {
            let acc = by_pkg.entry(pkg).or_insert_with(|| Acc {
                users: HashSet::new(),
                jobs: HashSet::new(),
                procs: 0,
                scripts: HashSet::new(),
            });
            if let Some(u) = rec.user() {
                acc.users.insert(u.to_string());
            }
            acc.jobs.insert(rec.key.job_id);
            acc.procs += 1;
            if let Some(script) = &rec.script {
                if let Some(h) = &script.script_hash {
                    acc.scripts.insert(h.clone());
                }
            }
        }
    }

    // Keep catalog (x-axis) order for figure-parity; absent packages are
    // omitted (they would be zero-height bars).
    catalog
        .iter()
        .filter_map(|pkg| {
            by_pkg.get(pkg).map(|acc| PackageRow {
                package: pkg.to_string(),
                unique_users: acc.users.len() as u64,
                job_count: acc.jobs.len() as u64,
                process_count: acc.procs,
                unique_scripts: acc.scripts.len() as u64,
            })
        })
        .collect()
}

/// Render Table 8.
pub fn render_interpreters(rows: &[InterpreterRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.interpreter.clone(),
                r.unique_users.to_string(),
                group_digits(r.job_count),
                group_digits(r.process_count),
                r.unique_script_h.to_string(),
            ]
        })
        .collect();
    render_table(
        "Table 8: Python interpreters",
        &[
            "Interpreter",
            "Users",
            "Jobs",
            "Processes",
            "Unique SCRIPT_H",
        ],
        &body,
    )
}

/// Render Figure 3 as a data table (one row per package, four series).
pub fn render_packages(rows: &[PackageRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.package.clone(),
                r.unique_users.to_string(),
                group_digits(r.job_count),
                group_digits(r.process_count),
                r.unique_scripts.to_string(),
            ]
        })
        .collect();
    render_table(
        "Figure 3: Imported Python packages (data series)",
        &["Package", "Users", "Jobs", "Processes", "Unique Scripts"],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::record;
    use siren_consolidate::ScriptRecord;

    fn py_rec(
        job: u64,
        pid: u32,
        user: &str,
        interp: &str,
        script_h: &str,
        maps: Vec<&str>,
    ) -> ProcessRecord {
        let mut r = record(job, pid, user, interp, None, None, None, job);
        r.maps = Some(maps.into_iter().map(|s| s.to_string()).collect());
        r.script = Some(ScriptRecord {
            path: Some("/u/s.py".into()),
            meta: Default::default(),
            script_hash: Some(script_h.into()),
        });
        r
    }

    #[test]
    fn interpreter_rows_aggregate() {
        let records = vec![
            py_rec(1, 1, "a", "/usr/bin/python3.6", "3:s1:x", vec![]),
            py_rec(1, 2, "a", "/usr/bin/python3.6", "3:s1:x", vec![]),
            py_rec(2, 3, "a", "/usr/bin/python3.6", "3:s2:x", vec![]),
            py_rec(
                3,
                4,
                "b",
                "/opt/python/3.11.4/bin/python3.11",
                "3:s3:x",
                vec![],
            ),
        ];
        let rows = interpreter_table(&records);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].interpreter, "python3.6");
        assert_eq!(rows[0].process_count, 3);
        assert_eq!(rows[0].unique_script_h, 2);
        assert_eq!(rows[0].job_count, 2);
        assert_eq!(rows[1].interpreter, "python3.11");
    }

    #[test]
    fn tied_rows_order_by_interpreter() {
        // One user, job, process and SCRIPT_H each: tied on every count.
        let records = vec![
            py_rec(1, 1, "a", "/usr/bin/python3.6", "3:s1:x", vec![]),
            py_rec(2, 2, "b", "/usr/bin/python3.11", "3:s2:x", vec![]),
        ];
        let rows = interpreter_table(&records);
        assert_eq!(rows[0].interpreter, "python3.11");
        assert_eq!(rows[1].interpreter, "python3.6");
        let first = render_interpreters(&rows);
        for _ in 0..32 {
            assert_eq!(render_interpreters(&interpreter_table(&records)), first);
        }
    }

    #[test]
    fn non_python_records_excluded() {
        let records = vec![record(1, 1, "a", "/usr/bin/bash", None, None, None, 1)];
        assert!(interpreter_table(&records).is_empty());
    }

    #[test]
    fn package_stats_from_maps() {
        let catalog = ["heapq", "numpy", "pandas"];
        let records = vec![
            py_rec(
                1,
                1,
                "a",
                "/usr/bin/python3.6",
                "3:s1:x",
                vec![
                    "/usr/lib64/python3.6/lib-dynload/_heapq.cpython-36m.so",
                    "/usr/lib64/python3.6/site-packages/numpy/core/_impl.so",
                ],
            ),
            py_rec(
                2,
                2,
                "b",
                "/usr/bin/python3.6",
                "3:s2:x",
                vec!["/usr/lib64/python3.6/lib-dynload/_heapq.cpython-36m.so"],
            ),
        ];
        let rows = package_stats(&records, &catalog);
        assert_eq!(rows.len(), 2); // heapq + numpy; pandas absent
        let heapq = rows.iter().find(|r| r.package == "heapq").unwrap();
        assert_eq!(heapq.unique_users, 2);
        assert_eq!(heapq.process_count, 2);
        assert_eq!(heapq.unique_scripts, 2);
        let numpy = rows.iter().find(|r| r.package == "numpy").unwrap();
        assert_eq!(numpy.unique_users, 1);
    }

    #[test]
    fn catalog_order_preserved() {
        let catalog = ["zoneinfo", "heapq"];
        let records = vec![py_rec(
            1,
            1,
            "a",
            "/usr/bin/python3.6",
            "3:s:x",
            vec![
                "/usr/lib64/python3.6/lib-dynload/_heapq.so",
                "/usr/lib64/python3.6/lib-dynload/_zoneinfo.so",
            ],
        )];
        let rows = package_stats(&records, &catalog);
        assert_eq!(rows[0].package, "zoneinfo");
        assert_eq!(rows[1].package, "heapq");
    }

    #[test]
    fn renders() {
        let records = vec![py_rec(1, 1, "a", "/usr/bin/python3.6", "3:s:x", vec![])];
        assert!(render_interpreters(&interpreter_table(&records)).contains("python3.6"));
        assert!(render_packages(&[]).contains("Figure 3"));
    }
}
