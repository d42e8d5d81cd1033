//! # siren-consolidate — post-processing: messages → per-process records
//!
//! The paper (§3.1, "Post-processing and Analysis"):
//!
//! > Post-processing of UDP messages from the database includes the
//! > merging of multiple UDP message chunks into single data records per
//! > process. Information about Python scripts is merged into their
//! > parent (Python interpreter) rows. The result is a single database
//! > entry for each process.
//!
//! Chunk merging already happened at the receiver (`siren-wire`'s
//! reassembler); this crate performs the *semantic* consolidation:
//! grouping the per-type rows of one process observation into a
//! [`ProcessRecord`], attaching SCRIPT-layer rows to their interpreter
//! parent, extracting imported Python packages from memory maps, and
//! producing the missing-field [`IntegrityReport`] behind the paper's
//! "~0.02 % of jobs have missing fields" observation.

pub mod integrity;
pub mod record;

pub use integrity::{integrity_report, IntegrityReport};
pub use record::{parse_kv, parse_list, ProcessRecord, ScriptRecord};

use siren_db::{Database, Record};
use siren_wire::{Layer, MessageType, ProcessKey};
use std::collections::{BTreeMap, HashMap};

/// Consolidation statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConsolidateStats {
    /// SELF-layer rows consumed.
    pub self_rows: u64,
    /// SCRIPT-layer rows consumed.
    pub script_rows: u64,
    /// Scripts successfully merged into interpreter records.
    pub merged_scripts: u64,
    /// Scripts whose parent interpreter record was never seen (its
    /// messages were all lost).
    pub orphan_scripts: u64,
    /// Consolidated process records produced.
    pub processes: u64,
}

/// Result of consolidation.
#[derive(Debug)]
pub struct Consolidated {
    /// One record per observed process, deterministic order (job id,
    /// host, time, pid, exe hash).
    pub records: Vec<ProcessRecord>,
    /// Statistics.
    pub stats: ConsolidateStats,
}

/// Incremental consolidation state: feed rows with [`Consolidator::push_row`]
/// as they arrive (a streaming epoch, a WAL replay, a database scan) and
/// call [`Consolidator::finish`] once the input is complete. Feeding the
/// same row twice is idempotent — grouping is by process key and field
/// absorption overwrites in place — which is what lets a restarted
/// service re-ingest a partially-persisted epoch without duplicating
/// records.
#[derive(Debug, Default)]
pub struct Consolidator {
    stats: ConsolidateStats,
    by_key: HashMap<ProcessKey, ProcessRecord>,
    scripts: Vec<Record>,
}

impl Consolidator {
    /// Empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one database row into the state.
    pub fn push_row(&mut self, row: &Record) {
        match row.layer {
            Layer::SelfExe => {
                self.stats.self_rows += 1;
                let key = key_of(row);
                self.by_key
                    .entry(key)
                    .or_insert_with(|| ProcessRecord::new(row))
                    .absorb(row);
            }
            Layer::Script => {
                self.stats.script_rows += 1;
                self.scripts.push(row.clone());
            }
        }
    }

    /// Merge SCRIPT rows into their interpreter parents, sort, and emit.
    pub fn finish(self) -> Consolidated {
        let Self {
            mut stats,
            mut by_key,
            scripts,
        } = self;

        // Group script rows by their own key first (META + SCRIPT_H of
        // one script observation belong together), in key order so the
        // merge below does not depend on hash iteration order.
        let mut script_groups: BTreeMap<ProcessKey, Vec<Record>> = BTreeMap::new();
        for row in scripts {
            script_groups.entry(key_of(&row)).or_default().push(row);
        }

        // The parent interpreter shares (job, step, pid, host, time) with
        // its script but has a different exe_hash (the interpreter's own
        // path hash), so matching ignores exe_hash. One borrowing pass
        // over the records finds, per wanted parent tuple, the least
        // interpreter by `record_order` — a deterministic pick when an
        // interpreter exec'd another (`python` → `python3.6`) and both
        // share the tuple.
        let mut best: HashMap<ParentTuple<'_>, Option<&ProcessRecord>> = script_groups
            .keys()
            .map(|skey| (parent_tuple(skey), None))
            .collect();
        if !best.is_empty() {
            for rec in by_key.values() {
                if let Some(slot) = best.get_mut(&parent_tuple(&rec.key)) {
                    let better = slot.is_none_or(|b| record_order(rec, b).is_lt());
                    if better && rec.is_python_interpreter() {
                        *slot = Some(rec);
                    }
                }
            }
        }
        // Owned keys, one per group, so the merge below can borrow
        // `by_key` mutably.
        let parents: Vec<Option<ProcessKey>> = script_groups
            .keys()
            .map(|skey| best[&parent_tuple(skey)].map(|rec| rec.key.clone()))
            .collect();

        for (rows, parent) in script_groups.values().zip(parents) {
            match parent {
                Some(pk) => {
                    let parent = by_key.get_mut(&pk).expect("parent key from by_key");
                    let mut script = ScriptRecord::default();
                    for row in rows {
                        match row.mtype {
                            MessageType::Meta => {
                                let kv = parse_kv(&row.content);
                                script.path = kv.get("path").cloned();
                                script.meta = kv;
                            }
                            MessageType::ScriptHash => {
                                script.script_hash = Some(row.content.clone())
                            }
                            _ => {}
                        }
                    }
                    parent.script = Some(script);
                    stats.merged_scripts += 1;
                }
                None => stats.orphan_scripts += 1,
            }
        }

        let mut records: Vec<ProcessRecord> = by_key.into_values().collect();
        records.sort_by(record_order);
        stats.processes = records.len() as u64;

        Consolidated { records, stats }
    }
}

/// Consolidate a message database into per-process records (one-shot
/// wrapper over [`Consolidator`]).
pub fn consolidate(db: &Database) -> Consolidated {
    let mut consolidator = Consolidator::new();
    db.with_rows(|rows| {
        for row in rows {
            consolidator.push_row(row);
        }
    });
    consolidator.finish()
}

/// What a script shares with its interpreter parent: `(job, step, pid,
/// host, time)`.
type ParentTuple<'a> = (u64, u32, u32, &'a str, u64);

fn parent_tuple(key: &ProcessKey) -> ParentTuple<'_> {
    (key.job_id, key.step_id, key.pid, &key.host, key.time)
}

fn key_of(row: &Record) -> ProcessKey {
    ProcessKey {
        job_id: row.job_id,
        step_id: row.step_id,
        pid: row.pid,
        exe_hash: row.exe_hash.clone(),
        host: row.host.clone(),
        time: row.time,
        layer: row.layer,
    }
}

/// The canonical total order of consolidated records: `(job id, host,
/// time, pid, exe hash)`. [`consolidate`] sorts by it, and any
/// partitioned consolidation (the sharded ingest tier, fleet merges)
/// must merge by the *same* order to reproduce the serial output — use
/// this function rather than restating the key.
pub fn record_order(a: &ProcessRecord, b: &ProcessRecord) -> std::cmp::Ordering {
    (
        a.key.job_id,
        &a.key.host,
        a.key.time,
        a.key.pid,
        &a.key.exe_hash,
    )
        .cmp(&(
            b.key.job_id,
            &b.key.host,
            b.key.time,
            b.key.pid,
            &b.key.exe_hash,
        ))
}

/// Extract imported Python packages from an interpreter's memory-mapped
/// file list, given a known-package catalog (§4.4: "we overcome this
/// challenge by extracting the imported Python packages from the
/// memory-mapped files of the Python interpreter").
pub fn extract_python_imports<'a>(maps: &[String], catalog: &[&'a str]) -> Vec<&'a str> {
    catalog
        .iter()
        .filter(|pkg| {
            let dynload = format!("/_{pkg}.");
            let site = format!("site-packages/{pkg}/");
            maps.iter()
                .any(|m| m.contains(&dynload) || m.contains(&site))
        })
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use siren_db::Database;

    fn row(
        job: u64,
        pid: u32,
        exe_hash: &str,
        time: u64,
        layer: Layer,
        mtype: MessageType,
        content: &str,
    ) -> Record {
        Record {
            job_id: job,
            step_id: 0,
            pid,
            exe_hash: exe_hash.into(),
            host: "nid1".into(),
            time,
            layer,
            mtype,
            content: content.into(),
        }
    }

    fn meta(path: &str) -> String {
        format!("path={path};inode=1;size=10;mode=755;owner_uid=0;owner_gid=0;atime=1;mtime=1;ctime=1;uid=1004;gid=1004;ppid=7;user=user_4")
    }

    #[test]
    fn groups_rows_into_one_record_per_process() {
        let db = Database::in_memory();
        db.insert(row(
            1,
            10,
            "aa",
            5,
            Layer::SelfExe,
            MessageType::Meta,
            &meta("/usr/bin/bash"),
        ))
        .unwrap();
        db.insert(row(
            1,
            10,
            "aa",
            5,
            Layer::SelfExe,
            MessageType::Objects,
            "/l/a.so;/l/b.so",
        ))
        .unwrap();
        db.insert(row(
            1,
            10,
            "aa",
            5,
            Layer::SelfExe,
            MessageType::ObjectsHash,
            "3:x:y",
        ))
        .unwrap();
        // A different process, same pid+time but different exe hash
        // (exec() replacement) must remain a separate record.
        db.insert(row(
            1,
            10,
            "bb",
            5,
            Layer::SelfExe,
            MessageType::Meta,
            &meta("/usr/bin/srun"),
        ))
        .unwrap();

        let c = consolidate(&db);
        assert_eq!(c.records.len(), 2);
        let bash = c
            .records
            .iter()
            .find(|r| r.exe_path() == Some("/usr/bin/bash"))
            .unwrap();
        assert_eq!(bash.objects.as_ref().unwrap().len(), 2);
        assert_eq!(bash.objects_hash.as_deref(), Some("3:x:y"));
        assert_eq!(bash.user(), Some("user_4"));
    }

    #[test]
    fn scripts_merge_into_python_interpreter_parent() {
        let db = Database::in_memory();
        db.insert(row(
            2,
            20,
            "interp",
            9,
            Layer::SelfExe,
            MessageType::Meta,
            &meta("/usr/bin/python3.6"),
        ))
        .unwrap();
        db.insert(row(
            2,
            20,
            "script",
            9,
            Layer::Script,
            MessageType::Meta,
            &meta("/u/run.py"),
        ))
        .unwrap();
        db.insert(row(
            2,
            20,
            "script",
            9,
            Layer::Script,
            MessageType::ScriptHash,
            "3:s:h",
        ))
        .unwrap();

        let c = consolidate(&db);
        assert_eq!(c.records.len(), 1);
        assert_eq!(c.stats.merged_scripts, 1);
        assert_eq!(c.stats.orphan_scripts, 0);
        let script = c.records[0].script.as_ref().unwrap();
        assert_eq!(script.path.as_deref(), Some("/u/run.py"));
        assert_eq!(script.script_hash.as_deref(), Some("3:s:h"));
    }

    #[test]
    fn script_parent_choice_is_deterministic_between_interpreters() {
        // `python` exec'd `python3.6` under the same pid within the same
        // second: two interpreter records share the script's parent
        // tuple. Every fresh consolidator (a fresh hash seed each) and
        // either arrival order must hand the script to the least
        // candidate by `record_order`, i.e. exe hash "aa".
        let rows = [
            row(
                5,
                50,
                "bb",
                9,
                Layer::SelfExe,
                MessageType::Meta,
                &meta("/usr/bin/python3.6"),
            ),
            row(
                5,
                50,
                "aa",
                9,
                Layer::SelfExe,
                MessageType::Meta,
                &meta("/usr/bin/python"),
            ),
            row(
                5,
                50,
                "script",
                9,
                Layer::Script,
                MessageType::ScriptHash,
                "3:s:h",
            ),
        ];
        for i in 0..32 {
            let mut fold = Consolidator::new();
            if i % 2 == 0 {
                rows.iter().for_each(|r| fold.push_row(r));
            } else {
                rows.iter().rev().for_each(|r| fold.push_row(r));
            }
            let c = fold.finish();
            assert_eq!(c.stats.merged_scripts, 1);
            let with_script: Vec<&str> = c
                .records
                .iter()
                .filter(|r| r.script.is_some())
                .map(|r| r.key.exe_hash.as_str())
                .collect();
            assert_eq!(with_script, ["aa"], "consolidator {i}");
        }
    }

    #[test]
    fn orphan_scripts_counted() {
        let db = Database::in_memory();
        db.insert(row(
            3,
            30,
            "script",
            9,
            Layer::Script,
            MessageType::ScriptHash,
            "3:s:h",
        ))
        .unwrap();
        let c = consolidate(&db);
        assert_eq!(c.stats.orphan_scripts, 1);
        assert_eq!(c.records.len(), 0);
    }

    #[test]
    fn scripts_do_not_merge_into_non_python_processes() {
        let db = Database::in_memory();
        db.insert(row(
            4,
            40,
            "bash",
            9,
            Layer::SelfExe,
            MessageType::Meta,
            &meta("/usr/bin/bash"),
        ))
        .unwrap();
        db.insert(row(
            4,
            40,
            "script",
            9,
            Layer::Script,
            MessageType::ScriptHash,
            "3:s:h",
        ))
        .unwrap();
        let c = consolidate(&db);
        assert_eq!(c.stats.orphan_scripts, 1);
        assert!(c.records[0].script.is_none());
    }

    #[test]
    fn python_import_extraction() {
        let maps = vec![
            "/usr/lib64/python3.6/lib-dynload/_heapq.cpython-36m.so".to_string(),
            "/usr/lib64/python3.6/site-packages/numpy/core/_impl.so".to_string(),
            "/lib64/libc.so.6".to_string(),
        ];
        let catalog = ["heapq", "numpy", "pandas"];
        assert_eq!(
            extract_python_imports(&maps, &catalog),
            vec!["heapq", "numpy"]
        );
        assert!(extract_python_imports(&[], &catalog).is_empty());
    }

    #[test]
    fn import_extraction_requires_exact_package_tokens() {
        // "pandas2" or "heapq_extra" style near-misses must not match.
        let maps = vec![
            "/usr/lib64/python3.6/site-packages/pandas2/x.so".to_string(),
            "/usr/lib64/python3.6/lib-dynload/_heapq_extra.cpython.so".to_string(),
        ];
        let catalog = ["heapq", "pandas"];
        assert!(extract_python_imports(&maps, &catalog).is_empty());
    }

    #[test]
    fn incremental_consolidator_equals_one_shot_and_is_idempotent() {
        let db = Database::in_memory();
        let rows = [
            row(
                2,
                20,
                "interp",
                9,
                Layer::SelfExe,
                MessageType::Meta,
                &meta("/usr/bin/python3.6"),
            ),
            row(
                2,
                20,
                "interp",
                9,
                Layer::SelfExe,
                MessageType::Objects,
                "/l/a.so;/l/b.so",
            ),
            row(
                2,
                20,
                "script",
                9,
                Layer::Script,
                MessageType::Meta,
                &meta("/u/run.py"),
            ),
            row(
                2,
                20,
                "script",
                9,
                Layer::Script,
                MessageType::ScriptHash,
                "3:s:h",
            ),
            row(
                1,
                10,
                "bash",
                5,
                Layer::SelfExe,
                MessageType::Meta,
                &meta("/usr/bin/bash"),
            ),
        ];
        for r in &rows {
            db.insert(r.clone()).unwrap();
        }
        let one_shot = consolidate(&db);

        // Incremental feed, rows pushed one at a time…
        let mut inc = Consolidator::new();
        for r in &rows {
            inc.push_row(r);
        }
        assert_eq!(inc.by_key.len(), 2);
        let incremental = inc.finish();
        assert_eq!(incremental.records, one_shot.records);
        assert_eq!(incremental.stats, one_shot.stats);

        // …and a double feed (a crash-recovery replay followed by a full
        // re-send) must land on the same records.
        let mut twice = Consolidator::new();
        for r in rows.iter().chain(rows.iter()) {
            twice.push_row(r);
        }
        let twice = twice.finish();
        assert_eq!(twice.records, one_shot.records);
        assert_eq!(twice.stats.processes, one_shot.stats.processes);
    }

    #[test]
    fn deterministic_record_order() {
        let db = Database::in_memory();
        for j in [5u64, 1, 3] {
            db.insert(row(
                j,
                1,
                "h",
                1,
                Layer::SelfExe,
                MessageType::Meta,
                &meta("/usr/bin/x"),
            ))
            .unwrap();
        }
        let c = consolidate(&db);
        let jobs: Vec<u64> = c.records.iter().map(|r| r.key.job_id).collect();
        assert_eq!(jobs, vec![1, 3, 5]);
    }
}
