//! # siren-db — embedded message store
//!
//! The paper's receiver inserts UDP messages into an SQLite database whose
//! columns are exactly the UDP header fields plus CONTENT (§3.1). SQLite
//! is not among this project's allowed dependencies, so this crate
//! implements the storage layer the pipeline needs, from scratch:
//!
//! * [`Record`] — one row: `JOBID, STEPID, PID, HASH, HOST, TIME, LAYER,
//!   TYPE, CONTENT`.
//! * [`Database`] — a thin indexed cache over a pluggable
//!   [`StorageBackend`]: rows and secondary indexes (job id, message
//!   type) live in memory with a fluent [`Query`] filter API, while
//!   durability is delegated to the backend — volatile
//!   ([`Database::in_memory`]), one flat WAL ([`Database::open`], the
//!   seed's format, with checksummed records and corruption-tolerant
//!   replay), or a rotating/compacting segmented store
//!   ([`Database::open_segmented`]) for long-running service deployments.
//!
//! Concurrency model: many receiver threads may `insert` while analysis
//! threads run read snapshots; a `parking_lot::RwLock` arbitrates (writes
//! are append-only and cheap; reads take the lock shared).

pub mod log;
pub mod record;

pub use log::{ReplayStats, WalReader, WalWriter};
pub use record::Record;
pub use siren_store::{
    NullBackend, RecoveryStats, SegmentedBackend, SegmentedOptions, StorageBackend, WalBackend,
};

use parking_lot::RwLock;
use siren_wire::{CompleteMessage, Layer, MessageType};
use std::collections::HashMap;
use std::path::Path;

struct Inner {
    rows: Vec<Record>,
    by_job: HashMap<u64, Vec<usize>>,
    by_type: HashMap<&'static str, Vec<usize>>,
    backend: Box<dyn StorageBackend<Record>>,
}

/// The message database.
pub struct Database {
    inner: RwLock<Inner>,
}

impl Default for Database {
    fn default() -> Self {
        Self::in_memory()
    }
}

impl Database {
    /// Volatile store (no persistence).
    pub fn in_memory() -> Self {
        Self::from_backend(Box::new(NullBackend), Vec::new())
    }

    /// Cache over an arbitrary backend, pre-seeded with the records the
    /// backend recovered. The seam every other constructor goes through.
    pub fn from_backend(backend: Box<dyn StorageBackend<Record>>, initial: Vec<Record>) -> Self {
        let mut inner = Inner {
            rows: Vec::with_capacity(initial.len()),
            by_job: HashMap::new(),
            by_type: HashMap::new(),
            backend,
        };
        for rec in initial {
            Self::index_and_push(&mut inner, rec);
        }
        Self {
            inner: RwLock::new(inner),
        }
    }

    /// Open (or create) a persistent store backed by a single flat
    /// write-ahead log at `path`. Existing records are replayed; a
    /// corrupt tail is truncated away and reported in [`ReplayStats`].
    pub fn open(path: &Path) -> std::io::Result<(Self, ReplayStats)> {
        let (backend, records, stats) = WalBackend::open(path)?;
        Ok((Self::from_backend(Box::new(backend), records), stats))
    }

    /// Open (or create) a persistent store backed by a segmented,
    /// compacting directory store at `dir` — the long-running-service
    /// shape: the WAL rotates into immutable checksummed segments and
    /// compaction folds segments into sorted runs in the background.
    pub fn open_segmented(
        dir: &Path,
        opts: SegmentedOptions,
    ) -> std::io::Result<(Self, RecoveryStats)> {
        let (backend, records, stats) = SegmentedBackend::open(dir, opts)?;
        Ok((Self::from_backend(Box::new(backend), records), stats))
    }

    /// The persistence backend's kind (`"null"`, `"wal"`, `"segmented"`,
    /// …) — for telemetry reports.
    pub fn backend_kind(&self) -> &'static str {
        self.inner.read().backend.kind()
    }

    fn index_and_push(inner: &mut Inner, rec: Record) {
        let idx = inner.rows.len();
        inner.by_job.entry(rec.job_id).or_default().push(idx);
        inner
            .by_type
            .entry(rec.mtype.as_str())
            .or_default()
            .push(idx);
        inner.rows.push(rec);
    }

    /// Insert one record (appending through the backend when persistent).
    pub fn insert(&self, rec: Record) -> std::io::Result<()> {
        let mut inner = self.inner.write();
        inner.backend.append_batch(std::slice::from_ref(&rec))?;
        Self::index_and_push(&mut inner, rec);
        Ok(())
    }

    /// Insert a reassembled wire message.
    pub fn insert_message(&self, msg: CompleteMessage) -> std::io::Result<()> {
        self.insert(Record::from(msg))
    }

    /// Insert many records under one lock acquisition and one WAL pass.
    ///
    /// The hot ingest path produces records far faster than per-record
    /// `insert` can take the write lock; batching amortizes the lock and
    /// lets the WAL writer buffer all frames before a single flush.
    pub fn insert_batch(&self, recs: Vec<Record>) -> std::io::Result<()> {
        if recs.is_empty() {
            return Ok(());
        }
        let mut inner = self.inner.write();
        inner.backend.append_batch(&recs)?;
        inner.backend.flush()?;
        for rec in recs {
            Self::index_and_push(&mut inner, rec);
        }
        Ok(())
    }

    /// Insert many reassembled wire messages as one batch.
    pub fn insert_message_batch(&self, msgs: Vec<CompleteMessage>) -> std::io::Result<()> {
        self.insert_batch(msgs.into_iter().map(Record::from).collect())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.inner.read().rows.len()
    }

    /// True when the store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flush buffered writes to the OS.
    pub fn flush(&self) -> std::io::Result<()> {
        self.inner.write().backend.flush()
    }

    /// Flush and fsync to stable storage.
    pub fn sync(&self) -> std::io::Result<()> {
        self.inner.write().backend.sync()
    }

    /// Run `f` over a shared snapshot of all rows (no cloning).
    pub fn with_rows<R>(&self, f: impl FnOnce(&[Record]) -> R) -> R {
        let inner = self.inner.read();
        f(&inner.rows)
    }

    /// Distinct job ids present, sorted.
    pub fn job_ids(&self) -> Vec<u64> {
        let inner = self.inner.read();
        let mut ids: Vec<u64> = inner.by_job.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Rows for one job id (cloned).
    pub fn rows_for_job(&self, job_id: u64) -> Vec<Record> {
        let inner = self.inner.read();
        inner
            .by_job
            .get(&job_id)
            .map(|idxs| idxs.iter().map(|&i| inner.rows[i].clone()).collect())
            .unwrap_or_default()
    }

    /// Rows of one message type (cloned).
    pub fn rows_of_type(&self, mtype: MessageType) -> Vec<Record> {
        let inner = self.inner.read();
        inner
            .by_type
            .get(mtype.as_str())
            .map(|idxs| idxs.iter().map(|&i| inner.rows[i].clone()).collect())
            .unwrap_or_default()
    }

    /// Start a filter query.
    pub fn query(&self) -> Query<'_> {
        Query {
            db: self,
            job_id: None,
            mtype: None,
            layer: None,
            host: None,
            time_range: None,
        }
    }
}

/// Fluent row filter. All conditions are ANDed.
pub struct Query<'a> {
    db: &'a Database,
    job_id: Option<u64>,
    mtype: Option<MessageType>,
    layer: Option<Layer>,
    host: Option<String>,
    time_range: Option<(u64, u64)>,
}

impl Query<'_> {
    /// Restrict to one job.
    pub fn job(mut self, job_id: u64) -> Self {
        self.job_id = Some(job_id);
        self
    }

    /// Restrict to one message type.
    pub fn mtype(mut self, mtype: MessageType) -> Self {
        self.mtype = Some(mtype);
        self
    }

    /// Restrict to one layer.
    pub fn layer(mut self, layer: Layer) -> Self {
        self.layer = Some(layer);
        self
    }

    /// Restrict to one host.
    pub fn host(mut self, host: &str) -> Self {
        self.host = Some(host.to_string());
        self
    }

    /// Restrict to `start ..= end` collection timestamps.
    pub fn time_between(mut self, start: u64, end: u64) -> Self {
        self.time_range = Some((start, end));
        self
    }

    fn matches(&self, r: &Record) -> bool {
        if let Some(j) = self.job_id {
            if r.job_id != j {
                return false;
            }
        }
        if let Some(t) = self.mtype {
            if r.mtype != t {
                return false;
            }
        }
        if let Some(l) = self.layer {
            if r.layer != l {
                return false;
            }
        }
        if let Some(h) = &self.host {
            if &r.host != h {
                return false;
            }
        }
        if let Some((lo, hi)) = self.time_range {
            if r.time < lo || r.time > hi {
                return false;
            }
        }
        true
    }

    /// Collect matching rows (cloned).
    pub fn collect(self) -> Vec<Record> {
        let inner = self.db.inner.read();
        // Use the narrowest applicable index.
        if let Some(j) = self.job_id {
            return inner
                .by_job
                .get(&j)
                .map(|idxs| {
                    idxs.iter()
                        .map(|&i| &inner.rows[i])
                        .filter(|r| self.matches(r))
                        .cloned()
                        .collect()
                })
                .unwrap_or_default();
        }
        if let Some(t) = self.mtype {
            return inner
                .by_type
                .get(t.as_str())
                .map(|idxs| {
                    idxs.iter()
                        .map(|&i| &inner.rows[i])
                        .filter(|r| self.matches(r))
                        .cloned()
                        .collect()
                })
                .unwrap_or_default();
        }
        inner
            .rows
            .iter()
            .filter(|r| self.matches(r))
            .cloned()
            .collect()
    }

    /// Count matching rows without cloning.
    pub fn count(self) -> usize {
        let inner = self.db.inner.read();
        inner.rows.iter().filter(|r| self.matches(r)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siren_wire::{Layer, MessageType};

    fn rec(job: u64, pid: u32, mtype: MessageType, content: &str) -> Record {
        Record {
            job_id: job,
            step_id: 0,
            pid,
            exe_hash: format!("{pid:032x}"),
            host: format!("nid{:06}", job % 100),
            time: 1_700_000_000 + job,
            layer: Layer::SelfExe,
            mtype,
            content: content.to_string(),
        }
    }

    #[test]
    fn insert_and_len() {
        let db = Database::in_memory();
        assert!(db.is_empty());
        db.insert(rec(1, 10, MessageType::Meta, "m")).unwrap();
        db.insert(rec(1, 11, MessageType::Objects, "o")).unwrap();
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn insert_batch_matches_serial_inserts_and_persists() {
        let serial = Database::in_memory();
        let batched = Database::in_memory();
        let recs: Vec<Record> = (0..100)
            .map(|i| rec(i % 7, i as u32, MessageType::Objects, &format!("c{i}")))
            .collect();
        for r in recs.clone() {
            serial.insert(r).unwrap();
        }
        batched.insert_batch(recs).unwrap();
        assert_eq!(serial.len(), batched.len());
        serial.with_rows(|a| batched.with_rows(|b| assert_eq!(a, b)));
        assert_eq!(serial.job_ids(), batched.job_ids());
        assert_eq!(
            serial.query().mtype(MessageType::Objects).count(),
            batched.query().mtype(MessageType::Objects).count()
        );

        // Batches hit the WAL exactly like serial inserts.
        let dir = std::env::temp_dir().join(format!("siren-db-batch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("batch.sirendb");
        let _ = std::fs::remove_file(&path);
        {
            let (db, _) = Database::open(&path).unwrap();
            db.insert_batch(
                (0..50)
                    .map(|i| rec(i, i as u32, MessageType::Meta, "m"))
                    .collect(),
            )
            .unwrap();
        }
        let (db, stats) = Database::open(&path).unwrap();
        assert_eq!(stats.records, 50);
        assert_eq!(db.len(), 50);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn query_by_job_and_type() {
        let db = Database::in_memory();
        for j in 0..10 {
            db.insert(rec(j, 1, MessageType::Meta, "meta")).unwrap();
            db.insert(rec(j, 1, MessageType::Objects, "objs")).unwrap();
        }
        assert_eq!(db.query().job(3).collect().len(), 2);
        assert_eq!(db.query().mtype(MessageType::Meta).collect().len(), 10);
        assert_eq!(
            db.query()
                .job(3)
                .mtype(MessageType::Objects)
                .collect()
                .len(),
            1
        );
        assert_eq!(db.query().job(99).collect().len(), 0);
        assert_eq!(db.query().count(), 20);
    }

    #[test]
    fn query_time_and_host() {
        let db = Database::in_memory();
        for j in 0..10 {
            db.insert(rec(j, 1, MessageType::Meta, "x")).unwrap();
        }
        let hits = db
            .query()
            .time_between(1_700_000_002, 1_700_000_004)
            .collect();
        assert_eq!(hits.len(), 3);
        let host_hits = db.query().host("nid000007").collect();
        assert_eq!(host_hits.len(), 1);
    }

    #[test]
    fn job_ids_sorted_distinct() {
        let db = Database::in_memory();
        for j in [5u64, 1, 5, 3] {
            db.insert(rec(j, 1, MessageType::Meta, "")).unwrap();
        }
        assert_eq!(db.job_ids(), vec![1, 3, 5]);
    }

    #[test]
    fn rows_of_type_uses_index() {
        let db = Database::in_memory();
        db.insert(rec(1, 1, MessageType::FileHash, "3:abc:de"))
            .unwrap();
        db.insert(rec(1, 1, MessageType::Meta, "")).unwrap();
        let rows = db.rows_of_type(MessageType::FileHash);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].content, "3:abc:de");
    }

    #[test]
    fn persistence_round_trip() {
        let dir = std::env::temp_dir().join(format!("siren-db-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal-roundtrip.sirendb");
        let _ = std::fs::remove_file(&path);

        {
            let (db, stats) = Database::open(&path).unwrap();
            assert_eq!(stats.records, 0);
            for j in 0..50 {
                db.insert(rec(j, j as u32, MessageType::Objects, &format!("lib{j}")))
                    .unwrap();
            }
            db.flush().unwrap();
        }
        {
            let (db, stats) = Database::open(&path).unwrap();
            assert_eq!(stats.records, 50);
            assert_eq!(stats.corrupt_tail_bytes, 0);
            assert_eq!(db.len(), 50);
            assert_eq!(db.query().job(7).collect()[0].content, "lib7");
            // And appending after replay still works.
            db.insert(rec(100, 1, MessageType::Meta, "post-replay"))
                .unwrap();
            db.flush().unwrap();
        }
        {
            let (db, _) = Database::open(&path).unwrap();
            assert_eq!(db.len(), 51);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_tail_is_tolerated() {
        let dir = std::env::temp_dir().join(format!("siren-db-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal-corrupt.sirendb");
        let _ = std::fs::remove_file(&path);

        {
            let (db, _) = Database::open(&path).unwrap();
            for j in 0..10 {
                db.insert(rec(j, 1, MessageType::Meta, "ok")).unwrap();
            }
            db.flush().unwrap();
        }
        // Simulate a torn write: append garbage.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(&[0xDE, 0xAD, 0xBE]).unwrap();
        }
        let (db, stats) = Database::open(&path).unwrap();
        assert_eq!(db.len(), 10);
        assert!(stats.corrupt_tail_bytes > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn segmented_backend_round_trips_and_compacts() {
        let dir = std::env::temp_dir().join(format!("siren-db-seg-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let opts = SegmentedOptions {
            rotate_bytes: 2048,
            compact_min_files: 2,
            background_compaction: true,
        };
        {
            let (db, stats) = Database::open_segmented(&dir, opts).unwrap();
            assert_eq!(stats.records_loaded, 0);
            assert_eq!(db.backend_kind(), "segmented");
            db.insert_batch(
                (0..500)
                    .map(|i| rec(i % 13, i as u32, MessageType::Objects, &format!("c{i}")))
                    .collect(),
            )
            .unwrap();
            db.sync().unwrap();
        }
        let (db, stats) = Database::open_segmented(&dir, opts).unwrap();
        assert_eq!(stats.records_loaded, 500);
        assert_eq!(stats.wal_tail_bytes_discarded, 0);
        assert_eq!(db.len(), 500);
        // Indexes are rebuilt over the recovered rows regardless of the
        // physical order compaction produced.
        assert_eq!(db.job_ids(), (0..13).collect::<Vec<u64>>());
        assert_eq!(db.query().job(7).count(), db.rows_for_job(7).len());
        // Dropping the database joins its background compactor, which
        // would otherwise race the unlink below.
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_inserts_and_reads() {
        let db = std::sync::Arc::new(Database::in_memory());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let db = std::sync::Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    db.insert(rec(t * 1000 + i, 1, MessageType::Meta, "c"))
                        .unwrap();
                }
            }));
        }
        for _ in 0..4 {
            let db = std::sync::Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    let _ = db.with_rows(|rows| rows.len());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.len(), 2000);
    }
}
