//! # siren-db — embedded message store
//!
//! The paper's receiver inserts UDP messages into an SQLite database whose
//! columns are exactly the UDP header fields plus CONTENT (§3.1). SQLite
//! is not among this project's allowed dependencies, so this crate
//! implements the storage layer the pipeline needs, from scratch:
//!
//! * [`Record`] — one row: `JOBID, STEPID, PID, HASH, HOST, TIME, LAYER,
//!   TYPE, CONTENT`.
//! * [`Database`] — an append-only row log over a pluggable
//!   [`StorageBackend`]: each ingest shard worker appends its reassembled
//!   messages, and consolidation reads the rows back in arrival order.
//!   Durability is delegated to the backend — volatile
//!   ([`Database::in_memory`]) or one flat WAL ([`Database::open`], the
//!   seed's format, with checksummed records and corruption-tolerant
//!   replay).
//!
//! Concurrency model: many threads may `insert` while others read a row
//! snapshot; a `parking_lot::RwLock` arbitrates (writes are append-only
//! and cheap; reads take the lock shared).

pub mod log;
pub mod record;

pub use log::{ReplayStats, WalReader, WalWriter};
pub use record::Record;
pub use siren_store::{NullBackend, StorageBackend, WalBackend};

use parking_lot::RwLock;
use siren_wire::CompleteMessage;
use std::path::Path;

struct Inner {
    rows: Vec<Record>,
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

    /// Row log over an arbitrary backend, pre-seeded with the records the
    /// backend recovered. The seam every other constructor goes through.
    pub fn from_backend(backend: Box<dyn StorageBackend<Record>>, initial: Vec<Record>) -> Self {
        Self {
            inner: RwLock::new(Inner {
                rows: initial,
                backend,
            }),
        }
    }

    /// Open (or create) a persistent store backed by a single flat
    /// write-ahead log at `path`. Existing records are replayed; a
    /// corrupt tail is truncated away and reported in [`ReplayStats`].
    pub fn open(path: &Path) -> std::io::Result<(Self, ReplayStats)> {
        let (backend, records, stats) = WalBackend::open(path)?;
        Ok((Self::from_backend(Box::new(backend), records), stats))
    }

    /// Insert one record (appending through the backend when persistent).
    pub fn insert(&self, rec: Record) -> std::io::Result<()> {
        let mut inner = self.inner.write();
        inner.backend.append_batch(std::slice::from_ref(&rec))?;
        inner.rows.push(rec);
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
        inner.rows.extend(recs);
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

    /// Run `f` over a shared snapshot of all rows, in insertion order
    /// (no cloning).
    pub fn with_rows<R>(&self, f: impl FnOnce(&[Record]) -> R) -> R {
        let inner = self.inner.read();
        f(&inner.rows)
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
            // Replay restores insertion order.
            db.with_rows(|rows| assert_eq!(rows[7].content, "lib7"));
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
