//! # siren-db — the message row type and its in-memory row log
//!
//! The paper's receiver inserts UDP messages into an SQLite database whose
//! columns are exactly the UDP header fields plus CONTENT (§3.1). This
//! crate keeps the row and what the reference receiver needs of that
//! table:
//!
//! * [`Record`] — one row: `JOBID, STEPID, PID, HASH, HOST, TIME, LAYER,
//!   TYPE, CONTENT`, with the binary payload codec the ingest tier's
//!   write-ahead log frames ([`log`]).
//! * [`Database`] — an append-only, in-memory row log. It is the row
//!   store behind the reference fold (one reassembler, one `Database`,
//!   one `siren_consolidate::consolidate` over a whole campaign) that
//!   tests and the benchmark check the ingest tier against. The ingest
//!   tier itself appends rows to a [`StorageBackend`] ([`WalBackend`] or
//!   [`NullBackend`]) and folds them as they arrive, holding no row log.
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

/// The in-memory message row log. Inserts never fail; they return
/// `io::Result` so a caller can treat this log like a persistent store.
pub struct Database {
    rows: RwLock<Vec<Record>>,
}

impl Database {
    /// Empty log.
    pub fn in_memory() -> Self {
        Self {
            rows: RwLock::new(Vec::new()),
        }
    }

    /// Insert one record.
    pub fn insert(&self, rec: Record) -> std::io::Result<()> {
        self.rows.write().push(rec);
        Ok(())
    }

    /// Insert a reassembled wire message.
    pub fn insert_message(&self, msg: CompleteMessage) -> std::io::Result<()> {
        self.insert(Record::from(msg))
    }

    /// Insert many records under one lock acquisition.
    pub fn insert_batch(&self, recs: Vec<Record>) -> std::io::Result<()> {
        self.rows.write().extend(recs);
        Ok(())
    }

    /// Insert many reassembled wire messages as one batch.
    pub fn insert_message_batch(&self, msgs: Vec<CompleteMessage>) -> std::io::Result<()> {
        self.insert_batch(msgs.into_iter().map(Record::from).collect())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.read().len()
    }

    /// True when the log holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Run `f` over a shared snapshot of all rows, in insertion order
    /// (no cloning).
    pub fn with_rows<R>(&self, f: impl FnOnce(&[Record]) -> R) -> R {
        f(&self.rows.read())
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
    fn insert_batch_matches_serial_inserts() {
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
