//! # siren-store — segmented, compacting persistent storage
//!
//! The paper's receiver is a *continuously running* service writing to
//! SQLite; a single flat write-ahead log cannot serve that shape of
//! deployment. This crate is the storage subsystem the long-running
//! service tier builds on:
//!
//! * [`Persist`] — the binary codec of any storable item (message rows,
//!   consolidated records, …).
//! * [`WalWriter`] / [`WalReader`] — checksummed, corruption-tolerant
//!   frame log (a torn tail costs at most the final record).
//! * [`StorageBackend`] — the seam an ingest shard appends its rows
//!   through: [`NullBackend`] (volatile) or [`WalBackend`] (one flat
//!   log).
//! * [`SegmentedBackend`] — the daemon's consolidated store: every
//!   write is one batch sealed as an immutable checksummed segment; a
//!   compactor concatenates contiguous files into runs in generation
//!   order, so the store always reads back in commit order; recovery is
//!   crash-consistent at any kill point of either step.
//!
//! ## On-disk layout of a segmented store
//!
//! ```text
//! store/
//!   run-0000000000-0000000003.run   generations 0..=3, concatenated in order
//!   seg-0000000004.seg              the batch sealed as generation 4
//!   seg-0000000005.seg
//! ```
//!
//! There is no write-ahead log. A store written before sealed-only
//! stores also holds one empty `wal-N.wal`, which recovery removes; a
//! non-empty one fails [`SegmentedBackend::open`] with
//! [`std::io::ErrorKind::InvalidData`] naming the file.
//!
//! ## Crash-consistency contract
//!
//! Every mutation is ordered so that a kill at any instant loses at most
//! the batch being sealed, whole, and never duplicates or reorders a
//! record:
//!
//! 1. **Sealed appends** ([`SegmentedBackend::append_sealed`]): write
//!    `seg-N.tmp`, fsync, rename to `seg-N.seg`. Either the whole batch
//!    is present after restart, after every batch sealed before it, or
//!    none of it; a `*.tmp` is always garbage.
//! 2. **Compaction**: concatenate whole contiguous files, in generation
//!    order, into `run-A-B.tmp`, fsync, rename → delete inputs. A valid
//!    `run-A-B` *supersedes* every segment or narrower run inside
//!    `[A, B]`; recovery deletes the leftovers, so a kill between rename
//!    and input deletion cannot double-count. A torn run is discarded
//!    and its inputs stay live.
//!
//! Media damage is outside that contract: a sealed segment that was
//! whole once and is torn or corrupt now recovers its intact frame
//! prefix — a prefix of the batch, not the whole epoch it held — and is
//! rewritten valid.
//!
//! `tests/crash_recovery.rs` fuzzes kill points of both steps and the
//! torn-segment salvage, and asserts the recovered records are exactly
//! the durable prefix, in commit order.

pub mod backend;
pub mod codec;
pub mod compact;
pub mod metrics;
pub mod segment;
pub mod segmented;
pub mod wal;

pub use backend::{NullBackend, StorageBackend, WalBackend};
pub use metrics::StoreMetrics;
pub use segment::{read_segment, write_segment, SegmentRead};
pub use segmented::{RecoveryStats, SegmentedBackend, SegmentedOptions};
pub use wal::{encode_frame, WalReader, WalWriter, FRAME_MAGIC, MAX_PAYLOAD};

/// Binary codec for storable items.
///
/// `decode` must reject structurally inconsistent payloads with `None`
/// (never panic).
pub trait Persist: Sized + Send + Sync + 'static {
    /// Encode to a self-contained payload.
    fn encode(&self) -> Vec<u8>;
    /// Append the [`Persist::encode`] payload to `out`. Frames are
    /// written in place through this; the default copies `encode`'s
    /// buffer, so override it when the codec can write into `out`
    /// directly.
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.encode());
    }
    /// Decode a payload; `None` on any structural inconsistency.
    fn decode(data: &[u8]) -> Option<Self>;
}

/// Statistics from replaying one WAL file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Records successfully replayed.
    pub records: u64,
    /// Bytes discarded from a corrupt or torn tail.
    pub corrupt_tail_bytes: u64,
}

#[cfg(test)]
pub(crate) mod testitem {
    use super::Persist;

    /// Minimal Persist implementor for the crate's own tests.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct TestItem {
        pub key: u64,
        pub body: String,
    }

    impl TestItem {
        pub fn new(key: u64) -> Self {
            Self {
                key,
                body: format!("body-{key}"),
            }
        }
    }

    impl Persist for TestItem {
        fn encode(&self) -> Vec<u8> {
            let mut out = Vec::with_capacity(12 + self.body.len());
            out.extend_from_slice(&self.key.to_le_bytes());
            out.extend_from_slice(&(self.body.len() as u32).to_le_bytes());
            out.extend_from_slice(self.body.as_bytes());
            out
        }

        fn decode(data: &[u8]) -> Option<Self> {
            let key = u64::from_le_bytes(data.get(..8)?.try_into().ok()?);
            let len = u32::from_le_bytes(data.get(8..12)?.try_into().ok()?) as usize;
            let body = data.get(12..12 + len)?;
            if 12 + len != data.len() {
                return None;
            }
            Some(Self {
                key,
                body: String::from_utf8(body.to_vec()).ok()?,
            })
        }
    }

    pub fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("siren-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}
