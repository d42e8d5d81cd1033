//! # siren-store — segmented, compacting persistent storage
//!
//! The paper's receiver is a *continuously running* service writing to
//! SQLite; a single flat write-ahead log cannot serve that shape of
//! deployment. This crate is the storage subsystem the long-running
//! service tier builds on:
//!
//! * [`Persist`] — binary codec + total order for any storable item
//!   (message rows, consolidated records, …).
//! * [`WalWriter`] / [`WalReader`] — checksummed, corruption-tolerant
//!   frame log (a torn tail costs at most the final record).
//! * [`StorageBackend`] — the seam a writer appends through, with four
//!   implementations: [`NullBackend`] (volatile), [`MemoryBackend`]
//!   (in-memory buffer), [`WalBackend`] (one flat log — the seed's
//!   behavior), and [`SegmentedBackend`] (the production shape).
//! * [`SegmentedBackend`] — appends to an active WAL, rotates it into
//!   immutable checksummed segments at a size threshold, background-
//!   compacts segments into sorted record runs, and recovers
//!   crash-consistently from any interleaving of those steps.
//!
//! ## On-disk layout of a segmented store
//!
//! ```text
//! store/
//!   wal-0000000007.wal        active WAL (exactly one after recovery)
//!   seg-0000000004.seg        sealed segment, generation 4, arrival order
//!   seg-0000000005.seg
//!   run-0000000000-0000000003.run   sorted run covering generations 0..=3
//! ```
//!
//! ## Crash-consistency contract
//!
//! Every mutation is ordered so that a kill at any instant loses at most
//! the unsynced tail of the active WAL and never duplicates a record:
//!
//! 1. **Rotation**: seal `wal-N` → write `seg-N.tmp`, fsync, rename to
//!    `seg-N.seg` → create `wal-N+1` → delete `wal-N`. Recovery treats a
//!    `seg-N` + `wal-N` pair as a completed seal (the WAL is dropped),
//!    a lone `wal-N` as pending (replayed and sealed), and a `*.tmp` as
//!    garbage.
//! 2. **Compaction**: merge whole contiguous files into `run-A-B.tmp`,
//!    fsync, rename → delete inputs. A valid `run-A-B` *supersedes* every
//!    segment or narrower run inside `[A, B]`; recovery deletes the
//!    leftovers, so a kill between rename and input deletion cannot
//!    double-count.
//! 3. **Sealed appends** ([`SegmentedBackend::append_sealed`]): one
//!    atomic segment per call — either the whole batch is present after
//!    restart or none of it, which is what the service tier's per-epoch
//!    commits require.
//!
//! The property tests in this crate fuzz kill points (torn WAL tails,
//! partial segment files, interrupted rotations and compactions) and
//! assert the recovered record multiset is exactly the durable prefix.

pub mod backend;
pub mod codec;
pub mod compact;
pub mod metrics;
pub mod segment;
pub mod segmented;
pub mod wal;

pub use backend::{MemoryBackend, NullBackend, StorageBackend, WalBackend};
pub use metrics::StoreMetrics;
pub use segment::{read_segment, write_segment, SegmentRead};
pub use segmented::{RecoveryStats, SegmentedBackend, SegmentedOptions};
pub use wal::{encode_frame, WalReader, WalWriter, FRAME_MAGIC, MAX_PAYLOAD};

/// Binary codec + total order for storable items.
///
/// `decode` must reject structurally inconsistent payloads with `None`
/// (never panic), and `order` must be a total order — compaction sorts
/// runs by it, and partitioned consumers merge by it.
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
    /// The total order compaction sorts runs by.
    fn order(a: &Self, b: &Self) -> std::cmp::Ordering;
}

/// Statistics from replaying one WAL file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Records successfully replayed.
    pub records: u64,
    /// Bytes discarded from a corrupt or torn tail.
    pub corrupt_tail_bytes: u64,
}

impl ReplayStats {
    /// Fold another replay's counters into this one (multi-file stores).
    pub fn absorb(&mut self, other: ReplayStats) {
        self.records += other.records;
        self.corrupt_tail_bytes += other.corrupt_tail_bytes;
    }
}

#[cfg(test)]
pub(crate) mod testitem {
    use super::Persist;

    /// Minimal Persist implementor for the crate's own tests.
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
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

        fn order(a: &Self, b: &Self) -> std::cmp::Ordering {
            a.cmp(b)
        }
    }

    pub fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("siren-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}
