//! The storage seam: a writer (an ingest shard worker appending to its
//! partition, for one) delegates durability to a [`StorageBackend`].

use crate::wal::{WalReader, WalWriter};
use crate::{Persist, ReplayStats};
use std::fs::OpenOptions;
use std::path::Path;

/// What a persistence backend must provide at runtime. Recovery is a
/// constructor concern — each backend's `open` returns the records it
/// recovered alongside the backend itself.
///
/// `Send + Sync` because a backend is moved into (or shared with) the
/// thread that writes it; all mutation goes through `&mut self` (the
/// caller's ownership or lock), so implementations need no interior
/// locking of their own.
pub trait StorageBackend<T: Persist>: Send + Sync {
    /// Durably enqueue `items`, in order, after everything already
    /// appended. Durability is only guaranteed after [`Self::sync`].
    fn append_batch(&mut self, items: &[T]) -> std::io::Result<()>;

    /// Flush buffered appends to the OS.
    fn flush(&mut self) -> std::io::Result<()>;

    /// Flush and fsync to stable storage.
    fn sync(&mut self) -> std::io::Result<()> {
        self.flush()
    }

    /// Human-readable backend kind, for reports.
    fn kind(&self) -> &'static str;
}

/// Volatile no-op backend: persists nothing. The backend of an ingest
/// shard with no WAL path, whose rows live only in its fold.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullBackend;

impl<T: Persist> StorageBackend<T> for NullBackend {
    fn append_batch(&mut self, _items: &[T]) -> std::io::Result<()> {
        Ok(())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }

    fn kind(&self) -> &'static str {
        "null"
    }
}

/// Single flat write-ahead-log backend — the seed's persistence model,
/// now expressed through the backend seam. Suited to campaign-scoped
/// runs where the log is bounded and replayed whole.
#[derive(Debug)]
pub struct WalBackend<T: Persist> {
    writer: WalWriter<T>,
}

impl<T: Persist> WalBackend<T> {
    /// Open (or create) the log at `path`, replaying existing records.
    /// A corrupt tail is truncated away and reported in [`ReplayStats`]:
    /// cut off the file, so that appends follow the intact prefix and a
    /// later replay reaches them.
    pub fn open(path: &Path) -> std::io::Result<(Self, Vec<T>, ReplayStats)> {
        let (items, stats) = if path.exists() {
            WalReader::<T>::open(path)?.replay()?
        } else {
            (Vec::new(), ReplayStats::default())
        };
        if stats.corrupt_tail_bytes > 0 {
            let file = OpenOptions::new().write(true).open(path)?;
            let intact = file.metadata()?.len() - stats.corrupt_tail_bytes;
            file.set_len(intact)?;
        }
        Ok((
            Self {
                writer: WalWriter::append_to(path)?,
            },
            items,
            stats,
        ))
    }
}

impl<T: Persist> StorageBackend<T> for WalBackend<T> {
    fn append_batch(&mut self, items: &[T]) -> std::io::Result<()> {
        for item in items {
            self.writer.append(item)?;
        }
        Ok(())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.writer.flush()
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.writer.sync()
    }

    fn kind(&self) -> &'static str {
        "wal"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testitem::{temp_dir, TestItem};

    #[test]
    fn wal_backend_round_trips_and_reports_replay() {
        let dir = temp_dir("backend-wal");
        let path = dir.join("b.wal");
        {
            let (mut b, items, stats) = WalBackend::<TestItem>::open(&path).unwrap();
            assert!(items.is_empty());
            assert_eq!(stats, ReplayStats::default());
            let batch: Vec<TestItem> = (0..20).map(TestItem::new).collect();
            b.append_batch(&batch).unwrap();
            b.sync().unwrap();
        }
        let (_b, items, stats) = WalBackend::<TestItem>::open(&path).unwrap();
        assert_eq!(items.len(), 20);
        assert_eq!(stats.records, 20);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_backend_appends_after_a_torn_tail_replay() {
        let dir = temp_dir("backend-wal-torn");
        let path = dir.join("b.wal");
        let items: Vec<TestItem> = (0..10).map(TestItem::new).collect();
        {
            let (mut b, _, _) = WalBackend::<TestItem>::open(&path).unwrap();
            b.append_batch(&items[..5]).unwrap();
            b.flush().unwrap();
        }
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 3]).unwrap();
        {
            let (mut b, replayed, stats) = WalBackend::<TestItem>::open(&path).unwrap();
            assert_eq!(replayed, items[..4]);
            assert!(stats.corrupt_tail_bytes > 0);
            b.append_batch(&items[4..]).unwrap();
            b.flush().unwrap();
        }
        // The torn frame is gone, so the second replay is clean and
        // reaches everything appended after the first.
        let (_b, replayed, stats) = WalBackend::<TestItem>::open(&path).unwrap();
        assert_eq!(replayed, items);
        assert_eq!(stats.corrupt_tail_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
