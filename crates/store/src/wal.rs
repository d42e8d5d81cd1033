//! Generic write-ahead log: checksummed, corruption-tolerant framing.
//!
//! Frame format, repeated to end of file:
//!
//! ```text
//! [0xD8 magic][len: u32 LE][payload: len bytes][checksum: u64 LE]
//! ```
//!
//! The checksum is FNV-1a/64 over the payload. Replay stops at the first
//! frame that is truncated, mis-magicked, or checksum-mismatched, and
//! reports how many tail bytes were discarded — a crash mid-append must
//! cost at most the final record.

use crate::{Persist, ReplayStats};
use siren_hash::fnv1a64;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::marker::PhantomData;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

/// First byte of every frame.
pub const FRAME_MAGIC: u8 = 0xD8;
/// Upper bound on a sane payload; anything larger is treated as corruption.
pub const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

/// Encode one frame around `payload`. Public because the framing is a
/// shared seam: the WAL, sealed segments, and the network query
/// protocol (`siren-proto`) all speak exactly this frame.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(payload.len() + 13);
    put_frame(&mut frame, |out| out.extend_from_slice(payload));
    frame
}

/// Append one frame to `out` whose payload `payload` writes in place:
/// the length is patched in and the checksum appended afterwards, so no
/// payload or frame buffer is allocated on the way.
pub(crate) fn put_frame(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    out.push(FRAME_MAGIC);
    let len_at = out.len();
    out.extend_from_slice(&[0; 4]);
    let start = out.len();
    payload(out);
    let len = (out.len() - start) as u32;
    out[len_at..start].copy_from_slice(&len.to_le_bytes());
    let checksum = fnv1a64(&out[start..]);
    out.extend_from_slice(&checksum.to_le_bytes());
}

/// Frames one reader worker takes at a time.
pub(crate) const BLOCK_FRAMES: usize = 256;

/// One pass over the frame headers in `data` from `pos`: the payload
/// ranges of the structurally sound frames (magic, `len ≤ MAX_PAYLOAD`,
/// payload and checksum in bounds). Returns `(payload_ranges, end_pos,
/// clean)` where `clean` means the walk consumed every byte from `pos`
/// to the end (or up to `stop_at` when the byte at a frame boundary
/// matches it). Checksums are not read here: [`decode_frames`] verifies
/// each frame before it decodes it.
pub(crate) fn index_frames(
    data: &[u8],
    mut pos: usize,
    stop_at: Option<u8>,
) -> (Vec<(usize, usize)>, usize, bool) {
    let mut payloads = Vec::new();
    loop {
        if pos == data.len() {
            return (payloads, pos, true);
        }
        if stop_at == Some(data[pos]) {
            return (payloads, pos, true);
        }
        if data.len() - pos < 5 || data[pos] != FRAME_MAGIC {
            return (payloads, pos, false);
        }
        let len = u32::from_le_bytes(data[pos + 1..pos + 5].try_into().unwrap());
        if len > MAX_PAYLOAD {
            return (payloads, pos, false);
        }
        let len = len as usize;
        if data.len() - pos < 5 + len + 8 {
            return (payloads, pos, false);
        }
        payloads.push((pos + 5, len));
        pos += 5 + len + 8;
    }
}

/// Verify and decode the indexed `frames` of `data`, in order, up to
/// the first frame whose checksum fails or whose payload does not
/// decode: the result is that intact prefix, so it holds fewer items
/// than `frames` exactly when some frame failed.
///
/// The frames are cut into blocks of `block_frames` handed out to up to
/// `workers` threads (the calling thread is one of them). The calling
/// thread runs `side` first — the segment reader's whole-file checksum —
/// and then takes blocks too. With one worker, or fewer than two
/// blocks, everything runs inline and no thread is spawned.
pub(crate) fn decode_frames<T: Persist, R>(
    data: &[u8],
    frames: &[(usize, usize)],
    workers: usize,
    block_frames: usize,
    side: impl FnOnce() -> R,
) -> (Vec<T>, R) {
    let blocks: Vec<&[(usize, usize)]> = frames.chunks(block_frames.max(1)).collect();
    let workers = workers.min(blocks.len());
    if workers <= 1 {
        let side = side();
        let mut items = Vec::with_capacity(frames.len());
        decode_block(data, frames, &mut items);
        return (items, side);
    }
    // Relaxed: the counter only hands out block indexes; the decoded
    // blocks come back through the joins.
    let next = AtomicUsize::new(0);
    let take_blocks = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(block) = blocks.get(i) else {
                return done;
            };
            let mut items = Vec::with_capacity(block.len());
            decode_block(data, block, &mut items);
            done.push((i, items));
        }
    };
    let (side, mut done) = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(take_blocks)).collect();
        let side = side();
        let mut done = take_blocks();
        for helper in helpers {
            done.extend(helper.join().expect("frame reader worker panicked"));
        }
        (side, done)
    });
    // Join the blocks in file order; the first short one is the cut.
    done.sort_unstable_by_key(|&(i, _)| i);
    let mut items = Vec::with_capacity(frames.len());
    for ((_, block_items), block) in done.into_iter().zip(&blocks) {
        let whole = block_items.len() == block.len();
        items.extend(block_items);
        if !whole {
            break;
        }
    }
    (items, side)
}

/// Decode `block` into `out`, verifying each frame's checksum before
/// its payload is decoded; stop at the first frame that fails either.
fn decode_block<T: Persist>(data: &[u8], block: &[(usize, usize)], out: &mut Vec<T>) {
    for &(start, len) in block {
        let payload = &data[start..start + len];
        let stored = data[start + len..start + len + 8].try_into();
        let stored = u64::from_le_bytes(stored.expect("an 8-byte slice"));
        if fnv1a64(payload) != stored {
            return;
        }
        match T::decode(payload) {
            Some(item) => out.push(item),
            None => return,
        }
    }
}

/// Appending writer.
#[derive(Debug)]
pub struct WalWriter<T: Persist> {
    out: BufWriter<File>,
    bytes: u64,
    /// Buffer the next frame is encoded into, reused across appends.
    frame: Vec<u8>,
    _marker: PhantomData<fn(&T)>,
}

impl<T: Persist> WalWriter<T> {
    /// Open `path` for appending (creating it if needed).
    pub fn append_to(path: &Path) -> std::io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let bytes = file.metadata()?.len();
        Ok(Self {
            out: BufWriter::new(file),
            bytes,
            frame: Vec::new(),
            _marker: PhantomData,
        })
    }

    /// Append one item frame.
    pub fn append(&mut self, item: &T) -> std::io::Result<()> {
        self.frame.clear();
        put_frame(&mut self.frame, |out| item.encode_into(out));
        self.bytes += self.frame.len() as u64;
        self.out.write_all(&self.frame)
    }

    /// Flush buffered frames to the OS.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.out.flush()
    }

    /// Flush and fsync to stable storage.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.out.flush()?;
        self.out.get_ref().sync_all()
    }

    /// Bytes written to this log so far (including pre-existing content).
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }
}

/// Replaying reader.
#[derive(Debug)]
pub struct WalReader<T: Persist> {
    data: Vec<u8>,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Persist> WalReader<T> {
    /// Read the whole log into memory (logs are bounded by the rotation
    /// threshold in segmented stores, and by campaign size otherwise).
    pub fn open(path: &Path) -> std::io::Result<Self> {
        let mut data = Vec::new();
        File::open(path)?.read_to_end(&mut data)?;
        Ok(Self {
            data,
            _marker: PhantomData,
        })
    }

    /// Replay all intact frames; stop at the first corruption.
    pub fn replay(&self) -> std::io::Result<(Vec<T>, ReplayStats)> {
        let (frames, end, clean) = index_frames(&self.data, 0, None);
        let (items, ()) = decode_frames(&self.data, &frames, 1, BLOCK_FRAMES, || ());
        // A frame whose checksum fails — or holds, but whose payload
        // does not decode, so writer and reader disagree on the codec —
        // is corruption from its header on; so is a torn header.
        let corrupt_from = match frames.get(items.len()) {
            Some(&(start, _)) => Some(start - 5),
            None => (!clean).then_some(end),
        };
        let stats = ReplayStats {
            records: items.len() as u64,
            corrupt_tail_bytes: corrupt_from.map_or(0, |c| (self.data.len() - c) as u64),
        };
        Ok((items, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testitem::{temp_dir, TestItem};

    #[test]
    fn write_replay_round_trip() {
        let dir = temp_dir("wal-rt");
        let path = dir.join("roundtrip.wal");
        {
            let mut w = WalWriter::<TestItem>::append_to(&path).unwrap();
            for i in 0..100 {
                w.append(&TestItem::new(i)).unwrap();
            }
            w.flush().unwrap();
            assert!(w.bytes_written() > 0);
        }
        let (items, stats) = WalReader::<TestItem>::open(&path)
            .unwrap()
            .replay()
            .unwrap();
        assert_eq!(items.len(), 100);
        assert_eq!(stats.records, 100);
        assert_eq!(stats.corrupt_tail_bytes, 0);
        assert_eq!(items[42], TestItem::new(42));
        // Frames written in place are the bytes of the two-step encoding.
        let two_step: Vec<u8> = (0..100)
            .flat_map(|i| encode_frame(&TestItem::new(i).encode()))
            .collect();
        assert_eq!(std::fs::read(&path).unwrap(), two_step);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bitflip_stops_replay_at_prefix() {
        let dir = temp_dir("wal-flip");
        let path = dir.join("flip.wal");
        {
            let mut w = WalWriter::<TestItem>::append_to(&path).unwrap();
            for i in 0..10 {
                w.append(&TestItem::new(i)).unwrap();
            }
            w.flush().unwrap();
        }
        let mut data = std::fs::read(&path).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();

        let (items, stats) = WalReader::<TestItem>::open(&path)
            .unwrap()
            .replay()
            .unwrap();
        assert!(items.len() < 10);
        assert!(stats.corrupt_tail_bytes > 0);
        for (i, item) in items.iter().enumerate() {
            assert_eq!(*item, TestItem::new(i as u64));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bytes_written_resumes_across_reopen() {
        let dir = temp_dir("wal-resume");
        let path = dir.join("resume.wal");
        let first = {
            let mut w = WalWriter::<TestItem>::append_to(&path).unwrap();
            w.append(&TestItem::new(1)).unwrap();
            w.flush().unwrap();
            w.bytes_written()
        };
        let w = WalWriter::<TestItem>::append_to(&path).unwrap();
        assert_eq!(w.bytes_written(), first);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
