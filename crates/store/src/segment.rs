//! Immutable checksummed segment files.
//!
//! A segment is written once, atomically (to `<name>.tmp`, fsynced,
//! renamed into place), and never modified. Layout:
//!
//! ```text
//! [b"SIRNSEG1"][frame]*[0xD9][count: u64 LE][checksum: u64 LE]
//! ```
//!
//! Frames use the WAL framing (per-record checksums); the footer checksum
//! is FNV-1a/64 over every byte before the footer magic, so a truncated
//! or bit-flipped segment is detected as a whole even when each surviving
//! frame checks out individually.
//!
//! Reading splits a file's frames into blocks that several threads
//! verify and decode at once while the calling thread checks the
//! footer; the blocks are joined in file order, so the answer is the
//! one a single sequential pass gives.

use crate::wal::{decode_frames, index_frames, put_frame, BLOCK_FRAMES};
use crate::Persist;
use siren_hash::fnv1a64;
use std::fs::File;
use std::io::Write;
use std::path::Path;

/// Leading magic of every segment file.
pub const SEG_MAGIC: &[u8; 8] = b"SIRNSEG1";
/// First byte of the footer (never a valid frame magic).
const FOOTER_MAGIC: u8 = 0xD9;

/// Outcome of reading a segment file.
#[derive(Debug)]
pub enum SegmentRead<T> {
    /// Footer present and consistent: the complete item vector.
    Valid(Vec<T>),
    /// Torn or corrupt: the salvageable prefix of intact frames.
    Partial(Vec<T>),
}

impl<T> SegmentRead<T> {
    /// The items regardless of validity.
    pub fn items(self) -> Vec<T> {
        match self {
            SegmentRead::Valid(v) | SegmentRead::Partial(v) => v,
        }
    }

    /// True for [`SegmentRead::Valid`].
    pub fn is_valid(&self) -> bool {
        matches!(self, SegmentRead::Valid(_))
    }
}

/// Write `items` as a segment at `path`, atomically: the content goes to
/// `<path>.tmp`, is fsynced, and renamed into place. Returns the file
/// size in bytes.
pub fn write_segment<T: Persist>(path: &Path, items: &[T]) -> std::io::Result<u64> {
    let mut buf = Vec::with_capacity(64 + items.len() * 64);
    buf.extend_from_slice(SEG_MAGIC);
    for item in items {
        put_frame(&mut buf, |out| item.encode_into(out));
    }
    let checksum = fnv1a64(&buf);
    buf.push(FOOTER_MAGIC);
    buf.extend_from_slice(&(items.len() as u64).to_le_bytes());
    buf.extend_from_slice(&checksum.to_le_bytes());

    let tmp = tmp_path(path);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&buf)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path);
    Ok(buf.len() as u64)
}

/// Read a segment at `path`, classifying it as valid or partial, on
/// every available core.
pub fn read_segment<T: Persist>(path: &Path) -> std::io::Result<SegmentRead<T>> {
    read_segment_with(path, available_workers())
}

/// [`read_segment`] on at most `workers` threads, the caller's
/// included. Every frame's checksum is verified before its payload is
/// decoded, the first frame that fails either cuts the result there,
/// and the footer's whole-file checksum is checked as well — the same
/// `Valid`/`Partial` verdict and items as one sequential pass.
pub(crate) fn read_segment_with<T: Persist>(
    path: &Path,
    workers: usize,
) -> std::io::Result<SegmentRead<T>> {
    Ok(parse_segment(&std::fs::read(path)?, workers, BLOCK_FRAMES))
}

/// Threads a reader may use: `available_parallelism`, or 1 if unknown.
pub(crate) fn available_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn parse_segment<T: Persist>(data: &[u8], workers: usize, block_frames: usize) -> SegmentRead<T> {
    if data.len() < SEG_MAGIC.len() || &data[..SEG_MAGIC.len()] != SEG_MAGIC {
        return SegmentRead::Partial(Vec::new());
    }
    let (frames, end, clean) = index_frames(data, SEG_MAGIC.len(), Some(FOOTER_MAGIC));

    // Footer: exactly 17 bytes after the frame region, nothing else.
    // The calling thread checks it while the workers decode.
    let footer_ok = || {
        clean
            && data.len() == end + 17
            && data[end] == FOOTER_MAGIC
            && u64::from_le_bytes(data[end + 1..end + 9].try_into().unwrap()) == frames.len() as u64
            && u64::from_le_bytes(data[end + 9..end + 17].try_into().unwrap())
                == fnv1a64(&data[..end])
    };
    let (items, footer_ok) = decode_frames(data, &frames, workers, block_frames, footer_ok);

    if footer_ok && items.len() == frames.len() {
        SegmentRead::Valid(items)
    } else {
        SegmentRead::Partial(items)
    }
}

/// The temporary sibling a segment is staged at before its atomic rename.
pub(crate) fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    std::path::PathBuf::from(os)
}

/// Best-effort fsync of the containing directory so the rename itself is
/// durable (POSIX requires it for crash safety of the directory entry).
pub(crate) fn sync_parent_dir(path: &Path) {
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testitem::{temp_dir, TestItem};
    use crate::wal::{encode_frame, FRAME_MAGIC, MAX_PAYLOAD};
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The sequential reader this module had before the work was split
    /// into blocks: one walk that checks each frame's header and
    /// checksum, then one decode pass. The oracle for [`parse_segment`].
    fn oracle<T: Persist>(data: &[u8]) -> SegmentRead<T> {
        if data.len() < SEG_MAGIC.len() || &data[..SEG_MAGIC.len()] != SEG_MAGIC {
            return SegmentRead::Partial(Vec::new());
        }
        let mut ranges = Vec::new();
        let mut pos = SEG_MAGIC.len();
        let clean = loop {
            if pos == data.len() || data[pos] == FOOTER_MAGIC {
                break true;
            }
            if data.len() - pos < 5 || data[pos] != FRAME_MAGIC {
                break false;
            }
            let len = u32::from_le_bytes(data[pos + 1..pos + 5].try_into().unwrap());
            if len > MAX_PAYLOAD {
                break false;
            }
            let len = len as usize;
            if data.len() - pos < 5 + len + 8 {
                break false;
            }
            let start = pos + 5;
            let stored = u64::from_le_bytes(data[start + len..start + len + 8].try_into().unwrap());
            if fnv1a64(&data[start..start + len]) != stored {
                break false;
            }
            ranges.push((start, len));
            pos = start + len + 8;
        };
        let end = pos;

        let mut items = Vec::with_capacity(ranges.len());
        let mut decoded_ok = true;
        for &(start, len) in &ranges {
            match T::decode(&data[start..start + len]) {
                Some(item) => items.push(item),
                None => {
                    decoded_ok = false;
                    break;
                }
            }
        }
        let valid = clean
            && decoded_ok
            && data.len() == end + 17
            && data[end] == FOOTER_MAGIC
            && u64::from_le_bytes(data[end + 1..end + 9].try_into().unwrap()) == items.len() as u64
            && u64::from_le_bytes(data[end + 9..end + 17].try_into().unwrap())
                == fnv1a64(&data[..end]);
        if valid {
            SegmentRead::Valid(items)
        } else {
            SegmentRead::Partial(items)
        }
    }

    /// A segment's frames and footer built the way `write_segment` did
    /// before frames were written in place: each payload encoded on its
    /// own, then copied into a frame, then into the file.
    fn two_step_segment(payloads: &[Vec<u8>]) -> (Vec<Vec<u8>>, Vec<u8>) {
        let frames: Vec<Vec<u8>> = payloads.iter().map(|p| encode_frame(p)).collect();
        let mut body = SEG_MAGIC.to_vec();
        body.extend(frames.concat());
        let mut footer = vec![FOOTER_MAGIC];
        footer.extend_from_slice(&(payloads.len() as u64).to_le_bytes());
        footer.extend_from_slice(&fnv1a64(&body).to_le_bytes());
        (frames, footer)
    }

    fn assemble(frames: &[Vec<u8>], footer: &[u8]) -> Vec<u8> {
        let mut data = SEG_MAGIC.to_vec();
        data.extend(frames.concat());
        data.extend_from_slice(footer);
        data
    }

    /// How a fuzzed segment file is damaged before it is read back.
    /// Offsets and frame indexes are drawn wide and reduced modulo the
    /// file's own length.
    #[derive(Debug, Clone)]
    enum Damage {
        None,
        BitFlip(u64, u8),
        Cut(u64),
        SwapFrames(u64, u64),
        Trailing(Vec<u8>),
        Empty,
        MagicOnly,
    }

    fn damage() -> impl Strategy<Value = Damage> {
        prop_oneof![
            Just(Damage::None),
            (any::<u64>(), 0u8..8).prop_map(|(at, bit)| Damage::BitFlip(at, bit)),
            any::<u64>().prop_map(Damage::Cut),
            (any::<u64>(), any::<u64>()).prop_map(|(a, b)| Damage::SwapFrames(a, b)),
            vec(any::<u8>(), 1..24).prop_map(Damage::Trailing),
            Just(Damage::Empty),
            Just(Damage::MagicOnly),
        ]
    }

    /// Fuzzed items — about one in 25 replaced by a payload whose
    /// checksum holds but which does not decode — written as a segment
    /// and damaged one way must read back the same through every worker
    /// count and block size as through the oracle.
    fn reader_matches_oracle(items: Vec<(u64, String, u32)>, damage: Damage) {
        let payloads: Vec<Vec<u8>> = items
            .into_iter()
            .map(|(key, body, roll)| {
                if roll == 0 {
                    b"undecodable".to_vec()
                } else {
                    TestItem { key, body }.encode()
                }
            })
            .collect();
        let (mut frames, footer) = two_step_segment(&payloads);
        let mut data = assemble(&frames, &footer);
        let pick = |at: u64, n: usize| (at % n as u64) as usize;
        match damage {
            Damage::None => {}
            Damage::BitFlip(at, bit) => {
                let at = pick(at, data.len());
                data[at] ^= 1 << bit;
            }
            Damage::Cut(at) => data.truncate(pick(at, data.len() + 1)),
            Damage::SwapFrames(a, b) if !frames.is_empty() => {
                let n = frames.len();
                frames.swap(pick(a, n), pick(b, n));
                data = assemble(&frames, &footer);
            }
            Damage::SwapFrames(..) => {}
            Damage::Trailing(junk) => data.extend_from_slice(&junk),
            Damage::Empty => data.clear(),
            Damage::MagicOnly => data.truncate(SEG_MAGIC.len()),
        }

        let want = oracle::<TestItem>(&data);
        let want = (want.is_valid(), want.items());
        for workers in [1, 2, 3, 8] {
            for block_frames in [1, 3, BLOCK_FRAMES] {
                let got = parse_segment::<TestItem>(&data, workers, block_frames);
                prop_assert_eq!(
                    (got.is_valid(), got.items()),
                    want.clone(),
                    "{} workers, blocks of {}",
                    workers,
                    block_frames
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn parallel_reader_matches_sequential_oracle(
            items in vec((any::<u64>(), "[a-z]{0,12}", 0u32..25), 0..48),
            damage in damage(),
        ) {
            reader_matches_oracle(items, damage);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3000))]

        /// The store reader fuzz smoke: `cargo test -p siren-store
        /// --release -- --ignored`.
        #[test]
        #[ignore = "larger fuzz smoke, run explicitly by the CI store reader gate"]
        fn parallel_reader_matches_sequential_oracle_fuzz_smoke(
            items in vec((any::<u64>(), "[a-z]{0,12}", 0u32..25), 0..160),
            damage in damage(),
        ) {
            reader_matches_oracle(items, damage);
        }
    }

    #[test]
    fn frames_written_in_place_match_the_two_step_encoding() {
        let dir = temp_dir("seg-pin");
        let path = dir.join("p.seg");
        for n in [0, 1, 7, 300] {
            let items: Vec<TestItem> = (0..n).map(TestItem::new).collect();
            write_segment(&path, &items).unwrap();
            let payloads: Vec<Vec<u8>> = items.iter().map(Persist::encode).collect();
            let (frames, footer) = two_step_segment(&payloads);
            assert_eq!(std::fs::read(&path).unwrap(), assemble(&frames, &footer));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn round_trip_valid() {
        let dir = temp_dir("seg-rt");
        let path = dir.join("a.seg");
        let items: Vec<TestItem> = (0..50).map(TestItem::new).collect();
        let bytes = write_segment(&path, &items).unwrap();
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
        match read_segment::<TestItem>(&path).unwrap() {
            SegmentRead::Valid(got) => assert_eq!(got, items),
            SegmentRead::Partial(_) => panic!("fresh segment must be valid"),
        }
        // No .tmp left behind.
        assert!(!tmp_path(&path).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_segment_is_valid() {
        let dir = temp_dir("seg-empty");
        let path = dir.join("e.seg");
        write_segment::<TestItem>(&path, &[]).unwrap();
        assert!(read_segment::<TestItem>(&path).unwrap().is_valid());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn any_truncation_is_partial_with_intact_prefix() {
        let dir = temp_dir("seg-trunc");
        let path = dir.join("t.seg");
        let items: Vec<TestItem> = (0..20).map(TestItem::new).collect();
        write_segment(&path, &items).unwrap();
        let full = std::fs::read(&path).unwrap();
        for cut in [0, 3, 9, full.len() / 2, full.len() - 1] {
            std::fs::write(&path, &full[..cut]).unwrap();
            let read = read_segment::<TestItem>(&path).unwrap();
            assert!(!read.is_valid(), "cut {cut} must invalidate");
            let got = read.items();
            assert!(got.len() <= items.len());
            assert_eq!(got[..], items[..got.len()], "prefix intact at cut {cut}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bitflip_in_footer_region_detected() {
        let dir = temp_dir("seg-flip");
        let path = dir.join("f.seg");
        let items: Vec<TestItem> = (0..5).map(TestItem::new).collect();
        write_segment(&path, &items).unwrap();
        let mut data = std::fs::read(&path).unwrap();
        let n = data.len();
        data[n - 3] ^= 0x01; // inside the footer checksum
        std::fs::write(&path, &data).unwrap();
        assert!(!read_segment::<TestItem>(&path).unwrap().is_valid());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trailing_junk_after_footer_invalidates() {
        let dir = temp_dir("seg-junk");
        let path = dir.join("j.seg");
        write_segment(&path, &[TestItem::new(1)]).unwrap();
        let mut data = std::fs::read(&path).unwrap();
        data.push(0xAB);
        std::fs::write(&path, &data).unwrap();
        assert!(!read_segment::<TestItem>(&path).unwrap().is_valid());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
