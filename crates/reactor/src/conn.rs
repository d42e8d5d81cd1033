//! Non-blocking buffered framed I/O over one TCP stream.
//!
//! [`FramedConn`] owns a socket in non-blocking mode plus an inbound
//! and an outbound byte buffer, and parses/emits the workspace's
//! shared frame: `[0xD8][len: u32 LE][payload][fnv1a64(payload)]`.
//! The event loop calls [`FramedConn::fill`] on readable events,
//! drains complete frames with [`FramedConn::next_frame`], queues
//! replies with [`FramedConn::queue_payload`], and calls
//! [`FramedConn::flush`] on writable events; `WouldBlock` is absorbed
//! at this layer so callers only see progress or hard errors.
//!
//! Oversized and malformed headers are detected from the first five
//! bytes — before any payload is buffered — so a hostile length
//! prefix cannot make the server allocate.

use siren_hash::fnv1a64;
use siren_store::{encode_frame, FRAME_MAGIC};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Read at most this much per `fill` call, so one firehosing
/// connection cannot starve the rest of its event loop.
const READ_QUANTUM: usize = 256 * 1024;
/// Compact buffers once the consumed prefix crosses this size.
const COMPACT_AT: usize = 64 * 1024;

/// Typed framing violation found in the inbound buffer. The owner
/// decides the protocol-level response (error frame, close, counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameParseError {
    /// First byte of a frame wasn't the magic.
    BadMagic(u8),
    /// Declared payload length exceeds the caller's cap.
    TooLarge(u32),
    /// Payload checksum mismatch.
    BadChecksum,
}

/// One buffered, framed, non-blocking connection.
#[derive(Debug)]
pub struct FramedConn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    rpos: usize,
    wbuf: Vec<u8>,
    wpos: usize,
    eof: bool,
    last_progress: Instant,
}

impl FramedConn {
    /// Take ownership of `stream`, switching it to non-blocking mode.
    pub fn new(stream: TcpStream) -> io::Result<FramedConn> {
        stream.set_nonblocking(true)?;
        Ok(FramedConn {
            stream,
            rbuf: Vec::new(),
            rpos: 0,
            wbuf: Vec::new(),
            wpos: 0,
            eof: false,
            last_progress: Instant::now(),
        })
    }

    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Peer closed its write side (clean EOF observed).
    pub fn is_eof(&self) -> bool {
        self.eof
    }

    /// Instant of the last successful read or write on the socket —
    /// the idle-deadline anchor.
    pub fn last_progress(&self) -> Instant {
        self.last_progress
    }

    /// Unconsumed inbound bytes (a partial frame when `next_frame`
    /// returned `None` at EOF means the peer died mid-frame).
    pub fn buffered_input(&self) -> usize {
        self.rbuf.len() - self.rpos
    }

    /// Bytes queued but not yet written.
    pub fn pending_output(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    pub fn wants_write(&self) -> bool {
        self.pending_output() > 0
    }

    /// Pull whatever the socket has, up to a fairness quantum. Returns
    /// bytes added; 0 with [`FramedConn::is_eof`] set means the peer
    /// closed. `WouldBlock` is not an error.
    pub fn fill(&mut self) -> io::Result<usize> {
        let mut added = 0;
        let mut chunk = [0u8; 16 * 1024];
        while added < READ_QUANTUM {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    self.last_progress = Instant::now();
                    added += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(added)
    }

    fn compact_read(&mut self) {
        if self.rpos == self.rbuf.len() {
            self.rbuf.clear();
            self.rpos = 0;
        } else if self.rpos >= COMPACT_AT {
            self.rbuf.drain(..self.rpos);
            self.rpos = 0;
        }
    }

    /// Consume exactly `n` raw bytes from the inbound buffer (the
    /// fixed-size handshake reads), or `None` until they arrive.
    pub fn take_exact(&mut self, n: usize) -> Option<Vec<u8>> {
        if self.buffered_input() < n {
            return None;
        }
        let bytes = self.rbuf[self.rpos..self.rpos + n].to_vec();
        self.rpos += n;
        self.compact_read();
        Some(bytes)
    }

    /// Parse the next complete frame out of the inbound buffer.
    /// `Ok(None)` means more bytes are needed; errors poison the
    /// stream position and the owner is expected to close.
    pub fn next_frame(&mut self, max_payload: u32) -> Result<Option<Vec<u8>>, FrameParseError> {
        let buf = &self.rbuf[self.rpos..];
        let Some(&magic) = buf.first() else {
            return Ok(None);
        };
        if magic != FRAME_MAGIC {
            return Err(FrameParseError::BadMagic(magic));
        }
        if buf.len() < 5 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(buf[1..5].try_into().unwrap());
        if len > max_payload {
            return Err(FrameParseError::TooLarge(len));
        }
        let total = 5 + len as usize + 8;
        if buf.len() < total {
            return Ok(None);
        }
        let payload = &buf[5..5 + len as usize];
        let stored = u64::from_le_bytes(buf[5 + len as usize..total].try_into().unwrap());
        if fnv1a64(payload) != stored {
            return Err(FrameParseError::BadChecksum);
        }
        let payload = payload.to_vec();
        self.rpos += total;
        self.compact_read();
        Ok(Some(payload))
    }

    /// Queue `payload` wrapped in a frame for writing.
    pub fn queue_payload(&mut self, payload: &[u8]) {
        self.wbuf.extend_from_slice(&encode_frame(payload));
    }

    /// Write as much queued output as the socket accepts. Returns
    /// `true` when the outbound buffer drained completely.
    pub fn flush(&mut self) -> io::Result<bool> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.wpos += n;
                    self.last_progress = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
            Ok(true)
        } else {
            if self.wpos >= COMPACT_AT {
                self.wbuf.drain(..self.wpos);
                self.wpos = 0;
            }
            Ok(false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, FramedConn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        (peer, FramedConn::new(server_side).unwrap())
    }

    fn fill_until(conn: &mut FramedConn, want: usize) {
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while conn.buffered_input() < want {
            conn.fill().unwrap();
            assert!(Instant::now() < deadline, "peer bytes never arrived");
            std::thread::yield_now();
        }
    }

    #[test]
    fn parses_frames_incrementally_across_partial_reads() {
        let (mut peer, mut conn) = pair();
        let frames: Vec<Vec<u8>> = vec![b"one".to_vec(), vec![0u8; 10_000], b"three".to_vec()];
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&encode_frame(f));
        }
        // Send everything except the last 3 bytes, then the tail.
        peer.write_all(&wire[..wire.len() - 3]).unwrap();
        fill_until(&mut conn, wire.len() - 3);
        assert_eq!(conn.next_frame(1 << 20).unwrap().unwrap(), frames[0]);
        assert_eq!(conn.next_frame(1 << 20).unwrap().unwrap(), frames[1]);
        assert_eq!(conn.next_frame(1 << 20).unwrap(), None, "third is partial");
        assert!(conn.buffered_input() > 0);

        peer.write_all(&wire[wire.len() - 3..]).unwrap();
        fill_until(&mut conn, encode_frame(&frames[2]).len());
        assert_eq!(conn.next_frame(1 << 20).unwrap().unwrap(), frames[2]);
        assert_eq!(conn.next_frame(1 << 20).unwrap(), None);
        assert_eq!(conn.buffered_input(), 0);
    }

    #[test]
    fn handshake_bytes_come_out_before_frames() {
        let (mut peer, mut conn) = pair();
        let mut wire = b"SRNQxxxx".to_vec();
        wire.extend_from_slice(&encode_frame(b"req"));
        peer.write_all(&wire).unwrap();
        fill_until(&mut conn, wire.len());
        assert_eq!(conn.take_exact(8).unwrap(), b"SRNQxxxx");
        assert_eq!(conn.next_frame(1 << 20).unwrap().unwrap(), b"req");
    }

    #[test]
    fn oversized_header_is_refused_before_payload_arrives() {
        let (mut peer, mut conn) = pair();
        let mut header = vec![FRAME_MAGIC];
        header.extend_from_slice(&u32::MAX.to_le_bytes());
        peer.write_all(&header).unwrap();
        fill_until(&mut conn, 5);
        assert_eq!(
            conn.next_frame(1 << 20),
            Err(FrameParseError::TooLarge(u32::MAX))
        );
    }

    #[test]
    fn bad_magic_and_bad_checksum_are_typed() {
        let (mut peer, mut conn) = pair();
        peer.write_all(&[0x55]).unwrap();
        fill_until(&mut conn, 1);
        assert_eq!(
            conn.next_frame(1 << 20),
            Err(FrameParseError::BadMagic(0x55))
        );

        let (mut peer, mut conn) = pair();
        let mut wire = encode_frame(b"payload");
        let flip = wire.len() - 10; // inside the payload
        wire[flip] ^= 0xFF;
        peer.write_all(&wire).unwrap();
        fill_until(&mut conn, wire.len());
        assert_eq!(conn.next_frame(1 << 20), Err(FrameParseError::BadChecksum));
    }

    #[test]
    fn eof_is_observed_after_peer_close() {
        let (peer, mut conn) = pair();
        drop(peer);
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while !conn.is_eof() {
            conn.fill().unwrap();
            assert!(Instant::now() < deadline);
            std::thread::yield_now();
        }
        assert_eq!(conn.next_frame(1 << 20).unwrap(), None);
        assert_eq!(conn.buffered_input(), 0, "clean close, no partial frame");
    }

    #[test]
    fn backpressured_writes_complete_once_the_peer_drains() {
        let (mut peer, mut conn) = pair();
        let big = vec![0xABu8; 4 * 1024 * 1024];
        conn.queue_payload(&big);
        let expected = encode_frame(&big);

        // Peer isn't reading: flush makes partial progress then parks.
        let drained = conn.flush().unwrap();
        assert!(!drained || conn.pending_output() == 0);

        let reader = std::thread::spawn(move || {
            let mut got = Vec::new();
            peer.read_to_end(&mut got).unwrap();
            got
        });
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while !conn.flush().unwrap() {
            assert!(Instant::now() < deadline, "write never completed");
            std::thread::yield_now();
        }
        assert!(!conn.wants_write());
        drop(conn);
        assert_eq!(reader.join().unwrap(), expected);
    }
}
