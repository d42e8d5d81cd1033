//! The stream envelope.
//!
//! After the hello exchange, every frame payload is an **envelope**
//! wrapping one request or response body:
//!
//! ```text
//! [stream id: u32 LE][flags: u8][body …]
//! ```
//!
//! * **stream id** — chosen by the client per logical exchange; the
//!   server echoes it on every frame of the matching reply, so several
//!   cursor streams (and interleaved single-frame requests) multiplex over
//!   one connection. Id `0` is reserved for connection-level server
//!   errors that could not be attributed to a request (unreadable
//!   envelope, idle deadline).
//! * **flags** — bit 0 ([`STREAM_FLAG_COMPRESSED`]): the body is
//!   LZ-compressed (`vendor/lz4_flex`, size-prepended) and the declared
//!   raw length is bounds-checked against [`MAX_FRAME_PAYLOAD`] before
//!   decompression allocates. Bit 1
//!   ([`STREAM_FLAG_ACCEPT_COMPRESSED`]), meaningful on requests:
//!   the sender is willing to receive compressed reply bodies — this is
//!   how compression is negotiated per connection without touching the
//!   fixed-layout hello. All other bits are reserved and draw
//!   [`QueryError::Malformed`].
//!
//! The body bytes are exactly [`QueryRequest::encode_traced`] /
//! [`QueryResponse::encode`]: the envelope never looks inside them.
//!
//! [`QueryRequest::encode_traced`]: crate::QueryRequest::encode_traced
//! [`QueryResponse::encode`]: crate::QueryResponse::encode

use crate::message::QueryError;
use crate::MAX_FRAME_PAYLOAD;

/// Envelope flag: the body is LZ-compressed (size-prepended).
pub const STREAM_FLAG_COMPRESSED: u8 = 0b0000_0001;
/// Envelope flag on requests: reply bodies may be compressed.
pub const STREAM_FLAG_ACCEPT_COMPRESSED: u8 = 0b0000_0010;
const KNOWN_FLAGS: u8 = STREAM_FLAG_COMPRESSED | STREAM_FLAG_ACCEPT_COMPRESSED;

/// Stream id for connection-level frames not attributable to a
/// request.
pub const CONNECTION_STREAM: u32 = 0;

/// Bytes of envelope header preceding the body.
pub const STREAM_HEADER_LEN: usize = 5;

/// Bodies at least this large are considered for compression by
/// default; smaller ones never shrink enough to beat the added copy.
pub const DEFAULT_COMPRESS_MIN_BYTES: usize = 4096;

/// A decoded stream envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamFrame {
    /// The exchange this frame belongs to.
    pub stream_id: u32,
    /// The sender set [`STREAM_FLAG_ACCEPT_COMPRESSED`].
    pub accept_compressed: bool,
    /// The body arrived compressed (already inflated in `body`).
    pub was_compressed: bool,
    /// The inner request/response body.
    pub body: Vec<u8>,
}

/// Wrap `body` in a stream envelope. When `compress_min` is `Some(n)` and
/// the body is at least `n` bytes, the body is compressed — but only
/// kept if compression actually shrank it (incompressible bodies ship
/// raw, flag clear, so the reader never pays inflation for nothing).
pub fn encode_stream_frame(
    stream_id: u32,
    body: &[u8],
    accept_compressed: bool,
    compress_min: Option<usize>,
) -> Vec<u8> {
    let mut flags = 0u8;
    if accept_compressed {
        flags |= STREAM_FLAG_ACCEPT_COMPRESSED;
    }
    let mut out = Vec::with_capacity(STREAM_HEADER_LEN + body.len());
    out.extend_from_slice(&stream_id.to_le_bytes());
    if let Some(min) = compress_min {
        if body.len() >= min {
            let packed = lz4_flex::compress_prepend_size(body);
            if packed.len() < body.len() {
                out.push(flags | STREAM_FLAG_COMPRESSED);
                out.extend_from_slice(&packed);
                return out;
            }
        }
    }
    out.push(flags);
    out.extend_from_slice(body);
    out
}

/// Decode a stream envelope, inflating a compressed body. Every malformed
/// shape — short header, reserved flag bits, a declared raw length
/// over [`MAX_FRAME_PAYLOAD`], torn compressed bytes — draws a typed
/// error before any oversized allocation can happen.
pub fn decode_stream_frame(payload: &[u8]) -> Result<StreamFrame, QueryError> {
    if payload.len() < STREAM_HEADER_LEN {
        return Err(QueryError::Malformed(
            "v3 frame shorter than its stream envelope header".into(),
        ));
    }
    let stream_id = u32::from_le_bytes(payload[..4].try_into().unwrap());
    let flags = payload[4];
    if flags & !KNOWN_FLAGS != 0 {
        return Err(QueryError::Malformed(format!(
            "reserved stream envelope flag bits set: {flags:#04x}"
        )));
    }
    let raw = &payload[STREAM_HEADER_LEN..];
    let was_compressed = flags & STREAM_FLAG_COMPRESSED != 0;
    let body = if was_compressed {
        let declared = lz4_flex::declared_len(raw)
            .map_err(|e| QueryError::Malformed(format!("compressed stream body: {e}")))?;
        if declared > MAX_FRAME_PAYLOAD {
            return Err(QueryError::FrameTooLarge(declared));
        }
        lz4_flex::decompress_size_prepended(raw)
            .map_err(|e| QueryError::Malformed(format!("compressed stream body: {e}")))?
    } else {
        raw.to_vec()
    };
    Ok(StreamFrame {
        stream_id,
        accept_compressed: flags & STREAM_FLAG_ACCEPT_COMPRESSED != 0,
        was_compressed,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_raw_and_compressed() {
        let body = b"tiny".to_vec();
        let wire = encode_stream_frame(9, &body, true, Some(DEFAULT_COMPRESS_MIN_BYTES));
        let frame = decode_stream_frame(&wire).unwrap();
        assert_eq!(frame.stream_id, 9);
        assert!(frame.accept_compressed);
        assert!(!frame.was_compressed, "under the threshold ships raw");
        assert_eq!(frame.body, body);

        let big = b"row row row your batch ".repeat(600);
        let wire = encode_stream_frame(u32::MAX, &big, false, Some(DEFAULT_COMPRESS_MIN_BYTES));
        assert!(wire.len() < big.len() / 2, "repetitive body must shrink");
        let frame = decode_stream_frame(&wire).unwrap();
        assert!(frame.was_compressed);
        assert!(!frame.accept_compressed);
        assert_eq!(frame.stream_id, u32::MAX);
        assert_eq!(frame.body, big);
    }

    #[test]
    fn incompressible_bodies_ship_raw_even_past_the_threshold() {
        let mut noise = Vec::with_capacity(8192);
        let mut seed = 0x2545F4914F6CDD1Du64;
        while noise.len() < 8192 {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            noise.extend_from_slice(&seed.to_le_bytes());
        }
        let wire = encode_stream_frame(1, &noise, false, Some(0));
        let frame = decode_stream_frame(&wire).unwrap();
        assert!(!frame.was_compressed);
        assert_eq!(frame.body, noise);
    }

    #[test]
    fn reserved_flags_and_short_headers_are_typed() {
        assert!(matches!(
            decode_stream_frame(&[1, 0, 0]),
            Err(QueryError::Malformed(_))
        ));
        let mut wire = encode_stream_frame(3, b"ok", false, None);
        wire[4] |= 0b1000_0000;
        assert!(matches!(
            decode_stream_frame(&wire),
            Err(QueryError::Malformed(_))
        ));
    }

    #[test]
    fn inflated_declared_length_is_capped_before_allocation() {
        let mut wire = vec![0, 0, 0, 0, STREAM_FLAG_COMPRESSED];
        wire.extend_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            decode_stream_frame(&wire),
            Err(QueryError::FrameTooLarge(n)) if n == MAX_FRAME_PAYLOAD + 1
        ));
    }

    #[test]
    fn torn_compressed_bodies_are_typed() {
        let big = b"abcdabcdabcd".repeat(1000);
        let wire = encode_stream_frame(5, &big, false, Some(0));
        let frame = decode_stream_frame(&wire).unwrap();
        assert!(frame.was_compressed);
        for cut in STREAM_HEADER_LEN..wire.len() {
            assert!(
                matches!(
                    decode_stream_frame(&wire[..cut]),
                    Err(QueryError::Malformed(_) | QueryError::FrameTooLarge(_))
                ),
                "cut at {cut} must be typed"
            );
        }
    }
}
