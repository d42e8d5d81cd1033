//! # siren-proto — the SIREN query wire protocol
//!
//! The service daemon (`siren-service`) and the federation router
//! (`siren-federation`) answer analyst queries over TCP; this crate is
//! the wire contract both sides speak, kept free of any server
//! machinery so clients, tooling, and tests can depend on it alone.
//! There is one protocol version, [`PROTOCOL_VERSION`] (3).
//!
//! ## Frame
//!
//! Every unit on the wire travels in exactly the frame `siren-store`'s
//! WAL uses ([`siren_store::encode_frame`]; one seam, not two
//! framings):
//!
//! ```text
//! [0xD8 magic][len: u32 LE][payload: len bytes][FNV-1a/64(payload): u64 LE]
//! ```
//!
//! The read side ([`read_frame`]) validates the magic and bounds-checks
//! `len` against [`MAX_FRAME_PAYLOAD`] **before** allocating, so a
//! hostile length prefix can never balloon memory, and verifies the
//! checksum before handing the payload to the typed codec.
//!
//! ## Hello
//!
//! A connection opens with one client hello frame (`b"SRNQ"` + an
//! offered `[min, max]` version range, little-endian `u16`s). If the
//! range contains 3 the server answers with a hello-ack frame
//! (`b"SRNQ"` + `3u16`); otherwise it sends a plain
//! [`QueryError::UnsupportedVersion`]` { 3, 3 }` error frame and closes
//! ([`negotiate`]). A hello that does not decode draws a plain
//! [`QueryError::Malformed`] frame and a close.
//!
//! ## Envelope
//!
//! Every frame after the hello is a **stream envelope**
//! (`[stream id: u32][flags: u8][body]` — see [`stream`]) around one
//! [`QueryRequest`] (client → server) or [`QueryResponse`] (server →
//! client) body. The stream id lets several cursor streams and
//! single-frame requests interleave over one connection ([`MuxClient`] /
//! [`MuxStream`]; the sequential [`SirenClient`] uses a fresh id per
//! exchange), and the flags negotiate per-request LZ compression of
//! large reply bodies ([`STREAM_FLAG_ACCEPT_COMPRESSED`]). Every
//! request body ends in a trace id (`0` = untraced).
//!
//! ## Requests
//!
//! * `Plan` — a composable [`QueryPlan`] (source, [`Selection`],
//!   projection, order, limit) answered as a stream of bounded
//!   [`RowBatch`] frames, an optional [`QueryWarning`], and a
//!   [`QueryResponse::StreamEnd`] that is either *end of rows* or a
//!   cursor id; `FetchCursor` / `CloseCursor` resume or release it.
//!   Cursors pin the snapshot the plan started on. The client's
//!   [`SirenClient::by_job`] and [`SirenClient::neighbors`] are plans.
//! * `LibraryUsage`, `Status`, `Metrics`, `Traces` — single-frame
//!   answers no plan expresses.
//! * `SubscribeEpochs` — replication: checksummed epoch batches, commit
//!   markers, and an end frame naming the next epoch to ask for.
//!
//! Request tags 1 and 3 are reserved (they carried retired one-shots)
//! and draw [`QueryError::UnknownRequest`] with the connection kept.
//! Decoders return [`QueryError::Malformed`] on any structural
//! inconsistency and never panic — property tests in
//! `tests/roundtrip.rs` fuzz every variant plus truncations and bit
//! flips.

pub mod client;
pub mod frame;
pub mod message;
pub mod mux;
pub mod plan;
pub mod stream;

pub use client::{ClientError, EpochStream, EpochStreamEvent, RetryPolicy, RowStream, SirenClient};
pub use frame::{read_frame, write_frame, FrameError, MAX_FRAME_PAYLOAD};
pub use message::{
    decode_hello, decode_hello_ack, encode_hello, encode_hello_ack, fold_epoch_checksum, negotiate,
    EpochBatch, NeighborRow, QueryError, QueryRequest, QueryResponse, QueryWarning, RecordRow,
    Selection, ShardKey, StatusInfo, HELLO_MAGIC,
};
pub use mux::{MuxClient, MuxStream};
pub use plan::{
    Order, PlanRow, PlanSource, Projection, QueryPlan, RowBatch, DEFAULT_BATCH_ROWS,
    DEFAULT_PAGE_ROWS, MAX_BATCH_ROWS, MAX_PAGE_ROWS,
};
pub use stream::{
    decode_stream_frame, encode_stream_frame, StreamFrame, CONNECTION_STREAM,
    DEFAULT_COMPRESS_MIN_BYTES, STREAM_FLAG_ACCEPT_COMPRESSED, STREAM_FLAG_COMPRESSED,
    STREAM_HEADER_LEN,
};
// The typed metrics snapshot served by `QueryRequest::Metrics` and the
// trace types served by `QueryRequest::Traces` live in `siren-obs`;
// re-exported so wire users need only this crate.
pub use siren_obs::{
    GaugeSnapshot, HistogramSnapshot, MetricsSnapshot, SlowQueryEntry, SpanId, SpanRecord,
    TraceFilter, TraceId, TraceTree,
};

/// Lowest protocol version this build speaks — the only one.
pub const PROTOCOL_VERSION_MIN: u16 = PROTOCOL_VERSION;
/// The protocol version this build speaks.
pub const PROTOCOL_VERSION: u16 = 3;
