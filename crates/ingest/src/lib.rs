//! # siren-ingest — sharded, multi-threaded ingest service
//!
//! The paper's collection side is fleet-scale: thousands of nodes emit
//! UDP datagrams concurrently, and the receiver tier must keep up with
//! whatever the network delivers. This crate is the repository's one
//! receiver: a subsystem that scales with cores, and with one shard is
//! the paper's single receiver process:
//!
//! ```text
//!                      ┌─────────────────────────────────────────────┐
//!  messages ──▶ router │ shard 0: channel ▶ reassembler ▶ wal ▶ fold │──┐
//!   (job-keyed  hash)  │ shard 1: channel ▶ reassembler ▶ wal ▶ fold │──┼─▶ ordered merge
//!                      │   ⋮           (worker thread per shard)     │──┘
//!                      └─────────────────────────────────────────────┘
//! ```
//!
//! * [`ShardRouter`] hashes the job id so every datagram of one job —
//!   including the SCRIPT-layer rows consolidation must pair with their
//!   interpreter — lands on the same shard.
//! * Each shard worker owns a `Reassembler`, a WAL partition (a
//!   `StorageBackend`: `WalBackend` at [`IngestConfig::wal_base`], else
//!   `NullBackend`) and a `siren_consolidate::Consolidator`, behind a
//!   bounded channel. Every [`IngestConfig::batch_size`] completed
//!   messages are appended to the WAL and flushed as one batch, then
//!   folded into the `Consolidator` — the paper's consolidating
//!   receiver, folding while it receives. On spawn, the rows the WAL
//!   replays seed the fold, so a resumed epoch is a re-feed.
//! * Producers never lose data to a slow shard: when a channel fills,
//!   the push degrades to a blocking send and the stall is counted in
//!   [`ShardStats::backpressure_waits`] — observability instead of the
//!   receiver-side load shedding the UDP tier does.
//! * [`IngestService::finish`] drains each shard's channel, runs what is
//!   left of its fold (the script merge and the sort) in parallel, and
//!   merges the per-shard outputs into one order-stable record vector
//!   that is **identical, record for record, to one reassembler, one
//!   database and one `consolidate` over the same messages** (the
//!   cross-shard merge uses the same total order consolidation sorts by,
//!   and job-keyed routing makes shard outputs disjoint in that order).
//!
//! `tests/properties.rs` in the umbrella crate asserts that equality
//! against a test-side reference fold for shard counts 1, 2, and 8,
//! with and without injected datagram loss, and for resumed shards
//! against the fold of what their partitions hold.

pub mod metrics;
pub mod service;

pub use metrics::IngestMetrics;
pub use service::{
    IngestConfig, IngestProducer, IngestResult, IngestService, IngestTraceContext, ShardStats,
};
// The router is a protocol-level concept shared with the transport tier;
// it lives in siren-wire so the sender-side socket choice and the
// worker-side partition can never disagree.
pub use siren_wire::ShardRouter;
