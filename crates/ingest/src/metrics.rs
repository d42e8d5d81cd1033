//! Ingest-tier metric handles.
//!
//! One bundle of `Arc` handles covering the ingest pipeline's span
//! points: datagram receipt, reassembly, batched WAL-backed inserts,
//! backpressure stalls, and replay-on-spawn. Registered under
//! `ingest.*` when the caller shares a [`Registry`]; a detached bundle
//! otherwise, so the shard workers never branch on an `Option`.
//!
//! The registry counters are *cumulative across service instances* (a
//! daemon spawns one [`crate::IngestService`] per epoch against one
//! registry), while [`crate::ShardStats`] stays per-campaign and
//! per-shard — the two views answer different questions and are both
//! kept.

use siren_obs::{Counter, Histogram, Registry};
use std::sync::Arc;

/// `Arc` handles for every `ingest.*` metric.
#[derive(Debug, Clone)]
pub struct IngestMetrics {
    /// `ingest.messages_received` — datagram-level messages delivered to
    /// shard workers.
    pub messages_received: Arc<Counter>,
    /// `ingest.reassembled` — logical messages fully reassembled.
    pub reassembled: Arc<Counter>,
    /// `ingest.incomplete` — logical messages abandoned with lost chunks.
    pub incomplete: Arc<Counter>,
    /// `ingest.duplicates` — duplicate chunks observed.
    pub duplicates: Arc<Counter>,
    /// `ingest.inconsistent` — chunks with inconsistent totals.
    pub inconsistent: Arc<Counter>,
    /// `ingest.rows_stored` — rows inserted into shard partitions
    /// (excludes rows replayed from a prior run's store).
    pub rows_stored: Arc<Counter>,
    /// `ingest.batches` — batched insert calls issued.
    pub batches: Arc<Counter>,
    /// `ingest.backpressure_waits` — producer stalls on full shard
    /// channels.
    pub backpressure_waits: Arc<Counter>,
    /// `ingest.sentinels` — end-of-campaign sentinels seen by routers.
    pub sentinels: Arc<Counter>,
    /// `ingest.replayed_records` — records recovered from persistent
    /// shard stores on spawn.
    pub replayed_records: Arc<Counter>,
    /// `ingest.replay_tail_bytes` — bytes dropped from torn WAL tails on
    /// spawn.
    pub replay_tail_bytes: Arc<Counter>,
    /// `ingest.reassembly_ns` — per-datagram reassembler push latency.
    pub reassembly_ns: Arc<Histogram>,
    /// `ingest.batch_insert_ns` — latency of one batch into a shard
    /// partition: row conversion, WAL append and flush (the fold that
    /// follows is not included).
    pub batch_insert_ns: Arc<Histogram>,
}

impl IngestMetrics {
    /// Register the `ingest.*` handles in `registry`.
    pub fn register(registry: &Registry) -> Self {
        Self {
            messages_received: registry.counter("ingest.messages_received"),
            reassembled: registry.counter("ingest.reassembled"),
            incomplete: registry.counter("ingest.incomplete"),
            duplicates: registry.counter("ingest.duplicates"),
            inconsistent: registry.counter("ingest.inconsistent"),
            rows_stored: registry.counter("ingest.rows_stored"),
            batches: registry.counter("ingest.batches"),
            backpressure_waits: registry.counter("ingest.backpressure_waits"),
            sentinels: registry.counter("ingest.sentinels"),
            replayed_records: registry.counter("ingest.replayed_records"),
            replay_tail_bytes: registry.counter("ingest.replay_tail_bytes"),
            reassembly_ns: registry.histogram("ingest.reassembly_ns"),
            batch_insert_ns: registry.histogram("ingest.batch_insert_ns"),
        }
    }

    /// Detached handles: same recording behavior, visible to nobody.
    pub fn detached() -> Self {
        Self {
            messages_received: Arc::new(Counter::new()),
            reassembled: Arc::new(Counter::new()),
            incomplete: Arc::new(Counter::new()),
            duplicates: Arc::new(Counter::new()),
            inconsistent: Arc::new(Counter::new()),
            rows_stored: Arc::new(Counter::new()),
            batches: Arc::new(Counter::new()),
            backpressure_waits: Arc::new(Counter::new()),
            sentinels: Arc::new(Counter::new()),
            replayed_records: Arc::new(Counter::new()),
            replay_tail_bytes: Arc::new(Counter::new()),
            reassembly_ns: Arc::new(Histogram::new()),
            batch_insert_ns: Arc::new(Histogram::new()),
        }
    }
}

impl Default for IngestMetrics {
    fn default() -> Self {
        Self::detached()
    }
}
