//! Storage-layer metric handles.
//!
//! One bundle of `Arc` handles covering the segmented store's span
//! points: segment seal latency and compaction duration/volume.
//! Registered under `store.*` when the caller shares a [`Registry`]; a
//! detached bundle (private, unregistered atomics) otherwise, so the
//! instrumented paths never branch on an `Option`.

use siren_obs::{Counter, Histogram, Registry, SpanBuffer};
use std::sync::Arc;

/// `Arc` handles for every `store.*` metric.
#[derive(Debug, Clone)]
pub struct StoreMetrics {
    /// When set, each open records a root `store.open` span and each
    /// completed compaction pass a root `store.compaction` span into
    /// this flight recorder (attached via [`StoreMetrics::with_spans`];
    /// detached bundles record none).
    pub spans: Option<Arc<SpanBuffer>>,
    /// `store.segment_seal_ns` — time to write and catalog one sealed
    /// batch.
    pub segment_seal_ns: Arc<Histogram>,
    /// `store.segments_sealed` — sealed segments written.
    pub segments_sealed: Arc<Counter>,
    /// `store.compaction_ns` — duration of completed compaction passes.
    pub compaction_ns: Arc<Histogram>,
    /// `store.compaction_bytes` — bytes written into runs.
    pub compaction_bytes: Arc<Counter>,
    /// `store.compaction_passes` — completed passes that merged files.
    pub compaction_passes: Arc<Counter>,
    /// `store.io_errors` — survivable filesystem failures the store
    /// absorbed (superseded-file unlinks, tmp cleanup). Deliberate
    /// aborts — fsync or segment-write failure on the commit path —
    /// are *not* counted here: those propagate as errors (see
    /// DESIGN.md, "Deliberate aborts").
    pub io_errors: Arc<Counter>,
}

impl StoreMetrics {
    /// Register the `store.*` handles in `registry`.
    pub fn register(registry: &Registry) -> Self {
        Self {
            spans: None,
            segment_seal_ns: registry.histogram("store.segment_seal_ns"),
            segments_sealed: registry.counter("store.segments_sealed"),
            compaction_ns: registry.histogram("store.compaction_ns"),
            compaction_bytes: registry.counter("store.compaction_bytes"),
            compaction_passes: registry.counter("store.compaction_passes"),
            io_errors: registry.counter("store.io_errors"),
        }
    }

    /// Attach a span flight recorder: opens will record root
    /// `store.open` spans into it, annotated with the files, records and
    /// bytes read and the reader threads used, and completed compaction
    /// passes root `store.compaction` spans.
    pub fn with_spans(mut self, spans: Arc<SpanBuffer>) -> Self {
        self.spans = Some(spans);
        self
    }

    /// Detached handles: same recording behavior, visible to nobody.
    pub fn detached() -> Self {
        Self {
            spans: None,
            segment_seal_ns: Arc::new(Histogram::new()),
            segments_sealed: Arc::new(Counter::new()),
            compaction_ns: Arc::new(Histogram::new()),
            compaction_bytes: Arc::new(Counter::new()),
            compaction_passes: Arc::new(Counter::new()),
            io_errors: Arc::new(Counter::new()),
        }
    }
}

impl Default for StoreMetrics {
    fn default() -> Self {
        Self::detached()
    }
}
