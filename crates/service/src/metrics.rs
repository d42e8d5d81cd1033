//! The daemon's metric handles and its per-daemon [`Registry`].
//!
//! One [`ServiceMetrics`] bundle is created per [`SirenDaemon`]
//! (never a process-global static: parallel daemons in one test binary
//! must not cross-pollute). It owns the `Arc<Registry>` every tier of
//! the pipeline registers into — the store via
//! [`siren_store::StoreMetrics`], ingest via
//! [`siren_ingest::IngestMetrics`], and the daemon/server/cursor
//! handles below — so a single [`Registry::snapshot`] covers the whole
//! pipeline and backs both the wire `Metrics` reply and the in-process
//! [`SirenDaemon::metrics_snapshot`](crate::SirenDaemon::metrics_snapshot).
//!
//! [`SirenDaemon`]: crate::SirenDaemon

use siren_obs::{Counter, Gauge, Histogram, Registry, TraceStore};
use std::sync::Arc;

/// `Arc` handles for the `service.*`, `query.*`, and `cursor.*`
/// metrics, plus the registry they live in.
#[derive(Debug, Clone)]
pub(crate) struct ServiceMetrics {
    /// The daemon-wide registry (store and ingest handles register here
    /// too).
    pub registry: Arc<Registry>,
    /// The daemon-wide trace flight recorder: every tier records spans
    /// into its shared buffer, and the wire `Traces` request reads
    /// reassembled trees back out of it. Cloning shares the buffer.
    pub traces: TraceStore,

    // ---- epoch lifecycle ----
    /// `service.commit_ns` — durable epoch commit (sealed segment
    /// append, fsync included).
    pub commit_ns: Arc<Histogram>,
    /// `service.publish_ns` — successor-snapshot build + pointer swap.
    pub publish_ns: Arc<Histogram>,
    /// `service.epochs_committed` — epochs durably committed.
    pub epochs_committed: Arc<Counter>,
    /// `service.records_committed` — consolidated records committed.
    pub records_committed: Arc<Counter>,
    /// `service.epoch_tag_mismatches` — sentinels naming another epoch.
    pub epoch_tag_mismatches: Arc<Counter>,
    /// `service.io_errors` — survivable filesystem failures in the
    /// service tier (stale-WAL unlinks after the data is already
    /// durable elsewhere). Commit-path failures are never counted
    /// here: they propagate as typed errors, because continuing past
    /// a failed fsync would un-durable the epoch.
    pub io_errors: Arc<Counter>,
    /// `service.quiet_period_fallbacks` — epochs closed by silence
    /// instead of a sentinel quorum.
    pub quiet_period_fallbacks: Arc<Counter>,
    /// `service.merge_ns` — background snapshot layer merges.
    pub merge_ns: Arc<Histogram>,
    /// `service.snapshot_merges` — completed background merges.
    pub snapshot_merges: Arc<Counter>,

    // ---- query server ----
    /// `query.connections_accepted` — connections taken into the pool.
    pub connections_accepted: Arc<Counter>,
    /// `query.connections_refused` — connections shed, queue full.
    pub connections_refused: Arc<Counter>,
    /// `query.requests` — protocol requests answered (errors included).
    pub requests: Arc<Counter>,
    /// `query.negotiated_v3` — connections whose hello was
    /// acknowledged (the one protocol version).
    pub negotiated_v3: Arc<Counter>,
    /// `query.queue_wait_ns` — accepted connection's wait for a worker.
    pub queue_wait_ns: Arc<Histogram>,
    /// `query.exec_ns` — request execution, decode to reply written.
    pub exec_ns: Arc<Histogram>,
    /// `query.batch_serialize_ns` — encoding one row-batch frame.
    pub batch_serialize_ns: Arc<Histogram>,
    /// `query.fuzzy_scan_fallbacks` — neighbor plans whose n-gram index
    /// gave up pruning and full-scanned a layer corpus.
    pub fuzzy_scan_fallbacks: Arc<Counter>,

    // ---- reactor serving tier ----
    /// `net.active_connections` — connections registered with an event
    /// loop right now (the gauge keeps its high-water mark).
    pub active_connections: Arc<Gauge>,
    /// `reactor.wakeups` — event-loop wakeups (readiness, notify, or
    /// timer expiry).
    pub reactor_wakeups: Arc<Counter>,
    /// `stream.compressed_frames` — v3 reply frames shipped with an
    /// LZ-compressed body.
    pub compressed_frames: Arc<Counter>,
    /// `stream.compressed_bytes_saved` — raw-minus-wire bytes across
    /// those frames.
    pub compressed_bytes_saved: Arc<Counter>,
    /// `prefetch.pages_built` — next cursor pages precomputed at park
    /// time.
    pub prefetch_pages_built: Arc<Counter>,
    /// `prefetch.pages_served` — cursor fetches answered from a
    /// prefetched page.
    pub prefetch_pages_served: Arc<Counter>,

    // ---- replication ----
    /// `repl.subscriptions` — `SubscribeEpochs` streams this daemon
    /// has served as a leader.
    pub repl_subscriptions: Arc<Counter>,
    /// `repl.epochs_shipped` — epochs this leader streamed to
    /// subscribers (commit markers sent).
    pub repl_epochs_shipped: Arc<Counter>,
    /// `repl.records_shipped` — records across those epochs.
    pub repl_records_shipped: Arc<Counter>,
    /// `repl.bytes_shipped` — encoded reply-body bytes of epoch
    /// batches, pre-compression.
    pub repl_bytes_shipped: Arc<Counter>,
    /// `repl.epochs_applied` — epochs this follower applied locally.
    pub repl_epochs_applied: Arc<Counter>,
    /// `repl.records_applied` — records across those epochs.
    pub repl_records_applied: Arc<Counter>,
    /// `repl.apply_ns` — follower apply latency per epoch (verify +
    /// durable commit + publish).
    pub repl_apply_ns: Arc<Histogram>,
    /// `repl.reconnects` — times the follower's loop re-dialed its
    /// leader (first connect included).
    pub repl_reconnects: Arc<Counter>,
    /// `repl.retries` — backoff sleeps the follower's loop took after
    /// a failed dial or torn subscription.
    pub repl_retries: Arc<Counter>,
    /// `repl.lag_epochs` — epochs the follower trails its leader by,
    /// as of the last subscription exchange.
    pub repl_lag_epochs: Arc<Gauge>,
    /// `repl.lag_bytes` — sealed-store bytes behind the leader, as of
    /// the last subscription exchange.
    pub repl_lag_bytes: Arc<Gauge>,
    /// `repl.high_water` — the next epoch this follower would request:
    /// everything below it is applied and durable locally.
    pub repl_high_water: Arc<Gauge>,

    // ---- cursor table ----
    /// `cursor.open` — cursors parked right now (high-water kept).
    pub cursors_open: Arc<Gauge>,
    /// `cursor.hits` — fetches that found their cursor parked.
    pub cursor_hits: Arc<Counter>,
    /// `cursor.misses` — fetches of unknown/expired cursor ids.
    pub cursor_misses: Arc<Counter>,
    /// `cursor.evicted_capacity` — evictions to admit a newer cursor.
    pub cursor_evicted_capacity: Arc<Counter>,
    /// `cursor.evicted_ttl` — evictions of idle-past-TTL cursors.
    pub cursor_evicted_ttl: Arc<Counter>,
}

impl ServiceMetrics {
    /// A fresh registry with every service-tier handle registered.
    pub(crate) fn new() -> Self {
        let registry = Arc::new(Registry::new());
        Self {
            registry: Arc::clone(&registry),
            traces: TraceStore::default(),
            commit_ns: registry.histogram("service.commit_ns"),
            publish_ns: registry.histogram("service.publish_ns"),
            epochs_committed: registry.counter("service.epochs_committed"),
            records_committed: registry.counter("service.records_committed"),
            epoch_tag_mismatches: registry.counter("service.epoch_tag_mismatches"),
            io_errors: registry.counter("service.io_errors"),
            quiet_period_fallbacks: registry.counter("service.quiet_period_fallbacks"),
            merge_ns: registry.histogram("service.merge_ns"),
            snapshot_merges: registry.counter("service.snapshot_merges"),
            connections_accepted: registry.counter("query.connections_accepted"),
            connections_refused: registry.counter("query.connections_refused"),
            requests: registry.counter("query.requests"),
            negotiated_v3: registry.counter("query.negotiated_v3"),
            queue_wait_ns: registry.histogram("query.queue_wait_ns"),
            exec_ns: registry.histogram("query.exec_ns"),
            batch_serialize_ns: registry.histogram("query.batch_serialize_ns"),
            fuzzy_scan_fallbacks: registry.counter("query.fuzzy_scan_fallbacks"),
            active_connections: registry.gauge("net.active_connections"),
            reactor_wakeups: registry.counter("reactor.wakeups"),
            compressed_frames: registry.counter("stream.compressed_frames"),
            compressed_bytes_saved: registry.counter("stream.compressed_bytes_saved"),
            prefetch_pages_built: registry.counter("prefetch.pages_built"),
            prefetch_pages_served: registry.counter("prefetch.pages_served"),
            repl_subscriptions: registry.counter("repl.subscriptions"),
            repl_epochs_shipped: registry.counter("repl.epochs_shipped"),
            repl_records_shipped: registry.counter("repl.records_shipped"),
            repl_bytes_shipped: registry.counter("repl.bytes_shipped"),
            repl_epochs_applied: registry.counter("repl.epochs_applied"),
            repl_records_applied: registry.counter("repl.records_applied"),
            repl_apply_ns: registry.histogram("repl.apply_ns"),
            repl_reconnects: registry.counter("repl.reconnects"),
            repl_retries: registry.counter("repl.retries"),
            repl_lag_epochs: registry.gauge("repl.lag_epochs"),
            repl_lag_bytes: registry.gauge("repl.lag_bytes"),
            repl_high_water: registry.gauge("repl.high_water"),
            cursors_open: registry.gauge("cursor.open"),
            cursor_hits: registry.counter("cursor.hits"),
            cursor_misses: registry.counter("cursor.misses"),
            cursor_evicted_capacity: registry.counter("cursor.evicted_capacity"),
            cursor_evicted_ttl: registry.counter("cursor.evicted_ttl"),
        }
    }

    /// Detached handles backed by a private registry nobody snapshots —
    /// for in-process plan execution outside any daemon.
    pub(crate) fn detached() -> Self {
        Self::new()
    }
}
