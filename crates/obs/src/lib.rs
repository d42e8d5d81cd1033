//! Lock-free metrics and lightweight tracing for the SIREN pipeline.
//!
//! Dependency-free by design: everything here is `std` atomics plus one
//! cold-path mutex in the slow-query ring. The crate provides four
//! primitives and one aggregation point:
//!
//! - [`Counter`] — monotonic, sharded across cache lines so concurrent
//!   writers on different threads do not bounce one hot line;
//! - [`Gauge`] — instantaneous level plus a high-water mark;
//! - [`Histogram`] — log-linear latency/size buckets (≤ 1/16 relative
//!   error), mergeable, with p50/p90/p99 and exact-max extraction;
//! - [`SlowQueryLog`] — capacity-bounded ring of the worst offenders;
//! - [`Registry`] — the named tree of all of the above, snapshotted
//!   cheaply into a typed [`MetricsSnapshot`] or a stable text
//!   exposition.
//!
//! Request tracing lives beside the metrics: a [`Span`] guard records
//! one stage of one request into an always-on bounded [`SpanBuffer`]
//! flight recorder, and a [`TraceStore`] reassembles whatever the ring
//! still holds into [`TraceTree`]s on demand (see the `trace` module
//! docs).
//!
//! Handles are registered once at component startup (`registry.counter
//! ("ingest.datagrams")`) and cached; the hot path touches only the
//! returned atomics. Components that can run standalone create a
//! private detached [`Registry`] when the caller does not supply one,
//! so instrumentation code never branches on an `Option`.

mod hist;
mod registry;
mod slow;
mod trace;

pub use hist::{bucket_bounds, bucket_index, Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{GaugeSnapshot, MetricsSnapshot, Registry};
pub use slow::{SlowQueryEntry, SlowQueryLog};
pub use trace::{
    Span, SpanBuffer, SpanId, SpanRecord, TraceFilter, TraceId, TraceStore, TraceTree,
    DEFAULT_SPAN_CAPACITY, DEFAULT_TRACE_LIMIT, FINGERPRINT_ANNOTATION, MAX_ANNOTATION_LEN,
    MAX_SPAN_ANNOTATIONS,
};

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Counter shard count; power of two so the thread slot is a mask.
const SHARDS: usize = 8;

static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Each thread is pinned round-robin to one shard for its lifetime;
    /// the assignment only needs to spread concurrent writers, not be
    /// fair.
    static THREAD_SHARD: usize =
        NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed) & (SHARDS - 1);
}

fn thread_shard() -> usize {
    THREAD_SHARD.with(|s| *s)
}

/// One cache line per shard so counters on different threads never
/// contend on the same line.
#[derive(Debug, Default)]
#[repr(align(64))]
struct PaddedU64(AtomicU64);

/// Monotonic counter, sharded across cache lines.
///
/// `add` touches a single shard owned (statistically) by the calling
/// thread; `get` sums all shards. Reads are racy across shards, which
/// is fine for telemetry: every increment is eventually visible and
/// none is lost.
#[derive(Debug, Default)]
pub struct Counter {
    shards: [PaddedU64; SHARDS],
}

impl Counter {
    /// Fresh zeroed counter (detached from any registry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.shards[thread_shard()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Current total across all shards.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// Instantaneous level with a high-water mark.
///
/// The level may go up and down (open cursors, in-flight requests); the
/// high-water mark records the largest level ever observed by a writer.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
    high_water: AtomicI64,
}

impl Gauge {
    /// Fresh zeroed gauge (detached from any registry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` (may be negative) and update the high-water mark.
    pub fn add(&self, delta: i64) {
        let now = self.value.fetch_add(delta, Ordering::Relaxed) + delta;
        self.high_water.fetch_max(now, Ordering::Relaxed);
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Decrement by one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Overwrite the level and update the high-water mark.
    pub fn set(&self, value: i64) {
        self.value.store(value, Ordering::Relaxed);
        self.high_water.fetch_max(value, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Largest level ever observed.
    pub fn high_water(&self) -> i64 {
        self.high_water.load(Ordering::Relaxed)
    }
}

/// Span timer: records elapsed nanoseconds into a histogram on drop.
///
/// ```
/// # use std::sync::Arc;
/// # use siren_obs::{Histogram, Timer};
/// let hist = Arc::new(Histogram::new());
/// {
///     let _span = Timer::start(Arc::clone(&hist));
///     // ... timed work ...
/// }
/// assert_eq!(hist.snapshot().count, 1);
/// ```
#[derive(Debug)]
pub struct Timer {
    hist: Arc<Histogram>,
    start: Instant,
}

impl Timer {
    /// Begin a span against `hist`.
    pub fn start(hist: Arc<Histogram>) -> Self {
        Self {
            hist,
            start: Instant::now(),
        }
    }

    /// End the span now (equivalent to dropping it).
    pub fn stop(self) {}
}

impl Drop for Timer {
    fn drop(&mut self) {
        self.hist.record(self.start.elapsed().as_nanos() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        let c = Arc::new(Counter::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 40_000);
    }

    #[test]
    fn gauge_tracks_level_and_high_water() {
        let g = Gauge::new();
        g.add(5);
        g.add(3);
        g.add(-6);
        assert_eq!(g.get(), 2);
        assert_eq!(g.high_water(), 8);
        g.set(1);
        assert_eq!(g.get(), 1);
        assert_eq!(g.high_water(), 8);
    }

    #[test]
    fn timer_records_on_drop() {
        let hist = Arc::new(Histogram::new());
        Timer::start(Arc::clone(&hist)).stop();
        drop(Timer::start(Arc::clone(&hist)));
        let snap = hist.snapshot();
        assert_eq!(snap.count, 2);
    }
}
