//! The named metric tree.
//!
//! Names are dotted paths, `<area>.<metric>[_<unit>]` — e.g.
//! `ingest.datagrams`, `store.segment_seal_ns`, `query.exec_ns`,
//! `cursor.open`. Handles are registered once at startup (get-or-create
//! by name) and cached by the instrumented component; the registry's
//! locks are touched only at registration and snapshot time, never on
//! the recording path.

use crate::{Counter, Gauge, Histogram, HistogramSnapshot, SlowQueryEntry, SlowQueryLog};
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

/// Entries retained by the registry's slow-query ring.
const SLOW_QUERY_CAPACITY: usize = 128;

/// Central registry: all named metrics of one daemon (or one
/// standalone component, which creates a private detached registry when
/// the caller does not supply a shared one).
#[derive(Debug)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
    slow_queries: SlowQueryLog,
    /// Monotonic creation instant — the zero point of every snapshot's
    /// `uptime_ns` capture timestamp.
    created: Instant,
}

/// Recover a read guard from a poisoned lock: a panicking recorder
/// thread must not take the whole telemetry surface down with it. The
/// maps only ever *gain* entries, so the state behind a poisoned lock
/// is still structurally sound.
fn read_recovered<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

/// Recover a write guard from a poisoned lock (see [`read_recovered`]).
fn write_recovered<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// Fresh empty registry.
    pub fn new() -> Self {
        Self {
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            histograms: RwLock::new(BTreeMap::new()),
            slow_queries: SlowQueryLog::new(SLOW_QUERY_CAPACITY),
            created: Instant::now(),
        }
    }

    /// Get-or-register the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = read_recovered(&self.counters).get(name) {
            return Arc::clone(c);
        }
        let mut map = write_recovered(&self.counters);
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Get-or-register the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = read_recovered(&self.gauges).get(name) {
            return Arc::clone(g);
        }
        let mut map = write_recovered(&self.gauges);
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Get-or-register the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = read_recovered(&self.histograms).get(name) {
            return Arc::clone(h);
        }
        let mut map = write_recovered(&self.histograms);
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Nanoseconds since the registry was created — the capture
    /// timestamp a snapshot carries.
    pub fn uptime_ns(&self) -> u64 {
        self.created.elapsed().as_nanos() as u64
    }

    /// The registry's slow-query ring.
    pub fn slow_queries(&self) -> &SlowQueryLog {
        &self.slow_queries
    }

    /// Freeze the whole metric tree. Cost is proportional to the number
    /// of registered metrics and their non-empty buckets; recording
    /// proceeds concurrently, unblocked.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            uptime_ns: self.uptime_ns(),
            counters: read_recovered(&self.counters)
                .iter()
                .map(|(name, c)| (name.clone(), c.get()))
                .collect(),
            gauges: read_recovered(&self.gauges)
                .iter()
                .map(|(name, g)| {
                    (
                        name.clone(),
                        GaugeSnapshot {
                            value: g.get(),
                            high_water: g.high_water(),
                        },
                    )
                })
                .collect(),
            histograms: read_recovered(&self.histograms)
                .iter()
                .map(|(name, h)| (name.clone(), h.snapshot()))
                .collect(),
            slow_queries: self.slow_queries.entries(),
        }
    }
}

/// Frozen gauge state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GaugeSnapshot {
    /// Level at snapshot time.
    pub value: i64,
    /// Largest level ever observed.
    pub high_water: i64,
}

/// Typed snapshot of a whole [`Registry`]: what `QueryRequest::Metrics`
/// returns over the wire. Entries are sorted by name (the registry
/// iterates `BTreeMap`s), which makes the text exposition stable.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Capture timestamp: monotonic nanoseconds since the registry was
    /// created. Two snapshots of the same registry subtract cleanly, so
    /// clients can turn monotonically-increasing counts into rates.
    pub uptime_ns: u64,
    /// `(name, total)` pairs, ascending by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, state)` pairs, ascending by name.
    pub gauges: Vec<(String, GaugeSnapshot)>,
    /// `(name, state)` pairs, ascending by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Slow-query ring contents, oldest first.
    pub slow_queries: Vec<SlowQueryEntry>,
}

impl MetricsSnapshot {
    /// Counter total by name (0 when absent — absent and never
    /// incremented are indistinguishable by design).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .map(|i| self.counters[i].1)
            .unwrap_or(0)
    }

    /// Gauge state by name.
    pub fn gauge(&self, name: &str) -> Option<GaugeSnapshot> {
        self.gauges
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .map(|i| self.gauges[i].1)
            .ok()
    }

    /// Histogram state by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .map(|i| &self.histograms[i].1)
            .ok()
    }

    /// Stable text exposition: one line per metric, sorted by kind then
    /// name, parse-friendly and diff-friendly.
    ///
    /// ```text
    /// uptime_ns 1500000000
    /// counter ingest.datagrams 1500
    /// gauge cursor.open 2 high=5
    /// hist query.exec_ns count=12 p50=81920 p90=163840 p99=196608 max=190211 mean=88102
    /// slow fp=00000000deadbeef rows=50000 ns=12000000 trace=00000000000000a1 shape=byjob/rows
    /// ```
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("uptime_ns {}\n", self.uptime_ns));
        for (name, value) in &self.counters {
            out.push_str(&format!("counter {name} {value}\n"));
        }
        for (name, g) in &self.gauges {
            out.push_str(&format!("gauge {name} {} high={}\n", g.value, g.high_water));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "hist {name} count={} p50={} p90={} p99={} max={} mean={}\n",
                h.count,
                h.p50(),
                h.p90(),
                h.p99(),
                h.max,
                h.mean(),
            ));
        }
        for entry in &self.slow_queries {
            out.push_str(&format!(
                "slow fp={:016x} rows={} ns={} trace={:016x} shape={}\n",
                entry.fingerprint, entry.rows, entry.total_ns, entry.trace_id, entry.shape
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_by_name() {
        let reg = Registry::new();
        let a = reg.counter("x.hits");
        let b = reg.counter("x.hits");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("x.hits").get(), 3);
        assert_eq!(reg.snapshot().counter("x.hits"), 3);
        assert_eq!(reg.snapshot().counter("x.misses"), 0);
    }

    #[test]
    fn snapshot_is_sorted_and_lookup_works() {
        let reg = Registry::new();
        reg.counter("b.two").add(2);
        reg.counter("a.one").add(1);
        reg.gauge("z.level").set(4);
        reg.histogram("m.lat_ns").record(100);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a.one", "b.two"]);
        assert_eq!(snap.gauge("z.level").unwrap().value, 4);
        assert_eq!(snap.gauge("missing"), None);
        assert_eq!(snap.histogram("m.lat_ns").unwrap().count, 1);
    }

    #[test]
    fn text_exposition_is_stable() {
        let reg = Registry::new();
        reg.counter("ingest.datagrams").add(5);
        reg.gauge("cursor.open").set(2);
        reg.histogram("query.exec_ns").record(1000);
        reg.slow_queries().push(SlowQueryEntry {
            fingerprint: 0xdead_beef,
            shape: "byjob/rows".into(),
            rows: 10,
            total_ns: 999,
            trace_id: 0xa1,
        });
        let snap = reg.snapshot();
        let text = snap.render_text();
        assert!(text.starts_with("uptime_ns "), "{text}");
        assert!(text.contains("counter ingest.datagrams 5\n"), "{text}");
        assert!(text.contains("gauge cursor.open 2 high=2\n"), "{text}");
        assert!(text.contains("hist query.exec_ns count=1"), "{text}");
        assert!(
            text.contains(
                "slow fp=00000000deadbeef rows=10 ns=999 trace=00000000000000a1 shape=byjob/rows\n"
            ),
            "{text}"
        );
        // Stable: the same counts render identically; only the capture
        // timestamp moves between two snapshots.
        let mut later = reg.snapshot();
        assert!(later.uptime_ns >= snap.uptime_ns);
        later.uptime_ns = snap.uptime_ns;
        assert_eq!(text, later.render_text());
    }

    #[test]
    fn registry_survives_a_poisoned_lock() {
        let reg = Arc::new(Registry::new());
        reg.counter("a.hits").inc();
        // Poison every lock by panicking while holding the guards.
        for _ in 0..3 {
            let reg = Arc::clone(&reg);
            let _ = std::thread::spawn(move || {
                let _c = reg.counters.write().unwrap();
                let _g = reg.gauges.write().unwrap();
                let _h = reg.histograms.write().unwrap();
                panic!("recorder thread crash");
            })
            .join();
        }
        // Registration and snapshotting still work.
        reg.counter("a.hits").inc();
        reg.gauge("b.level").set(7);
        reg.histogram("c.lat_ns").record(10);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a.hits"), 2);
        assert_eq!(snap.gauge("b.level").unwrap().value, 7);
        assert_eq!(snap.histogram("c.lat_ns").unwrap().count, 1);
    }
}
