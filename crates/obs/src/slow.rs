//! Bounded slow-query ring.
//!
//! Queries crossing the daemon's slowness threshold are pushed here;
//! the ring keeps the most recent `capacity` entries and drops the
//! oldest. The mutex is fine: by definition the log is only touched by
//! queries that already spent orders of magnitude longer executing.

use std::collections::VecDeque;
use std::sync::Mutex;

/// One slow query, as surfaced through the metrics reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowQueryEntry {
    /// FNV-1a/64 over the encoded plan: stable across runs, joinable
    /// against client-side logs without shipping the plan itself.
    pub fingerprint: u64,
    /// Human-readable selection shape, e.g. `byjob+prefix/rows`.
    pub shape: String,
    /// Rows the query produced.
    pub rows: u64,
    /// End-to-end execution time in nanoseconds.
    pub total_ns: u64,
    /// Trace id of the request (`0` when it was untraced), joinable
    /// against the trace flight recorder for the span breakdown.
    pub trace_id: u64,
}

/// Capacity-bounded ring of [`SlowQueryEntry`]s, newest last.
#[derive(Debug)]
pub struct SlowQueryLog {
    ring: Mutex<VecDeque<SlowQueryEntry>>,
    capacity: usize,
}

impl SlowQueryLog {
    /// Ring holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            ring: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    /// Append an entry, evicting the oldest at capacity. A lock left
    /// poisoned by a crashed recorder thread is recovered — the ring
    /// holds plain owned entries, so its state is sound regardless.
    pub fn push(&self, entry: SlowQueryEntry) {
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(entry);
    }

    /// Entries currently retained, oldest first.
    pub fn entries(&self) -> Vec<SlowQueryEntry> {
        self.ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(fingerprint: u64) -> SlowQueryEntry {
        SlowQueryEntry {
            fingerprint,
            shape: "byjob/rows".into(),
            rows: fingerprint * 10,
            total_ns: fingerprint * 1000,
            trace_id: fingerprint ^ 0xff,
        }
    }

    #[test]
    fn ring_drops_oldest_at_capacity() {
        let log = SlowQueryLog::new(3);
        for i in 0..5 {
            log.push(entry(i));
        }
        let kept: Vec<u64> = log.entries().iter().map(|e| e.fingerprint).collect();
        assert_eq!(kept, vec![2, 3, 4]);
        assert_eq!(log.len(), 3);
        assert_eq!(log.capacity, 3);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let log = SlowQueryLog::new(0);
        log.push(entry(1));
        log.push(entry(2));
        assert_eq!(log.len(), 1);
        assert_eq!(log.entries()[0].fingerprint, 2);
    }
}
