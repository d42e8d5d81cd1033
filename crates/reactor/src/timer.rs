//! Hashed timer wheel for coarse deadlines.
//!
//! Entries land in `slot = tick(deadline) % slots` and carry their
//! absolute deadline, so a slot can hold timers from different wheel
//! rotations: [`TimerWheel::advance`] only fires entries whose
//! deadline has actually passed and leaves the rest for a later lap.
//! Precision is one tick — plenty for multi-second connection
//! deadlines and TTL sweeps, and firing is O(entries in the visited
//! slots) rather than O(log n) per timer.
//!
//! The intended idle-deadline pattern is *lazy rescheduling*: schedule
//! once at `last_activity + deadline`, and when the timer fires check
//! the connection's real `last_activity` — if it moved, reschedule at
//! the new expiry instead of cancelling on every frame.

use std::time::{Duration, Instant};

/// Handle for cancelling a scheduled timer. Stale ids (already fired
/// or cancelled) are harmless: `cancel` simply returns `false`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerId {
    slot: usize,
    seq: u64,
}

#[derive(Debug)]
struct Entry {
    deadline: Instant,
    key: usize,
    seq: u64,
}

/// Single-level hashed wheel over `usize` keys.
#[derive(Debug)]
pub struct TimerWheel {
    slots: Vec<Vec<Entry>>,
    tick: Duration,
    origin: Instant,
    /// First tick index not yet fully processed by `advance`.
    cursor: u64,
    seq: u64,
    live: usize,
}

impl TimerWheel {
    /// A wheel with `slots` buckets of `tick` width, anchored at `origin`
    /// (timers scheduled before `origin` fire on the first advance).
    pub fn new(origin: Instant, tick: Duration, slots: usize) -> TimerWheel {
        assert!(slots > 0 && tick > Duration::ZERO);
        TimerWheel {
            slots: (0..slots).map(|_| Vec::new()).collect(),
            tick,
            origin,
            cursor: 0,
            seq: 0,
            live: 0,
        }
    }

    fn tick_of(&self, at: Instant) -> u64 {
        (at.saturating_duration_since(self.origin).as_nanos() / self.tick.as_nanos().max(1)) as u64
    }

    /// Schedule `key` to fire once `deadline` passes.
    pub fn schedule(&mut self, deadline: Instant, key: usize) -> TimerId {
        self.seq += 1;
        let slot = (self.tick_of(deadline) % self.slots.len() as u64) as usize;
        self.slots[slot].push(Entry {
            deadline,
            key,
            seq: self.seq,
        });
        self.live += 1;
        TimerId {
            slot,
            seq: self.seq,
        }
    }

    /// Remove a scheduled timer; `false` if it already fired or was
    /// cancelled.
    pub fn cancel(&mut self, id: TimerId) -> bool {
        let bucket = &mut self.slots[id.slot];
        if let Some(at) = bucket.iter().position(|e| e.seq == id.seq) {
            bucket.swap_remove(at);
            self.live -= 1;
            true
        } else {
            false
        }
    }

    /// Fire every timer whose deadline is `<= now`, pushing its key to
    /// `fired` (in no particular order).
    pub fn advance(&mut self, now: Instant, fired: &mut Vec<usize>) {
        if self.live == 0 {
            self.cursor = self.tick_of(now);
            return;
        }
        let current = self.tick_of(now);
        let slots = self.slots.len() as u64;
        // Visit each slot at most once per advance; entries from later
        // rotations survive because their deadline hasn't passed.
        let first = self.cursor;
        let last = current.min(first + slots - 1);
        for ti in first..=last {
            let bucket = &mut self.slots[(ti % slots) as usize];
            let mut i = 0;
            while i < bucket.len() {
                if bucket[i].deadline <= now {
                    fired.push(bucket.swap_remove(i).key);
                    self.live -= 1;
                } else {
                    i += 1;
                }
            }
        }
        // Stay on the current tick so a deadline later in this same
        // tick is still visited by the next advance.
        self.cursor = current;
    }

    /// Earliest scheduled deadline, for sizing the poll timeout.
    /// O(live entries) — called once per event-loop wake.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.slots
            .iter()
            .flat_map(|b| b.iter().map(|e| e.deadline))
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_only_past_deadlines() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(t0, Duration::from_millis(10), 8);
        wheel.schedule(t0 + Duration::from_millis(25), 1);
        wheel.schedule(t0 + Duration::from_millis(55), 2);

        let mut fired = Vec::new();
        wheel.advance(t0 + Duration::from_millis(10), &mut fired);
        assert!(fired.is_empty());
        wheel.advance(t0 + Duration::from_millis(30), &mut fired);
        assert_eq!(fired, vec![1]);
        fired.clear();
        wheel.advance(t0 + Duration::from_millis(60), &mut fired);
        assert_eq!(fired, vec![2]);
        assert_eq!(wheel.live, 0);
    }

    #[test]
    fn entries_beyond_one_rotation_wait_their_lap() {
        let t0 = Instant::now();
        // 4 slots x 10ms = one 40ms rotation; 95ms is two laps out and
        // shares a slot with 15ms.
        let mut wheel = TimerWheel::new(t0, Duration::from_millis(10), 4);
        wheel.schedule(t0 + Duration::from_millis(15), 10);
        wheel.schedule(t0 + Duration::from_millis(95), 20);

        let mut fired = Vec::new();
        wheel.advance(t0 + Duration::from_millis(20), &mut fired);
        assert_eq!(fired, vec![10], "far timer must not fire early");
        fired.clear();
        wheel.advance(t0 + Duration::from_millis(50), &mut fired);
        assert!(fired.is_empty());
        wheel.advance(t0 + Duration::from_millis(100), &mut fired);
        assert_eq!(fired, vec![20]);
    }

    #[test]
    fn a_big_time_jump_fires_everything_once() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(t0, Duration::from_millis(10), 4);
        for key in 0..20 {
            wheel.schedule(t0 + Duration::from_millis(3 * key as u64), key);
        }
        let mut fired = Vec::new();
        wheel.advance(t0 + Duration::from_secs(10), &mut fired);
        fired.sort_unstable();
        assert_eq!(fired, (0..20).collect::<Vec<_>>());
        assert_eq!(wheel.live, 0);
        fired.clear();
        wheel.advance(t0 + Duration::from_secs(20), &mut fired);
        assert!(fired.is_empty(), "timers fire exactly once");
    }

    #[test]
    fn cancel_prevents_firing_and_stale_ids_are_harmless() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(t0, Duration::from_millis(10), 8);
        let a = wheel.schedule(t0 + Duration::from_millis(20), 1);
        let b = wheel.schedule(t0 + Duration::from_millis(20), 2);
        assert!(wheel.cancel(a));
        assert!(!wheel.cancel(a), "double cancel is a no-op");

        let mut fired = Vec::new();
        wheel.advance(t0 + Duration::from_millis(30), &mut fired);
        assert_eq!(fired, vec![2]);
        assert!(!wheel.cancel(b), "fired id is stale");
    }

    #[test]
    fn lazy_reschedule_pattern_tracks_activity() {
        let t0 = Instant::now();
        let deadline = Duration::from_millis(50);
        let mut wheel = TimerWheel::new(t0, Duration::from_millis(10), 16);
        // Connection registered at t0; activity at t0+40ms.
        wheel.schedule(t0 + deadline, 7);
        let last_activity = t0 + Duration::from_millis(40);

        let mut fired = Vec::new();
        wheel.advance(t0 + Duration::from_millis(60), &mut fired);
        assert_eq!(fired, vec![7]);
        // The owner notices activity moved the expiry and reschedules.
        assert!(last_activity + deadline > t0 + Duration::from_millis(60));
        wheel.schedule(last_activity + deadline, 7);
        fired.clear();
        wheel.advance(t0 + Duration::from_millis(80), &mut fired);
        assert!(fired.is_empty());
        wheel.advance(t0 + Duration::from_millis(100), &mut fired);
        assert_eq!(fired, vec![7]);
    }

    #[test]
    fn next_deadline_reports_the_earliest() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(t0, Duration::from_millis(10), 8);
        assert_eq!(wheel.next_deadline(), None);
        wheel.schedule(t0 + Duration::from_millis(70), 1);
        let id = wheel.schedule(t0 + Duration::from_millis(30), 2);
        assert_eq!(wheel.next_deadline(), Some(t0 + Duration::from_millis(30)));
        wheel.cancel(id);
        assert_eq!(wheel.next_deadline(), Some(t0 + Duration::from_millis(70)));
    }
}
