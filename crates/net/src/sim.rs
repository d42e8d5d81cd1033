//! Simulated datagram channel with seeded loss, duplication, reordering.
//!
//! The paper could only *observe* UDP loss on LUMI (~0.02 % of jobs ended
//! up with missing fields). To study the consolidation layer's behaviour
//! under loss, this channel makes the failure modes injectable and
//! reproducible: every perturbation is drawn from a seeded RNG, so a given
//! `(seed, loss_rate)` always drops the same datagrams.

use crate::Sender;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use siren_wire::Message;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Perturbation configuration. All rates are probabilities in `[0, 1]`.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Probability a datagram is silently dropped.
    pub loss_rate: f64,
    /// Probability a delivered datagram is delivered twice.
    pub duplicate_rate: f64,
    /// Probability a delivered datagram is swapped with its predecessor.
    pub reorder_rate: f64,
    /// RNG seed — same seed, same perturbations.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            loss_rate: 0.0,
            duplicate_rate: 0.0,
            reorder_rate: 0.0,
            seed: 0,
        }
    }
}

impl SimConfig {
    /// Lossless, in-order channel.
    pub fn perfect() -> Self {
        Self::default()
    }

    /// Channel with only loss.
    pub fn with_loss(loss_rate: f64, seed: u64) -> Self {
        Self {
            loss_rate,
            seed,
            ..Self::default()
        }
    }
}

/// Delivery statistics, shared between the sender and receiver sides.
#[derive(Debug, Default)]
pub struct SimStats {
    /// Datagrams handed to the channel.
    pub sent: AtomicU64,
    /// Datagrams dropped by injected loss.
    pub dropped: AtomicU64,
    /// Extra deliveries from injected duplication.
    pub duplicated: AtomicU64,
    /// Adjacent swaps from injected reordering.
    pub reordered: AtomicU64,
}

struct SimState {
    queue: VecDeque<Vec<u8>>,
    rng: StdRng,
    cfg: SimConfig,
}

/// Factory for linked sender/receiver pairs.
pub struct SimChannel;

impl SimChannel {
    /// Create a linked sender/receiver pair with the given perturbations.
    pub fn create(cfg: SimConfig) -> (SimSender, SimReceiver) {
        let state = Arc::new(Mutex::new(SimState {
            queue: VecDeque::new(),
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
        }));
        let stats = Arc::new(SimStats::default());
        (
            SimSender {
                state: Arc::clone(&state),
                stats: Arc::clone(&stats),
            },
            SimReceiver { state, stats },
        )
    }
}

/// Sending side of the simulated channel.
pub struct SimSender {
    state: Arc<Mutex<SimState>>,
    stats: Arc<SimStats>,
}

impl Sender for SimSender {
    fn send(&self, datagram: &[u8]) {
        self.stats.sent.fetch_add(1, Ordering::Relaxed);
        let mut st = self.state.lock();

        if st.cfg.loss_rate > 0.0 && st.rng.random::<f64>() < st.cfg.loss_rate {
            self.stats.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }

        st.queue.push_back(datagram.to_vec());

        if st.cfg.duplicate_rate > 0.0 && st.rng.random::<f64>() < st.cfg.duplicate_rate {
            self.stats.duplicated.fetch_add(1, Ordering::Relaxed);
            st.queue.push_back(datagram.to_vec());
        }

        if st.cfg.reorder_rate > 0.0
            && st.queue.len() >= 2
            && st.rng.random::<f64>() < st.cfg.reorder_rate
        {
            self.stats.reordered.fetch_add(1, Ordering::Relaxed);
            let n = st.queue.len();
            st.queue.swap(n - 1, n - 2);
        }
    }

    fn sent_count(&self) -> u64 {
        self.stats.sent.load(Ordering::Relaxed)
    }
}

/// Receiving side of the simulated channel.
pub struct SimReceiver {
    state: Arc<Mutex<SimState>>,
    stats: Arc<SimStats>,
}

impl SimReceiver {
    /// Pop the next delivered datagram.
    pub fn try_recv(&self) -> Option<Vec<u8>> {
        self.state.lock().queue.pop_front()
    }

    /// Drain every delivered datagram, decoding; returns the messages and
    /// the count of undecodable datagrams.
    pub fn drain_messages(&self) -> (Vec<Message>, u64) {
        let mut msgs = Vec::new();
        let mut errors = 0u64;
        while let Some(d) = self.try_recv() {
            match Message::decode(&d) {
                Ok(m) => msgs.push(m),
                Err(_) => errors += 1,
            }
        }
        (msgs, errors)
    }

    /// Number of datagrams currently queued for delivery.
    pub fn queued(&self) -> usize {
        self.state.lock().queue.len()
    }

    /// Shared delivery statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_channel_delivers_everything_in_order() {
        let (tx, rx) = SimChannel::create(SimConfig::perfect());
        for i in 0..100u32 {
            tx.send(&i.to_le_bytes());
        }
        for i in 0..100u32 {
            assert_eq!(rx.try_recv().unwrap(), i.to_le_bytes());
        }
        assert!(rx.try_recv().is_none());
        assert_eq!(tx.sent_count(), 100);
    }

    #[test]
    fn loss_rate_drops_roughly_expected_fraction() {
        let (tx, rx) = SimChannel::create(SimConfig::with_loss(0.25, 42));
        let n = 10_000;
        for i in 0..n {
            tx.send(&(i as u32).to_le_bytes());
        }
        let delivered = rx.queued() as f64;
        let rate = 1.0 - delivered / n as f64;
        assert!((rate - 0.25).abs() < 0.03, "observed loss {rate}");
        assert_eq!(
            rx.stats().dropped.load(Ordering::Relaxed) + delivered as u64,
            n as u64
        );
    }

    #[test]
    fn same_seed_same_perturbations() {
        let run = || {
            let (tx, rx) = SimChannel::create(SimConfig {
                loss_rate: 0.1,
                duplicate_rate: 0.05,
                reorder_rate: 0.2,
                seed: 777,
            });
            for i in 0..1000u32 {
                tx.send(&i.to_le_bytes());
            }
            let mut out = Vec::new();
            while let Some(d) = rx.try_recv() {
                out.push(d);
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn duplication_delivers_extra_copies() {
        let (tx, rx) = SimChannel::create(SimConfig {
            duplicate_rate: 1.0,
            ..SimConfig::default()
        });
        tx.send(b"a");
        assert_eq!(rx.queued(), 2);
        assert_eq!(rx.try_recv().unwrap(), b"a");
        assert_eq!(rx.try_recv().unwrap(), b"a");
    }

    #[test]
    fn reordering_swaps_neighbours() {
        let (tx, rx) = SimChannel::create(SimConfig {
            reorder_rate: 1.0,
            ..SimConfig::default()
        });
        tx.send(b"1");
        tx.send(b"2"); // swapped with "1" on arrival
        assert_eq!(rx.try_recv().unwrap(), b"2");
        assert_eq!(rx.try_recv().unwrap(), b"1");
        assert_eq!(rx.stats().reordered.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn drain_counts_decode_errors() {
        let (tx, rx) = SimChannel::create(SimConfig::perfect());
        tx.send(b"garbage");
        let (msgs, errors) = rx.drain_messages();
        assert!(msgs.is_empty());
        assert_eq!(errors, 1);
    }
}
