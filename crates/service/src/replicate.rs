//! Epoch-shipping replication: the leader-side `EpochShipper` that
//! turns committed epochs into checksummed wire frames, and the
//! follower-side [`Replicator`] loop that applies them.
//!
//! # Model
//!
//! Replication rides the ordinary v3 query protocol: a follower opens a
//! [`SirenClient`] to its leader and issues `SubscribeEpochs{from}`.
//! The leader pins the query snapshot current at that moment and
//! streams every committed epoch `>= from` as bounded
//! [`EpochBatch`] frames followed by an
//! `EpochCommit` marker whose checksum chains the batches, then closes
//! the long poll with `SubscribeEnd{next_from, leader_bytes}`. The
//! follower applies each complete epoch through
//! [`SirenDaemon::import_epoch_at`] — one atomic sealed segment plus a
//! snapshot swap, exactly a local epoch commit — and re-subscribes from
//! its new high-water mark after a short poll interval.
//!
//! # Durability and idempotence
//!
//! The follower's high-water mark is not a side file: it *is* the seal
//! markers in its own consolidated store. A follower that crashes
//! mid-apply recovers its committed set on reopen and resubscribes from
//! `max committed + 1`; re-delivered epochs are skipped by
//! `import_epoch_at` returning `Ok(false)`. There is nothing to fsync
//! beyond what the commit path already fsyncs, and no window where the
//! mark and the data disagree.
//!
//! # Failure posture
//!
//! The loop never gives up: a failed dial or a torn subscription counts
//! a retry, sleeps under the [`RetryPolicy`]'s capped exponential
//! backoff (with jitter, so a herd of followers re-dialing a restarted
//! leader spreads out), and tries again. The follower's own embedded
//! query server keeps answering reads from its last applied snapshot
//! the whole time — replication lag degrades freshness, never
//! availability.

use crate::daemon::SirenDaemon;
use crate::plan::BATCH_BYTE_BUDGET;
use crate::snapshot::QuerySnapshot;
use siren_consolidate::ProcessRecord;
use siren_proto::{
    fold_epoch_checksum, EpochBatch, EpochStreamEvent, QueryResponse, RetryPolicy, SirenClient,
    MAX_BATCH_ROWS,
};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Records per `EpochBatch` frame when the subscriber passed 0.
const DEFAULT_SHIP_BATCH_ROWS: u32 = 256;

/// One frame of an epoch subscription reply, with the accounting the
/// server needs for its `repl.*` counters.
pub(crate) enum EpochFrame {
    /// A bounded run of records within the current epoch.
    Batch {
        response: QueryResponse,
        records: u64,
    },
    /// The current epoch is fully shipped; the marker chains the batch
    /// checksums.
    Commit {
        response: QueryResponse,
        records: u64,
    },
    /// The subscription is complete (long-poll terminator).
    End { response: QueryResponse },
}

/// The epoch being streamed right now: its records cloned out of the
/// pinned snapshot (bounded memory — one epoch at a time, mirroring
/// what the follower buffers before applying).
struct CurrentEpoch {
    epoch: u64,
    records: Vec<ProcessRecord>,
    pos: usize,
    shipped: u64,
    checksums: Vec<u64>,
}

/// Leader-side producer for one `SubscribeEpochs` reply: a pinned
/// snapshot walked one frame per [`next_frame`](Self::next_frame) call,
/// so the reactor's watermark pacing applies to replication streams
/// exactly as it does to plan streams.
///
/// Epochs are shipped as the contiguous range `from ..= max committed`
/// of the pinned snapshot — epochs the snapshot holds no rows for
/// (quiet-period closes) still get their empty commit marker, keeping
/// the follower's committed set gap-free.
pub(crate) struct EpochShipper {
    snapshot: Arc<QuerySnapshot>,
    /// Next epoch to enter (the range cursor).
    next: u64,
    /// One past the last epoch to ship.
    end: u64,
    current: Option<CurrentEpoch>,
    batch_rows: usize,
    /// `SubscribeEnd.next_from`: where the follower should resubscribe.
    next_from: u64,
    /// Leader's sealed-store footprint at subscribe time.
    leader_bytes: u64,
    done: bool,
}

impl EpochShipper {
    pub(crate) fn new(
        snapshot: Arc<QuerySnapshot>,
        from_epoch: u64,
        batch_rows: u32,
        leader_bytes: u64,
    ) -> Self {
        let batch_rows = if batch_rows == 0 {
            DEFAULT_SHIP_BATCH_ROWS
        } else {
            batch_rows
        }
        .min(MAX_BATCH_ROWS) as usize;
        // The snapshot only lists record-bearing epochs, but the daemon
        // commits contiguously from 0, so `max + 1` bounds them all.
        let end = snapshot.epochs().last().map_or(0, |&max| max + 1);
        Self {
            snapshot,
            next: from_epoch,
            end,
            current: None,
            batch_rows,
            next_from: end.max(from_epoch),
            leader_bytes,
            done: false,
        }
    }

    /// Produce the next wire frame, or `None` once the terminator has
    /// been handed out.
    pub(crate) fn next_frame(&mut self) -> Option<EpochFrame> {
        if self.done {
            return None;
        }
        loop {
            if let Some(cur) = self.current.as_mut() {
                if cur.pos < cur.records.len() {
                    // One bounded batch: at most `batch_rows` records
                    // and (past the first record) the shared byte
                    // budget, so a replication frame can never dwarf a
                    // query frame.
                    let start = cur.pos;
                    let mut bytes = 0usize;
                    while cur.pos < cur.records.len() && cur.pos - start < self.batch_rows {
                        let len = cur.records[cur.pos].encode().len();
                        if cur.pos > start && bytes + len > BATCH_BYTE_BUDGET {
                            break;
                        }
                        bytes += len;
                        cur.pos += 1;
                    }
                    let batch = EpochBatch {
                        epoch: cur.epoch,
                        records: cur.records[start..cur.pos].to_vec(),
                    };
                    let records = (cur.pos - start) as u64;
                    cur.shipped += records;
                    cur.checksums.push(batch.checksum());
                    return Some(EpochFrame::Batch {
                        response: QueryResponse::EpochBatch(batch),
                        records,
                    });
                }
                // Epoch exhausted: chain the batch checksums into the
                // commit marker.
                let cur = self.current.take().expect("current epoch");
                return Some(EpochFrame::Commit {
                    response: QueryResponse::EpochCommit {
                        epoch: cur.epoch,
                        records: cur.shipped,
                        checksum: fold_epoch_checksum(&cur.checksums),
                    },
                    records: cur.shipped,
                });
            }
            if self.next < self.end {
                let epoch = self.next;
                self.next += 1;
                let records: Vec<ProcessRecord> = self
                    .snapshot
                    .epoch_records(epoch)
                    .into_iter()
                    .cloned()
                    .collect();
                self.current = Some(CurrentEpoch {
                    epoch,
                    records,
                    pos: 0,
                    shipped: 0,
                    checksums: Vec::new(),
                });
                continue;
            }
            self.done = true;
            return Some(EpochFrame::End {
                response: QueryResponse::SubscribeEnd {
                    next_from: self.next_from,
                    leader_bytes: self.leader_bytes,
                },
            });
        }
    }
}

/// Configuration for a [`Replicator`] following one leader.
#[derive(Debug, Clone)]
pub struct ReplicatorConfig {
    /// The leader's query address.
    pub leader: SocketAddr,
    /// Sleep between caught-up subscription exchanges (the long-poll
    /// cadence).
    pub poll_interval: Duration,
    /// Backoff schedule after a failed dial or a torn subscription.
    /// `max_retries` is ignored — a follower never gives up on its
    /// leader; only the delay curve applies.
    pub retry: RetryPolicy,
    /// `batch_rows` hint forwarded to the leader (0 = server default).
    pub batch_rows: u32,
    /// Test hook: stop the loop abruptly (no clean shutdown, stream
    /// left mid-flight) after this many epoch applies — the
    /// fault-injection suite's "kill the follower at a fuzzed apply
    /// point".
    pub crash_after_applies: Option<u64>,
}

impl ReplicatorConfig {
    /// Defaults for following `leader`: 50 ms poll, default backoff.
    pub fn to(leader: SocketAddr) -> Self {
        Self {
            leader,
            poll_interval: Duration::from_millis(50),
            retry: RetryPolicy::default(),
            batch_rows: 0,
            crash_after_applies: None,
        }
    }
}

/// Shared between the replication thread and its handle.
struct Ctrl {
    stop: AtomicBool,
    epochs_applied: AtomicU64,
    /// Next epoch the follower would request: everything below it is
    /// applied and durable locally.
    high_water: AtomicU64,
    caught_up: AtomicBool,
    crashed: AtomicBool,
}

/// A follower: owns its [`SirenDaemon`] on a background thread, keeps
/// it converged with the leader, and hands it back on
/// [`shutdown`](Self::shutdown). The daemon's embedded query server
/// serves reads from the latest applied snapshot throughout.
pub struct Replicator {
    ctrl: Arc<Ctrl>,
    handle: Option<JoinHandle<SirenDaemon>>,
}

impl Replicator {
    /// Start following `cfg.leader`. The daemon must not have an epoch
    /// ingesting (followers don't ingest; they apply).
    pub fn spawn(daemon: SirenDaemon, cfg: ReplicatorConfig) -> std::io::Result<Self> {
        let next = daemon.committed_epochs().last().map_or(0, |&max| max + 1);
        let ctrl = Arc::new(Ctrl {
            stop: AtomicBool::new(false),
            epochs_applied: AtomicU64::new(0),
            high_water: AtomicU64::new(next),
            caught_up: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
        });
        let thread_ctrl = Arc::clone(&ctrl);
        let handle = std::thread::Builder::new()
            .name("siren-replicator".into())
            .spawn(move || run(daemon, cfg, thread_ctrl))?;
        Ok(Self {
            ctrl,
            handle: Some(handle),
        })
    }

    /// Epochs applied by this replicator (re-deliveries excluded).
    pub fn epochs_applied(&self) -> u64 {
        self.ctrl.epochs_applied.load(Ordering::Relaxed)
    }

    /// The next epoch this follower would request from its leader.
    pub fn high_water(&self) -> u64 {
        self.ctrl.high_water.load(Ordering::Relaxed)
    }

    /// Whether the last completed subscription exchange ended with zero
    /// epoch lag.
    pub fn is_caught_up(&self) -> bool {
        self.ctrl.caught_up.load(Ordering::Relaxed)
    }

    /// Whether the `crash_after_applies` hook fired.
    pub fn crashed(&self) -> bool {
        self.ctrl.crashed.load(Ordering::Relaxed)
    }

    /// Block until the follower has applied through `epoch` (its
    /// high-water mark exceeds it). Returns false on timeout.
    pub fn wait_for_epoch(&self, epoch: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.high_water() <= epoch {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        true
    }

    /// Block until a subscription exchange reports zero lag. Returns
    /// false on timeout.
    pub fn wait_caught_up(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while !self.is_caught_up() {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        true
    }

    /// Stop the loop and hand the daemon back (e.g. to promote the
    /// follower after a leader failure).
    pub fn shutdown(mut self) -> SirenDaemon {
        self.ctrl.stop.store(true, Ordering::Relaxed);
        self.handle
            .take()
            .expect("replicator thread handle")
            .join()
            .expect("replicator thread")
    }

    /// Promote this follower to a leader: detach from the (presumed
    /// dead) leader and return the daemon, now serving as the replica
    /// set's authoritative copy. Semantically [`shutdown`] under its
    /// failover name — the federation router's promotion hook calls
    /// this when a leader stays dark past the promotion threshold.
    ///
    /// [`shutdown`]: Self::shutdown
    pub fn promote(self) -> SirenDaemon {
        self.shutdown()
    }
}

impl Drop for Replicator {
    fn drop(&mut self) {
        self.ctrl.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Sleep in short slices so a stop request interrupts a backoff.
/// Returns true if stop was requested.
fn sleep_interruptible(ctrl: &Ctrl, total: Duration) -> bool {
    let deadline = Instant::now() + total;
    loop {
        if ctrl.stop.load(Ordering::Relaxed) {
            return true;
        }
        let now = Instant::now();
        if now >= deadline {
            return false;
        }
        std::thread::sleep((deadline - now).min(Duration::from_millis(10)));
    }
}

/// The follower loop: dial, exchange subscriptions until torn, back
/// off, repeat — forever, until stopped.
fn run(mut daemon: SirenDaemon, cfg: ReplicatorConfig, ctrl: Arc<Ctrl>) -> SirenDaemon {
    let metrics = daemon.service_metrics().clone();
    let mut next = ctrl.high_water.load(Ordering::Relaxed);
    metrics.repl_high_water.set(next as i64);
    // Jitter state for the backoff schedule (wall-clock seeded; the
    // fault-injection suite gets its determinism from the proxy, not
    // from the retry timing).
    let mut rng: u64 = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x9E37_79B9_7F4A_7C15)
        | 1;
    let mut attempt: u32 = 0;

    'dial: while !ctrl.stop.load(Ordering::Relaxed) {
        let mut client = match SirenClient::connect(cfg.leader) {
            Ok(client) => {
                metrics.repl_reconnects.inc();
                attempt = 0;
                client
            }
            Err(_) => {
                metrics.repl_retries.inc();
                let delay = cfg.retry.delay(attempt, &mut rng);
                attempt = attempt.saturating_add(1);
                if sleep_interruptible(&ctrl, delay) {
                    break 'dial;
                }
                continue 'dial;
            }
        };
        // Subscription exchanges on this connection until it tears.
        while !ctrl.stop.load(Ordering::Relaxed) {
            match exchange(&mut client, &mut daemon, &cfg, &ctrl, &metrics, &mut next) {
                Ok(caught_up) => {
                    attempt = 0;
                    if ctrl.crashed.load(Ordering::Relaxed) {
                        break 'dial;
                    }
                    if caught_up && sleep_interruptible(&ctrl, cfg.poll_interval) {
                        break 'dial;
                    }
                }
                Err(()) => {
                    metrics.repl_retries.inc();
                    let delay = cfg.retry.delay(attempt, &mut rng);
                    attempt = attempt.saturating_add(1);
                    if sleep_interruptible(&ctrl, delay) {
                        break 'dial;
                    }
                    // Reconnect: the torn stream may have poisoned the
                    // connection's framing.
                    continue 'dial;
                }
            }
        }
    }
    daemon
}

/// One subscription exchange: subscribe from `next`, apply every epoch
/// the leader ships, record lag from the terminator. Returns whether
/// the exchange ended with zero epoch lag; `Err` means the stream tore
/// (transport, protocol, or apply failure) and the caller should back
/// off and re-dial.
fn exchange(
    client: &mut SirenClient,
    daemon: &mut SirenDaemon,
    cfg: &ReplicatorConfig,
    ctrl: &Ctrl,
    metrics: &crate::metrics::ServiceMetrics,
    next: &mut u64,
) -> Result<bool, ()> {
    let mut stream = client
        .subscribe_epochs(*next, cfg.batch_rows)
        .map_err(|_| ())?;
    let mut caught_up = false;
    loop {
        let event = match stream.next_event() {
            Ok(Some(event)) => event,
            Ok(None) => break,
            Err(_) => return Err(()),
        };
        match event {
            EpochStreamEvent::Epoch { epoch, records } => {
                let count = records.len() as u64;
                let apply_start = Instant::now();
                match daemon.import_epoch_at(epoch, records) {
                    Ok(true) => {
                        metrics.repl_epochs_applied.inc();
                        metrics.repl_records_applied.add(count);
                        metrics.repl_apply_ns.record_duration(apply_start.elapsed());
                        let applied = ctrl.epochs_applied.fetch_add(1, Ordering::Relaxed) + 1;
                        if cfg
                            .crash_after_applies
                            .is_some_and(|limit| applied >= limit)
                        {
                            // Simulated follower crash: stop abruptly,
                            // stream left mid-flight. Durability of
                            // what was applied is the commit path's.
                            ctrl.crashed.store(true, Ordering::Relaxed);
                            ctrl.stop.store(true, Ordering::Relaxed);
                            return Ok(false);
                        }
                    }
                    // Re-delivery of an epoch we already hold — the
                    // idempotence path after a crash or resubscribe.
                    Ok(false) => {}
                    // A gap or an ingest conflict: tear the exchange
                    // down; the resubscribe starts from our own
                    // high-water mark, which cannot lie.
                    Err(_) => return Err(()),
                }
                *next = (*next).max(epoch + 1);
                ctrl.high_water.store(*next, Ordering::Relaxed);
                metrics.repl_high_water.set(*next as i64);
            }
            EpochStreamEvent::End {
                next_from,
                leader_bytes,
            } => {
                // Live lag as of this exchange: zero unless the stream
                // was cut short. Byte lag compares the leader's sealed
                // footprint (pinned at subscribe) with ours now.
                let lag_epochs = next_from.saturating_sub(*next);
                let lag_bytes = leader_bytes.saturating_sub(daemon.sealed_bytes());
                metrics.repl_lag_epochs.set(lag_epochs as i64);
                metrics.repl_lag_bytes.set(lag_bytes as i64);
                caught_up = lag_epochs == 0;
                ctrl.caught_up.store(caught_up, Ordering::Relaxed);
            }
        }
    }
    Ok(caught_up)
}
