//! Recovery: the store and snapshot layers used the other way round.
//! Each round restarts the leader, brings a fresh follower up over the
//! wire, promotes it, and commits one small epoch on the promoted
//! daemon. Scripted and sequential: one thing happens at a time.

use crate::run::{Res, Run};
use crate::world::{self, extend_digest, snapshot_digest, WAIT_TIMEOUT};
use siren_consolidate::ProcessRecord;
use siren_proto::SirenClient;
use siren_service::{Replicator, ReplicatorConfig, SirenDaemon};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Untimed rounds run first.
const WARMUP_ROUNDS: usize = 2;

/// What the recovery phase measured, one entry per measured round.
#[derive(Debug, Default)]
pub struct RecoveryOut {
    /// Records the leader holds.
    pub records: u64,
    /// Drop → `SirenDaemon::open` → first `Status` over TCP reporting
    /// the full count, seconds.
    pub reopen_s: Vec<f64>,
    /// The `SirenDaemon::open` part alone, ms.
    pub open_ms: Vec<f64>,
    /// `Replicator::spawn` → `wait_caught_up`, seconds.
    pub catchup_s: Vec<f64>,
    /// `Replicator::promote`, ms.
    pub promote_ms: Vec<f64>,
    /// `import_epoch` of the small epoch on the promoted daemon, ms.
    pub post_promote_import_ms: Vec<f64>,
    /// Follower-side `repl.apply_ns`: mean per applied epoch, ms.
    pub apply_ms: Vec<f64>,
    /// Epochs the follower applied per round.
    pub epochs_per_round: u64,
    /// Follower `repl.reconnects` summed over rounds (one dial per
    /// round is the floor).
    pub reconnects: u64,
}

/// The recovery leader and what the rounds have measured so far.
pub struct Recovery {
    leader: Option<SirenDaemon>,
    leader_dir: PathBuf,
    follower_dir: PathBuf,
    small_epoch: Vec<ProcessRecord>,
    /// Digest of the leader's store before any restart.
    want: u64,
    round: usize,
    out: RecoveryOut,
}

impl Recovery {
    /// Populate a leader of its own from the committed corpus (so
    /// restarting it disturbs no analyst or export client), then run
    /// the untimed warm-up rounds.
    pub fn warm(
        run: &mut Run,
        leader_dir: &Path,
        follower_dir: &Path,
        corpus: &[Vec<ProcessRecord>],
        small_epoch: Vec<ProcessRecord>,
    ) -> Res<Self> {
        let leader = run.setup("setup.recovery.leader", |run| -> Res<SirenDaemon> {
            let mut leader = run.spans.span("service.SirenDaemon::open", |_| {
                world::open_daemon(leader_dir)
            })?;
            for epoch in corpus {
                run.spans.span("service.import_epoch", |_| {
                    leader.import_epoch(epoch.clone())
                })?;
            }
            if !world::quiesce(&leader) {
                return Err("recovery leader did not quiesce after population".into());
            }
            Ok(leader)
        })?;
        let snapshot = leader.snapshot();
        let mut recovery = Recovery {
            want: snapshot_digest(&snapshot),
            out: RecoveryOut {
                records: snapshot.len() as u64,
                ..RecoveryOut::default()
            },
            leader: Some(leader),
            leader_dir: leader_dir.to_path_buf(),
            follower_dir: follower_dir.to_path_buf(),
            small_epoch,
            round: 0,
        };
        for _ in 0..WARMUP_ROUNDS {
            recovery.round(run, false)?;
        }
        Ok(recovery)
    }

    /// Run `n` measured rounds.
    pub fn rounds(&mut self, run: &mut Run, n: usize) -> Res<()> {
        for _ in 0..n {
            self.round(run, true)?;
        }
        Ok(())
    }

    pub fn finish(self, run: &mut Run) -> RecoveryOut {
        let Recovery {
            leader,
            follower_dir,
            out,
            ..
        } = self;
        run.rooted("teardown.leader", |_| {
            drop(leader);
            let _ = std::fs::remove_dir_all(follower_dir);
        });
        out
    }

    fn round(&mut self, run: &mut Run, timed: bool) -> Res<()> {
        let round = self.round;
        self.round += 1;
        let (want, records) = (self.want, self.out.records);
        let section = if timed {
            "phase.recovery.round"
        } else {
            "setup.recovery.warmup"
        };
        let clock = Instant::now();
        let token = run.spans.enter(section, 1);

        // 1. Restart the leader and ask it, over TCP, what it holds.
        drop(self.leader.take());
        let start = Instant::now();
        let leader = run.spans.span("service.SirenDaemon::open", |_| {
            world::open_daemon(&self.leader_dir)
        })?;
        let opened = start.elapsed();
        let leader_addr = leader.query_addr().ok_or("leader has no query port")?;
        let status = run.spans.span("proto.SirenClient::connect+status", |_| {
            SirenClient::connect(leader_addr).and_then(|mut c| c.status())
        });
        let reopen = start.elapsed();
        let reopened_ok = status.as_ref().is_ok_and(|s| s.records == records)
            && snapshot_digest(&leader.snapshot()) == want;
        self.leader = Some(leader);

        // 2. A fresh follower catches up over the wire.
        let _ = std::fs::remove_dir_all(&self.follower_dir);
        let follower = run.spans.span("service.SirenDaemon::open", |_| {
            world::open_daemon(&self.follower_dir)
        })?;
        let start = Instant::now();
        let replicator = Replicator::spawn(follower, ReplicatorConfig::to(leader_addr))?;
        let caught_up = run.spans.span("service.Replicator::wait_caught_up", |_| {
            replicator.wait_caught_up(WAIT_TIMEOUT)
        });
        let catchup = start.elapsed();

        // 3. Promote it and commit one small epoch on the new leader.
        let start = Instant::now();
        let mut promoted = run
            .spans
            .span("service.Replicator::promote", |_| replicator.promote());
        let promote = start.elapsed();
        // The follower's content is checked through the digest taken
        // after the import below: a fold that ends right began right.
        let follower_ok = caught_up && promoted.snapshot().len() as u64 == records;
        let small_epoch = &self.small_epoch;
        let start = Instant::now();
        let imported = run.spans.span("service.import_epoch", |_| {
            promoted.import_epoch(small_epoch.clone())
        });
        let import = start.elapsed();
        let promoted_ok = imported.as_ref().is_ok_and(|&epoch| {
            snapshot_digest(&promoted.snapshot())
                == extend_digest(want, small_epoch.iter().map(|r| (epoch, r)))
        });

        let metrics = promoted.metrics_snapshot();
        drop(promoted);
        run.spans.exit(token);
        if !timed {
            run.setup += clock.elapsed();
            return Ok(());
        }
        run.measured += clock.elapsed();

        run.tally.check(reopened_ok, || {
            format!("round {round}: reopened leader does not reproduce the pre-restart store ({status:?})")
        });
        run.tally.check(follower_ok, || {
            format!("round {round}: follower did not converge on the leader's store (caught_up={caught_up})")
        });
        run.tally.check(promoted_ok, || {
            format!("round {round}: promoted daemon wrong after import ({imported:?})")
        });
        let out = &mut self.out;
        out.reopen_s.push(reopen.as_secs_f64());
        out.open_ms.push(opened.as_secs_f64() * 1e3);
        out.catchup_s.push(catchup.as_secs_f64());
        out.promote_ms.push(promote.as_secs_f64() * 1e3);
        out.post_promote_import_ms.push(import.as_secs_f64() * 1e3);
        if let Some(apply) = metrics.histogram("repl.apply_ns") {
            if apply.count > 0 {
                out.apply_ms
                    .push(apply.sum as f64 / apply.count as f64 / 1e6);
                out.epochs_per_round = apply.count;
            }
        }
        out.reconnects += metrics.counter("repl.reconnects");
        Ok(())
    }
}
