//! What one run is asked to do, and the bookkeeping every phase shares:
//! operation tally, set-up clock, span recorder.

use crate::spans::Spans;
use std::time::{Duration, Instant};

/// Fallible benchmark step: any error aborts the run with a non-zero exit.
pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// The four workloads. Every run performs the whole fleet lifecycle —
/// ingest, analyst queries, bulk export, recovery — because every
/// end-to-end metric is read from every run; the workload decides
/// which phase gets the larger share of the measuring time (and so
/// the most repetitions behind its medians).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CampaignIngest,
    AnalystMix,
    BulkExport,
    FleetRecovery,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CampaignIngest,
        Workload::AnalystMix,
        Workload::BulkExport,
        Workload::FleetRecovery,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CampaignIngest => "campaign_ingest",
            Workload::AnalystMix => "analyst_mix",
            Workload::BulkExport => "bulk_export",
            Workload::FleetRecovery => "fleet_recovery",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Share of `--seconds` the workload's own phase receives; the other
/// three split the rest evenly.
pub const OWN_SHARE: f64 = 0.4;

/// Wall time of one repetition of each phase on the reference box
/// (2 cores), used only to turn `--seconds` into repetition counts.
/// Counts — not a deadline — bound each phase, so the same seed and
/// `--seconds` give the same operations and the same bytes on disk on
/// any machine; a slower machine simply takes longer than `--seconds`.
const EPOCH_SECONDS: f64 = 0.27;
const ANALYST_OP_SECONDS: f64 = 0.001_2;
const EXPORT_PAIR_SECONDS: f64 = 0.30;
const RECOVERY_ROUND_SECONDS: f64 = 0.66;

/// Repetitions of each phase's unit of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Measured ingest epochs (one more runs first as warm-up).
    pub ingest_epochs: usize,
    /// Analyst operations, split over the two clients.
    pub analyst_ops: usize,
    /// Direct + routed full-export pairs.
    pub export_pairs: usize,
    /// Restart / catch-up / promote rounds.
    pub recovery_rounds: usize,
}

/// Epochs the read-side corpus is made of; every workload ingests at
/// least this many.
pub const CORPUS_EPOCHS: usize = 4;

impl Counts {
    pub fn for_run(workload: Workload, seconds: f64) -> Self {
        let share = |phase: Workload| {
            seconds
                * if phase == workload {
                    OWN_SHARE
                } else {
                    (1.0 - OWN_SHARE) / 3.0
                }
        };
        let reps = |phase: Workload, unit: f64, floor: usize| {
            ((share(phase) / unit).round() as usize).max(floor)
        };
        Self {
            ingest_epochs: reps(Workload::CampaignIngest, EPOCH_SECONDS, CORPUS_EPOCHS),
            analyst_ops: reps(Workload::AnalystMix, ANALYST_OP_SECONDS, 64),
            export_pairs: reps(Workload::BulkExport, EXPORT_PAIR_SECONDS, 2),
            recovery_rounds: reps(Workload::FleetRecovery, RECOVERY_ROUND_SECONDS, 2),
        }
    }
}

/// Operations attempted and failed. A refused, errored, lost or
/// oracle-mismatching operation is failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, for the report.
    pub notes: Vec<String>,
}

impl Tally {
    /// Count one operation; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Count a failure of an operation already counted as attempted.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(what);
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for note in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(note);
            }
        }
    }
}

/// Shared state of a run.
#[derive(Debug)]
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub counts: Counts,
    pub trace: bool,
    pub spans: Spans,
    pub tally: Tally,
    /// Time spent preparing rather than measuring: input generation for
    /// warm-up, population, warm-up passes, quiescence waits.
    pub setup: Duration,
    /// Time inside measured sections.
    pub measured: Duration,
}

impl Run {
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool, origin: Instant) -> Self {
        Self {
            workload,
            seed,
            counts: Counts::for_run(workload, seconds),
            trace,
            spans: Spans::new(trace, origin),
            tally: Tally::default(),
            setup: origin.elapsed(),
            measured: Duration::ZERO,
        }
    }

    /// Run `f` as set-up: under a root span, its time added to `setup_s`.
    pub fn setup<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Run) -> R) -> R {
        let start = Instant::now();
        let out = self.rooted(name, f);
        self.setup += start.elapsed();
        out
    }

    /// Run `f` as a measured section: under a root span, its time added
    /// to the measured total.
    pub fn measure<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Run) -> R) -> R {
        let start = Instant::now();
        let out = self.rooted(name, f);
        self.measured += start.elapsed();
        out
    }

    /// Run `f` under a root span without charging it to either clock
    /// (oracle checks).
    pub fn rooted<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Run) -> R) -> R {
        let token = self.spans.enter(name, 1);
        let out = f(self);
        self.spans.exit(token);
        out
    }
}
