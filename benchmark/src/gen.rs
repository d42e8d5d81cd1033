//! Seeded inputs: campaign epochs run through the real collector, and
//! the analyst operation stream. Everything here is a pure function of
//! `--seed`; the program under test receives only what this produces.

use crate::spans::Spans;
use siren_cluster::{Campaign, CampaignConfig, FleetConfig};
use siren_collector::collect::collect_datagrams;
use siren_collector::PolicyMode;
use siren_consolidate::ProcessRecord;
use siren_hash::xxh3_128;
use siren_wire::Message;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// Campaign scale of one ingest epoch: ~4.8 k observed processes,
/// ~15 k datagrams, ~3.7 MB on the wire. Real ELF families, real CTPH
/// `FILE_H`, real object lists — the collector's own output.
pub const EPOCH_SCALE: f64 = 0.002;
/// Scale of the two small epochs: the one sent over real UDP and the
/// one imported after a promotion (~620 processes, ~2.4 k datagrams).
pub const SMALL_EPOCH_SCALE: f64 = 0.0002;

/// SplitMix64: the benchmark's own generator, so the operation stream
/// does not depend on the vendored `rand` shim's algorithm.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The fleet every epoch of a run is drawn from: epoch `k` is cluster
/// `k`, so job and host ranges never overlap between epochs and
/// job-hash shards stay disjoint.
pub fn fleet(seed: u64, scale: f64) -> FleetConfig {
    FleetConfig {
        clusters: 1 << 12,
        base: CampaignConfig {
            seed: SplitMix64::new(seed).next_u64(),
            scale,
            ..CampaignConfig::default()
        },
        ..FleetConfig::default()
    }
}

/// One campaign epoch as the collector emitted it.
#[derive(Debug)]
pub struct EpochInput {
    /// Payload messages in send order (sentinels are added by the sender).
    pub messages: Vec<Message>,
    /// Their wire encodings, same order.
    pub datagrams: Vec<Vec<u8>>,
    /// Processes the collector observed.
    pub observed: u64,
    /// Processes it skipped (non-zero MPI rank, or inside a container).
    pub skipped: u64,
    /// `collect_datagrams` time per observed process, nanoseconds.
    pub collect_ns: Vec<u64>,
    /// Distinct user-executable images the collector fuzzy-hashed.
    pub images: Vec<Arc<Vec<u8>>>,
}

impl EpochInput {
    /// Bytes on the wire.
    pub fn wire_bytes(&self) -> u64 {
        self.datagrams.iter().map(|d| d.len() as u64).sum()
    }
}

/// Run cluster `k` of `fleet` through the collector. The collector's
/// per-process cost is timed here because this *is* the call a user's
/// job pays for.
pub fn generate_epoch(fleet: &FleetConfig, k: usize, spans: &mut Spans) -> EpochInput {
    let campaign = spans.span("cluster.Campaign::new", |_| {
        Campaign::new(fleet.campaign_config(k))
    });
    let mut out = EpochInput {
        messages: Vec::new(),
        datagrams: Vec::new(),
        observed: 0,
        skipped: 0,
        collect_ns: Vec::new(),
        images: Vec::new(),
    };
    let mut seen_images: BTreeSet<usize> = BTreeSet::new();
    spans.span("cluster.Campaign::run+collector.collect_datagrams", |_| {
        campaign.run(|ctx| {
            // `Collector::observe`'s two skip rules (§3.1): only rank 0
            // is collected, and `siren.so` is not mounted in containers.
            if ctx.slurm_procid != 0 || ctx.in_container {
                out.skipped += 1;
                return;
            }
            out.observed += 1;
            let start = Instant::now();
            let msgs = collect_datagrams(&ctx, PolicyMode::Selective);
            out.collect_ns.push(start.elapsed().as_nanos() as u64);
            if msgs
                .iter()
                .any(|m| m.header.mtype == siren_wire::MessageType::FileHash)
                && seen_images.insert(Arc::as_ptr(&ctx.exe.data) as usize)
            {
                out.images.push(Arc::clone(&ctx.exe.data));
            }
            out.messages.extend(msgs);
        });
    });
    spans.span_n("wire.Message::encode", out.messages.len() as u32, |_| {
        out.datagrams = out.messages.iter().map(Message::encode).collect();
    });
    out
}

/// Order-sensitive digest of a datagram sequence.
pub fn datagram_digest(datagrams: &[Vec<u8>]) -> u64 {
    datagrams
        .iter()
        .fold(0u64, |acc, d| fold_digest(acc, xxh3_128(d).fold64()))
}

/// Order-sensitive fold of one 64-bit item hash into a running digest.
pub fn fold_digest(acc: u64, item: u64) -> u64 {
    (acc.rotate_left(5) ^ item).wrapping_mul(0x0000_0100_0000_01B3)
}

/// What the analyst operation stream draws from: the committed corpus's
/// records, jobs, hosts, `FILE_H` values, epochs and time span.
#[derive(Debug, Clone)]
pub struct Catalog {
    /// `(job, index into hosts)` of every corpus record, in commit
    /// order. An analyst starts from a process — a row of a usage
    /// table, a neighbour hit — and asks for its job or its host, so an
    /// operation draws one record uniformly and takes its job (host):
    /// a job is asked for in proportion to the processes it ran. That
    /// is the Table-2 skew itself, not a fitted law. Over seeds 1–10
    /// `user_1`'s 96 jobs hold 72 % of the corpus's records, `user_4`'s
    /// 28 jobs 24 % and the other ten users' ~65 jobs 4 %; the largest
    /// job draws 2.8 % of the by-job operations against 0.5 % were jobs
    /// drawn uniformly, and half of them return 144–145 rows or more.
    pub records: Vec<(u64, u32)>,
    /// Distinct job ids, ascending.
    pub jobs: Vec<u64>,
    /// Distinct hosts, ascending.
    pub hosts: Vec<String>,
    /// Distinct `FILE_H` values (includes the UNKNOWN family's: its
    /// binaries are byte copies the corpus always emits).
    pub hashes: Vec<String>,
    /// Committed epoch ids.
    pub epochs: Vec<u64>,
    /// Collection-time span of the corpus.
    pub time_lo: u64,
    pub time_hi: u64,
}

impl Catalog {
    /// Build from the committed corpus (`epochs[i]` = records of epoch
    /// `i`).
    pub fn from_corpus(epochs: &[Vec<ProcessRecord>]) -> Self {
        let mut jobs = BTreeSet::new();
        let mut hosts = BTreeSet::new();
        let mut hashes = BTreeSet::new();
        let (mut time_lo, mut time_hi) = (u64::MAX, 0u64);
        for record in epochs.iter().flatten() {
            jobs.insert(record.key.job_id);
            hosts.insert(record.key.host.as_str());
            if let Some(h) = &record.file_hash {
                hashes.insert(h.clone());
            }
            time_lo = time_lo.min(record.key.time);
            time_hi = time_hi.max(record.key.time);
        }
        let hosts: Vec<&str> = hosts.into_iter().collect();
        let records = epochs
            .iter()
            .flatten()
            .map(|record| {
                let host = hosts
                    .binary_search(&record.key.host.as_str())
                    .expect("every record's host was collected above");
                (record.key.job_id, host as u32)
            })
            .collect();
        Self {
            records,
            jobs: jobs.into_iter().collect(),
            hosts: hosts.into_iter().map(str::to_owned).collect(),
            hashes: hashes.into_iter().collect(),
            epochs: (0..epochs.len() as u64).collect(),
            time_lo,
            time_hi,
        }
    }
}

/// One analyst operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Every record of one job.
    ByJob { job: u64 },
    /// One host over a time window, limited; the client reads the first
    /// page and closes the cursor.
    HostWindow { host: String, start: u64, end: u64 },
    /// Fuzzy neighbours of a corpus hash — identifying an executable.
    Neighbors {
        hash: String,
        min_score: u32,
        k: u64,
    },
    /// Library usage on one host (one-shot request).
    LibraryUsage { host: String },
    /// The per-user usage table of one epoch.
    UsageTable { epoch: u64 },
    /// Daemon status.
    Status,
}

impl Op {
    /// Name of the root span an operation of this kind is traced under.
    pub fn span_name(&self) -> &'static str {
        match self {
            Op::ByJob { .. } => "op.by_job",
            Op::HostWindow { .. } => "op.host_window",
            Op::Neighbors { .. } => "op.neighbors",
            Op::LibraryUsage { .. } => "op.library_usage",
            Op::UsageTable { .. } => "op.usage_table",
            Op::Status => "op.status",
        }
    }

    /// Short kind label for per-kind reporting (the span name without
    /// its `op.` prefix).
    pub fn kind(&self) -> &'static str {
        &self.span_name()["op.".len()..]
    }
}

/// Rows a `HostWindow` op reads before closing its cursor.
pub const WINDOW_PAGE_ROWS: u32 = 32;
/// Its plan's row limit (several pages, so a cursor is handed out).
pub const WINDOW_LIMIT: u64 = 256;

/// The seeded operation stream of one analyst client: 55 % by-job,
/// 15 % host + time window, 20 % neighbours, 5 % library usage, 4 %
/// usage table, 1 % status. Jobs and hosts are those of uniformly
/// drawn corpus records (see [`Catalog::records`]).
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: SplitMix64,
    catalog: Arc<Catalog>,
    /// A federation router refuses `LibraryUsage` (per-library host
    /// counts do not sum across shards), so the routed client issues a
    /// usage-table plan in that slot: no operation may fail by design.
    routed: bool,
}

impl OpStream {
    pub fn new(seed: u64, client: u32, routed: bool, catalog: Arc<Catalog>) -> Self {
        Self {
            rng: SplitMix64::new(
                seed ^ (u64::from(client) + 1).wrapping_mul(0xA24B_AED4_963E_E407),
            ),
            catalog,
            routed,
        }
    }

    /// `(job, host)` of one uniformly drawn corpus record.
    fn record(&mut self) -> (u64, String) {
        let c = &self.catalog;
        let (job, host) = c.records[self.rng.below(c.records.len() as u64) as usize];
        (job, c.hosts[host as usize].clone())
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let c = Arc::clone(&self.catalog);
        let roll = self.rng.below(100);
        Some(match roll {
            0..=54 => Op::ByJob {
                job: self.record().0,
            },
            55..=69 => {
                let span = c.time_hi - c.time_lo + 1;
                let width = span / 4;
                let start = c.time_lo + self.rng.below(span - width);
                Op::HostWindow {
                    host: self.record().1,
                    start,
                    end: start + width,
                }
            }
            70..=89 => Op::Neighbors {
                hash: c.hashes[self.rng.below(c.hashes.len() as u64) as usize].clone(),
                min_score: 50,
                k: 10,
            },
            90..=94 if !self.routed => Op::LibraryUsage {
                host: self.record().1,
            },
            90..=98 => Op::UsageTable {
                epoch: c.epochs[self.rng.below(c.epochs.len() as u64) as usize],
            },
            _ => Op::Status,
        })
    }
}

/// Digest of an operation list (its `Debug` rendering, in order).
pub fn op_digest(ops: &[Op]) -> u64 {
    ops.iter().fold(0u64, |acc, op| {
        fold_digest(acc, xxh3_128(format!("{op:?}").as_bytes()).fold64())
    })
}
