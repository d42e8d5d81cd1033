//! The end-to-end deployment runner.

use siren_cluster::{Campaign, CampaignConfig, CampaignStats};
use siren_collector::{Collector, CollectorStats, PolicyMode};
use siren_consolidate::{integrity_report, ConsolidateStats, IntegrityReport, ProcessRecord};
use siren_db::ReplayStats;
use siren_ingest::{IngestConfig, IngestMetrics, IngestResult, IngestService, ShardStats};
use siren_net::{ShardedUdpSender, SimChannel, SimConfig, UdpReceiver, UdpReceiverPool};
use siren_obs::{MetricsSnapshot, Registry};
use siren_wire::{parse_sentinel, Message, MessageType, DEFAULT_MAX_DATAGRAM};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Which transport carries the datagrams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// In-memory simulated channel (deterministic; supports loss
    /// injection). The default for experiments.
    Simulated,
    /// Real UDP sockets over 127.0.0.1 (exercises the actual network
    /// stack; loss is whatever the loopback does under load).
    UdpLoopback,
}

/// Full deployment configuration.
#[derive(Debug, Clone)]
pub struct DeploymentConfig {
    /// Workload parameters.
    pub campaign: CampaignConfig,
    /// Simulated-channel perturbations (ignored for UDP loopback).
    pub channel: SimConfig,
    /// Collection policy mode.
    pub policy: PolicyMode,
    /// Transport selection.
    pub transport: TransportKind,
    /// Ingest shard workers, each owning a reassembler and a database
    /// partition (see [`IngestService`]). The default, 1, is the paper's
    /// single receiver process.
    pub shards: usize,
    /// Clamp `shards` to the machine's `available_parallelism` (see
    /// [`IngestConfig::clamp_shards`]). Disable only for experiments
    /// that need an exact shard count.
    pub ingest_clamp: bool,
    /// Datagram size limit.
    pub max_datagram: usize,
    /// Optional WAL base path for persistent database partitions: shard
    /// `i` persists to `<db_path>.shard<i>`.
    pub db_path: Option<PathBuf>,
    /// How long a UDP drain waits in silence before concluding that
    /// every copy of the end-of-campaign sentinel was lost and giving
    /// up. The quiet counter resets on every received datagram, so an
    /// active campaign never trips it; this only bounds the
    /// all-sentinels-lost worst case.
    pub quiet_period: Duration,
}

impl Default for DeploymentConfig {
    fn default() -> Self {
        Self {
            campaign: CampaignConfig::default(),
            channel: SimConfig::perfect(),
            policy: PolicyMode::Selective,
            transport: TransportKind::Simulated,
            shards: 1,
            ingest_clamp: true,
            max_datagram: DEFAULT_MAX_DATAGRAM,
            db_path: None,
            quiet_period: Duration::from_secs(10),
        }
    }
}

/// Everything a deployment run produces.
#[derive(Debug)]
pub struct DeploymentResult {
    /// Workload-generation statistics.
    pub campaign_stats: CampaignStats,
    /// Collector statistics.
    pub collector_stats: CollectorStats,
    /// Datagrams handed to the transport.
    pub datagrams_sent: u64,
    /// Datagrams dropped by injected loss (simulated transport) or lost
    /// in flight / shed under overload (UDP loopback).
    pub datagrams_dropped: u64,
    /// Datagrams delivered to the receiver.
    pub datagrams_delivered: u64,
    /// Logical messages fully reassembled.
    pub reassembly_complete: u64,
    /// Logical messages with lost chunks.
    pub reassembly_incomplete: u64,
    /// Duplicate chunks observed.
    pub reassembly_duplicates: u64,
    /// Rows stored in the database (all partitions).
    pub db_rows: u64,
    /// Consolidation statistics.
    pub consolidate_stats: ConsolidateStats,
    /// Consolidated per-process records — the analysis input.
    pub records: Vec<ProcessRecord>,
    /// Missing-field integrity report.
    pub integrity: IntegrityReport,
    /// Per-shard ingest telemetry, one entry per shard worker.
    pub shard_stats: Vec<ShardStats>,
    /// WAL replay on database open (all partitions): what a persistent
    /// deployment recovered from a previous run, including torn-tail
    /// bytes discarded. Zero for in-memory and fresh databases.
    pub replay: ReplayStats,
    /// The run's full metrics registry, snapshotted at finish: `net.*`
    /// transport counts plus everything the ingest tier recorded
    /// (`ingest.*` counters and latency histograms). Render with
    /// [`crate::report::telemetry_report`].
    pub metrics: MetricsSnapshot,
}

/// Assemble a run's result: stamp the transport-level counts into
/// `registry` beside the `ingest.*` series the shard workers recorded,
/// snapshot it, and total the per-shard telemetry. Every deployment path
/// ends here.
fn seal(
    registry: &Registry,
    campaign_stats: CampaignStats,
    collector_stats: CollectorStats,
    delivered: u64,
    dropped: u64,
    ingested: IngestResult,
) -> DeploymentResult {
    let sent = collector_stats.datagrams_sent;
    registry.counter("net.datagrams_sent").add(sent);
    registry.counter("net.datagrams_delivered").add(delivered);
    registry.counter("net.datagrams_dropped").add(dropped);
    DeploymentResult {
        campaign_stats,
        datagrams_sent: sent,
        collector_stats,
        datagrams_dropped: dropped,
        datagrams_delivered: delivered,
        reassembly_complete: ingested.reassembly_complete(),
        reassembly_incomplete: ingested.reassembly_incomplete(),
        reassembly_duplicates: ingested.duplicates(),
        db_rows: ingested.db_rows(),
        replay: ingested.replay_stats(),
        integrity: integrity_report(&ingested.records),
        consolidate_stats: ingested.stats,
        records: ingested.records,
        shard_stats: ingested.shard_stats,
        metrics: registry.snapshot(),
    }
}

/// A configured deployment, ready to run.
pub struct Deployment {
    cfg: DeploymentConfig,
}

impl Deployment {
    /// Create a deployment.
    pub fn new(cfg: DeploymentConfig) -> Self {
        Self { cfg }
    }

    /// Run the full pipeline and consolidate the results.
    pub fn run(self) -> DeploymentResult {
        match self.cfg.transport {
            TransportKind::Simulated => self.run_simulated(),
            TransportKind::UdpLoopback => self.run_udp(),
        }
    }

    /// The ingest tier this deployment runs, recording into `registry`.
    fn ingest_config(&self, registry: &Registry) -> IngestConfig {
        IngestConfig {
            shards: self.cfg.shards,
            clamp_shards: self.cfg.ingest_clamp,
            wal_base: self.cfg.db_path.clone(),
            metrics: IngestMetrics::register(registry),
            ..IngestConfig::default()
        }
    }

    fn run_simulated(self) -> DeploymentResult {
        let campaign = Campaign::new(self.cfg.campaign.clone());
        let (tx, rx) = SimChannel::create(self.cfg.channel);
        let mut collector =
            Collector::new(&tx, self.cfg.policy).with_max_datagram(self.cfg.max_datagram);

        let campaign_stats = campaign.run(|ctx| collector.observe(&ctx));
        let collector_stats = collector.stats().clone();

        let (messages, decode_errors) = rx.drain_messages();
        assert_eq!(decode_errors, 0, "sim channel never corrupts datagrams");
        let dropped = rx.stats().dropped.load(Ordering::Relaxed);

        // Offline ingest of the drained message vector.
        let registry = Registry::new();
        let mut service =
            IngestService::spawn(self.ingest_config(&registry)).expect("spawn ingest service");
        let mut delivered = 0u64;
        for msg in messages {
            if msg.header.mtype != MessageType::End {
                delivered += 1;
            }
            service.push(msg);
        }
        let ingested = service.finish().expect("ingest finish");
        seal(
            &registry,
            campaign_stats,
            collector_stats,
            delivered,
            dropped,
            ingested,
        )
    }

    fn run_udp(self) -> DeploymentResult {
        // The receiver pool is one socket per worker, so the sender,
        // the pool, and the ingest service must all agree on the
        // *effective* (possibly hardware-clamped) shard count.
        let registry = Registry::new();
        let ingest_cfg = self.ingest_config(&registry);
        let shards = ingest_cfg.effective_shards();
        let quiet_period = self.cfg.quiet_period;
        let pool = UdpReceiverPool::spawn(shards, 65_536).expect("bind loopback receiver pool");
        let sender = ShardedUdpSender::connect(&pool.addrs()).expect("sharded sender");
        let service = IngestService::spawn(ingest_cfg).expect("spawn ingest service");

        // One drain thread per receiver socket, feeding its shard's
        // worker directly while the campaign is still emitting — the
        // live (streaming) ingest topology.
        type DrainOutcome = (u64, Option<(u32, u64)>);
        let drains: Vec<std::thread::JoinHandle<DrainOutcome>> = pool
            .into_receivers()
            .into_iter()
            .enumerate()
            .map(|(shard, receiver)| {
                let handle = service.handle(shard);
                std::thread::Builder::new()
                    .name(format!("siren-drain-{shard}"))
                    .spawn(move || {
                        let mut delivered = 0u64;
                        let sentinel = drain_each_until_sentinel(&receiver, quiet_period, |msg| {
                            delivered += 1;
                            handle.push(msg);
                        });
                        receiver.stop();
                        (delivered, sentinel)
                    })
                    .expect("spawn drain thread")
            })
            .collect();

        let campaign = Campaign::new(self.cfg.campaign.clone());
        let mut collector =
            Collector::new(&sender, self.cfg.policy).with_max_datagram(self.cfg.max_datagram);
        let campaign_stats = campaign.run(|ctx| collector.observe(&ctx));
        // The sentinel broadcast stops every drain thread
        // deterministically instead of by timeout.
        collector.end_campaign();
        let collector_stats = collector.stats().clone();

        let outcomes: Vec<DrainOutcome> = drains
            .into_iter()
            .map(|d| d.join().expect("drain thread"))
            .collect();
        let delivered: u64 = outcomes.iter().map(|(n, _)| n).sum();
        // The sentinel carries the sender's own datagram count — the
        // protocol-level way for a receiver to measure loss without
        // sharing memory with the sender. Every copy carries the same
        // total; fall back to the in-process collector stats only if
        // every copy was lost.
        let sent_claimed = outcomes
            .iter()
            .find_map(|(_, sentinel)| sentinel.map(|(_, sent)| sent))
            .unwrap_or(collector_stats.datagrams_sent);
        let ingested = service.finish().expect("ingest finish");
        let dropped = sent_claimed.saturating_sub(delivered);
        seal(
            &registry,
            campaign_stats,
            collector_stats,
            delivered,
            dropped,
            ingested,
        )
    }
}

/// One poll tick of a UDP drain loop.
const DRAIN_TICK: Duration = Duration::from_millis(50);

/// Drain one UDP receiver until its sender's end-of-campaign sentinel
/// arrives (deterministic stop), falling back to the configured quiet
/// period only if every sentinel copy was lost. Yields payload messages
/// to `on_msg` and returns the parsed `(sender_id, datagrams_sent)`
/// claim of the first sentinel seen, if any.
fn drain_each_until_sentinel(
    receiver: &UdpReceiver,
    quiet_period: Duration,
    mut on_msg: impl FnMut(Message),
) -> Option<(u32, u64)> {
    // `quiet_period` of silence (counted in 50 ms ticks) before giving
    // up on the sentinel; the quiet counter resets on every received
    // datagram, so an active campaign never trips it.
    let quiet_limit = (quiet_period.as_millis() / DRAIN_TICK.as_millis()).max(1) as u32;
    let mut quiet = 0u32;
    let mut sentinel = None;
    while sentinel.is_none() && quiet < quiet_limit {
        match receiver.recv_timeout(DRAIN_TICK) {
            Some(m) if m.header.mtype == MessageType::End => sentinel = parse_sentinel(&m),
            Some(m) => {
                on_msg(m);
                quiet = 0;
            }
            None => quiet += 1,
        }
    }
    // Scoop any stragglers the reader thread had already queued (extra
    // sentinel copies are dropped here).
    while let Some(m) = receiver.try_recv() {
        if m.header.mtype != MessageType::End {
            on_msg(m);
        }
    }
    sentinel
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(transport: TransportKind) -> DeploymentConfig {
        let mut cfg = DeploymentConfig::default();
        cfg.campaign.scale = 0.001;
        cfg.transport = transport;
        cfg
    }

    #[test]
    fn simulated_pipeline_is_lossless_by_default() {
        let r = Deployment::new(tiny(TransportKind::Simulated)).run();
        assert_eq!(r.datagrams_dropped, 0);
        assert_eq!(r.datagrams_sent, r.datagrams_delivered);
        assert_eq!(r.reassembly_incomplete, 0);
        assert_eq!(r.db_rows, r.reassembly_complete);
        assert_eq!(r.integrity.jobs_with_missing, 0);
        assert_eq!(r.records.len() as u64, r.consolidate_stats.processes);
        // Every rank-0, non-containerized observation must become exactly
        // one record; containers are the collector's documented blind spot.
        assert_eq!(
            r.records.len() as u64,
            r.campaign_stats.processes - r.campaign_stats.container_processes
        );
        assert_eq!(
            r.collector_stats.invisible_container,
            r.campaign_stats.container_processes
        );
    }

    #[test]
    fn default_sharded_deployment_clamps_to_hardware() {
        let cores = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        let requested = cores + 5;
        let mut cfg = tiny(TransportKind::Simulated);
        cfg.shards = requested;
        let r = Deployment::new(cfg).run();
        assert_eq!(r.shard_stats.len(), cores, "oversharding must clamp");
        assert!(r
            .shard_stats
            .iter()
            .all(|s| s.shards_requested == requested));
    }

    #[test]
    fn loss_injection_produces_missing_fields() {
        let mut cfg = tiny(TransportKind::Simulated);
        cfg.channel = SimConfig::with_loss(0.05, 99);
        let r = Deployment::new(cfg).run();
        assert!(r.datagrams_dropped > 0);
        assert!(r.reassembly_incomplete > 0 || r.integrity.processes_with_missing > 0);
        assert!(r.integrity.job_loss_fraction() > 0.0);
    }

    #[test]
    fn deterministic_end_to_end() {
        let run = || {
            let r = Deployment::new(tiny(TransportKind::Simulated)).run();
            (
                r.db_rows,
                r.records.len(),
                r.records.first().map(|x| x.key.clone()),
                r.records.last().map(|x| x.key.clone()),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn udp_loopback_pipeline_works() {
        // Two unclamped shards: one receiver socket and drain thread per
        // worker, even on a single-core machine.
        let mut cfg = tiny(TransportKind::UdpLoopback);
        cfg.shards = 2;
        cfg.ingest_clamp = false;
        let r = Deployment::new(cfg).run();
        // Loopback may drop under burst, but the pipeline must deliver the
        // overwhelming majority and consolidate cleanly.
        assert!(r.datagrams_delivered > 0);
        let delivered_frac = r.datagrams_delivered as f64 / r.datagrams_sent as f64;
        assert!(
            delivered_frac > 0.5,
            "loopback delivered only {delivered_frac}"
        );
        assert!(!r.records.is_empty());
        assert_eq!(r.shard_stats.len(), 2);
        // Under loopback loss only structural sanity can be asserted.
        assert_eq!(r.records.len() as u64, r.consolidate_stats.processes);
    }

    #[test]
    fn all_sentinels_lost_falls_back_to_quiet_period() {
        // A sender that never announces end-of-campaign: the drain must
        // deliver every payload message and give up after the configured
        // quiet period with no sentinel claim.
        let receiver = UdpReceiver::spawn(1024).expect("bind receiver");
        let sender = siren_net::UdpSender::connect(receiver.local_addr()).expect("sender");
        use siren_net::Sender as _;
        for i in 0..20u64 {
            let msg = siren_wire::chunk_message(
                &siren_wire::MessageHeader {
                    job_id: i,
                    step_id: 0,
                    pid: i as u32,
                    exe_hash: format!("{i:08x}"),
                    host: "nid1".into(),
                    time: 1_700_000_000,
                    layer: siren_wire::Layer::SelfExe,
                    mtype: MessageType::Meta,
                },
                "path=/usr/bin/x",
                1200,
            );
            for m in msg {
                sender.send(&m.encode());
            }
        }
        let start = std::time::Instant::now();
        let quiet = Duration::from_millis(300);
        let mut delivered = 0u64;
        let sentinel = drain_each_until_sentinel(&receiver, quiet, |_m| delivered += 1);
        receiver.stop();
        assert_eq!(sentinel, None, "no sentinel was ever sent");
        assert_eq!(delivered, 20, "payloads must survive sentinel loss");
        let elapsed = start.elapsed();
        assert!(
            elapsed >= quiet,
            "gave up before the quiet period: {elapsed:?}"
        );
        assert!(
            elapsed < Duration::from_secs(8),
            "quiet fallback must honor the configured period, took {elapsed:?}"
        );
    }

    #[test]
    fn persistent_database_round_trips() {
        use siren_db::{Record, WalBackend};

        let dir = std::env::temp_dir().join(format!("siren-core-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("pipeline.sirendb");
        let partition = |i: usize| dir.join(format!("pipeline.sirendb.shard{i}"));
        for i in 0..3 {
            let _ = std::fs::remove_file(partition(i));
        }

        let mut cfg = tiny(TransportKind::Simulated);
        cfg.shards = 3;
        cfg.ingest_clamp = false;
        cfg.db_path = Some(base);
        let r = Deployment::new(cfg.clone()).run();
        assert!(r.db_rows > 0);
        assert_eq!(
            r.replay,
            ReplayStats::default(),
            "fresh WALs replay nothing"
        );

        let mut stored = 0u64;
        for i in 0..3 {
            let (_wal, rows, stats) = WalBackend::<Record>::open(&partition(i)).unwrap();
            assert_eq!(stats.corrupt_tail_bytes, 0);
            assert_eq!(stats.records, rows.len() as u64);
            stored += rows.len() as u64;
        }
        assert_eq!(stored, r.db_rows);

        // A second deployment over the same WALs surfaces the replay.
        let r2 = Deployment::new(cfg).run();
        assert_eq!(r2.replay.records, r.db_rows);
        assert_eq!(r2.replay.corrupt_tail_bytes, 0);
        for i in 0..3 {
            std::fs::remove_file(partition(i)).unwrap();
        }
    }
}
