//! The end-to-end deployment runner.

use siren_cluster::{Campaign, CampaignConfig, CampaignStats};
use siren_collector::{Collector, CollectorStats, PolicyMode};
use siren_consolidate::{integrity_report, ConsolidateStats, IntegrityReport, ProcessRecord};
use siren_db::ReplayStats;
use siren_ingest::{IngestConfig, IngestMetrics, IngestService, ShardStats};
use siren_net::{SimChannel, SimConfig};
use siren_obs::{MetricsSnapshot, Registry};
use siren_wire::MessageType;
use std::path::PathBuf;
use std::sync::atomic::Ordering;

/// Full deployment configuration.
#[derive(Debug, Clone)]
pub struct DeploymentConfig {
    /// Workload parameters.
    pub campaign: CampaignConfig,
    /// Simulated-channel perturbations.
    pub channel: SimConfig,
    /// Collection policy mode.
    pub policy: PolicyMode,
    /// Ingest shard workers, each owning a reassembler and a database
    /// partition (see [`IngestService`]). The default, 1, is the paper's
    /// single receiver process.
    pub shards: usize,
    /// Clamp `shards` to the machine's `available_parallelism` (see
    /// [`IngestConfig::clamp_shards`]). Disable only for experiments
    /// that need an exact shard count.
    pub ingest_clamp: bool,
    /// Optional WAL base path for persistent database partitions: shard
    /// `i` persists to `<db_path>.shard<i>`.
    pub db_path: Option<PathBuf>,
}

impl Default for DeploymentConfig {
    fn default() -> Self {
        Self {
            campaign: CampaignConfig::default(),
            channel: SimConfig::perfect(),
            policy: PolicyMode::Selective,
            shards: 1,
            ingest_clamp: true,
            db_path: None,
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
    /// Datagrams dropped by the channel's injected loss.
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

/// A configured deployment, ready to run.
pub struct Deployment {
    cfg: DeploymentConfig,
}

impl Deployment {
    /// Create a deployment.
    pub fn new(cfg: DeploymentConfig) -> Self {
        Self { cfg }
    }

    /// Run the full pipeline over the simulated channel and consolidate
    /// the results. The real-socket receiver is
    /// `siren_service::SirenDaemon::drain_udp`.
    pub fn run(self) -> DeploymentResult {
        let campaign = Campaign::new(self.cfg.campaign.clone());
        let (tx, rx) = SimChannel::create(self.cfg.channel);
        let mut collector = Collector::new(&tx, self.cfg.policy);

        let campaign_stats = campaign.run(|ctx| collector.observe(&ctx));
        let collector_stats = collector.stats().clone();

        let (messages, decode_errors) = rx.drain_messages();
        assert_eq!(decode_errors, 0, "sim channel never corrupts datagrams");
        let dropped = rx.stats().dropped.load(Ordering::Relaxed);

        // Offline ingest of the drained message vector.
        let registry = Registry::new();
        let mut service = IngestService::spawn(IngestConfig {
            shards: self.cfg.shards,
            clamp_shards: self.cfg.ingest_clamp,
            wal_base: self.cfg.db_path.clone(),
            metrics: IngestMetrics::register(&registry),
            ..IngestConfig::default()
        })
        .expect("spawn ingest service");
        let mut delivered = 0u64;
        for msg in messages {
            if msg.header.mtype != MessageType::End {
                delivered += 1;
            }
            service.push(msg);
        }
        let ingested = service.finish().expect("ingest finish");

        // Stamp the transport-level counts beside the `ingest.*` series
        // the shard workers recorded, then snapshot the registry.
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DeploymentConfig {
        let mut cfg = DeploymentConfig::default();
        cfg.campaign.scale = 0.001;
        cfg
    }

    #[test]
    fn simulated_pipeline_is_lossless_by_default() {
        let r = Deployment::new(tiny()).run();
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
        let mut cfg = tiny();
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
        let mut cfg = tiny();
        cfg.channel = SimConfig::with_loss(0.05, 99);
        let r = Deployment::new(cfg).run();
        assert!(r.datagrams_dropped > 0);
        assert!(r.reassembly_incomplete > 0 || r.integrity.processes_with_missing > 0);
        assert!(r.integrity.job_loss_fraction() > 0.0);
    }

    #[test]
    fn deterministic_end_to_end() {
        let run = || {
            let r = Deployment::new(tiny()).run();
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
    fn persistent_database_round_trips() {
        use siren_db::{Record, WalBackend};

        let dir = std::env::temp_dir().join(format!("siren-core-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("pipeline.sirendb");
        let partition = |i: usize| dir.join(format!("pipeline.sirendb.shard{i}"));
        for i in 0..3 {
            let _ = std::fs::remove_file(partition(i));
        }

        let mut cfg = tiny();
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
