//! Multi-cluster deployments: K independent clusters streaming into one
//! sharded ingest service.
//!
//! Each cluster runs its own campaign and collector on its own thread
//! (collection is per-node and embarrassingly parallel in reality) and
//! pushes decoded messages into the shared [`IngestService`] through a
//! cloneable [`IngestProducer`]. Job-keyed routing interleaves the
//! clusters' traffic across shard workers; because the fleet assigns
//! disjoint job and host namespaces, the consolidated output is exactly
//! the sorted union of what each cluster would produce alone — a
//! property the integration tests assert.

use siren_cluster::{Campaign, CampaignStats, FleetConfig};
use siren_collector::{Collector, CollectorStats, PolicyMode};
use siren_consolidate::{integrity_report, ConsolidateStats, IntegrityReport, ProcessRecord};
use siren_ingest::{IngestConfig, IngestProducer, IngestService, ShardStats};
use siren_net::Sender;
use std::sync::atomic::{AtomicU64, Ordering};

/// Fleet deployment configuration.
#[derive(Debug, Clone)]
pub struct FleetDeploymentConfig {
    /// Cluster count and per-cluster campaign derivation.
    pub fleet: FleetConfig,
    /// Collection policy (shared by all clusters).
    pub policy: PolicyMode,
    /// Ingest tier shared by the whole fleet.
    pub ingest: IngestConfig,
}

impl Default for FleetDeploymentConfig {
    fn default() -> Self {
        Self {
            fleet: FleetConfig::default(),
            policy: PolicyMode::Selective,
            ingest: IngestConfig::default(),
        }
    }
}

/// Per-cluster outcome of a fleet run.
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// Cluster index.
    pub cluster: usize,
    /// Workload statistics.
    pub campaign_stats: CampaignStats,
    /// Collection statistics.
    pub collector_stats: CollectorStats,
}

/// Everything a fleet run produces.
#[derive(Debug)]
pub struct FleetResult {
    /// Consolidated records of the whole fleet, in the canonical order.
    pub records: Vec<ProcessRecord>,
    /// Summed consolidation statistics.
    pub consolidate_stats: ConsolidateStats,
    /// Per-shard ingest telemetry.
    pub shard_stats: Vec<ShardStats>,
    /// Per-cluster campaign/collection outcomes, cluster order.
    pub clusters: Vec<ClusterOutcome>,
    /// Missing-field integrity report over the merged records.
    pub integrity: IntegrityReport,
    /// End-of-campaign sentinels observed (one burst per cluster).
    pub sentinels_seen: u64,
}

/// A collector transport that decodes datagrams and feeds them straight
/// into the ingest service — the in-process analogue of a UDP receiver,
/// used where the fleet experiment wants losslessness.
struct ProducerSender {
    producer: IngestProducer,
    sent: AtomicU64,
}

impl Sender for ProducerSender {
    fn send(&self, datagram: &[u8]) {
        self.sent.fetch_add(1, Ordering::Relaxed);
        // Graceful-failure doctrine: an undecodable datagram is dropped
        // silently, exactly as a UDP receiver would shed it.
        let _ = self.producer.push_datagram(datagram);
    }

    fn sent_count(&self) -> u64 {
        self.sent.load(Ordering::Relaxed)
    }
}

/// A configured fleet deployment, ready to run.
pub struct FleetDeployment {
    cfg: FleetDeploymentConfig,
}

impl FleetDeployment {
    /// Create a fleet deployment.
    pub fn new(cfg: FleetDeploymentConfig) -> Self {
        Self { cfg }
    }

    /// Run every cluster concurrently into one ingest service and merge.
    pub fn run(self) -> FleetResult {
        let service = IngestService::spawn(self.cfg.ingest.clone()).expect("spawn ingest");
        let policy = self.cfg.policy;

        let mut outcomes: Vec<ClusterOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.cfg.fleet.clusters)
                .map(|k| {
                    let campaign_cfg = self.cfg.fleet.campaign_config(k);
                    let producer = service.producer();
                    scope.spawn(move || {
                        let campaign = Campaign::new(campaign_cfg);
                        let sender = ProducerSender {
                            producer,
                            sent: AtomicU64::new(0),
                        };
                        let mut collector =
                            Collector::new(&sender, policy).with_sender_id(k as u32);
                        let campaign_stats = campaign.run(|ctx| collector.observe(&ctx));
                        // Each sender announces its own end of campaign.
                        collector.end_campaign();
                        ClusterOutcome {
                            cluster: k,
                            campaign_stats,
                            collector_stats: collector.stats().clone(),
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("cluster thread"))
                .collect()
        });
        outcomes.sort_by_key(|o| o.cluster);

        let ingested = service.finish().expect("ingest finish");
        let integrity = integrity_report(&ingested.records);
        FleetResult {
            records: ingested.records,
            consolidate_stats: ingested.stats,
            shard_stats: ingested.shard_stats,
            clusters: outcomes,
            integrity,
            sentinels_seen: ingested.sentinels_seen,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Deployment, DeploymentConfig};
    use siren_cluster::CampaignConfig;

    fn tiny_fleet(clusters: usize, shards: usize) -> FleetDeploymentConfig {
        FleetDeploymentConfig {
            fleet: FleetConfig {
                clusters,
                base: CampaignConfig {
                    scale: 0.001,
                    ..CampaignConfig::default()
                },
            },
            ingest: IngestConfig::with_shards_unclamped(shards),
            ..FleetDeploymentConfig::default()
        }
    }

    #[test]
    fn fleet_equals_union_of_solo_cluster_runs() {
        let cfg = tiny_fleet(2, 3);
        let fleet_records = FleetDeployment::new(cfg.clone()).run().records;

        // Reference: each cluster alone, through a default 1-shard
        // deployment.
        let mut expected: Vec<_> = (0..cfg.fleet.clusters)
            .flat_map(|k| {
                let dc = DeploymentConfig {
                    campaign: cfg.fleet.campaign_config(k),
                    ..DeploymentConfig::default()
                };
                Deployment::new(dc).run().records
            })
            .collect();
        expected.sort_by(siren_consolidate::record_order);

        assert_eq!(fleet_records.len(), expected.len());
        assert_eq!(
            fleet_records, expected,
            "fleet must equal union of solo runs"
        );
    }

    #[test]
    fn fleet_namespaces_and_sentinels() {
        let cfg = tiny_fleet(3, 2);
        let result = FleetDeployment::new(cfg.clone()).run();
        assert_eq!(result.clusters.len(), 3);
        // One sentinel burst per cluster sender.
        assert_eq!(
            result.sentinels_seen,
            (3 * siren_collector::SENTINEL_BURST) as u64
        );
        // Records from every cluster's job namespace are present.
        for k in 0..3 {
            let base = cfg.fleet.campaign_config(k).job_id_base;
            let stride = siren_cluster::fleet::JOB_STRIDE;
            assert!(
                result
                    .records
                    .iter()
                    .any(|r| (base..base + stride).contains(&r.key.job_id)),
                "no records from cluster {k}"
            );
        }
        // Integrity: lossless in-process transport loses nothing.
        assert_eq!(result.integrity.jobs_with_missing, 0);
        let total_procs: u64 = result
            .clusters
            .iter()
            .map(|c| c.campaign_stats.processes - c.campaign_stats.container_processes)
            .sum();
        assert_eq!(result.records.len() as u64, total_procs);
    }
}
