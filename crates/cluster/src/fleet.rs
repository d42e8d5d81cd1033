//! Multi-cluster campaign fleets.
//!
//! The paper observed one system (LUMI); a production SIREN deployment
//! would aggregate collection from several clusters into one ingest
//! service. A [`FleetConfig`] derives `clusters` independent
//! [`CampaignConfig`]s from a base configuration, giving each cluster
//!
//! * a disjoint **job-id namespace** (`job_id_base` strided far apart),
//! * a disjoint **host namespace** (`host_base` strided so node names
//!   never collide), and
//! * a decorrelated **seed** (so clusters do not emit identical
//!   workloads in lockstep).
//!
//! Everything else — user population, corpora, scale — is shared, which
//! is what makes cross-cluster analysis meaningful: the same software
//! appears under different job/host identities.

use crate::campaign::CampaignConfig;

/// Derives per-cluster campaign configurations from a base config.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of independent clusters.
    pub clusters: usize,
    /// Template configuration (cluster 0 uses it almost verbatim).
    pub base: CampaignConfig,
    /// Distance between consecutive clusters' `job_id_base`s. Must
    /// exceed any cluster's campaign job count.
    pub job_stride: u64,
    /// Distance between consecutive clusters' `host_base`s. Must be at
    /// least 512 (a campaign's node-number spread).
    pub host_stride: u32,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            clusters: 2,
            base: CampaignConfig::default(),
            job_stride: 1_000_000,
            host_stride: 10_000,
        }
    }
}

impl FleetConfig {
    /// The derived configuration for cluster `k` (`k < clusters`).
    pub fn campaign_config(&self, k: usize) -> CampaignConfig {
        assert!(k < self.clusters, "cluster index {k} out of range");
        let k64 = k as u64;
        CampaignConfig {
            // Golden-ratio stride decorrelates the RNG streams.
            seed: self
                .base
                .seed
                .wrapping_add(k64.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            job_id_base: self.base.job_id_base + k64 * self.job_stride,
            host_base: self.base.host_base + k as u32 * self.host_stride,
            ..self.base.clone()
        }
    }

    /// All derived configurations.
    pub fn campaign_configs(&self) -> Vec<CampaignConfig> {
        (0..self.clusters)
            .map(|k| self.campaign_config(k))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;

    #[test]
    fn namespaces_are_disjoint() {
        let fleet = FleetConfig {
            clusters: 3,
            base: CampaignConfig {
                scale: 0.001,
                ..CampaignConfig::default()
            },
            ..FleetConfig::default()
        };
        let mut all_jobs: Vec<std::ops::Range<u64>> = Vec::new();
        let mut all_hosts: Vec<std::ops::Range<u32>> = Vec::new();
        for cfg in fleet.campaign_configs() {
            let campaign = Campaign::new(cfg.clone());
            let mut max_job = cfg.job_id_base;
            campaign.run(|ctx| {
                assert!(ctx.job_id > cfg.job_id_base);
                max_job = max_job.max(ctx.job_id);
                let nid: u32 = ctx.host.trim_start_matches("nid").parse().unwrap();
                assert!((cfg.host_base..cfg.host_base + 512).contains(&nid));
            });
            all_jobs.push(cfg.job_id_base..max_job + 1);
            all_hosts.push(cfg.host_base..cfg.host_base + 512);
        }
        for i in 0..all_jobs.len() {
            for j in 0..i {
                assert!(
                    all_jobs[i].start >= all_jobs[j].end || all_jobs[j].start >= all_jobs[i].end,
                    "job ranges overlap: {:?} vs {:?}",
                    all_jobs[i],
                    all_jobs[j]
                );
                assert!(
                    all_hosts[i].start >= all_hosts[j].end
                        || all_hosts[j].start >= all_hosts[i].end,
                    "host ranges overlap"
                );
            }
        }
    }

    #[test]
    fn clusters_are_decorrelated_but_structurally_alike() {
        let fleet = FleetConfig {
            clusters: 2,
            base: CampaignConfig {
                scale: 0.001,
                ..CampaignConfig::default()
            },
            ..FleetConfig::default()
        };
        let stats: Vec<_> = fleet
            .campaign_configs()
            .into_iter()
            .map(|cfg| Campaign::new(cfg).run(|_| {}))
            .collect();
        // Same structural scale (jobs within a few percent)…
        assert_eq!(
            stats[0].jobs, stats[1].jobs,
            "job counts are scale-determined"
        );
        // …but different draws (process totals differ because the RNG
        // streams are decorrelated).
        assert_ne!(stats[0], stats[1]);
    }
}
