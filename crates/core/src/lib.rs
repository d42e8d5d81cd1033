//! # siren-core — the SIREN framework, end to end
//!
//! This crate wires the full pipeline of the paper's Figure 1:
//!
//! ```text
//! workload simulator ──▶ siren.so collector ──▶ UDP (real or simulated)
//!        (siren-cluster)     (siren-collector)        (siren-net)
//!                                                        │
//!   analysis ◀── consolidation ◀── database ◀── receiver + reassembly
//! (siren-analysis)  (siren-consolidate)  (siren-db)     (siren-wire)
//! ```
//!
//! [`Deployment`] runs a complete opt-in campaign over the simulated
//! channel and returns the consolidated per-process records plus
//! statistics from every stage (real UDP ingest is
//! [`service::SirenDaemon::drain_udp`]);
//! [`report`] renders the paper's tables and figures from those records.
//!
//! ## Quick start
//!
//! ```
//! use siren_core::{Deployment, DeploymentConfig};
//!
//! let mut cfg = DeploymentConfig::default();
//! cfg.campaign.scale = 0.002; // tiny demo campaign
//! let result = Deployment::new(cfg).run();
//! assert!(result.records.len() > 100);
//! println!("{}", siren_core::report::usage_report(&result.records));
//! ```

pub mod fleet;
pub mod pipeline;
pub mod report;

pub use fleet::{FleetDeployment, FleetDeploymentConfig, FleetResult};
pub use pipeline::{Deployment, DeploymentConfig, DeploymentResult};

// Re-export the component crates under one roof so downstream users need
// a single dependency.
pub use siren_analysis as analysis;
pub use siren_cluster as cluster;
pub use siren_collector as collector;
pub use siren_consolidate as consolidate;
pub use siren_db as db;
pub use siren_elf as elf;
pub use siren_federation as federation;
pub use siren_fuzzy as fuzzy;
pub use siren_hash as hash;
pub use siren_ingest as ingest;
pub use siren_net as net;
pub use siren_obs as obs;
pub use siren_proto as proto;
pub use siren_service as service;
pub use siren_store as store;
pub use siren_text as text;
pub use siren_wire as wire;

use siren_consolidate::ProcessRecord;

/// Locate the UNKNOWN-case baseline for the Table-7 experiment: the
/// user-directory record with a nondescript `a.out` name carrying the
/// most fuzzy-hash columns (lost columns would weaken the baseline).
pub fn find_unknown_baseline(records: &[ProcessRecord]) -> Option<&ProcessRecord> {
    records
        .iter()
        .filter(|r| r.exe_name() == Some("a.out"))
        .max_by_key(|r| {
            [
                r.modules_hash.is_some(),
                r.compilers_hash.is_some(),
                r.objects_hash.is_some(),
                r.file_hash.is_some(),
                r.strings_hash.is_some(),
                r.symbols_hash.is_some(),
            ]
            .iter()
            .filter(|&&b| b)
            .count()
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deployment_smoke() {
        let mut cfg = DeploymentConfig::default();
        cfg.campaign.scale = 0.002;
        let result = Deployment::new(cfg).run();
        assert!(result.records.len() > 100);
        assert_eq!(result.collector_stats.errors, 0);
        assert_eq!(
            result.reassembly_incomplete, 0,
            "perfect channel loses nothing"
        );
        assert!(find_unknown_baseline(&result.records).is_some());
    }
}
