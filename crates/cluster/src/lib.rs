//! # siren-cluster — deterministic HPC workload simulator
//!
//! The paper's evaluation substrate is the LUMI supercomputer: 12 opt-in
//! users, 13,448 Slurm jobs, 2,317,859 processes collected between
//! December 2024 and March 2025. That campaign cannot be re-run, so this
//! crate *synthesizes* it: a seeded, scalable generator that emits the
//! same population structure the paper observed —
//!
//! * 12 users with the exact per-user job / system-process /
//!   user-process / Python-process profile of **Table 2**;
//! * a system-executable image (`/usr/bin/bash`, `srun`, `lua5.3`, `rm`,
//!   …) including the shared-library *variants* behind **Tables 3–4**
//!   (three distinct `bash` library sets, etc.);
//! * a user-application corpus (LAMMPS, GROMACS, miniconda, janko, icon,
//!   amber, gzip, alexandria, RadRad, plus the nondescript `a.out`
//!   UNKNOWN) with per-software compiler combinations (**Table 6 /
//!   Fig. 4**), shared-library sets (**Fig. 2 / Fig. 5**), and
//!   controlled-variation binary *families* — the icon family realizes
//!   the decaying-similarity structure of **Table 7**;
//! * Python interpreters 3.6 / 3.10 / 3.11 with script populations and
//!   imported-package sets (**Table 8 / Fig. 3**);
//! * Slurm-shaped metadata: job ids, step ids, node hostnames, PIDs with
//!   reuse, `exec()` image replacement under an unchanged PID within the
//!   same 1-second timestamp (the §3.1 disambiguation discussion).
//!
//! Binaries are real ELF64 images produced by `siren-elf`'s builder, so
//! everything downstream (fuzzy hashing, `.comment` extraction, symbol
//! extraction) operates on genuine bytes, not mocks.
//!
//! All randomness flows from one seed; `(seed, scale)` fully determines
//! the campaign.

pub mod campaign;
pub mod corpus;
pub mod fleet;
pub mod libcatalog;
pub mod process;
pub mod python;
pub mod scheduler;
pub mod sysimage;
pub mod users;

pub use campaign::{Campaign, CampaignConfig, CampaignStats};
pub use corpus::{ApplicationCorpus, VariantBinary};
pub use fleet::FleetConfig;
pub use libcatalog::{library_path, LibraryCatalog};
pub use process::{FileMeta, ProcessContext, PythonContext, SimFile};
pub use python::PythonEcosystem;
pub use sysimage::SystemImage;
pub use users::{UserProfile, USER_PROFILES};

/// Campaign start timestamp: 2024-12-11 00:00:00 UTC, the first day of
/// the paper's deployment window. Every campaign starts here, so job
/// timestamps fall where the paper's did.
pub const CAMPAIGN_START: u64 = 1_733_875_200;

/// Campaign duration in seconds: the paper's deployment window, Dec 11
/// 2024 → Mar 7 2025.
pub const CAMPAIGN_SECONDS: u64 = 86 * 24 * 3600;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_campaign_is_deterministic() {
        let cfg = CampaignConfig {
            seed: 7,
            scale: 0.001,
            ..CampaignConfig::default()
        };
        let collect = |cfg: &CampaignConfig| {
            let mut sig = Vec::new();
            Campaign::new(cfg.clone()).run(|ctx| {
                sig.push((ctx.job_id, ctx.pid, ctx.exe_path.clone(), ctx.timestamp));
            });
            sig
        };
        assert_eq!(collect(&cfg), collect(&cfg));
    }

    #[test]
    fn different_seeds_differ() {
        let run = |seed| {
            let cfg = CampaignConfig {
                seed,
                scale: 0.001,
                ..CampaignConfig::default()
            };
            let mut n_hashes = std::collections::hash_map::DefaultHasher::new();
            use std::hash::{Hash, Hasher};
            Campaign::new(cfg).run(|ctx| {
                (ctx.job_id, ctx.pid, &ctx.host).hash(&mut n_hashes);
            });
            n_hashes.finish()
        };
        assert_ne!(run(1), run(2));
    }
}
