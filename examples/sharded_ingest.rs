//! Demonstrates the sharded ingest service and multi-cluster fleets:
//! the same campaign through one shard and through several (asserting
//! identical output), the live sharded UDP loopback path, and a
//! two-cluster fleet into one ingest service.
//!
//! ```bash
//! cargo run --release --example sharded_ingest
//! ```

use siren_repro::{
    Deployment, DeploymentConfig, FleetDeployment, FleetDeploymentConfig, TransportKind,
};

fn main() {
    let base = || {
        let mut cfg = DeploymentConfig::default();
        cfg.campaign.scale = 0.002;
        cfg
    };

    // One shard: the paper's single receiver process.
    let single = Deployment::new(base()).run();
    println!(
        "1 shard:     {:>6} records, {:>6} db rows",
        single.records.len(),
        single.db_rows,
    );

    // More shards, same campaign: output must be identical record for
    // record.
    for shards in [2usize, 4] {
        let mut cfg = base();
        cfg.shards = shards;
        let sharded = Deployment::new(cfg).run();
        assert_eq!(sharded.records, single.records);
        // Per-shard message counts; fewer entries than requested means
        // the hardware clamp applied.
        let per_shard: Vec<u64> = sharded.shard_stats.iter().map(|s| s.received).collect();
        println!(
            "{} shards:    {:>6} records — identical to 1 shard; per-shard messages {:?}",
            shards,
            sharded.records.len(),
            per_shard
        );
    }

    // Live sharded UDP loopback: receiver pool + sharded sender +
    // streaming drain threads, stopped by the end-of-campaign sentinel.
    let mut cfg = base();
    cfg.transport = TransportKind::UdpLoopback;
    cfg.shards = 3;
    let udp = Deployment::new(cfg).run();
    println!(
        "udp sharded: {:>6} records, {}/{} datagrams delivered, backpressure waits {:?}",
        udp.records.len(),
        udp.datagrams_delivered,
        udp.datagrams_sent,
        udp.shard_stats
            .iter()
            .map(|s| s.backpressure_waits)
            .sum::<u64>()
    );

    // Two-cluster fleet into one ingest service.
    let mut fleet_cfg = FleetDeploymentConfig::default();
    fleet_cfg.fleet.clusters = 2;
    fleet_cfg.fleet.base.scale = 0.002;
    let fleet = FleetDeployment::new(fleet_cfg).run();
    println!(
        "fleet(2):    {:>6} records from {} clusters, {} sentinels, first job {}, last job {}",
        fleet.records.len(),
        fleet.clusters.len(),
        fleet.sentinels_seen,
        fleet.records.first().map(|r| r.key.job_id).unwrap_or(0),
        fleet.records.last().map(|r| r.key.job_id).unwrap_or(0),
    );
}
