//! Fleet topology: which daemons exist, how the corpus is partitioned
//! across them, and the policies (probing, retry, promotion) the
//! router applies to keep reads flowing.

use siren_proto::RetryPolicy;
use std::net::SocketAddr;
use std::time::Duration;

/// One shard group of the fleet: a leader daemon owning a disjoint
/// slice of the corpus, plus zero or more epoch-shipping followers
/// (PR-9 replicas) the router may read from when the leader is dark.
#[derive(Debug, Clone)]
pub struct ReplicaSet {
    /// Stable name used in warnings, metrics, and logs (e.g.
    /// `"shard-0"`). Must be unique within the fleet.
    pub name: String,
    /// The leader daemon's query address.
    pub leader: SocketAddr,
    /// Follower query addresses, in configured preference order.
    pub followers: Vec<SocketAddr>,
    /// Host claims: the exact hosts whose records this set owns.
    /// Empty = the set may hold records of any host (no host-based
    /// pruning).
    pub hosts: Vec<String>,
    /// Epoch claim: the inclusive epoch range this set owns. `None` =
    /// all epochs. Claims are declarative config, never inferred from
    /// live status — pruning must not depend on stale health data.
    pub epochs: Option<(u64, u64)>,
}

impl ReplicaSet {
    /// A set with no followers and no claims.
    pub fn solo(name: impl Into<String>, leader: SocketAddr) -> Self {
        Self {
            name: name.into(),
            leader,
            followers: Vec::new(),
            hosts: Vec::new(),
            epochs: None,
        }
    }

    /// Every member address, leader first.
    pub fn members(&self) -> impl Iterator<Item = SocketAddr> + '_ {
        std::iter::once(self.leader).chain(self.followers.iter().copied())
    }
}

/// The fleet a [`Router`] fronts: an ordered list of replica sets
/// (order is the shard index when `job_hash_sharded`), plus the
/// shared health/retry policies.
///
/// [`Router`]: crate::Router
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The shard groups. When `job_hash_sharded`, set `i` owns job
    /// shard `i` under `siren_wire::ShardRouter` — the same xxh64
    /// partition the sharded ingest tier uses.
    pub sets: Vec<ReplicaSet>,
    /// True when the sets partition jobs by ingest's job-hash shard
    /// function, letting the router prune by an exact-job selection.
    pub job_hash_sharded: bool,
    /// How long a leader must stay dark before a probe sweep repoints
    /// the set at a caught-up follower (automated promotion).
    pub promote_after: Duration,
    /// Dial/retry policy shared by probes and query fan-out.
    pub retry: RetryPolicy,
    /// Per-operation I/O timeout on backend connections.
    pub connect_timeout: Duration,
    /// A follower lagging more than this many epochs is not considered
    /// fresh enough to serve reads or take a promotion.
    pub max_lag_epochs: u64,
}

impl FleetConfig {
    /// A fleet of solo job-hash shards at `leaders`, under default
    /// policies.
    pub fn sharded(leaders: impl IntoIterator<Item = SocketAddr>) -> Self {
        let sets = leaders
            .into_iter()
            .enumerate()
            .map(|(i, addr)| ReplicaSet::solo(format!("shard-{i}"), addr))
            .collect();
        Self {
            sets,
            job_hash_sharded: true,
            promote_after: Duration::from_secs(5),
            retry: RetryPolicy::default(),
            connect_timeout: Duration::from_secs(5),
            max_lag_epochs: 0,
        }
    }

    /// Reject structurally invalid fleets: no sets, duplicate or empty
    /// set names, duplicate member addresses, inverted epoch claims.
    pub fn validate(&self) -> Result<(), String> {
        if self.sets.is_empty() {
            return Err("fleet has no replica sets".into());
        }
        let mut names = std::collections::HashSet::new();
        let mut addrs = std::collections::HashSet::new();
        for set in &self.sets {
            if set.name.is_empty() {
                return Err("replica set with an empty name".into());
            }
            if !names.insert(set.name.as_str()) {
                return Err(format!("duplicate replica set name {:?}", set.name));
            }
            for member in set.members() {
                if !addrs.insert(member) {
                    return Err(format!(
                        "address {member} appears in more than one backend slot"
                    ));
                }
            }
            if let Some((lo, hi)) = set.epochs {
                if lo > hi {
                    return Err(format!(
                        "set {:?} has an inverted epoch claim ({lo}, {hi})",
                        set.name
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    #[test]
    fn validate_accepts_a_plain_sharded_fleet() {
        let cfg = FleetConfig::sharded([addr(7001), addr(7002)]);
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.sets[0].name, "shard-0");
        assert_eq!(cfg.sets[1].name, "shard-1");
    }

    #[test]
    fn validate_rejects_duplicates_and_inversions() {
        assert!(FleetConfig::sharded([]).validate().is_err());

        let mut dup_name = FleetConfig::sharded([addr(7001), addr(7002)]);
        dup_name.sets[1].name = "shard-0".into();
        assert!(dup_name.validate().is_err());

        let dup_addr = FleetConfig::sharded([addr(7001), addr(7001)]);
        assert!(dup_addr.validate().is_err());

        let mut inverted = FleetConfig::sharded([addr(7001)]);
        inverted.sets[0].epochs = Some((9, 3));
        assert!(inverted.validate().is_err());
    }
}
