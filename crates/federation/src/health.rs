//! Backend probing, replica freshness tracking, and automated follower
//! promotion.
//!
//! A sweep (`Router::probe_now`; nothing runs one on a timer) asks
//! each member for a `Status` reply (dialed under the shared
//! [`RetryPolicy`]'s timeout, one attempt per sweep), and the
//! `StatusInfo` replication counters give each follower's epoch lag.
//! The router consults the resulting [`FleetHealth`] to order read
//! candidates — active leader first, then caught-up followers,
//! freshest first — and feeds its own dial outcomes back in, so a
//! query-path failure marks a backend down without waiting for the
//! next sweep.
//!
//! When a set's active leader stays dark past `promote_after`, the
//! sweep repoints the set at its freshest caught-up follower
//! (`fed.promotions`) and invokes the promotion hook, through which an
//! operator (or the failover test) detaches the follower's replicator
//! so it starts serving as a leader — the ROADMAP's follower→leader
//! item, automated.
//!
//! [`RetryPolicy`]: siren_proto::RetryPolicy

use crate::config::FleetConfig;
use crate::metrics::RouterMetrics;
use parking_lot::Mutex;
use siren_obs::Timer;
use siren_proto::SirenClient;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// The promotion hook: `(set name, old leader, new leader)`.
pub type PromotionHook = Arc<dyn Fn(&str, SocketAddr, SocketAddr) + Send + Sync>;

#[derive(Debug, Clone, Copy)]
struct MemberState {
    addr: SocketAddr,
    /// Last observed reachability (optimistic before the first probe).
    up: bool,
    /// Epochs behind its leader, from the replication counters.
    lag_epochs: u64,
}

#[derive(Debug)]
struct SetState {
    /// Who currently serves as this set's leader — starts at the
    /// configured leader, repointed by promotion.
    active_leader: SocketAddr,
    /// When the active leader was first seen dark, if it still is.
    leader_dark_since: Option<Instant>,
    /// All members (configured leader + followers), config order.
    members: Vec<MemberState>,
}

/// Shared, continuously refreshed view of backend reachability and
/// replica freshness. The query path reads candidate orderings from
/// it and reports its own dial/stream failures into it.
pub struct FleetHealth {
    cfg: FleetConfig,
    sets: Mutex<Vec<SetState>>,
    hook: Mutex<Option<PromotionHook>>,
}

impl std::fmt::Debug for FleetHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetHealth")
            .field("sets", &self.sets.lock().len())
            .finish()
    }
}

impl FleetHealth {
    pub(crate) fn new(cfg: FleetConfig) -> Self {
        let sets = cfg
            .sets
            .iter()
            .map(|set| SetState {
                active_leader: set.leader,
                leader_dark_since: None,
                members: set
                    .members()
                    .map(|addr| MemberState {
                        addr,
                        up: true,
                        lag_epochs: 0,
                    })
                    .collect(),
            })
            .collect();
        Self {
            cfg,
            sets: Mutex::new(sets),
            hook: Mutex::new(None),
        }
    }

    /// Install the promotion hook, replacing any previous one.
    pub fn set_promotion_hook(&self, hook: PromotionHook) {
        *self.hook.lock() = Some(hook);
    }

    /// The address currently serving as `set`'s leader.
    pub fn active_leader(&self, set: usize) -> SocketAddr {
        self.sets.lock()[set].active_leader
    }

    /// Read candidates for `set`, best first: the active leader (when
    /// not known dark), then reachable followers within the freshness
    /// bound ordered by lag, then every remaining member as a last
    /// resort — the query path probes them in this order and fails the
    /// set only when all are exhausted.
    pub fn candidates(&self, set: usize) -> Vec<SocketAddr> {
        let sets = self.sets.lock();
        let state = &sets[set];
        let mut out = Vec::with_capacity(state.members.len());
        let leader_up = state
            .members
            .iter()
            .find(|m| m.addr == state.active_leader)
            .is_none_or(|m| m.up);
        if leader_up {
            out.push(state.active_leader);
        }
        let mut fresh: Vec<&MemberState> = state
            .members
            .iter()
            .filter(|m| {
                m.addr != state.active_leader && m.up && m.lag_epochs <= self.cfg.max_lag_epochs
            })
            .collect();
        fresh.sort_by_key(|m| m.lag_epochs);
        out.extend(fresh.iter().map(|m| m.addr));
        for member in &state.members {
            if !out.contains(&member.addr) {
                out.push(member.addr);
            }
        }
        out
    }

    /// Query-path feedback: `addr` answered (or failed) a dial/stream.
    pub fn note(&self, addr: SocketAddr, up: bool) {
        let mut sets = self.sets.lock();
        for state in sets.iter_mut() {
            for member in state.members.iter_mut() {
                if member.addr == addr {
                    member.up = up;
                }
            }
        }
    }

    /// One synchronous probe sweep over every member: refresh
    /// reachability and lag, update the up/down gauges, and run the
    /// promotion policy.
    pub(crate) fn probe_now(&self, metrics: &RouterMetrics) {
        // Probe outside the lock: a dark backend costs a full connect
        // timeout, and the query path must not block behind it.
        let targets: Vec<(usize, String, SocketAddr)> = {
            let sets = self.sets.lock();
            self.cfg
                .sets
                .iter()
                .enumerate()
                .flat_map(|(i, set)| {
                    sets[i]
                        .members
                        .iter()
                        .map(move |m| (i, set.name.clone(), m.addr))
                })
                .collect()
        };
        let mut results = Vec::with_capacity(targets.len());
        for (set, name, addr) in targets {
            metrics.probes.inc();
            let timer = Timer::start(metrics.probe_hist(&name));
            let probed = SirenClient::connect_with_timeout(addr, self.cfg.connect_timeout)
                .and_then(|mut client| client.status());
            timer.stop();
            match probed {
                Ok(status) => results.push((set, addr, true, status.repl_lag_epochs)),
                Err(_) => {
                    metrics.probe_failures.inc();
                    results.push((set, addr, false, 0));
                }
            }
        }

        let mut up_count = 0i64;
        let mut down_count = 0i64;
        let mut promotions: Vec<(String, SocketAddr, SocketAddr)> = Vec::new();
        {
            let mut sets = self.sets.lock();
            for (set, addr, up, lag) in results {
                if let Some(member) = sets[set].members.iter_mut().find(|m| m.addr == addr) {
                    member.up = up;
                    if up {
                        member.lag_epochs = lag;
                    }
                }
            }
            for (i, state) in sets.iter_mut().enumerate() {
                for member in &state.members {
                    if member.up {
                        up_count += 1;
                    } else {
                        down_count += 1;
                    }
                }
                let leader_up = state
                    .members
                    .iter()
                    .find(|m| m.addr == state.active_leader)
                    .is_none_or(|m| m.up);
                if leader_up {
                    state.leader_dark_since = None;
                    continue;
                }
                let dark_since = *state.leader_dark_since.get_or_insert_with(Instant::now);
                if dark_since.elapsed() < self.cfg.promote_after {
                    continue;
                }
                // Leader dark past the threshold: promote the freshest
                // caught-up follower, if one exists.
                let candidate = state
                    .members
                    .iter()
                    .filter(|m| {
                        m.addr != state.active_leader
                            && m.up
                            && m.lag_epochs <= self.cfg.max_lag_epochs
                    })
                    .min_by_key(|m| m.lag_epochs)
                    .map(|m| m.addr);
                if let Some(new_leader) = candidate {
                    let old = state.active_leader;
                    state.active_leader = new_leader;
                    state.leader_dark_since = None;
                    metrics.promotions.inc();
                    promotions.push((self.cfg.sets[i].name.clone(), old, new_leader));
                }
            }
        }
        metrics.backends_up.set(up_count);
        metrics.backends_down.set(down_count);
        if !promotions.is_empty() {
            let hook = self.hook.lock().clone();
            if let Some(hook) = hook {
                for (name, old, new) in promotions {
                    hook(&name, old, new);
                }
            }
        }
    }
}
