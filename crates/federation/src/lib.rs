//! # siren-federation — scatter-gather query routing over a daemon fleet
//!
//! One siren daemon holds one corpus; the paper's fleet-scale analysis
//! runs against many — job/host shards for capacity, epoch-shipping
//! replicas (the `siren-service` replication tier) for read
//! availability. This crate is the tier in front of them:
//!
//! * [`FleetConfig`] declares the topology — an ordered list of
//!   [`ReplicaSet`]s (leader + followers), each owning a disjoint
//!   corpus slice by job-hash shard (`siren_wire::ShardRouter`, the
//!   same partition ingest uses), optional host claims, and optional
//!   epoch claims.
//! * [`Router`] accepts a [`QueryPlan`], prunes backends by the
//!   selection's [`ShardKey`], fans the plan out over per-backend
//!   multiplexed streams, and k-way-merges the ordered replies —
//!   byte/order-identical to a single daemon ingesting the union
//!   corpus (see `merge` for the proof sketch). Usage tables are
//!   summed per user across shards and re-sorted; limits cut top-k
//!   across backends.
//! * A background [`HealthChecker`] probes every backend with `Status`
//!   requests, tracks follower lag from the replication counters,
//!   orders read candidates freshest-first, and — when a leader stays
//!   dark past `promote_after` — repoints the set at a caught-up
//!   follower (automated promotion, `fed.promotions`).
//! * Unreachable shards degrade to **partial results**: the merged
//!   stream still ends normally, carrying a typed [`QueryWarning`]
//!   that enumerates exactly the missing backends. Zero reachable
//!   backends is the only hard failure.
//! * [`RouterDaemon`] serves the daemon's wire protocol on its
//!   own port through the reactor's poller, so unmodified
//!   `SirenClient`s federate transparently.
//!
//! Router health lands in the `fed.*` series of [`Router::registry`]
//! and renders in `siren_core::report::telemetry_report`; router spans
//! join the existing trace trees via propagated trace ids.
//!
//! [`QueryPlan`]: siren_proto::QueryPlan
//! [`ShardKey`]: siren_proto::ShardKey
//! [`QueryWarning`]: siren_proto::QueryWarning

mod config;
mod daemon;
mod health;
mod merge;
mod metrics;
mod router;

pub use config::{FleetConfig, ReplicaSet};
pub use daemon::RouterDaemon;
pub use health::{FleetHealth, HealthChecker, PromotionHook};
pub use merge::{merge_usage_tables, neighbor_row_cmp, plan_row_cmp, record_row_cmp};
pub use router::{FederatedStream, Router, RouterError};
