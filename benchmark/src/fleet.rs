//! The read-side fleet: one daemon holding the union corpus, two
//! job-hash shard daemons holding the same records partitioned, and a
//! `RouterDaemon` in front of the shards.

use crate::run::Res;
use crate::spans::Spans;
use crate::world;
use siren_consolidate::ProcessRecord;
use siren_federation::{FleetConfig, Router, RouterDaemon};
use siren_service::SirenDaemon;
use siren_wire::ShardRouter;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Job-hash shards behind the router.
pub const SHARDS: usize = 2;

/// The running fleet.
pub struct Fleet {
    /// Holds every record; also the replication leader of the recovery
    /// phase.
    pub union: SirenDaemon,
    pub union_dir: PathBuf,
    /// Hold the records of the jobs `ShardRouter` assigns them.
    pub shards: Vec<SirenDaemon>,
    /// Fronts the shards on the stock wire protocol.
    pub router: RouterDaemon,
    /// `SirenDaemon::import_epoch` time per union epoch, ms.
    pub import_ms: Vec<f64>,
}

impl Fleet {
    /// Populate a fleet under `root` from the committed corpus
    /// (`corpus[i]` = epoch `i`, in `record_order`, as ingest produced
    /// it). The shards import each epoch's records filtered by job
    /// shard, which preserves that order — the canonical-corpus
    /// discipline the router's merge relies on.
    pub fn build(root: &Path, corpus: &[Vec<ProcessRecord>], spans: &mut Spans) -> Res<Self> {
        let union_dir = root.join("union");
        let mut union = spans.span("service.SirenDaemon::open", |_| {
            world::open_daemon(&union_dir)
        })?;
        let mut import_ms = Vec::new();
        for epoch in corpus {
            let start = Instant::now();
            spans.span("service.import_epoch", |_| {
                union.import_epoch(epoch.clone())
            })?;
            import_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
        let job_shards = ShardRouter::new(SHARDS);
        let mut shards = Vec::new();
        for k in 0..SHARDS {
            let mut shard = spans.span("service.SirenDaemon::open", |_| {
                world::open_daemon(&root.join(format!("shard{k}")))
            })?;
            for epoch in corpus {
                let part: Vec<ProcessRecord> = epoch
                    .iter()
                    .filter(|r| job_shards.shard_of_job(r.key.job_id) == k)
                    .cloned()
                    .collect();
                spans.span("service.import_epoch", |_| shard.import_epoch(part))?;
            }
            shards.push(shard);
        }
        let router = spans.span("federation.RouterDaemon::spawn", |_| -> Res<RouterDaemon> {
            let router = Router::new(FleetConfig::sharded(shard_addrs(&shards)?))?;
            Ok(RouterDaemon::spawn(router, "127.0.0.1:0")?)
        })?;
        for daemon in std::iter::once(&union).chain(&shards) {
            if !world::quiesce(daemon) {
                return Err("a fleet daemon did not quiesce after population".into());
            }
        }
        Ok(Self {
            union,
            union_dir,
            shards,
            router,
            import_ms,
        })
    }

    /// Query address of the union daemon.
    pub fn union_addr(&self) -> Res<SocketAddr> {
        Ok(self
            .union
            .query_addr()
            .ok_or("union daemon has no query port")?)
    }
}

/// Query addresses of the shard daemons, in shard order.
pub fn shard_addrs(shards: &[SirenDaemon]) -> Res<Vec<SocketAddr>> {
    shards
        .iter()
        .map(|d| Ok(d.query_addr().ok_or("shard daemon has no query port")?))
        .collect()
}
