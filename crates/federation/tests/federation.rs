//! Federated scatter-gather equivalence suite.
//!
//! The property pinned throughout: a [`Router`] over a fleet of shard
//! daemons answers any `QueryPlan` **byte/order-identically** to a
//! single daemon holding the union corpus — including under seeded
//! fault injection, where unreachable shards degrade to typed partial
//! results (never silent) and replica sets fail reads over to caught-up
//! followers mid-stream.
//!
//! Corpora follow the canonical discipline the merge proof requires
//! (see `siren_federation::merge`): each epoch's records are stored in
//! [`record_order`] on the shards *and* on the union oracle, and shard
//! membership is the same job-hash partition ingest uses
//! (`ShardRouter`), so every shard's stream is an ordered subsequence
//! of the oracle's.

use proptest::test_runner::{rng_for, TestRng};
use siren_consolidate::{record_order, ProcessRecord};
use siren_db::Record;
use siren_federation::{FleetConfig, Router};
use siren_net::{FaultConfig, FaultProxy};
use siren_proto::{
    Order, PlanRow, PlanSource, Projection, QueryPlan, QueryResponse, RetryPolicy, RowBatch,
    Selection, SirenClient,
};
use siren_service::{Replicator, ReplicatorConfig, ServiceConfig, SirenDaemon};
use siren_wire::{Layer, MessageType, ShardRouter};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

// ---------------------------------------------------- fixtures --

fn temp_data_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("siren-fed-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn service_config(dir: &PathBuf) -> ServiceConfig {
    ServiceConfig {
        shards: 2,
        query_addr: Some("127.0.0.1:0".parse().unwrap()),
        ..ServiceConfig::at(dir)
    }
}

/// A record with fuzzed identity, its job drawn from `job_pool` (the
/// jobs owned by one shard) and a `FILE_H` drawn from shapes that
/// exercise the neighbor index.
fn arb_record(rng: &mut TestRng, job_pool: &[u64], shared_hashes: &[String]) -> ProcessRecord {
    let row = Record {
        job_id: job_pool[rng.below(job_pool.len() as u64) as usize],
        step_id: rng.below(3) as u32,
        pid: rng.next_u64() as u32,
        exe_hash: format!("{:016x}", rng.next_u64()),
        host: format!("nid{:06}", rng.below(5)),
        time: 1_700_000_000 + rng.below(1_000),
        layer: Layer::SelfExe,
        mtype: MessageType::Meta,
        content: String::new(),
    };
    let mut rec = ProcessRecord::new(&row);
    rec.file_hash = match rng.below(5) {
        0 => None,
        1 if !shared_hashes.is_empty() => {
            Some(shared_hashes[rng.below(shared_hashes.len() as u64) as usize].clone())
        }
        _ => {
            let sig: String = (0..24)
                .map(|_| b"ABCDEFabcdef0123456789+/"[rng.below(24) as usize] as char)
                .collect();
            Some(format!("48:{sig}:{}", &sig[..12]))
        }
    };
    rec
}

/// A fleet corpus: per-epoch union lists in `record_order`, plus each
/// shard's (ordered) subsequence under the job-hash partition.
struct Corpus {
    /// `[epoch]` → records sorted by `record_order`.
    union: Vec<Vec<ProcessRecord>>,
    /// `[shard][epoch]` → that shard's subsequence of the union.
    shards: Vec<Vec<Vec<ProcessRecord>>>,
    /// A fuzzy hash shared by several records — the neighbor probe.
    probe_hash: String,
}

fn build_corpus(rng: &mut TestRng, n_shards: usize, n_epochs: usize, density: u64) -> Corpus {
    let shard_router = ShardRouter::new(n_shards);
    // Jobs each shard owns, so every (shard, epoch) cell is non-empty.
    let pools: Vec<Vec<u64>> = (0..n_shards)
        .map(|k| {
            (0..64)
                .filter(|&j| shard_router.shard_of_job(j) == k)
                .collect()
        })
        .collect();
    let shared: Vec<String> = (0..3)
        .map(|i| {
            format!(
                "96:{:032x}:{:016x}",
                rng.next_u64() as u128 * 31 + i,
                rng.next_u64()
            )
        })
        .collect();
    let mut union = Vec::new();
    let mut shards = vec![Vec::new(); n_shards];
    for _ in 0..n_epochs {
        let mut epoch: Vec<ProcessRecord> = Vec::new();
        for pool in &pools {
            let n = 1 + rng.below(density) as usize;
            for _ in 0..n {
                epoch.push(arb_record(rng, pool, &shared));
            }
        }
        epoch.sort_by(record_order);
        for (k, shard) in shards.iter_mut().enumerate() {
            let subset: Vec<ProcessRecord> = epoch
                .iter()
                .filter(|r| shard_router.shard_of_job(r.key.job_id) == k)
                .cloned()
                .collect();
            shard.push(subset);
        }
        union.push(epoch);
    }
    Corpus {
        union,
        shards,
        probe_hash: shared[0].clone(),
    }
}

/// A daemon serving `epochs` (imported in order, ids 0..n).
fn spawn_daemon(tag: &str, epochs: &[Vec<ProcessRecord>]) -> SirenDaemon {
    let dir = temp_data_dir(tag);
    let (mut daemon, _) = SirenDaemon::open(service_config(&dir)).unwrap();
    for records in epochs {
        daemon.import_epoch(records.clone()).unwrap();
    }
    daemon
}

/// Fast-failing fleet policies so dead backends cost milliseconds.
fn fast_fleet(leaders: impl IntoIterator<Item = SocketAddr>) -> FleetConfig {
    FleetConfig {
        retry: RetryPolicy {
            max_retries: 1,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(20),
            jitter: false,
        },
        connect_timeout: Duration::from_secs(2),
        ..FleetConfig::sharded(leaders)
    }
}

/// The fixed plan set of the equivalence oracle: every source, every
/// order, limits, projections, and selections of each predicate kind.
fn oracle_plans(probe_hash: &str) -> Vec<QueryPlan> {
    vec![
        QueryPlan::records().batch_rows(3),
        QueryPlan::records().order_by(Order::TimeAsc),
        QueryPlan::records().order_by(Order::TimeDesc).limit(17),
        QueryPlan::records().limit(5),
        QueryPlan::records().filter(Selection::all().job(3)),
        QueryPlan::records()
            .filter(Selection::all().host("nid000002"))
            .limit(9),
        QueryPlan::records().filter(Selection::all().between(1_700_000_200, 1_700_000_700)),
        QueryPlan::records().filter(Selection::all().epoch(0)),
        QueryPlan::records()
            .project(Projection::Keys)
            .order_by(Order::TimeAsc),
        QueryPlan::usage_table(),
        QueryPlan::usage_table().limit(2),
        QueryPlan::neighbors(probe_hash, 40).limit(8),
    ]
}

/// Serialize rows as one wire batch — the byte-identity oracle.
fn row_bytes(plan: &QueryPlan, rows: &[PlanRow]) -> Vec<u8> {
    let batch = match plan.source {
        PlanSource::Records => RowBatch::Records(
            rows.iter()
                .cloned()
                .filter_map(PlanRow::into_record)
                .collect(),
        ),
        PlanSource::UsageTable => RowBatch::Usage(
            rows.iter()
                .cloned()
                .filter_map(PlanRow::into_usage)
                .collect(),
        ),
        PlanSource::Neighbors { .. } => RowBatch::Neighbors(
            rows.iter()
                .cloned()
                .filter_map(PlanRow::into_neighbor)
                .collect(),
        ),
    };
    QueryResponse::Batch(batch).encode()
}

fn shard_of(record_row: &PlanRow, shard_router: &ShardRouter) -> usize {
    match record_row {
        PlanRow::Record(row) => shard_router.shard_of_job(row.record.key.job_id),
        PlanRow::Neighbor(row) => shard_router.shard_of_job(row.record.key.job_id),
        PlanRow::Usage(_) => usize::MAX,
    }
}

// ---------------------------------------------------- equivalence --

/// Tentpole acceptance: random fleets of 1–3 shards; every oracle plan
/// through the router is byte/order-identical to the single daemon
/// holding the union corpus, with no warning.
#[test]
fn fuzzed_fleet_matches_single_union_daemon() {
    let mut rng = rng_for("federation-equivalence");
    for n_shards in 1..=3usize {
        let corpus = build_corpus(&mut rng, n_shards, 3, 8);
        let shard_daemons: Vec<SirenDaemon> = corpus
            .shards
            .iter()
            .enumerate()
            .map(|(k, epochs)| spawn_daemon(&format!("eq{n_shards}-s{k}"), epochs))
            .collect();
        let oracle = spawn_daemon(&format!("eq{n_shards}-union"), &corpus.union);
        let mut oracle_client = SirenClient::connect(oracle.query_addr().unwrap()).unwrap();

        let leaders: Vec<SocketAddr> = shard_daemons
            .iter()
            .map(|d| d.query_addr().unwrap())
            .collect();
        let router = Router::new(fast_fleet(leaders)).unwrap();

        for plan in oracle_plans(&corpus.probe_hash) {
            let (merged, warning) = router.query(plan.clone()).unwrap().collect_rows_warned();
            assert!(
                warning.is_none(),
                "healthy fleet must not warn: {warning:?}"
            );
            let expected = oracle_client
                .query(plan.clone())
                .unwrap()
                .collect_rows()
                .unwrap();
            assert_eq!(
                row_bytes(&plan, &merged),
                row_bytes(&plan, &expected),
                "{n_shards}-shard fleet diverged from the union daemon on {}",
                plan.shape()
            );
        }
        let snapshot = router.registry().snapshot();
        assert!(snapshot.counter("fed.queries") >= 12);
        assert!(snapshot.counter("fed.rows_merged") > 0);
        assert_eq!(snapshot.counter("fed.partial_results"), 0);
    }
}

/// A shard dead *before* the query degrades to a typed partial result:
/// the surviving rows are byte-identical to a daemon holding only the
/// live shards' union, and the warning names exactly the dead shard.
#[test]
fn dead_shard_degrades_to_typed_partial_result() {
    let mut rng = rng_for("federation-dead-shard");
    let corpus = build_corpus(&mut rng, 3, 2, 8);
    let live0 = spawn_daemon("dead-s0", &corpus.shards[0]);
    let dead1 = spawn_daemon("dead-s1", &corpus.shards[1]);
    let live2 = spawn_daemon("dead-s2", &corpus.shards[2]);

    // The oracle holds only the live shards' records, same discipline.
    let shard_router = ShardRouter::new(3);
    let live_union: Vec<Vec<ProcessRecord>> = corpus
        .union
        .iter()
        .map(|epoch| {
            epoch
                .iter()
                .filter(|r| shard_router.shard_of_job(r.key.job_id) != 1)
                .cloned()
                .collect()
        })
        .collect();
    let oracle = spawn_daemon("dead-live-union", &live_union);
    let mut oracle_client = SirenClient::connect(oracle.query_addr().unwrap()).unwrap();

    let leaders = vec![
        live0.query_addr().unwrap(),
        dead1.query_addr().unwrap(),
        live2.query_addr().unwrap(),
    ];
    drop(dead1); // now the middle shard refuses connections

    let router = Router::new(fast_fleet(leaders)).unwrap();
    for plan in [
        QueryPlan::records().batch_rows(4),
        QueryPlan::records().order_by(Order::TimeAsc),
        QueryPlan::usage_table(),
    ] {
        let (merged, warning) = router.query(plan.clone()).unwrap().collect_rows_warned();
        let warning = warning.expect("a dead shard must surface a warning");
        assert_eq!(warning.missing, vec!["shard-1".to_string()]);
        assert!(warning.detail.contains("shard-1"), "{}", warning.detail);
        let expected = oracle_client
            .query(plan.clone())
            .unwrap()
            .collect_rows()
            .unwrap();
        assert_eq!(
            row_bytes(&plan, &merged),
            row_bytes(&plan, &expected),
            "surviving rows must match the live-shard union on {}",
            plan.shape()
        );
    }
    assert!(router.registry().snapshot().counter("fed.partial_results") >= 3);
}

/// Satellite: seeded FaultProxy severs kill all but one shard
/// mid-stream. Survivors' rows stay byte-identical to querying the
/// live shards directly, the dead shards' contributions are clean
/// stream prefixes, and the warning enumerates exactly the dead
/// shards.
#[test]
fn mid_stream_severs_yield_prefix_partials_with_exact_warning() {
    let mut rng = rng_for("federation-sever");
    let corpus = build_corpus(&mut rng, 3, 3, 12);
    let daemons: Vec<SirenDaemon> = corpus
        .shards
        .iter()
        .enumerate()
        .map(|(k, epochs)| spawn_daemon(&format!("sever-s{k}"), epochs))
        .collect();

    // Shards 1 and 2 sit behind proxies that always cut inside the
    // reply body (every shard's reply is far larger than the cut
    // ceiling), so both die mid-stream; shard 0 survives.
    let proxies: Vec<FaultProxy> = [1usize, 2]
        .iter()
        .map(|&k| {
            FaultProxy::spawn(
                daemons[k].query_addr().unwrap(),
                FaultConfig {
                    seed: 7 + k as u64,
                    cut_bytes: Some((600, 3_000)),
                    ..FaultConfig::default()
                },
            )
            .unwrap()
        })
        .collect();
    let leaders = vec![
        daemons[0].query_addr().unwrap(),
        proxies[0].local_addr(),
        proxies[1].local_addr(),
    ];
    let router = Router::new(fast_fleet(leaders)).unwrap();

    let plan = QueryPlan::records().batch_rows(2);
    let (merged, warning) = router.query(plan.clone()).unwrap().collect_rows_warned();
    let warning = warning.expect("mid-stream severs must surface a warning");
    assert_eq!(
        warning.missing,
        vec!["shard-1".to_string(), "shard-2".to_string()],
        "the warning must enumerate exactly the dead shards"
    );
    assert!(proxies.iter().map(FaultProxy::cuts).sum::<u64>() >= 2);

    // Split the merged rows back out by shard ownership.
    let shard_router = ShardRouter::new(3);
    let per_shard: Vec<Vec<PlanRow>> = (0..3)
        .map(|k| {
            merged
                .iter()
                .filter(|row| shard_of(row, &shard_router) == k)
                .cloned()
                .collect()
        })
        .collect();
    for (k, rows) in per_shard.iter().enumerate() {
        let mut direct = SirenClient::connect(daemons[k].query_addr().unwrap()).unwrap();
        let full = direct.query(plan.clone()).unwrap().collect_rows().unwrap();
        if k == 0 {
            assert_eq!(
                row_bytes(&plan, rows),
                row_bytes(&plan, &full),
                "the surviving shard's rows must be byte-identical to a direct query"
            );
        } else {
            assert!(
                rows.len() < full.len(),
                "shard-{k} must have died before completing its stream"
            );
            assert_eq!(
                row_bytes(&plan, rows),
                row_bytes(&plan, &full[..rows.len()]),
                "shard-{k}'s contribution must be a clean prefix of its stream"
            );
        }
    }
    assert_eq!(
        router.registry().snapshot().counter("fed.partial_results"),
        1
    );
}

// ---------------------------------------------------- failover --

/// Satellite: a replica set's leader dies mid-cursor; the router
/// re-plans on the caught-up follower and the merged result still
/// equals the single-daemon oracle, with no warning.
#[test]
fn replica_failover_mid_stream_matches_the_oracle() {
    let mut rng = rng_for("federation-failover");
    let corpus = build_corpus(&mut rng, 2, 3, 12);
    let leader0 = spawn_daemon("fo-leader0", &corpus.shards[0]);
    let leader0_addr = leader0.query_addr().unwrap();
    let leader1 = spawn_daemon("fo-leader1", &corpus.shards[1]);
    let oracle = spawn_daemon("fo-union", &corpus.union);
    let mut oracle_client = SirenClient::connect(oracle.query_addr().unwrap()).unwrap();

    // An epoch-shipping follower of shard 0, converged before the test.
    let follower_dir = temp_data_dir("fo-follower0");
    let (follower, _) = SirenDaemon::open(service_config(&follower_dir)).unwrap();
    let follower_addr = follower.query_addr().unwrap();
    let repl = Replicator::spawn(
        follower,
        ReplicatorConfig {
            poll_interval: Duration::from_millis(10),
            ..ReplicatorConfig::to(leader0_addr)
        },
    )
    .unwrap();
    assert!(repl.wait_for_epoch(2, Duration::from_secs(30)));
    assert!(repl.wait_caught_up(Duration::from_secs(30)));

    // The router reads the leader through a proxy that always severs
    // inside the reply, so every read of shard 0 loses its leader
    // mid-stream and must fail over.
    let proxy = FaultProxy::spawn(
        leader0_addr,
        FaultConfig {
            seed: 99,
            cut_bytes: Some((600, 3_000)),
            ..FaultConfig::default()
        },
    )
    .unwrap();
    let mut cfg = fast_fleet([proxy.local_addr(), leader1.query_addr().unwrap()]);
    cfg.sets[0].followers = vec![follower_addr];
    let router = Router::new(cfg).unwrap();

    let plan = QueryPlan::records().batch_rows(2);
    let (merged, warning) = router.query(plan.clone()).unwrap().collect_rows_warned();
    assert!(
        warning.is_none(),
        "failover must be invisible to the result: {warning:?}"
    );
    let expected = oracle_client
        .query(plan.clone())
        .unwrap()
        .collect_rows()
        .unwrap();
    assert_eq!(
        row_bytes(&plan, &merged),
        row_bytes(&plan, &expected),
        "post-failover merge must equal the union daemon"
    );
    assert!(proxy.cuts() >= 1, "the proxy must actually have cut");
    assert!(router.registry().snapshot().counter("fed.failovers") >= 1);
    drop(repl);
}

/// A leader dark past `promote_after` gets its set repointed at the
/// caught-up follower; the promotion hook fires with old and new
/// addresses and `fed.promotions` lands.
#[test]
fn dark_leader_promotes_a_caught_up_follower() {
    let mut rng = rng_for("federation-promotion");
    let corpus = build_corpus(&mut rng, 1, 2, 6);
    let follower = spawn_daemon("promo-follower", &corpus.shards[0]);
    let follower_addr = follower.query_addr().unwrap();

    // A port that refuses connections: bind, record, drop.
    let dead_addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    };

    let mut cfg = fast_fleet([dead_addr]);
    cfg.sets[0].followers = vec![follower_addr];
    cfg.promote_after = Duration::ZERO;
    let router = Router::new(cfg).unwrap();

    let fired = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
    let sink = std::sync::Arc::clone(&fired);
    router
        .health()
        .set_promotion_hook(std::sync::Arc::new(move |set, old, new| {
            sink.lock().push((set.to_string(), old, new));
        }));

    router.probe_now();
    assert_eq!(router.health().active_leader(0), follower_addr);
    let events = fired.lock().clone();
    assert_eq!(
        events,
        vec![("shard-0".to_string(), dead_addr, follower_addr)]
    );
    let snapshot = router.registry().snapshot();
    assert_eq!(snapshot.counter("fed.promotions"), 1);
    assert!(snapshot.counter("fed.probe_failures") >= 1);

    // Reads now land on the promoted follower, warning-free.
    let (rows, warning) = router
        .query(QueryPlan::records())
        .unwrap()
        .collect_rows_warned();
    assert!(warning.is_none());
    let total: usize = corpus.union.iter().map(Vec::len).sum();
    assert_eq!(rows.len(), total);
}

// ---------------------------------------------------- pruning --

/// Job-hash pruning is exact: a plan pinned to a job never dials the
/// other shard, so its death is invisible — and a plan pinned to the
/// dead shard is a hard `Unavailable`, never a silent empty result.
#[test]
fn job_pruning_skips_dead_shards_it_does_not_need() {
    let mut rng = rng_for("federation-pruning");
    let corpus = build_corpus(&mut rng, 2, 2, 6);
    let live = spawn_daemon("prune-s0", &corpus.shards[0]);
    let dead = spawn_daemon("prune-s1", &corpus.shards[1]);
    let leaders = vec![live.query_addr().unwrap(), dead.query_addr().unwrap()];
    drop(dead);
    let router = Router::new(fast_fleet(leaders)).unwrap();

    let shard_router = ShardRouter::new(2);
    let live_job = (0..64)
        .find(|&j| shard_router.shard_of_job(j) == 0)
        .unwrap();
    let dead_job = (0..64)
        .find(|&j| shard_router.shard_of_job(j) == 1)
        .unwrap();

    let plan = QueryPlan::records().filter(Selection::all().job(live_job));
    let (rows, warning) = router.query(plan.clone()).unwrap().collect_rows_warned();
    assert!(warning.is_none(), "the dead shard was pruned, not missed");
    let mut direct = SirenClient::connect(live.query_addr().unwrap()).unwrap();
    let expected = direct.query(plan.clone()).unwrap().collect_rows().unwrap();
    assert_eq!(row_bytes(&plan, &rows), row_bytes(&plan, &expected));

    let pinned = QueryPlan::records().filter(Selection::all().job(dead_job));
    let err = router
        .query(pinned)
        .err()
        .expect("dead-pinned plan must fail hard");
    assert!(
        err.to_string().contains("no reachable backends"),
        "unexpected error: {err}"
    );
}

/// Epoch claims prune the same way for epoch-partitioned fleets (no
/// job hashing): a selection inside one set's claim never touches the
/// other set.
#[test]
fn epoch_claims_prune_epoch_partitioned_fleets() {
    let mut rng = rng_for("federation-epoch-claims");
    let corpus = build_corpus(&mut rng, 1, 4, 6);

    // Set 0 owns epochs 0–1, set 1 owns epochs 2–3, ids preserved via
    // the pinned-epoch import path.
    let dir0 = temp_data_dir("claims-s0");
    let (mut early, _) = SirenDaemon::open(service_config(&dir0)).unwrap();
    for epoch in 0..2u64 {
        assert!(early
            .import_epoch_at(epoch, corpus.union[epoch as usize].clone())
            .unwrap());
    }
    let dir1 = temp_data_dir("claims-s1");
    let (mut late, _) = SirenDaemon::open(service_config(&dir1)).unwrap();
    for epoch in 0..2u64 {
        // Fill the unowned range with empty epochs so ids line up.
        assert!(late.import_epoch_at(epoch, Vec::new()).unwrap());
    }
    for epoch in 2..4u64 {
        assert!(late
            .import_epoch_at(epoch, corpus.union[epoch as usize].clone())
            .unwrap());
    }

    let mut cfg = fast_fleet([early.query_addr().unwrap(), late.query_addr().unwrap()]);
    cfg.job_hash_sharded = false;
    cfg.sets[0].epochs = Some((0, 1));
    cfg.sets[1].epochs = Some((2, 3));
    drop(late);
    let router = Router::new(cfg).unwrap();

    let plan = QueryPlan::records().filter(Selection::all().epoch(1));
    let (rows, warning) = router.query(plan.clone()).unwrap().collect_rows_warned();
    assert!(warning.is_none(), "the dead late set was pruned");
    assert_eq!(rows.len(), corpus.union[1].len());

    let late_plan = QueryPlan::records().filter(Selection::all().epochs(2, 3));
    assert!(
        router.query(late_plan).is_err(),
        "dead-claimed epochs fail hard"
    );

    // An unconstrained plan still needs both sets: typed partial.
    let (_, warning) = router
        .query(QueryPlan::records())
        .unwrap()
        .collect_rows_warned();
    assert_eq!(
        warning.expect("partial").missing,
        vec!["shard-1".to_string()]
    );
}

// ---------------------------------------------------- status --

/// `Router::status` reports the union the fleet fronts: records
/// summed, committed epochs unioned.
#[test]
fn fleet_status_aggregates_the_union() {
    let mut rng = rng_for("federation-status");
    let corpus = build_corpus(&mut rng, 2, 3, 6);
    let d0 = spawn_daemon("status-s0", &corpus.shards[0]);
    let d1 = spawn_daemon("status-s1", &corpus.shards[1]);
    let router = Router::new(fast_fleet([
        d0.query_addr().unwrap(),
        d1.query_addr().unwrap(),
    ]))
    .unwrap();

    let status = router.status().unwrap();
    let total: u64 = corpus.union.iter().map(|e| e.len() as u64).sum();
    assert_eq!(status.records, total);
    assert_eq!(status.committed_epochs, vec![0, 1, 2]);
    assert_eq!(status.open_epoch, None);
}
