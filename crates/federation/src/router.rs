//! The scatter-gather core: prune backends by the plan's selection,
//! fan the plan out over one connection-owning row stream per backend,
//! and merge the ordered replies into one stream that is
//! byte/order-identical to a single daemon holding the union corpus.

use crate::config::FleetConfig;
use crate::health::FleetHealth;
use crate::merge::{merge_usage_tables, plan_row_cmp};
use crate::metrics::RouterMetrics;
use siren_analysis::UsageRow;
use siren_obs::{Registry, Span, Timer, TraceId, TraceStore};
use siren_proto::{
    Order, PlanRow, PlanSource, QueryError, QueryPlan, QueryWarning, RowStream, SirenClient,
    StatusInfo,
};
use siren_wire::ShardRouter;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::Arc;

/// Why a federated query could not start (or a fleet could not be
/// assembled). Mid-stream backend loss is *not* an error — it degrades
/// to a typed [`QueryWarning`] on the stream.
#[derive(Debug)]
pub enum RouterError {
    /// The fleet configuration is structurally invalid.
    Config(String),
    /// The plan was rejected before fan-out (invalid selection, an
    /// aggregation the federation cannot compute).
    Plan(QueryError),
    /// Not a single backend of any selected shard answered — there are
    /// no rows to degrade to, so this is a hard failure.
    Unavailable(String),
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::Config(detail) => write!(f, "invalid fleet config: {detail}"),
            RouterError::Plan(err) => write!(f, "plan refused: {err}"),
            RouterError::Unavailable(detail) => {
                write!(f, "no reachable backends: {detail}")
            }
        }
    }
}

impl std::error::Error for RouterError {}

/// The embeddable federation router. Cheap to clone handles out of
/// (registry, traces, health are all shared); a [`RouterDaemon`] wraps
/// one to serve the wire protocol.
///
/// [`RouterDaemon`]: crate::RouterDaemon
#[derive(Debug)]
pub struct Router {
    cfg: FleetConfig,
    shard_router: ShardRouter,
    pub(crate) metrics: Arc<RouterMetrics>,
    health: Arc<FleetHealth>,
}

impl Router {
    /// Assemble a router over `cfg` (validated). No connections are
    /// opened until a query or probe needs them.
    pub fn new(cfg: FleetConfig) -> Result<Self, RouterError> {
        cfg.validate().map_err(RouterError::Config)?;
        let shard_router = ShardRouter::new(cfg.sets.len());
        let health = Arc::new(FleetHealth::new(cfg.clone()));
        Ok(Self {
            cfg,
            shard_router,
            metrics: Arc::new(RouterMetrics::new()),
            health,
        })
    }

    /// The fleet this router fronts.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// The router's own metric registry (`fed.*` series).
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.metrics.registry)
    }

    /// The router's span flight recorder.
    pub fn traces(&self) -> Arc<TraceStore> {
        Arc::clone(&self.metrics.traces)
    }

    /// The shared health view (candidate orderings, promotion state).
    pub fn health(&self) -> Arc<FleetHealth> {
        Arc::clone(&self.health)
    }

    /// One synchronous probe sweep over every backend: refreshes
    /// reachability and follower lag, and promotes a caught-up follower
    /// where a leader has stayed dark past `promote_after`. Queries
    /// feed their own dial outcomes into the same view; a sweep is how
    /// an operator (or a test) refreshes it deliberately.
    pub fn probe_now(&self) {
        self.health.probe_now(&self.metrics);
    }

    /// The shard-set indices that can hold rows matching `plan`'s
    /// selection, per the **declared** topology (job-hash partition,
    /// host claims, epoch claims) — never live health, so pruning can
    /// not silently drop rows on stale data.
    pub(crate) fn pruned_sets(&self, plan: &QueryPlan) -> Vec<usize> {
        let key = plan.selection.shard_key();
        (0..self.cfg.sets.len())
            .filter(|&i| {
                let set = &self.cfg.sets[i];
                if self.cfg.job_hash_sharded {
                    if let Some(job) = key.job {
                        if self.shard_router.shard_of_job(job) != i {
                            return false;
                        }
                    }
                }
                if let Some(host) = key.host {
                    if !set.hosts.is_empty() && !set.hosts.iter().any(|h| h == host) {
                        return false;
                    }
                }
                if let Some((claim_lo, claim_hi)) = set.epochs {
                    if let Some(epoch) = plan.selection.epoch_filter() {
                        if epoch < claim_lo || epoch > claim_hi {
                            return false;
                        }
                    }
                    if let Some((lo, hi)) = plan.selection.epoch_slice() {
                        if hi < claim_lo || lo > claim_hi {
                            return false;
                        }
                    }
                }
                true
            })
            .collect()
    }

    /// Scatter `plan` across the fleet and return the merged, ordered
    /// stream. See [`Router::query_traced`].
    pub fn query(&self, plan: QueryPlan) -> Result<FederatedStream, RouterError> {
        self.query_traced(plan, None)
    }

    /// Like [`Router::query`], joining the backend-side spans of every
    /// fanned-out stream under `trace` (or a fresh trace id), so one
    /// trace tree spans router and daemons.
    pub fn query_traced(
        &self,
        plan: QueryPlan,
        trace: Option<TraceId>,
    ) -> Result<FederatedStream, RouterError> {
        plan.validate().map_err(RouterError::Plan)?;
        self.metrics.queries.inc();
        let timer = Timer::start(Arc::clone(&self.metrics.merge_ns));
        let mut span = self.metrics.traces.buffer().root("fed.query", trace);
        span.annotate("plan", &plan.shape());
        span.annotate_fingerprint(plan.fingerprint());
        let sets = self.pruned_sets(&plan);
        span.annotate("backends", &sets.len().to_string());

        let usage = matches!(plan.source, PlanSource::UsageTable);
        // Aggregations must see every matching row: a per-backend
        // limit would cut rows that survive the cross-shard sum.
        let mut backend_plan = plan.clone();
        if usage {
            backend_plan.limit = None;
        }

        let mut backends: Vec<BackendStream> = sets
            .iter()
            .map(|&i| BackendStream::new(i, &self.cfg, backend_plan.clone(), span.trace()))
            .collect();
        let mut connected = 0usize;
        for backend in &mut backends {
            let child = span.child(&format!("fed.backend.{}", backend.name));
            if backend.ensure_connected(&self.health, &self.metrics) {
                connected += 1;
            }
            child.finish();
        }
        if connected == 0 && !backends.is_empty() {
            // Nothing answered at all: there is no partial result to
            // degrade to.
            let detail = backends
                .iter()
                .map(|b| {
                    format!(
                        "{}: {}",
                        b.name,
                        b.last_error.as_deref().unwrap_or("unreachable")
                    )
                })
                .collect::<Vec<_>>()
                .join("; ");
            return Err(RouterError::Unavailable(detail));
        }

        let mut stream = FederatedStream {
            order: plan.order,
            backends,
            heads: Vec::new(),
            buffered: VecDeque::new(),
            remaining: plan.limit,
            partial_counted: false,
            health: Arc::clone(&self.health),
            metrics: Arc::clone(&self.metrics),
            _span: span,
            _timer: timer,
        };
        if usage {
            stream.collect_usage();
        } else {
            stream.prime_heads();
        }
        Ok(stream)
    }

    /// Live fleet status aggregate: one [`StatusInfo`] describing the
    /// union the router fronts — records and counters summed, committed
    /// epochs unioned — assembled from whichever backends answer right
    /// now.
    pub fn status(&self) -> Result<StatusInfo, RouterError> {
        let mut agg: Option<StatusInfo> = None;
        let mut last_err = String::new();
        for set in 0..self.cfg.sets.len() {
            for addr in self.health.candidates(set) {
                match SirenClient::connect_with_timeout(addr, self.cfg.connect_timeout)
                    .and_then(|mut c| c.status())
                {
                    Ok(status) => {
                        self.health.note(addr, true);
                        match agg.as_mut() {
                            None => agg = Some(status),
                            Some(agg) => {
                                agg.committed_epochs.extend(status.committed_epochs);
                                agg.records += status.records;
                                agg.epoch_tag_mismatches += status.epoch_tag_mismatches;
                                agg.quiet_period_fallbacks += status.quiet_period_fallbacks;
                                agg.queries_refused += status.queries_refused;
                                agg.open_cursors += status.open_cursors;
                            }
                        }
                        break; // one answer per set
                    }
                    Err(err) => {
                        self.health.note(addr, false);
                        last_err = err.to_string();
                    }
                }
            }
        }
        let mut status = agg.ok_or(RouterError::Unavailable(last_err))?;
        status.committed_epochs.sort_unstable();
        status.committed_epochs.dedup();
        status.open_epoch = None;
        status.version_connections.clear();
        Ok(status)
    }
}

/// One backend's live stream plus its failover state: the remaining
/// read candidates of its replica set and the count of rows already
/// handed to the merge, so a mid-stream re-plan on another replica can
/// skip what was already emitted.
struct BackendStream {
    set: usize,
    name: String,
    plan: QueryPlan,
    trace: TraceId,
    retry: siren_proto::RetryPolicy,
    timeout: std::time::Duration,
    candidates: VecDeque<SocketAddr>,
    current: Option<RowStream<SirenClient>>,
    current_addr: Option<SocketAddr>,
    emitted: u64,
    dead: bool,
    last_error: Option<String>,
}

impl BackendStream {
    fn new(set: usize, cfg: &FleetConfig, plan: QueryPlan, trace: TraceId) -> Self {
        Self {
            set,
            name: cfg.sets[set].name.clone(),
            plan,
            trace,
            retry: cfg.retry.clone(),
            timeout: cfg.connect_timeout,
            // Candidate order is re-read from health at stream start;
            // failover walks the snapshot so one query probes each
            // member at most once.
            candidates: VecDeque::new(),
            current: None,
            current_addr: None,
            emitted: 0,
            dead: false,
            last_error: None,
        }
    }

    /// Connect (or reconnect) to the next viable candidate, re-issue
    /// the plan, and skip the rows already emitted. Marks the backend
    /// dead when every candidate is exhausted.
    fn ensure_connected(&mut self, health: &FleetHealth, metrics: &RouterMetrics) -> bool {
        if self.current.is_some() {
            return true;
        }
        if self.dead {
            return false;
        }
        if self.candidates.is_empty() && self.current_addr.is_none() && self.emitted == 0 {
            // First connect of this stream: take the health-ordered
            // candidate list once. Failover walks this snapshot, so
            // one query probes each member at most once.
            self.candidates = health.candidates(self.set).into();
        }
        while let Some(addr) = self.candidates.pop_front() {
            let attempt = SirenClient::connect_with_retry(addr, self.timeout, &self.retry)
                .and_then(|client| RowStream::open(client, self.plan.clone(), Some(self.trace)));
            match attempt {
                Ok(mut stream) => {
                    // Re-entry after a failover: drop the prefix the
                    // merge has already consumed from the lost stream.
                    let mut resumed = true;
                    for _ in 0..self.emitted {
                        match stream.next() {
                            Some(Ok(_)) => {}
                            Some(Err(err)) => {
                                self.last_error = Some(err.to_string());
                                resumed = false;
                                break;
                            }
                            None => break, // fewer rows than before: treat as done
                        }
                    }
                    if !resumed {
                        health.note(addr, false);
                        continue;
                    }
                    health.note(addr, true);
                    if self.current_addr.is_some() {
                        metrics.failovers.inc();
                    }
                    self.current = Some(stream);
                    self.current_addr = Some(addr);
                    return true;
                }
                Err(err) => {
                    health.note(addr, false);
                    self.last_error = Some(err.to_string());
                }
            }
        }
        self.dead = true;
        false
    }

    /// Next row, failing over across replicas transparently. `None`
    /// means the stream is complete *or* the backend just died —
    /// `dead` distinguishes.
    fn next_row(&mut self, health: &FleetHealth, metrics: &RouterMetrics) -> Option<PlanRow> {
        loop {
            if !self.ensure_connected(health, metrics) {
                return None;
            }
            match self.current.as_mut().and_then(Iterator::next) {
                Some(Ok(row)) => {
                    self.emitted += 1;
                    return Some(row);
                }
                Some(Err(err)) => {
                    // Stream lost mid-reply: mark the replica down and
                    // re-plan on the next candidate.
                    if let Some(addr) = self.current_addr {
                        health.note(addr, false);
                    }
                    self.last_error = Some(err.to_string());
                    self.current = None;
                }
                None => return None,
            }
        }
    }
}

/// The merged, ordered result stream of one federated plan. Iterate
/// rows with [`Iterator::next`]; once iteration finishes,
/// [`FederatedStream::warning`] is `Some` iff backends were lost and
/// the rows are a partial view.
pub struct FederatedStream {
    order: Order,
    backends: Vec<BackendStream>,
    /// One lookahead row per live record/neighbor backend.
    heads: Vec<(usize, PlanRow)>,
    /// Pre-merged rows (the usage-table path).
    buffered: VecDeque<PlanRow>,
    remaining: Option<u64>,
    partial_counted: bool,
    health: Arc<FleetHealth>,
    metrics: Arc<RouterMetrics>,
    /// Held so the root span covers first fan-out to last row.
    _span: Span,
    /// Held so `fed.merge_ns` records the full stream duration.
    _timer: Timer,
}

impl FederatedStream {
    fn prime_heads(&mut self) {
        for i in 0..self.backends.len() {
            if let Some(row) = self.backends[i].next_row(&self.health, &self.metrics) {
                self.heads.push((i, row));
            }
        }
        self.count_partial();
    }

    fn collect_usage(&mut self) {
        let mut tables: Vec<Vec<UsageRow>> = Vec::new();
        for backend in &mut self.backends {
            let mut table = Vec::new();
            while let Some(row) = backend.next_row(&self.health, &self.metrics) {
                if let PlanRow::Usage(row) = row {
                    table.push(row);
                }
            }
            if !backend.dead {
                tables.push(table);
            }
        }
        let mut merged = merge_usage_tables(tables);
        if let Some(limit) = self.remaining.take() {
            merged.truncate(usize::try_from(limit).unwrap_or(usize::MAX));
        }
        self.buffered = merged.into_iter().map(PlanRow::Usage).collect();
        self.count_partial();
    }

    fn count_partial(&mut self) {
        if !self.partial_counted && self.backends.iter().any(|b| b.dead) {
            self.partial_counted = true;
            self.metrics.partial_results.inc();
        }
    }

    /// The degradation warning, if any backend died: the missing set
    /// names plus the last error seen per set. Complete once the
    /// stream has been drained.
    pub fn warning(&self) -> Option<QueryWarning> {
        let dead: Vec<&BackendStream> = self.backends.iter().filter(|b| b.dead).collect();
        if dead.is_empty() {
            return None;
        }
        let detail = dead
            .iter()
            .map(|b| {
                format!(
                    "{}: {}",
                    b.name,
                    b.last_error.as_deref().unwrap_or("unreachable")
                )
            })
            .collect::<Vec<_>>()
            .join("; ");
        Some(QueryWarning {
            missing: dead.iter().map(|b| b.name.clone()).collect(),
            detail,
        })
    }

    /// Drain the remaining rows, returning them with the final
    /// partial-result warning (`None` = the rows are complete).
    pub fn collect_rows_warned(mut self) -> (Vec<PlanRow>, Option<QueryWarning>) {
        let mut rows = Vec::new();
        for row in self.by_ref() {
            rows.push(row);
        }
        (rows, self.warning())
    }
}

impl Iterator for FederatedStream {
    type Item = PlanRow;

    fn next(&mut self) -> Option<Self::Item> {
        if let Some(limit) = self.remaining {
            if limit == 0 {
                return None;
            }
        }
        let row = if let Some(row) = self.buffered.pop_front() {
            row
        } else {
            if self.heads.is_empty() {
                return None;
            }
            // k ≤ fleet size: a linear scan beats heap bookkeeping.
            let best = self
                .heads
                .iter()
                .enumerate()
                .min_by(|(_, (_, a)), (_, (_, b))| plan_row_cmp(self.order, a, b))
                .map(|(i, _)| i)?;
            let (backend, row) = self.heads.swap_remove(best);
            if let Some(next) = self.backends[backend].next_row(&self.health, &self.metrics) {
                self.heads.push((backend, next));
            } else {
                // Either complete or just died; a death may strand
                // rows this stream already merged — the contract is
                // prefix-correctness per backend plus a warning.
                self.count_partial();
            }
            row
        };
        if let Some(limit) = self.remaining.as_mut() {
            *limit -= 1;
        }
        self.metrics.rows_merged.inc();
        Some(row)
    }
}
