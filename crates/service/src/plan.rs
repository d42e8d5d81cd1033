//! Server-side plan execution: streaming cursors over a pinned
//! snapshot, and the TTL-evicting table that parks them between pages.
//!
//! A [`PlanCursor`] is opened against one `Arc<QuerySnapshot>` and
//! holds that `Arc` for its whole life — however many epochs commit
//! (and however many background layer merges republish) while a client
//! pages through, every batch comes from the same immutable snapshot,
//! so pagination can never tear across a commit. The cost of that pin
//! is bounded by the cursor table's TTL and capacity: an abandoned
//! cursor is evicted and its snapshot reference dropped.
//!
//! Epoch-slice plans are answered **straight from the matching
//! [`SnapshotLayer`](crate::snapshot::SnapshotLayer)s**: a layer whose
//! epochs all fail the selection's epoch conditions is skipped without
//! touching a record, and a layer whose epochs all pass an epoch-only
//! selection streams its records without per-record filtering. The
//! layered commit path (PR 4) keeps most epochs in their own layer, so
//! a `Selection::epochs(lo, hi)` scan touches just those layers.

use crate::daemon::EpochRecord;
use crate::metrics::ServiceMetrics;
use crate::snapshot::QuerySnapshot;
use siren_analysis::{usage_table, UsageRow};
use siren_consolidate::ProcessRecord;
use siren_proto::{
    NeighborRow, Order, PlanSource, QueryError, QueryPlan, RecordRow, RowBatch, Selection,
    MAX_BATCH_ROWS, MAX_PAGE_ROWS,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Soft byte budget per batch frame: a batch is flushed early once its
/// rows approach this, keeping every frame far under the protocol's
/// hard frame cap whatever the plan's `batch_rows` says.
pub(crate) const BATCH_BYTE_BUDGET: usize = 1 << 20;

/// Rough wire size of one record row — enough fidelity for the batch
/// byte budget (the exact size is only known after encoding).
fn approx_record_bytes(record: &ProcessRecord) -> usize {
    let opt_vec = |v: &Option<Vec<String>>| {
        v.as_ref()
            .map(|v| v.iter().map(|s| s.len() + 4).sum::<usize>() + 4)
            .unwrap_or(1)
    };
    let opt_str = |s: &Option<String>| s.as_ref().map(|s| s.len() + 4).unwrap_or(1);
    64 + record.key.exe_hash.len()
        + record.key.host.len()
        + record
            .meta
            .iter()
            .map(|(k, v)| k.len() + v.len() + 8)
            .sum::<usize>()
        + opt_vec(&record.objects)
        + opt_vec(&record.modules)
        + opt_vec(&record.compilers)
        + opt_vec(&record.maps)
        + opt_str(&record.objects_hash)
        + opt_str(&record.modules_hash)
        + opt_str(&record.compilers_hash)
        + opt_str(&record.maps_hash)
        + opt_str(&record.file_hash)
        + opt_str(&record.strings_hash)
        + opt_str(&record.symbols_hash)
        + record
            .script
            .as_ref()
            .map(|s| {
                16 + opt_str(&s.path)
                    + opt_str(&s.script_hash)
                    + s.meta
                        .iter()
                        .map(|(k, v)| k.len() + v.len() + 8)
                        .sum::<usize>()
            })
            .unwrap_or(1)
}

/// Where a record-scan cursor stands: always parked **on the next
/// matching record** (or one past the last layer), so exhaustion is
/// known without a speculative scan per batch.
#[derive(Debug)]
enum State {
    /// Lazy commit-order scan over the layer stack.
    Scan { layer: usize, idx: usize },
    /// Pre-resolved record positions (time-ordered plans).
    Ids { ids: Vec<(u32, u32)>, next: usize },
    /// Pre-aggregated usage rows.
    Usage { rows: Vec<UsageRow>, next: usize },
    /// Pre-ranked neighbor hits as `(score, layer, record-index)`.
    Neighbors {
        hits: Vec<(u32, u32, u32)>,
        next: usize,
    },
}

/// One open plan: the pinned snapshot, the plan, and the position.
#[derive(Debug)]
pub(crate) struct PlanCursor {
    snapshot: Arc<QuerySnapshot>,
    plan: QueryPlan,
    state: State,
    /// Rows still allowed by the plan's limit (`u64::MAX` = unlimited).
    remaining: u64,
    /// Stable identity of the plan for the slow-query log.
    fingerprint: u64,
    /// Structural description of the plan (no predicate values).
    shape: String,
    /// Trace context of the request that opened this plan: `(trace,
    /// root span)`. Parked with the cursor, so a later `FetchCursor` —
    /// possibly on another connection — parents its span back into the
    /// same trace tree.
    trace: Option<(siren_obs::TraceId, siren_obs::SpanId)>,
}

impl PlanCursor {
    /// Validate `plan` and resolve it against `snapshot` far enough to
    /// stream: lazy for commit-order scans, materialized (positions,
    /// not rows) for ordered scans and aggregations. Neighbor plans
    /// whose n-gram index degenerated to a full corpus scan are counted
    /// into `metrics.fuzzy_scan_fallbacks`.
    pub(crate) fn open(
        snapshot: Arc<QuerySnapshot>,
        plan: QueryPlan,
        metrics: &ServiceMetrics,
    ) -> Result<PlanCursor, QueryError> {
        plan.validate()?;
        let remaining = plan.limit.unwrap_or(u64::MAX);
        let state = match &plan.source {
            PlanSource::Records => match plan.order {
                Order::Commit => State::Scan { layer: 0, idx: 0 },
                Order::TimeAsc | Order::TimeDesc => {
                    let mut ids: Vec<(u32, u32)> = Vec::new();
                    for_each_matching(&snapshot, &plan, |li, ri, _| {
                        ids.push((li as u32, ri as u32))
                    });
                    let time_of = |&(li, ri): &(u32, u32)| {
                        snapshot.layer_stack()[li as usize].layer_records()[ri as usize]
                            .record
                            .key
                            .time
                    };
                    // Stable sorts: ties keep commit order, exactly as
                    // the client-side v1 fallback resolves them.
                    match plan.order {
                        Order::TimeAsc => ids.sort_by_key(time_of),
                        _ => ids.sort_by_key(|id| std::cmp::Reverse(time_of(id))),
                    }
                    State::Ids { ids, next: 0 }
                }
            },
            PlanSource::UsageTable => {
                // References only: the aggregation reads each record
                // once, so matching records must not be deep-cloned
                // (a broad selection would momentarily copy the store).
                let mut records: Vec<&ProcessRecord> = Vec::new();
                for_each_matching(&snapshot, &plan, |_, _, er| records.push(&er.record));
                State::Usage {
                    rows: usage_table(records),
                    next: 0,
                }
            }
            PlanSource::Neighbors { hash, min_score } => {
                // Neighbors are ranked *over the selection*: filter
                // first, then let `remaining` (the plan's limit) cap
                // the emitted hits — truncating to k before the filter
                // would drop in-selection hits shadowed by better
                // out-of-selection ones. Only an unfiltered plan can
                // safely push the limit down into the search.
                let k = if plan.selection.is_unfiltered() {
                    usize::try_from(remaining).unwrap_or(usize::MAX)
                } else {
                    usize::MAX
                };
                // Hits are ranked best-first and `remaining` caps
                // emission, so truncating after the filter is
                // behavior-preserving — and keeps a parked cursor from
                // holding every matching hit in the store for its TTL.
                let (hits, scan_fallbacks) = snapshot.neighbor_hits(hash, k, *min_score);
                metrics.fuzzy_scan_fallbacks.add(scan_fallbacks);
                let hits = hits
                    .into_iter()
                    .filter(|&(_, li, ri)| {
                        let er = &snapshot.layer_stack()[li as usize].layer_records()[ri as usize];
                        plan.selection.matches(er.epoch, &er.record)
                    })
                    .take(usize::try_from(remaining).unwrap_or(usize::MAX))
                    .collect();
                State::Neighbors { hits, next: 0 }
            }
        };
        let fingerprint = plan.fingerprint();
        let shape = plan.shape();
        let mut cursor = PlanCursor {
            snapshot,
            plan,
            state,
            remaining,
            fingerprint,
            shape,
            trace: None,
        };
        if let State::Scan { layer, idx } = &mut cursor.state {
            advance_scan(&cursor.snapshot, &cursor.plan.selection, layer, idx);
        }
        Ok(cursor)
    }

    /// Stable identity of the plan for the slow-query log.
    pub(crate) fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Structural description of the plan (no predicate values).
    pub(crate) fn shape(&self) -> &str {
        &self.shape
    }

    /// Attach the opening request's trace context, carried across parks
    /// so cursor fetches rejoin the plan's trace tree.
    pub(crate) fn set_trace(&mut self, trace: siren_obs::TraceId, root: siren_obs::SpanId) {
        self.trace = Some((trace, root));
    }

    /// The `(trace, root span)` context the plan was opened under.
    pub(crate) fn trace_context(&self) -> Option<(siren_obs::TraceId, siren_obs::SpanId)> {
        self.trace
    }

    /// Rows per batch frame, clamped to the server bound.
    pub(crate) fn batch_rows(&self) -> usize {
        self.plan.batch_rows.clamp(1, MAX_BATCH_ROWS) as usize
    }

    /// Rows per reply before a cursor is handed out, clamped.
    pub(crate) fn page_rows(&self) -> usize {
        self.plan.page_rows.clamp(1, MAX_PAGE_ROWS) as usize
    }

    /// True when no further row can be produced.
    pub(crate) fn is_exhausted(&self) -> bool {
        if self.remaining == 0 {
            return true;
        }
        match &self.state {
            State::Scan { layer, .. } => *layer >= self.snapshot.layer_stack().len(),
            State::Ids { ids, next } => *next >= ids.len(),
            State::Usage { rows, next } => *next >= rows.len(),
            State::Neighbors { hits, next } => *next >= hits.len(),
        }
    }

    fn record_row(&self, li: u32, ri: u32) -> RecordRow {
        let er = &self.snapshot.layer_stack()[li as usize].layer_records()[ri as usize];
        let mut record = er.record.clone();
        self.plan.projection.apply(&mut record);
        RecordRow {
            epoch: er.epoch,
            record,
        }
    }

    /// Produce the next batch of up to `max_rows` rows (flushed early
    /// past `byte_budget`), or `None` when the stream is exhausted.
    pub(crate) fn next_batch(&mut self, max_rows: usize, byte_budget: usize) -> Option<RowBatch> {
        if self.is_exhausted() {
            return None;
        }
        let max_rows = max_rows.min(usize::try_from(self.remaining).unwrap_or(usize::MAX));
        let mut bytes = 0usize;
        // The state moves out for the duration so row production can
        // borrow the snapshot/plan freely.
        let mut state = std::mem::replace(
            &mut self.state,
            State::Usage {
                rows: Vec::new(),
                next: 0,
            },
        );
        let batch = match &mut state {
            State::Scan { layer, idx } => {
                let mut rows: Vec<RecordRow> = Vec::new();
                while rows.len() < max_rows
                    && bytes < byte_budget
                    && *layer < self.snapshot.layer_stack().len()
                {
                    let row = self.record_row(*layer as u32, *idx as u32);
                    bytes += approx_record_bytes(&row.record) + 12;
                    rows.push(row);
                    *idx += 1;
                    advance_scan(&self.snapshot, &self.plan.selection, layer, idx);
                }
                self.remaining = self.remaining.saturating_sub(rows.len() as u64);
                RowBatch::Records(rows)
            }
            State::Ids { ids, next } => {
                let mut rows: Vec<RecordRow> = Vec::new();
                while rows.len() < max_rows && bytes < byte_budget && *next < ids.len() {
                    let (li, ri) = ids[*next];
                    let row = self.record_row(li, ri);
                    bytes += approx_record_bytes(&row.record) + 12;
                    rows.push(row);
                    *next += 1;
                }
                self.remaining = self.remaining.saturating_sub(rows.len() as u64);
                RowBatch::Records(rows)
            }
            State::Usage { rows, next } => {
                // Same byte budget as the record arms: user names come
                // from untrusted ingest metadata, so a row count alone
                // does not bound the frame.
                let mut out: Vec<UsageRow> = Vec::new();
                while out.len() < max_rows && bytes < byte_budget && *next < rows.len() {
                    let row = rows[*next].clone();
                    bytes += row.user.len() + 36;
                    out.push(row);
                    *next += 1;
                }
                self.remaining = self.remaining.saturating_sub(out.len() as u64);
                RowBatch::Usage(out)
            }
            State::Neighbors { hits, next } => {
                let mut rows: Vec<NeighborRow> = Vec::new();
                while rows.len() < max_rows && bytes < byte_budget && *next < hits.len() {
                    let (score, li, ri) = hits[*next];
                    let row = self.record_row(li, ri);
                    bytes += approx_record_bytes(&row.record) + 16;
                    rows.push(NeighborRow {
                        score,
                        epoch: row.epoch,
                        record: row.record,
                    });
                    *next += 1;
                }
                self.remaining = self.remaining.saturating_sub(rows.len() as u64);
                RowBatch::Neighbors(rows)
            }
        };
        self.state = state;
        if batch.is_empty() {
            None
        } else {
            Some(batch)
        }
    }
}

/// Move a commit-order scan position forward to the next record
/// passing `selection`, pruning whole layers by their epoch sets, or
/// to one past the last layer.
fn advance_scan(
    snapshot: &QuerySnapshot,
    selection: &Selection,
    layer: &mut usize,
    idx: &mut usize,
) {
    let layers = snapshot.layer_stack();
    while *layer < layers.len() {
        let l = &layers[*layer];
        // Layer pruning: epoch-slice plans are answered from the
        // layers holding those epochs; a layer with no matching epoch
        // is skipped without touching a record.
        if *idx == 0 && !l.layer_epochs().iter().any(|&e| selection.matches_epoch(e)) {
            *layer += 1;
            continue;
        }
        let records = l.layer_records();
        // An epoch-only selection admitting every epoch in the layer
        // admits every record — park on the next one without testing.
        if selection.is_epoch_only() && l.layer_epochs().iter().all(|&e| selection.matches_epoch(e))
        {
            if *idx < records.len() {
                return;
            }
        } else {
            while *idx < records.len() {
                let er = &records[*idx];
                if selection.matches(er.epoch, &er.record) {
                    return;
                }
                *idx += 1;
            }
        }
        *layer += 1;
        *idx = 0;
    }
}

/// Walk every record passing the plan's selection, in commit order,
/// with whole layers pruned by their epoch sets first.
fn for_each_matching<'s>(
    snapshot: &'s QuerySnapshot,
    plan: &QueryPlan,
    mut visit: impl FnMut(usize, usize, &'s EpochRecord),
) {
    let selection = &plan.selection;
    for (li, layer) in snapshot.layer_stack().iter().enumerate() {
        if !layer
            .layer_epochs()
            .iter()
            .any(|&e| selection.matches_epoch(e))
        {
            continue;
        }
        // An epoch-only selection that admits every epoch in the layer
        // admits every record: stream the slab without per-record work.
        let whole_layer = selection.is_epoch_only()
            && layer
                .layer_epochs()
                .iter()
                .all(|&e| selection.matches_epoch(e));
        for (ri, er) in layer.layer_records().iter().enumerate() {
            if whole_layer || selection.matches(er.epoch, &er.record) {
                visit(li, ri, er);
            }
        }
    }
}

impl QuerySnapshot {
    /// Execute `plan` in-process to completion — the same
    /// `PlanCursor` the TCP server streams from, drained into a
    /// vector. This is the v2 analogue of the typed v1 snapshot
    /// methods, and the oracle E2E tests compare wire streams against.
    pub fn plan_rows(
        self: &Arc<Self>,
        plan: QueryPlan,
    ) -> Result<Vec<siren_proto::PlanRow>, QueryError> {
        // In-process execution outside any daemon: detached handles.
        let metrics = ServiceMetrics::detached();
        let mut cursor = PlanCursor::open(Arc::clone(self), plan, &metrics)?;
        let batch_rows = cursor.batch_rows();
        let mut rows = Vec::new();
        while let Some(batch) = cursor.next_batch(batch_rows, BATCH_BYTE_BUDGET) {
            rows.extend(batch.into_rows());
        }
        Ok(rows)
    }
}

/// A prefetched cursor page: already-serialized v2 batch bodies with
/// their row counts, served verbatim before the cursor produces
/// anything live.
pub(crate) type PrefetchedPage = Vec<(Vec<u8>, u32)>;

struct Parked {
    cursor: PlanCursor,
    /// The next page, precomputed at park time. Bounded by one page's
    /// rows/byte budget, and dropped with the entry on any eviction.
    /// Empty when the cursor had no rows left to precompute.
    prefetched: PrefetchedPage,
    parked_at: Instant,
}

/// The server's cursor table: open cursors parked between pages, each
/// pinning its snapshot `Arc`. Bounded two ways — entries idle past
/// the TTL are evicted on every touch, and when the table is full the
/// stalest entry is evicted to admit the new one — so abandoned
/// clients can never pin unbounded snapshot memory.
///
/// Cursor ids are handed to untrusted peers on an unauthenticated
/// port, so they must not be guessable: a sequential id would let any
/// connection fetch (stealing the next page) or close every other
/// client's pagination by counting. Ids are a per-table random-keyed
/// SipHash of a private counter — unique per cursor, unpredictable
/// without the key.
#[derive(Debug)]
pub(crate) struct CursorTable {
    inner: Mutex<HashMap<u64, ParkedSlot>>,
    next_seq: AtomicU64,
    id_key: std::collections::hash_map::RandomState,
    ttl: Duration,
    capacity: usize,
    /// `cursor.*` handles: the open-count gauge (with its high-water
    /// mark) and the eviction counters split by cause.
    metrics: ServiceMetrics,
}

// A newtype keeps Debug for the table cheap (PlanCursor holds a whole
// snapshot).
struct ParkedSlot(Parked);

impl std::fmt::Debug for ParkedSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ParkedSlot(parked_at: {:?})", self.0.parked_at)
    }
}

impl CursorTable {
    pub(crate) fn new(ttl: Duration, capacity: usize, metrics: ServiceMetrics) -> Self {
        Self {
            inner: Mutex::new(HashMap::new()),
            next_seq: AtomicU64::new(1),
            id_key: std::collections::hash_map::RandomState::new(),
            ttl,
            capacity: capacity.max(1),
            metrics,
        }
    }

    /// An unpredictable, per-table-unique cursor id.
    fn mint_id(&self, table: &HashMap<u64, ParkedSlot>) -> u64 {
        use std::hash::{BuildHasher, Hasher};
        loop {
            let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
            let mut hasher = self.id_key.build_hasher();
            hasher.write_u64(seq);
            let id = hasher.finish();
            // Astronomically unlikely 64-bit collision (or the reserved
            // zero): mint again rather than overwrite a live cursor.
            if id != 0 && !table.contains_key(&id) {
                return id;
            }
        }
    }

    /// TTL sweep; every expiry is an eviction by cause `ttl`.
    fn sweep(&self, table: &mut HashMap<u64, ParkedSlot>) {
        let ttl = self.ttl;
        let before = table.len();
        table.retain(|_, slot| slot.0.parked_at.elapsed() <= ttl);
        let expired = (before - table.len()) as u64;
        if expired > 0 {
            self.metrics.cursor_evicted_ttl.add(expired);
        }
    }

    /// Publish the current table size to the `cursor.open` gauge (and
    /// through it the high-water mark). Called under the table lock, so
    /// the gauge moves monotonically with the table.
    fn publish_open(&self, table: &HashMap<u64, ParkedSlot>) {
        self.metrics.cursors_open.set(table.len() as i64);
    }

    /// Park `cursor` (with its prefetched next page, possibly empty)
    /// and hand out its id.
    pub(crate) fn park(&self, cursor: PlanCursor, prefetched: PrefetchedPage) -> u64 {
        let mut table = self.inner.lock().expect("cursor table poisoned");
        self.sweep(&mut table);
        if table.len() >= self.capacity {
            // Full even after the sweep: evict the stalest entry so the
            // *live* client wins over whichever one has been idle
            // longest.
            if let Some(&stalest) = table
                .iter()
                .min_by_key(|(_, slot)| slot.0.parked_at)
                .map(|(id, _)| id)
            {
                table.remove(&stalest);
                self.metrics.cursor_evicted_capacity.inc();
            }
        }
        let id = self.mint_id(&table);
        table.insert(
            id,
            ParkedSlot(Parked {
                cursor,
                prefetched,
                parked_at: Instant::now(),
            }),
        );
        self.publish_open(&table);
        id
    }

    /// Remove and return the cursor `id` (plus its prefetched page),
    /// if it is still parked. The caller streams from it and re-parks
    /// if rows remain — taking it out keeps two connections from
    /// interleaving on one cursor. Hits and misses are counted
    /// (`cursor.hits` / `cursor.misses`).
    pub(crate) fn take(&self, id: u64) -> Option<(PlanCursor, PrefetchedPage)> {
        let mut table = self.inner.lock().expect("cursor table poisoned");
        self.sweep(&mut table);
        let found = table
            .remove(&id)
            .map(|slot| (slot.0.cursor, slot.0.prefetched));
        match found {
            Some(_) => self.metrics.cursor_hits.inc(),
            None => self.metrics.cursor_misses.inc(),
        }
        self.publish_open(&table);
        found
    }

    /// Drop cursor `id` if present (explicit close).
    pub(crate) fn remove(&self, id: u64) {
        let mut table = self.inner.lock().expect("cursor table poisoned");
        table.remove(&id);
        self.sweep(&mut table);
        self.publish_open(&table);
    }

    /// Cursors currently parked (the `Status` gauge).
    pub(crate) fn open_count(&self) -> u64 {
        let mut table = self.inner.lock().expect("cursor table poisoned");
        self.sweep(&mut table);
        self.publish_open(&table);
        table.len() as u64
    }
}
