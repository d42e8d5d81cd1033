//! Dependency-free request tracing: span guards, a bounded flight
//! recorder, and on-demand trace-tree reassembly.
//!
//! A [`Span`] is a drop guard: created against a [`SpanBuffer`], it
//! records a monotonic start offset, and on drop pushes one completed
//! [`SpanRecord`] (stage name, parent link, duration, bounded key/value
//! annotations) into the buffer's ring. The ring is the **flight
//! recorder**: always on, capacity-bounded, oldest spans overwritten —
//! the cost of tracing is one short mutex push per *completed* span,
//! nothing on the hot path in between.
//!
//! Trace identity is a 64-bit [`TraceId`] (client-supplied over the
//! wire or generated at the root) plus per-span [`SpanId`]s; both are
//! never zero, so the wire can use `0` as "absent". Spans of one
//! request can complete on different threads and out of order — a
//! cursor fetch parents itself to the plan's root span long after that
//! root completed. [`TraceStore::traces`] reassembles whatever the ring
//! still holds into [`TraceTree`]s on demand, filtered by trace id,
//! plan fingerprint, minimum duration, or stage name.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Annotations kept per span; later `annotate` calls are dropped.
pub const MAX_SPAN_ANNOTATIONS: usize = 8;

/// Longest annotation key or value kept; longer strings are truncated
/// (annotation values can carry untrusted ingest-derived strings).
pub const MAX_ANNOTATION_LEN: usize = 120;

/// Completed spans the default flight recorder retains.
pub const DEFAULT_SPAN_CAPACITY: usize = 4096;

/// Traces a [`TraceFilter`] with `limit == 0` returns.
pub const DEFAULT_TRACE_LIMIT: usize = 16;

/// Annotation key under which plan-executing spans record the plan
/// fingerprint (as 16 hex digits) — what joins a slow-query ring entry
/// or a client-side log to its trace.
pub const FINGERPRINT_ANNOTATION: &str = "plan.fp";

/// 64-bit trace identity; never zero (zero is "absent" on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

/// 64-bit span identity, unique within the process; never zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl std::fmt::Display for SpanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl TraceId {
    /// A fresh process-unique trace id.
    pub fn generate() -> Self {
        Self(next_id())
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Non-zero 64-bit ids: a per-process random-ish seed (wall clock at
/// first use) mixed with a monotone counter through splitmix64, so ids
/// are unique within the process and don't collide across restarts.
fn next_id() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    static NEXT: AtomicU64 = AtomicU64::new(1);
    let seed = *SEED.get_or_init(|| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x5151_5151_5151_5151)
    });
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    match splitmix64(seed ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15)) {
        0 => 1,
        id => id,
    }
}

/// One completed span, as held by the flight recorder and shipped in a
/// `Traces` reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// This span's identity.
    pub id: SpanId,
    /// Parent span within the trace (`None` for roots).
    pub parent: Option<SpanId>,
    /// Pipeline stage name, e.g. `request.plan`, `serialize`.
    pub stage: String,
    /// Monotonic start, nanoseconds since the buffer was created.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub duration_ns: u64,
    /// Bounded key/value annotations, in `annotate` order.
    pub annotations: Vec<(String, String)>,
}

impl SpanRecord {
    /// End offset (`start_ns + duration_ns`) in buffer time.
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.duration_ns)
    }

    /// Annotation value by key, if recorded.
    pub fn annotation(&self, key: &str) -> Option<&str> {
        self.annotations
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// The bounded flight recorder: a ring of completed [`SpanRecord`]s,
/// always on, oldest overwritten. One short mutex push per completed
/// span; the lock is recovered (never abandoned) if a recording thread
/// panicked mid-push.
#[derive(Debug)]
pub struct SpanBuffer {
    created: Instant,
    ring: Mutex<VecDeque<SpanRecord>>,
    capacity: usize,
}

impl SpanBuffer {
    /// A recorder retaining at most `capacity` completed spans
    /// (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            created: Instant::now(),
            ring: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    /// Nanoseconds elapsed since the buffer was created — the time base
    /// every span's `start_ns` is expressed in.
    pub fn now_ns(&self) -> u64 {
        self.created.elapsed().as_nanos() as u64
    }

    /// Open a root span: a fresh trace when `trace` is `None` (the
    /// server-generated root for an untraced request), or a client- or
    /// caller-supplied trace id.
    pub fn root(self: &Arc<Self>, stage: &str, trace: Option<TraceId>) -> Span {
        let trace = trace.unwrap_or_else(TraceId::generate);
        Span::open(Arc::clone(self), trace, None, stage)
    }

    /// Open a span under an explicit `(trace, parent)` context — how a
    /// cursor fetch rejoins the trace its plan opened, possibly on
    /// another thread and after the parent completed.
    pub fn child_of(self: &Arc<Self>, trace: TraceId, parent: SpanId, stage: &str) -> Span {
        Span::open(Arc::clone(self), trace, Some(parent), stage)
    }

    /// Record an already-measured interval as a completed span — for
    /// stages timed before their trace existed (queue wait is measured
    /// from accept, but the trace id only arrives with the first
    /// request frame).
    pub fn record_past(
        &self,
        trace: TraceId,
        parent: Option<SpanId>,
        stage: &str,
        start: Instant,
        duration: Duration,
    ) -> SpanId {
        let id = SpanId(next_id());
        self.push(SpanRecord {
            trace,
            id,
            parent,
            stage: stage.to_string(),
            start_ns: start.saturating_duration_since(self.created).as_nanos() as u64,
            duration_ns: duration.as_nanos() as u64,
            annotations: Vec::new(),
        });
        id
    }

    fn push(&self, record: SpanRecord) {
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(record);
    }

    /// Completed spans currently retained, oldest first.
    pub fn completed(&self) -> Vec<SpanRecord> {
        self.ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// Completed spans currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when no span has completed yet (or all were overwritten).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for SpanBuffer {
    fn default() -> Self {
        Self::new(DEFAULT_SPAN_CAPACITY)
    }
}

/// An open span: drop it (or call [`Span::finish`]) to record it.
#[derive(Debug)]
pub struct Span {
    buffer: Arc<SpanBuffer>,
    trace: TraceId,
    id: SpanId,
    parent: Option<SpanId>,
    stage: String,
    started: Instant,
    start_ns: u64,
    annotations: Vec<(String, String)>,
}

impl Span {
    fn open(buffer: Arc<SpanBuffer>, trace: TraceId, parent: Option<SpanId>, stage: &str) -> Self {
        let start_ns = buffer.now_ns();
        Self {
            buffer,
            trace,
            id: SpanId(next_id()),
            parent,
            stage: stage.to_string(),
            started: Instant::now(),
            start_ns,
            annotations: Vec::new(),
        }
    }

    /// The trace this span belongs to.
    pub fn trace(&self) -> TraceId {
        self.trace
    }

    /// This span's identity (what children parent to).
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// Open a child span in the same trace (same buffer).
    pub fn child(&self, stage: &str) -> Span {
        self.buffer.child_of(self.trace, self.id, stage)
    }

    /// Attach a key/value annotation. Bounded: at most
    /// [`MAX_SPAN_ANNOTATIONS`] are kept (later calls are dropped
    /// silently) and both strings are truncated to
    /// [`MAX_ANNOTATION_LEN`] bytes on a char boundary.
    pub fn annotate(&mut self, key: &str, value: &str) {
        if self.annotations.len() >= MAX_SPAN_ANNOTATIONS {
            return;
        }
        self.annotations
            .push((clamp(key).to_string(), clamp(value).to_string()));
    }

    /// Record the plan fingerprint under [`FINGERPRINT_ANNOTATION`].
    pub fn annotate_fingerprint(&mut self, fingerprint: u64) {
        self.annotate(FINGERPRINT_ANNOTATION, &format!("{fingerprint:016x}"));
    }

    /// Complete the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        self.buffer.push(SpanRecord {
            trace: self.trace,
            id: self.id,
            parent: self.parent,
            stage: std::mem::take(&mut self.stage),
            start_ns: self.start_ns,
            duration_ns: self.started.elapsed().as_nanos() as u64,
            annotations: std::mem::take(&mut self.annotations),
        });
    }
}

/// Truncate to [`MAX_ANNOTATION_LEN`] bytes on a char boundary.
fn clamp(s: &str) -> &str {
    if s.len() <= MAX_ANNOTATION_LEN {
        return s;
    }
    let mut end = MAX_ANNOTATION_LEN;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

/// Which traces a [`TraceStore::traces`] call (or a wire `Traces`
/// request) wants. All present conditions are ANDed; the default filter
/// returns the most recent [`DEFAULT_TRACE_LIMIT`] traces.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceFilter {
    /// Only this trace id.
    pub trace: Option<TraceId>,
    /// Only traces containing a span annotated with this plan
    /// fingerprint (see [`FINGERPRINT_ANNOTATION`]).
    pub fingerprint: Option<u64>,
    /// Only traces spanning at least this many nanoseconds end to end.
    pub min_duration_ns: Option<u64>,
    /// Only traces containing a span with this stage name.
    pub stage: Option<String>,
    /// Most recent traces returned; `0` means [`DEFAULT_TRACE_LIMIT`].
    pub limit: u32,
}

impl TraceFilter {
    /// The unconditional filter (most recent traces, default limit).
    pub fn recent() -> Self {
        Self::default()
    }

    /// Restrict to one trace id.
    pub fn trace(mut self, trace: TraceId) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Restrict to traces containing a span with `stage`.
    pub fn stage(mut self, stage: impl Into<String>) -> Self {
        self.stage = Some(stage.into());
        self
    }

    /// Cap returned traces (`0` = default).
    pub fn limit(mut self, limit: u32) -> Self {
        self.limit = limit;
        self
    }

    fn matches(&self, tree: &TraceTree) -> bool {
        if let Some(trace) = self.trace {
            if tree.trace != trace {
                return false;
            }
        }
        if let Some(fp) = self.fingerprint {
            let hex = format!("{fp:016x}");
            if !tree.spans.iter().any(|s| {
                s.annotation(FINGERPRINT_ANNOTATION)
                    .is_some_and(|v| v == hex)
            }) {
                return false;
            }
        }
        if let Some(min) = self.min_duration_ns {
            if tree.duration_ns() < min {
                return false;
            }
        }
        if let Some(stage) = &self.stage {
            if !tree.spans.iter().any(|s| &s.stage == stage) {
                return false;
            }
        }
        true
    }
}

/// One reassembled trace: every span of one [`TraceId`] the flight
/// recorder still held, sorted by start offset. Parent links are by
/// [`SpanId`]; a span whose parent was already overwritten renders as
/// an orphan root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceTree {
    /// The trace id all spans share.
    pub trace: TraceId,
    /// Spans sorted by `(start_ns, id)`.
    pub spans: Vec<SpanRecord>,
}

impl TraceTree {
    /// The root span: the earliest span with no (present) parent.
    pub fn root(&self) -> Option<&SpanRecord> {
        self.spans
            .iter()
            .find(|s| match s.parent {
                None => true,
                Some(p) => !self.spans.iter().any(|o| o.id == p),
            })
            .or(self.spans.first())
    }

    /// End-to-end extent: latest span end minus earliest span start.
    pub fn duration_ns(&self) -> u64 {
        let start = self.spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        let end = self.spans.iter().map(SpanRecord::end_ns).max().unwrap_or(0);
        end.saturating_sub(start)
    }

    /// Most recent span start — the recency key `traces` sorts by.
    pub fn last_start_ns(&self) -> u64 {
        self.spans.iter().map(|s| s.start_ns).max().unwrap_or(0)
    }

    /// True when any span carries `stage`.
    pub fn contains_stage(&self, stage: &str) -> bool {
        self.spans.iter().any(|s| s.stage == stage)
    }
}

/// The queryable face of the flight recorder: shares one
/// [`SpanBuffer`] and reassembles its contents into [`TraceTree`]s on
/// demand. Cloning shares the buffer.
#[derive(Debug, Clone)]
pub struct TraceStore {
    buffer: Arc<SpanBuffer>,
}

impl TraceStore {
    /// A store over a fresh recorder retaining `capacity` spans.
    pub fn new(capacity: usize) -> Self {
        Self {
            buffer: Arc::new(SpanBuffer::new(capacity)),
        }
    }

    /// The shared flight recorder spans are recorded into.
    pub fn buffer(&self) -> &Arc<SpanBuffer> {
        &self.buffer
    }

    /// Reassemble the recorder's current contents into trace trees
    /// matching `filter`, most recent first, capped by `filter.limit`.
    pub fn traces(&self, filter: &TraceFilter) -> Vec<TraceTree> {
        let mut by_trace: BTreeMap<TraceId, Vec<SpanRecord>> = BTreeMap::new();
        for span in self.buffer.completed() {
            by_trace.entry(span.trace).or_default().push(span);
        }
        let mut trees: Vec<TraceTree> = by_trace
            .into_iter()
            .map(|(trace, mut spans)| {
                spans.sort_by_key(|s| (s.start_ns, s.id));
                TraceTree { trace, spans }
            })
            .filter(|tree| filter.matches(tree))
            .collect();
        trees.sort_by_key(|t| std::cmp::Reverse(t.last_start_ns()));
        let limit = match filter.limit {
            0 => DEFAULT_TRACE_LIMIT,
            n => n as usize,
        };
        trees.truncate(limit);
        trees
    }
}

impl Default for TraceStore {
    fn default() -> Self {
        Self::new(DEFAULT_SPAN_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = next_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id));
        }
    }

    #[test]
    fn span_guard_records_tree_shape() {
        let buffer = Arc::new(SpanBuffer::new(64));
        let trace;
        {
            let mut root = buffer.root("request.plan", None);
            trace = root.trace();
            root.annotate_fingerprint(0xdead_beef);
            {
                let mut child = root.child("exec");
                child.annotate("rows", "10");
                let _grandchild = child.child("serialize");
            }
        }
        let spans = buffer.completed();
        assert_eq!(spans.len(), 3);
        // Completion order is inside-out; every span shares the trace.
        assert!(spans.iter().all(|s| s.trace == trace));
        let root = spans.iter().find(|s| s.parent.is_none()).unwrap();
        assert_eq!(root.stage, "request.plan");
        assert_eq!(
            root.annotation(FINGERPRINT_ANNOTATION),
            Some("00000000deadbeef")
        );
        let exec = spans.iter().find(|s| s.stage == "exec").unwrap();
        assert_eq!(exec.parent, Some(root.id));
        assert_eq!(exec.annotation("rows"), Some("10"));
        let leaf = spans.iter().find(|s| s.stage == "serialize").unwrap();
        assert_eq!(leaf.parent, Some(exec.id));
    }

    #[test]
    fn ring_overwrites_oldest() {
        let buffer = Arc::new(SpanBuffer::new(2));
        for i in 0..5 {
            buffer.root(&format!("s{i}"), None).finish();
        }
        let spans = buffer.completed();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].stage, "s3");
        assert_eq!(spans[1].stage, "s4");
    }

    #[test]
    fn annotations_are_bounded_and_clamped() {
        let buffer = Arc::new(SpanBuffer::new(4));
        {
            let mut span = buffer.root("s", None);
            for i in 0..(MAX_SPAN_ANNOTATIONS + 3) {
                span.annotate(&format!("k{i}"), &"v".repeat(500));
            }
        }
        let spans = buffer.completed();
        assert_eq!(spans[0].annotations.len(), MAX_SPAN_ANNOTATIONS);
        assert!(spans[0]
            .annotations
            .iter()
            .all(|(_, v)| v.len() == MAX_ANNOTATION_LEN));
    }

    #[test]
    fn record_past_lands_with_given_interval() {
        let buffer = SpanBuffer::new(4);
        let trace = TraceId::generate();
        std::thread::sleep(Duration::from_millis(2));
        buffer.record_past(
            trace,
            None,
            "queue_wait",
            Instant::now(),
            Duration::from_micros(250),
        );
        let spans = buffer.completed();
        assert_eq!(spans[0].stage, "queue_wait");
        assert_eq!(spans[0].trace, trace);
        assert_eq!(spans[0].duration_ns, 250_000);
        assert!(spans[0].start_ns > 0);
    }

    #[test]
    fn store_reassembles_and_filters() {
        let store = TraceStore::new(64);
        let buffer = store.buffer();
        let (t1, root_id);
        {
            let mut root = buffer.root("request.plan", None);
            root.annotate_fingerprint(0xabcd);
            t1 = root.trace();
            root_id = root.id();
            root.child("exec").finish();
        }
        // A later fetch rejoins t1 from stored context.
        buffer.child_of(t1, root_id, "request.fetch").finish();
        // An unrelated trace.
        buffer.root("maintain.merge", None).finish();

        let all = store.traces(&TraceFilter::recent());
        assert_eq!(all.len(), 2);
        // Most recent first: the merge completed last.
        assert!(all[0].contains_stage("maintain.merge"));

        let by_id = store.traces(&TraceFilter::recent().trace(t1));
        assert_eq!(by_id.len(), 1);
        assert_eq!(by_id[0].spans.len(), 3);
        assert_eq!(by_id[0].root().unwrap().stage, "request.plan");
        assert!(by_id[0].contains_stage("request.fetch"));

        let by_fingerprint = |fingerprint| TraceFilter {
            fingerprint: Some(fingerprint),
            ..TraceFilter::recent()
        };
        let by_fp = store.traces(&by_fingerprint(0xabcd));
        assert_eq!(by_fp.len(), 1);
        assert_eq!(by_fp[0].trace, t1);
        assert!(store.traces(&by_fingerprint(0x9999)).is_empty());

        let by_stage = store.traces(&TraceFilter::recent().stage("exec"));
        assert_eq!(by_stage.len(), 1);
        assert!(store
            .traces(&TraceFilter {
                min_duration_ns: Some(u64::MAX),
                ..TraceFilter::recent()
            })
            .is_empty());
    }

    #[test]
    fn limit_keeps_most_recent() {
        let store = TraceStore::new(256);
        for i in 0..10 {
            store.buffer().root(&format!("s{i}"), None).finish();
        }
        let trees = store.traces(&TraceFilter::recent().limit(3));
        assert_eq!(trees.len(), 3);
        assert!(trees[0].contains_stage("s9"));
        let defaulted = store.traces(&TraceFilter::recent());
        assert_eq!(defaulted.len(), 10.min(DEFAULT_TRACE_LIMIT));
    }

    #[test]
    fn orphaned_child_is_its_own_root() {
        let store = TraceStore::new(8);
        let trace = TraceId::generate();
        store
            .buffer()
            .child_of(trace, SpanId(42), "request.fetch")
            .finish();
        let trees = store.traces(&TraceFilter::recent().trace(trace));
        assert_eq!(trees[0].root().unwrap().stage, "request.fetch");
    }
}
