//! The typed request/response codec and the hello exchange.
//!
//! Payload encodings build on `siren_store::codec` (length-prefixed
//! strings, little-endian integers, tag bytes); consolidated records
//! nest their own [`ProcessRecord`] codec behind a byte-length prefix.
//! Every decoder rejects structural inconsistency with a typed
//! [`QueryError`] and never panics.

use crate::plan::{QueryPlan, RowBatch};
use crate::{PROTOCOL_VERSION, PROTOCOL_VERSION_MIN};
use siren_analysis::LibraryUsageRow;
use siren_consolidate::ProcessRecord;
use siren_obs::{
    GaugeSnapshot, HistogramSnapshot, MetricsSnapshot, SlowQueryEntry, SpanId, SpanRecord,
    TraceFilter, TraceId, TraceTree, MAX_SPAN_ANNOTATIONS,
};
pub(crate) use siren_store::codec::take;
use siren_store::codec::{get_bytes, get_str, put_bytes, put_str};

/// First bytes of the hello and hello-ack payloads.
pub const HELLO_MAGIC: [u8; 4] = *b"SRNQ";

// Request payload tags. Tags 1 and 3 are reserved: they carried the
// retired `ByJob`/`Neighbors` one-shots, whose answers are plans now,
// and decode as `QueryError::UnknownRequest` with the connection kept.
const REQ_STATUS: u8 = 0;
const REQ_LIBRARY_USAGE: u8 = 2;
const REQ_PLAN: u8 = 4;
const REQ_FETCH_CURSOR: u8 = 5;
const REQ_CLOSE_CURSOR: u8 = 6;
const REQ_METRICS: u8 = 7;
const REQ_TRACES: u8 = 8;
const REQ_SUBSCRIBE_EPOCHS: u8 = 9;

// Response payload tags. `b'S'` (0x53) is reserved so a hello-ack can
// never be mistaken for a response payload; tags 1 and 3 are reserved
// for the retired one-shot answers and decode as malformed.
const RESP_STATUS: u8 = 0;
const RESP_LIBRARY_USAGE: u8 = 2;
const RESP_BATCH: u8 = 4;
const RESP_STREAM_END: u8 = 5;
const RESP_METRICS: u8 = 6;
const RESP_TRACES: u8 = 7;
const RESP_EPOCH_BATCH: u8 = 8;
const RESP_EPOCH_COMMIT: u8 = 9;
const RESP_SUBSCRIBE_END: u8 = 10;
const RESP_WARNING: u8 = 11;
const RESP_ERROR: u8 = 0xFF;

// QueryError codes.
const ERR_MALFORMED: u8 = 0;
const ERR_UNSUPPORTED_VERSION: u8 = 1;
const ERR_UNKNOWN_REQUEST: u8 = 2;
const ERR_FRAME_TOO_LARGE: u8 = 3;
const ERR_DEADLINE: u8 = 4;
const ERR_INTERNAL: u8 = 5;
const ERR_INVALID_PLAN: u8 = 6;
const ERR_UNKNOWN_CURSOR: u8 = 7;

/// The routing-relevant predicates of a [`Selection`], extracted by
/// [`Selection::shard_key`]: the job/host conditions that decide which
/// shard(s) of a partitioned corpus can hold matching records. Ingest's
/// `ShardRouter` partitions by job hash; a federation router prunes
/// backends by the same notion — both read this one struct so the two
/// tiers cannot drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardKey<'a> {
    /// The exact-job restriction, if the selection names one.
    pub job: Option<u64>,
    /// The exact-host restriction, if the selection names one.
    pub host: Option<&'a str>,
}

/// A reusable record filter: all present conditions are ANDed. The one
/// filter type shared by the wire protocol and the in-process snapshot
/// API, publicly constructible via its builder methods.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Selection {
    epoch: Option<u64>,
    host: Option<String>,
    time_range: Option<(u64, u64)>,
    job: Option<u64>,
    epoch_range: Option<(u64, u64)>,
}

impl Selection {
    /// The empty filter (matches every record).
    pub fn all() -> Self {
        Self::default()
    }

    /// Restrict to one epoch.
    pub fn epoch(mut self, epoch: u64) -> Self {
        self.epoch = Some(epoch);
        self
    }

    /// Restrict to one host.
    pub fn host(mut self, host: impl Into<String>) -> Self {
        self.host = Some(host.into());
        self
    }

    /// Restrict to collection timestamps in `start ..= end`.
    ///
    /// Both bounds are **inclusive**: a record stamped exactly `start`
    /// or exactly `end` matches, so `between(t, t)` selects the single
    /// timestamp `t`. An inverted range (`start > end`) is structurally
    /// invalid — [`Selection::validate`] rejects it with a typed
    /// [`QueryError::InvalidPlan`], and every wire request validates
    /// before producing a row. The in-process builder API keeps the
    /// match-nothing behavior; validate explicitly there if a typed
    /// error is wanted.
    pub fn between(mut self, start: u64, end: u64) -> Self {
        self.time_range = Some((start, end));
        self
    }

    /// Restrict to one job.
    pub fn job(mut self, job_id: u64) -> Self {
        self.job = Some(job_id);
        self
    }

    /// Restrict to the **inclusive** epoch slice `lo ..= hi`.
    /// Layer-aligned: the server answers epoch-slice plans
    /// straight from the snapshot layers holding those epochs. Inverted
    /// slices are rejected by [`Selection::validate`], like inverted
    /// time ranges.
    pub fn epochs(mut self, lo: u64, hi: u64) -> Self {
        self.epoch_range = Some((lo, hi));
        self
    }

    /// The epoch restriction, if any.
    pub fn epoch_filter(&self) -> Option<u64> {
        self.epoch
    }

    /// The host restriction, if any.
    pub fn host_filter(&self) -> Option<&str> {
        self.host.as_deref()
    }

    /// The inclusive time-range restriction, if any.
    pub fn time_range(&self) -> Option<(u64, u64)> {
        self.time_range
    }

    /// The inclusive epoch-slice restriction, if any.
    pub fn epoch_slice(&self) -> Option<(u64, u64)> {
        self.epoch_range
    }

    /// The routing predicates of this selection — exactly the
    /// conditions that constrain **which shard** of a job/host
    /// partitioned corpus can hold matching records. Epoch and time
    /// conditions are deliberately excluded: they restrict *when*, not
    /// *where*, and every shard spans all time.
    pub fn shard_key(&self) -> ShardKey<'_> {
        ShardKey {
            job: self.job,
            host: self.host.as_deref(),
        }
    }

    /// True when no condition is set (every record matches).
    pub fn is_unfiltered(&self) -> bool {
        *self == Self::default()
    }

    /// Reject structurally invalid selections: inverted time ranges and
    /// inverted epoch slices come back as [`QueryError::InvalidPlan`]
    /// instead of silently matching nothing.
    pub fn validate(&self) -> Result<(), QueryError> {
        if let Some((lo, hi)) = self.time_range {
            if lo > hi {
                return Err(QueryError::InvalidPlan(format!(
                    "inverted time range: between({lo}, {hi}) has start > end \
                     (bounds are inclusive; swap them)"
                )));
            }
        }
        if let Some((lo, hi)) = self.epoch_range {
            if lo > hi {
                return Err(QueryError::InvalidPlan(format!(
                    "inverted epoch slice: epochs({lo}, {hi}) has lo > hi \
                     (bounds are inclusive; swap them)"
                )));
            }
        }
        Ok(())
    }

    /// Does a record committed under `epoch` pass this filter?
    pub fn matches(&self, epoch: u64, record: &ProcessRecord) -> bool {
        if let Some(e) = self.epoch {
            if epoch != e {
                return false;
            }
        }
        if let Some((lo, hi)) = self.epoch_range {
            if epoch < lo || epoch > hi {
                return false;
            }
        }
        if let Some(j) = self.job {
            if record.key.job_id != j {
                return false;
            }
        }
        if let Some(h) = &self.host {
            if &record.key.host != h {
                return false;
            }
        }
        if let Some((lo, hi)) = self.time_range {
            if record.key.time < lo || record.key.time > hi {
                return false;
            }
        }
        true
    }

    /// Does `epoch` pass the epoch-level conditions alone? This is the
    /// layer-pruning predicate: a snapshot layer whose epochs all fail
    /// it can be skipped without touching a record.
    pub fn matches_epoch(&self, epoch: u64) -> bool {
        if let Some(e) = self.epoch {
            if epoch != e {
                return false;
            }
        }
        if let Some((lo, hi)) = self.epoch_range {
            if epoch < lo || epoch > hi {
                return false;
            }
        }
        true
    }

    /// True when only epoch-level conditions are set — on a layer whose
    /// epochs all pass, every record matches without being inspected.
    pub fn is_epoch_only(&self) -> bool {
        self.host.is_none() && self.time_range.is_none() && self.job.is_none()
    }

    /// Compact structural description: which conditions are set, never
    /// their values (`"epoch,host,time"`, or `"all"` when unfiltered).
    /// Predicate values can carry untrusted ingest strings, so logs and
    /// telemetry record the shape instead.
    pub fn shape(&self) -> String {
        let mut parts: Vec<&str> = Vec::new();
        if self.epoch.is_some() {
            parts.push("epoch");
        }
        if self.epoch_range.is_some() {
            parts.push("epochs");
        }
        if self.job.is_some() {
            parts.push("job");
        }
        if self.host.is_some() {
            parts.push("host");
        }
        if self.time_range.is_some() {
            parts.push("time");
        }
        if parts.is_empty() {
            "all".into()
        } else {
            parts.join(",")
        }
    }

    pub(crate) fn put(&self, out: &mut Vec<u8>) {
        match self.epoch {
            None => out.push(0),
            Some(e) => {
                out.push(1);
                out.extend_from_slice(&e.to_le_bytes());
            }
        }
        match &self.host {
            None => out.push(0),
            Some(h) => {
                out.push(1);
                put_str(out, h);
            }
        }
        match self.time_range {
            None => out.push(0),
            Some((lo, hi)) => {
                out.push(1);
                out.extend_from_slice(&lo.to_le_bytes());
                out.extend_from_slice(&hi.to_le_bytes());
            }
        }
        match self.job {
            None => out.push(0),
            Some(j) => {
                out.push(1);
                out.extend_from_slice(&j.to_le_bytes());
            }
        }
        match self.epoch_range {
            None => out.push(0),
            Some((lo, hi)) => {
                out.push(1);
                out.extend_from_slice(&lo.to_le_bytes());
                out.extend_from_slice(&hi.to_le_bytes());
            }
        }
    }

    pub(crate) fn get(data: &[u8], pos: &mut usize) -> Option<Self> {
        let epoch = match take(data, pos, 1)?[0] {
            0 => None,
            1 => Some(get_u64(data, pos)?),
            _ => return None,
        };
        let host = match take(data, pos, 1)?[0] {
            0 => None,
            1 => Some(get_str(data, pos)?),
            _ => return None,
        };
        let time_range = match take(data, pos, 1)?[0] {
            0 => None,
            1 => Some((get_u64(data, pos)?, get_u64(data, pos)?)),
            _ => return None,
        };
        let job = match take(data, pos, 1)?[0] {
            0 => None,
            1 => Some(get_u64(data, pos)?),
            _ => return None,
        };
        let epoch_range = match take(data, pos, 1)?[0] {
            0 => None,
            1 => Some((get_u64(data, pos)?, get_u64(data, pos)?)),
            _ => return None,
        };
        Some(Self {
            epoch,
            host,
            time_range,
            job,
            epoch_range,
        })
    }
}

pub(crate) fn get_u64(data: &[u8], pos: &mut usize) -> Option<u64> {
    Some(u64::from_le_bytes(take(data, pos, 8)?.try_into().ok()?))
}

pub(crate) fn get_u32(data: &[u8], pos: &mut usize) -> Option<u32> {
    Some(u32::from_le_bytes(take(data, pos, 4)?.try_into().ok()?))
}

fn get_u16(data: &[u8], pos: &mut usize) -> Option<u16> {
    Some(u16::from_le_bytes(take(data, pos, 2)?.try_into().ok()?))
}

/// Count prefix with a sanity bound: `n` elements of at least
/// `min_elem_bytes` wire bytes each must fit in the remaining payload,
/// so a hostile count is refused before any per-element work.
fn get_count(data: &[u8], pos: &mut usize, min_elem_bytes: usize) -> Option<usize> {
    let n = get_u32(data, pos)? as usize;
    if n > data.len().saturating_sub(*pos) / min_elem_bytes.max(1) {
        return None;
    }
    Some(n)
}

/// Initial capacity for a decoded element vector. The count bound above
/// limits `n` by *wire* bytes, but decoded elements (a `ProcessRecord`
/// holds a map, vectors, and strings) are far larger in memory than
/// their minimum wire encoding — so a corrupt-but-count-plausible frame
/// must not turn `n` straight into one huge pre-allocation before the
/// first element fails to decode. Real answers beyond the cap just
/// regrow amortized.
fn decode_capacity(n: usize) -> usize {
    n.min(1024)
}

/// Encode a whole [`MetricsSnapshot`]: the capture timestamp, then four
/// counted sections (counters, gauges, histograms, slow queries), each
/// name length-prefixed, histogram buckets as sparse `(index u16, count
/// u64)` pairs.
fn put_metrics(out: &mut Vec<u8>, snapshot: &MetricsSnapshot) {
    out.extend_from_slice(&snapshot.uptime_ns.to_le_bytes());
    out.extend_from_slice(&(snapshot.counters.len() as u32).to_le_bytes());
    for (name, value) in &snapshot.counters {
        put_str(out, name);
        out.extend_from_slice(&value.to_le_bytes());
    }
    out.extend_from_slice(&(snapshot.gauges.len() as u32).to_le_bytes());
    for (name, g) in &snapshot.gauges {
        put_str(out, name);
        out.extend_from_slice(&g.value.to_le_bytes());
        out.extend_from_slice(&g.high_water.to_le_bytes());
    }
    out.extend_from_slice(&(snapshot.histograms.len() as u32).to_le_bytes());
    for (name, h) in &snapshot.histograms {
        put_str(out, name);
        out.extend_from_slice(&h.count.to_le_bytes());
        out.extend_from_slice(&h.sum.to_le_bytes());
        out.extend_from_slice(&h.max.to_le_bytes());
        out.extend_from_slice(&(h.buckets.len() as u32).to_le_bytes());
        for (index, n) in &h.buckets {
            out.extend_from_slice(&index.to_le_bytes());
            out.extend_from_slice(&n.to_le_bytes());
        }
    }
    out.extend_from_slice(&(snapshot.slow_queries.len() as u32).to_le_bytes());
    for entry in &snapshot.slow_queries {
        out.extend_from_slice(&entry.fingerprint.to_le_bytes());
        put_str(out, &entry.shape);
        out.extend_from_slice(&entry.rows.to_le_bytes());
        out.extend_from_slice(&entry.total_ns.to_le_bytes());
        out.extend_from_slice(&entry.trace_id.to_le_bytes());
    }
}

fn get_metrics(data: &[u8], pos: &mut usize) -> Option<MetricsSnapshot> {
    let uptime_ns = get_u64(data, pos)?;
    // Minimum wire bytes per element bound each count prefix before any
    // per-element work, same as every other counted section.
    let n = get_count(data, pos, 12)?; // name prefix (4) + u64
    let mut counters = Vec::with_capacity(decode_capacity(n));
    for _ in 0..n {
        let name = get_str(data, pos)?;
        counters.push((name, get_u64(data, pos)?));
    }
    let n = get_count(data, pos, 20)?; // name prefix (4) + 2×i64
    let mut gauges = Vec::with_capacity(decode_capacity(n));
    for _ in 0..n {
        let name = get_str(data, pos)?;
        gauges.push((
            name,
            GaugeSnapshot {
                value: get_u64(data, pos)? as i64,
                high_water: get_u64(data, pos)? as i64,
            },
        ));
    }
    let n = get_count(data, pos, 32)?; // name prefix + count/sum/max + bucket count
    let mut histograms = Vec::with_capacity(decode_capacity(n));
    for _ in 0..n {
        let name = get_str(data, pos)?;
        let count = get_u64(data, pos)?;
        let sum = get_u64(data, pos)?;
        let max = get_u64(data, pos)?;
        let buckets_len = get_count(data, pos, 10)?; // index u16 + count u64
        let mut buckets = Vec::with_capacity(decode_capacity(buckets_len));
        for _ in 0..buckets_len {
            let index = get_u16(data, pos)?;
            if (index as usize) >= siren_obs::BUCKETS {
                return None;
            }
            buckets.push((index, get_u64(data, pos)?));
        }
        histograms.push((
            name,
            HistogramSnapshot {
                count,
                sum,
                max,
                buckets,
            },
        ));
    }
    let n = get_count(data, pos, 36)?; // fingerprint + shape prefix + rows + ns + trace
    let mut slow_queries = Vec::with_capacity(decode_capacity(n));
    for _ in 0..n {
        let fingerprint = get_u64(data, pos)?;
        let shape = get_str(data, pos)?;
        slow_queries.push(SlowQueryEntry {
            fingerprint,
            shape,
            rows: get_u64(data, pos)?,
            total_ns: get_u64(data, pos)?,
            trace_id: get_u64(data, pos)?,
        });
    }
    Some(MetricsSnapshot {
        uptime_ns,
        counters,
        gauges,
        histograms,
        slow_queries,
    })
}

/// Encode a [`TraceFilter`]: four presence-prefixed optionals and the
/// result cap.
fn put_trace_filter(out: &mut Vec<u8>, filter: &TraceFilter) {
    match filter.trace {
        None => out.push(0),
        Some(t) => {
            out.push(1);
            out.extend_from_slice(&t.0.to_le_bytes());
        }
    }
    match filter.fingerprint {
        None => out.push(0),
        Some(fp) => {
            out.push(1);
            out.extend_from_slice(&fp.to_le_bytes());
        }
    }
    match filter.min_duration_ns {
        None => out.push(0),
        Some(ns) => {
            out.push(1);
            out.extend_from_slice(&ns.to_le_bytes());
        }
    }
    match &filter.stage {
        None => out.push(0),
        Some(stage) => {
            out.push(1);
            put_str(out, stage);
        }
    }
    out.extend_from_slice(&filter.limit.to_le_bytes());
}

fn get_trace_filter(data: &[u8], pos: &mut usize) -> Option<TraceFilter> {
    let trace = match take(data, pos, 1)?[0] {
        0 => None,
        1 => match get_u64(data, pos)? {
            0 => return None, // id 0 means "absent"; a present-but-zero id is inconsistent
            id => Some(TraceId(id)),
        },
        _ => return None,
    };
    let fingerprint = match take(data, pos, 1)?[0] {
        0 => None,
        1 => Some(get_u64(data, pos)?),
        _ => return None,
    };
    let min_duration_ns = match take(data, pos, 1)?[0] {
        0 => None,
        1 => Some(get_u64(data, pos)?),
        _ => return None,
    };
    let stage = match take(data, pos, 1)?[0] {
        0 => None,
        1 => Some(get_str(data, pos)?),
        _ => return None,
    };
    Some(TraceFilter {
        trace,
        fingerprint,
        min_duration_ns,
        stage,
        limit: get_u32(data, pos)?,
    })
}

/// Encode reassembled trace trees. Per tree: trace id + counted spans;
/// per span: id, parent (`0` = root), stage, start/duration, and the
/// bounded annotation list (count fits a byte by construction). The
/// per-span trace id is implied by the tree and not re-sent.
fn put_traces(out: &mut Vec<u8>, trees: &[TraceTree]) {
    out.extend_from_slice(&(trees.len() as u32).to_le_bytes());
    for tree in trees {
        out.extend_from_slice(&tree.trace.0.to_le_bytes());
        out.extend_from_slice(&(tree.spans.len() as u32).to_le_bytes());
        for span in &tree.spans {
            out.extend_from_slice(&span.id.0.to_le_bytes());
            out.extend_from_slice(&span.parent.map(|p| p.0).unwrap_or(0).to_le_bytes());
            put_str(out, &span.stage);
            out.extend_from_slice(&span.start_ns.to_le_bytes());
            out.extend_from_slice(&span.duration_ns.to_le_bytes());
            out.push(span.annotations.len().min(MAX_SPAN_ANNOTATIONS) as u8);
            for (key, value) in span.annotations.iter().take(MAX_SPAN_ANNOTATIONS) {
                put_str(out, key);
                put_str(out, value);
            }
        }
    }
}

fn get_traces(data: &[u8], pos: &mut usize) -> Option<Vec<TraceTree>> {
    // Minimum wire bytes: a tree is trace u64 + span count u32; a span
    // is id + parent + stage prefix + start + duration + annotation
    // count byte.
    let n = get_count(data, pos, 12)?;
    let mut trees = Vec::with_capacity(decode_capacity(n));
    for _ in 0..n {
        let trace = match get_u64(data, pos)? {
            0 => return None, // trace ids are never zero
            id => TraceId(id),
        };
        let span_count = get_count(data, pos, 37)?;
        let mut spans = Vec::with_capacity(decode_capacity(span_count));
        for _ in 0..span_count {
            let id = match get_u64(data, pos)? {
                0 => return None, // span ids are never zero
                id => SpanId(id),
            };
            let parent = match get_u64(data, pos)? {
                0 => None,
                p => Some(SpanId(p)),
            };
            let stage = get_str(data, pos)?;
            let start_ns = get_u64(data, pos)?;
            let duration_ns = get_u64(data, pos)?;
            let annotation_count = take(data, pos, 1)?[0] as usize;
            if annotation_count > MAX_SPAN_ANNOTATIONS {
                return None;
            }
            let mut annotations = Vec::with_capacity(annotation_count);
            for _ in 0..annotation_count {
                let key = get_str(data, pos)?;
                annotations.push((key, get_str(data, pos)?));
            }
            spans.push(SpanRecord {
                trace,
                id,
                parent,
                stage,
                start_ns,
                duration_ns,
                annotations,
            });
        }
        trees.push(TraceTree { trace, spans });
    }
    Some(trees)
}

/// One query, client → server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryRequest {
    /// Daemon liveness + store shape + ingest-health counters.
    Status,
    /// Library-usage aggregation over a [`Selection`] (no plan source
    /// expresses it: per-library host counts are distinct-counts).
    LibraryUsage {
        /// Record filter (host, time range, epoch, job, epoch slice).
        selection: Selection,
    },
    /// Open a composable plan's row stream.
    Plan(QueryPlan),
    /// Resume a paginated stream from a server-held cursor.
    FetchCursor {
        /// Cursor id from a previous `StreamEnd` frame.
        cursor: u64,
    },
    /// Release a cursor without draining it. Answered with an
    /// end-of-stream frame as the acknowledgement.
    CloseCursor {
        /// Cursor id to release.
        cursor: u64,
    },
    /// Snapshot the daemon's whole metric tree: counters, gauges,
    /// latency histograms, and the slow-query ring.
    Metrics,
    /// Query the flight recorder: recent traces reassembled into
    /// trees, filtered by trace id, plan fingerprint, minimum duration,
    /// or stage name.
    Traces(TraceFilter),
    /// Subscribe to the leader's committed epochs (replication). The
    /// server streams every epoch `>= from_epoch`
    /// committed at subscribe time as checksummed
    /// [`QueryResponse::EpochBatch`] frames, each epoch closed by an
    /// [`QueryResponse::EpochCommit`] marker, and terminates the reply
    /// with [`QueryResponse::SubscribeEnd`] naming the next epoch to
    /// ask for. Followers long-poll: re-subscribe from `next_from` to
    /// pick up later commits.
    SubscribeEpochs {
        /// First epoch wanted (inclusive).
        from_epoch: u64,
        /// Upper bound on records per `EpochBatch` frame; `0` means
        /// the server default.
        batch_rows: u32,
    },
}

impl QueryRequest {
    /// Encode to a request body (the payload inside a stream envelope).
    pub fn encode(&self) -> Vec<u8> {
        self.encode_traced(None)
    }

    /// Encode with an optional trace context: every request body ends
    /// in a trace id (`0` = untraced, the server generates a root).
    pub fn encode_traced(&self, trace: Option<TraceId>) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        match self {
            QueryRequest::Status => out.push(REQ_STATUS),
            QueryRequest::LibraryUsage { selection } => {
                out.push(REQ_LIBRARY_USAGE);
                selection.put(&mut out);
            }
            QueryRequest::Plan(plan) => {
                out.push(REQ_PLAN);
                plan.put(&mut out);
            }
            QueryRequest::FetchCursor { cursor } => {
                out.push(REQ_FETCH_CURSOR);
                out.extend_from_slice(&cursor.to_le_bytes());
            }
            QueryRequest::CloseCursor { cursor } => {
                out.push(REQ_CLOSE_CURSOR);
                out.extend_from_slice(&cursor.to_le_bytes());
            }
            QueryRequest::Metrics => out.push(REQ_METRICS),
            QueryRequest::Traces(filter) => {
                out.push(REQ_TRACES);
                put_trace_filter(&mut out, filter);
            }
            QueryRequest::SubscribeEpochs {
                from_epoch,
                batch_rows,
            } => {
                out.push(REQ_SUBSCRIBE_EPOCHS);
                out.extend_from_slice(&from_epoch.to_le_bytes());
                out.extend_from_slice(&batch_rows.to_le_bytes());
            }
        }
        out.extend_from_slice(&trace.map(|t| t.0).unwrap_or(0).to_le_bytes());
        out
    }

    /// Decode a request body. Unknown tags and malformed bodies come
    /// back as the [`QueryError`] the server should answer with.
    pub fn decode(data: &[u8]) -> Result<Self, QueryError> {
        Self::decode_traced(data).map(|(req, _)| req)
    }

    /// Decode a request body along with its trailing trace id (`0`
    /// decodes as `None`).
    pub fn decode_traced(data: &[u8]) -> Result<(Self, Option<TraceId>), QueryError> {
        let malformed = || QueryError::Malformed("truncated or inconsistent request".into());
        let (&tag, body) = data.split_first().ok_or_else(malformed)?;
        let mut pos = 0usize;
        let req = match tag {
            REQ_STATUS => QueryRequest::Status,
            REQ_LIBRARY_USAGE => QueryRequest::LibraryUsage {
                selection: Selection::get(body, &mut pos).ok_or_else(malformed)?,
            },
            REQ_PLAN => QueryRequest::Plan(QueryPlan::get(body, &mut pos).ok_or_else(malformed)?),
            REQ_FETCH_CURSOR => QueryRequest::FetchCursor {
                cursor: get_u64(body, &mut pos).ok_or_else(malformed)?,
            },
            REQ_CLOSE_CURSOR => QueryRequest::CloseCursor {
                cursor: get_u64(body, &mut pos).ok_or_else(malformed)?,
            },
            REQ_METRICS => QueryRequest::Metrics,
            REQ_TRACES => {
                QueryRequest::Traces(get_trace_filter(body, &mut pos).ok_or_else(malformed)?)
            }
            REQ_SUBSCRIBE_EPOCHS => QueryRequest::SubscribeEpochs {
                from_epoch: get_u64(body, &mut pos).ok_or_else(malformed)?,
                batch_rows: get_u32(body, &mut pos).ok_or_else(malformed)?,
            },
            other => return Err(QueryError::UnknownRequest(other)),
        };
        let trace = match get_u64(body, &mut pos).ok_or_else(malformed)? {
            0 => None,
            id => Some(TraceId(id)),
        };
        if pos != body.len() {
            return Err(QueryError::Malformed("trailing bytes after request".into()));
        }
        Ok((req, trace))
    }
}

/// Daemon status, as served to clients.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatusInfo {
    /// Protocol version the server is speaking on this connection
    /// (always [`PROTOCOL_VERSION`] on the wire; `0` in-process).
    pub protocol_version: u16,
    /// Epochs committed to the consolidated store, ascending.
    pub committed_epochs: Vec<u64>,
    /// Committed records across all epochs.
    pub records: u64,
    /// The epoch currently ingesting, if any.
    pub open_epoch: Option<u64>,
    /// Sentinels whose epoch tag disagreed with the open epoch
    /// (stragglers from reordered campaigns), since daemon start.
    pub epoch_tag_mismatches: u64,
    /// Epochs closed by the quiet-period fallback instead of a sentinel
    /// quorum (every `TYPE=END` copy lost), since daemon start.
    pub quiet_period_fallbacks: u64,
    /// Query connections refused because the server's accept queue was
    /// full, since daemon start.
    pub queries_refused: u64,
    /// Cursors currently parked in the server's cursor table.
    pub open_cursors: u64,
    /// Negotiated-version histogram: `(version, connections)` pairs,
    /// ascending by version, since daemon start. With one protocol
    /// version it holds at most `(3, connections)`.
    pub version_connections: Vec<(u16, u64)>,
    /// Replication high-water mark: the next epoch this daemon would
    /// request from its leader, i.e. every epoch below it is applied
    /// and durable locally (zero on a non-follower).
    pub repl_high_water: u64,
    /// Epochs this follower trails its leader by, as of the last
    /// subscription exchange (zero on a non-follower).
    pub repl_lag_epochs: u64,
    /// Sealed-store bytes this follower trails its leader by, as of
    /// the last subscription exchange (zero on a non-follower).
    pub repl_lag_bytes: u64,
    /// Reconnect attempts the follower's replication loop has made
    /// since daemon start (zero on a non-follower).
    pub repl_reconnects: u64,
}

/// One epoch-tagged committed record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordRow {
    /// Epoch the record was committed under.
    pub epoch: u64,
    /// The consolidated record.
    pub record: ProcessRecord,
}

/// One bounded frame of a replication epoch stream: a
/// slice of one epoch's consolidated records, in the leader's
/// consolidation order. The wire encoding appends an FNV-1a/64
/// checksum over the raw record encodings; the decoder recomputes and
/// rejects mismatches, so a batch that decodes is end-to-end intact
/// independent of the frame-level checksum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochBatch {
    /// Epoch every record in this frame belongs to.
    pub epoch: u64,
    /// The record slice, in commit order.
    pub records: Vec<ProcessRecord>,
}

impl EpochBatch {
    /// FNV-1a/64 over the concatenated record encodings — the batch
    /// checksum shipped on the wire and chained into the epoch's
    /// [`QueryResponse::EpochCommit`] marker. Both sides compute it
    /// with this one function.
    pub fn checksum(&self) -> u64 {
        let mut fnv = siren_hash::Fnv64::new();
        for record in &self.records {
            fnv.update(&record.encode());
        }
        fnv.digest()
    }
}

/// Fold per-batch checksums into the epoch checksum carried by
/// [`QueryResponse::EpochCommit`]: FNV-1a/64 over the little-endian
/// batch checksums in shipping order. A dropped, duplicated, or
/// reordered batch changes the fold, so a follower that accumulates
/// batch checksums as they arrive can verify the whole epoch against
/// the commit marker without retaining any raw bytes.
pub fn fold_epoch_checksum(batch_checksums: &[u64]) -> u64 {
    let mut fnv = siren_hash::Fnv64::new();
    for sum in batch_checksums {
        fnv.update(&sum.to_le_bytes());
    }
    fnv.digest()
}

/// One nearest-neighbor hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeighborRow {
    /// Similarity score, 0–100.
    pub score: u32,
    /// Epoch the matching record was committed under.
    pub epoch: u64,
    /// The matching record.
    pub record: ProcessRecord,
}

/// A non-fatal degradation notice attached to the end of a row stream:
/// the rows already delivered are correct, but some
/// backends could not contribute, so the result may be a subset of the
/// full corpus. Federation routers emit one right before the final
/// `StreamEnd` when shards were unreachable — partial results are
/// typed, never silent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryWarning {
    /// Names of the backends whose rows are missing from the stream.
    pub missing: Vec<String>,
    /// Human-readable cause (last dial/stream error per backend).
    pub detail: String,
}

impl std::fmt::Display for QueryWarning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "partial result: missing [{}]: {}",
            self.missing.join(", "),
            self.detail
        )
    }
}

/// One answer, server → client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryResponse {
    /// Answer to [`QueryRequest::Status`].
    Status(StatusInfo),
    /// Answer to [`QueryRequest::LibraryUsage`].
    LibraryUsage(Vec<LibraryUsageRow>),
    /// One bounded frame of a plan's row stream. More frames of the
    /// same reply follow until a `StreamEnd`.
    Batch(RowBatch),
    /// Terminates a plan/fetch reply: `cursor` is `Some(id)` when
    /// more rows can be fetched with
    /// [`QueryRequest::FetchCursor`], `None` at end of rows.
    StreamEnd {
        /// Resumable cursor, if rows remain.
        cursor: Option<u64>,
    },
    /// Answer to [`QueryRequest::Metrics`]: the daemon's whole metric
    /// tree, frozen.
    Metrics(MetricsSnapshot),
    /// Answer to [`QueryRequest::Traces`]: matching trace trees, most
    /// recent first.
    Traces(Vec<TraceTree>),
    /// One checksummed slice of a replicated epoch. Frames of the same
    /// epoch arrive contiguously, closed by an `EpochCommit`.
    EpochBatch(EpochBatch),
    /// Closes one epoch of a replication stream: the follower may
    /// apply the accumulated records iff every count and checksum
    /// matches.
    EpochCommit {
        /// The epoch just completed.
        epoch: u64,
        /// Total records shipped for this epoch, across its batches.
        records: u64,
        /// [`fold_epoch_checksum`] over the per-batch checksums in
        /// shipping order.
        checksum: u64,
    },
    /// Terminates a [`QueryRequest::SubscribeEpochs`] reply: the
    /// leader has no further committed epochs in the snapshot this
    /// subscription pinned.
    SubscribeEnd {
        /// The epoch a follow-up subscription should start from.
        next_from: u64,
        /// Leader's sealed-store footprint in bytes at subscribe time;
        /// followers compare against their own store to gauge bytes
        /// behind.
        leader_bytes: u64,
    },
    /// A non-fatal stream degradation notice: emitted at most
    /// once per row stream, immediately before its final `StreamEnd`.
    /// The stream still terminates normally — the warning marks the
    /// delivered rows as a possibly-partial view.
    Warning(QueryWarning),
    /// The request could not be answered.
    Error(QueryError),
}

impl QueryResponse {
    /// Encode to a response body (the payload inside a stream
    /// envelope, or a plain frame before the hello is acknowledged).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            QueryResponse::Status(status) => {
                out.push(RESP_STATUS);
                out.extend_from_slice(&status.protocol_version.to_le_bytes());
                out.extend_from_slice(&(status.committed_epochs.len() as u32).to_le_bytes());
                for epoch in &status.committed_epochs {
                    out.extend_from_slice(&epoch.to_le_bytes());
                }
                out.extend_from_slice(&status.records.to_le_bytes());
                match status.open_epoch {
                    None => out.push(0),
                    Some(e) => {
                        out.push(1);
                        out.extend_from_slice(&e.to_le_bytes());
                    }
                }
                out.extend_from_slice(&status.epoch_tag_mismatches.to_le_bytes());
                out.extend_from_slice(&status.quiet_period_fallbacks.to_le_bytes());
                out.extend_from_slice(&status.queries_refused.to_le_bytes());
                out.extend_from_slice(&status.open_cursors.to_le_bytes());
                out.extend_from_slice(&(status.version_connections.len() as u32).to_le_bytes());
                for (v, n) in &status.version_connections {
                    out.extend_from_slice(&v.to_le_bytes());
                    out.extend_from_slice(&n.to_le_bytes());
                }
                out.extend_from_slice(&status.repl_high_water.to_le_bytes());
                out.extend_from_slice(&status.repl_lag_epochs.to_le_bytes());
                out.extend_from_slice(&status.repl_lag_bytes.to_le_bytes());
                out.extend_from_slice(&status.repl_reconnects.to_le_bytes());
            }
            QueryResponse::LibraryUsage(rows) => {
                out.push(RESP_LIBRARY_USAGE);
                out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
                for row in rows {
                    put_str(&mut out, &row.library);
                    out.extend_from_slice(&row.processes.to_le_bytes());
                    out.extend_from_slice(&row.hosts.to_le_bytes());
                }
            }
            QueryResponse::Batch(batch) => {
                out.push(RESP_BATCH);
                batch.put(&mut out);
            }
            QueryResponse::StreamEnd { cursor } => {
                out.push(RESP_STREAM_END);
                match cursor {
                    None => out.push(0),
                    Some(id) => {
                        out.push(1);
                        out.extend_from_slice(&id.to_le_bytes());
                    }
                }
            }
            QueryResponse::Metrics(snapshot) => {
                out.push(RESP_METRICS);
                put_metrics(&mut out, snapshot);
            }
            QueryResponse::Traces(trees) => {
                out.push(RESP_TRACES);
                put_traces(&mut out, trees);
            }
            QueryResponse::EpochBatch(batch) => {
                out.push(RESP_EPOCH_BATCH);
                out.extend_from_slice(&batch.epoch.to_le_bytes());
                out.extend_from_slice(&(batch.records.len() as u32).to_le_bytes());
                let mut fnv = siren_hash::Fnv64::new();
                for record in &batch.records {
                    let bytes = record.encode();
                    fnv.update(&bytes);
                    put_bytes(&mut out, &bytes);
                }
                out.extend_from_slice(&fnv.digest().to_le_bytes());
            }
            QueryResponse::EpochCommit {
                epoch,
                records,
                checksum,
            } => {
                out.push(RESP_EPOCH_COMMIT);
                out.extend_from_slice(&epoch.to_le_bytes());
                out.extend_from_slice(&records.to_le_bytes());
                out.extend_from_slice(&checksum.to_le_bytes());
            }
            QueryResponse::SubscribeEnd {
                next_from,
                leader_bytes,
            } => {
                out.push(RESP_SUBSCRIBE_END);
                out.extend_from_slice(&next_from.to_le_bytes());
                out.extend_from_slice(&leader_bytes.to_le_bytes());
            }
            QueryResponse::Warning(warning) => {
                out.push(RESP_WARNING);
                out.extend_from_slice(&(warning.missing.len() as u32).to_le_bytes());
                for name in &warning.missing {
                    put_str(&mut out, name);
                }
                put_str(&mut out, &warning.detail);
            }
            QueryResponse::Error(err) => {
                out.push(RESP_ERROR);
                err.put(&mut out);
            }
        }
        out
    }

    /// [`QueryResponse::encode`] under an explicit version, which must
    /// be [`PROTOCOL_VERSION`]. Kept for path-dependency consumers.
    #[doc(hidden)]
    pub fn encode_versioned(&self, version: u16) -> Vec<u8> {
        debug_assert_eq!(version, PROTOCOL_VERSION);
        self.encode()
    }

    /// [`QueryResponse::decode`] under an explicit version, which must
    /// be [`PROTOCOL_VERSION`]. Kept for path-dependency consumers.
    #[doc(hidden)]
    pub fn decode_versioned(data: &[u8], version: u16) -> Result<Self, QueryError> {
        debug_assert_eq!(version, PROTOCOL_VERSION);
        Self::decode(data)
    }

    /// Decode a response body.
    pub fn decode(data: &[u8]) -> Result<Self, QueryError> {
        let malformed = || QueryError::Malformed("truncated or inconsistent response".into());
        let (&tag, body) = data.split_first().ok_or_else(malformed)?;
        let mut pos = 0usize;
        let resp = match tag {
            RESP_STATUS => {
                let protocol_version = get_u16(body, &mut pos).ok_or_else(malformed)?;
                // Minimum wire sizes per element: epoch u64 = 8.
                let n = get_count(body, &mut pos, 8).ok_or_else(malformed)?;
                let mut committed_epochs = Vec::with_capacity(n);
                for _ in 0..n {
                    committed_epochs.push(get_u64(body, &mut pos).ok_or_else(malformed)?);
                }
                let records = get_u64(body, &mut pos).ok_or_else(malformed)?;
                let open_epoch = match take(body, &mut pos, 1).ok_or_else(malformed)?[0] {
                    0 => None,
                    1 => Some(get_u64(body, &mut pos).ok_or_else(malformed)?),
                    _ => return Err(malformed()),
                };
                let epoch_tag_mismatches = get_u64(body, &mut pos).ok_or_else(malformed)?;
                let quiet_period_fallbacks = get_u64(body, &mut pos).ok_or_else(malformed)?;
                let queries_refused = get_u64(body, &mut pos).ok_or_else(malformed)?;
                let open_cursors = get_u64(body, &mut pos).ok_or_else(malformed)?;
                // (version u16, count u64) = 10 wire bytes each.
                let n = get_count(body, &mut pos, 10).ok_or_else(malformed)?;
                let mut version_connections = Vec::with_capacity(n);
                for _ in 0..n {
                    version_connections.push((
                        get_u16(body, &mut pos).ok_or_else(malformed)?,
                        get_u64(body, &mut pos).ok_or_else(malformed)?,
                    ));
                }
                QueryResponse::Status(StatusInfo {
                    protocol_version,
                    committed_epochs,
                    records,
                    open_epoch,
                    epoch_tag_mismatches,
                    quiet_period_fallbacks,
                    queries_refused,
                    open_cursors,
                    version_connections,
                    repl_high_water: get_u64(body, &mut pos).ok_or_else(malformed)?,
                    repl_lag_epochs: get_u64(body, &mut pos).ok_or_else(malformed)?,
                    repl_lag_bytes: get_u64(body, &mut pos).ok_or_else(malformed)?,
                    repl_reconnects: get_u64(body, &mut pos).ok_or_else(malformed)?,
                })
            }
            RESP_LIBRARY_USAGE => {
                // library length prefix (4) + processes u64 + hosts u64.
                let n = get_count(body, &mut pos, 20).ok_or_else(malformed)?;
                let mut rows = Vec::with_capacity(decode_capacity(n));
                for _ in 0..n {
                    rows.push(LibraryUsageRow {
                        library: get_str(body, &mut pos).ok_or_else(malformed)?,
                        processes: get_u64(body, &mut pos).ok_or_else(malformed)?,
                        hosts: get_u64(body, &mut pos).ok_or_else(malformed)?,
                    });
                }
                QueryResponse::LibraryUsage(rows)
            }
            RESP_BATCH => {
                QueryResponse::Batch(RowBatch::get(body, &mut pos).ok_or_else(malformed)?)
            }
            RESP_STREAM_END => QueryResponse::StreamEnd {
                cursor: match take(body, &mut pos, 1).ok_or_else(malformed)?[0] {
                    0 => None,
                    1 => Some(get_u64(body, &mut pos).ok_or_else(malformed)?),
                    _ => return Err(malformed()),
                },
            },
            RESP_METRICS => {
                QueryResponse::Metrics(get_metrics(body, &mut pos).ok_or_else(malformed)?)
            }
            RESP_TRACES => QueryResponse::Traces(get_traces(body, &mut pos).ok_or_else(malformed)?),
            RESP_EPOCH_BATCH => {
                let epoch = get_u64(body, &mut pos).ok_or_else(malformed)?;
                // Record byte-length prefix (4) is the minimum element.
                let n = get_count(body, &mut pos, 4).ok_or_else(malformed)?;
                let mut records = Vec::with_capacity(decode_capacity(n));
                let mut fnv = siren_hash::Fnv64::new();
                for _ in 0..n {
                    let bytes = get_bytes(body, &mut pos).ok_or_else(malformed)?;
                    fnv.update(bytes);
                    records.push(ProcessRecord::decode(bytes).ok_or_else(malformed)?);
                }
                let shipped = get_u64(body, &mut pos).ok_or_else(malformed)?;
                if shipped != fnv.digest() {
                    return Err(QueryError::Malformed(
                        "epoch batch checksum mismatch".into(),
                    ));
                }
                QueryResponse::EpochBatch(EpochBatch { epoch, records })
            }
            RESP_EPOCH_COMMIT => QueryResponse::EpochCommit {
                epoch: get_u64(body, &mut pos).ok_or_else(malformed)?,
                records: get_u64(body, &mut pos).ok_or_else(malformed)?,
                checksum: get_u64(body, &mut pos).ok_or_else(malformed)?,
            },
            RESP_SUBSCRIBE_END => QueryResponse::SubscribeEnd {
                next_from: get_u64(body, &mut pos).ok_or_else(malformed)?,
                leader_bytes: get_u64(body, &mut pos).ok_or_else(malformed)?,
            },
            RESP_WARNING => {
                // Each missing name carries at least its 4-byte length
                // prefix.
                let n = get_count(body, &mut pos, 4).ok_or_else(malformed)?;
                let mut missing = Vec::with_capacity(decode_capacity(n));
                for _ in 0..n {
                    missing.push(get_str(body, &mut pos).ok_or_else(malformed)?);
                }
                let detail = get_str(body, &mut pos).ok_or_else(malformed)?;
                QueryResponse::Warning(QueryWarning { missing, detail })
            }
            RESP_ERROR => {
                QueryResponse::Error(QueryError::get(body, &mut pos).ok_or_else(malformed)?)
            }
            _ => return Err(malformed()),
        };
        if pos != body.len() {
            return Err(QueryError::Malformed(
                "trailing bytes after response".into(),
            ));
        }
        Ok(resp)
    }
}

/// Why a request could not be answered — the structured error the
/// server returns instead of closing (or right before closing, when the
/// stream itself can no longer be trusted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The payload did not decode.
    Malformed(String),
    /// The client's offered version range does not contain the one
    /// version the server speaks.
    UnsupportedVersion {
        /// Lowest version the server speaks.
        server_min: u16,
        /// Highest version the server speaks.
        server_max: u16,
    },
    /// The request tag is not known (or is reserved) on this server.
    UnknownRequest(u8),
    /// The frame's length prefix exceeded the server's cap.
    FrameTooLarge(u32),
    /// The per-request deadline expired.
    Deadline,
    /// Server-side fault while answering.
    Internal(String),
    /// The plan (or a selection inside a request) is structurally
    /// invalid — inverted range bounds, zero batch geometry, an
    /// ordering the source does not support.
    InvalidPlan(String),
    /// The cursor id is not (or no longer) parked on the server — it
    /// was never issued, was closed, or its TTL expired.
    UnknownCursor(u64),
}

impl QueryError {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            QueryError::Malformed(detail) => {
                out.push(ERR_MALFORMED);
                put_str(out, detail);
            }
            QueryError::UnsupportedVersion {
                server_min,
                server_max,
            } => {
                out.push(ERR_UNSUPPORTED_VERSION);
                out.extend_from_slice(&server_min.to_le_bytes());
                out.extend_from_slice(&server_max.to_le_bytes());
            }
            QueryError::UnknownRequest(tag) => {
                out.push(ERR_UNKNOWN_REQUEST);
                out.push(*tag);
            }
            QueryError::FrameTooLarge(len) => {
                out.push(ERR_FRAME_TOO_LARGE);
                out.extend_from_slice(&len.to_le_bytes());
            }
            QueryError::Deadline => out.push(ERR_DEADLINE),
            QueryError::Internal(detail) => {
                out.push(ERR_INTERNAL);
                put_str(out, detail);
            }
            QueryError::InvalidPlan(detail) => {
                out.push(ERR_INVALID_PLAN);
                put_str(out, detail);
            }
            QueryError::UnknownCursor(id) => {
                out.push(ERR_UNKNOWN_CURSOR);
                out.extend_from_slice(&id.to_le_bytes());
            }
        }
    }

    fn get(data: &[u8], pos: &mut usize) -> Option<Self> {
        Some(match take(data, pos, 1)?[0] {
            ERR_MALFORMED => QueryError::Malformed(get_str(data, pos)?),
            ERR_UNSUPPORTED_VERSION => QueryError::UnsupportedVersion {
                server_min: get_u16(data, pos)?,
                server_max: get_u16(data, pos)?,
            },
            ERR_UNKNOWN_REQUEST => QueryError::UnknownRequest(take(data, pos, 1)?[0]),
            ERR_FRAME_TOO_LARGE => QueryError::FrameTooLarge(get_u32(data, pos)?),
            ERR_DEADLINE => QueryError::Deadline,
            ERR_INTERNAL => QueryError::Internal(get_str(data, pos)?),
            ERR_INVALID_PLAN => QueryError::InvalidPlan(get_str(data, pos)?),
            ERR_UNKNOWN_CURSOR => QueryError::UnknownCursor(get_u64(data, pos)?),
            _ => return None,
        })
    }
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Malformed(detail) => write!(f, "malformed payload: {detail}"),
            QueryError::UnsupportedVersion {
                server_min,
                server_max,
            } => write!(
                f,
                "no common protocol version (server speaks {server_min}..={server_max})"
            ),
            QueryError::UnknownRequest(tag) => write!(f, "unknown request tag {tag}"),
            QueryError::FrameTooLarge(len) => write!(f, "frame payload of {len} bytes refused"),
            QueryError::Deadline => write!(f, "request deadline expired"),
            QueryError::Internal(detail) => write!(f, "server fault: {detail}"),
            QueryError::InvalidPlan(detail) => write!(f, "invalid plan: {detail}"),
            QueryError::UnknownCursor(id) => {
                write!(
                    f,
                    "cursor {id} is not open (expired, closed, or never issued)"
                )
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// Encode the client hello: magic + supported `[min, max]` range.
pub fn encode_hello(min: u16, max: u16) -> Vec<u8> {
    let mut out = Vec::with_capacity(8);
    out.extend_from_slice(&HELLO_MAGIC);
    out.extend_from_slice(&min.to_le_bytes());
    out.extend_from_slice(&max.to_le_bytes());
    out
}

/// Decode a client hello into its `(min, max)` version range.
pub fn decode_hello(payload: &[u8]) -> Option<(u16, u16)> {
    if payload.len() != 8 || payload[..4] != HELLO_MAGIC {
        return None;
    }
    let mut pos = 4usize;
    let min = get_u16(payload, &mut pos)?;
    let max = get_u16(payload, &mut pos)?;
    Some((min, max))
}

/// Encode the server hello-ack carrying the chosen version.
pub fn encode_hello_ack(version: u16) -> Vec<u8> {
    let mut out = Vec::with_capacity(6);
    out.extend_from_slice(&HELLO_MAGIC);
    out.extend_from_slice(&version.to_le_bytes());
    out
}

/// Decode a server hello-ack into the chosen version.
pub fn decode_hello_ack(payload: &[u8]) -> Option<u16> {
    if payload.len() != 6 || payload[..4] != HELLO_MAGIC {
        return None;
    }
    let mut pos = 4usize;
    get_u16(payload, &mut pos)
}

/// Accept a client offering `[client_min, client_max]` iff the range
/// contains [`PROTOCOL_VERSION`], the one version this build speaks.
pub fn negotiate(client_min: u16, client_max: u16) -> Result<u16, QueryError> {
    if (client_min..=client_max).contains(&PROTOCOL_VERSION) {
        Ok(PROTOCOL_VERSION)
    } else {
        Err(QueryError::UnsupportedVersion {
            server_min: PROTOCOL_VERSION_MIN,
            server_max: PROTOCOL_VERSION,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_key_extracts_job_and_host_only() {
        let sel = Selection::all()
            .job(42)
            .host("nid000007")
            .epoch(3)
            .epochs(1, 9)
            .between(100, 200);
        let key = sel.shard_key();
        assert_eq!(key.job, Some(42));
        assert_eq!(key.host, Some("nid000007"));
    }

    #[test]
    fn shard_key_of_time_and_epoch_predicates_is_unrouted() {
        // Epoch/time conditions restrict *when*, not *where* — they
        // must not prune any shard.
        for sel in [
            Selection::all(),
            Selection::all().epoch(5),
            Selection::all().epochs(0, 3),
            Selection::all().between(10, 20),
        ] {
            let key = sel.shard_key();
            assert_eq!(
                key,
                ShardKey {
                    job: None,
                    host: None
                }
            );
        }
    }

    #[test]
    fn shard_key_mirrors_the_matches_predicates() {
        // Any record rejected by shard_key's predicates is rejected by
        // matches() too: pruning a shard that cannot satisfy the key
        // never loses a row.
        let sel = Selection::all().job(7).host("a");
        let key = sel.shard_key();
        let row = siren_db::Record {
            job_id: 7,
            step_id: 0,
            pid: 1,
            exe_hash: "x".into(),
            host: "b".into(),
            time: 0,
            layer: siren_wire::Layer::SelfExe,
            mtype: siren_wire::MessageType::Meta,
            content: String::new(),
        };
        let record = ProcessRecord::new(&row);
        assert_eq!(key.job, Some(record.key.job_id));
        assert_ne!(key.host, Some(record.key.host.as_str()));
        assert!(!sel.matches(0, &record));
    }

    #[test]
    fn warning_roundtrips() {
        let warning = QueryResponse::Warning(QueryWarning {
            missing: vec!["shard-1".into(), "shard-3".into()],
            detail: "dial refused".into(),
        });
        let bytes = warning.encode();
        assert_eq!(bytes[0], RESP_WARNING);
        assert_eq!(QueryResponse::decode(&bytes).unwrap(), warning);
    }

    #[test]
    fn warning_display_lists_missing_backends() {
        let w = QueryWarning {
            missing: vec!["a".into(), "b".into()],
            detail: "leader dark".into(),
        };
        let text = w.to_string();
        assert!(text.contains("a, b"));
        assert!(text.contains("leader dark"));
    }
}
