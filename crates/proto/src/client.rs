//! The blocking query client: one TCP connection, hello-checked on
//! connect, with typed methods mirroring the [`QueryRequest`] variants
//! and the composable [`QueryPlan`] API returning a lazy [`RowStream`].
//!
//! One exchange is in flight per connection at a time. Any failure
//! that can leave the socket off a frame boundary — a transport error
//! (timeouts included), an undecodable envelope or body, a reply
//! tagged for another stream, a connection-level (stream 0) error —
//! **poisons** the client: every later call fails fast with a
//! "reconnect" error instead of reading a stale reply as its own. A
//! typed [`QueryError`] on the request's own stream arrives on a frame
//! boundary and leaves the client usable.

use crate::frame::{read_frame, write_frame, FrameError};
use crate::message::{
    decode_hello_ack, encode_hello, fold_epoch_checksum, NeighborRow, QueryError, QueryRequest,
    QueryResponse, QueryWarning, RecordRow, Selection, StatusInfo,
};
use crate::plan::{PlanRow, QueryPlan};
use crate::stream::{decode_stream_frame, encode_stream_frame, CONNECTION_STREAM};
use crate::{PROTOCOL_VERSION, PROTOCOL_VERSION_MIN};
use siren_analysis::LibraryUsageRow;
use siren_consolidate::ProcessRecord;
use siren_obs::{TraceFilter, TraceId, TraceTree};
use std::borrow::BorrowMut;
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Bounded reconnect policy: capped exponential backoff with optional
/// jitter. Only the **idempotent** parts of a client's life are ever
/// retried under it — TCP connect and the hello exchange, which carry
/// no request state — so a retry can never duplicate work on the
/// server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (`0` = one-shot).
    pub max_retries: u32,
    /// Delay before the first retry; doubles per attempt.
    pub base_delay: Duration,
    /// Ceiling the exponential never exceeds.
    pub max_delay: Duration,
    /// Randomize each delay into `[delay/2, delay]` so a fleet of
    /// followers losing the same leader does not reconnect in
    /// lockstep.
    pub jitter: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 5,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            jitter: true,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `attempt` (zero-based), jittered
    /// through `rng` (any nonzero xorshift state).
    pub fn delay(&self, attempt: u32, rng: &mut u64) -> Duration {
        let exp = self.base_delay.saturating_mul(1u32 << attempt.min(16));
        let capped = exp.min(self.max_delay);
        if !self.jitter || capped.is_zero() {
            return capped;
        }
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        let nanos = capped.as_nanos() as u64;
        let half = nanos / 2;
        Duration::from_nanos(half + *rng % (nanos - half + 1))
    }
}

/// A nonzero xorshift seed from the wall clock — good enough to
/// decorrelate backoff across processes without a PRNG dependency.
pub(crate) fn jitter_seed() -> u64 {
    use std::time::{SystemTime, UNIX_EPOCH};
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x9E37_79B9_7F4A_7C15)
        | 1
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failure.
    Frame(FrameError),
    /// The server answered with something the protocol does not allow
    /// here (wrong response kind, undecodable payload).
    Protocol(String),
    /// The server answered with a structured error.
    Server(QueryError),
    /// The request cannot go through this method (a stream-reply
    /// request handed to a single-frame `call`).
    Unsupported(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "transport: {e}"),
            ClientError::Protocol(detail) => write!(f, "protocol violation: {detail}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
            ClientError::Unsupported(detail) => write!(f, "unsupported call: {detail}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Frame(FrameError::Io(e))
    }
}

/// A blocking query connection to a SIREN daemon or router.
#[derive(Debug)]
pub struct SirenClient {
    stream: TcpStream,
    /// Set when the connection may be off a frame boundary (a failed
    /// read or write, an off-protocol frame, a stream abandoned and not
    /// drained) — every later call would misparse, so they are refused
    /// instead.
    poisoned: bool,
    /// Stream id of the last request sent; replies must echo it (or
    /// [`CONNECTION_STREAM`] for connection-level errors).
    stream_seq: u32,
    /// Advertise willingness to receive compressed reply bodies.
    accept_compressed: bool,
}

impl SirenClient {
    /// Connect to `addr` and complete the hello, with a 5 s default
    /// I/O timeout.
    pub fn connect(addr: SocketAddr) -> Result<Self, ClientError> {
        Self::connect_with_timeout(addr, Duration::from_secs(5))
    }

    /// Connect under a [`RetryPolicy`] with an explicit per-operation
    /// I/O timeout: transport failures (refused, reset, timed out — the
    /// server restarting, say) are retried with capped exponential
    /// backoff + jitter. Only the idempotent connect + hello exchange
    /// is ever replayed; a typed server refusal fails immediately,
    /// since retrying would only repeat it.
    pub fn connect_with_retry(
        addr: SocketAddr,
        timeout: Duration,
        policy: &RetryPolicy,
    ) -> Result<Self, ClientError> {
        let mut rng = jitter_seed();
        let mut attempt = 0u32;
        loop {
            match Self::connect_with_timeout(addr, timeout) {
                Ok(client) => return Ok(client),
                Err(ClientError::Frame(_)) if attempt < policy.max_retries => {
                    std::thread::sleep(policy.delay(attempt, &mut rng));
                    attempt += 1;
                }
                Err(err) => return Err(err),
            }
        }
    }

    /// Connect with an explicit per-operation I/O timeout.
    pub fn connect_with_timeout(addr: SocketAddr, timeout: Duration) -> Result<Self, ClientError> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        let mut client = Self {
            stream,
            poisoned: false,
            stream_seq: 0,
            accept_compressed: false,
        };
        write_frame(
            &mut client.stream,
            &encode_hello(PROTOCOL_VERSION_MIN, PROTOCOL_VERSION),
        )?;
        let reply = read_frame(&mut client.stream)?;
        if decode_hello_ack(&reply) == Some(PROTOCOL_VERSION) {
            return Ok(client);
        }
        // Not an ack: the server either refused the version or broke
        // protocol. A structured error is surfaced as such.
        match QueryResponse::decode(&reply) {
            Ok(QueryResponse::Error(err)) => Err(ClientError::Server(err)),
            _ => Err(ClientError::Protocol(
                "handshake reply was not a hello-ack".into(),
            )),
        }
    }

    /// Advertise on every request that reply bodies may arrive
    /// LZ-compressed (the server still only compresses batches past its
    /// size threshold, and only when compression actually shrinks
    /// them).
    pub fn set_accept_compressed(&mut self, accept: bool) {
        self.accept_compressed = accept;
    }

    fn check_usable(&self) -> Result<(), ClientError> {
        if self.poisoned {
            return Err(ClientError::Protocol(
                "connection left off a frame boundary by an earlier failure; reconnect".into(),
            ));
        }
        Ok(())
    }

    fn send(&mut self, request: &QueryRequest) -> Result<(), ClientError> {
        self.send_traced(request, None)
    }

    fn send_traced(
        &mut self,
        request: &QueryRequest,
        trace: Option<TraceId>,
    ) -> Result<(), ClientError> {
        let body = request.encode_traced(trace);
        // Each exchange gets a fresh nonzero stream id; the reply frames
        // must echo it. Requests are small: never compressed.
        self.stream_seq = self.stream_seq.wrapping_add(1);
        if self.stream_seq == CONNECTION_STREAM {
            self.stream_seq = 1;
        }
        let envelope = encode_stream_frame(self.stream_seq, &body, self.accept_compressed, None);
        // A partial write leaves the server mid-frame.
        write_frame(&mut self.stream, &envelope).map_err(|err| self.poison(err.into()))
    }

    /// Read the next reply frame of the current exchange. Every error
    /// returned poisons the client: none of them leaves the connection
    /// at a known frame boundary of this exchange.
    fn recv(&mut self) -> Result<QueryResponse, ClientError> {
        self.read_reply().map_err(|err| self.poison(err))
    }

    fn read_reply(&mut self) -> Result<QueryResponse, ClientError> {
        let payload = read_frame(&mut self.stream)?;
        let frame = decode_stream_frame(&payload)
            .map_err(|err| ClientError::Protocol(format!("bad stream envelope: {err}")))?;
        let response = QueryResponse::decode(&frame.body)
            .map_err(|err| ClientError::Protocol(format!("undecodable response: {err}")))?;
        if frame.stream_id == self.stream_seq {
            return Ok(response);
        }
        if frame.stream_id == CONNECTION_STREAM {
            // Connection-scoped fault (deadline, unreadable envelope):
            // the server closes after this frame.
            return Err(match response {
                QueryResponse::Error(err) => ClientError::Server(err),
                other => unexpected("connection-level Error", &other),
            });
        }
        Err(ClientError::Protocol(format!(
            "reply tagged stream {} while awaiting {}",
            frame.stream_id, self.stream_seq
        )))
    }

    fn poison(&mut self, err: ClientError) -> ClientError {
        self.poisoned = true;
        err
    }

    /// Issue one request and decode the typed response. Exposed so
    /// tooling can drive request kinds this client has no dedicated
    /// method for yet.
    ///
    /// Refuses requests whose reply is a frame *stream*
    /// ([`QueryRequest::Plan`] / [`QueryRequest::FetchCursor`] — use
    /// [`SirenClient::query`]): reading one frame of a multi-frame
    /// reply would silently desync the connection.
    pub fn call(&mut self, request: &QueryRequest) -> Result<QueryResponse, ClientError> {
        self.check_usable()?;
        if matches!(
            request,
            QueryRequest::Plan(_) | QueryRequest::FetchCursor { .. }
        ) {
            return Err(ClientError::Unsupported(
                "stream-reply requests must go through query()".into(),
            ));
        }
        self.send(request)?;
        match self.recv()? {
            QueryResponse::Error(err) => Err(ClientError::Server(err)),
            resp => Ok(resp),
        }
    }

    /// Daemon status (store shape, ingest-health and query-traffic
    /// counters).
    pub fn status(&mut self) -> Result<StatusInfo, ClientError> {
        match self.call(&QueryRequest::Status)? {
            QueryResponse::Status(status) => Ok(status),
            other => Err(unexpected("Status", &other)),
        }
    }

    /// Every committed record of `job_id`, across epochs, commit order:
    /// a job-filtered record plan, drained.
    pub fn by_job(&mut self, job_id: u64) -> Result<Vec<RecordRow>, ClientError> {
        let plan = QueryPlan::records().filter(Selection::all().job(job_id));
        let rows = self.query_complete(plan)?;
        Ok(rows.into_iter().filter_map(PlanRow::into_record).collect())
    }

    /// Library usage over `selection`.
    pub fn library_usage(
        &mut self,
        selection: Selection,
    ) -> Result<Vec<LibraryUsageRow>, ClientError> {
        match self.call(&QueryRequest::LibraryUsage { selection })? {
            QueryResponse::LibraryUsage(rows) => Ok(rows),
            other => Err(unexpected("LibraryUsage", &other)),
        }
    }

    /// Snapshot the daemon's metric tree: counters, gauges, latency
    /// histograms, and the slow-query ring.
    pub fn metrics(&mut self) -> Result<crate::MetricsSnapshot, ClientError> {
        match self.call(&QueryRequest::Metrics)? {
            QueryResponse::Metrics(snapshot) => Ok(snapshot),
            other => Err(unexpected("Metrics", &other)),
        }
    }

    /// Recent traces from the daemon's flight recorder, reassembled
    /// into trees and filtered by `filter`.
    pub fn traces(&mut self, filter: TraceFilter) -> Result<Vec<TraceTree>, ClientError> {
        match self.call(&QueryRequest::Traces(filter))? {
            QueryResponse::Traces(trees) => Ok(trees),
            other => Err(unexpected("Traces", &other)),
        }
    }

    /// Up to `k` fuzzy-hash nearest neighbors of `hash` scoring at
    /// least `min_score`, best first: a neighbor plan limited to `k`,
    /// drained.
    pub fn neighbors(
        &mut self,
        hash: &str,
        k: u32,
        min_score: u32,
    ) -> Result<Vec<NeighborRow>, ClientError> {
        let plan = QueryPlan::neighbors(hash, min_score).limit(k.into());
        let rows = self.query_complete(plan)?;
        Ok(rows
            .into_iter()
            .filter_map(PlanRow::into_neighbor)
            .collect())
    }

    /// Drain `plan`, refusing a partial answer: the sugar methods
    /// return bare rows with nowhere to carry a [`QueryWarning`], so a
    /// router's degradation notice becomes the typed error it stands
    /// for instead of a silently incomplete result.
    fn query_complete(&mut self, plan: QueryPlan) -> Result<Vec<PlanRow>, ClientError> {
        let (rows, warnings) = self.query(plan)?.collect_rows_warned()?;
        match warnings.into_iter().next() {
            None => Ok(rows),
            Some(warning) => Err(ClientError::Server(QueryError::Internal(
                warning.to_string(),
            ))),
        }
    }

    /// Open `plan`'s row stream. The server streams bounded batch
    /// frames and the returned [`RowStream`] reads them **on demand** —
    /// the first row is available after the first batch frame, long
    /// before a large answer finishes, and pages beyond the first are
    /// fetched through the server-side cursor only as the iterator is
    /// advanced. Dropping the stream early closes the cursor.
    pub fn query(&mut self, plan: QueryPlan) -> Result<RowStream<&mut Self>, ClientError> {
        RowStream::open(self, plan, None)
    }

    /// Like [`SirenClient::query`], but propagating `trace` as the
    /// request's trace context: every server-side span of the plan's
    /// execution — queue wait, execution, per-batch serialization, and
    /// later cursor fetches — lands under that trace id, retrievable
    /// through [`SirenClient::traces`].
    pub fn query_traced(
        &mut self,
        plan: QueryPlan,
        trace: TraceId,
    ) -> Result<RowStream<&mut Self>, ClientError> {
        RowStream::open(self, plan, Some(trace))
    }

    /// Subscribe to the daemon's committed epochs from `from_epoch`
    /// (replication). The returned [`EpochStream`] yields
    /// one fully verified epoch at a time — batch and epoch checksums
    /// checked, counts reconciled against the commit marker — and
    /// finally the `End` event naming the next epoch to subscribe
    /// from. `batch_rows` bounds records per frame (`0` = server
    /// default).
    pub fn subscribe_epochs(
        &mut self,
        from_epoch: u64,
        batch_rows: u32,
    ) -> Result<EpochStream<'_>, ClientError> {
        self.check_usable()?;
        self.send(&QueryRequest::SubscribeEpochs {
            from_epoch,
            batch_rows,
        })?;
        Ok(EpochStream {
            client: self,
            current: None,
            done: false,
            failed: false,
        })
    }
}

/// A lazy iterator over a plan's answer stream. Batch frames are read
/// from the socket (and follow-up pages fetched through the server-side
/// cursor) only as rows are consumed. The stream either borrows its
/// client (`RowStream<&mut SirenClient>`, from [`SirenClient::query`])
/// or owns it (`RowStream<SirenClient>`, from [`RowStream::open`]);
/// either way the connection is exclusive to it until it is finished
/// or dropped.
///
/// Dropping an unfinished stream drains the in-flight reply to the
/// frame boundary and closes the cursor, leaving the connection usable;
/// if draining fails the client is poisoned and refuses further calls.
#[derive(Debug)]
pub struct RowStream<C: BorrowMut<SirenClient>> {
    client: C,
    buffer: VecDeque<PlanRow>,
    /// Cursor parked on the server, once a `StreamEnd` carried one.
    cursor: Option<u64>,
    /// Frames of the current reply are still incoming.
    mid_reply: bool,
    done: bool,
    /// Degradation notices absorbed from the stream, in arrival order.
    warnings: Vec<QueryWarning>,
}

impl<C: BorrowMut<SirenClient>> RowStream<C> {
    /// Send `plan` (stamped with `trace`, if any) over `client` and
    /// return its row stream. Pass `&mut client` to keep the connection
    /// for later calls, or the client itself to hand the stream the
    /// connection for its whole life.
    pub fn open(
        mut client: C,
        plan: QueryPlan,
        trace: Option<TraceId>,
    ) -> Result<Self, ClientError> {
        let conn = client.borrow_mut();
        conn.check_usable()?;
        plan.validate().map_err(ClientError::Server)?;
        conn.send_traced(&QueryRequest::Plan(plan), trace)?;
        Ok(Self {
            client,
            buffer: VecDeque::new(),
            cursor: None,
            mid_reply: true,
            done: false,
            warnings: Vec::new(),
        })
    }

    /// Read frames until the buffer has rows, the reply ends, or the
    /// stream completes. Any error ends the stream; only a typed server
    /// error leaves the client usable.
    fn fill(&mut self) -> Result<(), ClientError> {
        let client = self.client.borrow_mut();
        while self.buffer.is_empty() && !self.done {
            if !self.mid_reply {
                let Some(cursor) = self.cursor.take() else {
                    self.done = true;
                    break;
                };
                self.mid_reply = true;
                if let Err(err) = client.send(&QueryRequest::FetchCursor { cursor }) {
                    self.done = true;
                    return Err(err);
                }
            }
            let response = match client.recv() {
                Ok(response) => response,
                Err(err) => {
                    self.done = true;
                    return Err(err);
                }
            };
            match response {
                QueryResponse::Batch(batch) => {
                    self.buffer.extend(batch.into_rows());
                }
                QueryResponse::StreamEnd { cursor } => {
                    self.mid_reply = false;
                    self.cursor = cursor;
                    self.done = cursor.is_none();
                }
                QueryResponse::Warning(warning) => {
                    // Non-fatal: record the degradation and keep
                    // reading — a StreamEnd still terminates the reply.
                    self.warnings.push(warning);
                }
                QueryResponse::Error(err) => {
                    // The error frame terminates the reply; the
                    // connection is back at a frame boundary.
                    self.mid_reply = false;
                    self.done = true;
                    return Err(ClientError::Server(err));
                }
                other => {
                    // Off-protocol frame mid-reply: re-entering on a
                    // desynced connection could misparse unrelated
                    // frames as rows of this plan.
                    self.done = true;
                    return Err(client.poison(unexpected("Batch or StreamEnd", &other)));
                }
            }
        }
        Ok(())
    }

    /// Drain the remaining rows into a vector.
    pub fn collect_rows(self) -> Result<Vec<PlanRow>, ClientError> {
        self.collect_rows_warned().map(|(rows, _)| rows)
    }

    /// Drain the remaining rows, also returning any degradation
    /// warnings the stream carried (a federation router marking shards
    /// it could not reach). An empty warning list means the rows are
    /// the complete answer.
    pub fn collect_rows_warned(mut self) -> Result<(Vec<PlanRow>, Vec<QueryWarning>), ClientError> {
        let mut rows = Vec::new();
        loop {
            self.fill()?;
            if self.buffer.is_empty() {
                return Ok((rows, std::mem::take(&mut self.warnings)));
            }
            rows.extend(self.buffer.drain(..));
        }
    }
}

impl<C: BorrowMut<SirenClient>> Iterator for RowStream<C> {
    type Item = Result<PlanRow, ClientError>;

    fn next(&mut self) -> Option<Self::Item> {
        if let Some(row) = self.buffer.pop_front() {
            return Some(Ok(row));
        }
        if let Err(err) = self.fill() {
            return Some(Err(err));
        }
        self.buffer.pop_front().map(Ok)
    }
}

impl<C: BorrowMut<SirenClient>> Drop for RowStream<C> {
    fn drop(&mut self) {
        let client = self.client.borrow_mut();
        // Resync the connection: finish reading the in-flight reply (it
        // is bounded by the server's page cap), then release the parked
        // cursor so the server frees its pinned snapshot promptly.
        // Generous bound: a reply is at most page_rows/batch "rows"
        // frames plus the terminator; a server violating that is
        // already off-protocol.
        for _ in 0..100_000 {
            if !self.mid_reply || client.poisoned {
                break;
            }
            match client.recv() {
                Ok(QueryResponse::Batch(_) | QueryResponse::Warning(_)) => continue,
                Ok(QueryResponse::StreamEnd { cursor }) => {
                    self.mid_reply = false;
                    self.cursor = cursor;
                }
                Ok(QueryResponse::Error(_)) => self.mid_reply = false,
                Ok(_) | Err(_) => client.poisoned = true,
            }
        }
        if self.mid_reply || client.poisoned {
            client.poisoned = true;
            return;
        }
        if let Some(cursor) = self.cursor.take() {
            let ok = client.send(&QueryRequest::CloseCursor { cursor }).is_ok()
                && matches!(
                    client.recv(),
                    Ok(QueryResponse::StreamEnd { cursor: None } | QueryResponse::Error(_))
                );
            if !ok {
                client.poisoned = true;
            }
        }
    }
}

/// One verified unit of a replication subscription's reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EpochStreamEvent {
    /// One complete epoch: every batch arrived, every checksum
    /// matched, and the record count reconciled with the commit
    /// marker. Safe to apply.
    Epoch {
        /// The epoch id on the leader (and, after apply, here).
        epoch: u64,
        /// The epoch's records in the leader's commit order.
        records: Vec<ProcessRecord>,
    },
    /// The subscription is exhausted: the leader had no further epochs
    /// in the snapshot it pinned at subscribe time.
    End {
        /// Epoch a follow-up subscription should start from.
        next_from: u64,
        /// Leader's sealed-store bytes at subscribe time.
        leader_bytes: u64,
    },
}

/// A lazy reader over a [`SirenClient::subscribe_epochs`] reply.
/// Frames are read from the socket only as events are consumed;
/// batches of the in-flight epoch are buffered until its commit marker
/// verifies, so a torn connection can never surface a partial epoch.
///
/// Dropping an unfinished stream drains the reply to its frame
/// boundary; if draining fails the client is poisoned and refuses
/// further calls.
#[derive(Debug)]
pub struct EpochStream<'c> {
    client: &'c mut SirenClient,
    /// The epoch currently accumulating: `(epoch, records, per-batch
    /// checksums in arrival order)`.
    current: Option<(u64, Vec<ProcessRecord>, Vec<u64>)>,
    done: bool,
    failed: bool,
}

impl EpochStream<'_> {
    /// Read until the next verified event. `None` after `End`.
    pub fn next_event(&mut self) -> Result<Option<EpochStreamEvent>, ClientError> {
        if self.done {
            return Ok(None);
        }
        loop {
            let resp = match self.client.recv() {
                Ok(resp) => resp,
                Err(err) => {
                    // Transport death mid-reply: the buffered partial
                    // epoch is discarded, never surfaced.
                    self.failed = true;
                    self.done = true;
                    return Err(err);
                }
            };
            match resp {
                QueryResponse::EpochBatch(batch) => {
                    let sum = batch.checksum();
                    match &mut self.current {
                        None => self.current = Some((batch.epoch, batch.records, vec![sum])),
                        Some((epoch, records, sums)) if *epoch == batch.epoch => {
                            records.extend(batch.records);
                            sums.push(sum);
                        }
                        Some((epoch, ..)) => {
                            let detail = format!(
                                "epoch {} batch interleaved into open epoch {}",
                                batch.epoch, epoch
                            );
                            return Err(self.fail(detail));
                        }
                    }
                }
                QueryResponse::EpochCommit {
                    epoch,
                    records,
                    checksum,
                } => {
                    let (got_epoch, got_records, sums) =
                        self.current
                            .take()
                            .unwrap_or((epoch, Vec::new(), Vec::new()));
                    if got_epoch != epoch {
                        return Err(self.fail(format!(
                            "commit marker for epoch {epoch} while epoch {got_epoch} was open"
                        )));
                    }
                    if got_records.len() as u64 != records {
                        return Err(self.fail(format!(
                            "epoch {epoch} shipped {} records, commit marker claims {records}",
                            got_records.len()
                        )));
                    }
                    if fold_epoch_checksum(&sums) != checksum {
                        return Err(self.fail(format!("epoch {epoch} checksum chain mismatch")));
                    }
                    return Ok(Some(EpochStreamEvent::Epoch {
                        epoch,
                        records: got_records,
                    }));
                }
                QueryResponse::SubscribeEnd {
                    next_from,
                    leader_bytes,
                } => {
                    if self.current.is_some() {
                        return Err(self.fail("subscription ended mid-epoch".into()));
                    }
                    self.done = true;
                    return Ok(Some(EpochStreamEvent::End {
                        next_from,
                        leader_bytes,
                    }));
                }
                QueryResponse::Error(err) => {
                    // A typed error terminates the reply on a frame
                    // boundary; the connection stays usable.
                    self.current = None;
                    self.done = true;
                    return Err(ClientError::Server(err));
                }
                other => {
                    self.failed = true;
                    self.done = true;
                    return Err(unexpected(
                        "EpochBatch, EpochCommit or SubscribeEnd",
                        &other,
                    ));
                }
            }
        }
    }

    /// Record an integrity violation: the bytes parsed but the
    /// replication invariants did not hold, so nothing further on this
    /// connection can be trusted.
    fn fail(&mut self, detail: String) -> ClientError {
        self.failed = true;
        self.done = true;
        ClientError::Protocol(detail)
    }
}

impl Drop for EpochStream<'_> {
    fn drop(&mut self) {
        if self.done && !self.failed {
            return;
        }
        if !self.failed {
            // Resync: the reply is bounded by the epochs the pinned
            // snapshot held at subscribe time.
            for _ in 0..1_000_000 {
                match self.client.recv() {
                    Ok(QueryResponse::EpochBatch(_) | QueryResponse::EpochCommit { .. }) => {
                        continue
                    }
                    Ok(QueryResponse::SubscribeEnd { .. } | QueryResponse::Error(_)) => {
                        self.done = true;
                        break;
                    }
                    _ => {
                        self.failed = true;
                        break;
                    }
                }
            }
        }
        if self.failed || !self.done {
            self.client.poisoned = true;
        }
    }
}

pub(crate) fn unexpected(wanted: &str, got: &QueryResponse) -> ClientError {
    let kind = match got {
        QueryResponse::Status(_) => "Status",
        QueryResponse::LibraryUsage(_) => "LibraryUsage",
        QueryResponse::Batch(_) => "Batch",
        QueryResponse::StreamEnd { .. } => "StreamEnd",
        QueryResponse::Metrics(_) => "Metrics",
        QueryResponse::Traces(_) => "Traces",
        QueryResponse::EpochBatch(_) => "EpochBatch",
        QueryResponse::EpochCommit { .. } => "EpochCommit",
        QueryResponse::SubscribeEnd { .. } => "SubscribeEnd",
        QueryResponse::Warning(_) => "Warning",
        QueryResponse::Error(_) => "Error",
    };
    ClientError::Protocol(format!("expected {wanted} response, got {kind}"))
}
