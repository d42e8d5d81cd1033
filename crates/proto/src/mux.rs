//! The multiplexed client: many interleaved cursor streams over one
//! TCP connection.
//!
//! [`MuxClient`] is a cheaply cloneable handle around one
//! connection (see [`SirenClient::into_mux`]). Each
//! [`MuxClient::query`] claims a fresh nonzero stream id, sends the
//! plan under it, and returns a [`MuxStream`] that owns that id for
//! its whole life — its `FetchCursor` continuations reuse the same id,
//! so every frame of every page comes back tagged for it. Reply frames
//! arriving for *other* ids while a stream reads are routed to their
//! owners' inboxes, which is the entire multiplexing trick: whichever
//! stream (or thread) happens to be reading drives the shared socket,
//! and everyone else's data is parked for them.
//!
//! Dropping a stream mid-reply drains it to its frame boundary and
//! closes its parked cursor, exactly like [`RowStream`]; if the
//! connection desyncs (an undecodable frame, an unknown stream id) the
//! whole handle is poisoned — every stream and call on it fails fast
//! rather than misparse.
//!
//! [`RowStream`]: crate::client::RowStream
//! [`SirenClient::into_mux`]: crate::client::SirenClient::into_mux

use crate::client::{unexpected, ClientError};
use crate::frame::{read_frame, write_frame};
use crate::message::{QueryRequest, QueryResponse, QueryWarning, StatusInfo};
use crate::plan::{PlanRow, QueryPlan};
use crate::stream::{decode_stream_frame, encode_stream_frame, CONNECTION_STREAM};
use siren_obs::TraceId;
use std::collections::{HashMap, HashSet, VecDeque};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, PoisonError};

/// Hard bound on frames drained while resolving one stream's drop or
/// close; a server violating it is already off-protocol.
const DRAIN_FRAME_BUDGET: usize = 100_000;

/// A shareable multiplexed connection to a SIREN server.
#[derive(Debug, Clone)]
pub struct MuxClient {
    inner: Arc<Mutex<MuxInner>>,
}

#[derive(Debug)]
struct MuxInner {
    stream: TcpStream,
    next_id: u32,
    accept_compressed: bool,
    /// Reply frames routed to streams not currently reading.
    inboxes: HashMap<u32, VecDeque<QueryResponse>>,
    /// Streams dropped mid-reply: frames are discarded until their
    /// terminator, and any cursor the terminator parks is auto-closed.
    orphans: HashSet<u32>,
    poisoned: bool,
}

impl MuxInner {
    fn check_usable(&self) -> Result<(), ClientError> {
        if self.poisoned {
            return Err(ClientError::Protocol(
                "multiplexed connection desynced; reconnect".into(),
            ));
        }
        Ok(())
    }

    fn alloc_id(&mut self) -> u32 {
        loop {
            self.next_id = self.next_id.wrapping_add(1);
            let id = self.next_id;
            if id != CONNECTION_STREAM
                && !self.inboxes.contains_key(&id)
                && !self.orphans.contains(&id)
            {
                return id;
            }
        }
    }

    fn send(
        &mut self,
        stream_id: u32,
        request: &QueryRequest,
        trace: Option<TraceId>,
    ) -> Result<(), ClientError> {
        self.check_usable()?;
        let body = request.encode_traced(trace);
        let envelope = encode_stream_frame(stream_id, &body, self.accept_compressed, None);
        if let Err(e) = write_frame(&mut self.stream, &envelope) {
            self.poisoned = true;
            return Err(e.into());
        }
        Ok(())
    }

    /// Read one frame off the socket. Returns the response if it was
    /// for `me`, `None` if it was routed (or discarded) elsewhere.
    /// Frames for unknown streams, undecodable frames, and
    /// connection-level (`stream 0`) errors poison the connection.
    fn read_one(&mut self, me: u32) -> Result<Option<QueryResponse>, ClientError> {
        self.check_usable()?;
        let payload = match read_frame(&mut self.stream) {
            Ok(p) => p,
            Err(e) => {
                self.poisoned = true;
                return Err(e.into());
            }
        };
        let frame = match decode_stream_frame(&payload) {
            Ok(f) => f,
            Err(err) => {
                self.poisoned = true;
                return Err(ClientError::Protocol(format!("bad stream envelope: {err}")));
            }
        };
        let response = match QueryResponse::decode(&frame.body) {
            Ok(r) => r,
            Err(err) => {
                self.poisoned = true;
                return Err(ClientError::Protocol(format!(
                    "undecodable response: {err}"
                )));
            }
        };
        if frame.stream_id == me {
            return Ok(Some(response));
        }
        if frame.stream_id == CONNECTION_STREAM {
            // Connection-scoped error (deadline, unreadable envelope):
            // the server closes after this; nothing here is recoverable.
            self.poisoned = true;
            return Err(match response {
                QueryResponse::Error(err) => ClientError::Server(err),
                other => unexpected("connection-level Error", &other),
            });
        }
        if self.orphans.contains(&frame.stream_id) {
            self.resolve_orphan(frame.stream_id, response)?;
            return Ok(None);
        }
        match self.inboxes.get_mut(&frame.stream_id) {
            Some(inbox) => {
                inbox.push_back(response);
                Ok(None)
            }
            None => {
                self.poisoned = true;
                Err(ClientError::Protocol(format!(
                    "reply for unknown stream {}",
                    frame.stream_id
                )))
            }
        }
    }

    /// Advance an orphaned stream: drop its batches, and when its
    /// terminator arrives close any cursor it parked (under a fresh
    /// orphan id, so that close's own ack is discarded the same way).
    fn resolve_orphan(&mut self, id: u32, response: QueryResponse) -> Result<(), ClientError> {
        match response {
            QueryResponse::Batch(_) | QueryResponse::Warning(_) => Ok(()),
            QueryResponse::StreamEnd {
                cursor: Some(cursor),
            } => {
                self.orphans.remove(&id);
                let close_id = self.alloc_id();
                self.orphans.insert(close_id);
                self.send(close_id, &QueryRequest::CloseCursor { cursor }, None)
            }
            QueryResponse::StreamEnd { cursor: None } | QueryResponse::Error(_) => {
                self.orphans.remove(&id);
                Ok(())
            }
            other => {
                self.poisoned = true;
                Err(unexpected("Batch or StreamEnd", &other))
            }
        }
    }

    fn pop_inbox(&mut self, id: u32) -> Option<QueryResponse> {
        self.inboxes.get_mut(&id)?.pop_front()
    }
}

impl MuxClient {
    /// Assemble from an already-negotiated socket (used by
    /// [`SirenClient::into_mux`]).
    ///
    /// [`SirenClient::into_mux`]: crate::client::SirenClient::into_mux
    pub(crate) fn from_parts(
        stream: TcpStream,
        next_id: u32,
        accept_compressed: bool,
    ) -> MuxClient {
        MuxClient {
            inner: Arc::new(Mutex::new(MuxInner {
                stream,
                next_id,
                accept_compressed,
                inboxes: HashMap::new(),
                orphans: HashSet::new(),
                poisoned: false,
            })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MuxInner> {
        // The vendored workspace style: panics while holding the lock
        // don't poison it for other streams.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Advertise (or stop advertising) on subsequent requests that
    /// reply bodies may arrive compressed.
    pub fn set_accept_compressed(&self, accept: bool) {
        self.lock().accept_compressed = accept;
    }

    /// Open `plan` as a multiplexed row stream with its own stream id.
    /// Any number of streams from clones of this handle can be drained
    /// concurrently or interleaved from one thread.
    pub fn query(&self, plan: QueryPlan) -> Result<MuxStream, ClientError> {
        self.query_inner(plan, None)
    }

    /// Like [`MuxClient::query`] with a trace context stamped on the
    /// plan, as [`query_traced`] does for the sequential client.
    ///
    /// [`query_traced`]: crate::client::SirenClient::query_traced
    pub fn query_traced(&self, plan: QueryPlan, trace: TraceId) -> Result<MuxStream, ClientError> {
        self.query_inner(plan, Some(trace))
    }

    fn query_inner(
        &self,
        plan: QueryPlan,
        trace: Option<TraceId>,
    ) -> Result<MuxStream, ClientError> {
        plan.validate().map_err(ClientError::Server)?;
        let mut inner = self.lock();
        inner.check_usable()?;
        let id = inner.alloc_id();
        inner.inboxes.insert(id, VecDeque::new());
        if let Err(e) = inner.send(id, &QueryRequest::Plan(plan), trace) {
            inner.inboxes.remove(&id);
            return Err(e);
        }
        drop(inner);
        Ok(MuxStream {
            client: self.clone(),
            id,
            buffer: VecDeque::new(),
            cursor: None,
            mid_reply: true,
            done: false,
            failed: false,
            warnings: Vec::new(),
        })
    }

    /// Issue a single-frame request/response exchange under its own
    /// stream id, interleaving with any in-flight streams.
    pub fn call(&self, request: &QueryRequest) -> Result<QueryResponse, ClientError> {
        match request {
            QueryRequest::Plan(_) | QueryRequest::FetchCursor { .. } => {
                return Err(ClientError::Unsupported(
                    "stream-reply requests must go through query()".into(),
                ));
            }
            _ => {}
        }
        let mut inner = self.lock();
        let id = inner.alloc_id();
        inner.inboxes.insert(id, VecDeque::new());
        if let Err(e) = inner.send(id, request, None) {
            inner.inboxes.remove(&id);
            return Err(e);
        }
        let result = loop {
            if let Some(response) = inner.pop_inbox(id) {
                break Ok(response);
            }
            match inner.read_one(id) {
                Ok(Some(response)) => break Ok(response),
                Ok(None) => continue,
                Err(e) => break Err(e),
            }
        };
        inner.inboxes.remove(&id);
        match result? {
            QueryResponse::Error(err) => Err(ClientError::Server(err)),
            response => Ok(response),
        }
    }

    /// Daemon status over the multiplexed connection.
    pub fn status(&self) -> Result<StatusInfo, ClientError> {
        match self.call(&QueryRequest::Status)? {
            QueryResponse::Status(status) => Ok(status),
            other => Err(unexpected("Status", &other)),
        }
    }
}

/// One multiplexed plan stream; see [`MuxClient::query`]. Iterates
/// rows exactly like [`RowStream`], but many of these can be alive on
/// the same connection, advancing in any order.
///
/// [`RowStream`]: crate::client::RowStream
#[derive(Debug)]
pub struct MuxStream {
    client: MuxClient,
    id: u32,
    buffer: VecDeque<PlanRow>,
    cursor: Option<u64>,
    mid_reply: bool,
    done: bool,
    failed: bool,
    /// Degradation notices absorbed from the stream, in arrival order.
    warnings: Vec<QueryWarning>,
}

impl MuxStream {
    /// The stream id tagging this exchange's frames on the wire.
    pub fn stream_id(&self) -> u32 {
        self.id
    }

    fn absorb(&mut self, response: QueryResponse) -> Result<(), ClientError> {
        match response {
            QueryResponse::Batch(batch) => {
                self.buffer.extend(batch.into_rows());
                Ok(())
            }
            QueryResponse::StreamEnd { cursor } => {
                self.mid_reply = false;
                self.cursor = cursor;
                if cursor.is_none() {
                    self.done = true;
                }
                Ok(())
            }
            QueryResponse::Warning(warning) => {
                // Non-fatal degradation notice; the reply continues to
                // its StreamEnd.
                self.warnings.push(warning);
                Ok(())
            }
            QueryResponse::Error(err) => {
                // Terminates this stream's reply at a frame boundary;
                // the shared connection stays healthy.
                self.mid_reply = false;
                self.done = true;
                Err(ClientError::Server(err))
            }
            other => {
                self.failed = true;
                self.done = true;
                Err(unexpected("Batch or StreamEnd", &other))
            }
        }
    }

    /// Read (and route) frames until this stream has rows or ends.
    fn fill(&mut self) -> Result<(), ClientError> {
        while self.buffer.is_empty() && !self.done {
            let mut inner = self.client.lock();
            while let Some(response) = inner.pop_inbox(self.id) {
                drop(inner);
                self.absorb(response)?;
                if !self.buffer.is_empty() || self.done {
                    return Ok(());
                }
                inner = self.client.lock();
            }
            if !self.mid_reply {
                match self.cursor.take() {
                    Some(cursor) => {
                        inner.send(self.id, &QueryRequest::FetchCursor { cursor }, None)?;
                        self.mid_reply = true;
                    }
                    None => {
                        self.done = true;
                        return Ok(());
                    }
                }
            }
            match inner.read_one(self.id) {
                Ok(Some(response)) => {
                    drop(inner);
                    self.absorb(response)?;
                }
                Ok(None) => {}
                Err(e) => {
                    self.failed = true;
                    self.done = true;
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Drain the remaining rows into a vector.
    pub fn collect_rows(mut self) -> Result<Vec<PlanRow>, ClientError> {
        let mut rows = Vec::new();
        loop {
            self.fill()?;
            if self.buffer.is_empty() {
                return Ok(rows);
            }
            rows.extend(self.buffer.drain(..));
        }
    }

    /// Drain the remaining rows, also returning any degradation
    /// warnings the stream carried. An empty warning list means the
    /// rows are the complete answer.
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

    /// Degradation warnings absorbed so far (complete once the stream
    /// is done).
    pub fn warnings(&self) -> &[QueryWarning] {
        &self.warnings
    }

    /// True once every row has been yielded.
    pub fn is_done(&self) -> bool {
        self.done && self.buffer.is_empty()
    }
}

impl Iterator for MuxStream {
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

impl Drop for MuxStream {
    fn drop(&mut self) {
        let mut inner = self.client.lock();
        if inner.poisoned {
            inner.inboxes.remove(&self.id);
            return;
        }
        // Drain the in-flight reply to its boundary (absorbing already-
        // routed frames first), then close any parked cursor — same
        // hygiene as RowStream, but under the shared lock.
        let mut budget = DRAIN_FRAME_BUDGET;
        while self.mid_reply && !self.failed && budget > 0 {
            budget -= 1;
            let response = match inner.pop_inbox(self.id) {
                Some(r) => Some(r),
                None => match inner.read_one(self.id) {
                    Ok(r) => r,
                    Err(_) => break,
                },
            };
            match response {
                Some(QueryResponse::Batch(_) | QueryResponse::Warning(_)) | None => {}
                Some(QueryResponse::StreamEnd { cursor }) => {
                    self.mid_reply = false;
                    self.cursor = cursor;
                }
                Some(QueryResponse::Error(_)) => {
                    self.mid_reply = false;
                    self.cursor = None;
                }
                Some(_) => {
                    self.failed = true;
                }
            }
        }
        inner.inboxes.remove(&self.id);
        if self.failed || inner.poisoned {
            inner.poisoned = true;
            return;
        }
        if self.mid_reply {
            // Could not reach the boundary in budget: hand the tail to
            // the orphan router instead of stalling the caller.
            inner.orphans.insert(self.id);
            return;
        }
        if let Some(cursor) = self.cursor.take() {
            if inner
                .send(self.id, &QueryRequest::CloseCursor { cursor }, None)
                .is_err()
            {
                return;
            }
            let mut budget = DRAIN_FRAME_BUDGET;
            loop {
                if budget == 0 {
                    inner.poisoned = true;
                    break;
                }
                budget -= 1;
                match inner.read_one(self.id) {
                    Ok(Some(
                        QueryResponse::StreamEnd { cursor: None } | QueryResponse::Error(_),
                    )) => break,
                    Ok(Some(_)) => {
                        inner.poisoned = true;
                        break;
                    }
                    Ok(None) => continue,
                    Err(_) => break,
                }
            }
        }
    }
}
