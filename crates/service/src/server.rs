//! The TCP query server embedded in [`SirenDaemon`](crate::SirenDaemon)
//! — an event-driven reactor serving tier.
//!
//! [`QUERY_WORKERS`] event-loop threads each own a
//! [`siren_reactor::Poller`] and a slab of non-blocking framed
//! connections ([`FramedConn`]); loop 0 additionally owns the
//! non-blocking listener and dispatches accepted sockets round-robin
//! over bounded per-loop channels (full channel ⇒ the connection is
//! refused, never buffered without bound). Thousands of concurrent
//! connections per core are served this way: a loop sleeps in
//! `poller.wait` until a socket turns readable/writable, a timer
//! expires, or a peer loop hands it a new connection.
//!
//! A connection opens with the hello exchange (accepted iff the offered
//! range contains protocol version 3; refused with a plain typed error
//! frame and a close otherwise). Every later frame is a stream envelope
//! (see [`siren_proto::stream`]): requests are processed as they
//! arrive, each reply is tagged with its request's stream id, and
//! concurrent replies on one connection round-robin batch production.
//! Reply bodies of at least `DEFAULT_COMPRESS_MIN_BYTES` are
//! LZ-compressed for requests that advertised acceptance.
//!
//! Request execution is synchronous on the owning loop (plans are
//! CPU-bound), but reply *transmission* is fully asynchronous: each
//! streaming reply is a [`ReplyStream`] state machine that produces one
//! serialized batch at a time into the connection's outbound buffer,
//! only while that buffer sits under a watermark.
//!
//! Cursor pages are **prefetched**: when a streaming reply parks its
//! cursor, the next page's batches are precomputed and parked with it
//! ([`CursorTable::park`]), so the following `FetchCursor` — often the
//! very next frame on the wire — is answered from already-serialized
//! bytes.
//!
//! Idle and write-stalled connections are bounded by a timer wheel:
//! one lazily-rescheduled deadline per connection, checked against the
//! socket's true last-progress instant when it fires, so per-frame
//! timer churn is avoided. Hostile input: length prefixes are
//! bounds-checked before any payload is buffered, framing or envelope
//! corruption draws a best-effort typed error and a close, and an
//! unknown (or reserved) request tag inside an intact frame draws
//! [`QueryError::UnknownRequest`] with the connection kept.

use crate::daemon::{ServiceConfig, SharedState};
use crate::metrics::ServiceMetrics;
use crate::plan::{CursorTable, PlanCursor, BATCH_BYTE_BUDGET};
use crate::replicate::{EpochFrame, EpochShipper};
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use siren_analysis::library_usage;
use siren_obs::{SlowQueryEntry, Span};
use siren_proto::{
    decode_hello, decode_stream_frame, encode_hello_ack, encode_stream_frame, negotiate,
    QueryError, QueryRequest, QueryResponse, CONNECTION_STREAM, DEFAULT_COMPRESS_MIN_BYTES,
    MAX_FRAME_PAYLOAD, PROTOCOL_VERSION, STREAM_FLAG_COMPRESSED, STREAM_HEADER_LEN,
};
use siren_reactor::{Event, FrameParseError, FramedConn, Interest, Poller, Slab, TimerWheel};
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Event-loop threads in the query server's reactor; each serves many
/// connections through readiness-driven non-blocking I/O. Four is the
/// count every test and benchmark has measured; sizing it from the
/// hardware is an open question, not a setting.
const QUERY_WORKERS: usize = 4;

/// Poller key of loop 0's listener.
const LISTENER_KEY: usize = 0;
/// Poller keys of connections start here (slab key + base).
const KEY_BASE: usize = 1;

/// Stop producing batches into a connection whose outbound buffer
/// already holds this much; production resumes as the socket drains.
const OUT_WATERMARK: usize = 256 * 1024;
/// Stop *reading* from a connection whose outbound buffer is this far
/// behind — inbound pipelining must not grow without bound while the
/// peer refuses to take answers.
const IN_GATE: usize = 1024 * 1024;
/// Parsed-but-unprocessed request frames allowed per connection before
/// reading is gated (frames park here while the outbound buffer is
/// past [`IN_GATE`]).
const MAX_PENDING_REQUESTS: usize = 128;
/// Largest reply body that still fits one wire frame once the stream
/// envelope header is added.
const BODY_CAP: usize = MAX_FRAME_PAYLOAD as usize - STREAM_HEADER_LEN;

/// Fill a `Status` answer's query-traffic counters from the registry
/// handles — the ONE place these fields are written, used by both the
/// wire Status arm and the in-process `SirenDaemon::status`, so the
/// two can never diverge.
pub(crate) fn fill_traffic_counters(
    metrics: &ServiceMetrics,
    cursors: &CursorTable,
    status: &mut siren_proto::StatusInfo,
) {
    status.queries_refused = metrics.connections_refused.get();
    status.open_cursors = cursors.open_count();
    let connections = metrics.negotiated_v3.get();
    status.version_connections = if connections > 0 {
        vec![(PROTOCOL_VERSION, connections)]
    } else {
        Vec::new()
    };
    // Replication posture (zeros on a daemon that neither
    // follows nor was ever followed). The gauges are written by the
    // replicator thread, so a follower's embedded server reports its
    // own lag without touching the replication loop.
    status.repl_high_water = metrics.repl_high_water.get().max(0) as u64;
    status.repl_lag_epochs = metrics.repl_lag_epochs.get().max(0) as u64;
    status.repl_lag_bytes = metrics.repl_lag_bytes.get().max(0) as u64;
    status.repl_reconnects = metrics.repl_reconnects.get();
}

/// The embedded TCP query server. Dropping it wakes every event loop,
/// drops their connections, and joins the threads.
#[derive(Debug)]
pub(crate) struct QueryServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    pollers: Vec<Arc<Poller>>,
    loops: Vec<std::thread::JoinHandle<()>>,
    metrics: ServiceMetrics,
    cursors: Arc<CursorTable>,
}

impl QueryServer {
    /// Bind `addr` and start [`QUERY_WORKERS`] event loops; loop 0
    /// owns the listener. The cursor table is bounded by
    /// `cfg.cursor_ttl` / `cfg.query_max_cursors`, and all traffic
    /// telemetry is recorded into `metrics`.
    pub(crate) fn spawn(
        addr: SocketAddr,
        shared: Arc<SharedState>,
        cfg: &ServiceConfig,
        metrics: ServiceMetrics,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let cursors = Arc::new(CursorTable::new(
            cfg.cursor_ttl,
            cfg.query_max_cursors,
            metrics.clone(),
        ));

        let loops = QUERY_WORKERS;
        // The backlog bound is split across loops: the total number of
        // accepted-but-unregistered connections stays `query_backlog`.
        let per_loop = (cfg.query_backlog.max(1) / loops).max(1);
        let mut pollers = Vec::with_capacity(loops);
        let mut senders: Vec<Sender<Handoff>> = Vec::with_capacity(loops);
        let mut receivers: Vec<Receiver<Handoff>> = Vec::with_capacity(loops);
        for _ in 0..loops {
            pollers.push(Arc::new(Poller::new()?));
            let (tx, rx) = bounded(per_loop);
            senders.push(tx);
            receivers.push(rx);
        }

        let mut handles = Vec::with_capacity(loops);
        // Loop 0 takes the bound listener itself — no fallible
        // `try_clone` on the spawn path.
        let mut listener = Some(listener);
        for (i, rx) in receivers.into_iter().enumerate() {
            let ctx = EventLoop {
                poller: Arc::clone(&pollers[i]),
                incoming: rx,
                listener: listener.take().map(|l| {
                    let peers: Vec<Dispatch> = (0..loops)
                        .map(|j| Dispatch {
                            tx: senders[j].clone(),
                            poller: Arc::clone(&pollers[j]),
                        })
                        .collect();
                    (l, peers)
                }),
                shared: Arc::clone(&shared),
                metrics: metrics.clone(),
                cursors: Arc::clone(&cursors),
                stop: Arc::clone(&stop),
                deadline: cfg.query_deadline,
                slow_threshold: cfg.slow_query_threshold,
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("siren-query-loop-{i}"))
                    .spawn(move || ctx.run())?,
            );
        }

        Ok(Self {
            local_addr,
            stop,
            pollers,
            loops: handles,
            metrics,
            cursors,
        })
    }

    /// The address clients should connect to.
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Requests answered so far (including error answers) — the
    /// `query.requests` counter.
    pub(crate) fn requests_served(&self) -> u64 {
        self.metrics.requests.get()
    }

    /// Connections accepted into an event loop so far.
    pub(crate) fn connections_accepted(&self) -> u64 {
        self.metrics.connections_accepted.get()
    }

    /// Connections refused (registration backlog full) so far — the
    /// back-pressure signal an operator needs when clients report
    /// drops.
    pub(crate) fn connections_refused(&self) -> u64 {
        self.metrics.connections_refused.get()
    }

    /// Cursors currently parked between pages.
    pub(crate) fn open_cursors(&self) -> u64 {
        self.cursors.open_count()
    }

    /// Fill `status`'s query-traffic counters exactly as a wire
    /// `Status` answer would carry them.
    pub(crate) fn fill_traffic_counters(&self, status: &mut siren_proto::StatusInfo) {
        fill_traffic_counters(&self.metrics, &self.cursors, status);
    }
}

impl Drop for QueryServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for poller in &self.pollers {
            let _ = poller.notify();
        }
        for h in self.loops.drain(..) {
            let _ = h.join();
        }
    }
}

/// An accepted connection handed from the listener loop to the event
/// loop that will own it, stamped with its accept time so the idle
/// deadline covers queue wait.
type Handoff = (TcpStream, Instant);

/// A peer loop's registration channel plus the poller to wake after a
/// send.
struct Dispatch {
    tx: Sender<Handoff>,
    poller: Arc<Poller>,
}

/// Connection lifecycle phase.
enum Phase {
    /// Awaiting the hello frame.
    Handshake,
    /// Hello acknowledged; serving enveloped requests.
    Active,
}

/// One streaming reply (a `Plan` or `FetchCursor` answer) being
/// produced incrementally into the connection's outbound buffer.
struct ReplyStream {
    /// Stream id of the request this reply answers.
    stream_id: u32,
    /// The request advertised acceptance of compressed reply bodies.
    accept_compressed: bool,
    /// Already-serialized batches (the prefetched page) served first.
    prefetched: VecDeque<(Vec<u8>, u32)>,
    cursor: Option<PlanCursor>,
    /// Present on `SubscribeEpochs` replies: the reply is an epoch
    /// stream produced by the shipper instead of a row stream.
    shipper: Option<EpochShipper>,
    sent_rows: usize,
    page_rows: usize,
    batch_rows: usize,
    fingerprint: u64,
    shape: String,
    trace_id: u64,
    exec_start: Instant,
    /// Execution span; batch serialize spans parent to it. `root` is
    /// present on `Plan` replies (finished after `exec`).
    exec: Option<Span>,
    root: Option<Span>,
}

/// One registered connection.
struct Conn {
    io: FramedConn,
    phase: Phase,
    /// Parsed request frames awaiting processing.
    pending: VecDeque<Vec<u8>>,
    /// Streaming replies in flight (round-robin production).
    replies: VecDeque<ReplyStream>,
    /// Queue wait measured accept→registration, adopted as a child
    /// span by the first traced request on the connection.
    queue_wait: Option<(Instant, Duration)>,
    /// Close once the outbound buffer drains.
    closing: bool,
    interest: Interest,
    timer: Option<siren_reactor::TimerId>,
    /// This connection's slab key (poller key minus [`KEY_BASE`]).
    key: usize,
}

/// What a connection-level step decided.
enum Verdict {
    Keep,
    Drop,
}

struct EventLoop {
    poller: Arc<Poller>,
    incoming: Receiver<Handoff>,
    /// Loop 0 only: the shared listener plus every loop's dispatch
    /// handle (index-aligned, self included).
    listener: Option<(TcpListener, Vec<Dispatch>)>,
    shared: Arc<SharedState>,
    metrics: ServiceMetrics,
    cursors: Arc<CursorTable>,
    stop: Arc<AtomicBool>,
    deadline: Duration,
    slow_threshold: Duration,
}

impl EventLoop {
    fn run(self) {
        let mut conns: Slab<Conn> = Slab::new();
        let mut timers = TimerWheel::new(Instant::now(), Duration::from_millis(50), 512);
        let mut events: Vec<Event> = Vec::new();
        let mut next_loop = 0usize;

        if let Some((listener, _)) = &self.listener {
            if self
                .poller
                .add(listener.as_raw_fd(), LISTENER_KEY, Interest::READ)
                .is_err()
            {
                return;
            }
        }

        loop {
            if self.stop.load(Ordering::Relaxed) {
                break;
            }
            let timeout = timers
                .next_deadline()
                .map(|d| d.saturating_duration_since(Instant::now()));
            events.clear();
            if self.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            self.metrics.reactor_wakeups.inc();
            if self.stop.load(Ordering::Relaxed) {
                break;
            }

            let mut accept_burst = false;
            let mut touched: Vec<usize> = Vec::new();
            for ev in &events {
                if ev.key == LISTENER_KEY {
                    accept_burst = true;
                } else if ev.key >= KEY_BASE {
                    touched.push(ev.key - KEY_BASE);
                }
            }

            if accept_burst {
                self.accept_ready(&mut next_loop);
            }
            // Connections dispatched to this loop (by loop 0, possibly
            // ourselves) register here.
            while let Ok((stream, queued_at)) = self.incoming.try_recv() {
                self.register(stream, queued_at, &mut conns, &mut timers);
            }

            for key in touched {
                let verdict = match conns.get_mut(key) {
                    Some(conn) => self.drive(conn, &mut timers),
                    None => continue,
                };
                if matches!(verdict, Verdict::Drop) {
                    self.deregister(key, &mut conns, &mut timers);
                }
            }

            let mut fired: Vec<usize> = Vec::new();
            timers.advance(Instant::now(), &mut fired);
            for key in fired {
                let Some(conn) = conns.get_mut(key) else {
                    continue;
                };
                conn.timer = None;
                let idle = conn.io.last_progress().elapsed();
                if idle < self.deadline {
                    // Progress happened since the timer was scheduled:
                    // reschedule lazily instead of churning a timer per
                    // frame.
                    conn.timer =
                        Some(timers.schedule(conn.io.last_progress() + self.deadline, key));
                    continue;
                }
                if conn.io.wants_write() || !conn.replies.is_empty() {
                    // Write-stalled consumer: nothing to say that it
                    // would read; close.
                    self.deregister(key, &mut conns, &mut timers);
                } else {
                    // Idle between requests (or never finished the
                    // hello): a typed deadline error, then close after
                    // flush.
                    match conn.phase {
                        Phase::Active => {
                            self.queue_error(conn, CONNECTION_STREAM, false, QueryError::Deadline)
                        }
                        Phase::Handshake => queue_plain_error(conn, QueryError::Deadline),
                    }
                    conn.closing = true;
                    match self.finish_io(conn) {
                        Verdict::Drop => self.deregister(key, &mut conns, &mut timers),
                        Verdict::Keep => {
                            // Still flushing the error: bound that too,
                            // or a never-reading peer pins the slot.
                            if let Some(conn) = conns.get_mut(key) {
                                conn.timer =
                                    Some(timers.schedule(Instant::now() + self.deadline, key));
                            }
                        }
                    }
                }
            }
        }

        // Shutdown: every connection (and, on loop 0, the listener)
        // drops here, closing the sockets.
        for key in conns.keys() {
            self.deregister(key, &mut conns, &mut timers);
        }
        if let Some((listener, _)) = &self.listener {
            let _ = self.poller.delete(listener.as_raw_fd());
        }
    }

    /// Accept everything currently pending and dispatch round-robin.
    fn accept_ready(&self, next_loop: &mut usize) {
        let Some((listener, peers)) = &self.listener else {
            return;
        };
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let target = *next_loop % peers.len();
                    *next_loop = next_loop.wrapping_add(1);
                    match peers[target].tx.try_send((stream, Instant::now())) {
                        Ok(()) => {
                            self.metrics.connections_accepted.inc();
                            let _ = peers[target].poller.notify();
                        }
                        // Target loop's registration queue is full:
                        // refuse by dropping (closes the socket).
                        Err(TrySendError::Full(refused)) => {
                            drop(refused);
                            self.metrics.connections_refused.inc();
                        }
                        Err(TrySendError::Disconnected(_)) => return,
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                // Transient accept failures (ECONNABORTED, EMFILE under
                // fd pressure) must not take the query API down; the
                // listener stays registered and we retry on the next
                // readiness event.
                Err(_) => break,
            }
        }
    }

    fn register(
        &self,
        stream: TcpStream,
        queued_at: Instant,
        conns: &mut Slab<Conn>,
        timers: &mut TimerWheel,
    ) {
        let _ = stream.set_nodelay(true);
        let Ok(io) = FramedConn::new(stream) else {
            return;
        };
        let wait = queued_at.elapsed();
        self.metrics.queue_wait_ns.record_duration(wait);
        let fd = io.stream().as_raw_fd();
        let conn = Conn {
            io,
            phase: Phase::Handshake,
            pending: VecDeque::new(),
            replies: VecDeque::new(),
            queue_wait: Some((queued_at, wait)),
            closing: false,
            interest: Interest::READ,
            timer: None,
            key: 0,
        };
        let key = conns.insert(conn);
        if self.poller.add(fd, KEY_BASE + key, Interest::READ).is_err() {
            conns.remove(key);
            return;
        }
        if let Some(conn) = conns.get_mut(key) {
            conn.key = key;
            conn.timer = Some(timers.schedule(Instant::now() + self.deadline, key));
        }
        self.metrics.active_connections.inc();
    }

    fn deregister(&self, key: usize, conns: &mut Slab<Conn>, timers: &mut TimerWheel) {
        let Some(conn) = conns.remove(key) else {
            return;
        };
        let _ = self.poller.delete(conn.io.stream().as_raw_fd());
        if let Some(timer) = conn.timer {
            timers.cancel(timer);
        }
        self.metrics.active_connections.dec();
        // `conn` drops here: socket closed, in-flight reply spans
        // recorded as they stand (same as the blocking server dying
        // mid-stream).
    }

    /// One full service step for a connection with I/O readiness:
    /// read, parse, process, produce, flush, and re-arm interest.
    fn drive(&self, conn: &mut Conn, timers: &mut TimerWheel) -> Verdict {
        // Read unless gated by outbound backlog or a parked pipeline.
        let gated = conn.io.pending_output() > IN_GATE
            || conn.pending.len() > MAX_PENDING_REQUESTS
            || conn.closing;
        if !gated && conn.io.fill().is_err() {
            return Verdict::Drop;
        }
        if !conn.closing {
            if let Verdict::Drop = self.parse_frames(conn) {
                return Verdict::Drop;
            }
        }
        let _ = timers;
        self.finish_io(conn)
    }

    /// Process pipelined requests, produce replies, flush, update
    /// interest, and decide whether the connection survives. Loops
    /// until no further progress is possible without new readiness: a
    /// flush can unblock batch production and gated requests.
    fn finish_io(&self, conn: &mut Conn) -> Verdict {
        loop {
            if !conn.closing {
                if let Verdict::Drop = self.process_pending(conn) {
                    return Verdict::Drop;
                }
            }
            self.pump_replies(conn);
            if conn.io.flush().is_err() {
                return Verdict::Drop;
            }
            let can_produce = !conn.replies.is_empty() && conn.io.pending_output() < OUT_WATERMARK;
            let can_process = !conn.closing
                && !conn.pending.is_empty()
                && conn.io.pending_output() <= IN_GATE
                && matches!(conn.phase, Phase::Active);
            if !can_produce && !can_process {
                break;
            }
        }
        if conn.closing && !conn.io.wants_write() {
            return Verdict::Drop;
        }
        if conn.io.is_eof()
            && conn.pending.is_empty()
            && conn.replies.is_empty()
            && !conn.io.wants_write()
        {
            return Verdict::Drop;
        }
        let gated = conn.io.pending_output() > IN_GATE
            || conn.pending.len() > MAX_PENDING_REQUESTS
            || conn.closing;
        let want = if conn.io.wants_write() {
            if gated {
                Interest::WRITE
            } else {
                Interest::BOTH
            }
        } else if gated {
            // Nothing to write and reading gated: stay write-armed so
            // the next drain re-triggers production.
            Interest::WRITE
        } else {
            Interest::READ
        };
        if want != conn.interest {
            if self
                .poller
                .modify(conn.io.stream().as_raw_fd(), KEY_BASE + conn.key, want)
                .is_err()
            {
                return Verdict::Drop;
            }
            conn.interest = want;
        }
        Verdict::Keep
    }

    /// Parse complete frames out of the inbound buffer: complete the
    /// hello exchange, then park request frames in the pipeline for
    /// [`EventLoop::process_pending`].
    fn parse_frames(&self, conn: &mut Conn) -> Verdict {
        loop {
            match conn.phase {
                Phase::Handshake => match conn.io.next_frame(MAX_FRAME_PAYLOAD) {
                    Ok(Some(payload)) => match decode_hello(&payload) {
                        Some((client_min, client_max)) => match negotiate(client_min, client_max) {
                            Ok(version) => {
                                conn.io.queue_payload(&encode_hello_ack(version));
                                self.metrics.negotiated_v3.inc();
                                conn.phase = Phase::Active;
                            }
                            Err(err) => {
                                queue_plain_error(conn, err);
                                conn.closing = true;
                                return Verdict::Keep;
                            }
                        },
                        None => {
                            queue_plain_error(conn, QueryError::Malformed("bad hello".into()));
                            conn.closing = true;
                            return Verdict::Keep;
                        }
                    },
                    Ok(None) => return Verdict::Keep,
                    Err(FrameParseError::TooLarge(len)) => {
                        queue_plain_error(conn, QueryError::FrameTooLarge(len));
                        conn.closing = true;
                        return Verdict::Keep;
                    }
                    Err(_) => return Verdict::Drop,
                },
                Phase::Active => {
                    loop {
                        if conn.pending.len() > MAX_PENDING_REQUESTS {
                            return Verdict::Keep;
                        }
                        match conn.io.next_frame(MAX_FRAME_PAYLOAD) {
                            Ok(Some(payload)) => conn.pending.push_back(payload),
                            Ok(None) => return Verdict::Keep,
                            Err(err) => {
                                // The stream is desynced; no further
                                // frame boundary can be trusted.
                                let qerr = match err {
                                    FrameParseError::TooLarge(len) => {
                                        QueryError::FrameTooLarge(len)
                                    }
                                    FrameParseError::BadMagic(_) | FrameParseError::BadChecksum => {
                                        QueryError::Malformed("unreadable frame".into())
                                    }
                                };
                                self.queue_error(conn, CONNECTION_STREAM, false, qerr);
                                conn.closing = true;
                                return Verdict::Keep;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Execute parked request frames in arrival order; replies
    /// multiplex, so a request never waits for an earlier reply.
    fn process_pending(&self, conn: &mut Conn) -> Verdict {
        if matches!(conn.phase, Phase::Handshake) {
            return Verdict::Keep;
        }
        while !conn.pending.is_empty() && !conn.closing {
            if conn.io.pending_output() > IN_GATE {
                break;
            }
            let payload = conn.pending.pop_front().expect("non-empty");
            if let Verdict::Drop = self.process_request(conn, &payload) {
                return Verdict::Drop;
            }
        }
        Verdict::Keep
    }

    /// Decode and execute one request frame. Streaming requests push a
    /// [`ReplyStream`]; single-frame requests queue their answer
    /// directly.
    fn process_request(&self, conn: &mut Conn, payload: &[u8]) -> Verdict {
        // Unwrap (and inflate) the stream envelope first. An unreadable
        // envelope is connection-fatal, like an unreadable frame.
        let frame = match decode_stream_frame(payload) {
            Ok(frame) => frame,
            Err(err) => {
                self.queue_error(conn, CONNECTION_STREAM, false, err);
                conn.closing = true;
                return Verdict::Keep;
            }
        };
        let (stream_id, accept_compressed) = (frame.stream_id, frame.accept_compressed);

        self.metrics.requests.inc();
        let exec_start = Instant::now();
        let (response, fatal) = match QueryRequest::decode_traced(&frame.body) {
            // ---- streaming requests: replies are frame streams. ----
            Ok((QueryRequest::Plan(plan), client_trace)) => {
                let mut root = self
                    .metrics
                    .traces
                    .buffer()
                    .root("request.plan", client_trace);
                if let Some((queued_at, wait)) = conn.queue_wait.take() {
                    self.metrics.traces.buffer().record_past(
                        root.trace(),
                        Some(root.id()),
                        "queue_wait",
                        queued_at,
                        wait,
                    );
                }
                let exec = root.child("exec");
                // Lock-free: the cursor pins the snapshot current at
                // open; commits landing mid-pagination don't move it.
                match PlanCursor::open(self.shared.load(), plan, &self.metrics) {
                    Ok(mut cursor) => {
                        let fingerprint = cursor.fingerprint();
                        let shape = cursor.shape().to_string();
                        root.annotate_fingerprint(fingerprint);
                        root.annotate("shape", &shape);
                        // Parked with the cursor so later fetches
                        // rejoin this trace.
                        cursor.set_trace(root.trace(), root.id());
                        let trace_id = root.trace().0;
                        let page_rows = cursor.page_rows();
                        let batch_rows = cursor.batch_rows();
                        conn.replies.push_back(ReplyStream {
                            stream_id,
                            accept_compressed,
                            prefetched: VecDeque::new(),
                            cursor: Some(cursor),
                            shipper: None,
                            sent_rows: 0,
                            page_rows,
                            batch_rows,
                            fingerprint,
                            shape,
                            trace_id,
                            exec_start,
                            exec: Some(exec),
                            root: Some(root),
                        });
                        return Verdict::Keep;
                    }
                    Err(err) => (QueryResponse::Error(err), false),
                }
            }
            Ok((QueryRequest::FetchCursor { cursor }, client_trace)) => {
                match self.cursors.take(cursor) {
                    Some((parked, prefetched)) => {
                        // Rejoin the trace the plan opened (a fetch may
                        // run on another connection, long after the
                        // plan's root completed); a cursor without
                        // context starts a fresh root.
                        let fetch = match parked.trace_context() {
                            Some((trace, root)) => {
                                self.metrics
                                    .traces
                                    .buffer()
                                    .child_of(trace, root, "request.fetch")
                            }
                            None => self
                                .metrics
                                .traces
                                .buffer()
                                .root("request.fetch", client_trace),
                        };
                        if let Some((queued_at, wait)) = conn.queue_wait.take() {
                            self.metrics.traces.buffer().record_past(
                                fetch.trace(),
                                Some(fetch.id()),
                                "queue_wait",
                                queued_at,
                                wait,
                            );
                        }
                        if !prefetched.is_empty() {
                            self.metrics.prefetch_pages_served.inc();
                        }
                        let fingerprint = parked.fingerprint();
                        let shape = parked.shape().to_string();
                        let trace_id = fetch.trace().0;
                        let page_rows = parked.page_rows();
                        let batch_rows = parked.batch_rows();
                        conn.replies.push_back(ReplyStream {
                            stream_id,
                            accept_compressed,
                            prefetched: prefetched.into(),
                            cursor: Some(parked),
                            shipper: None,
                            sent_rows: 0,
                            page_rows,
                            batch_rows,
                            fingerprint,
                            shape,
                            trace_id,
                            exec_start,
                            exec: Some(fetch),
                            root: None,
                        });
                        return Verdict::Keep;
                    }
                    None => (
                        QueryResponse::Error(QueryError::UnknownCursor(cursor)),
                        false,
                    ),
                }
            }
            // ---- replication: a long-poll epoch stream. ----
            Ok((
                QueryRequest::SubscribeEpochs {
                    from_epoch,
                    batch_rows,
                },
                client_trace,
            )) => {
                let mut root = self
                    .metrics
                    .traces
                    .buffer()
                    .root("request.subscribe", client_trace);
                if let Some((queued_at, wait)) = conn.queue_wait.take() {
                    self.metrics.traces.buffer().record_past(
                        root.trace(),
                        Some(root.id()),
                        "queue_wait",
                        queued_at,
                        wait,
                    );
                }
                root.annotate("from_epoch", &from_epoch.to_string());
                let exec = root.child("exec");
                self.metrics.repl_subscriptions.inc();
                // Pin the snapshot (and the sealed footprint published
                // with it) at subscribe time; commits landing while the
                // stream drains belong to the follower's next poll.
                let shipper = EpochShipper::new(
                    self.shared.load(),
                    from_epoch,
                    batch_rows,
                    self.shared.sealed_bytes(),
                );
                let trace_id = root.trace().0;
                conn.replies.push_back(ReplyStream {
                    stream_id,
                    accept_compressed,
                    prefetched: VecDeque::new(),
                    cursor: None,
                    shipper: Some(shipper),
                    sent_rows: 0,
                    page_rows: 0,
                    batch_rows: 0,
                    fingerprint: 0,
                    shape: "subscribe_epochs".to_string(),
                    trace_id,
                    exec_start,
                    exec: Some(exec),
                    root: Some(root),
                });
                return Verdict::Keep;
            }
            Ok((QueryRequest::CloseCursor { cursor }, _)) => {
                self.cursors.remove(cursor);
                // The end frame doubles as the close acknowledgement.
                (QueryResponse::StreamEnd { cursor: None }, false)
            }
            // ---- telemetry: the whole registry in one reply. ----
            Ok((QueryRequest::Metrics, _)) => (
                QueryResponse::Metrics(self.metrics.registry.snapshot()),
                false,
            ),
            // ---- tracing: reassembled flight-recorder trees. ----
            Ok((QueryRequest::Traces(filter), _)) => (
                QueryResponse::Traces(self.metrics.traces.traces(&filter)),
                false,
            ),
            // ---- single-frame answers no plan expresses. ----
            Ok((QueryRequest::Status, _)) => {
                let mut status = self.shared.status(PROTOCOL_VERSION);
                fill_traffic_counters(&self.metrics, &self.cursors, &mut status);
                (QueryResponse::Status(status), false)
            }
            Ok((QueryRequest::LibraryUsage { selection }, _)) => {
                // An inverted range draws the typed error instead of
                // silently matching nothing. Lock-free: the answer
                // comes entirely from the current snapshot `Arc`.
                let response = match selection.validate() {
                    Ok(()) => QueryResponse::LibraryUsage(library_usage(
                        self.shared.load().filtered(&selection),
                    )),
                    Err(err) => QueryResponse::Error(err),
                };
                (response, false)
            }
            // Intact frame, unknown tag: answer and keep the
            // connection.
            Err(err @ QueryError::UnknownRequest(_)) => (QueryResponse::Error(err), false),
            Err(err) => (QueryResponse::Error(err), true),
        };
        // The client's reader refuses payloads above the protocol cap,
        // so sending one would kill the connection mid-answer;
        // substitute a typed error the client can act on instead.
        let mut encoded = response.encode();
        if encoded.len() > BODY_CAP {
            encoded = QueryResponse::Error(QueryError::Internal(format!(
                "response of {} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte frame cap; narrow the query",
                encoded.len()
            )))
            .encode();
        }
        self.queue_body(conn, stream_id, accept_compressed, &encoded);
        self.metrics.exec_ns.record_duration(exec_start.elapsed());
        if fatal {
            conn.closing = true;
        }
        Verdict::Keep
    }

    /// Queue one reply body on the wire, enveloped under `stream_id`
    /// (and compressed when the request accepted it and it pays).
    fn queue_body(&self, conn: &mut Conn, stream_id: u32, accept_compressed: bool, body: &[u8]) {
        let compress_min = accept_compressed.then_some(DEFAULT_COMPRESS_MIN_BYTES);
        let wire = encode_stream_frame(stream_id, body, false, compress_min);
        if wire.len() > STREAM_HEADER_LEN
            && wire[STREAM_HEADER_LEN - 1] & STREAM_FLAG_COMPRESSED != 0
        {
            self.metrics.compressed_frames.inc();
            self.metrics
                .compressed_bytes_saved
                .add((body.len() + STREAM_HEADER_LEN).saturating_sub(wire.len()) as u64);
        }
        conn.io.queue_payload(&wire);
    }

    /// Queue a typed error frame, enveloped under `stream_id`.
    fn queue_error(
        &self,
        conn: &mut Conn,
        stream_id: u32,
        accept_compressed: bool,
        err: QueryError,
    ) {
        let body = QueryResponse::Error(err).encode();
        self.queue_body(conn, stream_id, accept_compressed, &body);
    }

    /// Produce batches into the outbound buffer while it sits under
    /// the watermark, round-robining across the connection's active
    /// replies so no stream starves another.
    fn pump_replies(&self, conn: &mut Conn) {
        while !conn.replies.is_empty() && conn.io.pending_output() < OUT_WATERMARK {
            let mut reply = conn.replies.pop_front().expect("non-empty");
            match self.step_reply(conn, &mut reply) {
                StepOutcome::Progress => conn.replies.push_back(reply),
                StepOutcome::Finished => {
                    // Spans finish child-first; the slow-query log
                    // records fingerprint and shape only.
                    if let Some(exec) = reply.exec.take() {
                        exec.finish();
                    }
                    if let Some(root) = reply.root.take() {
                        root.finish();
                    }
                    let elapsed = reply.exec_start.elapsed();
                    self.metrics.exec_ns.record_duration(elapsed);
                    if elapsed >= self.slow_threshold {
                        self.metrics.registry.slow_queries().push(SlowQueryEntry {
                            fingerprint: reply.fingerprint,
                            shape: reply.shape.clone(),
                            rows: reply.sent_rows as u64,
                            total_ns: elapsed.as_nanos() as u64,
                            trace_id: reply.trace_id,
                        });
                    }
                }
            }
        }
    }

    /// Produce one frame of `reply` (a prefetched batch, a live batch,
    /// or the terminator).
    fn step_reply(&self, conn: &mut Conn, reply: &mut ReplyStream) -> StepOutcome {
        // 0. Epoch subscriptions stream through the shipper (one frame
        //    per step, same watermark pacing as row streams).
        if reply.shipper.is_some() {
            return self.step_epoch_stream(conn, reply);
        }
        // 1. Prefetched page first: bytes already serialized at park
        //    time, just framed (and possibly compressed) here.
        if let Some((body, rows)) = reply.prefetched.pop_front() {
            if body.len() > BODY_CAP {
                // A pathological record blew the frame cap during
                // prefetch; same terminal error as live production.
                self.queue_error(
                    conn,
                    reply.stream_id,
                    reply.accept_compressed,
                    QueryError::Internal(format!(
                        "a row batch of {} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte frame \
                         cap; lower batch_rows or project to Keys",
                        body.len()
                    )),
                );
                return StepOutcome::Finished;
            }
            self.queue_body(conn, reply.stream_id, reply.accept_compressed, &body);
            reply.sent_rows += rows as usize;
            return StepOutcome::Progress;
        }
        // 2. Live production until the page budget.
        if reply.sent_rows < reply.page_rows {
            if let Some(cursor) = reply.cursor.as_mut() {
                let want = reply.batch_rows.min(reply.page_rows - reply.sent_rows);
                if let Some(batch) = cursor.next_batch(want, BATCH_BYTE_BUDGET) {
                    reply.sent_rows += batch.len();
                    let serialize_start = Instant::now();
                    let encoded = QueryResponse::Batch(batch).encode();
                    let serialize_elapsed = serialize_start.elapsed();
                    self.metrics
                        .batch_serialize_ns
                        .record_duration(serialize_elapsed);
                    if let Some(exec) = &reply.exec {
                        // Per-batch serialize spans parent to the exec
                        // span; recorded from the already-measured
                        // interval, no second clock read pair.
                        self.metrics.traces.buffer().record_past(
                            exec.trace(),
                            Some(exec.id()),
                            "serialize",
                            serialize_start,
                            serialize_elapsed,
                        );
                    }
                    if encoded.len() > BODY_CAP {
                        // A single batch blew the frame cap
                        // (pathological record). The client treats an
                        // error frame as the reply terminator, so it
                        // stays in sync; the stream itself cannot
                        // continue.
                        self.queue_error(
                            conn,
                            reply.stream_id,
                            reply.accept_compressed,
                            QueryError::Internal(format!(
                                "a row batch of {} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte \
                                 frame cap; lower batch_rows or project to Keys",
                                encoded.len()
                            )),
                        );
                        return StepOutcome::Finished;
                    }
                    self.queue_body(conn, reply.stream_id, reply.accept_compressed, &encoded);
                    return StepOutcome::Progress;
                }
            }
        }
        // 3. Terminator: end of rows, or park (with the next page
        //    prefetched) and hand out a cursor id.
        let end = match reply.cursor.take() {
            Some(cursor) if !cursor.is_exhausted() => {
                let (cursor, prefetched) = self.build_prefetch(reply, cursor);
                QueryResponse::StreamEnd {
                    cursor: Some(self.cursors.park(cursor, prefetched)),
                }
            }
            _ => QueryResponse::StreamEnd { cursor: None },
        };
        self.queue_body(
            conn,
            reply.stream_id,
            reply.accept_compressed,
            &end.encode(),
        );
        StepOutcome::Finished
    }

    /// Produce one frame of an epoch subscription: the shipper's next
    /// batch, commit marker, or terminator.
    fn step_epoch_stream(&self, conn: &mut Conn, reply: &mut ReplyStream) -> StepOutcome {
        let shipper = reply.shipper.as_mut().expect("epoch stream shipper");
        let Some(frame) = shipper.next_frame() else {
            return StepOutcome::Finished;
        };
        let (response, is_batch, outcome) = match frame {
            EpochFrame::Batch { response, records } => {
                reply.sent_rows += records as usize;
                (response, true, StepOutcome::Progress)
            }
            EpochFrame::Commit { response, records } => {
                self.metrics.repl_epochs_shipped.inc();
                self.metrics.repl_records_shipped.add(records);
                (response, false, StepOutcome::Progress)
            }
            EpochFrame::End { response } => (response, false, StepOutcome::Finished),
        };
        let serialize_start = Instant::now();
        let encoded = response.encode();
        let serialize_elapsed = serialize_start.elapsed();
        self.metrics
            .batch_serialize_ns
            .record_duration(serialize_elapsed);
        if let Some(exec) = &reply.exec {
            self.metrics.traces.buffer().record_past(
                exec.trace(),
                Some(exec.id()),
                "serialize",
                serialize_start,
                serialize_elapsed,
            );
        }
        if is_batch {
            self.metrics.repl_bytes_shipped.add(encoded.len() as u64);
        }
        if encoded.len() > BODY_CAP {
            // A pathological record blew the frame cap; the error frame
            // terminates the reply (the follower resubscribes from its
            // high-water mark, so nothing is lost — but it cannot make
            // progress past this record without a smaller batch_rows).
            self.queue_error(
                conn,
                reply.stream_id,
                reply.accept_compressed,
                QueryError::Internal(format!(
                    "an epoch batch of {} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte frame \
                     cap; lower batch_rows",
                    encoded.len()
                )),
            );
            return StepOutcome::Finished;
        }
        self.queue_body(conn, reply.stream_id, reply.accept_compressed, &encoded);
        outcome
    }

    /// Precompute the next page of `cursor` as serialized batch bodies
    /// (connection-agnostic: compression and the envelope are
    /// applied at queue time, so a cross-connection fetch serves them
    /// unchanged). Serialize time is recorded under the parking
    /// request's exec span — the prefetch is that request's work.
    fn build_prefetch(
        &self,
        reply: &ReplyStream,
        mut cursor: PlanCursor,
    ) -> (PlanCursor, Vec<(Vec<u8>, u32)>) {
        let mut prefetched: Vec<(Vec<u8>, u32)> = Vec::new();
        let mut rows = 0usize;
        while rows < reply.page_rows {
            let want = reply.batch_rows.min(reply.page_rows - rows);
            let Some(batch) = cursor.next_batch(want, BATCH_BYTE_BUDGET) else {
                break;
            };
            let batch_rows = batch.len() as u32;
            rows += batch.len();
            let serialize_start = Instant::now();
            let encoded = QueryResponse::Batch(batch).encode();
            let serialize_elapsed = serialize_start.elapsed();
            self.metrics
                .batch_serialize_ns
                .record_duration(serialize_elapsed);
            if let Some(exec) = &reply.exec {
                self.metrics.traces.buffer().record_past(
                    exec.trace(),
                    Some(exec.id()),
                    "prefetch_serialize",
                    serialize_start,
                    serialize_elapsed,
                );
            }
            prefetched.push((encoded, batch_rows));
        }
        if !prefetched.is_empty() {
            self.metrics.prefetch_pages_built.inc();
        }
        (cursor, prefetched)
    }
}

/// Queue a typed error as a plain frame: a connection that never got its
/// hello-ack has no stream envelope, so its refusal travels bare.
fn queue_plain_error(conn: &mut Conn, err: QueryError) {
    conn.io.queue_payload(&QueryResponse::Error(err).encode());
}

/// Outcome of one reply production step.
enum StepOutcome {
    /// A frame was queued; the reply stays active.
    Progress,
    /// The terminator (or terminal error) was queued.
    Finished,
}
