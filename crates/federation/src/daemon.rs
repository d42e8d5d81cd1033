//! The runnable face of the router: a wire-protocol server on its own
//! port, so unmodified `SirenClient`s (and `MuxClient`s) federate
//! transparently — they dial the router exactly as they would dial one
//! daemon.
//!
//! The accept loop parks on the reactor's [`Poller`] (the same
//! notify-to-wake shutdown idiom as the UDP ingest tier); each accepted
//! connection is served by a dedicated thread with **blocking** I/O,
//! because answering one federated plan blocks on backend fan-out
//! anyway — an event-driven request loop would buy nothing while the
//! merge waits on upstream sockets. Plans are answered as one whole
//! reply (batches, optional warning, `StreamEnd { cursor: None }`); no
//! cursor is ever parked, so `FetchCursor`/`CloseCursor` draw
//! `UnknownCursor`, which clients already handle.
//!
//! The hello is the daemon's: the offered range must contain protocol
//! version 3, or the client gets the same plain typed
//! `UnsupportedVersion { 3, 3 }` refusal and a close.

use crate::router::{Router, RouterError};
use siren_proto::{
    decode_hello, decode_stream_frame, encode_hello_ack, encode_stream_frame, negotiate,
    read_frame, write_frame, FrameError, PlanRow, QueryError, QueryPlan, QueryRequest,
    QueryResponse, RowBatch, MAX_BATCH_ROWS,
};
use siren_reactor::{Event, Interest, Poller};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

/// Poller key of the accept socket.
const LISTENER_KEY: usize = 0;
/// Read timeout granularity on served connections, so shutdown is
/// noticed promptly even mid-request.
const CONN_TICK: Duration = Duration::from_millis(100);

/// A wire-protocol server wrapping a [`Router`]. Dropping it (or
/// calling [`RouterDaemon::shutdown`]) stops the accept loop, wakes
/// the poller, and joins every connection thread.
pub struct RouterDaemon {
    local_addr: SocketAddr,
    poller: Arc<Poller>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl RouterDaemon {
    /// Bind `addr` and start serving `router` over the wire protocol.
    pub fn spawn(router: Router, addr: impl ToSocketAddrs) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let poller = Arc::new(Poller::new()?);
        poller.add(listener.as_raw_fd(), LISTENER_KEY, Interest::READ)?;
        let stop = Arc::new(AtomicBool::new(false));

        let thread_poller = Arc::clone(&poller);
        let thread_stop = Arc::clone(&stop);
        let router = Arc::new(router);
        let accept_thread = std::thread::Builder::new()
            .name("siren-fed-accept".into())
            .spawn(move || {
                accept_loop(listener, thread_poller, thread_stop, router);
            })?;
        Ok(Self {
            local_addr,
            poller,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address clients dial — one router port fronting the fleet.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting, sever the accept loop, and join it. Connection
    /// threads notice the stop flag within one read tick.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.poller.notify();
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for RouterDaemon {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

fn accept_loop(
    listener: TcpListener,
    poller: Arc<Poller>,
    stop: Arc<AtomicBool>,
    router: Arc<Router>,
) {
    let conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let mut events: Vec<Event> = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        events.clear();
        if poller.wait(&mut events, None).is_err() {
            break;
        }
        loop {
            match listener.accept() {
                Ok((socket, _)) => {
                    let conn_router = Arc::clone(&router);
                    let conn_stop = Arc::clone(&stop);
                    if let Ok(handle) = std::thread::Builder::new()
                        .name("siren-fed-conn".into())
                        .spawn(move || {
                            let _ = serve_conn(socket, conn_router, conn_stop);
                        })
                    {
                        let mut held = conns.lock();
                        // Reap finished threads so the list stays small
                        // on long-lived routers.
                        held.retain(|h| !h.is_finished());
                        held.push(handle);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }
    let _ = poller.delete(listener.as_raw_fd());
    for handle in conns.lock().drain(..) {
        let _ = handle.join();
    }
}

/// Wait for the next frame, ticking the read timeout between frames
/// so the stop flag is honored while idle; once bytes are arriving,
/// read the whole frame under a generous deadline. `Ok(None)` = clean
/// EOF, stop, or an unrecoverable framing violation (drop the
/// connection — resync is impossible on a byte stream).
fn read_frame_ticked(socket: &mut TcpStream, stop: &AtomicBool) -> io::Result<Option<Vec<u8>>> {
    let mut first = [0u8; 1];
    loop {
        if stop.load(Ordering::Relaxed) {
            return Ok(None);
        }
        // Peek, don't read: the frame decoder must see every byte.
        match socket.peek(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) => return Err(e),
        }
    }
    socket.set_read_timeout(Some(Duration::from_secs(30)))?;
    let result = read_frame(socket);
    socket.set_read_timeout(Some(CONN_TICK))?;
    match result {
        Ok(payload) => Ok(Some(payload)),
        Err(FrameError::Closed) => Ok(None),
        Err(FrameError::Io(e)) => Err(e),
        Err(_) => Ok(None),
    }
}

fn serve_conn(mut socket: TcpStream, router: Arc<Router>, stop: Arc<AtomicBool>) -> io::Result<()> {
    socket.set_nodelay(true)?;
    socket.set_read_timeout(Some(CONN_TICK))?;
    socket.set_write_timeout(Some(Duration::from_secs(30)))?;

    // Hello exchange: exactly the daemon's. Refusals are plain frames
    // (no envelope before the ack).
    let Some(hello) = read_frame_ticked(&mut socket, &stop)? else {
        return Ok(());
    };
    let refusal = match decode_hello(&hello) {
        None => QueryError::Malformed("bad hello".into()),
        Some((client_min, client_max)) => match negotiate(client_min, client_max) {
            Ok(version) => {
                write_frame(&mut socket, &encode_hello_ack(version))?;
                return serve_requests(&mut socket, &router, &stop);
            }
            Err(err) => err,
        },
    };
    write_frame(&mut socket, &QueryResponse::Error(refusal).encode())
}

/// The request loop. Requests are served in arrival order, each reply
/// enveloped under the request's stream id, which is all a `MuxClient`
/// needs to route it (frames of one reply stay contiguous).
fn serve_requests(socket: &mut TcpStream, router: &Router, stop: &AtomicBool) -> io::Result<()> {
    while let Some(payload) = read_frame_ticked(socket, stop)? {
        let Ok(frame) = decode_stream_frame(&payload) else {
            let err =
                QueryResponse::Error(QueryError::Malformed("undecodable stream envelope".into()));
            return write_reply(socket, 0, &err);
        };
        let stream_id = frame.stream_id;
        let response = match QueryRequest::decode_traced(&frame.body) {
            Ok((QueryRequest::Plan(plan), trace)) => {
                serve_plan(socket, stream_id, router, plan, trace)?;
                continue;
            }
            Ok((QueryRequest::Status, _)) => match router.status() {
                Ok(status) => QueryResponse::Status(status),
                Err(err) => QueryResponse::Error(QueryError::Internal(err.to_string())),
            },
            Ok((QueryRequest::Metrics, _)) => QueryResponse::Metrics(router.registry().snapshot()),
            Ok((QueryRequest::Traces(filter), _)) => {
                QueryResponse::Traces(router.traces().traces(&filter))
            }
            // Per-library host counts are distinct-counts: not summable
            // across job shards. Refusing typed beats answering wrong.
            Ok((QueryRequest::LibraryUsage { .. }, _)) => {
                QueryResponse::Error(QueryError::Internal(
                    "library usage is not federatable (per-library host counts \
                     do not sum across shards); query a shard directly"
                        .into(),
                ))
            }
            // The router answers plans whole; it never parks a cursor,
            // so any cursor id is unknown by construction.
            Ok((
                QueryRequest::FetchCursor { cursor } | QueryRequest::CloseCursor { cursor },
                _,
            )) => QueryResponse::Error(QueryError::UnknownCursor(cursor)),
            Ok((QueryRequest::SubscribeEpochs { .. }, _)) => {
                QueryResponse::Error(QueryError::Internal(
                    "epoch subscription is not served by a federation router; \
                     replicate from a shard leader directly"
                        .into(),
                ))
            }
            Err(err) => QueryResponse::Error(err),
        };
        write_reply(socket, stream_id, &response)?;
    }
    Ok(())
}

fn router_error(err: RouterError) -> QueryError {
    match err {
        RouterError::Plan(err) => err,
        other => QueryError::Internal(other.to_string()),
    }
}

fn serve_plan(
    socket: &mut TcpStream,
    stream_id: u32,
    router: &Router,
    plan: QueryPlan,
    trace: Option<siren_proto::TraceId>,
) -> io::Result<()> {
    let batch_rows = plan.batch_rows.clamp(1, MAX_BATCH_ROWS) as usize;
    let source = plan.source.clone();
    let mut stream = match router.query_traced(plan, trace) {
        Ok(stream) => stream,
        Err(err) => {
            let response = QueryResponse::Error(router_error(err));
            return write_reply(socket, stream_id, &response);
        }
    };
    let mut rows: Vec<PlanRow> = Vec::with_capacity(batch_rows);
    loop {
        let row = stream.next();
        let done = row.is_none();
        if let Some(row) = row {
            rows.push(row);
        }
        if rows.len() >= batch_rows || (done && !rows.is_empty()) {
            let batch = rows_to_batch(&source, std::mem::take(&mut rows));
            write_reply(socket, stream_id, &QueryResponse::Batch(batch))?;
        }
        if done {
            break;
        }
    }
    if let Some(warning) = stream.warning() {
        write_reply(socket, stream_id, &QueryResponse::Warning(warning))?;
    }
    write_reply(
        socket,
        stream_id,
        &QueryResponse::StreamEnd { cursor: None },
    )
}

/// Regroup merged rows into a wire batch of the plan's row kind.
fn rows_to_batch(source: &siren_proto::PlanSource, rows: Vec<PlanRow>) -> RowBatch {
    match source {
        siren_proto::PlanSource::Records => {
            RowBatch::Records(rows.into_iter().filter_map(PlanRow::into_record).collect())
        }
        siren_proto::PlanSource::UsageTable => {
            RowBatch::Usage(rows.into_iter().filter_map(PlanRow::into_usage).collect())
        }
        siren_proto::PlanSource::Neighbors { .. } => RowBatch::Neighbors(
            rows.into_iter()
                .filter_map(PlanRow::into_neighbor)
                .collect(),
        ),
    }
}

/// Write one reply frame in a raw envelope (no compression):
/// protocol-legal under any client's accept flag, and batches are
/// already bounded.
fn write_reply(socket: &mut TcpStream, stream_id: u32, response: &QueryResponse) -> io::Result<()> {
    let enveloped = encode_stream_frame(stream_id, &response.encode(), false, None);
    write_frame(socket, &enveloped)
}
