//! A deterministic TCP fault proxy for failure-injection tests.
//!
//! The proxy sits between a client and a real TCP server (in the
//! replication suite: a follower and its leader), forwarding bytes both
//! ways while injecting faults drawn from a seeded RNG — so a given
//! `(seed, config)` always tears the same connections at the same byte
//! offsets, and a failing run replays exactly.
//!
//! Faults offered:
//!
//! * **sever** — cut a proxied connection after a byte count fuzzed
//!   from a configured range (counted on the server→client direction,
//!   the interesting one for a replication stream: the cut lands
//!   mid-epoch, mid-batch, even mid-frame-header).
//! * **delay** — hold each forwarded chunk for a fixed duration,
//!   simulating a slow link.
//!
//! The upstream target is swappable at runtime ([`FaultProxy::set_target`])
//! so a test can restart its leader on a fresh port while the follower
//! keeps dialing one stable address — exactly the failover geometry the
//! convergence suite needs.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

/// Fault schedule for a [`FaultProxy`]. The default injects nothing —
/// a transparent forwarder.
#[derive(Debug, Clone, Default)]
pub struct FaultConfig {
    /// Seed for the per-connection fault draws — same seed, same cuts.
    pub seed: u64,
    /// Sever each proxied connection after a server→client byte count
    /// drawn uniformly from this inclusive range. `None` = never cut.
    pub cut_bytes: Option<(u64, u64)>,
    /// Hold each forwarded chunk this long before passing it on.
    pub delay: Option<Duration>,
}

struct Inner {
    target: Mutex<SocketAddr>,
    stop: AtomicBool,
    /// Connections torn by the byte-offset cut.
    cuts: AtomicU64,
}

/// A seeded man-in-the-middle TCP forwarder. Dropping it stops the
/// accept loop and severs every live proxied connection.
pub struct FaultProxy {
    local_addr: SocketAddr,
    inner: Arc<Inner>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl FaultProxy {
    /// Bind a loopback listener and start proxying to `target` under
    /// `cfg`'s fault schedule.
    pub fn spawn(target: SocketAddr, cfg: FaultConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local_addr = listener.local_addr()?;
        // Poll the listener so a stop request is noticed promptly.
        listener.set_nonblocking(true)?;
        let inner = Arc::new(Inner {
            target: Mutex::new(target),
            stop: AtomicBool::new(false),
            cuts: AtomicU64::new(0),
        });
        let accept_inner = Arc::clone(&inner);
        let accept_thread = std::thread::Builder::new()
            .name("siren-fault-proxy".into())
            .spawn(move || accept_loop(listener, accept_inner, cfg))?;
        Ok(Self {
            local_addr,
            inner,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address clients should dial instead of the real server.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Repoint new connections at a different upstream (live proxied
    /// connections are unaffected) — the leader-restart affordance.
    pub fn set_target(&self, target: SocketAddr) {
        *self.inner.target.lock() = target;
    }

    /// Connections severed by the byte-offset cut.
    pub fn cuts(&self) -> u64 {
        self.inner.cuts.load(Ordering::Relaxed)
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

fn accept_loop(listener: TcpListener, inner: Arc<Inner>, cfg: FaultConfig) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    while !inner.stop.load(Ordering::Relaxed) {
        let (client, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
                continue;
            }
            Err(_) => break,
        };
        // Draw this connection's cut offset now, so the schedule
        // depends only on (seed, connection index) — not on thread
        // interleaving.
        let cut_at = cfg
            .cut_bytes
            .map(|(lo, hi)| rng.random_range(lo..hi.max(lo) + 1));
        let target = *inner.target.lock();
        let server = match TcpStream::connect(target) {
            Ok(server) => server,
            Err(_) => continue, // upstream down: the dial-side close is the fault
        };
        let _ = spawn_pipes(client, server, cut_at, cfg.delay, Arc::clone(&inner));
    }
}

/// Start the two forwarding directions for one proxied connection. The
/// cut budget applies to server→client bytes.
fn spawn_pipes(
    client: TcpStream,
    server: TcpStream,
    cut_at: Option<u64>,
    delay: Option<Duration>,
    inner: Arc<Inner>,
) -> std::io::Result<()> {
    let client_up = client.try_clone()?;
    let server_up = server.try_clone()?;
    let up_inner = Arc::clone(&inner);
    std::thread::Builder::new()
        .name("siren-fault-proxy-up".into())
        .spawn(move || pipe(client_up, server_up, None, None, up_inner))?;
    std::thread::Builder::new()
        .name("siren-fault-proxy-down".into())
        .spawn(move || pipe(server, client, cut_at, delay, inner))?;
    Ok(())
}

/// Forward bytes `from` → `to` until EOF, error, stop, or the cut
/// budget is exhausted. A cut severs both directions (shutdown both
/// sockets), so the peer observes a hard connection loss.
fn pipe(
    mut from: TcpStream,
    mut to: TcpStream,
    mut cut_budget: Option<u64>,
    delay: Option<Duration>,
    inner: Arc<Inner>,
) {
    // Short read timeouts keep the thread responsive to stop requests.
    let _ = from.set_read_timeout(Some(Duration::from_millis(50)));
    let mut buf = [0u8; 4096];
    loop {
        if inner.stop.load(Ordering::Relaxed) {
            break;
        }
        let n = match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        };
        if let Some(delay) = delay {
            std::thread::sleep(delay);
        }
        // Sever mid-chunk: forward exactly the bytes under the budget,
        // then cut — the peer may be left with half a frame header.
        let mut take = n;
        let mut cut_now = false;
        if let Some(budget) = cut_budget.as_mut() {
            if (n as u64) >= *budget {
                take = *budget as usize;
                cut_now = true;
            } else {
                *budget -= n as u64;
            }
        }
        if take > 0 && to.write_all(&buf[..take]).is_err() {
            break;
        }
        if cut_now {
            inner.cuts.fetch_add(1, Ordering::Relaxed);
            break;
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}
