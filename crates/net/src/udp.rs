//! Real UDP over loopback: sender socket + receiver server thread.

use crate::Sender;
use crossbeam::channel::{bounded, Receiver as ChanReceiver, TrySendError};
use polling::{Event, Interest, Poller};
use siren_wire::Message;
use std::net::{SocketAddr, UdpSocket};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Fire-and-forget UDP sender bound to an ephemeral port.
#[derive(Debug)]
pub struct UdpSender {
    socket: UdpSocket,
    sent: AtomicU64,
}

impl UdpSender {
    /// Create a sender targeting `dest` (connects the socket so `send`
    /// needs no per-call address).
    pub fn connect(dest: SocketAddr) -> std::io::Result<Self> {
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        socket.connect(dest)?;
        Ok(Self {
            socket,
            sent: AtomicU64::new(0),
        })
    }
}

impl Sender for UdpSender {
    fn send(&self, datagram: &[u8]) {
        self.sent.fetch_add(1, Ordering::Relaxed);
        // Graceful failure: a full socket buffer or unreachable receiver
        // must never propagate into the hooked process.
        let _ = self.socket.send(datagram);
    }

    fn sent_count(&self) -> u64 {
        self.sent.load(Ordering::Relaxed)
    }
}

/// Statistics reported by [`UdpReceiver::stop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReceiverStats {
    /// Datagrams read from the socket.
    pub received: u64,
    /// Datagrams that failed protocol decoding.
    pub decode_errors: u64,
    /// Decoded messages dropped because the internal channel was full
    /// (consumer too slow — the bounded-buffer backpressure decision is
    /// to shed load rather than block the socket reader).
    pub overflowed: u64,
}

/// The receiver server: socket-reader thread feeding a bounded channel of
/// decoded [`Message`]s (the Rust equivalent of the paper's Go server with
/// its "buffered channel").
///
/// The reader parks on a [`Poller`] rather than a socket read timeout, so
/// it wakes only when datagrams are ready and [`UdpReceiver::stop`] takes
/// effect immediately via `notify` instead of waiting out a timeout tick.
#[derive(Debug)]
pub struct UdpReceiver {
    local_addr: SocketAddr,
    rx: ChanReceiver<Message>,
    stop: Arc<AtomicBool>,
    poller: Arc<Poller>,
    stats: Arc<StatsInner>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// Poller key for the receiver's single UDP socket.
const UDP_SOCKET_KEY: usize = 0;

#[derive(Debug, Default)]
struct StatsInner {
    received: AtomicU64,
    decode_errors: AtomicU64,
    overflowed: AtomicU64,
}

impl UdpReceiver {
    /// Bind 127.0.0.1 on an ephemeral port and start the reader thread.
    /// `buffer` is the channel capacity.
    pub fn spawn(buffer: usize) -> std::io::Result<Self> {
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        socket.set_nonblocking(true)?;
        let local_addr = socket.local_addr()?;
        let poller = Arc::new(Poller::new()?);
        poller.add(socket.as_raw_fd(), UDP_SOCKET_KEY, Interest::READ)?;
        let (tx, rx) = bounded(buffer);
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(StatsInner::default());

        let thread_stop = Arc::clone(&stop);
        let thread_stats = Arc::clone(&stats);
        let thread_poller = Arc::clone(&poller);
        let handle = std::thread::Builder::new()
            .name("siren-udp-receiver".into())
            .spawn(move || {
                // Largest datagram the protocol produces is bounded by the
                // sender's max_datagram; 64 KiB covers any UDP payload.
                let mut buf = vec![0u8; 65536];
                let mut events: Vec<Event> = Vec::new();
                'reader: while !thread_stop.load(Ordering::Relaxed) {
                    events.clear();
                    // Park until the socket is readable or stop() notifies.
                    if thread_poller.wait(&mut events, None).is_err() {
                        break;
                    }
                    // Level-triggered: drain everything ready, then re-park.
                    loop {
                        match socket.recv(&mut buf) {
                            Ok(n) => {
                                thread_stats.received.fetch_add(1, Ordering::Relaxed);
                                match Message::decode(&buf[..n]) {
                                    Ok(msg) => match tx.try_send(msg) {
                                        Ok(()) => {}
                                        Err(TrySendError::Full(_)) => {
                                            thread_stats.overflowed.fetch_add(1, Ordering::Relaxed);
                                        }
                                        Err(TrySendError::Disconnected(_)) => break 'reader,
                                    },
                                    Err(_) => {
                                        thread_stats.decode_errors.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                            Err(_) => break 'reader,
                        }
                    }
                }
                let _ = thread_poller.delete(socket.as_raw_fd());
            })?;

        Ok(Self {
            local_addr,
            rx,
            stop,
            poller,
            stats,
            handle: Some(handle),
        })
    }

    /// The address senders should target.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Blocking receive with timeout; `None` on timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Message> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// Stop the reader thread and return final statistics. Takes effect
    /// immediately: the poller is notified, so a parked reader wakes at
    /// once instead of timing out.
    pub fn stop(mut self) -> ReceiverStats {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.poller.notify();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        ReceiverStats {
            received: self.stats.received.load(Ordering::Relaxed),
            decode_errors: self.stats.decode_errors.load(Ordering::Relaxed),
            overflowed: self.stats.overflowed.load(Ordering::Relaxed),
        }
    }
}

impl Drop for UdpReceiver {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.poller.notify();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siren_wire::{Layer, MessageHeader, MessageType};

    #[test]
    fn sender_swallows_errors_when_receiver_gone() {
        let receiver = UdpReceiver::spawn(4).unwrap();
        let addr = receiver.local_addr();
        let stats = receiver.stop();
        assert_eq!(stats.received, 0);
        // Receiver is gone; sends must not panic or error.
        let sender = UdpSender::connect(addr).unwrap();
        for _ in 0..10 {
            sender.send(b"into the void");
        }
        assert_eq!(sender.sent_count(), 10);
    }

    #[test]
    fn bounded_channel_sheds_load() {
        let receiver = UdpReceiver::spawn(1).unwrap();
        let sender = UdpSender::connect(receiver.local_addr()).unwrap();
        let msg = Message {
            header: MessageHeader {
                job_id: 1,
                step_id: 0,
                pid: 1,
                exe_hash: "00".into(),
                host: "h".into(),
                time: 1,
                layer: Layer::SelfExe,
                mtype: MessageType::Meta,
            },
            chunk_index: 0,
            chunk_total: 1,
            content: "x".into(),
        };
        // Nobody drains the channel: after the first message, overflow.
        for _ in 0..50 {
            sender.send(&msg.encode());
        }
        // Give the reader thread time to process.
        std::thread::sleep(Duration::from_millis(400));
        let stats = receiver.stop();
        // Loopback can itself drop datagrams under burst; assert only the
        // invariant: received = channel(1) + overflowed, with no decode errors.
        assert!(stats.received >= 1);
        assert_eq!(stats.decode_errors, 0);
        assert!(stats.overflowed >= stats.received.saturating_sub(1));
    }
}
