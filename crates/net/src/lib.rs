//! # siren-net — fire-and-forget transports and the receiver server
//!
//! SIREN deliberately chose UDP over TCP or per-process files (§3.1,
//! "Data Transmission"): connection management and file handles are
//! failure points inside someone else's process, while a lost datagram
//! costs only one field of one record. This crate provides that transport
//! model twice:
//!
//! * [`udp`] — real UDP over the loopback interface (`std::net`), used by
//!   the end-to-end integration tests and the pipeline benchmark. The
//!   receiver mirrors the paper's Go server: a socket-reader thread feeds
//!   a bounded channel; consumers drain decoded messages from it.
//! * [`sim`] — an in-memory channel with *configurable, seeded* loss,
//!   duplication, and reordering. The paper could only observe its
//!   deployment loss rate (~0.02 % of jobs affected); the simulated
//!   channel lets the experiments inject loss and measure the consolidation
//!   layer's response deterministically.
//!
//! Both implement [`Sender`], whose contract encodes the "graceful
//! failure" design rule: `send` never blocks the caller on the network
//! and never reports an error — exactly like `siren.so`.

pub mod proxy;
pub mod sim;
pub mod udp;

pub use proxy::{FaultConfig, FaultProxy};
pub use sim::{SimChannel, SimConfig, SimReceiver, SimSender};
pub use udp::{UdpReceiver, UdpSender};

/// A fire-and-forget datagram sender.
///
/// Implementations swallow all errors: the collector must never fail or
/// block a hooked user process because monitoring infrastructure is
/// unhealthy.
pub trait Sender: Send {
    /// Send one datagram. Losses are silent by design.
    fn send(&self, datagram: &[u8]);

    /// Datagrams handed to the transport so far (including ones the
    /// transport later dropped).
    fn sent_count(&self) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use siren_wire::{chunk_message, Layer, Message, MessageHeader, MessageType, Reassembler};

    fn header() -> MessageHeader {
        MessageHeader {
            job_id: 1,
            step_id: 0,
            pid: 77,
            exe_hash: "cafe".into(),
            host: "nid7".into(),
            time: 5,
            layer: Layer::SelfExe,
            mtype: MessageType::Objects,
        }
    }

    #[test]
    fn udp_end_to_end_loopback() {
        let receiver = UdpReceiver::spawn(1024).expect("bind loopback");
        let sender = UdpSender::connect(receiver.local_addr()).expect("sender socket");

        let content = "/lib64/libc.so.6;".repeat(300); // forces chunking
        let msgs = chunk_message(&header(), &content, siren_wire::DEFAULT_MAX_DATAGRAM);
        assert!(msgs.len() > 1);
        for m in &msgs {
            sender.send(&m.encode());
        }
        assert_eq!(sender.sent_count(), msgs.len() as u64);

        let mut reasm = Reassembler::new();
        let mut complete = None;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while complete.is_none() && std::time::Instant::now() < deadline {
            if let Some(msg) = receiver.recv_timeout(std::time::Duration::from_millis(200)) {
                complete = reasm.push(msg);
            }
        }
        let stats = receiver.stop();
        let complete = complete.expect("message should reassemble over loopback");
        assert_eq!(complete.content, content);
        assert_eq!(stats.received, msgs.len() as u64);
        assert_eq!(stats.decode_errors, 0);
    }

    #[test]
    fn udp_receiver_counts_decode_errors() {
        let receiver = UdpReceiver::spawn(16).expect("bind loopback");
        let sender = UdpSender::connect(receiver.local_addr()).expect("sender socket");
        sender.send(b"not a siren datagram");
        sender.send(
            &Message {
                header: header(),
                chunk_index: 0,
                chunk_total: 1,
                content: "ok".into(),
            }
            .encode(),
        );

        let msg = receiver
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("valid message arrives");
        assert_eq!(msg.content, "ok");
        let stats = receiver.stop();
        assert_eq!(stats.decode_errors, 1);
        assert_eq!(stats.received, 2);
    }
}
