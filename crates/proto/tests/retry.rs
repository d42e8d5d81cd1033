//! Connect-retry behavior: [`SirenClient::connect_with_retry`] replays
//! only the idempotent connect + hello exchange, under the policy's
//! capped backoff — transport tears are retried, typed refusals are
//! not, and exhaustion surfaces the last transport error. A transport
//! failure mid-call is never retried: it poisons the client, which
//! refuses every later call until the caller reconnects.

use siren_proto::{
    decode_hello, decode_stream_frame, encode_hello_ack, encode_stream_frame, negotiate,
    read_frame, write_frame, ClientError, FrameError, QueryError, QueryPlan, QueryResponse,
    RetryPolicy, SirenClient, StatusInfo,
};
use std::net::TcpListener;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Per-operation I/O timeout of every dial in this suite.
const TIMEOUT: Duration = Duration::from_secs(5);

/// A fast policy so the suite never sleeps long: 5 ms base, 20 ms cap.
fn quick_policy(max_retries: u32) -> RetryPolicy {
    RetryPolicy {
        max_retries,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(20),
        jitter: true,
    }
}

#[test]
fn transport_tears_are_retried_until_the_handshake_lands() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // Tear the first two connections before the hello completes; speak
    // a well-behaved handshake on the third.
    let server = std::thread::spawn(move || {
        let mut accepted = 0u32;
        loop {
            let (mut sock, _) = listener.accept().unwrap();
            accepted += 1;
            if accepted < 3 {
                drop(sock);
                continue;
            }
            let hello = read_frame(&mut sock).unwrap();
            let (min, max) = decode_hello(&hello).unwrap();
            let version = negotiate(min, max).unwrap();
            write_frame(&mut sock, &encode_hello_ack(version)).unwrap();
            return (accepted, sock);
        }
    });

    SirenClient::connect_with_retry(addr, TIMEOUT, &quick_policy(5))
        .expect("the third attempt must land");
    let (accepted, _sock) = server.join().unwrap();
    assert_eq!(accepted, 3, "exactly two tears before the good handshake");
}

#[test]
fn typed_refusals_fail_immediately_without_retry() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let accepted = Arc::new(AtomicU32::new(0));
    let count = Arc::clone(&accepted);
    // Answer every hello with a structured version refusal. The thread
    // parks in accept() after the first connection and dies with the
    // test process.
    std::thread::spawn(move || {
        while let Ok((mut sock, _)) = listener.accept() {
            count.fetch_add(1, Ordering::SeqCst);
            let _ = read_frame(&mut sock);
            let refusal = QueryResponse::Error(QueryError::UnsupportedVersion {
                server_min: 9,
                server_max: 9,
            });
            let _ = write_frame(&mut sock, &refusal.encode());
        }
    });

    match SirenClient::connect_with_retry(addr, TIMEOUT, &quick_policy(5)) {
        Err(ClientError::Server(QueryError::UnsupportedVersion { .. })) => {}
        other => panic!("expected the server's refusal verbatim, got {other:?}"),
    }
    // Retrying a deterministic refusal would only repeat it: one dial.
    assert_eq!(accepted.load(Ordering::SeqCst), 1);
}

#[test]
fn exhausted_retries_surface_the_transport_error() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let accepted = Arc::new(AtomicU32::new(0));
    let count = Arc::clone(&accepted);
    // Tear every connection; the client must give up after the policy's
    // budget: the first attempt plus max_retries replays.
    std::thread::spawn(move || {
        while let Ok((sock, _)) = listener.accept() {
            count.fetch_add(1, Ordering::SeqCst);
            drop(sock);
        }
    });

    match SirenClient::connect_with_retry(addr, TIMEOUT, &quick_policy(2)) {
        Err(ClientError::Frame(_)) => {}
        other => panic!("expected a transport error after exhaustion, got {other:?}"),
    }
    assert_eq!(accepted.load(Ordering::SeqCst), 3, "1 attempt + 2 retries");
}

/// A fake server whose every connection answers `Status` requests on
/// the request's own stream id, but holds the very first reply of the
/// first connection for `delay` — long enough to trip the client's
/// read timeout, so that reply arrives after the client gave up on it.
fn late_first_reply_server(delay: Duration) -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let mut first_connection = true;
        while let Ok((mut sock, _)) = listener.accept() {
            let mut delay_first = std::mem::take(&mut first_connection).then_some(delay);
            std::thread::spawn(move || -> Result<(), FrameError> {
                let hello = read_frame(&mut sock)?;
                let (min, max) = decode_hello(&hello).unwrap();
                write_frame(&mut sock, &encode_hello_ack(negotiate(min, max).unwrap()))?;
                loop {
                    let request = decode_stream_frame(&read_frame(&mut sock)?).unwrap();
                    if let Some(delay) = delay_first.take() {
                        std::thread::sleep(delay);
                    }
                    let body = QueryResponse::Status(StatusInfo::default()).encode();
                    write_frame(
                        &mut sock,
                        &encode_stream_frame(request.stream_id, &body, false, None),
                    )?;
                }
            });
        }
    });
    addr
}

#[test]
fn a_timed_out_call_poisons_the_client_instead_of_desyncing_it() {
    let addr = late_first_reply_server(Duration::from_millis(800));
    let mut client = SirenClient::connect_with_timeout(addr, Duration::from_millis(400)).unwrap();
    match client.status() {
        Err(ClientError::Frame(_)) => {}
        other => panic!("the delayed reply must time the call out, got {other:?}"),
    }
    // The late reply is still in flight (or already buffered): reading
    // it as the answer to a later call would shift every reply by one.
    // Every later call is refused instead, the stream ones included.
    std::thread::sleep(Duration::from_millis(600));
    for _ in 0..3 {
        match client.status() {
            Err(ClientError::Protocol(detail)) => {
                assert!(detail.contains("reconnect"), "{detail}")
            }
            other => panic!("a poisoned client must refuse calls, got {other:?}"),
        }
    }
    match client.query(QueryPlan::records()) {
        Err(ClientError::Protocol(detail)) => assert!(detail.contains("reconnect"), "{detail}"),
        other => panic!("a poisoned client must refuse plans, got {other:?}"),
    }
    // A fresh connection to the same server works.
    let mut fresh = SirenClient::connect_with_timeout(addr, Duration::from_millis(400)).unwrap();
    assert_eq!(fresh.status().unwrap(), StatusInfo::default());
}
