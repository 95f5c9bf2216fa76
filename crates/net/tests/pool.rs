//! The client's connection pool, through real sockets: one call in flight
//! per socket, at most `connections` sockets, a reply checked against its
//! request's id, and a socket that failed a call never carries another.

use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cdstore_core::{CdStoreError, ServerTransport};
use cdstore_net::frame::{encode_frame, FrameReader, Polled};
use cdstore_net::message::{decode_request, encode_response};
use cdstore_net::{LoopbackCluster, NetClient, NetClientConfig, RemoteServer, Request, Response};

/// Where a test parks a receiver to hold the proxy's next reply until the
/// sender is dropped.
type Hold = Arc<Mutex<Option<Receiver<()>>>>;

/// A TCP proxy in front of `upstream`, counting the connections it accepts.
/// Requests pass verbatim and replies frame by frame, the next one held
/// while a receiver is parked in the returned slot.
fn proxy(upstream: SocketAddr) -> (SocketAddr, Arc<AtomicUsize>, Hold) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let accepted = Arc::new(AtomicUsize::new(0));
    let hold = Hold::default();
    let (count, slot) = (Arc::clone(&accepted), Arc::clone(&hold));
    // The threads end with their sockets, the listener's with the process.
    std::thread::spawn(move || {
        for client in listener.incoming().flatten() {
            accepted.fetch_add(1, SeqCst);
            let server = TcpStream::connect(upstream).unwrap();
            let (mut from, mut to) = (client.try_clone().unwrap(), server.try_clone().unwrap());
            std::thread::spawn(move || {
                let _ = std::io::copy(&mut from, &mut to);
                let _ = to.shutdown(Shutdown::Write);
            });
            let hold = Arc::clone(&hold);
            std::thread::spawn(move || {
                let mut reader = FrameReader::new();
                while let Ok(Polled::Frame(msg_type, payload)) = reader.poll(&mut &server) {
                    let held = hold.lock().unwrap().take();
                    if let Some(release) = held {
                        let _ = release.recv();
                    }
                    if (&client)
                        .write_all(&encode_frame(msg_type, payload))
                        .is_err()
                    {
                        break;
                    }
                }
                let _ = server.shutdown(Shutdown::Both);
                let _ = client.shutdown(Shutdown::Both);
            });
        }
    });
    (addr, count, slot)
}

/// Eight threads share one transport capped at two sockets: every call gets
/// a socket of its own in turn, and the server never sees a third.
#[test]
fn concurrent_callers_share_at_most_connections_sockets() {
    let cluster = LoopbackCluster::spawn(1).unwrap();
    let (addr, accepted, _) = proxy(cluster.addrs()[0]);
    let config = NetClientConfig {
        connections: 2,
        ..NetClientConfig::default()
    };
    let remote = RemoteServer::connect(addr, config).unwrap();
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                for _ in 0..200 {
                    remote.probe().expect("probe through a shared pool");
                }
            });
        }
    });
    let opened = accepted.load(SeqCst);
    assert!(
        (1..=2).contains(&opened),
        "{opened} connections for a cap of 2"
    );
}

/// A call that times out closes its socket: the late reply is never read as
/// the next call's.
#[test]
fn a_timed_out_call_drops_its_socket_and_the_next_call_gets_its_own_reply() {
    let cluster = LoopbackCluster::spawn(1).unwrap();
    let (addr, accepted, hold) = proxy(cluster.addrs()[0]);
    let config = NetClientConfig {
        connections: 1,
        request_timeout: Duration::from_millis(300),
        ..NetClientConfig::default()
    };
    let remote = RemoteServer::connect(addr, config).unwrap();

    let (release, held) = channel();
    *hold.lock().unwrap() = Some(held);
    match remote.probe() {
        Err(CdStoreError::Remote(msg)) => assert!(msg.contains("timed out"), "{msg}"),
        other => panic!("expected a timeout, got {other:?}"),
    }
    // While the first reply is still held, the next calls are answered on a
    // new socket — a probe among them, which the held reply would pass for
    // but for its id.
    assert!(!remote.has_file(7, b"/pool/missing").unwrap());
    remote.probe().unwrap();
    assert_eq!(accepted.load(SeqCst), 2, "one reconnect after the timeout");
    drop(release);
}

/// A reply carrying another request's id is a protocol violation, failed at
/// once — not a wait for a reply that will never come.
#[test]
fn a_reply_to_another_request_fails_the_call_at_once() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = FrameReader::new();
        while let Ok(Polled::Frame(msg_type, payload)) = reader.poll(&mut &stream) {
            let (req_id, _) = decode_request(msg_type, payload).unwrap();
            let (msg_type, payload) =
                encode_response(req_id + 1, &Response::Pong { cloud_index: 0 });
            if (&stream)
                .write_all(&encode_frame(msg_type, &payload))
                .is_err()
            {
                break;
            }
        }
    });
    let client = NetClient::new(
        addr,
        NetClientConfig {
            request_timeout: Duration::from_secs(5),
            ..NetClientConfig::default()
        },
    )
    .unwrap();
    let start = Instant::now();
    match client.call(&Request::Ping) {
        Err(CdStoreError::Remote(msg)) => assert!(msg.contains("protocol violation"), "{msg}"),
        other => panic!("expected a protocol violation, got {other:?}"),
    }
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "took {:?}",
        start.elapsed()
    );
}
