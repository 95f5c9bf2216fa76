//! [`NetServer`]: a CDStore server behind a TCP listener.
//!
//! One `NetServer` wraps an `Arc<CdStoreServer>` and serves the full wire
//! protocol: a thread-per-connection accept loop (the server object itself
//! is `Send + Sync` and internally sharded, so connections run genuinely
//! concurrently), pipelined request handling (each connection answers
//! requests in arrival order, one response frame each, however many a peer
//! keeps in flight — `NetClient` keeps one), and graceful shutdown that
//! joins every connection thread. Every wait is a blocking `accept` or
//! `read`; shutdown ends them by closing what they wait on.

use std::io::{self, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use cdstore_core::server::GcConfig;
use cdstore_core::transport::ServerTransport;
use cdstore_core::{CdStoreError, CdStoreServer};
use cdstore_crypto::Fingerprint;

use crate::frame::{FrameError, FrameReader, Polled, MAX_FRAME_BYTES};
use crate::message::{decode_request, error_to_wire, response_frame, Request, Response};

/// A CDStore server listening on a TCP address.
pub struct NetServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` (use port 0 for an OS-assigned port) and starts serving
    /// `server` on a background accept loop.
    pub fn bind(server: Arc<CdStoreServer>, addr: impl ToSocketAddrs) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || accept_loop(listener, server, shutdown))
        };
        Ok(NetServer {
            addr,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, closes the read side of every connection, and
    /// returns once the listener is gone and every connection thread has
    /// exited. A request already being served gets its reply; an idle
    /// connection sees EOF at once.
    pub fn shutdown(&mut self) {
        let Some(accept_thread) = self.accept_thread.take() else {
            return;
        };
        self.shutdown.store(true, Ordering::SeqCst);
        // One connection to ourselves is the event the blocked `accept`
        // wakes on; a listener on the unspecified address is reached through
        // its family's loopback. If it cannot be made the loop already ended.
        let wake: SocketAddr = match self.addr {
            SocketAddr::V4(a) if a.ip().is_unspecified() => (Ipv4Addr::LOCALHOST, a.port()).into(),
            SocketAddr::V6(a) if a.ip().is_unspecified() => (Ipv6Addr::LOCALHOST, a.port()).into(),
            addr => addr,
        };
        let _ = TcpStream::connect(wake);
        let _ = accept_thread.join();
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, server: Arc<CdStoreServer>, shutdown: Arc<AtomicBool>) {
    // Each connection's thread, and a second handle on its socket to end
    // the thread's blocking read with.
    let mut connections: Vec<(JoinHandle<()>, TcpStream)> = Vec::new();
    while let Ok((stream, _peer)) = listener.accept() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(handle) = stream.try_clone() else {
            continue;
        };
        let server = Arc::clone(&server);
        let shutdown = Arc::clone(&shutdown);
        let thread = std::thread::spawn(move || {
            // A connection failing (corrupt frame, peer reset) only drops
            // that connection; the server keeps serving.
            let _ = serve_connection(&stream, &server, &shutdown);
            // The accept loop holds the other handle, so dropping this one
            // closes nothing: say so to the peer explicitly.
            let _ = stream.shutdown(Shutdown::Both);
        });
        connections.push((thread, handle));
        // Opportunistically reap finished connection threads so a
        // long-lived server does not accumulate handles.
        connections.retain(|(thread, _)| !thread.is_finished());
    }
    drop(listener);
    for (_, handle) in &connections {
        // A blocked read returns EOF; the write side stays open for the
        // reply of a request already being served.
        let _ = handle.shutdown(Shutdown::Read);
    }
    for (thread, _) in connections {
        let _ = thread.join();
    }
}

/// Serves one connection until the peer closes, a protocol violation, or
/// shutdown.
fn serve_connection(
    mut stream: &TcpStream,
    server: &CdStoreServer,
    shutdown: &AtomicBool,
) -> Result<(), FrameError> {
    // Small frames (queries, receipts) must not sit in Nagle buffers behind
    // an RTT: batching is done explicitly at the message layer.
    let _ = stream.set_nodelay(true);
    let mut reader = FrameReader::new();
    // Requests a peer pipelined before the read side closed are still
    // readable; the flag keeps them from holding a shutdown up.
    while !shutdown.load(Ordering::SeqCst) {
        let Polled::Frame(msg_type, payload) = reader.poll(&mut stream)? else {
            return Ok(()); // closed at a frame boundary
        };
        let Some((req_id, request)) = decode_request(msg_type, payload) else {
            let violation = format!("malformed request (type {msg_type:#04x})");
            return Err(FrameError::Corrupt(violation));
        };
        let response = handle_request(server, request);
        // A reply no frame can carry (a recipe past the cap, say) costs the
        // peer a typed error, like an oversized `FetchShares` below.
        let frame = response_frame(req_id, &response).or_else(|e| {
            let refusal = error_to_wire(&CdStoreError::InvalidConfig(e.to_string()));
            response_frame(req_id, &refusal)
        })?;
        stream.write_all(&frame)?;
    }
    Ok(())
}

/// Executes one request against the server.
fn handle_request(t: &CdStoreServer, request: Request) -> Response {
    fn or_err(result: Result<Response, CdStoreError>) -> Response {
        result.unwrap_or_else(|e| error_to_wire(&e))
    }
    match request {
        Request::Ping => Response::Pong {
            cloud_index: ServerTransport::cloud_index(t) as u32,
        },
        Request::IntraUserQuery { user, fingerprints } => {
            or_err(ServerTransport::intra_user_query(t, user, &fingerprints).map(Response::Bools))
        }
        Request::StoreShares { user, shares } => {
            or_err(ServerTransport::store_shares(t, user, &shares).map(Response::Receipt))
        }
        Request::PutFile {
            user,
            encoded_pathname,
            recipe,
            uploaded,
        } => or_err(
            ServerTransport::put_file(t, user, &encoded_pathname, &recipe, &uploaded)
                .map(|()| Response::Unit),
        ),
        Request::ReleaseUploads { user, fingerprints } => or_err(
            ServerTransport::release_uploads(t, user, &fingerprints).map(|()| Response::Unit),
        ),
        Request::HasFile {
            user,
            encoded_pathname,
        } => or_err(ServerTransport::has_file(t, user, &encoded_pathname).map(Response::Bool)),
        Request::GetRecipe {
            user,
            encoded_pathname,
        } => or_err(ServerTransport::get_recipe(t, user, &encoded_pathname).map(Response::Recipe)),
        Request::DeleteFile {
            user,
            encoded_pathname,
        } => or_err(ServerTransport::delete_file(t, user, &encoded_pathname).map(Response::Bool)),
        Request::FetchShares { user, fingerprints } => {
            or_err(fetch_shares_capped(t, user, &fingerprints).map(Response::Shares))
        }
        Request::Flush => or_err(ServerTransport::flush(t).map(|()| Response::Unit)),
        Request::Gc { dead_ratio_bits } => or_err(
            ServerTransport::gc_with(
                t,
                GcConfig {
                    dead_ratio: f64::from_bits(dead_ratio_bits),
                },
            )
            .map(Response::Gc),
        ),
        Request::Probe => or_err(ServerTransport::probe(t).map(Response::Probe)),
    }
}

/// `CdStoreServer::fetch_shares`, except that it stops reading shares as soon
/// as the `Shares` reply could no longer be framed: how many fingerprints a
/// peer sends is outside input, and an oversized reply must cost it a typed
/// error, not this server the memory.
fn fetch_shares_capped(
    server: &CdStoreServer,
    user: u64,
    fingerprints: &[Fingerprint],
) -> Result<Vec<Vec<u8>>, CdStoreError> {
    // version + type bytes, `req_id`, share count; then a length word a share.
    let mut frame_bytes = 2 + 8 + 4;
    let mut shares = Vec::with_capacity(fingerprints.len());
    for fp in fingerprints {
        let share = server.fetch_share(user, fp)?;
        frame_bytes += 4 + share.len();
        if frame_bytes > MAX_FRAME_BYTES {
            return Err(CdStoreError::InvalidConfig(
                "reply exceeds frame cap".into(),
            ));
        }
        shares.push(share);
    }
    Ok(shares)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_frame;
    use crate::message::request_frame;
    use cdstore_core::ShareMetadata;

    fn connect(server: &NetServer) -> TcpStream {
        TcpStream::connect(server.local_addr()).unwrap()
    }

    fn roundtrip(stream: &mut TcpStream, req_id: u64, req: &Request) -> (u64, Response) {
        stream
            .write_all(&request_frame(req_id, req).unwrap())
            .unwrap();
        match FrameReader::new().poll(&mut { &*stream }).unwrap() {
            Polled::Frame(mt, payload) => crate::message::decode_response(mt, payload).unwrap(),
            Polled::Closed => panic!("server closed the connection"),
        }
    }

    #[test]
    fn ping_reports_the_cloud_index() {
        let core = Arc::new(CdStoreServer::new(3));
        let mut server = NetServer::bind(core, "127.0.0.1:0").unwrap();
        let mut stream = connect(&server);
        let (req_id, resp) = roundtrip(&mut stream, 11, &Request::Ping);
        assert_eq!(req_id, 11);
        assert_eq!(resp, Response::Pong { cloud_index: 3 });
        server.shutdown();
    }

    #[test]
    fn malformed_frames_drop_the_connection_but_not_the_server() {
        let core = Arc::new(CdStoreServer::new(0));
        let mut server = NetServer::bind(core, "127.0.0.1:0").unwrap();
        {
            let mut bad = connect(&server);
            // Valid frame envelope, unknown message type.
            bad.write_all(&encode_frame(0x7f, &[0u8; 8])).unwrap();
            // The server must close this connection: the read ends, it does
            // not wait (the accept loop's second handle on the socket must
            // not keep it open).
            assert!(!matches!(
                FrameReader::new().poll(&mut { &bad }),
                Ok(Polled::Frame(..))
            ));
        }
        // A fresh connection still works.
        let mut good = connect(&server);
        let (_, resp) = roundtrip(&mut good, 1, &Request::Ping);
        assert!(matches!(resp, Response::Pong { .. }));
        server.shutdown();
    }

    /// How many fingerprints a peer puts in one `FetchShares` is its choice;
    /// a reply that cannot be framed must cost it a typed error — not the
    /// connection thread a panic — and the connection keeps serving.
    #[test]
    fn an_unframeable_fetch_reply_is_a_typed_error_not_a_dead_connection() {
        let core = Arc::new(CdStoreServer::new(0));
        let share = vec![0xabu8; 1 << 20];
        let fingerprint = Fingerprint::of(&share);
        let meta = ShareMetadata {
            fingerprint,
            share_size: share.len() as u32,
            secret_seq: 0,
            secret_size: share.len() as u32,
        };
        core.store_shares(7, &[(meta, share.clone())]).unwrap();
        let mut server = NetServer::bind(core, "127.0.0.1:0").unwrap();
        let mut stream = connect(&server);

        // 65 × 1 MiB of shares is past the 64 MiB frame cap.
        let too_many = vec![fingerprint; MAX_FRAME_BYTES / share.len() + 1];
        let (req_id, resp) = roundtrip(
            &mut stream,
            5,
            &Request::FetchShares {
                user: 7,
                fingerprints: too_many,
            },
        );
        assert_eq!(req_id, 5);
        match resp {
            Response::Err { code: 1, msg, .. } => assert!(msg.contains("frame cap"), "{msg}"),
            other => panic!("expected a typed InvalidConfig error, got {other:?}"),
        }

        // The same connection answers the next request...
        let (req_id, resp) = roundtrip(
            &mut stream,
            6,
            &Request::FetchShares {
                user: 7,
                fingerprints: vec![fingerprint; 2],
            },
        );
        assert_eq!(req_id, 6);
        assert_eq!(resp, Response::Shares(vec![share.clone(), share]));
        // ...and the server still accepts new ones.
        let (_, resp) = roundtrip(&mut connect(&server), 1, &Request::Ping);
        assert!(matches!(resp, Response::Pong { .. }));
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_and_refuses_new_traffic() {
        let core = Arc::new(CdStoreServer::new(0));
        let mut server = NetServer::bind(core, "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let mut stream = connect(&server);
        let (_, resp) = roundtrip(&mut stream, 1, &Request::Ping);
        assert!(matches!(resp, Response::Pong { .. }));
        server.shutdown();
        // After shutdown the port no longer accepts (the listener is gone);
        // allow for connect either failing outright or being reset on use.
        match TcpStream::connect(addr) {
            Err(_) => {}
            Ok(mut s) => {
                let _ = s.write_all(&request_frame(2, &Request::Ping).unwrap());
                if let Ok(Polled::Frame(..)) = FrameReader::new().poll(&mut { &s }) {
                    panic!("served after shutdown");
                }
            }
        }
    }
}
