//! [`NetServer`]: a CDStore server behind a TCP listener.
//!
//! One `NetServer` wraps an `Arc<CdStoreServer>` and serves the full wire
//! protocol: a thread-per-connection accept loop (the server object itself
//! is `Send + Sync` and internally sharded, so connections run genuinely
//! concurrently), pipelined request handling (each connection answers
//! requests in arrival order, one response frame each, but the client may
//! keep many in flight), and graceful shutdown that joins every connection
//! thread.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use cdstore_core::server::GcConfig;
use cdstore_core::transport::ServerTransport;
use cdstore_core::{CdStoreError, CdStoreServer};
use cdstore_crypto::Fingerprint;

use crate::frame::{FrameError, FrameReader, Polled, MAX_FRAME_BYTES};
use crate::message::{decode_request, error_to_wire, response_frame, Request, Response};

/// How often a blocked connection read wakes up to check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

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
        // Non-blocking accept polled on an interval: shutdown then needs no
        // self-connect trick to unwedge a blocking accept.
        listener.set_nonblocking(true)?;
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

    /// Stops accepting, drains every connection thread, and returns once all
    /// of them have exited. In-flight requests complete; idle connections
    /// close at their next poll tick.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, server: Arc<CdStoreServer>, shutdown: Arc<AtomicBool>) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let server = Arc::clone(&server);
                let shutdown = Arc::clone(&shutdown);
                connections.push(std::thread::spawn(move || {
                    // A connection failing (corrupt frame, peer reset) only
                    // drops that connection; the server keeps serving.
                    let _ = serve_connection(stream, server, shutdown);
                }));
                // Opportunistically reap finished connection threads so a
                // long-lived server does not accumulate handles.
                connections.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(_) => break,
        }
    }
    for handle in connections {
        let _ = handle.join();
    }
}

/// Serves one connection until the peer closes, a protocol violation, or
/// shutdown.
fn serve_connection(
    stream: TcpStream,
    server: Arc<CdStoreServer>,
    shutdown: Arc<AtomicBool>,
) -> Result<(), FrameError> {
    // Small frames (queries, receipts) must not sit in Nagle buffers behind
    // an RTT: batching is done explicitly at the message layer.
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    let mut reader = FrameReader::new();
    loop {
        let (req_id, request) = match reader.poll(&mut { &stream })? {
            Polled::Frame(msg_type, payload) => match decode_request(msg_type, payload) {
                Some(decoded) => decoded,
                None => {
                    return Err(FrameError::Corrupt(format!(
                        "malformed request (type {msg_type:#04x})"
                    )))
                }
            },
            Polled::Idle => {
                if shutdown.load(Ordering::SeqCst) {
                    return Ok(());
                }
                continue;
            }
            Polled::Closed => return Ok(()),
        };
        let response = handle_request(&server, request);
        // A reply no frame can carry (a recipe past the cap, say) costs the
        // peer a typed error, like an oversized `FetchShares` below.
        let frame = response_frame(req_id, &response).or_else(|e| {
            let refusal = error_to_wire(&CdStoreError::InvalidConfig(e.to_string()));
            response_frame(req_id, &refusal)
        })?;
        (&stream).write_all(&frame)?;
    }
}

/// Executes one request against the server.
fn handle_request(server: &Arc<CdStoreServer>, request: Request) -> Response {
    fn or_err(result: Result<Response, CdStoreError>) -> Response {
        result.unwrap_or_else(|e| error_to_wire(&e))
    }
    let t: &CdStoreServer = server;
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
        let mut reader = FrameReader::new();
        loop {
            match reader.poll(&mut { &*stream }).unwrap() {
                Polled::Frame(mt, payload) => {
                    return crate::message::decode_response(mt, payload).unwrap()
                }
                Polled::Idle => continue,
                Polled::Closed => panic!("server closed the connection"),
            }
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
            // The server must close this connection.
            let mut reader = FrameReader::new();
            loop {
                match reader.poll(&mut { &bad }) {
                    Ok(Polled::Closed) | Err(_) => break,
                    Ok(Polled::Idle) | Ok(Polled::Frame(..)) => continue,
                }
            }
            let _ = bad.flush();
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
                let mut reader = FrameReader::new();
                loop {
                    match reader.poll(&mut { &s }) {
                        Ok(Polled::Closed) | Err(_) => break,
                        Ok(Polled::Frame(..)) => panic!("served after shutdown"),
                        Ok(Polled::Idle) => continue,
                    }
                }
            }
        }
    }
}
