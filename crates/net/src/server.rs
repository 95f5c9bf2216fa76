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

use crate::frame::{FrameError, FrameReader, Polled};
use crate::message::{
    decode_request, error_to_wire, response_frame, Request, Response, SharesReply,
};

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
        // A reply no frame can carry (a recipe past the cap, say) costs the
        // peer a typed error, like an oversized `FetchShares`.
        let frame = reply_frame(server, req_id, request)
            .or_else(|e| response_frame(req_id, &error_to_wire(&e)))?;
        stream.write_all(&frame)?;
    }
    Ok(())
}

/// Executes one request against the server and frames its reply.
fn reply_frame(t: &CdStoreServer, req_id: u64, request: Request) -> Result<Vec<u8>, CdStoreError> {
    let response = match request {
        Request::Ping => Response::Pong {
            cloud_index: t.cloud_index() as u32,
        },
        Request::IntraUserQuery { user, fingerprints } => {
            Response::Bools(t.intra_user_query(user, &fingerprints)?)
        }
        Request::StoreShares { user, shares } => Response::Receipt(t.store_shares(user, &shares)?),
        Request::PutFile {
            user,
            shares,
            encoded_pathname,
            recipe,
            uploaded,
        } => Response::Receipt(t.commit_file(
            user,
            &encoded_pathname,
            &shares,
            &recipe,
            &uploaded,
        )?),
        Request::ReleaseUploads { user, fingerprints } => {
            t.release_uploads(user, &fingerprints)?;
            Response::Unit
        }
        Request::GetRecipe {
            user,
            encoded_pathname,
            max_secrets,
            max_secret_bytes,
        } => {
            // `ServerTransport::open_file`, framed as the shares are read:
            // the recipe travels ahead of the first window's shares.
            let recipe = t.get_recipe(user, &encoded_pathname)?;
            let first = recipe.window_len(0, max_secrets as usize, max_secret_bytes);
            let fingerprints = recipe.fingerprints(0..first);
            return shares_reply(t, req_id, user, &fingerprints, Some(&recipe.to_bytes()));
        }
        Request::DeleteFile {
            user,
            encoded_pathname,
        } => Response::Bool(t.delete_file(user, &encoded_pathname)?),
        Request::FetchShares { user, fingerprints } => {
            return shares_reply(t, req_id, user, &fingerprints, None);
        }
        Request::Flush => {
            t.flush()?;
            Response::Unit
        }
        Request::Gc { dead_ratio_bits } => {
            let dead_ratio = f64::from_bits(dead_ratio_bits);
            Response::Gc(t.gc_with(GcConfig { dead_ratio })?)
        }
        Request::Probe => Response::Probe(t.probe()?),
    };
    response_frame(req_id, &response).map_err(frame_refusal)
}

/// The `Shares` reply to `fingerprints` — or, led by `recipe`, the `Recipe`
/// reply — written share by share from the containers into one frame of
/// its exact size. How many fingerprints a peer sends is outside input, so
/// a reply that could not be framed is refused before a share is read: it
/// costs the peer a typed error, not this server the memory.
fn shares_reply(
    server: &CdStoreServer,
    req_id: u64,
    user: u64,
    fingerprints: &[Fingerprint],
    recipe: Option<&[u8]>,
) -> Result<Vec<u8>, CdStoreError> {
    let too_large = || CdStoreError::InvalidConfig("reply exceeds frame cap".into());
    let room =
        SharesReply::room(recipe.map(<[u8]>::len), fingerprints.len()).ok_or_else(too_large)?;
    let mut reply = None;
    let slot = &mut reply;
    let fits = server.fetch_shares_within(user, fingerprints, room as u64, move |bytes| {
        let reply = slot.insert(SharesReply::open(
            req_id,
            recipe,
            fingerprints.len(),
            bytes as usize,
        ));
        move |share: &[u8]| reply.push(share)
    })?;
    match reply {
        Some(reply) if fits => reply.seal().map_err(frame_refusal),
        _ => Err(too_large()),
    }
}

/// The typed error a reply that no frame can carry costs the peer.
fn frame_refusal(e: FrameError) -> CdStoreError {
    CdStoreError::InvalidConfig(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_frame, MAX_FRAME_BYTES};
    use crate::message::request_frame;
    use cdstore_core::{FileRecipe, RecipeEntry, ShareMetadata};

    /// A share of `len` bytes of `byte`, with its metadata.
    fn share(byte: u8, len: usize) -> (ShareMetadata, Vec<u8>) {
        let data = vec![byte; len];
        let meta = ShareMetadata {
            fingerprint: Fingerprint::of(&data),
            share_size: len as u32,
            secret_seq: 0,
            secret_size: 3 * len as u32,
        };
        (meta, data)
    }

    /// User 1's shares in two sealed containers and the open one, and a
    /// file `/window` whose recipe walks across all three and back.
    fn three_containers() -> (CdStoreServer, FileRecipe) {
        let core = CdStoreServer::new(0);
        let mut order = Vec::new();
        for container in 0..3u8 {
            let shares: Vec<_> = (0..3)
                .map(|i| share(16 * container + i, 700 + 90 * i as usize))
                .collect();
            core.store_shares(1, &shares).unwrap();
            if container < 2 {
                core.flush().unwrap(); // seals it
            }
            order.push(shares);
        }
        let entries = [
            (0, 0),
            (1, 0),
            (2, 0),
            (0, 1),
            (0, 2),
            (2, 1),
            (1, 1),
            (1, 2),
            (2, 2),
            (0, 0),
        ]
        .map(|(c, i): (usize, usize)| RecipeEntry {
            share_fingerprint: order[c][i].0.fingerprint,
            secret_size: order[c][i].0.secret_size,
        });
        let recipe = FileRecipe {
            file_size: entries.iter().map(|e| u64::from(e.secret_size)).sum(),
            entries: entries.to_vec(),
        };
        core.commit_file(1, b"/window", &[], &recipe, &[]).unwrap();
        (core, recipe)
    }

    /// `FetchShares` and `GetRecipe` replies framed straight from the
    /// containers are byte for byte the frames of the collected responses,
    /// and count the same served bytes.
    #[test]
    fn direct_replies_are_the_frames_of_the_collected_responses() {
        let (core, recipe) = three_containers();
        let fps = recipe.fingerprints(0..recipe.entries.len());
        let served = |core: &CdStoreServer| core.probe().unwrap().stats.served_share_bytes;

        let shares = core.fetch_shares(1, &fps).unwrap();
        let before = served(&core);
        let direct = reply_frame(
            &core,
            9,
            Request::FetchShares {
                user: 1,
                fingerprints: fps.clone(),
            },
        )
        .unwrap();
        assert_eq!(
            direct,
            response_frame(9, &Response::Shares(shares.clone())).unwrap()
        );
        let bytes: usize = shares.iter().map(Vec::len).sum();
        assert_eq!(served(&core) - before, bytes as u64);

        for (max_secrets, window) in [(0, 0), (4, 4), (u32::MAX, fps.len())] {
            let open = Request::GetRecipe {
                user: 1,
                encoded_pathname: b"/window".to_vec(),
                max_secrets,
                max_secret_bytes: u64::MAX,
            };
            let collected = Response::Recipe {
                recipe: recipe.clone(),
                shares: shares[..window].to_vec(),
            };
            assert_eq!(
                reply_frame(&core, 10, open).unwrap(),
                response_frame(10, &collected).unwrap(),
                "first window of {window}"
            );
        }
    }

    /// An unowned fingerprint and an over-cap window are today's typed
    /// errors, and the over-cap one reads no share.
    #[test]
    fn direct_replies_refuse_as_the_collected_ones_did() {
        let (core, recipe) = three_containers();
        let mut fps = recipe.fingerprints(0..recipe.entries.len());
        let before = core.probe().unwrap().stats.served_share_bytes;
        let fetch =
            |user, fingerprints| reply_frame(&core, 1, Request::FetchShares { user, fingerprints });
        assert!(matches!(
            fetch(2, fps.clone()),
            Err(CdStoreError::MissingShare(_))
        ));
        fps.push(Fingerprint::of(b"never stored"));
        assert!(matches!(fetch(1, fps), Err(CdStoreError::MissingShare(_))));

        let big = share(0xee, 1 << 20);
        core.store_shares(1, std::slice::from_ref(&big)).unwrap();
        let too_many = vec![big.0.fingerprint; MAX_FRAME_BYTES / big.1.len() + 1];
        match fetch(1, too_many) {
            Err(CdStoreError::InvalidConfig(msg)) => assert!(msg.contains("frame cap"), "{msg}"),
            other => panic!("expected a typed InvalidConfig error, got {other:?}"),
        }
        assert_eq!(core.probe().unwrap().stats.served_share_bytes, before);
    }

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

    /// A `PutFile` that frames and checksums fine but whose recipe announces
    /// 2^62 entries in 16 bytes is malformed: the connection is dropped — it
    /// reads EOF, not a hang behind a dead connection thread — and the
    /// server keeps answering.
    #[test]
    fn a_put_file_with_a_hostile_recipe_drops_only_its_connection() {
        use crate::wire::WireWriter;
        let core = Arc::new(CdStoreServer::new(0));
        let mut server = NetServer::bind(core, "127.0.0.1:0").unwrap();
        let mut recipe = [0u8; 16];
        recipe[8..].copy_from_slice(&(1u64 << 62).to_be_bytes());
        let mut w = WireWriter::new();
        w.u64(1); // req_id
        w.u64(7); // user
        w.u32(0); // an empty last batch
        w.bytes(b"/hostile");
        w.bytes(&recipe);
        w.u32(0); // nothing uploaded earlier
        let mut bad = connect(&server);
        bad.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        bad.write_all(&encode_frame(0x04, &w.finish())).unwrap();
        assert!(matches!(
            FrameReader::new().poll(&mut { &bad }),
            Ok(Polled::Closed)
        ));
        let (_, resp) = roundtrip(&mut connect(&server), 2, &Request::Ping);
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

    /// A `GetRecipe`'s first window is cut by the peer's bounds, so the
    /// frame cap holds over the recipe and its shares together: a window
    /// past it is a typed error, and the connection serves a smaller one.
    #[test]
    fn an_unframeable_first_window_is_a_typed_error_not_a_dead_connection() {
        let core = Arc::new(CdStoreServer::new(0));
        let share = vec![0xcdu8; 1 << 20];
        let fingerprint = Fingerprint::of(&share);
        let meta = ShareMetadata {
            fingerprint,
            share_size: share.len() as u32,
            secret_seq: 0,
            secret_size: 3 << 20,
        };
        // 65 secrets whose shares on this cloud are one 1 MiB share.
        let entries = MAX_FRAME_BYTES / share.len() + 1;
        let recipe = cdstore_core::FileRecipe {
            file_size: (entries as u64) << 20,
            entries: vec![
                cdstore_core::RecipeEntry {
                    share_fingerprint: fingerprint,
                    secret_size: 3 << 20,
                };
                entries
            ],
        };
        core.commit_file(7, b"/big", &[(meta, share.clone())], &recipe, &[])
            .unwrap();
        let mut server = NetServer::bind(core, "127.0.0.1:0").unwrap();
        let mut stream = connect(&server);
        let open = |max_secrets| Request::GetRecipe {
            user: 7,
            encoded_pathname: b"/big".to_vec(),
            max_secrets,
            max_secret_bytes: u64::MAX,
        };

        match roundtrip(&mut stream, 1, &open(u32::MAX)).1 {
            Response::Err { code: 1, msg, .. } => assert!(msg.contains("frame cap"), "{msg}"),
            other => panic!("expected a typed InvalidConfig error, got {other:?}"),
        }
        let (req_id, resp) = roundtrip(&mut stream, 2, &open(2));
        assert_eq!(req_id, 2);
        assert_eq!(
            resp,
            Response::Recipe {
                recipe: recipe.clone(),
                shares: vec![share.clone(), share]
            }
        );
        let (_, resp) = roundtrip(&mut stream, 3, &open(0));
        assert_eq!(
            resp,
            Response::Recipe {
                recipe,
                shares: vec![]
            }
        );
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
