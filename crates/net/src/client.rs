//! [`NetClient`]: a pipelining connection pool, and [`RemoteServer`], the
//! [`ServerTransport`] implementation that speaks the wire protocol.
//!
//! Each pooled connection has a dedicated reader thread that dispatches
//! responses to waiting callers by request id, so any number of client
//! threads can keep requests in flight on the same connection — pipelining,
//! not one-request-per-round-trip. Failures are contained per call: a
//! timeout or connection loss kills the link and the next call reconnects.
//!
//! **A request is put on the wire at most once per call.** Once its bytes may
//! have left, a transport failure says nothing about whether the server
//! applied it, and `PutFile`, `StoreShares` and `ReleaseUploads` move
//! reference counts: applied twice they lose or leak shares. The call fails
//! with [`CdStoreError::Remote`] at once; whether to try again is
//! [`cdstore_core::retry`]'s decision, made by callers that first roll back
//! (`ship_batch` releases and re-queries, the façade replays the operation).

use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::time::Duration;

use cdstore_core::server::{GcConfig, GcReport};
use cdstore_core::transport::{ServerProbe, ServerTransport, StoreReceipt};
use cdstore_core::{CdStoreError, FileRecipe, ShareMetadata};
use cdstore_crypto::Fingerprint;
use parking_lot::Mutex;

use crate::frame::{FrameError, FrameReader, Polled};
use crate::message::{
    decode_response, error_from_wire, request_frame, store_shares_frame, Request, Response,
};

/// Tuning knobs of a [`NetClient`].
#[derive(Debug, Clone)]
pub struct NetClientConfig {
    /// Pooled connections per server (each pipelines independently).
    pub connections: usize,
    /// Per-request timeout; expiry fails the call and kills the link.
    pub request_timeout: Duration,
    /// TCP connect timeout.
    pub connect_timeout: Duration,
}

impl Default for NetClientConfig {
    fn default() -> Self {
        NetClientConfig {
            connections: 2,
            request_timeout: Duration::from_secs(30),
            connect_timeout: Duration::from_secs(5),
        }
    }
}

/// One live connection: the write half plus the response-dispatch table
/// shared with its reader thread.
struct Link {
    stream: Mutex<TcpStream>,
    /// In-flight requests: req_id → channel to the waiting caller, removed
    /// at the request's single response.
    pending: Arc<Mutex<HashMap<u64, SyncSender<Response>>>>,
    dead: Arc<AtomicBool>,
}

impl Link {
    fn kill(&self) {
        self.dead.store(true, Ordering::SeqCst);
        let _ = self.stream.lock().shutdown(Shutdown::Both);
    }
}

impl Drop for Link {
    fn drop(&mut self) {
        // Close the socket for real (the reader thread holds a clone of the
        // handle) so the reader sees EOF and exits.
        self.kill();
    }
}

/// One pool slot; `None` until first use or after its link died.
struct Connection {
    link: Mutex<Option<Arc<Link>>>,
}

/// A pipelining RPC client for one CDStore server address.
pub struct NetClient {
    addr: SocketAddr,
    config: NetClientConfig,
    pool: Vec<Connection>,
    next_req_id: AtomicU64,
    next_conn: AtomicUsize,
}

fn remote_err(msg: impl std::fmt::Display) -> CdStoreError {
    CdStoreError::Remote(msg.to_string())
}

impl NetClient {
    /// Creates a client for the server at `addr`. Connections are opened
    /// lazily on first use.
    pub fn new(addr: impl ToSocketAddrs, config: NetClientConfig) -> Result<Self, CdStoreError> {
        let addr = addr
            .to_socket_addrs()
            .map_err(remote_err)?
            .next()
            .ok_or_else(|| remote_err("address resolved to nothing"))?;
        let pool = (0..config.connections.max(1))
            .map(|_| Connection {
                link: Mutex::new(None),
            })
            .collect();
        Ok(NetClient {
            addr,
            config,
            pool,
            next_req_id: AtomicU64::new(1),
            next_conn: AtomicUsize::new(0),
        })
    }

    /// The server address this client talks to.
    pub fn server_addr(&self) -> SocketAddr {
        self.addr
    }

    fn next_req_id(&self) -> u64 {
        self.next_req_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Returns a live link from the pool (round-robin), reconnecting the
    /// slot if its link is absent or dead — before anything is sent, so a
    /// reconnect is never a resend.
    fn link(&self) -> Result<Arc<Link>, CdStoreError> {
        let slot = &self.pool[self.next_conn.fetch_add(1, Ordering::Relaxed) % self.pool.len()];
        let mut guard = slot.link.lock();
        if let Some(link) = guard.as_ref() {
            if !link.dead.load(Ordering::SeqCst) {
                return Ok(Arc::clone(link));
            }
        }
        let stream = TcpStream::connect_timeout(&self.addr, self.config.connect_timeout)
            .map_err(|e| remote_err(format!("connect to {}: {e}", self.addr)))?;
        let _ = stream.set_nodelay(true);
        let read_half = stream.try_clone().map_err(remote_err)?;
        let pending: Arc<Mutex<HashMap<u64, SyncSender<Response>>>> =
            Arc::new(Mutex::new(HashMap::new()));
        let dead = Arc::new(AtomicBool::new(false));
        {
            let pending = Arc::clone(&pending);
            let dead = Arc::clone(&dead);
            std::thread::spawn(move || {
                reader_loop(read_half, &pending);
                // Whatever ended the loop (EOF, reset, corrupt frame): fail
                // every waiter by dropping its sender, and poison the link.
                dead.store(true, Ordering::SeqCst);
                pending.lock().clear();
            });
        }
        let link = Arc::new(Link {
            stream: Mutex::new(stream),
            pending,
            dead,
        });
        *guard = Some(Arc::clone(&link));
        Ok(link)
    }

    /// One RPC: the request goes out once and the call waits for its one
    /// response. A server-side error comes back as the decoded
    /// [`CdStoreError`], a transport failure as [`CdStoreError::Remote`]; a
    /// request too large to frame is [`CdStoreError::InvalidConfig`] before
    /// anything is sent.
    pub fn call(&self, req: &Request) -> Result<Response, CdStoreError> {
        self.call_framed(|req_id| request_frame(req_id, req))
    }

    /// [`NetClient::call`] over the request's sealed frame: registers a
    /// waiter, sends the frame in one `write_all` under the stream lock, and
    /// waits out the timeout.
    fn call_framed(
        &self,
        encode: impl FnOnce(u64) -> Result<Vec<u8>, FrameError>,
    ) -> Result<Response, CdStoreError> {
        let req_id = self.next_req_id();
        let frame = encode(req_id).map_err(|e| CdStoreError::InvalidConfig(e.to_string()))?;
        let link = self.link()?;
        // One response per request: a depth of one never blocks the reader.
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        link.pending.lock().insert(req_id, tx);
        let write_result = link.stream.lock().write_all(&frame);
        if let Err(e) = write_result {
            link.pending.lock().remove(&req_id);
            link.kill();
            return Err(remote_err(format!("send: {e}")));
        }
        match rx.recv_timeout(self.config.request_timeout) {
            Ok(Response::Err {
                code,
                needed,
                available,
                msg,
            }) => Err(error_from_wire(code, needed, available, msg)),
            Ok(resp) => Ok(resp),
            Err(RecvTimeoutError::Timeout) => {
                link.pending.lock().remove(&req_id);
                link.kill();
                Err(remote_err(format!(
                    "request timed out after {:?}",
                    self.config.request_timeout
                )))
            }
            Err(RecvTimeoutError::Disconnected) => {
                Err(remote_err("connection lost awaiting response"))
            }
        }
    }
}

/// Dispatches responses to waiting callers until the stream dies.
fn reader_loop(mut stream: TcpStream, pending: &Mutex<HashMap<u64, SyncSender<Response>>>) {
    let mut reader = FrameReader::new();
    while let Ok(Polled::Frame(msg_type, payload)) = reader.poll(&mut stream) {
        let Some((req_id, resp)) = decode_response(msg_type, payload) else {
            return; // protocol violation: poison the link
        };
        // A response nobody waits for (timed-out caller, or a second
        // answer to one request) is dropped.
        let waiter = pending.lock().remove(&req_id);
        if let Some(tx) = waiter {
            let _ = tx.send(resp);
        }
    }
}

/// A remote CDStore server as a [`ServerTransport`]: the networked
/// counterpart of handing a [`cdstore_core::CdStoreServer`] to a client.
pub struct RemoteServer {
    cloud_index: usize,
    client: NetClient,
}

impl RemoteServer {
    /// Connects to the server at `addr` and learns its cloud index with an
    /// initial ping (which also validates protocol compatibility).
    pub fn connect(
        addr: impl ToSocketAddrs,
        config: NetClientConfig,
    ) -> Result<Self, CdStoreError> {
        let client = NetClient::new(addr, config)?;
        match client.call(&Request::Ping)? {
            Response::Pong { cloud_index } => Ok(RemoteServer {
                cloud_index: cloud_index as usize,
                client,
            }),
            other => Err(remote_err(format!("bad ping response: {other:?}"))),
        }
    }

    /// The underlying RPC client.
    pub fn client(&self) -> &NetClient {
        &self.client
    }
}

fn expect_unit(resp: Response) -> Result<(), CdStoreError> {
    match resp {
        Response::Unit => Ok(()),
        other => Err(remote_err(format!("expected unit response, got {other:?}"))),
    }
}

impl ServerTransport for RemoteServer {
    fn cloud_index(&self) -> usize {
        self.cloud_index
    }

    fn intra_user_query(
        &self,
        user: u64,
        fingerprints: &[Fingerprint],
    ) -> Result<Vec<bool>, CdStoreError> {
        match self.client.call(&Request::IntraUserQuery {
            user,
            fingerprints: fingerprints.to_vec(),
        })? {
            Response::Bools(bools) if bools.len() == fingerprints.len() => Ok(bools),
            other => Err(remote_err(format!("bad intra-user reply: {other:?}"))),
        }
    }

    fn store_shares(
        &self,
        user: u64,
        shares: &[(ShareMetadata, Vec<u8>)],
    ) -> Result<StoreReceipt, CdStoreError> {
        // Encoded from the borrowed batch: no owned `Request` in between.
        match self
            .client
            .call_framed(|req_id| store_shares_frame(req_id, user, shares))?
        {
            Response::Receipt(receipt) if receipt.verdicts.len() == shares.len() => Ok(receipt),
            other => Err(remote_err(format!("bad store reply: {other:?}"))),
        }
    }

    fn put_file(
        &self,
        user: u64,
        encoded_pathname: &[u8],
        recipe: &FileRecipe,
        uploaded: &[Fingerprint],
    ) -> Result<(), CdStoreError> {
        expect_unit(self.client.call(&Request::PutFile {
            user,
            encoded_pathname: encoded_pathname.to_vec(),
            recipe: recipe.clone(),
            uploaded: uploaded.to_vec(),
        })?)
    }

    fn release_uploads(&self, user: u64, fingerprints: &[Fingerprint]) -> Result<(), CdStoreError> {
        expect_unit(self.client.call(&Request::ReleaseUploads {
            user,
            fingerprints: fingerprints.to_vec(),
        })?)
    }

    fn has_file(&self, user: u64, encoded_pathname: &[u8]) -> Result<bool, CdStoreError> {
        match self.client.call(&Request::HasFile {
            user,
            encoded_pathname: encoded_pathname.to_vec(),
        })? {
            Response::Bool(b) => Ok(b),
            other => Err(remote_err(format!("bad has-file reply: {other:?}"))),
        }
    }

    fn get_recipe(&self, user: u64, encoded_pathname: &[u8]) -> Result<FileRecipe, CdStoreError> {
        match self.client.call(&Request::GetRecipe {
            user,
            encoded_pathname: encoded_pathname.to_vec(),
        })? {
            Response::Recipe(recipe) => Ok(recipe),
            other => Err(remote_err(format!("bad recipe reply: {other:?}"))),
        }
    }

    fn delete_file(&self, user: u64, encoded_pathname: &[u8]) -> Result<bool, CdStoreError> {
        match self.client.call(&Request::DeleteFile {
            user,
            encoded_pathname: encoded_pathname.to_vec(),
        })? {
            Response::Bool(b) => Ok(b),
            other => Err(remote_err(format!("bad delete reply: {other:?}"))),
        }
    }

    fn fetch_shares(
        &self,
        user: u64,
        fingerprints: &[Fingerprint],
    ) -> Result<Vec<Vec<u8>>, CdStoreError> {
        // One request, one reply frame. The caller bounds the reply by how
        // much it asks for (`download_stream` plans its windows by bytes);
        // the server answers a typed error rather than exceed the frame cap.
        match self.client.call(&Request::FetchShares {
            user,
            fingerprints: fingerprints.to_vec(),
        })? {
            Response::Shares(shares) if shares.len() == fingerprints.len() => Ok(shares),
            other => Err(remote_err(format!("bad fetch reply: {other:?}"))),
        }
    }

    fn flush(&self) -> Result<(), CdStoreError> {
        expect_unit(self.client.call(&Request::Flush)?)
    }

    fn gc_with(&self, config: GcConfig) -> Result<GcReport, CdStoreError> {
        match self.client.call(&Request::Gc {
            dead_ratio_bits: config.dead_ratio.to_bits(),
        })? {
            Response::Gc(report) => Ok(report),
            other => Err(remote_err(format!("bad gc reply: {other:?}"))),
        }
    }

    fn probe(&self) -> Result<ServerProbe, CdStoreError> {
        match self.client.call(&Request::Probe)? {
            Response::Probe(probe) => Ok(probe),
            other => Err(remote_err(format!("bad probe reply: {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connecting_to_a_dead_port_is_a_remote_error_not_a_hang() {
        // Bind-then-drop leaves a port with nothing listening.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let config = NetClientConfig {
            connect_timeout: Duration::from_millis(500),
            ..NetClientConfig::default()
        };
        match RemoteServer::connect(addr, config) {
            Err(CdStoreError::Remote(_)) => {}
            Err(other) => panic!("expected Remote error, got {other}"),
            Ok(_) => panic!("connected to a dead port"),
        }
    }

    /// Shutdown and restart wait on events, never on a clock or a retry:
    /// eight connections blocked in `read` do not hold a shutdown up, each
    /// hears of it, the freed address binds again at once (`restart` makes
    /// one attempt) and every slot's next call reconnects before it sends.
    #[test]
    fn restarts_under_idle_connections_neither_wait_nor_retry() {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let body = std::thread::spawn(move || {
            let mut cluster = crate::cluster::LoopbackCluster::spawn(1).unwrap();
            let config = NetClientConfig {
                connections: 8,
                ..NetClientConfig::default()
            };
            let remote = cluster.transports(config).unwrap().pop().unwrap();
            let slots = &remote.client.pool;
            for round in 0..200 {
                // One call a slot: each replaces the link the last restart
                // killed, and none fails.
                for _ in slots {
                    remote.probe().unwrap();
                }
                let links: Vec<_> = (slots.iter())
                    .map(|s| s.link.lock().clone().expect("every slot is open"))
                    .collect();
                cluster
                    .restart(0)
                    .unwrap_or_else(|e| panic!("restart {round}: {e}"));
                // The event each link gets: its reader thread reads EOF.
                for link in &links {
                    while !link.dead.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                }
            }
            let _ = done_tx.send(());
        });
        // A wait that lost its event must fail the suite, not hang it.
        match done_rx.recv_timeout(Duration::from_secs(30)) {
            Err(RecvTimeoutError::Timeout) => panic!("still waiting after 30 s"),
            _ => body.join().expect("restart loop panicked"),
        }
    }

    /// A request no frame can carry is refused before a byte is written —
    /// at the parent `encode_frame` asserted while `send` held the stream
    /// lock — and costs the link nothing.
    #[test]
    fn an_unframeable_request_is_a_typed_error_and_the_link_survives() {
        use crate::frame::MAX_FRAME_BYTES;
        let cluster = crate::cluster::LoopbackCluster::spawn(1).unwrap();
        let config = NetClientConfig {
            connections: 1,
            ..NetClientConfig::default()
        };
        let remote = cluster.transports(config).unwrap().pop().unwrap();
        let link_before = remote.client.pool[0].link.lock().clone().unwrap();

        let share = |bytes: Vec<u8>| {
            let meta = ShareMetadata {
                fingerprint: Fingerprint::of(&bytes[..bytes.len().min(64)]),
                share_size: bytes.len() as u32,
                secret_seq: 0,
                secret_size: bytes.len() as u32,
            };
            (meta, bytes)
        };
        match remote.store_shares(7, &[share(vec![0xab; MAX_FRAME_BYTES + 1])]) {
            Err(CdStoreError::InvalidConfig(msg)) => assert!(msg.contains("frame cap"), "{msg}"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }

        let receipt = remote.store_shares(7, &[share(vec![0xcd; 4096])]).unwrap();
        assert_eq!(receipt.verdicts.len(), 1);
        let link_after = remote.client.pool[0].link.lock().clone().unwrap();
        assert!(Arc::ptr_eq(&link_before, &link_after), "link was replaced");
        assert!(!link_after.dead.load(Ordering::SeqCst));
    }
}
