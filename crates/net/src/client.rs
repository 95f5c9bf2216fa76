//! [`NetClient`]: a pool of blocking sockets, one call in flight on each,
//! and [`RemoteServer`], the [`ServerTransport`] it powers.
//!
//! A call takes a socket from the pool, writes its request frame and reads
//! the reply on its own thread, checking the reply's id. At most
//! [`NetClientConfig::connections`] sockets are open; a caller finding none
//! idle opens one under the cap or waits for one. An idle socket is checked
//! for a peer close before reuse, so a server restart costs a reconnect
//! before anything is sent; a call that fails in any way closes its socket.
//!
//! **A request is put on the wire at most once per call.** Once its bytes may
//! have left, a transport failure says nothing about whether the server
//! applied it, and `PutFile`, `StoreShares` and `ReleaseUploads` move
//! reference counts: applied twice they lose or leak shares. The call fails
//! with [`CdStoreError::Remote`] at once; whether to try again is
//! [`cdstore_core::retry`]'s decision, made by callers that first roll back
//! (the upload committer releases and re-queries a batch, the façade replays
//! the operation).

use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use cdstore_core::server::{GcConfig, GcReport};
use cdstore_core::transport::{ServerProbe, ServerTransport, StoreReceipt};
use cdstore_core::{CdStoreError, FileRecipe, ShareMetadata};
use cdstore_crypto::Fingerprint;

use crate::frame::{FrameError, FrameReader, Polled};
use crate::message::{
    decode_response, error_from_wire, put_file_frame, request_frame, store_shares_frame, Request,
    Response,
};

/// Tuning knobs of a [`NetClient`].
#[derive(Debug, Clone)]
pub struct NetClientConfig {
    /// Most sockets open to the server at once — and so most calls in
    /// flight, one per socket. Each is a connection thread on the server.
    pub connections: usize,
    /// The sockets' read timeout (non-zero): a reply that stops arriving for
    /// this long fails its call and closes its socket.
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

/// One connection, with the reader its replies are framed by.
struct Socket {
    stream: TcpStream,
    reader: FrameReader,
}

impl Socket {
    /// Whether an idle socket can carry a call: nothing to read and no close
    /// from the peer (`WouldBlock` on a non-blocking peek). EOF, unasked-for
    /// bytes or an error mean it cannot.
    fn is_reusable(&self) -> bool {
        let mut byte = [0u8; 1];
        self.stream.set_nonblocking(true).is_ok()
            && matches!(self.stream.peek(&mut byte), Err(e) if e.kind() == ErrorKind::WouldBlock)
            && self.stream.set_nonblocking(false).is_ok()
    }

    /// Sends one request frame and reads its reply. Any error leaves the
    /// socket unfit for another call.
    fn exchange(&mut self, req_id: u64, frame: &[u8]) -> Result<Response, CdStoreError> {
        (&self.stream)
            .write_all(frame)
            .map_err(|e| remote_err(format!("send: {e}")))?;
        match self.reader.poll(&mut &self.stream) {
            Ok(Polled::Frame(msg_type, payload)) => match decode_response(msg_type, payload) {
                Some((id, resp)) if id == req_id => Ok(resp),
                other => Err(remote_err(format!(
                    "protocol violation: reply to {:?} awaiting {req_id}",
                    other.map(|(id, _)| id)
                ))),
            },
            Ok(Polled::Closed) => Err(remote_err("connection closed awaiting response")),
            Err(FrameError::Io(e))
                if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
            {
                Err(remote_err("request timed out awaiting response"))
            }
            Err(e) => Err(remote_err(format!("receive: {e}"))),
        }
    }
}

/// The sockets of a [`NetClient`] no call holds, and how many are open.
#[derive(Default)]
struct Pool {
    idle: Vec<Socket>,
    open: usize,
}

/// An RPC client for one CDStore server address.
pub struct NetClient {
    addr: SocketAddr,
    config: NetClientConfig,
    pool: Mutex<Pool>,
    /// Signalled whenever a socket is handed back or closed.
    returned: Condvar,
    next_req_id: AtomicU64,
}

fn remote_err(msg: impl std::fmt::Display) -> CdStoreError {
    CdStoreError::Remote(msg.to_string())
}

impl NetClient {
    /// Creates a client for the server at `addr`. Connections are opened
    /// lazily, when a call finds none idle.
    pub fn new(addr: impl ToSocketAddrs, config: NetClientConfig) -> Result<Self, CdStoreError> {
        let addr = addr
            .to_socket_addrs()
            .map_err(remote_err)?
            .next()
            .ok_or_else(|| remote_err("address resolved to nothing"))?;
        Ok(NetClient {
            addr,
            config,
            pool: Mutex::default(),
            returned: Condvar::new(),
            next_req_id: AtomicU64::new(1),
        })
    }

    fn next_req_id(&self) -> u64 {
        self.next_req_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Takes a socket for one call: the most recently returned idle one if
    /// it is still open, otherwise a new connection in a free slot (or in
    /// the slot of the stale one), waiting for a slot while all are in use.
    fn checkout(&self) -> Result<Socket, CdStoreError> {
        let mut pool = self.pool.lock().expect("connection pool lock");
        let idle = loop {
            if let Some(socket) = pool.idle.pop() {
                break Some(socket);
            }
            if pool.open < self.config.connections.max(1) {
                pool.open += 1;
                break None;
            }
            pool = self.returned.wait(pool).expect("connection pool lock");
        };
        drop(pool);
        match idle.filter(Socket::is_reusable) {
            Some(socket) => Ok(socket),
            // A reconnect before anything is sent, never a resend.
            None => self.connect().inspect_err(|_| self.checkin(None)),
        }
    }

    /// Hands a socket back after its call, or — `None` — closes its slot.
    fn checkin(&self, socket: Option<Socket>) {
        let mut pool = self.pool.lock().expect("connection pool lock");
        match socket {
            Some(socket) => pool.idle.push(socket),
            None => pool.open -= 1,
        }
        drop(pool);
        self.returned.notify_one();
    }

    fn connect(&self) -> Result<Socket, CdStoreError> {
        let stream = TcpStream::connect_timeout(&self.addr, self.config.connect_timeout)
            .map_err(|e| remote_err(format!("connect to {}: {e}", self.addr)))?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(self.config.request_timeout))
            .map_err(remote_err)?;
        Ok(Socket {
            stream,
            reader: FrameReader::new(),
        })
    }

    /// One RPC: the request goes out once and the call waits for its one
    /// response. A server-side error comes back as the decoded
    /// [`CdStoreError`], a transport failure as [`CdStoreError::Remote`]; a
    /// request too large to frame is [`CdStoreError::InvalidConfig`] before
    /// anything is sent.
    pub fn call(&self, req: &Request) -> Result<Response, CdStoreError> {
        self.call_framed(|req_id| request_frame(req_id, req))
    }

    /// [`NetClient::call`] over the request's sealed frame, sent in one
    /// `write_all` on a socket no other call holds.
    fn call_framed(
        &self,
        encode: impl FnOnce(u64) -> Result<Vec<u8>, FrameError>,
    ) -> Result<Response, CdStoreError> {
        let req_id = self.next_req_id();
        let frame = encode(req_id).map_err(|e| CdStoreError::InvalidConfig(e.to_string()))?;
        let mut socket = self.checkout()?;
        let reply = socket.exchange(req_id, &frame);
        // A failed exchange may leave a reply, or part of one, on the wire.
        self.checkin(reply.is_ok().then_some(socket));
        match reply? {
            Response::Err {
                code,
                needed,
                available,
                msg,
            } => Err(error_from_wire(code, needed, available, msg)),
            resp => Ok(resp),
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

    /// The empty-batch form of `commit_file`'s message.
    fn put_file(
        &self,
        user: u64,
        encoded_pathname: &[u8],
        recipe: &FileRecipe,
        uploaded: &[Fingerprint],
    ) -> Result<(), CdStoreError> {
        self.commit_file(user, encoded_pathname, &[], recipe, uploaded)
            .map(drop)
    }

    fn commit_file(
        &self,
        user: u64,
        encoded_pathname: &[u8],
        last_batch: &[(ShareMetadata, Vec<u8>)],
        recipe: &FileRecipe,
        uploaded: &[Fingerprint],
    ) -> Result<StoreReceipt, CdStoreError> {
        // Encoded from the borrowed batch, like `store_shares`.
        match self.client.call_framed(|req_id| {
            put_file_frame(req_id, user, last_batch, encoded_pathname, recipe, uploaded)
        })? {
            Response::Receipt(receipt) if receipt.verdicts.len() == last_batch.len() => Ok(receipt),
            other => Err(remote_err(format!("bad commit reply: {other:?}"))),
        }
    }

    fn release_uploads(&self, user: u64, fingerprints: &[Fingerprint]) -> Result<(), CdStoreError> {
        expect_unit(self.client.call(&Request::ReleaseUploads {
            user,
            fingerprints: fingerprints.to_vec(),
        })?)
    }

    /// [`get_recipe`](ServerTransport::get_recipe): a file the server
    /// cannot find is `false`, any other failure passes through.
    fn has_file(&self, user: u64, encoded_pathname: &[u8]) -> Result<bool, CdStoreError> {
        match self.get_recipe(user, encoded_pathname) {
            Ok(_) => Ok(true),
            Err(CdStoreError::FileNotFound(_)) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// The zero-window form of `open_file`'s message.
    fn get_recipe(&self, user: u64, encoded_pathname: &[u8]) -> Result<FileRecipe, CdStoreError> {
        self.open_file(user, encoded_pathname, 0, 0)
            .map(|(recipe, _)| recipe)
    }

    fn open_file(
        &self,
        user: u64,
        encoded_pathname: &[u8],
        max_secrets: usize,
        max_secret_bytes: u64,
    ) -> Result<(FileRecipe, Vec<Vec<u8>>), CdStoreError> {
        let max_secrets = u32::try_from(max_secrets).unwrap_or(u32::MAX);
        match self.client.call(&Request::GetRecipe {
            user,
            encoded_pathname: encoded_pathname.to_vec(),
            max_secrets,
            max_secret_bytes,
        })? {
            // The window rule is a function of the recipe: the server must
            // have cut exactly the window asked for.
            Response::Recipe { recipe, shares }
                if shares.len() == recipe.window_len(0, max_secrets as usize, max_secret_bytes) =>
            {
                Ok((recipe, shares))
            }
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
    use std::sync::mpsc::RecvTimeoutError;

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

    /// The local addresses of the sockets on the idle stack.
    fn idle_sockets(client: &NetClient) -> Vec<SocketAddr> {
        let pool = client.pool.lock().unwrap();
        (pool.idle.iter())
            .map(|socket| socket.stream.local_addr().unwrap())
            .collect()
    }

    /// Shutdown and restart wait on events, never on a clock or a retry:
    /// eight idle sockets do not hold a shutdown up, each hears of it, the
    /// freed address binds again at once (`restart` makes one attempt) and
    /// every slot's next call reconnects before it sends — no call fails on
    /// a stale socket, whose server is gone and could not answer it.
    #[test]
    fn restarts_under_idle_connections_neither_wait_nor_retry() {
        const SLOTS: usize = 8;
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let body = std::thread::spawn(move || {
            let mut cluster = crate::cluster::LoopbackCluster::spawn(1).unwrap();
            let config = NetClientConfig {
                connections: SLOTS,
                ..NetClientConfig::default()
            };
            let remote = cluster.transports(config).unwrap().pop().unwrap();
            let client = &remote.client;
            for round in 0..200 {
                // Every slot open at once, one call on each, first attempt.
                let mut held: Vec<Socket> =
                    (0..SLOTS).map(|_| client.checkout().unwrap()).collect();
                for socket in &mut held {
                    let req_id = client.next_req_id();
                    let frame = request_frame(req_id, &Request::Probe).unwrap();
                    match socket.exchange(req_id, &frame) {
                        Ok(Response::Probe(_)) => {}
                        other => panic!("round {round}: {other:?}"),
                    }
                }
                held.into_iter()
                    .for_each(|socket| client.checkin(Some(socket)));
                assert_eq!(idle_sockets(client).len(), SLOTS);
                cluster
                    .restart(0)
                    .unwrap_or_else(|e| panic!("restart {round}: {e}"));
                // The event each idle socket gets: EOF, seen by a blocking peek.
                for socket in &client.pool.lock().unwrap().idle {
                    assert_eq!(socket.stream.peek(&mut [0u8; 1]).unwrap(), 0);
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

    /// A request no frame can carry is refused before a byte is written and
    /// costs the socket nothing.
    #[test]
    fn an_unframeable_request_is_a_typed_error_and_the_link_survives() {
        use crate::frame::MAX_FRAME_BYTES;
        let cluster = crate::cluster::LoopbackCluster::spawn(1).unwrap();
        let config = NetClientConfig {
            connections: 1,
            ..NetClientConfig::default()
        };
        let remote = cluster.transports(config).unwrap().pop().unwrap();
        let socket_before = idle_sockets(&remote.client);
        assert_eq!(socket_before.len(), 1, "the ping's socket is idle");

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
        assert_eq!(
            idle_sockets(&remote.client),
            socket_before,
            "socket was replaced"
        );
    }
}
