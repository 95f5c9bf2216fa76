//! `cdstore_net`: the CDStore wire protocol over TCP.
//!
//! The paper's deployment model (§4) is clients speaking to one CDStore
//! server per cloud *over a network*; this crate makes that boundary real:
//!
//! * [`frame`] — the framed codec (`len | crc32 | version | msg_type |
//!   payload`, the checksum being [`cdstore_crypto::crc32`]). Frames are
//!   built and taken apart in place: a message is encoded after a blank
//!   prefix that is sealed afterwards and sent in one write, and the
//!   receiver reads the socket into a reused buffer, checks the CRC there
//!   and lends the payload to the decoder — share bytes are copied once
//!   per side.
//! * [`wire`] — primitive value encoding inside payloads.
//! * [`message`] — request/response messages covering the full server API:
//!   batched share upload with per-share dedup verdicts, batched share
//!   download (one restore window per request), recipe put/get, delete,
//!   gc, flush, and statistics — one response frame per request.
//! * [`server`] — [`NetServer`]: a thread-per-connection listener wrapping
//!   an `Arc<CdStoreServer>` on blocking sockets, with graceful shutdown.
//! * [`client`] — [`NetClient`]: a bounded pool of blocking sockets, one
//!   call in flight on each, whose calling thread writes the request and
//!   reads its own reply. It sends a request **at most once** (a transport
//!   failure is `Remote` at once; trying again is
//!   [`cdstore_core::retry`]'s decision). [`RemoteServer`] is the
//!   [`cdstore_core::ServerTransport`] it powers.
//! * [`cluster`] — [`LoopbackCluster`]: `n` networked servers on loopback
//!   for benches and tests.
//!
//! The `cdstore-serve` binary serves one cloud's server as a standalone
//! process; `tests/net_e2e.rs` drives four of them end-to-end.
//!
//! # Quick start
//!
//! ```
//! use cdstore_core::{CdStoreConfig};
//! use cdstore_net::{LoopbackCluster, NetClientConfig};
//!
//! let cluster = LoopbackCluster::spawn(4).unwrap();
//! let store = cluster
//!     .store(CdStoreConfig::new(4, 3).unwrap(), NetClientConfig::default())
//!     .unwrap();
//! let data = vec![7u8; 100_000];
//! store.backup(1, "/docs.tar", &data).unwrap();       // over TCP
//! assert_eq!(store.restore(1, "/docs.tar").unwrap(), data);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod cluster;
pub mod frame;
pub mod message;
pub mod server;
pub mod wire;

pub use client::{NetClient, NetClientConfig, RemoteServer};
pub use cluster::LoopbackCluster;
pub use frame::{FrameError, FrameReader, PROTOCOL_VERSION};
pub use message::{Request, Response};
pub use server::NetServer;
