//! The lost reply, through a real socket: the server applied a request and
//! the connection died before its response reached the client.
//!
//! `PutFile` and `StoreShares` move reference counts, so the transport must
//! not answer that loss by sending the request again: a second `PutFile`
//! nets to zero, displaces the first recipe and releases the only reference
//! (the share is gone); a second `StoreShares` takes an upload reference
//! nothing will release. The transport reports [`CdStoreError::Remote`] and
//! [`cdstore_core::retry`] replays — after rolling back.

use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU8, Ordering::SeqCst};
use std::sync::Arc;

use cdstore_core::{
    CdStore, CdStoreConfig, CdStoreError, FileRecipe, RecipeEntry, ServerTransport, ShareMetadata,
};
use cdstore_crypto::Fingerprint;
use cdstore_net::frame::{encode_frame, FrameReader, Polled};
use cdstore_net::{LoopbackCluster, NetClientConfig, RemoteServer};

/// Reply types (`docs/protocol.md`): `StoreShares`' receipt, `PutFile`'s unit.
const RECEIPT: u8 = 0x83;
const UNIT: u8 = 0x84;

/// A TCP proxy in front of `upstream`. Requests pass verbatim and replies
/// frame by frame, until the returned cell holds a reply type: the first
/// reply of that type is withheld, its connection closed and the cell zeroed.
fn lossy_proxy(upstream: SocketAddr) -> (SocketAddr, Arc<AtomicU8>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let armed = Arc::new(AtomicU8::new(0));
    let handle = Arc::clone(&armed);
    // The threads end with their sockets, the listener's with the process.
    std::thread::spawn(move || {
        for client in listener.incoming().flatten() {
            let server = TcpStream::connect(upstream).unwrap();
            let (mut from, mut to) = (client.try_clone().unwrap(), server.try_clone().unwrap());
            std::thread::spawn(move || {
                let _ = std::io::copy(&mut from, &mut to);
                let _ = to.shutdown(Shutdown::Write);
            });
            let armed = Arc::clone(&armed);
            std::thread::spawn(move || {
                let mut reader = FrameReader::new();
                while let Ok(Polled::Frame(msg_type, payload)) = reader.poll(&mut &server) {
                    // The server has answered, so it has applied the request.
                    let lose = armed.compare_exchange(msg_type, 0, SeqCst, SeqCst).is_ok();
                    if lose
                        || (&client)
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
    (addr, handle)
}

const USER: u64 = 7;
const PATH: &[u8] = b"/lost/reply";

/// Uploads one share and commits the recipe naming it through the proxy,
/// with the first reply of type `lost` withheld: that call must be
/// [`CdStoreError::Remote`], and the server must hold what one application
/// of each request leaves.
fn a_lost_reply_is_remote_and_the_request_applied_once(lost: u8) {
    let cluster = LoopbackCluster::spawn(1).unwrap();
    let (addr, armed) = lossy_proxy(cluster.addrs()[0]);
    let remote = RemoteServer::connect(addr, NetClientConfig::default()).unwrap();
    let bytes = vec![0x5au8; 3000];
    let fp = Fingerprint::of(&bytes);
    let meta = ShareMetadata {
        fingerprint: fp,
        share_size: 3000,
        secret_seq: 0,
        secret_size: 3000,
    };
    let recipe = FileRecipe {
        file_size: 3000,
        entries: vec![RecipeEntry {
            share_fingerprint: fp,
            secret_size: 3000,
        }],
    };
    let expect = |result: Result<(), CdStoreError>, reply: u8| match result {
        Err(CdStoreError::Remote(_)) if reply == lost => {}
        Ok(()) if reply != lost => {}
        other => panic!("reply {reply:#x} with {lost:#x} lost: got {other:?}"),
    };

    armed.store(lost, SeqCst);
    let stored = remote.store_shares(USER, &[(meta, bytes.clone())]);
    expect(stored.map(drop), RECEIPT);
    expect(remote.put_file(USER, PATH, &recipe, &[fp]), UNIT);
    assert_eq!(armed.load(SeqCst), 0, "the reply was produced and withheld");

    // The share is served, and deleting the file leaves nothing referenced.
    assert_eq!(remote.fetch_shares(USER, &[fp]).unwrap(), vec![bytes]);
    assert!(remote.delete_file(USER, PATH).unwrap());
    assert_eq!(cluster.core(0).live_share_bytes(), 0);
}

#[test]
fn a_lost_put_file_reply_is_a_remote_error_and_the_share_survives() {
    a_lost_reply_is_remote_and_the_request_applied_once(UNIT);
}

#[test]
fn a_lost_store_shares_reply_is_a_remote_error_and_leaks_no_reference() {
    a_lost_reply_is_remote_and_the_request_applied_once(RECEIPT);
}

/// The layer that does retry: a backup that loses a `StoreShares` receipt,
/// or its `PutFile` reply, on one cloud succeeds on the replay the default
/// `RetryPolicy` makes, restores byte-exact and leaks nothing.
#[test]
fn a_backup_rides_out_a_lost_reply_on_its_replay() {
    for lost in [RECEIPT, UNIT] {
        let cluster = LoopbackCluster::spawn(4).unwrap();
        let (addrs, armed): (Vec<_>, Vec<_>) =
            cluster.addrs().iter().map(|&a| lossy_proxy(a)).unzip();
        let transports = (addrs.iter())
            .map(|&a| RemoteServer::connect(a, NetClientConfig::default()).unwrap())
            .collect();
        let store =
            CdStore::from_transports(CdStoreConfig::new(4, 3).unwrap(), transports).unwrap();
        let data: Vec<u8> = (0..200_000u32)
            .map(|i| ((i / 700) as u8).wrapping_mul(17).wrapping_add(3))
            .collect();

        armed[1].store(lost, SeqCst);
        store.backup(USER, "/lost/backup.tar", &data).unwrap();
        assert_eq!(armed[1].load(SeqCst), 0, "no {lost:#x} reply was lost");
        assert_eq!(store.restore(USER, "/lost/backup.tar").unwrap(), data);

        assert!(store.delete(USER, "/lost/backup.tar").unwrap());
        for cloud in 0..4 {
            assert_eq!(cluster.core(cloud).live_share_bytes(), 0, "cloud {cloud}");
        }
    }
}
