//! The lost reply, through a real socket: the server applied a request and
//! the connection died before its response reached the client.
//!
//! `PutFile` and `StoreShares` move reference counts, so the transport must
//! not answer that loss by sending the request again: a second `PutFile`
//! nets to zero, displaces the first recipe and releases the only reference
//! (the share is gone); a second `StoreShares` takes an upload reference
//! nothing will release. The transport reports [`CdStoreError::Remote`] and
//! [`cdstore_core::retry`] replays — after rolling back where it may.
//!
//! An upload's last batch rides in its `PutFile` (`commit_file`), and that
//! call is never retried in place. After it fails — an error or a lost
//! reply, which may have committed the file — the client sends that cloud no
//! `ReleaseUploads`: the server settled or rolled back the references
//! itself, and the façade replays the whole backup, whose new recipe
//! supersedes one the lost reply left committed. A lost reply to a
//! `PutFile` the server never applied can leak the earlier batches' upload
//! references — never a share a file needs.

mod proxy;

use cdstore_core::{
    CdStore, CdStoreConfig, CdStoreError, FileRecipe, RecipeEntry, RetryPolicy, ServerTransport,
    ShareMetadata,
};
use cdstore_crypto::Fingerprint;
use cdstore_net::{LoopbackCluster, NetClientConfig, RemoteServer};
use proxy::{Proxy, FETCH_SHARES, GET_RECIPE, PUT_FILE, RELEASE_UPLOADS, STORE_SHARES};

const USER: u64 = 7;
const PATH: &[u8] = b"/lost/reply";

/// Uploads one share and commits the recipe naming it through the proxy —
/// `merged`, in one `commit_file`; otherwise as `store_shares` then the
/// empty-batch `put_file` — with the reply to the first request of type
/// `lost` withheld. That call must be [`CdStoreError::Remote`], and the
/// server must hold what one application of each request leaves.
fn a_lost_reply_is_remote_and_the_request_applied_once(lost: u8, merged: bool) {
    let cluster = LoopbackCluster::spawn(1).unwrap();
    let proxy = Proxy::spawn(cluster.addrs()[0]);
    let remote = RemoteServer::connect(proxy.addr, NetClientConfig::default()).unwrap();
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
    let expect = |result: Result<(), CdStoreError>, request: u8| match result {
        Err(CdStoreError::Remote(_)) if request == lost => {}
        Ok(()) if request != lost => {}
        other => panic!("request {request:#x} with {lost:#x}'s reply lost: got {other:?}"),
    };

    proxy.lose_reply_to(lost);
    let batch = [(meta, bytes.clone())];
    if merged {
        let committed = remote.commit_file(USER, PATH, &batch, &recipe, &[]);
        expect(committed.map(drop), PUT_FILE);
    } else {
        expect(remote.store_shares(USER, &batch).map(drop), STORE_SHARES);
        expect(remote.put_file(USER, PATH, &recipe, &[fp]), PUT_FILE);
    }
    assert!(!proxy.armed(), "the reply was produced and withheld");

    // The share is served, and deleting the file leaves nothing referenced.
    assert_eq!(remote.fetch_shares(USER, &[fp]).unwrap(), vec![bytes]);
    assert!(remote.delete_file(USER, PATH).unwrap());
    assert_eq!(cluster.core(0).probe().unwrap().live_share_bytes, 0);
}

#[test]
fn a_lost_put_file_reply_is_a_remote_error_and_the_share_survives() {
    a_lost_reply_is_remote_and_the_request_applied_once(PUT_FILE, false);
    a_lost_reply_is_remote_and_the_request_applied_once(PUT_FILE, true);
}

#[test]
fn a_lost_store_shares_reply_is_a_remote_error_and_leaks_no_reference() {
    a_lost_reply_is_remote_and_the_request_applied_once(STORE_SHARES, false);
}

/// Four servers behind proxies, and a deployment over them.
fn proxied_store(config: CdStoreConfig) -> (LoopbackCluster, Vec<Proxy>, CdStore<RemoteServer>) {
    let cluster = LoopbackCluster::spawn(4).unwrap();
    let proxies: Vec<Proxy> = cluster.addrs().iter().map(|&a| Proxy::spawn(a)).collect();
    let transports = (proxies.iter())
        .map(|p| RemoteServer::connect(p.addr, NetClientConfig::default()).unwrap())
        .collect();
    let store = CdStore::from_transports(config, transports).unwrap();
    for proxy in &proxies {
        proxy.take_requests(); // the connect's ping
    }
    (cluster, proxies, store)
}

/// `len` bytes no chunk of which repeats.
fn unique_data(len: usize) -> Vec<u8> {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as u8
        })
        .collect()
}

/// The layer that does retry, for a backup of one batch a cloud and one of
/// two: a lost `StoreShares` receipt (a non-final batch) is released and
/// retried in place; a lost `PutFile` receipt fails the upload, the client
/// sends that cloud no `ReleaseUploads`, and the façade's replay converges.
/// The restore is byte-exact and deleting the file leaves nothing live.
#[test]
fn a_backup_rides_out_a_lost_reply_on_its_replay() {
    // (bytes, proxy losing a StoreShares reply, proxy losing a PutFile reply)
    let cases = [
        (200_000, None, 1),
        // Past one 4 MiB batch of shares a cloud at k = 3.
        (13 << 20, Some(1), 2),
    ];
    for (len, lose_store, lose_commit) in cases {
        let (cluster, proxies, store) = proxied_store(CdStoreConfig::new(4, 3).unwrap());
        let data = unique_data(len);
        if let Some(cloud) = lose_store {
            proxies[cloud].lose_reply_to(STORE_SHARES);
        }
        proxies[lose_commit].lose_reply_to(PUT_FILE);
        store.backup(USER, "/lost/backup.tar", &data).unwrap();
        assert!(
            proxies.iter().all(|p| !p.armed()),
            "{len}: a reply was not lost"
        );

        let sent: Vec<Vec<u8>> = proxies.iter().map(Proxy::take_requests).collect();
        let commits = sent[lose_commit].iter().filter(|&&t| t == PUT_FILE).count();
        assert_eq!(commits, 2, "{len}: the commit and its replay");
        assert!(
            !sent[lose_commit].contains(&RELEASE_UPLOADS),
            "{len}: a release after a failed commit: {:?}",
            sent[lose_commit]
        );
        if let Some(cloud) = lose_store {
            let first_commit = sent[cloud].iter().position(|&t| t == PUT_FILE).unwrap();
            assert!(
                sent[cloud][..first_commit].contains(&RELEASE_UPLOADS),
                "a lost batch receipt is released before its retry: {:?}",
                sent[cloud]
            );
        }

        assert_eq!(store.restore(USER, "/lost/backup.tar").unwrap(), data);
        assert!(store.delete(USER, "/lost/backup.tar").unwrap());
        for cloud in 0..4 {
            assert_eq!(
                cluster.core(cloud).probe().unwrap().live_share_bytes,
                0,
                "{len}: cloud {cloud}"
            );
        }
    }
}

/// A restore whose first reply of one type from cloud 0 is lost retries
/// that cloud — or, with retries off, hands its place to the spare, which
/// opens with a `GetRecipe` and is asked for the window again — and is
/// byte-exact. The lost reply is the `GetRecipe` that opens a one-window
/// file, or the first `FetchShares` of a three-window one: a failover
/// mid-file.
#[test]
fn a_restore_rides_out_a_lost_get_recipe_reply() {
    for (lost, len) in [(GET_RECIPE, 100_000), (FETCH_SHARES, 4 << 20)] {
        for retry in [RetryPolicy::default(), RetryPolicy::none()] {
            let config = CdStoreConfig::new(4, 3).unwrap().with_retry(retry);
            let (_cluster, proxies, store) = proxied_store(config);
            let data = unique_data(len);
            store.backup(USER, "/lost/restore.tar", &data).unwrap();
            proxies[3].take_requests();
            proxies[0].lose_reply_to(lost);
            assert_eq!(store.restore(USER, "/lost/restore.tar").unwrap(), data);
            assert!(!proxies[0].armed(), "{lost:#x}: no reply was lost");
            let spare = proxies[3].take_requests();
            let failed_over = retry == RetryPolicy::none();
            assert_eq!(
                spare.first() == Some(&GET_RECIPE),
                failed_over,
                "{lost:#x}, {retry:?}: the spare saw {spare:?}"
            );
        }
    }
}
