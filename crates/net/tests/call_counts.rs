//! What a file costs in calls, counted at the socket. A small file backs up
//! in two calls per cloud — the dedup query for its one batch, then the
//! `PutFile` that carries the batch and the recipe — and restores in one
//! call on each of the `k` clouds it reads: the `GetRecipe` whose reply
//! carries the recipe and the file's one window of shares. A benchmark that
//! wraps the transport composes those calls from the separate ones, so this
//! is where the merged calls are counted.

mod proxy;

use std::sync::Arc;

use cdstore_core::{CdStore, CdStoreConfig, ServerTransport};
use cdstore_net::{LoopbackCluster, NetClientConfig, RemoteServer};
use proxy::{Proxy, GET_RECIPE, INTRA_USER_QUERY, PUT_FILE, STORE_SHARES};

/// (4, 3) servers behind counting proxies, and a deployment over them
/// through transports `wrap` makes of the remote handles.
fn counted_store<T: ServerTransport>(
    wrap: fn(RemoteServer) -> T,
) -> (LoopbackCluster, Vec<Proxy>, CdStore<T>) {
    let cluster = LoopbackCluster::spawn(4).unwrap();
    let proxies: Vec<Proxy> = cluster.addrs().iter().map(|&a| Proxy::spawn(a)).collect();
    let transports = (proxies.iter())
        .map(|p| wrap(RemoteServer::connect(p.addr, NetClientConfig::default()).unwrap()))
        .collect();
    let store = CdStore::from_transports(CdStoreConfig::new(4, 3).unwrap(), transports).unwrap();
    sent(&proxies); // the connects' pings
    (cluster, proxies, store)
}

/// The requests each cloud saw since the last look.
fn sent(proxies: &[Proxy]) -> Vec<Vec<u8>> {
    proxies.iter().map(Proxy::take_requests).collect()
}

fn data(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as u8
        })
        .collect()
}

fn a_small_file_costs_what_it_should<T: ServerTransport>(wrap: fn(RemoteServer) -> T) {
    let (_cluster, proxies, store) = counted_store(wrap);
    let file = data(20 * 1024, 1);

    store.backup(1, "/small", &file).unwrap();
    assert_eq!(sent(&proxies), vec![vec![INTRA_USER_QUERY, PUT_FILE]; 4]);

    assert_eq!(store.restore(1, "/small").unwrap(), file);
    let one = vec![GET_RECIPE];
    assert_eq!(
        sent(&proxies),
        [one.clone(), one.clone(), one.clone(), vec![]]
    );

    // Degraded: the spare stands in, at the same cost.
    store.fail_cloud(0);
    assert_eq!(store.restore(1, "/small").unwrap(), file);
    assert_eq!(sent(&proxies), [vec![], one.clone(), one.clone(), one]);
}

/// Through `RemoteServer`s, and through `Arc`s of them, which must forward
/// the merged calls rather than split them back into the separate ones.
#[test]
fn a_small_file_costs_two_calls_a_cloud_to_back_up_and_one_on_each_of_k_to_restore() {
    a_small_file_costs_what_it_should(|remote| remote);
    a_small_file_costs_what_it_should(Arc::new);
}

#[test]
fn a_two_batch_file_costs_four_calls_a_cloud_to_back_up() {
    let (_cluster, proxies, store) = counted_store(|remote| remote);
    // Past one 4 MiB batch of shares a cloud at k = 3, short of two.
    let file = data(13 << 20, 2);

    let report = store.backup(1, "/two-batch", &file).unwrap();
    assert_eq!(report.batches_per_cloud, vec![2; 4]);
    let per_cloud = vec![INTRA_USER_QUERY, STORE_SHARES, INTRA_USER_QUERY, PUT_FILE];
    assert_eq!(sent(&proxies), vec![per_cloud; 4]);
    assert_eq!(store.restore(1, "/two-batch").unwrap(), file);
}
