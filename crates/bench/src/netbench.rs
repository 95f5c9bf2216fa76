//! Loopback-TCP measurement helpers: the networked rows and columns of
//! fig7/fig8 and the perf-trajectory harness (`bench_net` → `BENCH_net.json`).
//!
//! Every helper spawns a fresh [`LoopbackCluster`] — real sockets, real
//! serialization, real flow control, no process-spawn cost — so the wire
//! columns answer "what does the TCP boundary cost?" next to the in-process
//! columns' "what does the computation cost?". The `Cloud` rows put each
//! server's backend behind a [`Shaping`] link ([`shaped_wire_store`]), so
//! they answer "what does the same system do across the paper's WAN?" —
//! measured, with the workspace's one link model.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use cdstore_core::{CdStore, CdStoreConfig, CdStoreServer, ServerTransport, ShareMetadata};
use cdstore_crypto::Fingerprint;
use cdstore_net::{LoopbackCluster, NetClientConfig, RemoteServer};
use cdstore_storage::{FaultConfig, FaultPlan, FaultyBackend, MemoryBackend, Shaping};

use crate::{random_secrets, MB};

fn connect(cluster: LoopbackCluster, k: usize) -> (LoopbackCluster, CdStore<RemoteServer>) {
    let n = cluster.addrs().len();
    let store = cluster
        .store(
            CdStoreConfig::new(n, k).expect("valid (n, k)"),
            NetClientConfig::default(),
        )
        .expect("connect to loopback servers");
    (cluster, store)
}

/// Spawns `n` wire-protocol servers on loopback and a [`CdStore`] deployment
/// speaking to them over TCP. Keep the cluster alive as long as the store:
/// dropping it shuts the servers down.
pub fn wire_store(n: usize, k: usize) -> (LoopbackCluster, CdStore<RemoteServer>) {
    connect(
        LoopbackCluster::spawn(n).expect("spawn loopback servers"),
        k,
    )
}

/// [`wire_store`] with one server per entry of `links`, each persisting
/// through a [`FaultyBackend`] that sleeps out that link's latency and
/// bandwidth on every backend operation: the server sits at the client's
/// site and the shaped link is its path to the cloud's storage. Also returns
/// each cloud's [`FaultPlan`], whose `ticks()` count the operations that
/// crossed its link.
pub fn shaped_wire_store(
    links: &[Shaping],
    k: usize,
) -> (LoopbackCluster, CdStore<RemoteServer>, Vec<Arc<FaultPlan>>) {
    let plans: Vec<Arc<FaultPlan>> = (links.iter().zip(0..))
        .map(|(&link, seed)| Arc::new(FaultPlan::new(FaultConfig::clean(seed).with_shaping(link))))
        .collect();
    let cores = (plans.iter().enumerate())
        .map(|(i, plan)| {
            let backend = FaultyBackend::new(Arc::new(MemoryBackend::new()), Arc::clone(plan));
            Arc::new(CdStoreServer::with_backend(i, Arc::new(backend)))
        })
        .collect();
    let cluster = LoopbackCluster::spawn_with_servers(cores).expect("spawn loopback servers");
    let (cluster, store) = connect(cluster, k);
    (cluster, store, plans)
}

/// Aggregate logical MB/s of `clients` concurrent threads each backing up
/// `per_client` bytes through `store` — the fig8 measurement, generic over
/// the transport so the in-process and over-the-wire columns run the exact
/// same protocol. With `duplicate`, every user's data is seeded outside the
/// timed region so the measured backups ride the intra-user dedup path.
pub fn aggregate_upload<T: ServerTransport>(
    store: &CdStore<T>,
    clients: usize,
    per_client: usize,
    duplicate: bool,
) -> f64 {
    let payloads: Vec<Vec<u8>> = (0..clients)
        .map(|c| random_secrets(per_client, 8 * 1024, 100 + c as u64).concat())
        .collect();
    if duplicate {
        for (c, payload) in payloads.iter().enumerate() {
            store
                .backup(c as u64 + 1, &format!("/client-{c}/seed.tar"), payload)
                .expect("seed backup succeeds");
        }
    }
    let barrier = Barrier::new(clients);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (c, payload) in payloads.iter().enumerate() {
            let store = store.clone();
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                store
                    .backup(c as u64 + 1, &format!("/client-{c}/backup.tar"), payload)
                    .expect("backup succeeds");
            });
        }
    });
    store.flush().expect("flush succeeds");
    let elapsed = start.elapsed().as_secs_f64();
    let logical_mb: f64 = payloads.iter().map(|p| p.len() as f64).sum::<f64>() / MB;
    logical_mb / elapsed
}

/// Fig8's wire column: a fresh 4-of-3 loopback deployment per round.
pub fn wire_aggregate_upload(clients: usize, per_client: usize, duplicate: bool) -> f64 {
    let (_cluster, store) = wire_store(4, 3);
    aggregate_upload(&store, clients, per_client, duplicate)
}

/// MB/s of `bytes` moved by one run of `op`.
pub fn mbps_of(bytes: u64, op: impl FnOnce()) -> f64 {
    let start = Instant::now();
    op();
    bytes as f64 / MB / start.elapsed().as_secs_f64()
}

/// Single-client speeds through one wire deployment: one row of fig7(a), or
/// of fig7(b) with the first backup as "unique" and the later ones as
/// "duplicate".
#[derive(Debug, Clone, Copy)]
pub struct WireSingleSpeeds {
    /// Upload MB/s of never-seen data (all shares cross the wire).
    pub upload_unique: f64,
    /// Upload MB/s of already-backed-up data (intra-user dedup: only
    /// fingerprints cross the wire).
    pub upload_duplicate: f64,
    /// Download (restore) MB/s.
    pub download: f64,
}

/// The file [`upload_speeds`] backs up first and the single-speed rows restore.
const UNIQUE_PATH: &str = "/fig7a/unique.tar";

/// Times a unique and then a duplicate backup of `data`. Each upload ends
/// with the flush that seals its last open containers: it is over when its
/// bytes are at the backend — nothing on loopback, most of it across a WAN.
fn upload_speeds(store: &CdStore<RemoteServer>, data: &[u8]) -> (f64, f64) {
    let upload = |pathname: &str| {
        mbps_of(data.len() as u64, || {
            store.backup(1, pathname, data).expect("backup");
            store.flush().expect("flush");
        })
    };
    // Same user, same content, different pathname: every share of the
    // second backup is an intra-user duplicate, eliminated client-side.
    (upload(UNIQUE_PATH), upload("/fig7a/dup.tar"))
}

/// Measures a single client pushing and pulling `bytes` of data through a
/// fresh 4-of-3 loopback deployment.
pub fn wire_single_speeds(bytes: usize) -> WireSingleSpeeds {
    let (_cluster, store) = wire_store(4, 3);
    let data = random_secrets(bytes, 8 * 1024, 11).concat();
    let (upload_unique, upload_duplicate) = upload_speeds(&store, &data);
    let download = mbps_of(data.len() as u64, || {
        let restored = store.restore(1, UNIQUE_PATH).expect("restore");
        assert_eq!(restored.len(), data.len());
    });
    WireSingleSpeeds {
        upload_unique,
        upload_duplicate,
        download,
    }
}

/// What [`cold_restore`] measured.
#[derive(Debug)]
pub struct ColdRestore {
    /// The restored bytes.
    pub data: Vec<u8>,
    /// Restore MB/s.
    pub mbps: f64,
    /// Backend operations each cloud served during the restore.
    pub link_ops: Vec<u64>,
}

/// Restores `pathname` through servers reopened from their own backends
/// (outside the timed region). A restore straight after its backup is
/// answered from the servers' container caches and never touches the link;
/// a reopened server starts cold, so every container it reads crosses the
/// shaped link — which is what a `Cloud` row must time.
pub fn cold_restore(
    cluster: &mut LoopbackCluster,
    store: &CdStore<RemoteServer>,
    plans: &[Arc<FaultPlan>],
    user: u64,
    pathname: &str,
) -> ColdRestore {
    for i in 0..plans.len() {
        cluster
            .restart(i)
            .expect("reopen a server from its backend");
    }
    let before: Vec<u64> = plans.iter().map(|plan| plan.ticks()).collect();
    let start = Instant::now();
    let data = store.restore(user, pathname).expect("cold restore");
    let mbps = data.len() as f64 / MB / start.elapsed().as_secs_f64();
    let link_ops = (plans.iter().zip(before))
        .map(|(plan, before)| plan.ticks() - before)
        .collect();
    ColdRestore {
        data,
        mbps,
        link_ops,
    }
}

/// [`wire_single_speeds`] with every server's backend behind one of `links`
/// and the download cold ([`cold_restore`]); also returns the restore's
/// per-cloud backend operation counts.
pub fn shaped_single_speeds(
    links: &[Shaping],
    k: usize,
    bytes: usize,
) -> (WireSingleSpeeds, Vec<u64>) {
    let (mut cluster, store, plans) = shaped_wire_store(links, k);
    let data = random_secrets(bytes, 8 * 1024, 11).concat();
    let (upload_unique, upload_duplicate) = upload_speeds(&store, &data);
    let restore = cold_restore(&mut cluster, &store, &plans, 1, UNIQUE_PATH);
    assert_eq!(restore.data.len(), data.len());
    let speeds = WireSingleSpeeds {
        upload_unique,
        upload_duplicate,
        download: restore.mbps,
    };
    (speeds, restore.link_ops)
}

/// Asserts the shape a measured `Cloud` row must have beside its loopback
/// row: the restore crossed the link of at least `k` clouds, deduplicated
/// uploads beat unique ones, the WAN costs at least 3× on unique upload and
/// on download, and the download stays within what `k` links can deliver.
/// The timing comparisons only hold with optimisations on.
pub fn assert_cloud_row_shape(
    loopback: &WireSingleSpeeds,
    cloud: &WireSingleSpeeds,
    link_ops: &[u64],
    links: &[Shaping],
    k: usize,
) {
    let contacted = link_ops.iter().filter(|&&ops| ops > 0).count();
    assert!(
        contacted >= k,
        "a cold restore must read from k clouds' backends: {link_ops:?}"
    );
    if cfg!(debug_assertions) {
        eprintln!("debug build — skipping the Cloud-row timing checks");
        return;
    }
    assert!(
        cloud.upload_duplicate > cloud.upload_unique,
        "duplicates must upload faster than unique data: {cloud:?}"
    );
    assert!(
        cloud.upload_unique < loopback.upload_unique / 3.0
            && cloud.download < loopback.download / 3.0,
        "the shaped links must bound the Cloud row: {cloud:?} vs {loopback:?}"
    );
    let fastest = links.iter().map(|l| l.download_mbps).fold(0.0, f64::max);
    assert!(
        cloud.download <= k as f64 * fastest,
        "download {:.1} MB/s exceeds k x the fastest link ({fastest} MB/s)",
        cloud.download
    );
}

/// Throughput of the share-upload RPC with and without batching.
#[derive(Debug, Clone, Copy)]
pub struct RpcBatchingSample {
    /// MB/s storing all shares in one `StoreShares` request.
    pub batched_mbps: f64,
    /// MB/s storing the same volume one share per request.
    pub unbatched_mbps: f64,
    /// `batched_mbps / unbatched_mbps` — the per-request overhead factor the
    /// batched protocol amortises away.
    pub speedup: f64,
}

/// Pushes `count` shares of `share_bytes` each through the raw
/// [`ServerTransport`] RPC against one loopback server, once as a single
/// batch and once as `count` individual requests (distinct contents each
/// round, so dedup never shortcuts the comparison).
pub fn rpc_batching(count: usize, share_bytes: usize) -> RpcBatchingSample {
    let cluster = LoopbackCluster::spawn(1).expect("spawn loopback server");
    let transport = cluster
        .transports(NetClientConfig::default())
        .expect("connect")
        .remove(0);
    let total_mb = (count * share_bytes) as f64 / MB;

    let make_shares = |tag: u8| -> Vec<(ShareMetadata, Vec<u8>)> {
        (0..count)
            .map(|i| {
                let mut data = random_secrets(share_bytes, share_bytes.max(2), i as u64).concat();
                data[0] = tag; // keep batched/unbatched contents disjoint
                let meta = ShareMetadata {
                    fingerprint: Fingerprint::of(&data),
                    share_size: data.len() as u32,
                    secret_seq: i as u64,
                    secret_size: share_bytes as u32,
                };
                (meta, data)
            })
            .collect()
    };

    // Warm the connection (lazy TCP connect) outside timing.
    transport.probe().expect("warmup probe");

    let batch = make_shares(1);
    let start = Instant::now();
    transport.store_shares(1, &batch).expect("batched store");
    let batched_mbps = total_mb / start.elapsed().as_secs_f64();

    let singles = make_shares(2);
    let start = Instant::now();
    for share in &singles {
        transport
            .store_shares(1, std::slice::from_ref(share))
            .expect("unbatched store");
    }
    let unbatched_mbps = total_mb / start.elapsed().as_secs_f64();

    RpcBatchingSample {
        batched_mbps,
        unbatched_mbps,
        speedup: batched_mbps / unbatched_mbps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_aggregate_moves_real_data() {
        let mbps = wire_aggregate_upload(2, 64 * 1024, false);
        assert!(mbps > 0.0);
    }

    #[test]
    fn wire_single_speeds_are_positive_and_dedup_wins() {
        let speeds = wire_single_speeds(192 * 1024);
        assert!(speeds.upload_unique > 0.0);
        assert!(speeds.download > 0.0);
        // Duplicate upload skips the share transfer entirely; even at test
        // sizes it should never be slower than a fraction of the unique path.
        assert!(speeds.upload_duplicate > speeds.upload_unique / 4.0);
    }

    /// Four links fast enough for a unit test and slow enough to dominate
    /// 192 KiB on loopback.
    const TEST_LINKS: [Shaping; 4] = [Shaping {
        latency_ms: 5.0,
        upload_mbps: 4.0,
        download_mbps: 2.0,
    }; 4];

    #[test]
    fn shaped_store_moves_every_byte_across_its_links() {
        let (mut cluster, store, plans) = shaped_wire_store(&TEST_LINKS, 3);
        let ticks = || -> Vec<u64> { plans.iter().map(|plan| plan.ticks()).collect() };
        let data = random_secrets(192 * 1024, 8 * 1024, 12).concat();
        let before_backup = ticks();
        store.backup(1, "/shaped.tar", &data).unwrap();
        store.flush().unwrap();
        let after_backup = ticks();
        assert!(after_backup.iter().zip(&before_backup).all(|(a, b)| a > b));

        // Straight after the backup the servers' container caches hold every
        // share: a restore is byte-exact without touching a single link —
        // the trap a `Cloud` row's download column must not fall into.
        assert_eq!(store.restore(1, "/shaped.tar").unwrap(), data);
        assert_eq!(ticks(), after_backup);

        // Through reopened servers each of the k contacted clouds reads at
        // least one container across its link.
        let restore = cold_restore(&mut cluster, &store, &plans, 1, "/shaped.tar");
        assert_eq!(restore.data, data);
        let contacted = restore.link_ops.iter().filter(|&&ops| ops > 0).count();
        assert!(contacted >= 3, "link ops {:?}", restore.link_ops);
    }

    #[test]
    fn cloud_row_has_its_shape_at_test_size() {
        let loopback = wire_single_speeds(192 * 1024);
        let (cloud, link_ops) = shaped_single_speeds(&TEST_LINKS, 3, 192 * 1024);
        assert_cloud_row_shape(&loopback, &cloud, &link_ops, &TEST_LINKS, 3);
    }

    #[test]
    fn batching_beats_per_share_requests() {
        let sample = rpc_batching(256, 1024);
        assert!(sample.batched_mbps > 0.0);
        assert!(sample.unbatched_mbps > 0.0);
        // 256 round-trips vs 1: batching must win. Debug builds drown the
        // socket costs in unoptimised hashing, so only release builds (the
        // CI net-e2e job and the bench harness) assert the clear margin.
        if cfg!(debug_assertions) {
            assert!(sample.speedup > 0.2, "speedup = {}", sample.speedup);
        } else {
            assert!(sample.speedup > 1.0, "speedup = {}", sample.speedup);
        }
    }
}
