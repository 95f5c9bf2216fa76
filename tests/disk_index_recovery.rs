//! Recovery acceptance suite for spilled indexes: deployments whose index
//! stripes have frozen runs to their backends must recover byte-exact from
//! backend-only state — the runs, each stripe's checkpointed memtable
//! installed over them, and the journal suffix replayed on top — whether
//! runs froze before or after the checkpoint. Recovery and construction
//! read the backend a pinned number of times.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use cdstore_core::metadata::{FileRecipe, RecipeEntry, ShareMetadata};
use cdstore_core::{CdStore, CdStoreConfig, CdStoreServer, ServerTransport};
use cdstore_crypto::Fingerprint;
use cdstore_index::KvStoreConfig;
use cdstore_storage::{MemoryBackend, StorageBackend, StorageError};

const N: usize = 4;
const K: usize = 3;
const FILE_BYTES: usize = if cfg!(debug_assertions) {
    40_000
} else {
    150_000
};

fn payload(len: usize, seed: u64) -> Vec<u8> {
    (0..len)
        .map(|i| ((i / 512) as u8).wrapping_mul(37).wrapping_add(seed as u8))
        .collect()
}

/// A config whose index memtables hold `capacity` entries a stripe, so
/// test-sized workloads spill runs to the backend.
fn spilling_config(capacity: usize) -> CdStoreConfig {
    let mut config = CdStoreConfig::new(N, K).unwrap();
    config.index_mode = KvStoreConfig {
        memtable_capacity: capacity,
        max_runs: 4,
        ..KvStoreConfig::default()
    };
    config
}

/// Four entries a stripe: every index of the seeded workload spills.
fn disk_config() -> CdStoreConfig {
    spilling_config(4)
}

/// The index run objects on a backend.
fn runs(backend: &MemoryBackend) -> Vec<String> {
    let keys = backend.list().unwrap().into_iter();
    keys.filter(|key| key.starts_with("idx-") && key.contains("-r-"))
        .collect()
}

fn new_backends() -> Vec<Arc<MemoryBackend>> {
    (0..N).map(|_| Arc::new(MemoryBackend::new())).collect()
}

fn as_dyn(backends: &[Arc<MemoryBackend>]) -> Vec<Arc<dyn StorageBackend>> {
    backends
        .iter()
        .map(|b| b.clone() as Arc<dyn StorageBackend>)
        .collect()
}

/// Backs up a mixed multi-user workload and returns the surviving
/// `(user, path, data)` set after one delete per user.
fn seed_workload(store: &CdStore) -> Vec<(u64, String, Vec<u8>)> {
    let shared = payload(FILE_BYTES / 4, 7);
    let mut survivors = Vec::new();
    for user in 1..=3u64 {
        for file in 0..3u64 {
            let mut data = payload(FILE_BYTES, 100 + user * 10 + file);
            data.extend_from_slice(&shared);
            let path = format!("/u{user}/f{file}.tar");
            store.backup(user, &path, &data).unwrap();
            survivors.push((user, path, data));
        }
        assert!(store.delete(user, &format!("/u{user}/f2.tar")).unwrap());
        survivors.retain(|(u, p, _)| !(*u == user && p == &format!("/u{user}/f2.tar")));
    }
    survivors
}

fn assert_restores(store: &CdStore, survivors: &[(u64, String, Vec<u8>)]) {
    for (user, path, data) in survivors {
        assert_eq!(&store.restore(*user, path).unwrap(), data, "{path}");
    }
    assert!(store.restore(1, "/u1/f2.tar").is_err(), "stays deleted");
}

fn checkpoint_all(store: &CdStore) {
    store.with_servers(|servers| {
        for server in servers {
            server.checkpoint().unwrap();
        }
    });
}

#[test]
fn disk_mode_deployment_recovers_byte_exact() {
    let backends = new_backends();
    let store = CdStore::with_backends(disk_config(), as_dyn(&backends)).unwrap();
    let survivors = seed_workload(&store);
    store.flush().unwrap();
    checkpoint_all(&store);
    for backend in &backends {
        assert!(!runs(backend).is_empty(), "the indexes spilled");
    }
    let unique_before = store.with_servers(|servers| {
        servers
            .iter()
            .map(|s| s.probe().unwrap().unique_shares)
            .collect::<Vec<_>>()
    });
    drop(store);

    let (revived, reports) = CdStore::open(disk_config(), as_dyn(&backends)).unwrap();
    for report in &reports {
        assert!(!report.pruned_anything(), "flushed state loses nothing");
        assert!(!report.torn_tail);
    }
    assert_restores(&revived, &survivors);
    revived.with_servers(|servers| {
        for (i, server) in servers.iter().enumerate() {
            assert_eq!(
                server.probe().unwrap().unique_shares,
                unique_before[i],
                "server {i}"
            );
        }
    });
}

#[test]
fn spilled_runs_reopen_under_the_default_tuning() {
    let backends = new_backends();
    let store = CdStore::with_backends(disk_config(), as_dyn(&backends)).unwrap();
    let survivors = seed_workload(&store);
    store.flush().unwrap();
    checkpoint_all(&store);
    drop(store);

    // Runs frozen under a 4-entry memtable reopen under the default one.
    let default = CdStoreConfig::new(N, K).unwrap();
    let (revived, reports) = CdStore::open(default, as_dyn(&backends)).unwrap();
    for report in &reports {
        assert!(!report.pruned_anything(), "{report:?}");
    }
    assert_restores(&revived, &survivors);
}

#[test]
fn journal_suffix_replays_over_checkpointed_runs() {
    let backends = new_backends();
    let store = CdStore::with_backends(disk_config(), as_dyn(&backends)).unwrap();

    // Phase 1 is checkpointed (memtables inline over the spilled runs)...
    let mut survivors = seed_workload(&store);
    store.flush().unwrap();
    checkpoint_all(&store);

    // ...phase 2 lands only in sealed containers + the journal suffix, and
    // overwrites/deletes phase-1 state so replay must reconcile the runs.
    for user in 1..=3u64 {
        let data = payload(FILE_BYTES, 900 + user);
        let path = format!("/u{user}/f0.tar");
        store.backup(user, &path, &data).unwrap();
        survivors.retain(|(u, p, _)| !(*u == user && p == &path));
        survivors.push((user, path, data));
        assert!(store.delete(user, &format!("/u{user}/f1.tar")).unwrap());
        survivors.retain(|(u, p, _)| !(*u == user && p == &format!("/u{user}/f1.tar")));
    }
    store.flush().unwrap();
    drop(store);

    let (revived, reports) = CdStore::open(disk_config(), as_dyn(&backends)).unwrap();
    for report in &reports {
        assert!(!report.pruned_anything(), "flushed state loses nothing");
    }
    assert_restores(&revived, &survivors);
    for user in 1..=3u64 {
        assert!(revived.restore(user, &format!("/u{user}/f1.tar")).is_err());
    }
}

#[test]
fn server_restarts_mid_workload_keep_disk_indexes() {
    let backends = new_backends();
    let store = CdStore::with_backends(disk_config(), as_dyn(&backends)).unwrap();
    let mut survivors = seed_workload(&store);
    store.flush().unwrap();

    for i in 0..N {
        let report = store.restart_server(i).unwrap();
        assert!(
            !report.pruned_anything(),
            "server {i} restart loses nothing"
        );
        // The deployment keeps absorbing traffic between restarts.
        let data = payload(FILE_BYTES / 2, 1000 + i as u64);
        let path = format!("/u9/after-restart-{i}.tar");
        store.backup(9, &path, &data).unwrap();
        survivors.push((9, path, data));
        store.flush().unwrap();
    }
    assert_restores(&store, &survivors);
}

/// Each server's dedup state as its public counters show it.
fn server_state(store: &CdStore) -> Vec<(u64, u64)> {
    store.with_servers(|servers| {
        servers
            .iter()
            .map(|s| {
                let probe = s.probe().unwrap();
                (probe.unique_shares, probe.live_share_bytes)
            })
            .collect()
    })
}

/// The recovery order: a stripe's checkpointed memtable goes *over* its
/// runs, then the journal suffix over both. Before the checkpoint, files
/// are overwritten and deleted while older versions sit in frozen runs, so
/// a memtable installed under the runs would bring the old versions back.
/// After it, shared shares gain references until a stripe freezes a run,
/// which the checkpointed memtable then shadows with older counts until
/// replay writes the newer ones back.
#[test]
fn a_run_frozen_after_the_checkpoint_recovers_from_the_backend_alone() {
    let config = disk_config();
    let backends = new_backends();
    let store = CdStore::with_backends(config, as_dyn(&backends)).unwrap();
    let shared = payload(FILE_BYTES / 4, 7);
    let file = |user: u64, f: u64, version: u64| {
        let mut data = payload(FILE_BYTES / 4, 1000 * version + 10 * user + f);
        data.extend_from_slice(&shared);
        data
    };
    let mut expected: BTreeMap<(u64, String), Vec<u8>> = BTreeMap::new();
    for version in 0..2u64 {
        for user in 1..=3u64 {
            for f in 0..8u64 {
                let (path, data) = (format!("/u{user}/f{f}"), file(user, f, version));
                store.backup(user, &path, &data).unwrap();
                expected.insert((user, path), data);
            }
        }
    }
    for user in 1..=3u64 {
        for f in (0..8u64).step_by(3) {
            assert!(store.delete(user, &format!("/u{user}/f{f}")).unwrap());
            expected.remove(&(user, format!("/u{user}/f{f}")));
        }
    }
    store.flush().unwrap();
    checkpoint_all(&store);

    let frozen: Vec<Vec<String>> = backends.iter().map(|b| runs(b)).collect();
    let spilled = || {
        backends
            .iter()
            .zip(&frozen)
            .all(|(b, before)| runs(b) != *before)
    };
    let mut extra = 0u64;
    while !spilled() {
        let (path, data) = (format!("/u4/g{extra}"), file(4, extra, 9));
        store.backup(4, &path, &data).unwrap();
        expected.insert((4, path), data);
        extra += 1;
        assert!(extra < 64, "no stripe froze a run");
    }
    store.flush().unwrap();
    let live = server_state(&store);
    drop(store);

    let (revived, reports) = CdStore::open(config, as_dyn(&backends)).unwrap();
    for report in &reports {
        assert!(report.used_checkpoint);
        assert!(!report.pruned_anything(), "counts disagree: {report:?}");
    }
    assert_eq!(server_state(&revived), live);
    for ((user, path), data) in &expected {
        assert_eq!(&revived.restore(*user, path).unwrap(), data, "{path}");
    }
    for user in 1..=3u64 {
        assert!(revived.restore(user, &format!("/u{user}/f0")).is_err());
    }
}

/// A fresh deployment over backends an older one spilled to starts empty:
/// the older index objects are never read, so neither the new deployment
/// nor a recovery of it brings the older files back.
#[test]
fn a_fresh_server_ignores_an_older_servers_runs() {
    let backends = new_backends();
    // One entry a stripe: every write freezes, so the runs hold everything.
    let old = CdStore::with_backends(spilling_config(1), as_dyn(&backends)).unwrap();
    seed_workload(&old);
    old.flush().unwrap();
    checkpoint_all(&old);
    drop(old);
    assert!(!runs(&backends[0]).is_empty());

    let store = CdStore::with_backends(disk_config(), as_dyn(&backends)).unwrap();
    assert!(store.restore(1, "/u1/f0.tar").is_err());
    let data = payload(FILE_BYTES, 5);
    store.backup(7, "/new", &data).unwrap();
    store.flush().unwrap();
    drop(store);

    let (revived, _) = CdStore::open(disk_config(), as_dyn(&backends)).unwrap();
    assert_eq!(revived.restore(7, "/new").unwrap(), data);
    assert!(
        revived.restore(1, "/u1/f0.tar").is_err(),
        "older files stay gone"
    );
}

/// A pass-through backend that counts calls by operation.
#[derive(Default)]
struct CountingBackend {
    inner: MemoryBackend,
    calls: Mutex<BTreeMap<&'static str, usize>>,
}

impl CountingBackend {
    fn count(&self, op: &'static str) {
        *self.calls.lock().unwrap().entry(op).or_default() += 1;
    }

    /// The calls since the last `take`, by operation.
    fn take(&self) -> BTreeMap<&'static str, usize> {
        std::mem::take(&mut *self.calls.lock().unwrap())
    }
}

impl StorageBackend for CountingBackend {
    fn put(&self, key: &str, data: &[u8]) -> Result<(), StorageError> {
        self.count("put");
        self.inner.put(key, data)
    }

    fn get(&self, key: &str) -> Result<Vec<u8>, StorageError> {
        self.count("get");
        self.inner.get(key)
    }

    fn delete(&self, key: &str) -> Result<(), StorageError> {
        self.count("delete");
        self.inner.delete(key)
    }

    fn exists(&self, key: &str) -> Result<bool, StorageError> {
        self.count("exists");
        self.inner.exists(key)
    }

    fn list(&self) -> Result<Vec<String>, StorageError> {
        self.count("list");
        self.inner.list()
    }

    fn append(&self, key: &str, data: &[u8]) -> Result<(), StorageError> {
        self.count("append");
        self.inner.append(key, data)
    }

    fn object_size(&self, key: &str) -> Result<u64, StorageError> {
        self.count("object_size");
        self.inner.object_size(key)
    }
}

/// Stores `data` as the one share of file `path`, as a client would.
fn backup_share(server: &CdStoreServer, path: &str, data: &[u8]) {
    let fingerprint = Fingerprint::of(data);
    let meta = ShareMetadata {
        fingerprint,
        share_size: data.len() as u32,
        secret_seq: 0,
        secret_size: data.len() as u32,
    };
    server.store_shares(1, &[(meta, data.to_vec())]).unwrap();
    let recipe = FileRecipe {
        file_size: data.len() as u64,
        entries: vec![RecipeEntry {
            share_fingerprint: fingerprint,
            secret_size: data.len() as u32,
        }],
    };
    server
        .put_file(1, path.as_bytes(), &recipe, &[fingerprint])
        .unwrap();
}

/// A fresh server reads nothing from its backend. A reopen lists it once
/// for the journal, once for the container scan and once for the
/// checkpoint's sweep, plus once per index that has frozen a run — never
/// once per stripe.
#[test]
fn construction_and_recovery_list_the_backend_once_per_index() {
    let reopen = |backend: &Arc<CountingBackend>, index| {
        let dynamic: Arc<dyn StorageBackend> = backend.clone();
        backend.take();
        CdStoreServer::open_with_index(0, dynamic, index).unwrap();
        backend.take()
    };
    for (capacity, index_lists) in [(KvStoreConfig::default().memtable_capacity, 0), (2, 3)] {
        let index = KvStoreConfig {
            memtable_capacity: capacity,
            ..KvStoreConfig::default()
        };
        let backend = Arc::new(CountingBackend::default());
        let server = CdStoreServer::with_backend_and_index(0, backend.clone(), index).unwrap();
        assert_eq!(
            backend.take(),
            BTreeMap::new(),
            "a fresh server reads nothing"
        );

        for i in 0..64 {
            backup_share(&server, &format!("/f{i}"), format!("share {i}").as_bytes());
        }
        server.flush().unwrap();
        server.checkpoint().unwrap();
        drop(server);
        let calls = reopen(&backend, index);
        assert_eq!(
            calls["list"],
            3 + index_lists,
            "capacity {capacity}: {calls:?}"
        );
    }
}
