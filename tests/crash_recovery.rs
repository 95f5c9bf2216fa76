//! Crash-recovery acceptance suite: servers rebuilt from backend-only state
//! (checkpoint + journal + sealed containers) must restore every previously
//! backed-up file byte-identically, keep their deduplication state intact,
//! and keep delete + gc working — across full-deployment crashes, torn
//! journal tails, and restarts injected into concurrent churn traffic.
//!
//! Sizes are reduced under `debug_assertions` so plain `cargo test` stays
//! fast; CI additionally runs this suite in release mode at full size.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use cdstore_core::metadata::{FileRecipe, RecipeEntry, ShareMetadata};
use cdstore_core::{CdStore, CdStoreConfig, CdStoreServer};
use cdstore_crypto::Fingerprint;
use cdstore_storage::journal::{decode_records, WAL_PREFIX};
use cdstore_storage::{
    store::parse_container_key, DirBackend, MemoryBackend, StorageBackend, StorageError,
};
use proptest::prelude::*;

const N: usize = 4;
const K: usize = 3;
const FILE_BYTES: usize = if cfg!(debug_assertions) {
    60_000
} else {
    250_000
};
const CHURN_ROUNDS: usize = if cfg!(debug_assertions) { 3 } else { 8 };

/// Position-dependent, seed-scoped data: deterministic chunk boundaries and
/// deterministic cross-seed uniqueness.
fn payload(len: usize, seed: u64) -> Vec<u8> {
    (0..len)
        .map(|i| ((i / 512) as u8).wrapping_mul(37).wrapping_add(seed as u8))
        .collect()
}

fn config() -> CdStoreConfig {
    CdStoreConfig::new(N, K).unwrap()
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

/// The acceptance scenario: a mixed workload (shared blocks across users,
/// re-uploaded versions, pre-crash deletes), every server dropped, the
/// deployment reopened from the backends alone.
#[test]
fn mixed_workload_survives_dropping_every_server() {
    let backends = new_backends();
    let store = CdStore::with_backends(config(), as_dyn(&backends)).unwrap();

    // A block every user embeds, so recovered refcounts cross users.
    let shared = payload(FILE_BYTES / 4, 7);
    let mut survivors: Vec<(u64, String, Vec<u8>)> = Vec::new();
    for user in 1..=4u64 {
        for file in 0..3u64 {
            let mut data = payload(FILE_BYTES, 100 + user * 10 + file);
            data.extend_from_slice(&shared);
            let path = format!("/u{user}/f{file}.tar");
            store.backup(user, &path, &data).unwrap();
            survivors.push((user, path, data));
        }
        // One file is re-uploaded with fresh content (recovery must serve
        // the newest version) and one is deleted before the crash.
        let mut newer = payload(FILE_BYTES, 900 + user);
        newer.extend_from_slice(&shared);
        let path = format!("/u{user}/f0.tar");
        store.backup(user, &path, &newer).unwrap();
        survivors.retain(|(u, p, _)| !(*u == user && p == &path));
        survivors.push((user, path, newer));
        assert!(store.delete(user, &format!("/u{user}/f2.tar")).unwrap());
        survivors.retain(|(u, p, _)| !(*u == user && p == &format!("/u{user}/f2.tar")));
    }
    store.flush().unwrap();

    let (unique_before, live_before) = store.with_servers(|servers| {
        (
            servers
                .iter()
                .map(|s| s.unique_shares())
                .collect::<Vec<_>>(),
            servers
                .iter()
                .map(|s| s.live_share_bytes())
                .collect::<Vec<_>>(),
        )
    });
    drop(store);

    // Every server is rebuilt from backend-only state.
    let (revived, reports) = CdStore::open(config(), as_dyn(&backends)).unwrap();
    for report in &reports {
        assert!(
            !report.pruned_anything(),
            "flushed state loses nothing: {report:?}"
        );
        assert!(report.containers_scanned > 0);
        assert!(!report.torn_tail);
    }

    // Byte-exact restores for every surviving file...
    for (user, path, data) in &survivors {
        assert_eq!(&revived.restore(*user, path).unwrap(), data, "{path}");
    }
    // ...deleted files stay deleted...
    assert!(revived.restore(1, "/u1/f2.tar").is_err());
    // ...and the dedup counters came back intact.
    revived.with_servers(|servers| {
        for (i, server) in servers.iter().enumerate() {
            assert_eq!(server.unique_shares(), unique_before[i], "server {i}");
            assert_eq!(server.live_share_bytes(), live_before[i], "server {i}");
        }
    });

    // Delete + gc keep working after recovery: dropping everything empties
    // the backends (shared blocks included — refcounts recovered exactly).
    for (user, path, _) in &survivors {
        assert!(revived.delete(*user, path).unwrap(), "{path}");
    }
    revived.gc().unwrap();
    assert_eq!(
        revived.stats().backend_bytes.iter().sum::<u64>(),
        0,
        "recovered refcounts must reclaim to zero"
    );

    // And the recovered deployment accepts fresh traffic.
    let fresh = payload(FILE_BYTES, 31);
    revived.backup(9, "/fresh.tar", &fresh).unwrap();
    assert_eq!(revived.restore(9, "/fresh.tar").unwrap(), fresh);
}

/// Recovery cost is bounded by the checkpoint cadence: `open` itself commits
/// a checkpoint of the recovered state, so an immediate reopen replays zero
/// records, and only post-checkpoint traffic ever needs replaying.
#[test]
fn recovery_after_a_checkpoint_replays_only_the_journal_suffix() {
    let backends = new_backends();
    let store = CdStore::with_backends(config(), as_dyn(&backends)).unwrap();
    let mut fleet = Vec::new();
    for file in 0..6u64 {
        let data = payload(FILE_BYTES, 40 + file);
        let path = format!("/pre/{file}.tar");
        store.backup(1, &path, &data).unwrap();
        fleet.push((path, data));
    }
    store.flush().unwrap();
    drop(store);

    // First recovery replays the whole journal (no checkpoint existed yet).
    let (revived, first) = CdStore::open(config(), as_dyn(&backends)).unwrap();
    let full_replay = first.iter().map(|r| r.records_replayed).sum::<usize>();
    assert!(full_replay > 0);
    assert!(first.iter().all(|r| !r.used_checkpoint));
    drop(revived);

    // `open` checkpointed the recovered state, so a reopen replays nothing.
    let (revived, second) = CdStore::open(config(), as_dyn(&backends)).unwrap();
    for report in &second {
        assert!(report.used_checkpoint);
        assert_eq!(report.records_replayed, 0, "{report:?}");
    }

    // Traffic after the checkpoint is the only thing the next recovery
    // replays — a small suffix, not the whole history.
    let extra = payload(FILE_BYTES, 77);
    revived.backup(1, "/post.tar", &extra).unwrap();
    revived.flush().unwrap();
    drop(revived);
    let (revived, third) = CdStore::open(config(), as_dyn(&backends)).unwrap();
    let suffix_replay = third.iter().map(|r| r.records_replayed).sum::<usize>();
    assert!(suffix_replay > 0);
    assert!(
        suffix_replay * 3 < full_replay,
        "suffix replay ({suffix_replay} records) should be a fraction of a \
         full replay ({full_replay} records)"
    );
    for (path, data) in &fleet {
        assert_eq!(&revived.restore(1, path).unwrap(), data);
    }
    assert_eq!(revived.restore(1, "/post.tar").unwrap(), extra);
}

/// Durability end-to-end through the fsync'ing directory backend: state
/// written by one deployment is recovered by a second one reading the same
/// directories, byte-exact.
#[test]
fn dir_backend_state_survives_a_cold_reopen() {
    let root = std::env::temp_dir().join(format!("cdstore-crash-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let backends: Vec<Arc<dyn StorageBackend>> = (0..N)
        .map(|i| {
            Arc::new(DirBackend::new(root.join(format!("cloud{i}"))).unwrap())
                as Arc<dyn StorageBackend>
        })
        .collect();
    let store = CdStore::with_backends(config(), backends.clone()).unwrap();
    let data = payload(FILE_BYTES, 3);
    store.backup(1, "/disk.tar", &data).unwrap();
    store.flush().unwrap();
    drop(store);

    let reopened: Vec<Arc<dyn StorageBackend>> = (0..N)
        .map(|i| {
            Arc::new(DirBackend::new(root.join(format!("cloud{i}"))).unwrap())
                as Arc<dyn StorageBackend>
        })
        .collect();
    let (revived, reports) = CdStore::open(config(), reopened).unwrap();
    assert!(reports.iter().all(|r| !r.pruned_anything()));
    assert_eq!(revived.restore(1, "/disk.tar").unwrap(), data);
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------------
// Torn-write tolerance: replaying any byte-prefix of a valid journal.
// ---------------------------------------------------------------------------

/// The share batch a client would upload for these payloads (client
/// fingerprint = plain SHA-256 of the share).
fn shares_of(datas: &[Vec<u8>]) -> Vec<(ShareMetadata, Vec<u8>)> {
    datas
        .iter()
        .map(|d| {
            let meta = ShareMetadata {
                fingerprint: Fingerprint::of(d),
                share_size: d.len() as u32,
                secret_seq: 0,
                secret_size: d.len() as u32 * 3,
            };
            (meta, d.clone())
        })
        .collect()
}

/// The recipe naming every share of the batch once, in order.
fn recipe_of(shares: &[(ShareMetadata, Vec<u8>)]) -> FileRecipe {
    FileRecipe {
        file_size: shares.iter().map(|(_, d)| d.len() as u64).sum(),
        entries: shares
            .iter()
            .map(|(m, _)| RecipeEntry {
                share_fingerprint: m.fingerprint,
                secret_size: m.secret_size,
            })
            .collect(),
    }
}

/// Drives the server-side upload protocol directly (intra-user query, store,
/// put_file), as a client would per cloud.
fn server_backup(server: &CdStoreServer, user: u64, path: &[u8], datas: &[Vec<u8>]) {
    let shares = shares_of(datas);
    let fps: Vec<Fingerprint> = shares.iter().map(|(m, _)| m.fingerprint).collect();
    let already = server.intra_user_query(user, &fps);
    let to_upload: Vec<(ShareMetadata, Vec<u8>)> = shares
        .iter()
        .cloned()
        .zip(already)
        .filter_map(|(s, dup)| (!dup).then_some(s))
        .collect();
    let uploaded: Vec<Fingerprint> = to_upload.iter().map(|(m, _)| m.fingerprint).collect();
    server.store_shares(user, &to_upload).unwrap();
    server
        .put_file(user, path, &recipe_of(&shares), &uploaded)
        .unwrap();
}

/// One surviving file of the torn-prefix workload: owner, server-side
/// pathname, and the exact share payloads its recipe references.
type ManifestEntry = (u64, Vec<u8>, Vec<Vec<u8>>);

/// Builds a server with a mixed (stores, dedup, deletes) history, entirely
/// flushed, and returns its backend plus the manifest of surviving files.
fn journaled_workload() -> (Arc<MemoryBackend>, Vec<ManifestEntry>) {
    let backend = Arc::new(MemoryBackend::new());
    let server = CdStoreServer::with_backend(0, backend.clone());
    let mut manifest = Vec::new();
    for user in 1..=3u64 {
        for file in 0..4u64 {
            let datas: Vec<Vec<u8>> = (0..5u64)
                .map(|i| {
                    if i == 0 {
                        b"shared-across-everyone".to_vec()
                    } else {
                        format!("u{user} f{file} share {i}").into_bytes()
                    }
                })
                .collect();
            let path = format!("/u{user}/f{file}").into_bytes();
            server_backup(&server, user, &path, &datas);
            manifest.push((user, path, datas));
        }
        // Churn: one delete and one re-upload per user.
        let victim = format!("/u{user}/f3").into_bytes();
        assert!(server.delete_file(user, &victim).unwrap());
        manifest.retain(|(u, p, _)| !(*u == user && p == &victim));
        let path = format!("/u{user}/f0").into_bytes();
        let newer = vec![format!("u{user} rewritten").into_bytes()];
        server_backup(&server, user, &path, &newer);
        manifest.retain(|(u, p, _)| !(*u == user && p == &path));
        manifest.push((user, path, newer));
    }
    server.flush().unwrap();
    (backend, manifest)
}

/// Copies every object, truncating the single WAL segment to `cut` bytes.
fn truncated_copy(backend: &MemoryBackend, wal_key: &str, cut: usize) -> Arc<MemoryBackend> {
    let copy = Arc::new(MemoryBackend::new());
    for key in backend.list().unwrap() {
        let mut bytes = backend.get(&key).unwrap();
        if key == wal_key {
            bytes.truncate(cut);
            if bytes.is_empty() {
                continue;
            }
        }
        copy.put(&key, &bytes).unwrap();
    }
    copy
}

/// The consistency invariant a recovered server must satisfy for *any*
/// journal prefix: recovery never panics, the torn tail is detected exactly
/// when the cut falls inside a frame, and every file the recovered index
/// still knows restores byte-exactly (no dangling references).
fn assert_consistent_after_cut(
    backend: &MemoryBackend,
    wal_key: &str,
    wal: &[u8],
    cut: usize,
    manifest: &[ManifestEntry],
) {
    let copy = truncated_copy(backend, wal_key, cut);
    let (expected_records, expected_torn) = decode_records(&wal[..cut]);
    let (server, report) = CdStoreServer::open(0, copy).unwrap();
    assert_eq!(report.torn_tail, expected_torn, "cut {cut}");
    assert_eq!(report.records_replayed, expected_records.len(), "cut {cut}");
    for (user, path, datas) in manifest {
        match server.get_recipe(*user, path) {
            Ok(recipe) => {
                // The file survived the prefix: every reference must resolve
                // to the exact bytes (though possibly an *older version's*
                // recipe if the cut predates a re-upload — hence we check
                // resolvability, and exact bytes only when the recipe
                // matches the final manifest).
                let fetched: Vec<Vec<u8>> = recipe
                    .entries
                    .iter()
                    .map(|entry| {
                        server
                            .fetch_share(*user, &entry.share_fingerprint)
                            .unwrap_or_else(|e| {
                                panic!("cut {cut}: dangling reference in recovered recipe: {e}")
                            })
                    })
                    .collect();
                if recipe.entries.len() == datas.len()
                    && recipe
                        .entries
                        .iter()
                        .zip(datas)
                        .all(|(entry, data)| entry.share_fingerprint == Fingerprint::of(data))
                {
                    assert_eq!(&fetched, datas, "cut {cut}: corrupted restore");
                }
            }
            Err(_) => {
                // Pruned or never reached this prefix — consistent too.
            }
        }
    }
    // The recovered server accepts fresh traffic on top of any prefix.
    server_backup(&server, 9, b"/after-recovery", &[b"fresh share".to_vec()]);
    assert_eq!(
        server
            .fetch_share(9, &Fingerprint::of(b"fresh share"))
            .unwrap(),
        b"fresh share"
    );
}

#[test]
fn torn_journal_prefixes_recover_deterministic_edges() {
    let (backend, manifest) = journaled_workload();
    let wal_keys: Vec<String> = backend
        .list()
        .unwrap()
        .into_iter()
        .filter(|k| k.starts_with(WAL_PREFIX))
        .collect();
    assert_eq!(wal_keys.len(), 1, "workload must fit one WAL segment");
    let wal = backend.get(&wal_keys[0]).unwrap();
    // The interesting deterministic cuts: nothing, a bare length prefix, a
    // torn first record, one byte short, and the full journal.
    for cut in [0, 4, 11, wal.len() - 1, wal.len()] {
        assert_consistent_after_cut(&backend, &wal_keys[0], &wal, cut, &manifest);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        if cfg!(debug_assertions) { 24 } else { 96 }))]
    #[test]
    fn torn_journal_prefixes_recover_a_consistent_state(cut_seed: u64) {
        let (backend, manifest) = journaled_workload();
        let wal_keys: Vec<String> = backend
            .list()
            .unwrap()
            .into_iter()
            .filter(|k| k.starts_with(WAL_PREFIX))
            .collect();
        assert_eq!(wal_keys.len(), 1, "workload must fit one WAL segment");
        let wal = backend.get(&wal_keys[0]).unwrap();
        let cut = (cut_seed % (wal.len() as u64 + 1)) as usize;
        assert_consistent_after_cut(&backend, &wal_keys[0], &wal, cut, &manifest);
    }
}

// ---------------------------------------------------------------------------
// Restart during churn.
// ---------------------------------------------------------------------------

/// Restarts servers one at a time in the middle of an 8-thread
/// backup/delete/gc churn loop (the gc_churn machinery): the system must
/// converge with byte-exact restores, and a final cold reopen from the
/// backends must still restore everything.
#[test]
fn restarting_servers_mid_churn_converges_byte_exact() {
    let threads = 8u64;
    let backends = new_backends();
    let store = CdStore::with_backends(config(), as_dyn(&backends)).unwrap();
    let barrier = Barrier::new(threads as usize + 1);

    std::thread::scope(|scope| {
        for user in 1..=threads {
            let store = store.clone();
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                for round in 0..CHURN_ROUNDS {
                    let mut data = payload(FILE_BYTES, 1000 + user * 100 + round as u64);
                    data.extend_from_slice(&payload(FILE_BYTES / 4, 7 + round as u64));
                    let path = format!("/u{user}/r{round}.tar");
                    store.backup(user, &path, &data).unwrap();
                    assert_eq!(store.restore(user, &path).unwrap(), data, "{path}");
                    if round > 0 {
                        let victim = format!("/u{user}/r{}.tar", round - 1);
                        assert!(store.delete(user, &victim).unwrap());
                    }
                    if user % 2 == 0 && round % 2 == 1 {
                        store.gc().unwrap();
                    }
                }
            });
        }
        // The restarter: bounce one server after another mid-traffic.
        let store = store.clone();
        let barrier = &barrier;
        scope.spawn(move || {
            barrier.wait();
            for bounce in 0..(N * 2) {
                let report = store.restart_server(bounce % N).unwrap();
                assert!(
                    !report.pruned_anything(),
                    "graceful restart lost state: {report:?}"
                );
                std::thread::yield_now();
            }
        });
    });

    // Convergence: every thread's final file restores byte-exactly.
    let last = CHURN_ROUNDS - 1;
    for user in 1..=threads {
        let mut expected = payload(FILE_BYTES, 1000 + user * 100 + last as u64);
        expected.extend_from_slice(&payload(FILE_BYTES / 4, 7 + last as u64));
        assert_eq!(
            store
                .restore(user, &format!("/u{user}/r{last}.tar"))
                .unwrap(),
            expected
        );
    }

    // And a full cold reopen from the backends agrees.
    store.flush().unwrap();
    drop(store);
    let (revived, _) = CdStore::open(config(), as_dyn(&backends)).unwrap();
    for user in 1..=threads {
        let mut expected = payload(FILE_BYTES, 1000 + user * 100 + last as u64);
        expected.extend_from_slice(&payload(FILE_BYTES / 4, 7 + last as u64));
        assert_eq!(
            revived
                .restore(user, &format!("/u{user}/r{last}.tar"))
                .unwrap(),
            expected
        );
        assert!(revived
            .delete(user, &format!("/u{user}/r{last}.tar"))
            .unwrap());
    }
    revived.gc().unwrap();
    assert_eq!(revived.stats().backend_bytes.iter().sum::<u64>(), 0);
}

// ---------------------------------------------------------------------------
// The request is the unit of commit: one append per request, durable before
// any delete it justifies, and the objects it writes unchanged.
// ---------------------------------------------------------------------------

/// A pass-through backend that counts journal appends and photographs every
/// object the instant after the first container delete — the state a crash
/// at that point would leave behind.
struct ProbeBackend {
    inner: Arc<dyn StorageBackend>,
    appends: AtomicUsize,
    after_first_container_delete: Mutex<Option<Arc<MemoryBackend>>>,
}

impl ProbeBackend {
    fn new(inner: Arc<dyn StorageBackend>) -> Arc<Self> {
        Arc::new(ProbeBackend {
            inner,
            appends: AtomicUsize::new(0),
            after_first_container_delete: Mutex::new(None),
        })
    }

    fn appends(&self) -> usize {
        self.appends.load(Ordering::SeqCst)
    }
}

impl StorageBackend for ProbeBackend {
    fn put(&self, key: &str, data: &[u8]) -> Result<(), StorageError> {
        self.inner.put(key, data)
    }

    fn get(&self, key: &str) -> Result<Vec<u8>, StorageError> {
        self.inner.get(key)
    }

    fn delete(&self, key: &str) -> Result<(), StorageError> {
        self.inner.delete(key)?;
        let mut photo = self.after_first_container_delete.lock().unwrap();
        if photo.is_none() && parse_container_key(key).is_some() {
            let copy = Arc::new(MemoryBackend::new());
            for key in self.inner.list()? {
                copy.put(&key, &self.inner.get(&key)?)?;
            }
            *photo = Some(copy);
        }
        Ok(())
    }

    fn exists(&self, key: &str) -> Result<bool, StorageError> {
        self.inner.exists(key)
    }

    fn list(&self) -> Result<Vec<String>, StorageError> {
        self.inner.list()
    }

    fn append(&self, key: &str, data: &[u8]) -> Result<(), StorageError> {
        self.appends.fetch_add(1, Ordering::SeqCst);
        self.inner.append(key, data)
    }

    fn object_size(&self, key: &str) -> Result<u64, StorageError> {
        self.inner.object_size(key)
    }
}

/// One 1 000-share upload is one journal append, and committing its recipe
/// at most one more — whatever the backend charges per append (on a
/// `DirBackend`, an `open + write + fsync`).
#[test]
fn a_share_batch_is_one_journal_append_and_its_put_file_at_most_one() {
    let root = std::env::temp_dir().join(format!("cdstore-group-commit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let inners: [Arc<dyn StorageBackend>; 2] = [
        Arc::new(MemoryBackend::new()),
        Arc::new(DirBackend::new(&root).unwrap()),
    ];
    for inner in inners {
        let probe = ProbeBackend::new(inner.clone());
        let server = CdStoreServer::with_backend(0, probe.clone());
        let datas: Vec<Vec<u8>> = (0..1000u32)
            .map(|i| format!("share {i} of one upload batch").into_bytes())
            .collect();
        let shares = shares_of(&datas);
        server.store_shares(1, &shares).unwrap();
        assert_eq!(probe.appends(), 1, "one batch, one append");
        let uploaded: Vec<Fingerprint> = shares.iter().map(|(m, _)| m.fingerprint).collect();
        let recipe = recipe_of(&shares);
        server.put_file(1, b"/batch", &recipe, &uploaded).unwrap();
        assert!(probe.appends() <= 2, "{} appends", probe.appends());
        server.flush().unwrap();
        drop(server);
        // What those two appends made durable is the whole upload.
        let (revived, report) = CdStoreServer::open(0, inner).unwrap();
        assert!(!report.pruned_anything(), "{report:?}");
        assert_eq!(report.records_replayed, 2 * datas.len() + 1);
        for data in &datas {
            assert_eq!(
                &revived.fetch_share(1, &Fingerprint::of(data)).unwrap(),
                data
            );
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// A crash right after a compaction deleted the container it emptied: the
/// relocations were committed *before* the delete, so the journal never
/// resolves a share into a container that is gone.
#[test]
fn a_crash_between_gc_relocation_and_container_delete_loses_no_share() {
    let probe = ProbeBackend::new(Arc::new(MemoryBackend::new()));
    let server = CdStoreServer::with_backend(0, probe.clone());
    // One share container, mostly dead, with survivors in the middle: the
    // pass's only container delete is the one that follows a compaction.
    let doomed: Vec<Vec<u8>> = (0..40u32).map(|i| vec![i as u8; 20_000]).collect();
    let kept: Vec<Vec<u8>> = (0..12u32)
        .map(|i| format!("survivor share {i}").into_bytes())
        .collect();
    server_backup(&server, 1, b"/doomed-a", &doomed[..20]);
    server_backup(&server, 1, b"/kept", &kept);
    server_backup(&server, 1, b"/doomed-b", &doomed[20..]);
    server.flush().unwrap();
    assert!(server.delete_file(1, b"/doomed-a").unwrap());
    assert!(server.delete_file(1, b"/doomed-b").unwrap());
    let report = server.gc().unwrap();
    assert_eq!(
        (report.containers_compacted, report.containers_deleted),
        (1, 0)
    );
    assert_eq!(report.shares_rewritten, kept.len() as u64);

    // Reopen from the photograph taken just after that delete.
    let crashed = probe
        .after_first_container_delete
        .lock()
        .unwrap()
        .take()
        .expect("the pass deleted a container");
    let (revived, _) = CdStoreServer::open(0, crashed).unwrap();
    assert_eq!(
        revived.get_recipe(1, b"/kept").unwrap().num_secrets(),
        kept.len()
    );
    for data in &kept {
        assert_eq!(
            &revived.fetch_share(1, &Fingerprint::of(data)).unwrap(),
            data
        );
    }
    assert!(revived.get_recipe(1, b"/doomed-a").is_err());
}

/// The objects a backup leaves on the backend are pinned to the bytes the
/// record-at-a-time server wrote: sealing through `put_parts` and committing
/// by the batch change how containers and recipes get there, not what they
/// are. (The journal is bookkeeping and deliberately not pinned.)
#[test]
fn container_and_recipe_objects_are_byte_identical_to_the_pinned_backup() {
    let backends = new_backends();
    let store = CdStore::with_backends(config(), as_dyn(&backends)).unwrap();
    let shared = payload(30_000, 5);
    for user in 1..=2u64 {
        for file in 0..2u64 {
            let mut data = payload(90_000, 10 * user + file);
            data.extend_from_slice(&shared);
            store
                .backup(user, &format!("/u{user}/f{file}"), &data)
                .unwrap();
        }
    }
    // A re-upload and a delete, so superseded recipes are in the picture.
    store.backup(1, "/u1/f0", &payload(50_000, 99)).unwrap();
    assert!(store.delete(2, "/u2/f1").unwrap());
    store.flush().unwrap();

    let observed: Vec<(u64, String)> = store.with_servers(|servers| {
        servers
            .iter()
            .zip(&backends)
            .map(|(server, backend)| {
                let mut objects = Vec::new();
                for key in backend.list().unwrap() {
                    if parse_container_key(&key).is_some() {
                        objects.extend_from_slice(key.as_bytes());
                        objects.extend_from_slice(&backend.get(&key).unwrap());
                    }
                }
                (server.backend_bytes(), Fingerprint::of(&objects).to_hex())
            })
            .collect()
    });
    let pinned: [(u64, &str); 4] = PINNED_CONTAINER_OBJECTS;
    for (cloud, (observed, pinned)) in observed.iter().zip(pinned).enumerate() {
        assert_eq!((observed.0, observed.1.as_str()), pinned, "cloud {cloud}");
    }
}

/// `(backend_bytes(), SHA-256 over key ‖ object of every container, in key
/// order)` per cloud for the backup above, as produced at the parent of the
/// group-commit change.
const PINNED_CONTAINER_OBJECTS: [(u64, &str); 4] = [
    (
        167443,
        "98469f4aad890b1b2c5b13512188af238a7f38a535e55e04afa8ce58b734a8f5",
    ),
    (
        167443,
        "6780565aa70f05cbddb70432d3696bcc485c9f858485c5e64bba0004bb1fb7b6",
    ),
    (
        167443,
        "6971f114975a8773266a24d95d765a01effc8206d6113374af5b39b19026ea1b",
    ),
    (
        167443,
        "280358ace71f9c7acea5438f9f5ca1e7c1651502b7cbc95214ca1e0f26b2d751",
    ),
];
