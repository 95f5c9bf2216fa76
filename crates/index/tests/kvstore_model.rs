//! Model-based and crash-consistency tests for the LSM `KvStore`.
//!
//! The in-crate unit proptests cover put/delete interleavings against a
//! reference `BTreeMap`; this suite widens the operation alphabet to the
//! *structural* operations — explicit flushes, compactions, full
//! close/reopen cycles, and checkpoints (a memtable dump installed over the
//! reopened runs, as a server recovers) — and adds a crash test that
//! truncates run objects to arbitrary byte prefixes before reopening.

use std::collections::BTreeMap;
use std::sync::Arc;

use cdstore_index::{KvStore, KvStoreConfig};
use cdstore_storage::{MemoryBackend, StorageBackend};
use proptest::prelude::*;

/// One step of a store workload.
#[derive(Debug, Clone)]
enum Op {
    Put(u8, u8),
    Delete(u8),
    Flush,
    Compact,
    Reopen,
    Checkpoint,
}

/// Weighted op strategy: mostly puts, some deletes, occasional structural
/// ops. (The vendored proptest shim has no `prop_oneof!`/`prop_map`, so the
/// weighting is hand-rolled.)
#[derive(Debug, Clone, Copy)]
struct OpStrategy;

impl Strategy for OpStrategy {
    type Value = Op;

    fn generate(&self, rng: &mut proptest::TestRng) -> Op {
        use rand::Rng;
        match rng.gen_range(0u32..16) {
            0..=7 => Op::Put(rng.gen_range(0u8..48), rng.gen()),
            8..=11 => Op::Delete(rng.gen_range(0u8..48)),
            12 => Op::Flush,
            13 => Op::Compact,
            14 => Op::Reopen,
            _ => Op::Checkpoint,
        }
    }
}

fn test_config() -> KvStoreConfig {
    KvStoreConfig {
        memtable_capacity: 5,
        max_runs: 3,
        bloom_bits_per_key: 8,
        block_bytes: 64,
        block_cache_bytes: 1024,
        ..KvStoreConfig::default()
    }
}

fn key_bytes(k: u8) -> Vec<u8> {
    // Two-byte keys so several keys share a block in disk runs.
    vec![b'k', k]
}

/// Drives `ops` through a fresh store and a reference `BTreeMap`, reopening
/// from the backend on `Op::Reopen` and `Op::Checkpoint`, then checks full
/// agreement.
fn run_model(ops: &[Op]) -> Result<(), TestCaseError> {
    let backend: Arc<dyn StorageBackend> = Arc::new(MemoryBackend::new());
    let reopen = || KvStore::open(Arc::clone(&backend), "model", test_config()).expect("reopen");
    let mut store = KvStore::create(Arc::clone(&backend), "model", test_config()).unwrap();
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for op in ops {
        match op {
            Op::Put(k, v) => {
                store.put(key_bytes(*k), vec![*v]);
                model.insert(key_bytes(*k), vec![*v]);
            }
            Op::Delete(k) => {
                store.delete(&key_bytes(*k));
                model.remove(&key_bytes(*k));
            }
            Op::Flush => store.try_flush().unwrap(),
            Op::Compact => store.try_compact().unwrap(),
            Op::Reopen => {
                // Reopening only resumes what was made durable; flush
                // first so the model and the store stay comparable.
                store.try_flush().unwrap();
                drop(store);
                store = reopen();
            }
            Op::Checkpoint => {
                // What a server checkpoint keeps: the memtable, tombstones
                // included, installed over the runs on recovery.
                let dump: Vec<_> = store
                    .memtable()
                    .map(|(k, v)| (k.to_vec(), v.map(<[u8]>::to_vec)))
                    .collect();
                drop(store);
                store = reopen();
                store.install(dump);
            }
        }
        prop_assert_eq!(store.len(), model.len());
    }
    for k in 0..48u8 {
        prop_assert_eq!(store.get(&key_bytes(k)), model.get(&key_bytes(k)).cloned());
    }
    prop_assert_eq!(store.snapshot(), model.clone());
    // A prefix scan over the shared leading byte must see exactly the model.
    let scanned: BTreeMap<Vec<u8>, Vec<u8>> = store.scan_prefix(b"k").into_iter().collect();
    prop_assert_eq!(scanned, model);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The store agrees with the model under structural ops including
    /// close/reopen cycles and checkpoints.
    #[test]
    fn disk_store_matches_model(ops in proptest::collection::vec(OpStrategy, 0..200)) {
        run_model(&ops)?;
    }
}

/// Builds a disk store with a known write history and returns the backend,
/// the final durable state, and every value historically written per key.
#[allow(clippy::type_complexity)]
fn seeded_store() -> (
    Arc<dyn StorageBackend>,
    BTreeMap<Vec<u8>, Vec<u8>>,
    BTreeMap<Vec<u8>, Vec<Vec<u8>>>,
) {
    let backend: Arc<dyn StorageBackend> = Arc::new(MemoryBackend::new());
    let config = KvStoreConfig {
        memtable_capacity: 100,
        max_runs: 32,
        block_bytes: 64,
        ..KvStoreConfig::default()
    };
    let mut store = KvStore::create(Arc::clone(&backend), "crash", config).unwrap();
    let mut model = BTreeMap::new();
    let mut history: BTreeMap<Vec<u8>, Vec<Vec<u8>>> = BTreeMap::new();
    for round in 0..4u8 {
        for k in 0..40u8 {
            if (k + round) % 7 == 0 {
                store.delete(&key_bytes(k));
                model.remove(&key_bytes(k));
            } else {
                let value = vec![round, k, 0xcd];
                store.put(key_bytes(k), value.clone());
                model.insert(key_bytes(k), value.clone());
                history.entry(key_bytes(k)).or_default().push(value);
            }
        }
        store.try_flush().unwrap();
    }
    (backend, model, history)
}

/// Crash-prefix test: truncating any run object to any byte prefix must
/// still yield a consistent reopen — torn runs are dropped, every surviving
/// value is one the workload actually wrote for that key, and the reopened
/// store keeps working. (Manifests are excluded: they are small objects
/// committed with a single atomic `put`, never appended to, so a torn
/// manifest prefix is not a state the backend contract can produce.)
#[test]
fn truncated_run_objects_reopen_consistently() {
    let (backend, model, history) = seeded_store();
    let run_keys: Vec<String> = {
        let mut keys: Vec<String> = backend
            .list()
            .unwrap()
            .into_iter()
            .filter(|k| k.contains("-r-"))
            .collect();
        keys.sort();
        keys
    };
    assert!(run_keys.len() >= 2, "seed must leave multiple runs");

    for victim in &run_keys {
        let intact = backend.get(victim).unwrap();
        // A spread of prefixes: empty, mid-frame, block boundaries, and
        // one byte short of complete.
        let cuts = [
            0,
            1,
            intact.len() / 3,
            intact.len() / 2,
            intact.len() - 9,
            intact.len() - 1,
        ];
        for &cut in &cuts {
            backend.put(victim, &intact[..cut]).unwrap();
            let mut store = KvStore::open(Arc::clone(&backend), "crash", test_config())
                .unwrap_or_else(|e| panic!("reopen with {victim} cut to {cut}B failed: {e}"));
            assert!(
                store.open_stats().runs_dropped >= 1,
                "{victim} cut to {cut}B should be detected as torn"
            );
            for (k, v) in store.snapshot() {
                let seen = history.get(&k).map(Vec::as_slice).unwrap_or(&[]);
                assert!(
                    seen.contains(&v),
                    "key {k:?} resurfaced with value {v:?} never written to it"
                );
            }
            // The survivor must still be writable and durable.
            store.put(b"post-crash".to_vec(), vec![cut as u8]);
            store.try_flush().unwrap();
            assert_eq!(store.get(b"post-crash"), Some(vec![cut as u8]));
            // Restore the incarnation for the next cut (including the run
            // object the reopen above deleted and possibly re-sequenced).
            for key in backend.list().unwrap() {
                if key.starts_with("idx-crash-") {
                    backend.delete(&key).unwrap();
                }
            }
            let (fresh, _, _) = seeded_store();
            for key in fresh.list().unwrap() {
                backend.put(&key, &fresh.get(&key).unwrap()).unwrap();
            }
        }
    }

    // Untouched incarnation still reopens byte-exact.
    let store = KvStore::open(Arc::clone(&backend), "crash", test_config()).unwrap();
    assert_eq!(store.snapshot(), model);
}
