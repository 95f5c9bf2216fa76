//! Deduplication does not depend on how client threads interleave.
//!
//! The `weekly-wire` benchmark replays an FSL-like weekly trace from two
//! client threads, each flushing after each of its rounds, so which user
//! stores a shared chunk first, and when each container is sealed, varies
//! from run to run. What each server deduplicates must not: the same trace
//! replayed split across two threads (twice) and on one thread must leave
//! every server with the same unique shares and the same live share bytes.

use std::collections::BTreeMap;
use std::sync::Arc;

use cdstore_chunking::ChunkerKind;
use cdstore_core::{CdStore, CdStoreConfig, ServerTransport};
use cdstore_storage::{MemoryBackend, StorageBackend};
use cdstore_workloads::{FslConfig, FslWorkload, Snapshot, Workload};

const USERS: usize = 4;

/// The prefixes of every object a server writes to its backend.
const PREFIXES: [&str; 4] = ["container-", "meta-wal-", "meta-ckpt-", "idx-"];

fn trace() -> Vec<Vec<Snapshot>> {
    FslWorkload::new(FslConfig {
        users: USERS,
        weeks: 4,
        initial_chunks_per_user: 200,
        ..FslConfig::default()
    })
    .snapshots()
}

/// What one replay left on each of the four servers.
struct Replayed {
    /// `(unique_shares, live_share_bytes)` per server.
    dedup: Vec<(u64, u64)>,
    /// Backend bytes per object-key prefix, per server.
    stored: Vec<BTreeMap<&'static str, u64>>,
}

/// Replays `weeks` on a fresh (4, 3) store from `threads` client threads,
/// users split between them as `bench_e2e` splits them; every thread
/// flushes after each of its weekly rounds.
fn replay(weeks: &[Vec<(u64, String, Vec<u8>)>], threads: usize) -> Replayed {
    let backends: Vec<Arc<MemoryBackend>> =
        (0..4).map(|_| Arc::new(MemoryBackend::new())).collect();
    let config = CdStoreConfig::new(4, 3)
        .unwrap()
        .with_chunker_kind(ChunkerKind::FastCdc);
    let dynamic = backends
        .iter()
        .map(|b| b.clone() as Arc<dyn StorageBackend>)
        .collect();
    let store = CdStore::with_backends(config, dynamic).unwrap();
    std::thread::scope(|scope| {
        for thread in 0..threads {
            let store = &store;
            scope.spawn(move || {
                for week in weeks {
                    let mine = week
                        .iter()
                        .filter(|(user, _, _)| (*user - 1) as usize * threads / USERS == thread);
                    for (user, path, data) in mine {
                        store.backup(*user, path, data).unwrap();
                    }
                    store.flush().unwrap();
                }
            });
        }
    });
    let dedup = store.with_servers(|servers| {
        (servers.iter())
            .map(|s| {
                let probe = s.probe().unwrap();
                (probe.unique_shares, probe.live_share_bytes)
            })
            .collect()
    });
    let stored = (backends.iter())
        .map(|backend| {
            let mut by_prefix = BTreeMap::new();
            for key in backend.list().unwrap() {
                let prefix = PREFIXES
                    .iter()
                    .find(|p| key.starts_with(*p))
                    .unwrap_or_else(|| panic!("object {key} has no known prefix"));
                *by_prefix.entry(*prefix).or_default() += backend.get(&key).unwrap().len() as u64;
            }
            by_prefix
        })
        .collect();
    Replayed { dedup, stored }
}

/// Also prints each run's backend bytes per object prefix (`--nocapture`):
/// at `bench_e2e`'s size those differ between two-thread runs in
/// `container-` (a flush seals another thread's open container, adding one
/// container header) and in `meta-ckpt-`/`meta-wal-` (where the automatic
/// checkpoint lands), never in what was deduplicated (`docs/datapath.md`).
#[test]
fn dedup_state_is_the_same_however_client_threads_interleave() {
    let weeks: Vec<Vec<(u64, String, Vec<u8>)>> = trace()
        .iter()
        .map(|week| {
            week.iter()
                .map(|snap| (snap.user + 1, snap.pathname(), snap.materialize().concat()))
                .collect()
        })
        .collect();
    let runs = [replay(&weeks, 2), replay(&weeks, 2), replay(&weeks, 1)];
    for (i, run) in runs.iter().enumerate() {
        eprintln!("run {i}: backend bytes by prefix {:?}", run.stored);
    }
    for run in &runs[1..] {
        assert_eq!(
            run.dedup, runs[0].dedup,
            "(unique shares, live share bytes) per server"
        );
    }
}
