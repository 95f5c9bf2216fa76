//! Garbage-collection churn stress: 8 threads drive concurrent backup,
//! delete, and vacuum traffic against one shared CDStore deployment, then
//! the suite checks the reclamation acceptance bar — after every file is
//! deleted and `gc()` runs, the backends shed at least 90% of their physical
//! bytes — while restores of surviving files stay byte-exact throughout.
//!
//! Sizes are reduced under `debug_assertions` so plain `cargo test` stays
//! fast; CI additionally runs this suite in release mode at full size.

use std::sync::Barrier;

use cdstore_core::{CdStore, CdStoreConfig, ServerTransport};

const THREADS: u64 = 8;
const ROUNDS: usize = if cfg!(debug_assertions) { 3 } else { 8 };
const FILE_BYTES: usize = if cfg!(debug_assertions) {
    60_000
} else {
    250_000
};

/// Position-dependent, seed-scoped data: deterministic chunk boundaries and
/// deterministic cross-seed uniqueness.
fn payload(len: usize, seed: u64) -> Vec<u8> {
    (0..len)
        .map(|i| ((i / 512) as u8).wrapping_mul(37).wrapping_add(seed as u8))
        .collect()
}

fn new_store() -> CdStore {
    CdStore::new(CdStoreConfig::new(4, 3).unwrap())
}

fn total_backend_bytes(store: &CdStore) -> u64 {
    store.stats().backend_bytes.iter().sum()
}

/// The acceptance scenario: a churn workload (every thread repeatedly backs
/// up, verifies, and deletes files, with vacuums running mid-traffic), after
/// which deleting everything and collecting garbage must reclaim ≥ 90% of
/// the backends' physical bytes.
#[test]
fn churn_delete_all_then_gc_reclaims_at_least_90_percent() {
    let store = new_store();
    let barrier = Barrier::new(THREADS as usize);

    std::thread::scope(|scope| {
        for user in 1..=THREADS {
            let store = store.clone();
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                for round in 0..ROUNDS {
                    // Mostly private data plus a block shared by all users in
                    // the round, so inter-user dedup references cross threads.
                    let mut data = payload(FILE_BYTES, 1000 + user * 100 + round as u64);
                    data.extend_from_slice(&payload(FILE_BYTES / 4, 7 + round as u64));
                    let path = format!("/u{user}/r{round}.tar");
                    store.backup(user, &path, &data).unwrap();
                    assert_eq!(store.restore(user, &path).unwrap(), data);
                    // Churn: drop the previous round's file mid-traffic, and
                    // vacuum from half of the threads every other round.
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
    });

    // Only each thread's final file survived the churn; all restorable.
    for user in 1..=THREADS {
        let last = ROUNDS - 1;
        let mut expected = payload(FILE_BYTES, 1000 + user * 100 + last as u64);
        expected.extend_from_slice(&payload(FILE_BYTES / 4, 7 + last as u64));
        assert_eq!(
            store
                .restore(user, &format!("/u{user}/r{last}.tar"))
                .unwrap(),
            expected
        );
    }

    store.flush().unwrap();
    let before = total_backend_bytes(&store);
    assert!(before > 0);

    // Delete everything and vacuum: the backends must shed ≥ 90%.
    for user in 1..=THREADS {
        assert!(store
            .delete(user, &format!("/u{user}/r{}.tar", ROUNDS - 1))
            .unwrap());
    }
    let report = store.gc().unwrap();
    assert!(report.reclaimed_bytes > 0);
    let after = total_backend_bytes(&store);
    assert!(
        after <= before / 10,
        "gc reclaimed too little: {before} -> {after} backend bytes"
    );
    // Nothing is left referenced anywhere.
    store.with_servers(|servers| {
        for server in servers {
            assert_eq!(server.probe().unwrap().unique_shares, 0);
            assert_eq!(server.probe().unwrap().live_share_bytes, 0);
        }
    });
}

/// Concurrent restores of surviving files remain byte-exact while other
/// threads churn backups, deletes, and vacuums that compact the very
/// containers the survivors live in.
#[test]
fn concurrent_restores_stay_byte_exact_under_gc_churn() {
    let store = new_store();
    let survivor = payload(FILE_BYTES, 555);
    store.backup(99, "/survivor.tar", &survivor).unwrap();
    store.flush().unwrap();

    let churners = 4u64;
    let readers = 3usize;
    let barrier = Barrier::new(churners as usize + readers + 1);
    std::thread::scope(|scope| {
        // Churners: create and destroy files round after round.
        for user in 1..=churners {
            let store = store.clone();
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                for round in 0..ROUNDS {
                    let data = payload(FILE_BYTES, user * 31 + round as u64);
                    let path = format!("/churn/u{user}/r{round}.tar");
                    store.backup(user, &path, &data).unwrap();
                    assert!(store.delete(user, &path).unwrap());
                }
            });
        }
        // Readers: hammer the survivor for byte-exactness the whole time.
        for _ in 0..readers {
            let store = store.clone();
            let barrier = &barrier;
            let survivor = &survivor;
            scope.spawn(move || {
                barrier.wait();
                for _ in 0..ROUNDS * 2 {
                    assert_eq!(&store.restore(99, "/survivor.tar").unwrap(), survivor);
                }
            });
        }
        // Vacuum: run back-to-back passes through the churn.
        {
            let store = store.clone();
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                for _ in 0..ROUNDS {
                    store.gc().unwrap();
                }
            });
        }
    });

    // Final vacuum: everything except the survivor is garbage.
    store.gc().unwrap();
    assert_eq!(store.restore(99, "/survivor.tar").unwrap(), survivor);
    store.with_servers(|servers| {
        for server in servers {
            assert!(
                server.probe().unwrap().live_share_bytes > 0,
                "the survivor stays live"
            );
        }
    });
}
