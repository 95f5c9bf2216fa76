//! Concurrency stress suite: many real OS threads driving backup, restore,
//! and delete against one shared CDStore deployment (§5.4's multi-client
//! workload, as correctness rather than speed).
//!
//! The invariants checked here are the ones the sharded-server refactor must
//! preserve:
//!
//! * every restore is byte-exact, no matter how many writers run;
//! * a share stored by racing clients lands in a container exactly once
//!   (inter-user deduplication under contention);
//! * the per-server traffic counters reconcile with the sum of the
//!   per-client [`UploadReport`]s — nothing is double-counted or lost.
//!
//! Sizes are reduced under `debug_assertions` so plain `cargo test` stays
//! fast; CI additionally runs this suite in release mode at full size.

use std::sync::{Barrier, Mutex};

use cdstore_core::{CdStore, CdStoreConfig, ServerTransport, UploadReport};

const USERS: u64 = 4;
const THREADS_PER_USER: u64 = 2;
const THREADS: u64 = USERS * THREADS_PER_USER; // 8 concurrent client threads

const ROUNDS: usize = if cfg!(debug_assertions) { 2 } else { 5 };
const FILE_BYTES: usize = if cfg!(debug_assertions) {
    50_000
} else {
    200_000
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

fn total_physical(store: &CdStore) -> u64 {
    store
        .stats()
        .servers
        .iter()
        .map(|s| s.physical_share_bytes)
        .sum()
}

#[test]
fn racing_duplicate_backups_store_each_share_exactly_once() {
    let shared_data = payload(FILE_BYTES, 250);

    // Reference: the same content uploaded once by a single client.
    let reference = new_store();
    reference.backup(1, "/ref", &shared_data).unwrap();
    let reference_physical = total_physical(&reference);
    let reference_unique: Vec<u64> = reference.with_servers(|servers| {
        servers
            .iter()
            .map(|s| s.probe().unwrap().unique_shares)
            .collect()
    });
    assert!(reference_physical > 0);

    // Race: 8 client threads push the identical content simultaneously.
    let store = new_store();
    let barrier = Barrier::new(THREADS as usize);
    std::thread::scope(|scope| {
        for user in 1..=THREADS {
            let store = store.clone();
            let barrier = &barrier;
            let shared_data = &shared_data;
            scope.spawn(move || {
                barrier.wait();
                store
                    .backup(user, &format!("/u{user}/same.tar"), shared_data)
                    .unwrap();
            });
        }
    });

    // Physical storage is identical to the single-client reference: the
    // racing duplicates never reached a container.
    assert_eq!(total_physical(&store), reference_physical);
    store.with_servers(|servers| {
        for (server, expected_unique) in servers.iter().zip(&reference_unique) {
            assert_eq!(server.probe().unwrap().unique_shares, *expected_unique);
        }
    });
    let stats = store.stats();
    let duplicates: u64 = stats.servers.iter().map(|s| s.inter_user_duplicates).sum();
    let received: u64 = stats.servers.iter().map(|s| s.shares_received).sum();
    assert_eq!(
        duplicates,
        received - reference_unique.iter().sum::<u64>(),
        "all but the first copy of each share must be inter-user duplicates"
    );
    // Every user still restores their own byte-exact copy.
    for user in 1..=THREADS {
        assert_eq!(
            store.restore(user, &format!("/u{user}/same.tar")).unwrap(),
            shared_data
        );
    }
}

#[test]
fn interleaved_backup_restore_delete_reconciles_stats() {
    let store = new_store();
    let reports: Mutex<Vec<UploadReport>> = Mutex::new(Vec::new());
    let barrier = Barrier::new(THREADS as usize);

    std::thread::scope(|scope| {
        for tid in 0..THREADS {
            let store = store.clone();
            let reports = &reports;
            let barrier = &barrier;
            scope.spawn(move || {
                let user = 1 + tid / THREADS_PER_USER; // 4 users, 2 threads each
                barrier.wait();
                for round in 0..ROUNDS {
                    // Disjoint data, unique to this thread and round.
                    let private = payload(FILE_BYTES, 1000 + tid * 100 + round as u64);
                    let private_path = format!("/u{user}/t{tid}/r{round}.tar");
                    let r = store.backup(user, &private_path, &private).unwrap();
                    reports.lock().unwrap().push(r);
                    assert_eq!(store.restore(user, &private_path).unwrap(), private);

                    // Shared data: identical bytes uploaded by all 8 threads
                    // in the same round, exercising both dedup stages.
                    let shared = payload(FILE_BYTES, 7 + round as u64);
                    let shared_path = format!("/u{user}/t{tid}/shared-r{round}.tar");
                    let r = store.backup(user, &shared_path, &shared).unwrap();
                    reports.lock().unwrap().push(r);
                    assert_eq!(store.restore(user, &shared_path).unwrap(), shared);

                    // Delete the previous round's private file mid-traffic.
                    if round > 0 {
                        let victim = format!("/u{user}/t{tid}/r{}.tar", round - 1);
                        assert!(store.delete(user, &victim).unwrap());
                        assert!(store.restore(user, &victim).is_err());
                    }
                }
            });
        }
    });

    // Per-server reconciliation: the bytes every server says it received /
    // newly stored equal the sums the clients reported sending / storing.
    let reports = reports.into_inner().unwrap();
    assert_eq!(reports.len(), THREADS as usize * ROUNDS * 2);
    let stats = store.stats();
    let n = store.config().n;
    for cloud in 0..n {
        let client_transferred: u64 = reports.iter().map(|r| r.transferred_per_cloud[cloud]).sum();
        let client_physical: u64 = reports.iter().map(|r| r.physical_per_cloud[cloud]).sum();
        let server = &stats.servers[cloud];
        assert_eq!(
            server.received_share_bytes, client_transferred,
            "cloud {cloud}: received bytes must match the clients' transfers"
        );
        assert_eq!(
            server.physical_share_bytes, client_physical,
            "cloud {cloud}: physical bytes must match the clients' new-byte reports"
        );
    }
    // Aggregated dedup counters line up with the same sums.
    let all_transferred: u64 = reports
        .iter()
        .map(|r| r.dedup.transferred_share_bytes)
        .sum();
    assert_eq!(stats.dedup.transferred_share_bytes, all_transferred);

    // Every file that was not deleted is still restorable, byte for byte.
    for tid in 0..THREADS {
        let user = 1 + tid / THREADS_PER_USER;
        let last = ROUNDS - 1;
        assert_eq!(
            store
                .restore(user, &format!("/u{user}/t{tid}/r{last}.tar"))
                .unwrap(),
            payload(FILE_BYTES, 1000 + tid * 100 + last as u64)
        );
        for round in 0..ROUNDS {
            assert_eq!(
                store
                    .restore(user, &format!("/u{user}/t{tid}/shared-r{round}.tar"))
                    .unwrap(),
                payload(FILE_BYTES, 7 + round as u64)
            );
        }
    }
    // Catalogue: per thread, ROUNDS shared files plus one surviving private
    // file (the rest were deleted).
    assert_eq!(stats.files, THREADS as usize * (ROUNDS + 1));
}

#[test]
fn racing_writes_to_the_same_file_leave_a_consistent_version() {
    // Two threads of the same user write *different* content to the same
    // pathname concurrently. The per-cloud recipes must never end up mixed
    // between the two uploads: the restore must return one payload intact.
    let store = new_store();
    let payload_a = payload(FILE_BYTES, 111);
    let payload_b = payload(FILE_BYTES, 222);
    for round in 0..ROUNDS {
        let readers = if round == 0 { 0 } else { 2 };
        let barrier = Barrier::new(2 + readers);
        std::thread::scope(|scope| {
            for data in [&payload_a, &payload_b] {
                let store = store.clone();
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    store.backup(1, "/contested.tar", data).unwrap();
                });
            }
            // From round 1 the file exists: concurrent restores must never
            // observe a half-committed rewrite (mixed per-cloud recipes).
            for _ in 0..readers {
                let store = store.clone();
                let barrier = &barrier;
                let (payload_a, payload_b) = (&payload_a, &payload_b);
                scope.spawn(move || {
                    barrier.wait();
                    let restored = store.restore(1, "/contested.tar").unwrap();
                    assert!(
                        &restored == payload_a || &restored == payload_b,
                        "mid-race restore returned a mix of two uploads"
                    );
                });
            }
        });
        let restored = store.restore(1, "/contested.tar").unwrap();
        assert!(
            restored == payload_a || restored == payload_b,
            "round {round}: restore returned a mix of two uploads"
        );
    }
    assert_eq!(store.stats().files, 1);
}

#[test]
fn concurrent_readers_and_writers_do_not_disturb_each_other() {
    let store = new_store();
    // Seed a stable file set first.
    let stable: Vec<(u64, String, Vec<u8>)> = (1..=USERS)
        .map(|user| {
            let data = payload(FILE_BYTES, 40 + user);
            let path = format!("/u{user}/stable.tar");
            store.backup(user, &path, &data).unwrap();
            (user, path, data)
        })
        .collect();
    store.flush().unwrap();

    let barrier = Barrier::new(THREADS as usize);
    std::thread::scope(|scope| {
        // Half the threads hammer restores of the stable files...
        for tid in 0..THREADS / 2 {
            let store = store.clone();
            let barrier = &barrier;
            let stable = &stable;
            scope.spawn(move || {
                barrier.wait();
                for round in 0..ROUNDS * 2 {
                    let (user, path, data) = &stable[((tid as usize) + round) % stable.len()];
                    assert_eq!(&store.restore(*user, path).unwrap(), data);
                }
            });
        }
        // ...while the other half writes and deletes fresh files.
        for tid in 0..THREADS / 2 {
            let store = store.clone();
            let barrier = &barrier;
            scope.spawn(move || {
                let user = 1 + tid % USERS;
                barrier.wait();
                for round in 0..ROUNDS {
                    let data = payload(FILE_BYTES, 5000 + tid * 10 + round as u64);
                    let path = format!("/u{user}/w{tid}-r{round}.tar");
                    store.backup(user, &path, &data).unwrap();
                    assert_eq!(store.restore(user, &path).unwrap(), data);
                    assert!(store.delete(user, &path).unwrap());
                }
            });
        }
    });

    // The stable files were never disturbed; only they remain catalogued.
    for (user, path, data) in &stable {
        assert_eq!(&store.restore(*user, path).unwrap(), data);
    }
    assert_eq!(store.stats().files, stable.len());
}
