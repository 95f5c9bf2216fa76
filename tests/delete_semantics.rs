//! Delete and space-reclamation semantics, end to end: deletion releases
//! share references, reference counting protects inter-user and intra-user
//! sharing, garbage collection shrinks the physical footprint, and deletes
//! aimed at failed clouds replay on recovery instead of leaving orphans.

use cdstore_core::{CdStore, CdStoreConfig, CdStoreError, CdStoreServer, ServerTransport};
use cdstore_crypto::Fingerprint;

fn structured_data(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| ((i / 1000) as u8).wrapping_mul(41).wrapping_add(seed))
        .collect()
}

fn new_store() -> CdStore {
    CdStore::new(CdStoreConfig::new(4, 3).unwrap())
}

#[test]
fn restore_after_delete_returns_file_not_found() {
    let store = new_store();
    let data = structured_data(150_000, 1);
    store.backup(1, "/gone.tar", &data).unwrap();
    assert_eq!(store.restore(1, "/gone.tar").unwrap(), data);
    assert!(store.delete(1, "/gone.tar").unwrap());
    assert!(matches!(
        store.restore(1, "/gone.tar"),
        Err(CdStoreError::FileNotFound(_))
    ));
    // A second delete is a clean no-op.
    assert!(!store.delete(1, "/gone.tar").unwrap());
}

#[test]
fn fetch_share_fails_once_the_last_reference_is_released() {
    // Server-level view of the same guarantee: once a user's recipes no
    // longer reference a share, the server refuses to serve it to them.
    let server = CdStoreServer::new(0);
    let data = b"the only copy of this share".to_vec();
    let client_fp = Fingerprint::of(&data);
    let meta = cdstore_core::ShareMetadata {
        fingerprint: client_fp,
        share_size: data.len() as u32,
        secret_seq: 0,
        secret_size: data.len() as u32,
    };
    server
        .store_shares(1, &[(meta.clone(), data.clone())])
        .unwrap();
    let recipe = cdstore_core::FileRecipe {
        file_size: data.len() as u64,
        entries: vec![cdstore_core::RecipeEntry {
            share_fingerprint: client_fp,
            secret_size: data.len() as u32,
        }],
    };
    server.put_file(1, b"/f", &recipe, &[client_fp]).unwrap();
    assert_eq!(server.fetch_shares(1, &[client_fp]).unwrap(), [data]);

    assert!(server.delete_file(1, b"/f").unwrap());
    assert!(matches!(
        server.fetch_shares(1, &[client_fp]),
        Err(CdStoreError::MissingShare(_))
    ));
    assert_eq!(server.probe().unwrap().unique_shares, 0);
    assert_eq!(server.probe().unwrap().live_share_bytes, 0);
}

#[test]
fn inter_user_dedup_survives_one_owner_deleting() {
    let store = new_store();
    let shared = structured_data(200_000, 2);
    store.backup(1, "/alice.tar", &shared).unwrap();
    store.backup(2, "/bob.tar", &shared).unwrap();

    // Alice deletes; Bob's deduplicated references keep every share alive,
    // through a vacuum and all.
    assert!(store.delete(1, "/alice.tar").unwrap());
    store.gc().unwrap();
    assert_eq!(store.restore(2, "/bob.tar").unwrap(), shared);
    // Alice can no longer reach the content she deleted.
    assert!(store.restore(1, "/alice.tar").is_err());

    // When Bob deletes too, the shares finally die.
    assert!(store.delete(2, "/bob.tar").unwrap());
    store.gc().unwrap();
    store.with_servers(|servers| {
        for server in servers {
            assert_eq!(server.probe().unwrap().unique_shares, 0);
        }
    });
    assert_eq!(store.stats().backend_bytes.iter().sum::<u64>(), 0);
}

#[test]
fn physical_bytes_drop_after_gc() {
    let store = new_store();
    let doomed = structured_data(500_000, 3);
    let kept = structured_data(100_000, 4);
    store.backup(1, "/doomed.tar", &doomed).unwrap();
    store.backup(1, "/kept.tar", &kept).unwrap();
    store.flush().unwrap();

    let backend_before: u64 = store.stats().backend_bytes.iter().sum();
    let live_before: u64 =
        store.with_servers(|s| s.iter().map(|x| x.probe().unwrap().live_share_bytes).sum());
    assert!(backend_before > 0);

    assert!(store.delete(1, "/doomed.tar").unwrap());
    // The live index shrinks immediately on delete...
    let live_after: u64 =
        store.with_servers(|s| s.iter().map(|x| x.probe().unwrap().live_share_bytes).sum());
    assert!(live_after < live_before / 3);
    // ...and the backends shrink once the vacuum runs.
    let report = store.gc().unwrap();
    assert!(report.reclaimed_bytes > 0);
    let backend_after: u64 = store.stats().backend_bytes.iter().sum();
    assert!(
        backend_after < backend_before / 3,
        "{backend_before} -> {backend_after}"
    );
    // The kept file survived the reclamation byte-exact.
    assert_eq!(store.restore(1, "/kept.tar").unwrap(), kept);
}

#[test]
fn deletes_pending_for_a_failed_cloud_replay_on_recovery() {
    let store = new_store();
    let data = structured_data(180_000, 5);
    store.backup(7, "/failover.tar", &data).unwrap();
    store.flush().unwrap();

    store.fail_cloud(2);
    assert!(store.delete(7, "/failover.tar").unwrap());
    assert!(matches!(
        store.restore(7, "/failover.tar"),
        Err(CdStoreError::FileNotFound(_))
    ));

    // The failed cloud still holds the orphaned file index entry and its
    // share references.
    let encoded = store
        .client(7)
        .unwrap()
        .encode_pathname("/failover.tar")
        .unwrap();
    store.with_servers(|servers| {
        assert!(servers[2].has_file(7, &encoded[2]).unwrap());
        assert!(servers[2].probe().unwrap().unique_shares > 0);
    });

    // Recovery replays the delete; a vacuum then empties every backend.
    store.recover_cloud(2);
    store.with_servers(|servers| {
        assert!(!servers[2].has_file(7, &encoded[2]).unwrap());
        assert_eq!(servers[2].probe().unwrap().unique_shares, 0);
    });
    store.gc().unwrap();
    for (i, bytes) in store.stats().backend_bytes.iter().enumerate() {
        assert_eq!(*bytes, 0, "cloud {i} still holds reclaimable bytes");
    }
}
