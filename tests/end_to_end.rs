//! End-to-end integration tests spanning the whole workspace: chunking,
//! convergent dispersal, two-stage deduplication, container storage, index
//! management, failure handling, and repair.

use cdstore_chunking::{ChunkerConfig, ChunkerKind};
use cdstore_core::{CdStore, CdStoreConfig, CdStoreError};
use cdstore_net::{LoopbackCluster, NetClientConfig};

fn structured_data(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| ((i / 1000) as u8).wrapping_mul(41).wrapping_add(seed))
        .collect()
}

#[test]
fn many_files_many_users_full_lifecycle() {
    let store = CdStore::new(CdStoreConfig::new(4, 3).unwrap());
    let mut originals = Vec::new();
    for user in 1..=3u64 {
        for file in 0..3usize {
            let data = structured_data(120_000 + file * 50_000, (user * 10 + file as u64) as u8);
            let path = format!("/u{user}/file-{file}.tar");
            store.backup(user, &path, &data).unwrap();
            originals.push((user, path, data));
        }
    }
    store.flush().unwrap();

    let stats = store.stats();
    assert_eq!(stats.files, 9);
    assert!(stats.dedup.logical_bytes > 0);
    assert_eq!(stats.servers.len(), 4);

    for (user, path, data) in &originals {
        assert_eq!(&store.restore(*user, path).unwrap(), data);
    }

    // Delete one file; the others remain restorable.
    assert!(store.delete(1, "/u1/file-0.tar").unwrap());
    assert!(store.restore(1, "/u1/file-0.tar").is_err());
    assert_eq!(
        store.restore(1, "/u1/file-1.tar").unwrap(),
        originals
            .iter()
            .find(|(u, p, _)| *u == 1 && p == "/u1/file-1.tar")
            .unwrap()
            .2
    );
}

#[test]
fn restore_succeeds_under_every_single_cloud_failure() {
    let store = CdStore::new(CdStoreConfig::new(4, 3).unwrap());
    let data = structured_data(300_000, 9);
    store.backup(5, "/critical.tar", &data).unwrap();
    for cloud in 0..4usize {
        store.fail_cloud(cloud);
        assert_eq!(
            store.restore(5, "/critical.tar").unwrap(),
            data,
            "cloud {cloud} down"
        );
        store.recover_cloud(cloud);
    }
}

#[test]
fn restore_fails_cleanly_when_too_many_clouds_are_down() {
    let store = CdStore::new(CdStoreConfig::new(5, 3).unwrap());
    let data = structured_data(80_000, 2);
    store.backup(1, "/f", &data).unwrap();
    store.fail_cloud(0);
    store.fail_cloud(1);
    assert_eq!(store.restore(1, "/f").unwrap(), data);
    store.fail_cloud(2);
    assert!(matches!(
        store.restore(1, "/f"),
        Err(CdStoreError::NotEnoughClouds {
            needed: 3,
            available: 2
        })
    ));
}

#[test]
fn weekly_backups_accumulate_high_dedup_savings() {
    let store = CdStore::new(CdStoreConfig::new(4, 3).unwrap());
    let base = structured_data(400_000, 7);
    for week in 0..5usize {
        let mut data = base.clone();
        // A small weekly change.
        let start = week * 8000;
        for b in &mut data[start..start + 4000] {
            *b = b.wrapping_add(week as u8 + 1);
        }
        store
            .backup(3, &format!("/weekly/week-{week}.tar"), &data)
            .unwrap();
    }
    let stats = store.stats();
    assert!(
        stats.dedup.intra_user_saving() > 0.7,
        "intra-user saving {}",
        stats.dedup.intra_user_saving()
    );
    assert!(stats.dedup.dedup_ratio() > 3.0);
    // Every weekly version remains restorable.
    for week in 0..5usize {
        assert!(store
            .restore(3, &format!("/weekly/week-{week}.tar"))
            .is_ok());
    }
}

#[test]
fn repair_after_permanent_cloud_loss_restores_full_redundancy() {
    let store = CdStore::new(CdStoreConfig::new(4, 3).unwrap());
    let files: Vec<(u64, String, Vec<u8>)> = (0..4u64)
        .map(|i| {
            (
                i + 1,
                format!("/repair/file-{i}.tar"),
                structured_data(150_000, i as u8 + 3),
            )
        })
        .collect();
    for (user, path, data) in &files {
        store.backup(*user, path, data).unwrap();
    }
    let repaired = store.replace_and_repair_cloud(1).unwrap();
    assert_eq!(repaired, files.len());
    // After repair, any other single cloud may fail and everything restores.
    store.fail_cloud(3);
    for (user, path, data) in &files {
        assert_eq!(&store.restore(*user, path).unwrap(), data);
    }
}

#[test]
fn custom_chunker_configurations_work_end_to_end() {
    let config = CdStoreConfig::new(4, 2)
        .unwrap()
        .with_chunker(ChunkerConfig::new(512, 2048, 8192));
    let store = CdStore::new(config);
    let data = structured_data(200_000, 1);
    let report = store.backup(9, "/small-chunks.tar", &data).unwrap();
    assert!(
        report.num_secrets > 20,
        "expected many small chunks, got {}",
        report.num_secrets
    );
    assert_eq!(store.restore(9, "/small-chunks.tar").unwrap(), data);
}

/// Restore windows are bounded in bytes, not only in secrets: with 1 MiB
/// chunks one share is most of a window's budget (windows of one secret, the
/// floor), with 128 KiB chunks a window takes about a dozen. Either way every window
/// is one `FetchShares` round trip per cloud, and the restore is byte-exact
/// from the first three clouds and, after an outage, from the other three.
#[test]
fn large_chunk_restores_are_byte_exact_over_the_wire() {
    let data = structured_data(3 * (1 << 20) + 12_345, 7);
    for chunk_size in [1 << 20, 128 << 10] {
        let cluster = LoopbackCluster::spawn(4).unwrap();
        let config = CdStoreConfig::new(4, 3)
            .unwrap()
            .with_chunker_kind(ChunkerKind::Fixed)
            .with_chunker(ChunkerConfig::new(chunk_size, chunk_size, chunk_size));
        let store = cluster.store(config, NetClientConfig::default()).unwrap();
        let report = store.backup(3, "/vm/disk.img", &data).unwrap();
        assert_eq!(report.num_secrets, data.len().div_ceil(chunk_size));
        assert_eq!(store.restore(3, "/vm/disk.img").unwrap(), data);
        store.fail_cloud(0);
        assert_eq!(store.restore(3, "/vm/disk.img").unwrap(), data);
    }
}

#[test]
fn uploads_are_rejected_while_a_cloud_is_down() {
    let store = CdStore::new(CdStoreConfig::new(4, 3).unwrap());
    store.fail_cloud(2);
    assert!(matches!(
        store.backup(1, "/f", b"data"),
        Err(CdStoreError::NotEnoughClouds { .. })
    ));
    store.recover_cloud(2);
    assert!(store.backup(1, "/f", &structured_data(50_000, 4)).is_ok());
}
