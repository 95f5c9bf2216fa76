//! Dedup-index scale measurements: loads seeded pseudo-fingerprints into a
//! [`KvStore`] and measures insert and lookup throughput plus the resident
//! footprint — the perf-trajectory harness behind `bench_index` →
//! `BENCH_index.json`. The `memory` row is the store with a memtable larger
//! than the entry count, so it never spills; the `disk` row spills runs to
//! a directory.
//!
//! The disk rows are the point: the paper-scale question is whether the
//! share index can outgrow RAM (10⁷+ fingerprints) while hot lookups stay
//! block-cache-bound rather than backend-bound, with the cache's byte
//! budget standing in for the resident-set cost.

use std::sync::Arc;
use std::time::Instant;

use cdstore_index::{BlockCacheStats, KvStore, KvStoreConfig};
use cdstore_storage::{DirBackend, MemoryBackend, StorageBackend};

use crate::json::Json;

/// How many lookups each timed pass performs (clamped to the entry count).
const LOOKUPS_PER_PASS: usize = 100_000;
/// Size of the repeatedly-probed working set in the hot pass.
const HOT_WORKING_SET: usize = 512;

/// One measured store configuration.
#[derive(Debug)]
pub struct IndexRunReport {
    /// `"memory"` (never spills) or `"disk"` (spills).
    pub mode: String,
    /// Fingerprints loaded.
    pub entries: u64,
    /// Sustained insert throughput while loading (keys/s).
    pub inserts_per_sec: f64,
    /// Uniform-random lookups over the whole keyspace against a freshly
    /// (re)opened store — every disk probe misses the block cache.
    pub cold_lookups_per_sec: f64,
    /// Repeated lookups over a small working set — disk probes are served
    /// by the block cache after the first touch.
    pub hot_lookups_per_sec: f64,
    /// Lookups of absent keys — measures how well the per-run Bloom
    /// filters short-circuit the probe (the memory store has no run and
    /// answers from its memtable).
    pub negative_lookups_per_sec: f64,
    /// Run probes the Bloom filters skipped across all passes.
    pub bloom_skips: u64,
    /// LSM runs on disk after the load settled (0 for the memory store,
    /// which never freezes).
    pub run_count: usize,
    /// Resident footprint proxy: memtable + run metadata + Bloom bits +
    /// cached blocks. For the disk store this is what actually occupies
    /// RAM; the key/value payload lives on the backend.
    pub resident_bytes: u64,
    /// Bytes the backend holds (0 for the memory store).
    pub backend_bytes: u64,
    /// Block-cache counters after the hot pass (all zero but the budget
    /// for a store that never spilled).
    pub cache: BlockCacheStats,
}

impl IndexRunReport {
    /// The report as its `BENCH_index.json` object, fields in declaration
    /// order; `cache` leaves out `current_bytes`.
    pub fn to_json(&self) -> Json {
        let c = &self.cache;
        let cache = Json::obj([
            ("hits", c.hits.into()),
            ("misses", c.misses.into()),
            ("evictions", c.evictions.into()),
            ("peak_bytes", c.peak_bytes.into()),
            ("capacity_bytes", c.capacity_bytes.into()),
        ]);
        Json::obj([
            ("mode", self.mode.as_str().into()),
            ("entries", self.entries.into()),
            ("inserts_per_sec", self.inserts_per_sec.into()),
            ("cold_lookups_per_sec", self.cold_lookups_per_sec.into()),
            ("hot_lookups_per_sec", self.hot_lookups_per_sec.into()),
            (
                "negative_lookups_per_sec",
                self.negative_lookups_per_sec.into(),
            ),
            ("bloom_skips", self.bloom_skips.into()),
            ("run_count", self.run_count.into()),
            ("resident_bytes", self.resident_bytes.into()),
            ("backend_bytes", self.backend_bytes.into()),
            ("cache", cache),
        ])
    }
}

/// Deterministic 32-byte pseudo-fingerprint for index position `i` —
/// splitmix64 over four lanes, so any count of keys is generated on the
/// fly without materialising the keyspace.
pub fn fingerprint_bytes(i: u64, seed: u64) -> [u8; 32] {
    let mut out = [0u8; 32];
    for lane in 0..4u64 {
        let mut z = i
            .wrapping_add(seed)
            .wrapping_add(lane.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^= z >> 27;
        z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        out[lane as usize * 8..][..8].copy_from_slice(&z.to_le_bytes());
    }
    out
}

/// The 16-byte stand-in for a share-index entry (container id + location).
fn value_bytes(i: u64) -> [u8; 16] {
    let mut out = [0u8; 16];
    out[..8].copy_from_slice(&i.to_le_bytes());
    out[8..].copy_from_slice(&(i ^ 0xcd57_0000).to_le_bytes());
    out
}

/// Tuning of the measured disk store, sized so its resident state stays far
/// below the loaded keyspace.
pub fn bench_config() -> KvStoreConfig {
    KvStoreConfig {
        memtable_capacity: 256 * 1024,
        ..KvStoreConfig::default()
    }
}

/// Cheap deterministic index stream for lookup passes.
fn probe_order(count: u64, salt: u64) -> impl Iterator<Item = u64> {
    (0..).map(move |i: u64| {
        let mut z = i.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(salt);
        z ^= z >> 29;
        z.wrapping_mul(0x9e37_79b9_7f4a_7c15) % count.max(1)
    })
}

/// Puts `entries` fingerprints, then runs `settle` on the store, and
/// returns the insert rate over both.
fn load(store: &mut KvStore, entries: u64, seed: u64, settle: impl FnOnce(&mut KvStore)) -> f64 {
    let start = Instant::now();
    for i in 0..entries {
        store.put(fingerprint_bytes(i, seed).to_vec(), value_bytes(i).to_vec());
    }
    settle(store);
    entries as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// Times `lookups` probes drawn from `indexes`, panicking if any present
/// key fails to resolve (`expect_hits`).
fn lookup_pass(
    store: &mut KvStore,
    seed: u64,
    lookups: usize,
    indexes: impl Iterator<Item = u64>,
    expect_hits: bool,
) -> f64 {
    let start = Instant::now();
    let mut found = 0usize;
    for i in indexes.take(lookups) {
        if store.get(&fingerprint_bytes(i, seed)).is_some() {
            found += 1;
        }
    }
    let rate = lookups as f64 / start.elapsed().as_secs_f64().max(1e-9);
    if expect_hits {
        assert_eq!(found, lookups, "loaded fingerprints must all resolve");
    } else {
        assert_eq!(found, 0, "absent fingerprints must not resolve");
    }
    rate
}

/// Runs the three lookup passes and assembles the report for `store`.
fn measure(
    mut store: KvStore,
    mode: &str,
    entries: u64,
    seed: u64,
    backend_bytes: u64,
) -> IndexRunReport {
    let lookups = LOOKUPS_PER_PASS.min(entries as usize).max(1);
    let cold = lookup_pass(&mut store, seed, lookups, probe_order(entries, 11), true);
    let working = HOT_WORKING_SET.min(entries as usize) as u64;
    let hot = lookup_pass(&mut store, seed, lookups, probe_order(working, 13), true);
    // Negative keys: generate from a disjoint seed so none were loaded.
    let negative = lookup_pass(
        &mut store,
        seed ^ 0xdead_beef,
        lookups,
        probe_order(entries, 17),
        false,
    );
    IndexRunReport {
        mode: mode.into(),
        entries,
        inserts_per_sec: 0.0, // caller fills in
        cold_lookups_per_sec: cold,
        hot_lookups_per_sec: hot,
        negative_lookups_per_sec: negative,
        bloom_skips: store.bloom_skips(),
        run_count: store.run_count(),
        resident_bytes: store.approximate_size() as u64,
        backend_bytes,
        cache: store.cache_stats(),
    }
}

/// Loads and measures a store whose memtable holds every entry.
pub fn memory_run(entries: u64, seed: u64) -> IndexRunReport {
    let config = KvStoreConfig {
        memtable_capacity: entries as usize + 1,
        ..bench_config()
    };
    let mut store = KvStore::create(Arc::new(MemoryBackend::new()), "bench", config)
        .expect("create in-memory bench store");
    let inserts = load(&mut store, entries, seed, |_| {});
    let mut report = measure(store, "memory", entries, seed, 0);
    report.inserts_per_sec = inserts;
    report
}

/// Loads a disk-backed store under `dir`, then reopens it cold off the
/// backend before measuring, so the cold pass sees an empty block cache.
pub fn disk_run(entries: u64, seed: u64, dir: &std::path::Path) -> IndexRunReport {
    let backend: Arc<dyn StorageBackend> =
        Arc::new(DirBackend::new(dir).expect("create bench backend dir"));
    let mut store = KvStore::create(Arc::clone(&backend), "bench", bench_config())
        .expect("create disk-backed bench store");
    let inserts = load(&mut store, entries, seed, |s| s.try_flush().expect("flush"));
    drop(store);
    let store = KvStore::open(Arc::clone(&backend), "bench", bench_config())
        .expect("reopen disk-backed bench store");
    let backend_bytes = backend.total_bytes().unwrap_or(0);
    let mut report = measure(store, "disk", entries, seed, backend_bytes);
    report.inserts_per_sec = inserts;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_are_distinct_and_deterministic() {
        let a = fingerprint_bytes(1, 42);
        assert_eq!(a, fingerprint_bytes(1, 42));
        assert_ne!(a, fingerprint_bytes(2, 42));
        assert_ne!(a, fingerprint_bytes(1, 43));
    }

    #[test]
    fn memory_run_smoke() {
        let report = memory_run(5_000, 1);
        assert_eq!(report.entries, 5_000);
        assert!(report.cold_lookups_per_sec > 0.0);
        assert_eq!(report.cache.hits + report.cache.misses, 0);
        assert_eq!((report.run_count, report.bloom_skips), (0, 0));
    }

    #[test]
    fn disk_run_smoke() {
        let dir = std::env::temp_dir().join(format!("cdstore-indexbench-{}", std::process::id()));
        let report = disk_run(5_000, 1, &dir);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(report.entries, 5_000);
        assert!(report.backend_bytes > 0);
        let cache = report.cache;
        assert!(cache.hits > 0, "hot pass must hit the cache");
        assert!(cache.peak_bytes <= cache.capacity_bytes);
    }
}
