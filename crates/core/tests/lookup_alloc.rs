//! A dedup lookup that hits an index memtable allocates nothing, and a
//! restore allocates little more than what it returns.
//!
//! Every backed-up share costs the server an ownership-map lookup (the
//! intra-user query) before it is sent, and every restored share a lookup
//! in the ownership map and the share index; a lookup that copies its key
//! or its value is a heap round trip per share. Each case runs under an
//! allocator that counts the bytes and the allocations this thread asks
//! for.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use cdstore_core::{CdStore, CdStoreConfig, CdStoreServer, ServerTransport, ShareMetadata};
use cdstore_crypto::Fingerprint;
use cdstore_index::{KvStoreConfig, Sharded, ShardedKvStore};
use cdstore_storage::MemoryBackend;

struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the slots may already be gone while a thread exits.
    let _ = ALLOCATED.try_with(|total| total.set(total.get() + bytes));
    let _ = ALLOCATIONS.try_with(|calls| calls.set(calls.get() + 1));
}

// SAFETY: every method forwards its pointer and layout unchanged to
// `System`, which upholds the `GlobalAlloc` contract; counting only bumps a
// constant-initialised thread-local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes this thread allocates while `f` runs.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

/// Allocations (and reallocations) this thread makes while `f` runs.
fn allocations_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// `n` distinct 64-byte shares with their metadata.
fn shares(n: usize) -> Vec<(ShareMetadata, Vec<u8>)> {
    (0..n as u32)
        .map(|i| {
            let data = [i.to_be_bytes().as_slice(), &[0x5a; 60]].concat();
            let meta = ShareMetadata {
                fingerprint: Fingerprint::of(&data),
                share_size: data.len() as u32,
                secret_seq: i as u64,
                secret_size: data.len() as u32,
            };
            (meta, data)
        })
        .collect()
}

#[test]
fn a_memtable_hit_of_contains_allocates_nothing() {
    let backend = Arc::new(MemoryBackend::new());
    let store: ShardedKvStore = Sharded::create(backend, "map", KvStoreConfig::default()).unwrap();
    let key = [7u8; 40];
    store.put(key.to_vec(), vec![1u8; 32]);

    let (hit, bytes) = allocated_by(|| store.contains(&key));
    assert!(hit);
    assert_eq!(bytes, 0, "a memtable hit allocated {bytes} bytes");

    let (miss, bytes) = allocated_by(|| store.contains(&[8u8; 40]));
    assert!(!miss);
    assert_eq!(
        bytes, 0,
        "a miss in a store without runs allocated {bytes} bytes"
    );
}

#[test]
fn an_intra_user_query_allocates_only_its_answer() {
    const N: usize = 256;
    let server = CdStoreServer::with_backend(0, Arc::new(MemoryBackend::new()));
    let user = 3;
    let shares = shares(N);
    server.store_shares(user, &shares).unwrap();
    let mut fingerprints: Vec<Fingerprint> = shares.iter().map(|(m, _)| m.fingerprint).collect();
    // Half the query is shares the user never sent.
    fingerprints.extend((0..N as u32).map(|i| Fingerprint::of(&i.to_le_bytes())));

    let (owned, bytes) = allocated_by(|| server.intra_user_query(user, &fingerprints).unwrap());
    assert!(owned[..N].iter().all(|&o| o));
    assert!(owned[N..].iter().all(|&o| !o));
    assert_eq!(
        bytes,
        fingerprints.len(),
        "the query allocated {bytes} bytes for a {}-entry answer",
        fingerprints.len()
    );
}

/// A fetch resolves its shares in place and reads one container once, so it
/// allocates each share's copy and a constant besides: not a key, a value
/// or an entry per share.
#[test]
fn a_fetch_allocates_only_its_shares() {
    const N: usize = 256;
    let server = CdStoreServer::with_backend(0, Arc::new(MemoryBackend::new()));
    let user = 3;
    let shares = shares(N);
    server.store_shares(user, &shares).unwrap();
    // Seal the one container the shares fill.
    server.flush().unwrap();
    let fingerprints: Vec<Fingerprint> = shares.iter().map(|(m, _)| m.fingerprint).collect();

    let (fetched, allocations) =
        allocations_by(|| server.fetch_shares(user, &fingerprints).unwrap());
    assert!(fetched
        .iter()
        .zip(&shares)
        .all(|(got, (_, sent))| got == sent));
    assert!(
        allocations <= N + 4,
        "fetching {N} shares made {allocations} allocations"
    );
}

/// A restored file comes back in a buffer sized by its recipe: no spare
/// capacity left over from growing it.
#[test]
fn a_restore_returns_no_spare_capacity() {
    let store = CdStore::new(CdStoreConfig::new(4, 3).unwrap());
    let data: Vec<u8> = (0..300_001u32).map(|i| (i % 251) as u8).collect();
    store.backup(1, "/sized", &data).unwrap();
    let restored = store.restore(1, "/sized").unwrap();
    assert_eq!(restored, data);
    assert_eq!(restored.capacity(), restored.len());
}
