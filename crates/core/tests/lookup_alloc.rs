//! A dedup lookup that hits an index memtable allocates nothing.
//!
//! Every backed-up share costs the server an ownership-map lookup (the
//! intra-user query) before it is sent, so a lookup that copies its key or
//! its value is a heap round trip per share. Each case runs under an
//! allocator that counts the bytes this thread asks for.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use cdstore_core::{CdStoreServer, ShareMetadata};
use cdstore_crypto::Fingerprint;
use cdstore_index::{KvStoreConfig, Sharded, ShardedKvStore};
use cdstore_storage::MemoryBackend;

struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCATED.try_with(|total| total.set(total.get() + bytes));
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
    let shares: Vec<(ShareMetadata, Vec<u8>)> = (0..N as u32)
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
        .collect();
    server.store_shares(user, &shares).unwrap();
    let mut fingerprints: Vec<Fingerprint> = shares.iter().map(|(m, _)| m.fingerprint).collect();
    // Half the query is shares the user never sent.
    fingerprints.extend((0..N as u32).map(|i| Fingerprint::of(&i.to_le_bytes())));

    let (owned, bytes) = allocated_by(|| server.intra_user_query(user, &fingerprints));
    assert!(owned[..N].iter().all(|&o| o));
    assert!(owned[N..].iter().all(|&o| !o));
    assert_eq!(
        bytes,
        fingerprints.len(),
        "the query allocated {bytes} bytes for a {}-entry answer",
        fingerprints.len()
    );
}
