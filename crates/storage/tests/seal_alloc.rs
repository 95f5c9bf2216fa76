//! Sealing a full share container copies none of its 4 MiB payload.
//!
//! The sealed payload is one buffer that the container store's read cache
//! and a `MemoryBackend` object share, so the flush that seals a full
//! container allocates only the serialised header (built once, kept once by
//! the backend) and a few small map entries. The flush runs under an
//! allocator that counts the bytes this thread asks for.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use cdstore_crypto::Fingerprint;
use cdstore_storage::store::container_key;
use cdstore_storage::{ContainerStore, MemoryBackend, StorageBackend, CONTAINER_CAPACITY};

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

/// Allowance for the store's small bookkeeping: the object key, map and
/// cache entries, the payload's `Arc`.
const SLACK: usize = 4 * 1024;

#[test]
fn the_flush_that_seals_a_full_container_copies_no_payload() {
    let backend = Arc::new(MemoryBackend::new());
    let store = ContainerStore::new(backend.clone());
    let share = vec![0x5a; 3 * 1024];
    let mut i = 0u32;
    let mut filled = 0;
    let mut id = None;
    while filled < CONTAINER_CAPACITY {
        let len = share.len().min(CONTAINER_CAPACITY - filled);
        let location = store
            .store_share(1, Fingerprint::of(&i.to_be_bytes()), &share[..len])
            .unwrap();
        assert_eq!(
            *id.get_or_insert(location.container_id),
            location.container_id
        );
        filled += len;
        i += 1;
    }
    assert_eq!(backend.object_count(), 0, "the container is still open");

    let ((), bytes) = allocated_by(|| store.flush().unwrap());

    let container = store.fetch_container(id.unwrap()).unwrap();
    assert_eq!(container.payload_size(), CONTAINER_CAPACITY);
    let header = container.header_bytes().len();
    assert!(
        bytes <= 2 * header + SLACK,
        "sealing a {CONTAINER_CAPACITY}-byte container allocated {bytes} bytes \
         (header {header})"
    );
    // The object is still exactly the serialised container.
    assert_eq!(
        backend.get(&container_key(id.unwrap())).unwrap(),
        container.to_bytes()
    );
}
