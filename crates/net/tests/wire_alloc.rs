//! A count word on the wire must not buy memory the frame does not carry.
//!
//! Each case takes a valid message, overwrites one element count with
//! `u32::MAX`, and decodes it under an allocator that counts the bytes this
//! thread asks for. The decode must fail, and must allocate no more than
//! the payload's length plus a small constant.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cdstore_core::transport::StoreReceipt;
use cdstore_core::FileRecipe;
use cdstore_net::message::{decode_request, decode_response, encode_request, encode_response};
use cdstore_net::{Request, Response};

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

/// Allowance for the decoder's own small, fixed allocations.
const SLACK: usize = 256;

/// Bytes this thread allocates while `f` runs.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

/// `payload` with the `u32` at `at` bytes from its end set to `u32::MAX`.
fn inflate(mut payload: Vec<u8>, at: usize) -> Vec<u8> {
    let end = payload.len() - at;
    payload[end - 4..end].copy_from_slice(&u32::MAX.to_le_bytes());
    payload
}

fn recipe() -> FileRecipe {
    FileRecipe {
        file_size: 0,
        entries: Vec::new(),
    }
}

#[test]
fn hostile_request_counts_allocate_no_more_than_the_frame() {
    let put_file = || Request::PutFile {
        user: 1,
        shares: Vec::new(),
        encoded_pathname: b"path".to_vec(),
        recipe: recipe(),
        uploaded: Vec::new(),
    };
    // A `PutFile`'s share count follows the envelope and the user.
    let put_shares_at = encode_request(7, &put_file()).1.len() - 20;
    let cases = [
        (
            "IntraUserQuery",
            Request::IntraUserQuery {
                user: 1,
                fingerprints: Vec::new(),
            },
            0,
        ),
        (
            "ReleaseUploads",
            Request::ReleaseUploads {
                user: 1,
                fingerprints: Vec::new(),
            },
            0,
        ),
        (
            "FetchShares",
            Request::FetchShares {
                user: 1,
                fingerprints: Vec::new(),
            },
            0,
        ),
        (
            "StoreShares",
            Request::StoreShares {
                user: 1,
                shares: Vec::new(),
            },
            0,
        ),
        ("PutFile uploaded", put_file(), 0),
        ("PutFile shares", put_file(), put_shares_at),
    ];
    for (name, req, at) in cases {
        let (msg_type, payload) = encode_request(7, &req);
        assert!(
            decode_request(msg_type, &payload).is_some(),
            "{name} is valid"
        );
        let hostile = inflate(payload, at);
        let (decoded, bytes) = allocated_by(|| decode_request(msg_type, &hostile));
        assert!(decoded.is_none(), "{name}: an inflated count is malformed");
        assert!(
            bytes <= hostile.len() + SLACK,
            "{name}: a {}-byte frame allocated {bytes} bytes",
            hostile.len()
        );
    }
}

#[test]
fn hostile_response_counts_allocate_no_more_than_the_frame() {
    let cases = [
        ("Bools", Response::Bools(Vec::new())),
        (
            "Receipt",
            Response::Receipt(StoreReceipt {
                new_bytes: 0,
                verdicts: Vec::new(),
            }),
        ),
        ("Shares", Response::Shares(Vec::new())),
        (
            "Recipe",
            Response::Recipe {
                recipe: recipe(),
                shares: Vec::new(),
            },
        ),
    ];
    for (name, resp) in cases {
        let (msg_type, payload) = encode_response(7, &resp);
        assert!(
            decode_response(msg_type, &payload).is_some(),
            "{name} is valid"
        );
        let hostile = inflate(payload, 0);
        let (decoded, bytes) = allocated_by(|| decode_response(msg_type, &hostile));
        assert!(decoded.is_none(), "{name}: an inflated count is malformed");
        assert!(
            bytes <= hostile.len() + SLACK,
            "{name}: a {}-byte frame allocated {bytes} bytes",
            hostile.len()
        );
    }
}
