//! Serving a restore window copies each share once, from its container
//! into the reply frame: the server allocates no buffer per share.
//!
//! The server answers on its own connection thread, so this binary counts
//! every allocation the process makes, and its one test does nothing else
//! while it counts: the request frame is built and the reply buffer sized
//! before, and the reply is decoded after.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use cdstore_core::{CdStoreServer, ServerTransport, ShareMetadata};
use cdstore_crypto::Fingerprint;
use cdstore_net::frame::{decode_frame, encode_frame};
use cdstore_net::message::{decode_response, encode_request};
use cdstore_net::{NetServer, Request, Response};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its pointer and layout unchanged to
// `System`, which upholds the `GlobalAlloc` contract; counting only bumps
// an atomic, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Shares in one fetch: a restore window's worth.
const SHARES: usize = 256;

/// Writes `request` and reads its reply frame into `reply`, whose length
/// must be the reply's.
fn exchange(stream: &mut TcpStream, request: &[u8], reply: &mut [u8]) {
    stream.write_all(request).unwrap();
    stream.read_exact(reply).unwrap();
}

#[test]
fn serving_a_256_share_fetch_allocates_no_buffer_per_share() {
    let core = Arc::new(CdStoreServer::new(0));
    let shares: Vec<(ShareMetadata, Vec<u8>)> = (0..SHARES as u32)
        .map(|i| {
            let data = [i.to_be_bytes().as_slice(), &[0x5a; 124]].concat();
            let meta = ShareMetadata {
                fingerprint: Fingerprint::of(&data),
                share_size: data.len() as u32,
                secret_seq: u64::from(i),
                secret_size: 3 * data.len() as u32,
            };
            (meta, data)
        })
        .collect();
    core.store_shares(1, &shares).unwrap();
    core.flush().unwrap(); // one sealed container, served from the cache
    let mut server = NetServer::bind(core, "127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();

    let fingerprints = shares.iter().map(|(m, _)| m.fingerprint).collect();
    let (msg_type, payload) = encode_request(
        7,
        &Request::FetchShares {
            user: 1,
            fingerprints,
        },
    );
    let request = encode_frame(msg_type, &payload);
    // One untimed exchange starts the connection thread, sizes its read
    // buffer and tells the reply's length.
    stream.write_all(&request).unwrap();
    let mut header = [0u8; 8];
    stream.read_exact(&mut header).unwrap();
    let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
    let mut reply = vec![0u8; 8 + len];
    stream.read_exact(&mut reply[8..]).unwrap();

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    exchange(&mut stream, &request, &mut reply);
    let allocations = ALLOCATIONS.load(Ordering::SeqCst) - before;

    let (msg_type, payload, _) = decode_frame(&reply).unwrap().unwrap();
    let (req_id, response) = decode_response(msg_type, &payload).unwrap();
    assert_eq!(req_id, 7);
    let want: Vec<Vec<u8>> = shares.into_iter().map(|(_, data)| data).collect();
    assert_eq!(response, Response::Shares(want));
    // Decoding the request, resolving the window and the reply frame: a
    // handful, where a buffer per share would be 256 more.
    assert!(
        allocations < 16,
        "serving {SHARES} shares took {allocations} allocations"
    );
    server.shutdown();
}
