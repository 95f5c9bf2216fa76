//! Differential suite for the batched SHA-256 kernels: every batch kernel —
//! each single-stream backend, the 4-lane kernel and, where the CPU has
//! AVX-512F/BW, the 16-lane kernel — must give exactly
//! `hash_parts(&[prefix, m])` for every message `m`.
//!
//! The prefixes straddle the block boundary (0, 1, 55, 56, 63, 64 and 70
//! bytes, plus the 24-byte `len ‖ tag` of a server fingerprint); the
//! messages cover every length up to three blocks and one byte, batches of
//! 1 to 40 mixed lengths (lanes refill mid-batch and hand their last
//! messages off mid-message), the scheduler's edges (a long body beside
//! many refills, lanes that all end in one block, head-only messages,
//! exact-size allocations at every length mod 64), and proptest-random
//! batches. CI runs the suite under both dispatch modes, so the hand-off
//! backend is SHA-NI in one and the scalar schedule in the other.

use cdstore_crypto::sha256::{self, hash_batch_with, hash_parts, BatchKernel};
use cdstore_crypto::Fingerprint;
use proptest::prelude::*;

const PREFIX_LENS: [usize; 8] = [0, 1, 24, 55, 56, 63, 64, 70];

fn bytes(len: usize, seed: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 131 + seed * 17 + 7) as u8).collect()
}

fn assert_all_kernels_match(prefix: &[u8], msgs: &[&[u8]], what: &str) {
    let expected: Vec<[u8; 32]> = msgs.iter().map(|m| hash_parts(&[prefix, m])).collect();
    assert_eq!(
        sha256::hash_batch_prefixed(prefix, msgs),
        expected,
        "dispatch, {what}"
    );
    for kernel in BatchKernel::available() {
        assert_eq!(
            hash_batch_with(kernel, prefix, msgs),
            expected,
            "{kernel:?}, prefix {} bytes, {what}",
            prefix.len()
        );
    }
}

#[test]
fn reports_which_lane_kernels_ran() {
    let lanes: Vec<&str> = (BatchKernel::available().into_iter())
        .filter(|k| !matches!(k, BatchKernel::Single(_)))
        .map(BatchKernel::name)
        .collect();
    println!("lane kernels exercised: {lanes:?}");
    if !BatchKernel::available().contains(&BatchKernel::X16) {
        println!(
            "the 16-lane AVX-512 kernel was NOT exercised: this CPU lacks AVX-512F/BW \
             (the shared scheduler still ran through the 4-lane kernel)"
        );
    }
    println!(
        "dispatch: 15 messages -> {:?}, 16 messages -> {:?}",
        BatchKernel::for_batch(15),
        BatchKernel::for_batch(16)
    );
    // Sixteen lanes serve only batches that can fill them.
    assert_ne!(BatchKernel::for_batch(15), BatchKernel::X16);
}

#[test]
fn every_length_to_three_blocks_and_one_byte_under_every_prefix() {
    let msgs: Vec<Vec<u8>> = (0..=3 * 64 + 1).map(|len| bytes(len, len)).collect();
    let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
    let mut reversed = refs.clone();
    reversed.reverse();
    for prefix_len in PREFIX_LENS {
        let prefix = bytes(prefix_len, 99);
        // Ascending and descending lengths: lanes end in turn, and all at
        // once at the end.
        assert_all_kernels_match(&prefix, &refs, "lengths 0..=193");
        assert_all_kernels_match(&prefix, &reversed, "lengths 193..=0");
        for msg in &refs {
            assert_all_kernels_match(&prefix, &[msg], "one message");
        }
    }
}

#[test]
fn batches_of_one_to_forty_mixed_lengths_refill_and_hand_off() {
    // Lengths from a few bytes to ~2.5 KiB: lanes retire at different
    // blocks, refill while messages wait, and the last ones finish on the
    // single-stream backend from their mid-states.
    let msgs: Vec<Vec<u8>> = (0..40).map(|i| bytes((i * 977 + 13) % 2600, i)).collect();
    let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
    for prefix_len in PREFIX_LENS {
        let prefix = bytes(prefix_len, 5);
        for count in 1..=refs.len() {
            assert_all_kernels_match(&prefix, &refs[..count], &format!("{count} messages"));
        }
    }
}

#[test]
fn a_long_body_outlives_refills_of_every_other_lane() {
    // One 64 KiB message among 47 of 100-500 bytes: its lane stays in its
    // body while every other lane ends and refills several times.
    let mut msgs: Vec<Vec<u8>> = (0..48).map(|i| bytes(100 + (i * 37) % 400, i)).collect();
    msgs[3] = bytes(64 * 1024, 3);
    let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
    for prefix_len in PREFIX_LENS {
        let prefix = bytes(prefix_len, 11);
        assert_all_kernels_match(&prefix, &refs, "one 64 KiB message among 47 short ones");
    }
}

#[test]
fn equal_messages_end_in_the_same_block() {
    // Every lane's runs end together, so a kernel call returns every lane.
    for count in [16, 17, 32, 33] {
        for len in [0, 55, 64, 119, 3000] {
            let msgs: Vec<Vec<u8>> = (0..count).map(|i| bytes(len, i)).collect();
            let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
            for prefix_len in PREFIX_LENS {
                let prefix = bytes(prefix_len, 12);
                let what = format!("{count} messages of {len} bytes");
                assert_all_kernels_match(&prefix, &refs, &what);
            }
        }
    }
}

#[test]
fn a_message_that_fills_the_head_block_leaves_a_padding_only_tail() {
    // With the prefix's last bytes, every third message fills one block
    // exactly: its head is its only block of data, its tail padding alone.
    for prefix_len in PREFIX_LENS {
        let exact = 64 - prefix_len % 64;
        let msgs: Vec<Vec<u8>> = (0..20)
            .map(|i| bytes(if i % 3 == 0 { exact } else { (i * 97) % 300 }, i))
            .collect();
        let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        let prefix = bytes(prefix_len, 13);
        assert_all_kernels_match(&prefix, &refs, "head-only messages in a batch of 20");
    }
}

#[test]
fn exact_size_allocations_at_every_length_mod_64() {
    // Each message is its own allocation of exactly its length, so a read
    // past a body's last whole block leaves it (AddressSanitizer reports
    // it in the nightly job).
    let msgs: Vec<Box<[u8]>> = (0..128)
        .map(|i| bytes(64 * (i / 64) * (1 + i % 5) + i % 64, i).into_boxed_slice())
        .collect();
    let refs: Vec<&[u8]> = msgs.iter().map(|m| &m[..]).collect();
    for prefix_len in PREFIX_LENS {
        let prefix = bytes(prefix_len, 14);
        assert_all_kernels_match(&prefix, &refs, "exact-size allocations");
    }
}

#[test]
fn tagged_batch_equals_tagged_per_share() {
    let shares: Vec<Vec<u8>> = (0..37).map(|i| bytes((i * 389) % 3000, i)).collect();
    let refs: Vec<&[u8]> = shares.iter().map(Vec::as_slice).collect();
    // A server's tag, and tags that end past the first and second blocks.
    for tag in [&b"cdstore-server-0"[..], &[0x5a; 60], &[0xa5; 130]] {
        let expected: Vec<Fingerprint> = refs.iter().map(|s| Fingerprint::tagged(tag, s)).collect();
        for count in [0, 1, 15, 16, 17, refs.len()] {
            assert_eq!(
                Fingerprint::tagged_batch(tag, &refs[..count]),
                expected[..count],
                "tag of {} bytes, {count} shares",
                tag.len()
            );
        }
    }
}

proptest! {
    #[test]
    fn random_batches_match_hash_parts(
        prefix in proptest::collection::vec(any::<u8>(), 0..150),
        msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..700), 0..40),
    ) {
        let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        let expected: Vec<[u8; 32]> = refs.iter().map(|m| hash_parts(&[&prefix, m])).collect();
        for kernel in BatchKernel::available() {
            assert_eq!(hash_batch_with(kernel, &prefix, &refs), expected, "{kernel:?}");
        }
    }
}
