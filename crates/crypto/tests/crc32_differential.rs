//! Differential tests proving that every CRC-32 backend is bit-identical to a
//! table-free, bit-at-a-time reference across lengths, alignments and data.
//!
//! The reference is the definition: shift the reflected register one bit at
//! a time, XORing the polynomial in whenever a one falls out. It shares no
//! table, constant derivation or loop structure with `cdstore_crypto::crc32`.
//! Like the AES and GF suites, two layers are exercised:
//!
//! * **Explicit backends** — every entry of [`Backend::available()`], the
//!   portable slicing-by-16 included (it is production code on every
//!   non-x86 host, and the tail of every folded input), in one process.
//! * **Production dispatch** — `crc32()` goes through the detect-once
//!   dispatch. CI runs this binary twice, once normally and once with
//!   `CDSTORE_FORCE_SCALAR=1`.

use cdstore_crypto::crc32::{crc32, crc32_with, Backend};
use proptest::prelude::*;

/// Bytes the folding kernel consumes per step (four 128-bit lanes).
const FOLD_BYTES: usize = 64;

/// 0 ..= two fold steps plus a lane and a byte: every count of whole lanes
/// after the fold loop, each with every tail length the table path can see.
const MAX_LEN: usize = 2 * FOLD_BYTES + 17;

/// Offsets into an over-allocated buffer so the kernels see misaligned
/// pointers as well as (likely) aligned ones.
const OFFSETS: &[usize] = &[0, 1, 3, 8, 13];

/// IEEE 802.3 CRC-32, one bit at a time.
fn reference_crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// Deterministic pseudo-random bytes (xorshift64*) so failures reproduce.
fn fill_bytes(buf: &mut [u8], mut seed: u64) {
    for b in buf.iter_mut() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        *b = (seed.wrapping_mul(0x2545F4914F6CDD1D) >> 56) as u8;
    }
}

fn check_every_backend(data: &[u8], ctx: &str) {
    let want = reference_crc32(data);
    for backend in Backend::available() {
        assert_eq!(
            crc32_with(backend, data),
            want,
            "backend={} len={} {ctx}",
            backend.name(),
            data.len()
        );
    }
}

#[test]
fn check_values_hold_on_every_backend() {
    let backends = Backend::available();
    assert_eq!(backends[0], Backend::Scalar);
    // The reference itself against the catalogued check value.
    assert_eq!(reference_crc32(b"123456789"), 0xCBF4_3926);
    for backend in backends {
        assert_eq!(crc32_with(backend, b""), 0, "{}", backend.name());
        assert_eq!(
            crc32_with(backend, b"123456789"),
            0xCBF4_3926,
            "{}",
            backend.name()
        );
        assert_eq!(
            crc32_with(backend, b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339,
            "{}",
            backend.name()
        );
    }
}

#[test]
fn every_backend_matches_reference_for_all_lengths_and_alignments() {
    for len in 0..=MAX_LEN {
        for &offset in OFFSETS {
            let mut buf = vec![0u8; offset + len];
            fill_bytes(&mut buf, 0xD1B5_4A32_D192_ED03 ^ (len as u64) << 8);
            check_every_backend(&buf[offset..], &format!("offset={offset}"));
        }
    }
    // All-zero and all-one inputs: the register's initial value and final
    // XOR are what keep these from summing to zero.
    for len in [1usize, 63, 64, 65, 128, 1000] {
        check_every_backend(&vec![0u8; len], "zeros");
        check_every_backend(&vec![0xffu8; len], "ones");
    }
}

#[test]
fn every_backend_matches_reference_on_a_large_buffer() {
    // A wire-frame-sized input: tens of thousands of fold steps, then lanes
    // and a ragged tail.
    let mut buf = vec![0u8; (4 << 20) + 16 + 5];
    fill_bytes(&mut buf, 0xA076_1D64_78BD_642F);
    check_every_backend(&buf, "4 MiB + 21");
    check_every_backend(&buf[..4 << 20], "4 MiB");
}

#[test]
fn production_dispatch_matches_reference() {
    // Whatever backend `active()` picked (honouring CDSTORE_FORCE_SCALAR),
    // the function that does not name one must agree with the reference.
    let active = Backend::active();
    assert!(Backend::available().contains(&active));
    if std::env::var("CDSTORE_FORCE_SCALAR").is_ok_and(|v| v != "0") {
        assert_eq!(active, Backend::Scalar, "env override must force scalar");
    }
    // 76 bytes is a journal record; 8202 a frame carrying one 8 KiB share.
    for len in [
        0usize, 1, 15, 16, 17, 63, 64, 65, 76, 127, 128, 129, 1000, 8202,
    ] {
        let mut data = vec![0u8; len];
        fill_bytes(&mut data, 0x5899_65CC_7537_4CC3 ^ len as u64);
        assert_eq!(crc32(&data), reference_crc32(&data), "len={len}");
        assert_eq!(crc32(&data), crc32_with(active, &data), "len={len}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary (data, offset, length): every backend ≡ the reference.
    #[test]
    fn backends_equal_reference_on_arbitrary_inputs(
        data in proptest::collection::vec(any::<u8>(), 0..1200),
        offset in 0usize..17,
        trim in 0usize..80,
    ) {
        let offset = offset.min(data.len());
        let end = data.len() - trim.min(data.len() - offset);
        let slice = &data[offset..end];
        let want = reference_crc32(slice);
        for backend in Backend::available() {
            prop_assert_eq!(crc32_with(backend, slice), want);
        }
    }
}
