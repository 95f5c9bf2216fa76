//! Differential tests proving that every AES backend is bit-identical to the
//! portable byte-wise cipher for single blocks, CTR keystreams and the CAONT
//! generator mask, across lengths, alignments, counters and keys.
//!
//! The reference is built in this file from nothing but the scalar backend's
//! single-block `encrypt` (which the FIPS 197 / SP 800-38A vectors pin): one
//! counter block at a time, XORed byte by byte. Like the GF suite, two layers
//! are exercised:
//!
//! * **Explicit backends** — every entry of [`Backend::available()`],
//!   scalar included (its fused CTR loop is production code too), in one
//!   process.
//! * **Production dispatch** — `Aes256Ctr::new` / `apply_generator_mask` go
//!   through the detect-once dispatch. CI runs this binary twice, once
//!   normally and once with `CDSTORE_FORCE_SCALAR=1`.

use cdstore_crypto::aes::{Aes256, Backend, BLOCK_SIZE, KEY_SIZE};
use cdstore_crypto::ctr::{self, Aes256Ctr, CONSTANT_BLOCK_BYTE};
use proptest::prelude::*;

/// Blocks the AES-NI kernel keeps in flight per batch.
const BATCH_BLOCKS: usize = 8;

/// 0 ..= one full batch plus a block and a byte: every count of whole
/// blocks in the tail batch, each with and without a partial last block.
const MAX_LEN: usize = BATCH_BLOCKS * BLOCK_SIZE + 17;

/// Offsets into an over-allocated buffer so the kernels see misaligned
/// pointers as well as (likely) aligned ones.
const OFFSETS: &[usize] = &[0, 1, 3, 8, 13];

/// Byte-at-a-time reference: `data ^ E(key, nonce ‖ counter…) ^ fill`, the
/// counter wrapping in its own 64 bits.
fn reference_ctr(
    key: &[u8; KEY_SIZE],
    nonce: u64,
    start_block: u64,
    fill: u8,
    data: &[u8],
) -> Vec<u8> {
    let cipher = Aes256::with_backend(Backend::Scalar, key);
    let mut out = Vec::with_capacity(data.len());
    let mut counter = start_block;
    for chunk in data.chunks(BLOCK_SIZE) {
        let mut block = [0u8; BLOCK_SIZE];
        block[..8].copy_from_slice(&nonce.to_be_bytes());
        block[8..].copy_from_slice(&counter.to_be_bytes());
        let keystream = cipher.encrypt(&block);
        out.extend(chunk.iter().zip(keystream).map(|(d, k)| d ^ k ^ fill));
        counter = counter.wrapping_add(1);
    }
    out
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

fn seeded_key(seed: u64) -> [u8; KEY_SIZE] {
    let mut key = [0u8; KEY_SIZE];
    fill_bytes(&mut key, seed);
    key
}

fn parse_hex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

/// Checks `apply_keystream` and the generator mask of one backend against
/// the reference on `data` (the mask ignores `nonce` and `start`: `G(h)` is
/// always nonce 0 from block 0).
fn check_ctr_kernels(backend: Backend, key: &[u8; KEY_SIZE], nonce: u64, start: u64, data: &[u8]) {
    let ctx = format!(
        "backend={} len={} nonce={nonce:#x} start={start:#x}",
        backend.name(),
        data.len()
    );
    let mut got = data.to_vec();
    Aes256Ctr::with_backend(backend, key, nonce).apply_keystream(&mut got, start);
    assert_eq!(
        got,
        reference_ctr(key, nonce, start, 0, data),
        "apply_keystream {ctx}"
    );

    let mut got = data.to_vec();
    ctr::apply_generator_mask_with(backend, key, &mut got);
    assert_eq!(
        got,
        reference_ctr(key, 0, 0, CONSTANT_BLOCK_BYTE, data),
        "apply_generator_mask {ctx}"
    );
}

#[test]
fn standard_vectors_hold_on_every_backend() {
    let backends = Backend::available();
    assert_eq!(backends[0], Backend::Scalar);
    for backend in backends {
        // FIPS 197 Appendix C.3.
        let key: [u8; 32] =
            parse_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
                .try_into()
                .unwrap();
        let pt: [u8; 16] = parse_hex("00112233445566778899aabbccddeeff")
            .try_into()
            .unwrap();
        assert_eq!(
            Aes256::with_backend(backend, &key).encrypt(&pt).to_vec(),
            parse_hex("8ea2b7ca516745bfeafc49904b496089"),
            "FIPS 197 C.3 on {}",
            backend.name()
        );

        // SP 800-38A F.5.5 (CTR-AES256.Encrypt): the initial counter block
        // f0f1…feff split into nonce and starting block.
        let key: [u8; 32] =
            parse_hex("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4")
                .try_into()
                .unwrap();
        let mut data = parse_hex(concat!(
            "6bc1bee22e409f96e93d7e117393172a",
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "30c81c46a35ce411e5fbc1191a0a52ef",
            "f69f2445df4f9b17ad2b417be66c3710"
        ));
        Aes256Ctr::with_backend(backend, &key, 0xf0f1f2f3f4f5f6f7)
            .apply_keystream(&mut data, 0xf8f9fafbfcfdfeff);
        assert_eq!(
            data,
            parse_hex(concat!(
                "601ec313775789a5b7a7f504bbf3d228",
                "f443e3ca4d62b59aca84e990cacaf5c5",
                "2b0930daa23de94ce87017ba2d84988d",
                "dfc9c58db67aada613c2dd08457941a6"
            )),
            "SP 800-38A F.5.5 on {}",
            backend.name()
        );
    }
}

#[test]
fn every_backend_matches_reference_for_all_lengths_and_alignments() {
    let key = seeded_key(0x9E37_79B9_7F4A_7C15);
    let reference = Aes256::with_backend(Backend::Scalar, &key);
    for backend in Backend::available() {
        // Single block (Rivest's AONT path), in place and by value.
        let cipher = Aes256::with_backend(backend, &key);
        for seed in 1..=32u64 {
            let mut block = [0u8; BLOCK_SIZE];
            fill_bytes(&mut block, seed);
            let want = reference.encrypt(&block);
            assert_eq!(cipher.encrypt(&block), want, "encrypt {}", backend.name());
            cipher.encrypt_block(&mut block);
            assert_eq!(block, want, "encrypt_block {}", backend.name());
        }

        for len in 0..=MAX_LEN {
            for &offset in OFFSETS {
                let mut buf = vec![0u8; offset + len];
                fill_bytes(&mut buf, 0xD1B5_4A32_D192_ED03 ^ (len as u64) << 8);
                check_ctr_kernels(backend, &key, 0x0123_4567_89ab_cdef, 7, &buf[offset..]);
            }
        }
        // Several batches plus a ragged tail, at secret size.
        let mut buf = vec![0u8; 8192 + 37];
        fill_bytes(&mut buf, 0xA076_1D64_78BD_642F);
        check_ctr_kernels(backend, &key, u64::MAX, 1 << 40, &buf);
    }
}

#[test]
fn block_counter_wraps_without_carrying_into_the_nonce() {
    let key = seeded_key(0xE703_7ED1_A0B4_28DB);
    let nonce = 0x00ff_00ff_00ff_00fe;
    let mut data = vec![0u8; MAX_LEN];
    fill_bytes(&mut data, 0x517C_C1B7_2722_0A95);
    for backend in Backend::available() {
        // Every position of the wrap inside a batch, and one batch before it.
        for back in 0..=2 * BATCH_BLOCKS as u64 {
            let start = u64::MAX - back;
            check_ctr_kernels(backend, &key, nonce, start, &data);
        }
        // Spelled out once: the block after counter u64::MAX is counter 0
        // under the same nonce — neither nonce + 1 nor a 128-bit increment.
        let cipher = Aes256Ctr::with_backend(backend, &key, nonce);
        let mut wrapped = vec![0u8; 2 * BLOCK_SIZE];
        cipher.apply_keystream(&mut wrapped, u64::MAX);
        let mut first = vec![0u8; BLOCK_SIZE];
        cipher.apply_keystream(&mut first, 0);
        assert_eq!(wrapped[BLOCK_SIZE..], first[..], "{}", backend.name());
    }
}

#[test]
fn production_dispatch_matches_reference() {
    // Whatever backend `active()` picked (honouring CDSTORE_FORCE_SCALAR),
    // the constructors and free functions that do not name one must agree
    // with the reference.
    let active = Backend::active();
    assert!(Backend::available().contains(&active));
    if std::env::var("CDSTORE_FORCE_SCALAR").is_ok_and(|v| v != "0") {
        assert_eq!(active, Backend::Scalar, "env override must force scalar");
    }
    let key = seeded_key(0x8EBC_6AF0_9C88_C6E3);
    for len in [0usize, 1, 15, 16, 17, 127, 128, 129, 1000, 8192] {
        let mut data = vec![0u8; len];
        fill_bytes(&mut data, 0x5899_65CC_7537_4CC3 ^ len as u64);

        let mut got = data.clone();
        Aes256Ctr::new(&key, 9).apply_keystream(&mut got, 3);
        assert_eq!(got, reference_ctr(&key, 9, 3, 0, &data), "len={len}");

        let masked = reference_ctr(&key, 0, 0, CONSTANT_BLOCK_BYTE, &data);
        let mut got = data.clone();
        ctr::apply_generator_mask(&key, &mut got);
        assert_eq!(got, masked, "len={len}");
        let mask = ctr::generator_mask(&key, len);
        let xored: Vec<u8> = data.iter().zip(&mask).map(|(d, m)| d ^ m).collect();
        assert_eq!(xored, masked, "len={len}");
    }
    let block = [0x3cu8; BLOCK_SIZE];
    assert_eq!(
        Aes256::new(&key).encrypt(&block),
        Aes256::with_backend(Backend::Scalar, &key).encrypt(&block)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary (key, nonce, start block, data, offset): every backend ≡
    /// the reference.
    #[test]
    fn backends_equal_reference_on_arbitrary_inputs(
        key in proptest::array::uniform32(any::<u8>()),
        nonce: u64,
        start: u64,
        near_wrap: bool,
        data in proptest::collection::vec(any::<u8>(), 0..600),
        offset in 0usize..17,
    ) {
        let offset = offset.min(data.len());
        // Half the cases start within a batch of the counter wrap.
        let start = if near_wrap { u64::MAX - start % 16 } else { start };
        for backend in Backend::available() {
            check_ctr_kernels(backend, &key, nonce, start, &data[offset..]);
            let block: [u8; BLOCK_SIZE] = std::array::from_fn(|i| key[i] ^ nonce.to_le_bytes()[i % 8]);
            prop_assert_eq!(
                Aes256::with_backend(backend, &key).encrypt(&block),
                Aes256::with_backend(Backend::Scalar, &key).encrypt(&block)
            );
        }
    }
}
