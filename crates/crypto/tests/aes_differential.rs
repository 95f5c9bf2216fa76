//! Differential tests proving that every AES backend is bit-identical to the
//! portable byte-wise cipher for key schedules, single blocks, CTR keystreams
//! (with any fill byte) and the CAONT generator mask, across lengths,
//! alignments, counters and keys.
//!
//! The reference is built in this file from nothing but the scalar backend's
//! single-block `encrypt` (which the FIPS 197 / SP 800-38A vectors pin): one
//! counter block at a time, XORed byte by byte. Key schedules are compared
//! with the scalar backend's byte-wise FIPS 197 expansion. Like the GF suite,
//! two layers are exercised:
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

/// Blocks the VAES-512 kernel runs per step (four registers of four).
const STEP_BLOCKS: usize = 16;

/// 0 ..= two VAES steps and a few blocks more: every length across the
/// 16-byte block, 128-byte AES-NI batch and 256-byte VAES step edges, and
/// every count of whole blocks in a tail, with and without a partial block.
const MAX_LEN: usize = 600;

/// Offsets into an over-allocated buffer so the kernels see misaligned
/// pointers as well as (likely) aligned ones.
const OFFSETS: &[usize] = &[0, 1, 3, 8, 13];

/// Lengths up to one AES-NI batch, a block and a byte run at every offset;
/// longer ones at offset 0 and at one of the others, in turn.
const EVERY_OFFSET_TO: usize = 8 * BLOCK_SIZE + 17;

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

/// The fill bytes the CTR kernels are checked under: plain CTR, all bits
/// set, and the CAONT generator's constant.
const FILLS: [u8; 3] = [0x00, 0xff, CONSTANT_BLOCK_BYTE];

/// The references [`check_ctr_kernels`] compares with, computed once for
/// every backend: the keystream under each of [`FILLS`] from (`nonce`,
/// `start`), and the generator mask (nonce 0 from block 0).
struct Expected {
    nonce: u64,
    start: u64,
    fills: [Vec<u8>; FILLS.len()],
    mask: Vec<u8>,
}

impl Expected {
    fn new(key: &[u8; KEY_SIZE], nonce: u64, start: u64, data: &[u8]) -> Self {
        Expected {
            nonce,
            start,
            fills: FILLS.map(|fill| reference_ctr(key, nonce, start, fill, data)),
            mask: reference_ctr(key, 0, 0, CONSTANT_BLOCK_BYTE, data),
        }
    }
}

/// Checks `ctr_xor` under every fill byte, `apply_keystream` and the
/// generator mask of one backend against `want` on `data`.
fn check_against(backend: Backend, key: &[u8; KEY_SIZE], data: &[u8], want: &Expected) {
    let (nonce, start) = (want.nonce, want.start);
    let ctx = format!(
        "backend={} len={} nonce={nonce:#x} start={start:#x}",
        backend.name(),
        data.len()
    );
    let cipher = Aes256::with_backend(backend, key);
    for (fill, want) in FILLS.iter().zip(&want.fills) {
        let mut got = data.to_vec();
        cipher.ctr_xor(nonce, start, *fill, &mut got);
        assert_eq!(&got, want, "ctr_xor fill={fill:#04x} {ctx}");
    }

    let mut got = data.to_vec();
    Aes256Ctr::with_backend(backend, key, nonce).apply_keystream(&mut got, start);
    assert_eq!(got, want.fills[0], "apply_keystream {ctx}");

    let mut got = data.to_vec();
    ctr::apply_generator_mask_with(backend, key, &mut got);
    assert_eq!(got, want.mask, "apply_generator_mask {ctx}");
}

/// [`check_against`] with the references computed here.
fn check_ctr_kernels(backend: Backend, key: &[u8; KEY_SIZE], nonce: u64, start: u64, data: &[u8]) {
    check_against(backend, key, data, &Expected::new(key, nonce, start, data));
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

        // Several steps plus a ragged tail, at secret size.
        let mut buf = vec![0u8; 8192 + 37];
        fill_bytes(&mut buf, 0xA076_1D64_78BD_642F);
        check_ctr_kernels(backend, &key, u64::MAX, 1 << 40, &buf);
    }
    // Every length, aligned and not, the references computed once for all
    // backends.
    let nonce = 0x0123_4567_89ab_cdef;
    for len in 0..=MAX_LEN {
        let turn = [0, OFFSETS[1 + len % (OFFSETS.len() - 1)]];
        let offsets = if len <= EVERY_OFFSET_TO {
            OFFSETS
        } else {
            &turn
        };
        for &offset in offsets {
            let mut buf = vec![0u8; offset + len];
            fill_bytes(&mut buf, 0xD1B5_4A32_D192_ED03 ^ (len as u64) << 8);
            let data = &buf[offset..];
            let want = Expected::new(&key, nonce, 7, data);
            for backend in Backend::available() {
                check_against(backend, &key, data, &want);
            }
        }
    }
}

/// The hardware backends expand keys with `aeskeygenassist`; the scalar
/// backend's byte-wise expansion is FIPS 197's, pinned here by the last
/// round key of the Appendix A.3 and C.3 keys.
#[test]
fn every_backend_expands_keys_as_fips197_does() {
    let pinned = [
        (
            "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
            "fe4890d1e6188d0b046df344706c631e",
        ),
        (
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
            "24fc79ccbf0979e9371ac23c6d68de36",
        ),
    ];
    let mut keys: Vec<[u8; KEY_SIZE]> = pinned
        .iter()
        .map(|(key, _)| parse_hex(key).try_into().unwrap())
        .collect();
    for ((_, last), key) in pinned.iter().zip(&keys) {
        let schedule = Aes256::with_backend(Backend::Scalar, key);
        assert_eq!(schedule.round_keys()[..2].concat(), key.to_vec());
        assert_eq!(schedule.round_keys()[14].to_vec(), parse_hex(last));
    }
    keys.extend((1..=1000u64).map(|i| seeded_key(0x2545_F491_4F6C_DD1D ^ i)));
    for key in &keys {
        let want = *Aes256::with_backend(Backend::Scalar, key).round_keys();
        for backend in Backend::available() {
            assert_eq!(
                Aes256::with_backend(backend, key).round_keys(),
                &want,
                "{} key={key:02x?}",
                backend.name()
            );
        }
    }
}

#[test]
fn block_counter_wraps_without_carrying_into_the_nonce() {
    let key = seeded_key(0xE703_7ED1_A0B4_28DB);
    let nonce = 0x00ff_00ff_00ff_00fe;
    let mut data = vec![0u8; MAX_LEN];
    fill_bytes(&mut data, 0x517C_C1B7_2722_0A95);
    // Every position of the wrap inside a VAES step or an AES-NI batch, and
    // a step or batch before it: u64::MAX - 20 wraps inside the second step's
    // first register. The same for a carry out of the counter's last byte
    // that stops short of the wrap.
    for last in [u64::MAX, 0x0123_4567_89ab_ffff, 0x01ff] {
        for back in 0..=2 * STEP_BLOCKS as u64 + 4 {
            let start = last - back;
            let want = Expected::new(&key, nonce, start, &data);
            for backend in Backend::available() {
                check_against(backend, &key, &data, &want);
            }
        }
    }
    for backend in Backend::available() {
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
        // Half the cases start within two VAES steps of the counter wrap.
        let start = if near_wrap { u64::MAX - start % (2 * STEP_BLOCKS as u64) } else { start };
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
