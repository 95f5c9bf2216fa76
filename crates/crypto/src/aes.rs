//! AES-256 block cipher (FIPS 197), implemented from scratch.
//!
//! CAONT-RS uses AES-256 as the encryption function `E` inside the mask
//! generator `G(h) = E(h, C)` (Equation (3) of the paper). CTR-mode mask
//! generation only ever runs the forward cipher, so that is all this module
//! implements; the FIPS 197 and SP 800-38A encrypt vectors are its
//! correctness check.
//!
//! # Kernel dispatch
//!
//! The cipher has three implementations: the portable byte-wise rounds
//! below (per-byte S-box, `xtime` MixColumns), an x86_64 AES-NI path
//! (`aesenc`/`aesenclast`, eight CTR blocks in flight) and an x86_64
//! VAES-512 path (`vaesenc` on four blocks a register, sixteen in flight),
//! selected once per process by runtime feature detection (see
//! [`Backend::active`]). Setting `CDSTORE_FORCE_SCALAR` (to anything but
//! `0`) before first use forces the portable path — the same override the
//! SHA-256 and GF(2^8) kernels honour. All run over FIPS 197's round keys,
//! byte for byte what `aesenc` takes as its operand; the hardware backends
//! expand them with `aeskeygenassist`, the portable path byte by byte.
//!
//! The portable cipher and key expansion are also the reference every
//! backend is compared against in `tests/aes_differential.rs`. There is
//! deliberately no T-table variant between the two: no supported host would
//! run it, and its key-dependent table reads would add a cache-timing
//! channel on a content-derived key. The hardware backends make no
//! key-dependent memory access at all, key schedule included.

use std::sync::OnceLock;

/// AES block size in bytes.
pub const BLOCK_SIZE: usize = 16;
/// AES-256 key size in bytes.
pub const KEY_SIZE: usize = 32;
/// Number of rounds for AES-256.
pub const ROUNDS: usize = 14;

/// An expanded key: the initial whitening key and one key per round.
type RoundKeys = [[u8; BLOCK_SIZE]; ROUNDS + 1];

const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Multiplies a byte by `x` in AES's GF(2^8) (polynomial 0x11b).
#[inline]
const fn xtime(b: u8) -> u8 {
    let shifted = b << 1;
    if b & 0x80 != 0 {
        shifted ^ 0x1b
    } else {
        shifted
    }
}

/// An AES round implementation selected by runtime CPU detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable byte-wise rounds; always available, and the reference the
    /// differential suite compares every other backend against.
    Scalar,
    /// x86_64 AES-NI (`aesenc`/`aesenclast`), eight CTR blocks in flight.
    AesNi,
    /// x86_64 VAES on AVX-512 registers (`vaesenc` rounds four blocks at
    /// once), sixteen CTR blocks in flight; single blocks and CTR tails
    /// under sixteen blocks run on AES-NI.
    Vaes512,
}

static ACTIVE: OnceLock<Backend> = OnceLock::new();

impl Backend {
    /// Every backend runnable on this CPU, scalar first (for the
    /// differential test suite).
    pub fn available() -> Vec<Backend> {
        [Backend::Scalar, Backend::AesNi, Backend::Vaes512]
            .into_iter()
            .filter(|b| b.detected())
            .collect()
    }

    /// The backend [`Aes256::new`] uses, chosen once per process: VAES-512
    /// where detected, else AES-NI where detected, unless
    /// `CDSTORE_FORCE_SCALAR` is set at first use.
    pub fn active() -> Backend {
        *ACTIVE.get_or_init(|| {
            let force_scalar = std::env::var_os("CDSTORE_FORCE_SCALAR").is_some_and(|v| v != "0");
            if force_scalar {
                Backend::Scalar
            } else {
                *Self::available().last().expect("scalar always available")
            }
        })
    }

    /// Human-readable backend name (used by benches and logs).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::AesNi => "aes-ni",
            Backend::Vaes512 => "vaes-512",
        }
    }

    /// Whether this CPU can run the backend (std caches the `cpuid` probe,
    /// so this is two relaxed loads).
    fn detected(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::AesNi => is_x86_feature_detected!("aes") && is_x86_feature_detected!("sse2"),
            #[cfg(target_arch = "x86_64")]
            Backend::Vaes512 => {
                Backend::AesNi.detected()
                    && is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("vaes")
            }
            #[cfg(not(target_arch = "x86_64"))]
            Backend::AesNi | Backend::Vaes512 => false,
        }
    }
}

/// An expanded AES-256 key schedule, bound to the backend that runs it.
#[derive(Clone)]
pub struct Aes256 {
    round_keys: RoundKeys,
    /// Invariant (the `unsafe` dispatch below relies on it): `AesNi` or
    /// `Vaes512` only if [`Backend::detected`] said so — `with_backend` is
    /// the one constructor, and `Vaes512` implies AES-NI.
    backend: Backend,
}

impl Aes256 {
    /// Expands a 32-byte key for the process-wide [`Backend::active`].
    pub fn new(key: &[u8; KEY_SIZE]) -> Self {
        Self::with_backend(Backend::active(), key)
    }

    /// Expands a 32-byte key into the full key schedule, to be run on
    /// `backend`: with `aeskeygenassist` on the hardware backends, byte by
    /// byte on the scalar one (the same round keys either way).
    ///
    /// # Panics
    ///
    /// Panics if `backend` is not in [`Backend::available`] on this CPU.
    #[allow(unsafe_code)] // the hardware variants exist only after feature detection
    pub fn with_backend(backend: Backend, key: &[u8; KEY_SIZE]) -> Self {
        assert!(
            backend.detected(),
            "AES backend {} is not available on this CPU",
            backend.name()
        );
        let round_keys = match backend {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `detected()` just confirmed `aes` and `sse2` (which
            // `Vaes512` implies).
            Backend::AesNi | Backend::Vaes512 => unsafe { ni::expand_key(key) },
            _ => expand_key(key),
        };
        Aes256 {
            round_keys,
            backend,
        }
    }

    /// The expanded key schedule: FIPS 197's words `w[4r..4r + 4]` as round
    /// key `r`, whichever backend expanded it.
    pub fn round_keys(&self) -> &[[u8; BLOCK_SIZE]; ROUNDS + 1] {
        &self.round_keys
    }

    /// Encrypts a single 16-byte block in place.
    #[allow(unsafe_code)] // the hardware variants exist only after feature detection
    pub fn encrypt_block(&self, block: &mut [u8; BLOCK_SIZE]) {
        match self.backend {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `with_backend` asserted `aes` and `sse2` were detected
            // before storing `AesNi` or `Vaes512`; the block is exactly 16
            // bytes by type.
            Backend::AesNi | Backend::Vaes512 => unsafe {
                ni::encrypt_block(&self.round_keys, block)
            },
            _ => self.encrypt_block_scalar(block),
        }
    }

    /// CTR-mode kernel: `buf[i] ^= keystream[i] ^ fill`, where the keystream
    /// is the encryption of the big-endian counter blocks `nonce ‖ counter`
    /// for `counter = start_block, start_block + 1, …` (wrapping in its own
    /// 64 bits, never carrying into the nonce). `fill = 0` is plain CTR;
    /// the CAONT generator passes its constant byte so masking a secret is
    /// one pass over it.
    #[allow(unsafe_code)] // the hardware variants exist only after feature detection
    pub fn ctr_xor(&self, nonce: u64, start_block: u64, fill: u8, buf: &mut [u8]) {
        match self.backend {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `with_backend` asserted `aes` and `sse2` were detected
            // before storing `AesNi`; the kernel takes any `buf` length.
            Backend::AesNi => unsafe {
                ni::ctr_xor(&self.round_keys, nonce, start_block, fill, buf)
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `with_backend` asserted `aes`, `sse2`, `avx512f` and
            // `vaes` were detected before storing `Vaes512`; the kernel takes
            // any `buf` length.
            Backend::Vaes512 => unsafe {
                vaes::ctr_xor(&self.round_keys, nonce, start_block, fill, buf)
            },
            _ => {
                let mut counter = start_block;
                for chunk in buf.chunks_mut(BLOCK_SIZE) {
                    let mut block = counter_block(nonce, counter);
                    self.encrypt_block_scalar(&mut block);
                    for (b, k) in chunk.iter_mut().zip(block.iter()) {
                        *b ^= k ^ fill;
                    }
                    counter = counter.wrapping_add(1);
                }
            }
        }
    }

    fn encrypt_block_scalar(&self, block: &mut [u8; BLOCK_SIZE]) {
        add_round_key(block, &self.round_keys[0]);
        for round in 1..ROUNDS {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, &self.round_keys[round]);
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(block, &self.round_keys[ROUNDS]);
    }

    /// Encrypts a block, returning the ciphertext instead of mutating.
    pub fn encrypt(&self, block: &[u8; BLOCK_SIZE]) -> [u8; BLOCK_SIZE] {
        let mut out = *block;
        self.encrypt_block(&mut out);
        out
    }
}

/// FIPS 197 §5.2's key expansion, byte by byte: the scalar backend's key
/// schedule and the reference the hardware expansion is tested against.
fn expand_key(key: &[u8; KEY_SIZE]) -> RoundKeys {
    // 60 32-bit words for AES-256.
    let nk = 8usize;
    let total_words = 4 * (ROUNDS + 1);
    let mut w = [[0u8; 4]; 4 * (ROUNDS + 1)];
    for (i, word) in w.iter_mut().take(nk).enumerate() {
        word.copy_from_slice(&key[i * 4..(i + 1) * 4]);
    }
    for i in nk..total_words {
        let mut temp = w[i - 1];
        if i % nk == 0 {
            // RotWord + SubWord + Rcon.
            temp.rotate_left(1);
            for t in temp.iter_mut() {
                *t = SBOX[*t as usize];
            }
            temp[0] ^= RCON[i / nk - 1];
        } else if i % nk == 4 {
            for t in temp.iter_mut() {
                *t = SBOX[*t as usize];
            }
        }
        for j in 0..4 {
            w[i][j] = w[i - nk][j] ^ temp[j];
        }
    }
    let mut round_keys = [[0u8; 16]; ROUNDS + 1];
    for (r, rk) in round_keys.iter_mut().enumerate() {
        for c in 0..4 {
            rk[c * 4..(c + 1) * 4].copy_from_slice(&w[r * 4 + c]);
        }
    }
    round_keys
}

/// The CTR counter block: an 8-byte big-endian nonce followed by an 8-byte
/// big-endian block counter.
fn counter_block(nonce: u64, counter: u64) -> [u8; BLOCK_SIZE] {
    let mut block = [0u8; BLOCK_SIZE];
    block[..8].copy_from_slice(&nonce.to_be_bytes());
    block[8..].copy_from_slice(&counter.to_be_bytes());
    block
}

#[inline]
fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(rk) {
        *s ^= k;
    }
}

#[inline]
fn sub_bytes(state: &mut [u8; 16]) {
    for s in state.iter_mut() {
        *s = SBOX[*s as usize];
    }
}

// The state is stored column-major as in FIPS 197: state[r + 4c] is row r,
// column c, i.e. byte index `4c + r` of the flat block.
#[inline]
fn shift_rows(state: &mut [u8; 16]) {
    // Row 1: shift left by 1.
    let t = state[1];
    state[1] = state[5];
    state[5] = state[9];
    state[9] = state[13];
    state[13] = t;
    // Row 2: shift left by 2.
    state.swap(2, 10);
    state.swap(6, 14);
    // Row 3: shift left by 3 (== right by 1).
    let t = state[15];
    state[15] = state[11];
    state[11] = state[7];
    state[7] = state[3];
    state[3] = t;
}

#[inline]
fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [
            state[4 * c],
            state[4 * c + 1],
            state[4 * c + 2],
            state[4 * c + 3],
        ];
        state[4 * c] = xtime(col[0]) ^ (xtime(col[1]) ^ col[1]) ^ col[2] ^ col[3];
        state[4 * c + 1] = col[0] ^ xtime(col[1]) ^ (xtime(col[2]) ^ col[2]) ^ col[3];
        state[4 * c + 2] = col[0] ^ col[1] ^ xtime(col[2]) ^ (xtime(col[3]) ^ col[3]);
        state[4 * c + 3] = (xtime(col[0]) ^ col[0]) ^ col[1] ^ col[2] ^ xtime(col[3]);
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod ni {
    //! x86_64 AES-NI rounds. One `aesenc` is a full round (ShiftRows,
    //! SubBytes, MixColumns, AddRoundKey) with a latency of several cycles
    //! but a throughput of one or two per cycle, so a lone block leaves the
    //! unit mostly idle. CTR blocks are independent: the kernel keeps
    //! [`LANES`] of them in flight per round to fill the pipeline.

    use super::{RoundKeys, BLOCK_SIZE, KEY_SIZE, ROUNDS};
    use core::arch::x86_64::*;

    /// Counter blocks encrypted per batch.
    const LANES: usize = 8;

    /// Each 32-bit word XORed with every word below it: the running XOR
    /// through which FIPS 197's expansion makes a round key's four words
    /// from the previous key of the same parity.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn prefix_xor(a: __m128i) -> __m128i {
        let a = _mm_xor_si128(a, _mm_slli_si128::<4>(a));
        _mm_xor_si128(a, _mm_slli_si128::<8>(a))
    }

    /// The even round key after `even`: `aeskeygenassist` yields
    /// `RotWord(SubWord(w)) ⊕ RCON` of `odd`'s last word `w` in its top
    /// word, broadcast and folded into `even`'s running XOR.
    #[inline]
    #[target_feature(enable = "aes,sse2")]
    fn next_even<const RCON: i32>(even: __m128i, odd: __m128i) -> __m128i {
        let t = _mm_shuffle_epi32::<0xff>(_mm_aeskeygenassist_si128::<RCON>(odd));
        _mm_xor_si128(prefix_xor(even), t)
    }

    /// The odd round key after `odd`: AES-256 adds `SubWord` of the new
    /// even key's last word, which `aeskeygenassist` leaves in word 2.
    #[inline]
    #[target_feature(enable = "aes,sse2")]
    fn next_odd(odd: __m128i, even: __m128i) -> __m128i {
        let t = _mm_shuffle_epi32::<0xaa>(_mm_aeskeygenassist_si128::<0>(even));
        _mm_xor_si128(prefix_xor(odd), t)
    }

    /// FIPS 197's AES-256 key expansion with `aeskeygenassist` (Gueron,
    /// *Intel Advanced Encryption Standard (AES) New Instructions Set*,
    /// 2010): byte for byte the round keys [`super::expand_key`] makes,
    /// with no key-dependent table read.
    ///
    /// # Safety
    ///
    /// Caller must ensure the `aes` and `sse2` features are available.
    #[target_feature(enable = "aes,sse2")]
    pub unsafe fn expand_key(key: &[u8; KEY_SIZE]) -> RoundKeys {
        let mut k = [_mm_setzero_si128(); ROUNDS + 1];
        for (v, half) in k.iter_mut().zip(key.chunks_exact(BLOCK_SIZE)) {
            // SAFETY: each half of the key is 16 bytes; unaligned load.
            *v = unsafe { _mm_loadu_si128(half.as_ptr().cast()) };
        }
        // Round constants are immediates, so the seven steps are spelled out.
        k[2] = next_even::<0x01>(k[0], k[1]);
        k[3] = next_odd(k[1], k[2]);
        k[4] = next_even::<0x02>(k[2], k[3]);
        k[5] = next_odd(k[3], k[4]);
        k[6] = next_even::<0x04>(k[4], k[5]);
        k[7] = next_odd(k[5], k[6]);
        k[8] = next_even::<0x08>(k[6], k[7]);
        k[9] = next_odd(k[7], k[8]);
        k[10] = next_even::<0x10>(k[8], k[9]);
        k[11] = next_odd(k[9], k[10]);
        k[12] = next_even::<0x20>(k[10], k[11]);
        k[13] = next_odd(k[11], k[12]);
        k[14] = next_even::<0x40>(k[12], k[13]);
        let mut round_keys = [[0u8; BLOCK_SIZE]; ROUNDS + 1];
        for (rk, v) in round_keys.iter_mut().zip(k) {
            // SAFETY: a round key is 16 writable bytes; unaligned store.
            unsafe { _mm_storeu_si128(rk.as_mut_ptr().cast(), v) };
        }
        round_keys
    }

    /// # Safety
    ///
    /// Caller must ensure the `sse2` feature is available.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn load_keys(round_keys: &RoundKeys) -> [__m128i; ROUNDS + 1] {
        // SAFETY: each round key is a 16-byte array and `loadu` has no
        // alignment requirement.
        round_keys.map(|rk| unsafe { _mm_loadu_si128(rk.as_ptr().cast()) })
    }

    /// # Safety
    ///
    /// Caller must ensure the `aes` and `sse2` features are available.
    #[target_feature(enable = "aes,sse2")]
    pub unsafe fn encrypt_block(round_keys: &RoundKeys, block: &mut [u8; BLOCK_SIZE]) {
        let k = load_keys(round_keys);
        // SAFETY: `block` is a 16-byte array; unaligned load/store.
        let mut b = _mm_xor_si128(_mm_loadu_si128(block.as_ptr().cast()), k[0]);
        for rk in &k[1..ROUNDS] {
            b = _mm_aesenc_si128(b, *rk);
        }
        b = _mm_aesenclast_si128(b, k[ROUNDS]);
        _mm_storeu_si128(block.as_mut_ptr().cast(), b);
    }

    /// Encrypts the [`LANES`] counter blocks `nonce ‖ counter + i`. `k_last`
    /// is the final round key, into which the caller may have folded a
    /// constant (`aesenclast` ends with the round-key XOR).
    ///
    /// # Safety
    ///
    /// Caller must ensure the `aes` and `sse2` features are available.
    #[inline]
    #[target_feature(enable = "aes,sse2")]
    unsafe fn keystream_batch(
        k: &[__m128i; ROUNDS + 1],
        k_last: __m128i,
        nonce_be: i64,
        counter: u64,
    ) -> [__m128i; LANES] {
        // A register's low lane is the block's first eight bytes: storing
        // the byte-swapped integers little-endian lays both halves out
        // big-endian. The counter add is a plain u64 add, so it wraps in the
        // low half of the block and cannot carry into the nonce.
        let mut b: [__m128i; LANES] = core::array::from_fn(|i| {
            let ctr_be = counter.wrapping_add(i as u64).swap_bytes() as i64;
            _mm_xor_si128(_mm_set_epi64x(ctr_be, nonce_be), k[0])
        });
        for rk in &k[1..ROUNDS] {
            for lane in &mut b {
                *lane = _mm_aesenc_si128(*lane, *rk);
            }
        }
        for lane in &mut b {
            *lane = _mm_aesenclast_si128(*lane, k_last);
        }
        b
    }

    /// `buf[i] ^= keystream[i] ^ fill` for any `buf` length; see
    /// [`super::Aes256::ctr_xor`].
    ///
    /// # Safety
    ///
    /// Caller must ensure the `aes` and `sse2` features are available.
    #[target_feature(enable = "aes,sse2")]
    pub unsafe fn ctr_xor(
        round_keys: &RoundKeys,
        nonce: u64,
        start_block: u64,
        fill: u8,
        buf: &mut [u8],
    ) {
        const BATCH: usize = LANES * BLOCK_SIZE;
        let k = load_keys(round_keys);
        // keystream ^ fill comes for free from the last round.
        let k_last = _mm_xor_si128(k[ROUNDS], _mm_set1_epi8(fill as i8));
        let nonce_be = nonce.swap_bytes() as i64;
        let mut counter = start_block;

        let mut batches = buf.chunks_exact_mut(BATCH);
        for batch in &mut batches {
            let ks = keystream_batch(&k, k_last, nonce_be, counter);
            for (lane, ks) in batch.chunks_exact_mut(BLOCK_SIZE).zip(ks) {
                // SAFETY: `chunks_exact_mut` yields exactly 16 writable
                // bytes per lane; unaligned load/store.
                let p = lane.as_mut_ptr().cast::<__m128i>();
                _mm_storeu_si128(p, _mm_xor_si128(_mm_loadu_si128(p), ks));
            }
            counter = counter.wrapping_add(LANES as u64);
        }

        // Fewer than LANES blocks left, the last possibly partial: one more
        // batch into a stack buffer, of which only `tail.len()` bytes are
        // used.
        let tail = batches.into_remainder();
        if !tail.is_empty() {
            let ks = keystream_batch(&k, k_last, nonce_be, counter);
            let mut bytes = [0u8; BATCH];
            for (lane, ks) in bytes.chunks_exact_mut(BLOCK_SIZE).zip(ks) {
                // SAFETY: as above — 16 writable bytes per lane.
                _mm_storeu_si128(lane.as_mut_ptr().cast(), ks);
            }
            for (b, k) in tail.iter_mut().zip(bytes) {
                *b ^= k;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod vaes {
    //! x86_64 VAES on 512-bit registers. One `vaesenc` runs a round on the
    //! four blocks a zmm register holds (Drucker, Gueron & Krasnov, "Making
    //! AES Great Again: The Forthcoming Vectorized AES Instruction", ITNG
    //! 2019), so a step of sixteen CTR blocks in four registers takes 56
    //! round instructions where AES-NI takes 224.
    //!
    //! The counter blocks stay big-endian. While a step's sixteen counters
    //! share all but their last byte (fifteen steps in sixteen), a step is
    //! one broadcast of its first block plus a constant per register that
    //! adds 0..=15 to that byte, which cannot carry. A step whose last byte
    //! wraps builds its blocks one by one, the 64-bit counter wrapping in
    //! its own half and never carrying into the nonce.

    use super::{ni, RoundKeys, BLOCK_SIZE, ROUNDS};
    use core::arch::x86_64::*;

    /// Registers in flight per step.
    const REGS: usize = 4;
    /// Blocks per register.
    const PER_REG: usize = 4;
    /// Blocks per step.
    const BLOCKS: u64 = (REGS * PER_REG) as u64;
    /// Keystream bytes per step.
    const STEP: usize = BLOCKS as usize * BLOCK_SIZE;

    /// The step's sixteen counter blocks `nonce ‖ counter + i`, four to a
    /// register. `nonce_be` is the nonce's big-endian bytes as a
    /// little-endian word; `bumps[r]` adds `4r + j` to the last byte of
    /// block `j` of register `r`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn counter_blocks(nonce_be: i64, counter: u64, bumps: &[__m512i; REGS]) -> [__m512i; REGS] {
        let mut blocks = [_mm512_setzero_si512(); REGS];
        if counter & 0xff <= 0xff - (BLOCKS - 1) {
            let first = _mm_set_epi64x(counter.swap_bytes() as i64, nonce_be);
            let first = _mm512_broadcast_i32x4(first);
            for (b, bump) in blocks.iter_mut().zip(bumps) {
                *b = _mm512_add_epi32(first, *bump);
            }
        } else {
            for (r, b) in blocks.iter_mut().enumerate() {
                let at = |j: usize| {
                    let i = (r * PER_REG + j) as u64;
                    counter.wrapping_add(i).swap_bytes() as i64
                };
                *b = _mm512_set_epi64(
                    at(3),
                    nonce_be,
                    at(2),
                    nonce_be,
                    at(1),
                    nonce_be,
                    at(0),
                    nonce_be,
                );
            }
        }
        blocks
    }

    /// `buf[i] ^= keystream[i] ^ fill` for any `buf` length; see
    /// [`super::Aes256::ctr_xor`]. Whole steps of sixteen blocks run here;
    /// the last `buf.len() % 256` bytes go to the AES-NI kernel at the
    /// counter the steps reached.
    ///
    /// # Safety
    ///
    /// Caller must ensure the `aes`, `sse2`, `avx512f` and `vaes` features
    /// are available.
    #[target_feature(enable = "aes,sse2,avx512f,vaes")]
    pub unsafe fn ctr_xor(
        round_keys: &RoundKeys,
        nonce: u64,
        start_block: u64,
        fill: u8,
        buf: &mut [u8],
    ) {
        let (body, tail) = buf.split_at_mut(buf.len() / STEP * STEP);
        let mut k = [_mm512_setzero_si512(); ROUNDS + 1];
        for (v, rk) in k.iter_mut().zip(round_keys) {
            // SAFETY: a round key is 16 bytes; unaligned load.
            *v = _mm512_broadcast_i32x4(unsafe { _mm_loadu_si128(rk.as_ptr().cast()) });
        }
        // keystream ^ fill comes for free from the last round.
        let k_last = _mm512_xor_si512(k[ROUNDS], _mm512_set1_epi8(fill as i8));
        let nonce_be = nonce.swap_bytes() as i64;
        // The last byte of a block is the top byte of its fourth 32-bit word.
        let mut bumps = [_mm512_setzero_si512(); REGS];
        for (r, bump) in bumps.iter_mut().enumerate() {
            let at = |j: usize| ((r * PER_REG + j) as i32) << 24;
            *bump = _mm512_set_epi32(
                at(3),
                0,
                0,
                0,
                at(2),
                0,
                0,
                0,
                at(1),
                0,
                0,
                0,
                at(0),
                0,
                0,
                0,
            );
        }

        let mut counter = start_block;
        for chunk in body.chunks_exact_mut(STEP) {
            let mut b = counter_blocks(nonce_be, counter, &bumps);
            counter = counter.wrapping_add(BLOCKS);
            for lane in &mut b {
                *lane = _mm512_xor_si512(*lane, k[0]);
            }
            for rk in &k[1..ROUNDS] {
                for lane in &mut b {
                    *lane = _mm512_aesenc_epi128(*lane, *rk);
                }
            }
            for (bytes, lane) in chunk.chunks_exact_mut(STEP / REGS).zip(b) {
                let p = bytes.as_mut_ptr();
                // SAFETY: `chunks_exact_mut` yields exactly 64 writable
                // bytes per register; unaligned load/store. The last round
                // ends with its key XOR, so folding the data into the key
                // XORs it into the keystream.
                unsafe {
                    let data = _mm512_xor_si512(_mm512_loadu_si512(p.cast()), k_last);
                    _mm512_storeu_si512(p.cast(), _mm512_aesenclast_epi128(lane, data));
                }
            }
        }
        if !tail.is_empty() {
            // SAFETY: the caller guarantees `aes` and `sse2` too.
            unsafe { ni::ctr_xor(round_keys, nonce, counter, fill, tail) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// FIPS 197 Appendix C.3 AES-256 example vector.
    #[test]
    fn fips197_appendix_c3() {
        let key_bytes =
            parse_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
        let key: [u8; 32] = key_bytes.try_into().unwrap();
        let aes = Aes256::new(&key);
        let pt: [u8; 16] = parse_hex("00112233445566778899aabbccddeeff")
            .try_into()
            .unwrap();
        let ct = aes.encrypt(&pt);
        assert_eq!(ct.to_vec(), parse_hex("8ea2b7ca516745bfeafc49904b496089"));
    }

    /// NIST SP 800-38A F.1.5 (ECB-AES256.Encrypt) vectors.
    #[test]
    fn sp800_38a_ecb_vectors() {
        let key: [u8; 32] =
            parse_hex("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4")
                .try_into()
                .unwrap();
        let aes = Aes256::new(&key);
        let cases = [
            (
                "6bc1bee22e409f96e93d7e117393172a",
                "f3eed1bdb5d2a03c064b5a7e3db181f8",
            ),
            (
                "ae2d8a571e03ac9c9eb76fac45af8e51",
                "591ccb10d410ed26dc5ba74a31362870",
            ),
            (
                "30c81c46a35ce411e5fbc1191a0a52ef",
                "b6ed21b99ca6f4f9f153e7b1beafed1d",
            ),
            (
                "f69f2445df4f9b17ad2b417be66c3710",
                "23304b7a39f9f3ff067d8d8f9e24ecc7",
            ),
        ];
        for (pt_hex, ct_hex) in cases {
            let pt: [u8; 16] = parse_hex(pt_hex).try_into().unwrap();
            let ct = aes.encrypt(&pt);
            assert_eq!(ct.to_vec(), parse_hex(ct_hex));
        }
    }

    // ShiftRows rotates row r by r of 4 positions and the MixColumns
    // polynomial has order 4 (FIPS 197's inverse is its cube), so four
    // applications of either step return the state.
    #[test]
    fn shift_rows_round_trips() {
        let original: [u8; 16] = std::array::from_fn(|i| i as u8);
        let mut state = original;
        shift_rows(&mut state);
        assert_ne!(state, original);
        (0..3).for_each(|_| shift_rows(&mut state));
        assert_eq!(state, original);
    }

    #[test]
    fn mix_columns_round_trips() {
        let original: [u8; 16] = std::array::from_fn(|i| i as u8);
        let mut state = original;
        mix_columns(&mut state);
        assert_ne!(state, original);
        (0..3).for_each(|_| mix_columns(&mut state));
        assert_eq!(state, original);
    }

    #[test]
    fn different_keys_produce_different_ciphertexts() {
        let pt = [0u8; 16];
        let k1 = [0u8; 32];
        let mut k2 = [0u8; 32];
        k2[31] = 1;
        assert_ne!(Aes256::new(&k1).encrypt(&pt), Aes256::new(&k2).encrypt(&pt));
    }
}
