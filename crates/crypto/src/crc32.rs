//! CRC-32 (IEEE 802.3: polynomial `0x04C11DB7`, reflected, initial value and
//! final XOR `0xFFFFFFFF`) — the one checksum of the workspace.
//!
//! Journal records and checkpoints, index runs and every wire frame carry
//! `crc32(payload)`, so on a networked backup each shipped byte is summed
//! twice (sender and receiver). The check value is
//! `crc32(b"123456789") == 0xCBF43926`.
//!
//! # Kernel dispatch
//!
//! Two implementations behind the detect-once [`Backend`] shape of
//! [`crate::sha256`] and [`crate::aes`] (`CDSTORE_FORCE_SCALAR`, set to
//! anything but `0` before first use, pins the portable one):
//!
//! * **slicing-by-16** — sixteen 256-entry tables, evaluated at compile
//!   time, consume sixteen input bytes per step with sixteen independent
//!   lookups instead of one dependent lookup per byte. Safe code, every
//!   target; also where the other backend sends short inputs and tails.
//! * **PCLMULQDQ folding** (x86_64, `pclmulqdq` + `sse4.1`) — carry-less
//!   multiplication folds four 128-bit lanes 64 bytes forward per step, then
//!   the lanes into one, and a Barrett reduction brings the last 128 bits
//!   down to the 32-bit remainder (Gopal et al., "Fast CRC Computation for
//!   Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009). Its
//!   constants are derived from the polynomial at compile time.
//!
//! `tests/crc32_differential.rs` holds every backend to a table-free,
//! bit-at-a-time reference.

use std::sync::OnceLock;

/// The reflected generator polynomial (bit `i` is the coefficient of
/// `x^(31 - i)`; the `x^32` term is implicit).
const POLY: u32 = 0xedb8_8320;

/// Bytes consumed per step of the portable kernel.
const SLICES: usize = 16;

/// `TABLES[0][b]` is the register after the byte `b` passes through a zero
/// register; `TABLES[k][b]` the same after `k` further zero bytes.
static TABLES: [[u32; 256]; SLICES] = build_tables();

const fn build_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// A CRC-32 implementation selected by runtime CPU detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable slicing-by-16; always available.
    Scalar,
    /// x86_64 carry-less-multiply folding (`pclmulqdq`), 64 bytes per step.
    Pclmul,
}

static ACTIVE: OnceLock<Backend> = OnceLock::new();

impl Backend {
    /// Every backend runnable on this CPU, scalar first (for the
    /// differential test suite).
    pub fn available() -> Vec<Backend> {
        [Backend::Scalar, Backend::Pclmul]
            .into_iter()
            .filter(|b| b.detected())
            .collect()
    }

    /// The backend [`crc32`] uses, chosen once per process: PCLMULQDQ where
    /// detected, unless `CDSTORE_FORCE_SCALAR` is set at first use.
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
            Backend::Pclmul => "pclmulqdq",
        }
    }

    /// Whether this CPU can run the backend (std caches the `cpuid` probe).
    fn detected(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Pclmul => {
                is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
            }
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Pclmul => false,
        }
    }
}

/// CRC-32 of `data` on the process-wide [`Backend::active`].
pub fn crc32(data: &[u8]) -> u32 {
    crc32_with(Backend::active(), data)
}

/// CRC-32 of `data` on an explicit backend (differential tests, benches).
///
/// # Panics
///
/// Panics if `backend` is not in [`Backend::available`] on this CPU.
#[allow(unsafe_code)] // the Pclmul arm runs only after feature detection
pub fn crc32_with(backend: Backend, data: &[u8]) -> u32 {
    assert!(
        backend.detected(),
        "CRC-32 backend {} is not available on this CPU",
        backend.name()
    );
    let register = match backend {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `detected` was just asserted (`pclmulqdq` and `sse4.1`),
        // and the guard establishes the kernel's minimum length.
        Backend::Pclmul if data.len() >= clmul::MIN_LEN => unsafe { clmul::update(!0, data) },
        _ => update_slicing(!0, data),
    };
    !register
}

/// Advances the raw (un-inverted) register over `data`, sixteen bytes a step.
fn update_slicing(mut crc: u32, data: &[u8]) -> u32 {
    let word = |bytes: &[u8]| u32::from_le_bytes(bytes.try_into().expect("four bytes"));
    // The byte entering first has the most zero bytes behind it.
    let lookup = |w: u32, first: usize| {
        TABLES[first][(w & 0xff) as usize]
            ^ TABLES[first - 1][((w >> 8) & 0xff) as usize]
            ^ TABLES[first - 2][((w >> 16) & 0xff) as usize]
            ^ TABLES[first - 3][(w >> 24) as usize]
    };
    let mut steps = data.chunks_exact(SLICES);
    for step in &mut steps {
        crc = lookup(word(&step[0..4]) ^ crc, 15)
            ^ lookup(word(&step[4..8]), 11)
            ^ lookup(word(&step[8..12]), 7)
            ^ lookup(word(&step[12..16]), 3);
    }
    for &byte in steps.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xff) as usize];
    }
    crc
}

/// `x^n mod P` in the reflected representation (bit 31 is `x^0`).
#[cfg(any(target_arch = "x86_64", test))]
const fn x_pow_mod_p(n: u32) -> u32 {
    let mut r = 0x8000_0000u32;
    let mut i = 0;
    while i < n {
        r = if r & 1 != 0 { (r >> 1) ^ POLY } else { r >> 1 };
        i += 1;
    }
    r
}

/// `⌊x^64 / P⌋` (33 bits), reflected: the Barrett constant μ.
#[cfg(any(target_arch = "x86_64", test))]
const fn barrett_mu() -> u64 {
    // Long division over GF(2) in the natural bit order. `P` there is the
    // 33-bit 0x104C11DB7, i.e. `POLY` bit-reversed with the x^32 term added.
    let p: u64 = (1 << 32) | POLY.reverse_bits() as u64;
    // x^64 does not fit a u64: take its top quotient bit by hand.
    let mut rem: u64 = p ^ (1 << 32); // x^32 + P, the part below x^32
    let mut quotient: u64 = 1;
    let mut i = 0;
    while i < 32 {
        rem <<= 1;
        quotient <<= 1;
        if rem & (1 << 32) != 0 {
            rem ^= p;
            quotient |= 1;
        }
        i += 1;
    }
    quotient.reverse_bits() >> 31
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod clmul {
    //! Folding with `pclmulqdq`. A 128-bit lane `A` standing `d` bits ahead
    //! of lane `B` contributes `A · x^d mod P` to it; with the lane split in
    //! two 64-bit halves that is two carry-less multiplications by
    //! precomputed `x^(d ± 32) mod P`. In the reflected bit order a product
    //! comes out one bit low, so every constant is stored shifted left once.

    use super::{barrett_mu, update_slicing, x_pow_mod_p, POLY};
    use core::arch::x86_64::*;

    /// The kernel loads four lanes before it folds: shorter inputs belong to
    /// the table path.
    pub const MIN_LEN: usize = 64;

    const fn fold_by(bits: u32) -> (i64, i64) {
        (
            (x_pow_mod_p(bits + 32) as i64) << 1,
            (x_pow_mod_p(bits - 32) as i64) << 1,
        )
    }
    /// Folds a lane 512 bits (four lanes) forward.
    const FOLD_512: (i64, i64) = fold_by(512);
    /// Folds a lane 128 bits (one lane) forward.
    const FOLD_128: (i64, i64) = fold_by(128);
    /// `x^64 mod P`: folds 32 bits over the 64 that follow.
    const FOLD_64: i64 = (x_pow_mod_p(64) as i64) << 1;
    /// The full 33-bit polynomial.
    const P_X: i64 = ((POLY as i64) << 1) | 1;
    const MU: i64 = barrett_mu() as i64;

    /// `lane` moved forward by the distance `keys` encodes, added to `next`.
    ///
    /// # Safety
    ///
    /// Caller must ensure the `pclmulqdq` and `sse2` features are available.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse2")]
    unsafe fn fold(lane: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let low = _mm_clmulepi64_si128(lane, keys, 0x00);
        let high = _mm_clmulepi64_si128(lane, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, low), high)
    }

    /// # Safety
    ///
    /// Caller must ensure the `sse2` feature is available.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn load(lane: &[u8]) -> __m128i {
        debug_assert_eq!(lane.len(), 16);
        // SAFETY: callers pass 16-byte slices (`chunks_exact(16)`); `loadu`
        // has no alignment requirement.
        unsafe { _mm_loadu_si128(lane.as_ptr().cast()) }
    }

    /// Advances the raw (un-inverted) register `crc` over `data`, which
    /// must hold at least [`MIN_LEN`] bytes (checked: a shorter slice
    /// panics, it is not read past).
    ///
    /// # Safety
    ///
    /// Caller must ensure the `pclmulqdq` and `sse4.1` features are
    /// available.
    #[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
    pub unsafe fn update(crc: u32, data: &[u8]) -> u32 {
        let mut blocks = data.chunks_exact(MIN_LEN);
        let first = blocks.next().expect("caller passes at least MIN_LEN bytes");
        let mut x = [
            load(&first[0..16]),
            load(&first[16..32]),
            load(&first[32..48]),
            load(&first[48..64]),
        ];
        // The register is the remainder of everything before `data`: it
        // lines up with the first four message bytes.
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(crc as i32));

        let k512 = _mm_set_epi64x(FOLD_512.1, FOLD_512.0);
        for block in &mut blocks {
            for (lane, next) in x.iter_mut().zip(block.chunks_exact(16)) {
                *lane = fold(*lane, load(next), k512);
            }
        }

        // Four lanes into one, then one lane at a time over what is left.
        let k128 = _mm_set_epi64x(FOLD_128.1, FOLD_128.0);
        let mut acc = fold(x[0], x[1], k128);
        acc = fold(acc, x[2], k128);
        acc = fold(acc, x[3], k128);
        let mut lanes = blocks.remainder().chunks_exact(16);
        for lane in &mut lanes {
            acc = fold(acc, load(lane), k128);
        }

        // 128 → 96 bits: the low half moves 64 bits forward onto the high.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        acc = _mm_xor_si128(
            _mm_clmulepi64_si128(acc, k128, 0x10),
            _mm_srli_si128(acc, 8),
        );
        // 96 → 64 bits: the low 32 move 32 bits forward.
        acc = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(acc, low32), _mm_set_epi64x(0, FOLD_64), 0x00),
            _mm_srli_si128(acc, 4),
        );
        // Barrett: R mod P = R + ⌊⌊R / x^32⌋ · μ / x^32⌋ · P, on the low words.
        let p_mu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), p_mu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), p_mu, 0x00);
        let folded = _mm_extract_epi32(_mm_xor_si128(acc, t2), 1) as u32;

        // Fewer than 16 bytes left.
        update_slicing(folded, lanes.remainder())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    /// The compile-time derivation against the constants Intel's paper (and
    /// every implementation of it) prints for this polynomial.
    #[test]
    fn folding_constants_match_the_published_ones() {
        let shifted = |n| (x_pow_mod_p(n) as u64) << 1;
        assert_eq!(shifted(4 * 128 + 32), 0x1_5444_2bd4);
        assert_eq!(shifted(4 * 128 - 32), 0x1_c6e4_1596);
        assert_eq!(shifted(128 + 32), 0x1_7519_97d0);
        assert_eq!(shifted(128 - 32), 0x0_ccaa_009e);
        assert_eq!(shifted(64), 0x1_63cd_6124);
        assert_eq!(barrett_mu(), 0x1_f701_1641);
    }
}
