//! Bulk ("region") operations over byte slices interpreted as GF(2^8) vectors.
//!
//! Reed-Solomon encoding, IDA dispersal, and the XOR steps of the AONT
//! package construction all reduce to three primitives over large buffers:
//! `dst ^= src`, `dst = c * src`, and `dst ^= c * src`. These are the Rust
//! equivalents of GF-Complete's region operations.
//!
//! # Kernel dispatch
//!
//! Each primitive has a portable scalar implementation (the 64 KiB
//! multiplication table, one lookup per byte) and split-table SIMD variants:
//! the product `c * x` is decomposed into the products of the low and high
//! nibbles of `x`, each read from a 16-entry table with a byte-shuffle
//! instruction (`pshufb` on SSSE3/AVX2, `tbl` on NEON) — 16 or 32 products
//! per instruction instead of one per load. This is GF-Complete's
//! `SPLIT_TABLE(8, 4)` scheme.
//!
//! The fastest backend the CPU supports is detected once per process (see
//! [`Backend::active`]); setting the environment variable
//! `CDSTORE_FORCE_SCALAR` (to anything but `0`) before first use forces the
//! scalar fallback, which is how CI pins golden vectors under both dispatch
//! modes. Every backend produces bit-identical output; the differential
//! suite in `tests/simd_differential.rs` proves it for all `(c, length,
//! alignment)` combinations.

use std::sync::OnceLock;

use crate::tables::MUL;

/// A region-kernel implementation selected by runtime CPU-feature detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable table-lookup loops; always available.
    Scalar,
    /// 128-bit split-table shuffle kernels (x86 `pshufb`).
    Ssse3,
    /// 256-bit split-table shuffle kernels (x86 `vpshufb`).
    Avx2,
    /// 128-bit split-table shuffle kernels (AArch64 `tbl`).
    Neon,
}

static ACTIVE: OnceLock<Backend> = OnceLock::new();

fn force_scalar() -> bool {
    std::env::var_os("CDSTORE_FORCE_SCALAR").is_some_and(|v| v != "0")
}

impl Backend {
    /// Every backend this binary can run on the current CPU, scalar first.
    /// Used by the differential test suite to compare all of them pairwise.
    pub fn available() -> Vec<Backend> {
        let mut v = vec![Backend::Scalar];
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        {
            if is_x86_feature_detected!("ssse3") {
                v.push(Backend::Ssse3);
            }
            if is_x86_feature_detected!("avx2") {
                v.push(Backend::Avx2);
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            if std::arch::is_aarch64_feature_detected!("neon") {
                v.push(Backend::Neon);
            }
        }
        v
    }

    /// The backend the free functions dispatch to, chosen once per process:
    /// the last (fastest) entry of [`Backend::available`], unless
    /// `CDSTORE_FORCE_SCALAR` is set at first use.
    pub fn active() -> Backend {
        *ACTIVE.get_or_init(|| {
            if force_scalar() {
                Backend::Scalar
            } else {
                *Self::available().last().expect("scalar always available")
            }
        })
    }

    /// `self`, once asserted to run on this CPU: the SIMD arms rely on it.
    fn checked(self) -> Self {
        static DETECTED: OnceLock<Vec<Backend>> = OnceLock::new();
        let runs = DETECTED.get_or_init(Self::available).contains(&self);
        assert!(runs, "region backend {} is not on this CPU", self.name());
        self
    }

    /// Human-readable backend name (used by benches and logs).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Ssse3 => "ssse3",
            Backend::Avx2 => "avx2",
            Backend::Neon => "neon",
        }
    }

    /// `dst[i] ^= src[i]` with this backend.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or this CPU lacks the backend.
    #[allow(unsafe_code)] // SIMD arms run only on a `checked` backend
    pub fn xor_into(self, dst: &mut [u8], src: &[u8]) {
        assert_eq!(dst.len(), src.len(), "region length mismatch");
        match self.checked() {
            Backend::Scalar => xor_into_scalar(dst, src),
            #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
            // SAFETY: `checked` asserted the CPU runs this backend, and the
            // `assert_eq!` above that the slices are the same length.
            Backend::Ssse3 => unsafe { x86::xor_sse2(dst, src) },
            #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
            Backend::Avx2 => unsafe { x86::xor_avx2(dst, src) },
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => unsafe { neon::xor_neon(dst, src) },
            #[allow(unreachable_patterns)]
            _ => xor_into_scalar(dst, src),
        }
    }

    /// `dst[i] = c * src[i]` with this backend.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or this CPU lacks the backend.
    #[allow(unsafe_code)] // SIMD arms run only on a `checked` backend
    pub fn mul_into(self, dst: &mut [u8], src: &[u8], c: u8) {
        assert_eq!(dst.len(), src.len(), "region length mismatch");
        match c {
            0 => dst.fill(0),
            1 => dst.copy_from_slice(src),
            _ => match self.checked() {
                Backend::Scalar => mul_scalar::<false>(dst, src, c),
                #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
                // SAFETY: `checked` asserted the CPU runs this backend; the
                // lengths are equal (asserted) and `c` is not 0 or 1 (matched).
                Backend::Ssse3 => unsafe { x86::mul_ssse3::<false>(dst, src, c) },
                #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
                Backend::Avx2 => unsafe { x86::mul_avx2::<false>(dst, src, c) },
                #[cfg(target_arch = "aarch64")]
                Backend::Neon => unsafe { neon::mul_neon::<false>(dst, src, c) },
                #[allow(unreachable_patterns)]
                _ => mul_scalar::<false>(dst, src, c),
            },
        }
    }

    /// `dst[i] ^= c * src[i]` with this backend.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or this CPU lacks the backend.
    #[allow(unsafe_code)] // SIMD arms run only on a `checked` backend
    pub fn mul_acc(self, dst: &mut [u8], src: &[u8], c: u8) {
        assert_eq!(dst.len(), src.len(), "region length mismatch");
        match c {
            0 => {}
            1 => self.xor_into(dst, src),
            _ => match self.checked() {
                Backend::Scalar => mul_scalar::<true>(dst, src, c),
                #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
                // SAFETY: `checked` asserted the CPU runs this backend; the
                // lengths are equal (asserted) and `c` is not 0 or 1 (matched).
                Backend::Ssse3 => unsafe { x86::mul_ssse3::<true>(dst, src, c) },
                #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
                Backend::Avx2 => unsafe { x86::mul_avx2::<true>(dst, src, c) },
                #[cfg(target_arch = "aarch64")]
                Backend::Neon => unsafe { neon::mul_neon::<true>(dst, src, c) },
                #[allow(unreachable_patterns)]
                _ => mul_scalar::<true>(dst, src, c),
            },
        }
    }
}

/// XORs `src` into `dst` element-wise: `dst[i] ^= src[i]`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn xor_into(dst: &mut [u8], src: &[u8]) {
    Backend::active().xor_into(dst, src);
}

/// Returns the element-wise XOR of two equally sized slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn xor(a: &[u8], b: &[u8]) -> Vec<u8> {
    assert_eq!(a.len(), b.len(), "region length mismatch");
    let mut out = a.to_vec();
    xor_into(&mut out, b);
    out
}

/// Multiplies every byte of `src` by the constant `c`, writing into `dst`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn mul_into(dst: &mut [u8], src: &[u8], c: u8) {
    Backend::active().mul_into(dst, src, c);
}

/// Returns `c * src` as a new vector.
pub fn mul(src: &[u8], c: u8) -> Vec<u8> {
    let mut out = vec![0u8; src.len()];
    mul_into(&mut out, src, c);
    out
}

/// Multiplies every byte of `src` by `c` and XORs the product into `dst`:
/// `dst[i] ^= c * src[i]`. This is the multiply-accumulate kernel of
/// matrix-vector products over GF(2^8).
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn mul_acc(dst: &mut [u8], src: &[u8], c: u8) {
    Backend::active().mul_acc(dst, src, c);
}

fn xor_into_scalar(dst: &mut [u8], src: &[u8]) {
    // Process 8 bytes at a time through u64 words for throughput; the
    // remainder falls back to the byte loop.
    let chunks = dst.len() / 8;
    let (dst_words, dst_tail) = dst.split_at_mut(chunks * 8);
    let (src_words, src_tail) = src.split_at(chunks * 8);
    for (d, s) in dst_words.chunks_exact_mut(8).zip(src_words.chunks_exact(8)) {
        let dv = u64::from_ne_bytes(d.try_into().expect("chunk of 8"));
        let sv = u64::from_ne_bytes(s.try_into().expect("chunk of 8"));
        d.copy_from_slice(&(dv ^ sv).to_ne_bytes());
    }
    for (d, s) in dst_tail.iter_mut().zip(src_tail) {
        *d ^= *s;
    }
}

/// Scalar multiply (`ACC = false`) / multiply-accumulate (`ACC = true`)
/// through one row of the 64 KiB table. `c` is neither 0 nor 1 here.
fn mul_scalar<const ACC: bool>(dst: &mut [u8], src: &[u8], c: u8) {
    let row = &MUL[c as usize];
    for (d, &s) in dst.iter_mut().zip(src) {
        if ACC {
            *d ^= row[s as usize];
        } else {
            *d = row[s as usize];
        }
    }
}

/// The two 16-entry split tables for multiplier `c`: products of the low
/// nibble (`c * i`) and of the high nibble (`c * (i << 4)`), `i in 0..16`.
/// `c * x = lo[x & 0xf] ^ hi[x >> 4]` by linearity of GF(2^8) multiplication.
fn nibble_tables(c: u8) -> ([u8; 16], [u8; 16]) {
    let row = &MUL[c as usize];
    let mut lo = [0u8; 16];
    let mut hi = [0u8; 16];
    for i in 0..16 {
        lo[i] = row[i];
        hi[i] = row[i << 4];
    }
    (lo, hi)
}

#[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
#[allow(unsafe_code)]
mod x86 {
    //! x86 split-table kernels. All loads/stores are unaligned
    //! (`loadu`/`storeu`), so callers never need aligned buffers; the scalar
    //! tail handles the last `len % width` bytes.

    use super::{mul_scalar, nibble_tables};
    #[cfg(target_arch = "x86")]
    use core::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use core::arch::x86_64::*;

    /// # Safety
    ///
    /// Caller must ensure SSE2 is available (implied by SSSE3 detection; SSE2
    /// is baseline on x86_64). Slices must have equal lengths.
    #[target_feature(enable = "sse2")]
    pub unsafe fn xor_sse2(dst: &mut [u8], src: &[u8]) {
        let len = dst.len();
        let vec_len = len - len % 16;
        let mut i = 0;
        while i < vec_len {
            let d = _mm_loadu_si128(dst.as_ptr().add(i).cast());
            let s = _mm_loadu_si128(src.as_ptr().add(i).cast());
            _mm_storeu_si128(dst.as_mut_ptr().add(i).cast(), _mm_xor_si128(d, s));
            i += 16;
        }
        for j in vec_len..len {
            dst[j] ^= src[j];
        }
    }

    /// # Safety
    ///
    /// Caller must ensure AVX2 is available. Slices must have equal lengths.
    #[target_feature(enable = "avx2")]
    pub unsafe fn xor_avx2(dst: &mut [u8], src: &[u8]) {
        let len = dst.len();
        let vec_len = len - len % 32;
        let mut i = 0;
        while i < vec_len {
            let d = _mm256_loadu_si256(dst.as_ptr().add(i).cast());
            let s = _mm256_loadu_si256(src.as_ptr().add(i).cast());
            _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), _mm256_xor_si256(d, s));
            i += 32;
        }
        for j in vec_len..len {
            dst[j] ^= src[j];
        }
    }

    /// Split-table multiply (`ACC = false`) / multiply-accumulate
    /// (`ACC = true`), 16 bytes per step.
    ///
    /// # Safety
    ///
    /// Caller must ensure SSSE3 is available. Slices must have equal lengths;
    /// `c` must be neither 0 nor 1 (handled by the dispatcher).
    #[target_feature(enable = "ssse3")]
    pub unsafe fn mul_ssse3<const ACC: bool>(dst: &mut [u8], src: &[u8], c: u8) {
        let (lo_t, hi_t) = nibble_tables(c);
        let lo_tbl = _mm_loadu_si128(lo_t.as_ptr().cast());
        let hi_tbl = _mm_loadu_si128(hi_t.as_ptr().cast());
        let mask = _mm_set1_epi8(0x0f);
        let len = dst.len();
        let vec_len = len - len % 16;
        let mut i = 0;
        while i < vec_len {
            let v = _mm_loadu_si128(src.as_ptr().add(i).cast());
            let lo = _mm_and_si128(v, mask);
            let hi = _mm_and_si128(_mm_srli_epi64(v, 4), mask);
            let mut prod =
                _mm_xor_si128(_mm_shuffle_epi8(lo_tbl, lo), _mm_shuffle_epi8(hi_tbl, hi));
            if ACC {
                prod = _mm_xor_si128(prod, _mm_loadu_si128(dst.as_ptr().add(i).cast()));
            }
            _mm_storeu_si128(dst.as_mut_ptr().add(i).cast(), prod);
            i += 16;
        }
        mul_scalar::<ACC>(&mut dst[vec_len..], &src[vec_len..], c);
    }

    /// Split-table multiply / multiply-accumulate, 32 bytes per step.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available. Slices must have equal lengths;
    /// `c` must be neither 0 nor 1 (handled by the dispatcher).
    #[target_feature(enable = "avx2")]
    pub unsafe fn mul_avx2<const ACC: bool>(dst: &mut [u8], src: &[u8], c: u8) {
        let (lo_t, hi_t) = nibble_tables(c);
        let lo_tbl = _mm256_broadcastsi128_si256(_mm_loadu_si128(lo_t.as_ptr().cast()));
        let hi_tbl = _mm256_broadcastsi128_si256(_mm_loadu_si128(hi_t.as_ptr().cast()));
        let mask = _mm256_set1_epi8(0x0f);
        let len = dst.len();
        let vec_len = len - len % 32;
        let mut i = 0;
        while i < vec_len {
            let v = _mm256_loadu_si256(src.as_ptr().add(i).cast());
            let lo = _mm256_and_si256(v, mask);
            let hi = _mm256_and_si256(_mm256_srli_epi64(v, 4), mask);
            let mut prod = _mm256_xor_si256(
                _mm256_shuffle_epi8(lo_tbl, lo),
                _mm256_shuffle_epi8(hi_tbl, hi),
            );
            if ACC {
                prod = _mm256_xor_si256(prod, _mm256_loadu_si256(dst.as_ptr().add(i).cast()));
            }
            _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), prod);
            i += 32;
        }
        mul_scalar::<ACC>(&mut dst[vec_len..], &src[vec_len..], c);
    }
}

#[cfg(target_arch = "aarch64")]
#[allow(unsafe_code)]
mod neon {
    //! AArch64 split-table kernels (`tbl` is NEON's `pshufb`; out-of-range
    //! indices already yield 0, and our indices are masked to 0..16 anyway).

    use super::{mul_scalar, nibble_tables};
    use core::arch::aarch64::*;

    /// # Safety
    ///
    /// Caller must ensure NEON is available (mandatory on AArch64, still
    /// detected). Slices must have equal lengths.
    #[target_feature(enable = "neon")]
    pub unsafe fn xor_neon(dst: &mut [u8], src: &[u8]) {
        let len = dst.len();
        let vec_len = len - len % 16;
        let mut i = 0;
        while i < vec_len {
            let d = vld1q_u8(dst.as_ptr().add(i));
            let s = vld1q_u8(src.as_ptr().add(i));
            vst1q_u8(dst.as_mut_ptr().add(i), veorq_u8(d, s));
            i += 16;
        }
        for j in vec_len..len {
            dst[j] ^= src[j];
        }
    }

    /// Split-table multiply / multiply-accumulate, 16 bytes per step.
    ///
    /// # Safety
    ///
    /// Caller must ensure NEON is available. Slices must have equal lengths;
    /// `c` must be neither 0 nor 1 (handled by the dispatcher).
    #[target_feature(enable = "neon")]
    pub unsafe fn mul_neon<const ACC: bool>(dst: &mut [u8], src: &[u8], c: u8) {
        let (lo_t, hi_t) = nibble_tables(c);
        let lo_tbl = vld1q_u8(lo_t.as_ptr());
        let hi_tbl = vld1q_u8(hi_t.as_ptr());
        let mask = vdupq_n_u8(0x0f);
        let len = dst.len();
        let vec_len = len - len % 16;
        let mut i = 0;
        while i < vec_len {
            let v = vld1q_u8(src.as_ptr().add(i));
            let lo = vandq_u8(v, mask);
            let hi = vshrq_n_u8(v, 4);
            let mut prod = veorq_u8(vqtbl1q_u8(lo_tbl, lo), vqtbl1q_u8(hi_tbl, hi));
            if ACC {
                prod = veorq_u8(prod, vld1q_u8(dst.as_ptr().add(i)));
            }
            vst1q_u8(dst.as_mut_ptr().add(i), prod);
            i += 16;
        }
        mul_scalar::<ACC>(&mut dst[vec_len..], &src[vec_len..], c);
    }
}

/// Multiplies a dense `rows x cols` GF(2^8) matrix (row-major in `matrix`) by
/// `cols` equally sized data fragments, writing the `rows` output fragments
/// into caller-provided buffers. Every output is fully overwritten.
///
/// This is the common kernel behind Reed-Solomon encoding and IDA dispersal:
/// each output fragment `i` is `sum_j matrix[i][j] * inputs[j]`.
///
/// # Panics
///
/// Panics if `matrix.len() != rows * cols`, if `inputs.len() != cols`, if
/// `outputs.len() != rows`, or if the input and output fragments are not all
/// the same length.
pub fn matrix_apply_into(
    matrix: &[u8],
    rows: usize,
    cols: usize,
    inputs: &[&[u8]],
    outputs: &mut [&mut [u8]],
) {
    assert_eq!(matrix.len(), rows * cols, "matrix shape mismatch");
    assert_eq!(inputs.len(), cols, "input fragment count mismatch");
    assert_eq!(outputs.len(), rows, "output fragment count mismatch");
    let frag_len = inputs
        .first()
        .map_or_else(|| outputs.first().map_or(0, |f| f.len()), |f| f.len());
    assert!(
        inputs.iter().all(|f| f.len() == frag_len),
        "input fragments must have equal length"
    );
    assert!(
        outputs.iter().all(|f| f.len() == frag_len),
        "output fragments must match the input length"
    );
    let backend = Backend::active();
    for (i, out) in outputs.iter_mut().enumerate() {
        // First column overwrites (saving a zeroing pass), the rest
        // accumulate.
        match inputs.first() {
            None => out.fill(0),
            Some(first) => backend.mul_into(out, first, matrix[i * cols]),
        }
        for (j, input) in inputs.iter().enumerate().skip(1) {
            backend.mul_acc(out, input, matrix[i * cols + j]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables;
    use proptest::prelude::*;

    #[test]
    fn xor_into_handles_unaligned_lengths() {
        for len in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1000] {
            let a: Vec<u8> = (0..len).map(|i| (i * 7 + 13) as u8).collect();
            let b: Vec<u8> = (0..len).map(|i| (i * 31 + 5) as u8).collect();
            let mut d = a.clone();
            xor_into(&mut d, &b);
            for i in 0..len {
                assert_eq!(d[i], a[i] ^ b[i]);
            }
        }
    }

    #[test]
    fn xor_is_involutive() {
        let a: Vec<u8> = (0..257).map(|i| (i % 251) as u8).collect();
        let b: Vec<u8> = (0..257).map(|i| (i % 241) as u8).collect();
        let once = xor(&a, &b);
        let twice = xor(&once, &b);
        assert_eq!(twice, a);
    }

    #[test]
    fn mul_by_zero_and_one() {
        let src: Vec<u8> = (0..=255).collect();
        assert!(mul(&src, 0).iter().all(|&x| x == 0));
        assert_eq!(mul(&src, 1), src);
    }

    #[test]
    fn mul_into_matches_scalar_mul() {
        let src: Vec<u8> = (0..=255).collect();
        for c in [2u8, 3, 0x1d, 0xff] {
            let out = mul(&src, c);
            for (i, &o) in out.iter().enumerate() {
                assert_eq!(o, tables::mul(src[i], c));
            }
        }
    }

    #[test]
    fn mul_acc_accumulates() {
        let src: Vec<u8> = (0..64).map(|i| i as u8).collect();
        let mut dst = vec![0xaau8; 64];
        let before = dst.clone();
        mul_acc(&mut dst, &src, 5);
        for i in 0..64 {
            assert_eq!(dst[i], before[i] ^ tables::mul(src[i], 5));
        }
    }

    #[test]
    #[should_panic(expected = "region length mismatch")]
    fn length_mismatch_panics() {
        let mut dst = vec![0u8; 4];
        xor_into(&mut dst, &[0u8; 5]);
    }

    /// A backend handed in by the caller must run on this CPU before any
    /// SIMD arm is entered (NEON never does on x86).
    #[test]
    #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
    #[should_panic(expected = "not on this CPU")]
    fn a_backend_this_cpu_lacks_is_refused() {
        Backend::Neon.mul_acc(&mut [0u8; 64], &[1u8; 64], 7);
    }

    #[test]
    fn scalar_backend_is_always_available() {
        let backends = Backend::available();
        assert_eq!(backends[0], Backend::Scalar);
        assert!(backends.contains(&Backend::active()));
    }

    #[test]
    fn every_backend_agrees_with_scalar_on_all_multipliers() {
        // Full multiplier sweep at lengths straddling every vector width,
        // per backend; the out-of-crate differential suite adds alignment
        // and proptest coverage on top.
        let src: Vec<u8> = (0..200u32).map(|i| (i * 37 + 11) as u8).collect();
        for backend in Backend::available() {
            for c in 0..=255u8 {
                for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 63, 64, 65, 200] {
                    let mut got = vec![0x5cu8; len];
                    let mut expect = vec![0u8; len];
                    backend.mul_into(&mut got, &src[..len], c);
                    mul_scalar_ref(&mut expect, &src[..len], c, false);
                    assert_eq!(got, expect, "mul_into {} c={c} len={len}", backend.name());

                    let mut got_acc = vec![0x5cu8; len];
                    let mut expect_acc = vec![0x5cu8; len];
                    backend.mul_acc(&mut got_acc, &src[..len], c);
                    mul_scalar_ref(&mut expect_acc, &src[..len], c, true);
                    assert_eq!(
                        got_acc,
                        expect_acc,
                        "mul_acc {} c={c} len={len}",
                        backend.name()
                    );
                }
            }
        }
    }

    /// Independent reference: per-byte table multiply, no region kernels.
    fn mul_scalar_ref(dst: &mut [u8], src: &[u8], c: u8, acc: bool) {
        for (d, &s) in dst.iter_mut().zip(src) {
            let p = tables::mul(s, c);
            if acc {
                *d ^= p;
            } else {
                *d = p;
            }
        }
    }

    /// Independent reference for [`matrix_apply_into`]: per-byte table
    /// multiply and XOR ([`mul_scalar_ref`]), no region kernels.
    fn matrix_apply_reference(matrix: &[u8], rows: usize, inputs: &[&[u8]]) -> Vec<Vec<u8>> {
        let mut outputs = vec![vec![0u8; inputs[0].len()]; rows];
        for (row, out) in matrix.chunks(inputs.len()).zip(&mut outputs) {
            for (&c, input) in row.iter().zip(inputs) {
                mul_scalar_ref(out, input, c, true);
            }
        }
        outputs
    }

    /// Runs [`matrix_apply_into`] over dirty output buffers, which it must
    /// fully overwrite rather than accumulate into.
    fn apply(matrix: &[u8], rows: usize, inputs: &[&[u8]]) -> Vec<Vec<u8>> {
        let frag_len = inputs.first().map_or(0, |f| f.len());
        let mut outputs = vec![vec![0xeeu8; frag_len]; rows];
        let mut out_refs: Vec<&mut [u8]> = outputs.iter_mut().map(|o| o.as_mut_slice()).collect();
        matrix_apply_into(matrix, rows, inputs.len(), inputs, &mut out_refs);
        outputs
    }

    #[test]
    fn matrix_apply_identity() {
        // 2x2 identity matrix maps inputs to themselves.
        let m = [1u8, 0, 0, 1];
        let a = vec![1u8, 2, 3, 4];
        let b = vec![5u8, 6, 7, 8];
        assert_eq!(apply(&m, 2, &[&a, &b]), vec![a, b]);
    }

    #[test]
    fn matrix_apply_small_known_case() {
        // [[1,1],[1,2]] * [a, b] = [a^b, a ^ 2*b]
        let m = [1u8, 1, 1, 2];
        let a = vec![0x10u8, 0x20];
        let b = vec![0x01u8, 0x80];
        let out = apply(&m, 2, &[&a, &b]);
        assert_eq!(out[0], vec![0x11, 0xa0]);
        assert_eq!(
            out[1],
            vec![0x10 ^ tables::mul(0x01, 2), 0x20 ^ tables::mul(0x80, 2)]
        );
    }

    #[test]
    fn matrix_apply_into_matches_matrix_apply_and_overwrites() {
        let m = [3u8, 7, 0, 1, 2, 9];
        let a: Vec<u8> = (0..33).map(|i| (i * 5 + 1) as u8).collect();
        let b: Vec<u8> = (0..33).map(|i| (i * 11 + 2) as u8).collect();
        let c: Vec<u8> = (0..33).map(|i| (i * 17 + 3) as u8).collect();
        // 33 bytes: one vector body plus a scalar tail on every backend.
        let inputs: [&[u8]; 3] = [&a, &b, &c];
        assert_eq!(
            apply(&m, 2, &inputs),
            matrix_apply_reference(&m, 2, &inputs)
        );
    }

    #[test]
    fn matrix_apply_into_zero_columns_zeroes_outputs() {
        let mut o0 = vec![0xffu8; 4];
        matrix_apply_into(&[], 1, 0, &[], &mut [&mut o0]);
        assert_eq!(o0, vec![0u8; 4]);
    }

    #[test]
    #[should_panic(expected = "output fragment count mismatch")]
    fn matrix_apply_into_wrong_output_count_panics() {
        let a = [1u8, 2];
        matrix_apply_into(&[1u8, 1], 2, 1, &[&a], &mut [&mut [0u8; 2][..]]);
    }

    proptest! {
        #[test]
        fn mul_acc_is_mul_then_xor(src in proptest::collection::vec(any::<u8>(), 0..256),
                                   dst in proptest::collection::vec(any::<u8>(), 0..256),
                                   c: u8) {
            let len = src.len().min(dst.len());
            let src = &src[..len];
            let mut d1 = dst[..len].to_vec();
            mul_acc(&mut d1, src, c);
            let mut d2 = dst[..len].to_vec();
            let prod = mul(src, c);
            xor_into(&mut d2, &prod);
            prop_assert_eq!(d1, d2);
        }

        #[test]
        fn mul_by_constant_is_invertible(src in proptest::collection::vec(any::<u8>(), 0..256),
                                         c in 1u8..=255) {
            let forward = mul(&src, c);
            let inv = tables::inverse(c).unwrap();
            let back = mul(&forward, inv);
            prop_assert_eq!(back, src);
        }

        #[test]
        fn matrix_apply_into_agrees_with_matrix_apply(
            frag_len in 0usize..100,
            rows in 1usize..5,
            cols in 1usize..5,
            seed: u64,
        ) {
            let mut x = seed | 1;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            };
            let matrix: Vec<u8> = (0..rows * cols).map(|_| next()).collect();
            let inputs: Vec<Vec<u8>> = (0..cols)
                .map(|_| (0..frag_len).map(|_| next()).collect())
                .collect();
            let refs: Vec<&[u8]> = inputs.iter().map(|f| f.as_slice()).collect();
            prop_assert_eq!(
                apply(&matrix, rows, &refs),
                matrix_apply_reference(&matrix, rows, &refs)
            );
        }
    }
}
