//! Pure-Rust cryptographic primitives used by CDStore's convergent dispersal.
//!
//! The CDStore paper implements its cryptographic operations with OpenSSL:
//! SHA-256 for the convergent hash key and deduplication fingerprints and
//! AES-256 for the AONT mask generator. This crate re-implements those
//! primitives from scratch (verified against the standard FIPS/RFC test
//! vectors) so the whole reproduction is self-contained. Each has a portable
//! implementation and hardware ones (SHA-NI, AES-NI, VAES, PCLMULQDQ) behind a
//! detect-once `Backend`; `CDSTORE_FORCE_SCALAR` pins the portable ones.
//!
//! * [`sha256`] — incremental hash function.
//! * [`aes`] — AES-256 forward block cipher (all that CTR mode needs) and
//!   its multi-block CTR kernel.
//! * [`ctr`] — AES-256 in counter mode, used as the OAEP-style mask
//!   generator `G(h) = E(h, C)` of CAONT-RS.
//! * [`crc32`] — the IEEE CRC-32 that frames journal records, index runs
//!   and wire messages (a checksum, not a cryptographic primitive; it lives
//!   here because this is where the detect-once kernels live).
//! * [`Fingerprint`] — a 32-byte content fingerprint with hex formatting,
//!   the unit of deduplication indexing.
//! * [`os_random`] — OS entropy for the random-key schemes, with no
//!   fallback.
//!
//! # Examples
//!
//! ```
//! use cdstore_crypto::{sha256, Fingerprint};
//!
//! let digest = sha256::hash(b"hello cdstore");
//! let fp = Fingerprint::from_bytes(digest);
//! assert_eq!(fp.as_bytes().len(), 32);
//! ```

// Unsafe is denied crate-wide and re-allowed for three modules and the safe
// functions that dispatch into them: SHA-NI in `sha256` (plus its SSE2 and
// AVX-512 batch lanes), AES-NI and VAES-512 in `aes` and PCLMULQDQ folding
// in `crc32`.
// Their intrinsics carry per-function safety contracts: CPU feature
// detection before dispatch, and the length precondition the caller
// established.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod crc32;
pub mod ctr;
pub mod sha256;

use core::fmt;
use std::fs::File;
use std::io::{self, Read};
use std::sync::OnceLock;

/// A 256-bit content fingerprint (SHA-256 output) identifying a chunk or a
/// share for deduplication.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint([u8; 32]);

impl Fingerprint {
    /// Size of a fingerprint in bytes.
    pub const SIZE: usize = 32;

    /// Computes the fingerprint of a byte buffer (SHA-256).
    pub fn of(data: &[u8]) -> Self {
        Fingerprint(sha256::hash(data))
    }

    /// Computes the fingerprints of many buffers at once through
    /// [`sha256::hash_batch`], whose kernel depends on the batch size (see
    /// [`sha256::BatchKernel::for_batch`]): sixteen AVX-512 lanes
    /// ([`sha256::BatchKernel::X16`]) for 16 or more buffers where they
    /// outrun SHA-NI, else SHA-NI per buffer, else four SSE2 lanes
    /// ([`sha256::BatchKernel::X4`]). Used by the client to fingerprint every share of an
    /// encode group — `n` per secret, up to 64 secrets — in one call; one
    /// secret's `n` shares alone would never fill the lanes.
    pub fn of_batch(datas: &[&[u8]]) -> Vec<Self> {
        sha256::hash_batch(datas)
            .into_iter()
            .map(Fingerprint)
            .collect()
    }

    /// Computes a *tagged* fingerprint: SHA-256 over a domain-separation tag
    /// followed by the data. CDStore servers re-fingerprint incoming shares
    /// with their own tag so a client-supplied fingerprint can never be used
    /// to claim ownership of another user's share (§3.3).
    pub fn tagged(tag: &[u8], data: &[u8]) -> Self {
        let mut hasher = sha256::Sha256::new();
        hasher.update(&(tag.len() as u64).to_be_bytes());
        hasher.update(tag);
        hasher.update(data);
        Fingerprint(hasher.finalize())
    }

    /// [`Fingerprint::tagged`] for every buffer of a batch under one tag,
    /// through [`sha256::hash_batch_prefixed`] with `len ‖ tag` as the
    /// prefix: how a server fingerprints a request's shares.
    pub fn tagged_batch(tag: &[u8], datas: &[&[u8]]) -> Vec<Self> {
        let prefix = [&(tag.len() as u64).to_be_bytes()[..], tag].concat();
        sha256::hash_batch_prefixed(&prefix, datas)
            .into_iter()
            .map(Fingerprint)
            .collect()
    }

    /// Wraps an existing 32-byte digest.
    pub const fn from_bytes(bytes: [u8; 32]) -> Self {
        Fingerprint(bytes)
    }

    /// Returns the raw digest bytes.
    pub const fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Returns the first 8 bytes as a u64, useful as a short hash-table key.
    pub fn short(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("fingerprint is 32 bytes"))
    }

    /// Renders the fingerprint as lowercase hex.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in &self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fingerprint({}...)", &self.to_hex()[..16])
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

impl AsRef<[u8]> for Fingerprint {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Compares two byte slices in constant time (no early exit), returning
/// `true` when they are equal. Used when checking integrity hashes so timing
/// does not leak the position of the first mismatching byte.
pub fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b) {
        acc |= x ^ y;
    }
    acc == 0
}

/// Fills `buf` with OS entropy from `/dev/urandom`, read through one
/// process-wide handle. There is no fallback: if the device cannot be opened
/// or read, the error is returned and `buf` must not be used as key
/// material.
pub fn os_random(buf: &mut [u8]) -> io::Result<()> {
    static URANDOM: OnceLock<File> = OnceLock::new();
    let dev = match URANDOM.get() {
        Some(dev) => dev,
        None => {
            let opened = File::open("/dev/urandom")?;
            URANDOM.get_or_init(|| opened)
        }
    };
    fill_from(dev, buf)
}

/// Fills all of `buf` from `source`, or fails.
fn fill_from(mut source: impl Read, buf: &mut [u8]) -> io::Result<()> {
    source.read_exact(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn os_random_fills_and_differs() {
        let (mut a, mut b) = ([0u8; 32], [0u8; 32]);
        os_random(&mut a).unwrap();
        os_random(&mut b).unwrap();
        assert_ne!(a, [0u8; 32]);
        assert_ne!(a, b);
        os_random(&mut []).unwrap();
    }

    #[test]
    fn fill_from_fails_closed_on_an_empty_or_failing_source() {
        struct Failing;
        impl Read for Failing {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::other("device gone"))
            }
        }
        let mut buf = [0u8; 32];
        assert!(fill_from(io::empty(), &mut buf).is_err());
        assert!(fill_from(Failing, &mut buf).is_err());
        assert_eq!(buf, [0u8; 32], "nothing is filled in, nothing falls back");
        fill_from(&[7u8; 40][..], &mut buf).unwrap();
        assert_eq!(buf, [7u8; 32]);
    }

    #[test]
    fn fingerprint_is_deterministic() {
        let a = Fingerprint::of(b"same data");
        let b = Fingerprint::of(b"same data");
        let c = Fingerprint::of(b"other data");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn tagged_fingerprint_differs_from_plain() {
        let plain = Fingerprint::of(b"payload");
        let tagged = Fingerprint::tagged(b"server-0", b"payload");
        let tagged2 = Fingerprint::tagged(b"server-1", b"payload");
        assert_ne!(plain, tagged);
        assert_ne!(tagged, tagged2);
        assert_eq!(tagged, Fingerprint::tagged(b"server-0", b"payload"));
    }

    #[test]
    fn tagged_fingerprint_is_length_prefixed() {
        // ("ab", "c") and ("a", "bc") must not collide.
        assert_ne!(
            Fingerprint::tagged(b"ab", b"c"),
            Fingerprint::tagged(b"a", b"bc")
        );
    }

    #[test]
    fn hex_round_trip() {
        let fp = Fingerprint::of(b"roundtrip");
        let hex = fp.to_hex();
        assert_eq!(hex.len(), 64);
        assert!(hex.bytes().all(|c| matches!(c, b'0'..=b'9' | b'a'..=b'f')));
        let bytes: Vec<u8> = (0..32)
            .map(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).unwrap())
            .collect();
        assert_eq!(bytes, fp.as_bytes());
    }

    #[test]
    fn short_key_uses_leading_bytes() {
        let fp = Fingerprint::from_bytes([
            0, 0, 0, 0, 0, 0, 0, 42, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9,
            9, 9, 9,
        ]);
        assert_eq!(fp.short(), 42);
    }

    #[test]
    fn constant_time_eq_basic() {
        assert!(constant_time_eq(b"abc", b"abc"));
        assert!(!constant_time_eq(b"abc", b"abd"));
        assert!(!constant_time_eq(b"abc", b"ab"));
        assert!(constant_time_eq(b"", b""));
    }
}
