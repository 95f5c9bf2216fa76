//! Secret sharing algorithms and convergent dispersal.
//!
//! This crate implements every algorithm surveyed in §2 of the CDStore paper
//! (Table 1) plus the paper's contribution, behind a common
//! [`SecretSharing`] trait:
//!
//! | Scheme | Module | Confidentiality degree `r` | Storage blowup | Deduplicable |
//! |---|---|---|---|---|
//! | Shamir's secret sharing (SSSS) | [`ssss`] | `k − 1` | `n` | no |
//! | Rabin's information dispersal (IDA) | [`ida`] | `0` | `n/k` | content-dependent |
//! | Ramp secret sharing (RSSS) | [`rsss`] | `r ∈ [0, k−1]` | `n/(k−r)` | no |
//! | Secret sharing made short (SSMS) | [`ssms`] | `k − 1` | `n/k + n·S_key/S_sec` | no |
//! | AONT-RS (Rivest AONT + RS) | [`aont_rs`] | `k − 1` | `n/k + n/k·S_key/S_sec` | no |
//! | CAONT-RS-Rivest (prior convergent variant) | [`aont_rs`] | `k − 1` | same as AONT-RS | **yes** |
//! | CAONT-RS (OAEP AONT, this paper) | [`caont_rs`] | `k − 1` | same as AONT-RS | **yes** |
//!
//! "Deduplicable" means the scheme is *convergent*: splitting the same secret
//! twice yields byte-identical shares, so per-cloud deduplication removes
//! copies across users.
//!
//! # Examples
//!
//! ```
//! use cdstore_secretsharing::{CaontRs, SecretSharing};
//!
//! let scheme = CaontRs::new(4, 3).unwrap();
//! let secret = b"backup chunk with plenty of entropy 0123456789".to_vec();
//! let shares = scheme.split(&secret).unwrap();
//! assert_eq!(shares.len(), 4);
//!
//! // Convergent: splitting again yields identical shares.
//! assert_eq!(scheme.split(&secret).unwrap(), shares);
//!
//! // Any k = 3 shares reconstruct the secret.
//! let received = vec![None, Some(shares[1].clone()), Some(shares[2].clone()), Some(shares[3].clone())];
//! assert_eq!(scheme.reconstruct(&received, secret.len()).unwrap(), secret);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aont;
pub mod aont_rs;
pub mod caont_rs;
pub mod ida;
pub mod pool;
pub mod rsss;
pub mod ssms;
pub mod ssss;

use core::fmt;
use std::io;

pub use aont_rs::{AontRs, CaontRsRivest};
pub use caont_rs::CaontRs;
pub use ida::Ida;
pub use pool::{BufferPool, PoolStats};
pub use rsss::Rsss;
pub use ssms::Ssms;
pub use ssss::Ssss;

/// Errors returned by secret sharing split/reconstruct operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SharingError {
    /// The scheme parameters are invalid.
    InvalidParameters(String),
    /// The supplied share vector has the wrong length (must equal `n`).
    WrongShareCount {
        /// Expected number of entries (`n`).
        expected: usize,
        /// Number supplied.
        actual: usize,
    },
    /// Fewer than `k` shares are available.
    NotEnoughShares {
        /// Shares required (`k`).
        needed: usize,
        /// Shares available.
        available: usize,
    },
    /// Shares have inconsistent sizes.
    InconsistentShareSize,
    /// A share is too short to contain the scheme's trailer/metadata.
    MalformedShare(String),
    /// The reconstructed secret failed its embedded integrity check.
    IntegrityCheckFailed,
    /// An internal erasure-coding error.
    Erasure(String),
    /// A parallel coding worker panicked; the payload is the panic message.
    WorkerPanic(String),
    /// The OS could not supply a random-key scheme's randomness.
    Entropy(String),
}

impl fmt::Display for SharingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SharingError::InvalidParameters(msg) => write!(f, "invalid parameters: {msg}"),
            SharingError::WrongShareCount { expected, actual } => {
                write!(f, "expected {expected} share slots, got {actual}")
            }
            SharingError::NotEnoughShares { needed, available } => {
                write!(f, "need {needed} shares, only {available} available")
            }
            SharingError::InconsistentShareSize => write!(f, "shares have inconsistent sizes"),
            SharingError::MalformedShare(msg) => write!(f, "malformed share: {msg}"),
            SharingError::IntegrityCheckFailed => write!(f, "integrity check failed"),
            SharingError::Erasure(msg) => write!(f, "erasure coding error: {msg}"),
            SharingError::WorkerPanic(msg) => write!(f, "coding worker panicked: {msg}"),
            SharingError::Entropy(msg) => write!(f, "no OS entropy: {msg}"),
        }
    }
}

impl std::error::Error for SharingError {}

impl From<cdstore_erasure::ErasureError> for SharingError {
    fn from(err: cdstore_erasure::ErasureError) -> Self {
        match err {
            cdstore_erasure::ErasureError::NotEnoughShards { needed, available } => {
                SharingError::NotEnoughShares { needed, available }
            }
            cdstore_erasure::ErasureError::WrongShardCount { expected, actual } => {
                SharingError::WrongShareCount { expected, actual }
            }
            cdstore_erasure::ErasureError::InconsistentShardSize => {
                SharingError::InconsistentShareSize
            }
            other => SharingError::Erasure(other.to_string()),
        }
    }
}

/// A secret sharing algorithm with parameters `(n, k, r)`.
///
/// A scheme disperses a secret into `n` shares such that any `k` reconstruct
/// it and no `r` reveal anything about it (§2 of the paper).
pub trait SecretSharing: Send + Sync {
    /// Human-readable scheme name as used in the paper ("CAONT-RS", ...).
    fn name(&self) -> &'static str;

    /// Total number of shares `n`.
    fn n(&self) -> usize;

    /// Reconstruction threshold `k`.
    fn k(&self) -> usize;

    /// Confidentiality degree `r`: the largest number of shares that reveal
    /// nothing about the secret (computationally for the keyed/AONT schemes).
    fn confidentiality_degree(&self) -> usize;

    /// Whether the scheme is *convergent* (deterministic, hence deduplicable).
    fn is_convergent(&self) -> bool {
        false
    }

    /// Expected total size of all `n` shares for a secret of `secret_len`
    /// bytes (used for the Table 1 storage-blowup comparison).
    fn total_share_size(&self, secret_len: usize) -> usize;

    /// Storage blowup: total share size divided by secret size.
    fn storage_blowup(&self, secret_len: usize) -> f64 {
        if secret_len == 0 {
            return self.n() as f64 / self.k() as f64;
        }
        self.total_share_size(secret_len) as f64 / secret_len as f64
    }

    /// Splits a secret into `n` shares (index `i` of the result is the share
    /// for cloud `i`).
    fn split(&self, secret: &[u8]) -> Result<Vec<Vec<u8>>, SharingError>;

    /// Splits a secret into `out`, reusing the capacity of any buffers
    /// already there (e.g. checked out of a [`pool::BufferPool`]).
    ///
    /// `out` is resized to `n` entries and each entry is overwritten in
    /// place. The default implementation falls back to [`split`] and moves
    /// the result (correct for every scheme, no reuse); CAONT-RS overrides
    /// it, as a [`split_group`] of one, to encode allocation-free.
    ///
    /// [`split`]: SecretSharing::split
    /// [`split_group`]: SecretSharing::split_group
    fn split_into(&self, secret: &[u8], out: &mut Vec<Vec<u8>>) -> Result<(), SharingError> {
        let shares = self.split(secret)?;
        out.clear();
        out.extend(shares);
        Ok(())
    }

    /// The key a convergent scheme derives its shares from — for CAONT-RS
    /// the hash `h = H(X)` of §3.2 — or `None` when the shares are not a
    /// function of the secret alone. Equal keys mean byte-identical shares
    /// *from this scheme instance's parameters* (`n`, `k`, salt), so a caller
    /// may cache per key what it computed from the shares. The key is as
    /// sensitive as the secret's encryption key: never store or log it.
    fn convergent_key(&self, _secret: &[u8]) -> Option<[u8; 32]> {
        None
    }

    /// The group form of [`convergent_key`]: one key per secret, or `None`
    /// when the scheme has none. Each buffer is left holding its secret; a
    /// scheme may use its spare capacity meanwhile. The default asks
    /// [`convergent_key`] secret by secret; CAONT-RS hashes the group as one
    /// batch.
    ///
    /// [`convergent_key`]: SecretSharing::convergent_key
    fn convergent_keys(&self, secrets: &mut [Vec<u8>]) -> Option<Vec<[u8; 32]>> {
        secrets.iter().map(|s| self.convergent_key(s)).collect()
    }

    /// The group form of [`split_into`]: splits every member of `group`
    /// into its `shares`, stopping at the first failure. A member's `secret`
    /// buffer is the encode's scratch: on return it no longer holds the
    /// secret. A member's `key`, its [`convergent_key`], spares the scheme
    /// hashing the secret again. `done` counts the leading members whose
    /// shares are final and is advanced as each completes, so a caller that
    /// catches a panic still knows which shares it may use. The default
    /// splits member by member with [`split_into`]; CAONT-RS builds each
    /// package in its member's own buffer and hashes the group's `H(Y)` as
    /// one batch.
    ///
    /// [`split_into`]: SecretSharing::split_into
    /// [`convergent_key`]: SecretSharing::convergent_key
    fn split_group(
        &self,
        group: &mut [GroupSplit<'_>],
        done: &mut usize,
    ) -> Result<(), SharingError> {
        for member in group.iter_mut() {
            self.split_into(member.secret, member.shares)?;
            *done += 1;
        }
        Ok(())
    }

    /// Reconstructs the secret from at least `k` shares. `shares` must have
    /// exactly `n` entries, with `None` marking a missing share; the position
    /// of each share encodes its index.
    fn reconstruct(
        &self,
        shares: &[Option<Vec<u8>>],
        secret_len: usize,
    ) -> Result<Vec<u8>, SharingError>;
}

/// One secret of a [`SecretSharing::split_group`] call. No `Debug`: it
/// holds a secret and its key.
pub struct GroupSplit<'a> {
    /// The secret, in a buffer the split may use as scratch.
    pub secret: &'a mut Vec<u8>,
    /// Its [`SecretSharing::convergent_key`], if the caller has it.
    pub key: Option<&'a [u8; 32]>,
    /// Where its `n` shares go, overwritten as [`SecretSharing::split_into`]
    /// overwrites `out`.
    pub shares: &'a mut Vec<Vec<u8>>,
}

/// Identifier of a secret sharing scheme, used by configuration and the
/// benchmark harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Shamir's secret sharing.
    Ssss,
    /// Rabin's information dispersal algorithm.
    Ida,
    /// Ramp secret sharing (requires an explicit `r`).
    Rsss,
    /// Krawczyk's secret sharing made short.
    Ssms,
    /// Resch-Plank AONT-RS with a random key.
    AontRs,
    /// Convergent AONT-RS built on Rivest's AONT (the authors' prior work).
    CaontRsRivest,
    /// Convergent AONT-RS built on OAEP (this paper's contribution).
    CaontRs,
}

impl SchemeKind {
    /// All scheme kinds, in the order used by Table 1 plus the convergent
    /// variants.
    pub const ALL: [SchemeKind; 7] = [
        SchemeKind::Ssss,
        SchemeKind::Ida,
        SchemeKind::Rsss,
        SchemeKind::Ssms,
        SchemeKind::AontRs,
        SchemeKind::CaontRsRivest,
        SchemeKind::CaontRs,
    ];
}

impl fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            SchemeKind::Ssss => "SSSS",
            SchemeKind::Ida => "IDA",
            SchemeKind::Rsss => "RSSS",
            SchemeKind::Ssms => "SSMS",
            SchemeKind::AontRs => "AONT-RS",
            SchemeKind::CaontRsRivest => "CAONT-RS-Rivest",
            SchemeKind::CaontRs => "CAONT-RS",
        };
        write!(f, "{name}")
    }
}

/// Builds a boxed scheme of the given kind with parameters `(n, k)`.
///
/// For [`SchemeKind::Rsss`], `r` defaults to `k − 1` when `None` so the
/// comparison matches the confidentiality level of the other schemes; pass an
/// explicit value to explore the ramp trade-off.
pub fn build_scheme(
    kind: SchemeKind,
    n: usize,
    k: usize,
    r: Option<usize>,
) -> Result<Box<dyn SecretSharing>, SharingError> {
    Ok(match kind {
        SchemeKind::Ssss => Box::new(Ssss::new(n, k)?),
        SchemeKind::Ida => Box::new(Ida::new(n, k)?),
        SchemeKind::Rsss => Box::new(Rsss::new(n, k, r.unwrap_or(k.saturating_sub(1)))?),
        SchemeKind::Ssms => Box::new(Ssms::new(n, k)?),
        SchemeKind::AontRs => Box::new(AontRs::new(n, k)?),
        SchemeKind::CaontRsRivest => Box::new(CaontRsRivest::new(n, k)?),
        SchemeKind::CaontRs => Box::new(CaontRs::new(n, k)?),
    })
}

/// Validates the common `(n, k)` parameter constraints shared by all schemes.
pub(crate) fn validate_n_k(n: usize, k: usize) -> Result<(), SharingError> {
    if k == 0 || n <= k || n > 255 {
        return Err(SharingError::InvalidParameters(format!(
            "require 0 < k < n <= 255, got n={n}, k={k}"
        )));
    }
    Ok(())
}

/// `len` bytes from `fill` ([`cdstore_crypto::os_random`] in every `split`),
/// or [`SharingError::Entropy`]: a scheme's randomness never falls back.
pub(crate) fn draw(
    len: usize,
    fill: impl FnOnce(&mut [u8]) -> io::Result<()>,
) -> Result<Vec<u8>, SharingError> {
    let mut random = vec![0u8; len];
    fill(&mut random).map_err(|e| SharingError::Entropy(e.to_string()))?;
    Ok(random)
}

/// Collects the indices of available shares and validates counts/sizes.
/// Returns `(indices, share_len)`. Generic over owned (`Vec<u8>`) and
/// borrowed (`&[u8]`) shares so subset-selecting decoders can validate
/// without copying share bytes.
pub(crate) fn validate_shares<S: AsRef<[u8]>>(
    shares: &[Option<S>],
    n: usize,
    k: usize,
) -> Result<(Vec<usize>, usize), SharingError> {
    if shares.len() != n {
        return Err(SharingError::WrongShareCount {
            expected: n,
            actual: shares.len(),
        });
    }
    let available: Vec<usize> = shares
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.as_ref().map(|_| i))
        .collect();
    if available.len() < k {
        return Err(SharingError::NotEnoughShares {
            needed: k,
            available: available.len(),
        });
    }
    let len = shares[available[0]]
        .as_ref()
        .expect("available")
        .as_ref()
        .len();
    if available
        .iter()
        .any(|&i| shares[i].as_ref().expect("available").as_ref().len() != len)
    {
        return Err(SharingError::InconsistentShareSize);
    }
    Ok((available, len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_scheme_constructs_every_kind() {
        for kind in SchemeKind::ALL {
            let scheme = build_scheme(kind, 4, 3, None).unwrap();
            assert_eq!(scheme.n(), 4);
            assert_eq!(scheme.k(), 3);
            let secret: Vec<u8> = (0..200u32).map(|i| (i % 256) as u8).collect();
            let shares = scheme.split(&secret).unwrap();
            assert_eq!(shares.len(), 4);
            let received: Vec<Option<Vec<u8>>> = shares.into_iter().map(Some).collect();
            assert_eq!(scheme.reconstruct(&received, secret.len()).unwrap(), secret);
        }
    }

    #[test]
    fn scheme_kind_display_matches_paper_names() {
        assert_eq!(SchemeKind::Ssss.to_string(), "SSSS");
        assert_eq!(SchemeKind::CaontRs.to_string(), "CAONT-RS");
        assert_eq!(SchemeKind::CaontRsRivest.to_string(), "CAONT-RS-Rivest");
    }

    #[test]
    fn convergent_flags_match_table() {
        let convergent = [SchemeKind::CaontRs, SchemeKind::CaontRsRivest];
        for kind in SchemeKind::ALL {
            let scheme = build_scheme(kind, 4, 3, None).unwrap();
            assert_eq!(scheme.is_convergent(), convergent.contains(&kind), "{kind}");
            // Only a convergent scheme may hand out a key to cache shares
            // by (CAONT-RS does; the Rivest variant keeps the default).
            assert!(scheme.is_convergent() || scheme.convergent_key(b"secret").is_none());
            assert_eq!(
                scheme.convergent_key(b"secret").is_some(),
                kind == SchemeKind::CaontRs,
                "{kind}"
            );
        }
    }

    #[test]
    fn confidentiality_degrees_match_table1() {
        assert_eq!(
            build_scheme(SchemeKind::Ssss, 4, 3, None)
                .unwrap()
                .confidentiality_degree(),
            2
        );
        assert_eq!(
            build_scheme(SchemeKind::Ida, 4, 3, None)
                .unwrap()
                .confidentiality_degree(),
            0
        );
        assert_eq!(
            build_scheme(SchemeKind::Rsss, 4, 3, Some(1))
                .unwrap()
                .confidentiality_degree(),
            1
        );
        assert_eq!(
            build_scheme(SchemeKind::Ssms, 4, 3, None)
                .unwrap()
                .confidentiality_degree(),
            2
        );
        assert_eq!(
            build_scheme(SchemeKind::AontRs, 4, 3, None)
                .unwrap()
                .confidentiality_degree(),
            2
        );
        assert_eq!(
            build_scheme(SchemeKind::CaontRs, 4, 3, None)
                .unwrap()
                .confidentiality_degree(),
            2
        );
    }

    #[test]
    fn validate_n_k_rejects_bad_parameters() {
        assert!(validate_n_k(4, 3).is_ok());
        assert!(validate_n_k(3, 3).is_err());
        assert!(validate_n_k(3, 0).is_err());
        assert!(validate_n_k(300, 3).is_err());
    }
}
