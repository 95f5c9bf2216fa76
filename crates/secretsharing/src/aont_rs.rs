//! AONT-RS \[52\] and the prior convergent variant CAONT-RS-Rivest \[37\].
//!
//! Both schemes build a Rivest AONT package and encode it into `n` shares
//! with a systematic `(n, k)` Reed-Solomon code. They differ only in the
//! package key:
//!
//! * [`AontRs`] draws a fresh *random* key per split — the original
//!   Resch-Plank design, secure but not deduplicable;
//! * [`CaontRsRivest`] derives the key as `SHA-256(secret)` — the authors'
//!   prior convergent instantiation, deduplicable because identical secrets
//!   produce identical packages and therefore identical shares.

use cdstore_crypto::{os_random, sha256};
use cdstore_erasure::ReedSolomon;

use crate::{aont, draw, validate_shares, SecretSharing, SharingError};

/// Shared implementation: package with a chosen key, then Reed-Solomon.
#[derive(Debug, Clone)]
struct AontRsInner {
    n: usize,
    k: usize,
    rs: ReedSolomon,
}

impl AontRsInner {
    fn new(n: usize, k: usize) -> Result<Self, SharingError> {
        crate::validate_n_k(n, k)?;
        Ok(AontRsInner {
            n,
            k,
            rs: ReedSolomon::new(n, k)?,
        })
    }

    fn share_size(&self, secret_len: usize) -> usize {
        aont::package_len(secret_len, self.k) / self.k
    }

    fn split_with_key(
        &self,
        secret: &[u8],
        key: &[u8; aont::KEY_SIZE],
    ) -> Result<Vec<Vec<u8>>, SharingError> {
        let package = aont::package(secret, key, self.k);
        // The package length is a multiple of k by construction, so splitting
        // adds no further padding.
        Ok(self.rs.encode_data(&package)?)
    }

    fn reconstruct_package(&self, shares: &[Option<Vec<u8>>]) -> Result<Vec<u8>, SharingError> {
        let (_, share_len) = validate_shares(shares, self.n, self.k)?;
        let package_len = share_len * self.k;
        Ok(self.rs.reconstruct_data(shares, package_len)?)
    }
}

/// AONT-RS: Rivest's AONT with a random key followed by Reed-Solomon coding.
#[derive(Debug, Clone)]
pub struct AontRs {
    inner: AontRsInner,
}

impl AontRs {
    /// Creates an AONT-RS scheme with `0 < k < n <= 255`.
    pub fn new(n: usize, k: usize) -> Result<Self, SharingError> {
        Ok(AontRs {
            inner: AontRsInner::new(n, k)?,
        })
    }

    /// Splits under `key`, the package key that [`SecretSharing::split`]
    /// draws from the OS. Panics unless it is [`aont::KEY_SIZE`] bytes.
    pub fn split_with(&self, secret: &[u8], key: &[u8]) -> Result<Vec<Vec<u8>>, SharingError> {
        let key = key.try_into().expect("a key is aont::KEY_SIZE bytes");
        self.inner.split_with_key(secret, key)
    }
}

impl SecretSharing for AontRs {
    fn name(&self) -> &'static str {
        "AONT-RS"
    }

    fn n(&self) -> usize {
        self.inner.n
    }

    fn k(&self) -> usize {
        self.inner.k
    }

    fn confidentiality_degree(&self) -> usize {
        self.inner.k - 1
    }

    fn total_share_size(&self, secret_len: usize) -> usize {
        self.inner.n * self.inner.share_size(secret_len)
    }

    fn split(&self, secret: &[u8]) -> Result<Vec<Vec<u8>>, SharingError> {
        self.split_with(secret, &draw(aont::KEY_SIZE, os_random)?)
    }

    fn reconstruct(
        &self,
        shares: &[Option<Vec<u8>>],
        secret_len: usize,
    ) -> Result<Vec<u8>, SharingError> {
        let package = self.inner.reconstruct_package(shares)?;
        aont::unpackage(&package, secret_len)
    }
}

/// CAONT-RS-Rivest: the authors' prior convergent dispersal built on
/// Rivest's AONT, with the package key replaced by `SHA-256(secret)`.
#[derive(Debug, Clone)]
pub struct CaontRsRivest {
    inner: AontRsInner,
}

impl CaontRsRivest {
    /// Creates a CAONT-RS-Rivest scheme with `0 < k < n <= 255`.
    pub fn new(n: usize, k: usize) -> Result<Self, SharingError> {
        Ok(CaontRsRivest {
            inner: AontRsInner::new(n, k)?,
        })
    }

    /// Derives the convergent package key for a secret.
    pub fn convergent_key(secret: &[u8]) -> [u8; aont::KEY_SIZE] {
        sha256::hash(secret)
    }
}

impl SecretSharing for CaontRsRivest {
    fn name(&self) -> &'static str {
        "CAONT-RS-Rivest"
    }

    fn n(&self) -> usize {
        self.inner.n
    }

    fn k(&self) -> usize {
        self.inner.k
    }

    fn confidentiality_degree(&self) -> usize {
        self.inner.k - 1
    }

    fn is_convergent(&self) -> bool {
        true
    }

    fn total_share_size(&self, secret_len: usize) -> usize {
        self.inner.n * self.inner.share_size(secret_len)
    }

    fn split(&self, secret: &[u8]) -> Result<Vec<Vec<u8>>, SharingError> {
        let key = Self::convergent_key(secret);
        self.inner.split_with_key(secret, &key)
    }

    fn reconstruct(
        &self,
        shares: &[Option<Vec<u8>>],
        secret_len: usize,
    ) -> Result<Vec<u8>, SharingError> {
        let package = self.inner.reconstruct_package(shares)?;
        let secret = aont::unpackage(&package, secret_len)?;
        // Convergent integrity check: the recovered package key must equal
        // the hash of the padded secret content it was derived from.
        let key = aont::recover_key(&package)?;
        let expected = Self::convergent_key(&secret);
        // The key was derived from the unpadded secret at split time, so
        // compare against the hash of the truncated secret.
        if !cdstore_crypto::constant_time_eq(&key, &expected) {
            return Err(SharingError::IntegrityCheckFailed);
        }
        Ok(secret)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use std::io;

    fn drop_shares(shares: Vec<Vec<u8>>, drop: &[usize]) -> Vec<Option<Vec<u8>>> {
        shares
            .into_iter()
            .enumerate()
            .map(|(i, s)| (!drop.contains(&i)).then_some(s))
            .collect()
    }

    #[test]
    fn aont_rs_round_trips() {
        let scheme = AontRs::new(4, 3).unwrap();
        let secret: Vec<u8> = (0..5000u32).map(|i| (i % 256) as u8).collect();
        let shares = scheme.split(&secret).unwrap();
        assert_eq!(shares.len(), 4);
        let received = drop_shares(shares, &[0]);
        assert_eq!(scheme.reconstruct(&received, secret.len()).unwrap(), secret);
    }

    #[test]
    fn aont_rs_is_randomized() {
        let scheme = AontRs::new(4, 3).unwrap();
        let secret = vec![9u8; 1000];
        assert_ne!(
            scheme.split(&secret).unwrap(),
            scheme.split(&secret).unwrap()
        );
        assert!(!scheme.is_convergent());
    }

    #[test]
    fn aont_rs_deterministic_with_seeded_rng() {
        let scheme = AontRs::new(4, 3).unwrap();
        let secret = b"seeded aont".to_vec();
        let mut key = [0u8; aont::KEY_SIZE];
        rand::rngs::StdRng::seed_from_u64(3).fill(&mut key[..]);
        let a = scheme.split_with(&secret, &key).unwrap();
        let b = scheme.split_with(&secret, &key).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn aont_rs_split_fails_closed_without_entropy() {
        // `split` is `split_with(secret, &draw(KEY_SIZE, os_random)?)`; here
        // the source is one that cannot be read.
        let scheme = AontRs::new(4, 3).unwrap();
        let split = |fill: fn(&mut [u8]) -> io::Result<()>| {
            draw(aont::KEY_SIZE, fill).and_then(|key| scheme.split_with(b"secret", &key))
        };
        let unreadable = |_: &mut [u8]| Err(io::Error::other("device gone"));
        let empty = |buf: &mut [u8]| io::Read::read_exact(&mut io::empty(), buf);
        assert!(matches!(split(unreadable), Err(SharingError::Entropy(_))));
        assert!(matches!(split(empty), Err(SharingError::Entropy(_))));
        assert_eq!(split(os_random).unwrap().len(), 4);
    }

    #[test]
    fn caont_rs_rivest_is_convergent() {
        let scheme = CaontRsRivest::new(4, 3).unwrap();
        let secret: Vec<u8> = (0..8192u32).map(|i| (i * 31 % 256) as u8).collect();
        let a = scheme.split(&secret).unwrap();
        let b = scheme.split(&secret).unwrap();
        assert_eq!(a, b, "convergent dispersal must be deterministic");
        assert!(scheme.is_convergent());
    }

    #[test]
    fn caont_rs_rivest_round_trips_with_erasures() {
        let scheme = CaontRsRivest::new(5, 3).unwrap();
        let secret = b"the convergent variant also tolerates cloud failures".to_vec();
        let shares = scheme.split(&secret).unwrap();
        let received = drop_shares(shares, &[1, 4]);
        assert_eq!(scheme.reconstruct(&received, secret.len()).unwrap(), secret);
    }

    #[test]
    fn different_secrets_give_different_shares() {
        let scheme = CaontRsRivest::new(4, 3).unwrap();
        let a = scheme.split(b"secret A").unwrap();
        let b = scheme.split(b"secret B").unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn corrupted_share_is_detected() {
        let scheme = CaontRsRivest::new(4, 3).unwrap();
        let secret = b"detect tampering in any share".to_vec();
        let mut shares = scheme.split(&secret).unwrap();
        shares[0][0] ^= 0x01;
        let received: Vec<Option<Vec<u8>>> = vec![
            Some(shares[0].clone()),
            Some(shares[1].clone()),
            Some(shares[2].clone()),
            None,
        ];
        assert!(matches!(
            scheme.reconstruct(&received, secret.len()),
            Err(SharingError::IntegrityCheckFailed)
        ));
    }

    #[test]
    fn blowup_matches_table1_formula() {
        // Table 1: n/k + (n/k) * S_key / S_sec, plus word padding overhead.
        let scheme = AontRs::new(4, 3).unwrap();
        let secret_len = 8 * 1024;
        let expected = (4.0 / 3.0) * (1.0 + (aont::PACKAGE_OVERHEAD as f64) / secret_len as f64);
        let actual = scheme.storage_blowup(secret_len);
        assert!(
            (actual - expected).abs() < 0.01,
            "expected {expected}, got {actual}"
        );
        // Lower than SSMS for the same parameters (keys are not replicated n times).
        let ssms = crate::Ssms::new(4, 3).unwrap();
        assert!(actual < ssms.storage_blowup(secret_len));
    }

    #[test]
    fn not_enough_shares_fails() {
        let scheme = AontRs::new(4, 3).unwrap();
        let shares = scheme.split(b"not enough").unwrap();
        let received = drop_shares(shares, &[0, 1]);
        assert!(matches!(
            scheme.reconstruct(&received, 10),
            Err(SharingError::NotEnoughShares { .. })
        ));
    }

    proptest! {
        #[test]
        fn both_variants_round_trip(secret in proptest::collection::vec(any::<u8>(), 0..1024),
                                    drop in 0usize..4) {
            let aont_rs = AontRs::new(4, 3).unwrap();
            let caont = CaontRsRivest::new(4, 3).unwrap();
            for scheme in [&aont_rs as &dyn SecretSharing, &caont as &dyn SecretSharing] {
                let shares = scheme.split(&secret).unwrap();
                let received = drop_shares(shares, &[drop]);
                prop_assert_eq!(scheme.reconstruct(&received, secret.len()).unwrap(), secret.clone());
            }
        }

        #[test]
        fn convergent_shares_depend_only_on_content(secret in proptest::collection::vec(any::<u8>(), 1..512)) {
            let scheme = CaontRsRivest::new(4, 3).unwrap();
            prop_assert_eq!(scheme.split(&secret).unwrap(), scheme.split(&secret).unwrap());
        }
    }
}
