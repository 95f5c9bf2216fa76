//! Shamir's secret sharing scheme (SSSS) \[54\].
//!
//! Every byte of the secret is shared independently: a random polynomial of
//! degree `k−1` with the secret byte as constant term is evaluated at `n`
//! distinct non-zero points. Any `k` evaluations recover the byte by Lagrange
//! interpolation; `k−1` or fewer reveal nothing (information-theoretically).
//! Each share has the same size as the secret, so the storage blowup is `n`.

use cdstore_crypto::os_random;
use cdstore_gf::{poly, Gf256};

use crate::{draw, validate_n_k, validate_shares, SecretSharing, SharingError};

/// Shamir's `(n, k)` secret sharing over GF(2^8).
#[derive(Debug, Clone)]
pub struct Ssss {
    n: usize,
    k: usize,
}

impl Ssss {
    /// Creates a Shamir scheme with `0 < k < n <= 255`.
    pub fn new(n: usize, k: usize) -> Result<Self, SharingError> {
        validate_n_k(n, k)?;
        Ok(Ssss { n, k })
    }

    /// Random bytes a split draws: `k − 1` coefficients per secret byte.
    pub fn random_len(&self, secret_len: usize) -> usize {
        (self.k - 1) * secret_len
    }

    /// Splits with the polynomials' coefficients taken from `random`, which
    /// [`SecretSharing::split`] draws from the OS: byte `i` of the secret
    /// uses the `k − 1` bytes from `i · (k − 1)`. Panics unless `random` is
    /// [`Ssss::random_len`] bytes.
    pub fn split_with(&self, secret: &[u8], random: &[u8]) -> Result<Vec<Vec<u8>>, SharingError> {
        assert_eq!(random.len(), self.random_len(secret.len()));
        let degree = self.k - 1;
        let mut shares = vec![vec![0u8; secret.len()]; self.n];
        let mut coeffs = vec![Gf256::ZERO; self.k];
        for (byte_idx, &s) in secret.iter().enumerate() {
            coeffs[0] = Gf256::new(s);
            let random = &random[byte_idx * degree..][..degree];
            for (c, &r) in coeffs[1..].iter_mut().zip(random) {
                *c = Gf256::new(r);
            }
            for (share_idx, share) in shares.iter_mut().enumerate() {
                let x = Gf256::new((share_idx + 1) as u8);
                share[byte_idx] = poly::eval(&coeffs, x).value();
            }
        }
        Ok(shares)
    }
}

impl SecretSharing for Ssss {
    fn name(&self) -> &'static str {
        "SSSS"
    }

    fn n(&self) -> usize {
        self.n
    }

    fn k(&self) -> usize {
        self.k
    }

    fn confidentiality_degree(&self) -> usize {
        self.k - 1
    }

    fn total_share_size(&self, secret_len: usize) -> usize {
        // Each of the n shares is as large as the secret.
        self.n * secret_len
    }

    fn split(&self, secret: &[u8]) -> Result<Vec<Vec<u8>>, SharingError> {
        self.split_with(secret, &draw(self.random_len(secret.len()), os_random)?)
    }

    fn reconstruct(
        &self,
        shares: &[Option<Vec<u8>>],
        secret_len: usize,
    ) -> Result<Vec<u8>, SharingError> {
        let (available, share_len) = validate_shares(shares, self.n, self.k)?;
        if share_len < secret_len {
            return Err(SharingError::MalformedShare(format!(
                "share length {share_len} is shorter than the secret length {secret_len}"
            )));
        }
        let chosen = &available[..self.k];
        let mut secret = vec![0u8; secret_len];
        let mut points = vec![(Gf256::ZERO, Gf256::ZERO); self.k];
        for (byte_idx, out) in secret.iter_mut().enumerate() {
            for (slot, &share_idx) in chosen.iter().enumerate() {
                let y = shares[share_idx].as_ref().expect("available")[byte_idx];
                points[slot] = (Gf256::new((share_idx + 1) as u8), Gf256::new(y));
            }
            *out = poly::interpolate_at_zero(&points)
                .ok_or_else(|| SharingError::MalformedShare("duplicate share indices".into()))?
                .value();
        }
        Ok(secret)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// `len` bytes from a seeded generator.
    fn seeded(len: usize, seed: u64) -> Vec<u8> {
        let mut random = vec![0u8; len];
        rand::rngs::StdRng::seed_from_u64(seed).fill(&mut random[..]);
        random
    }

    #[test]
    fn round_trip_with_all_shares() {
        let scheme = Ssss::new(5, 3).unwrap();
        let secret = b"shamir keeps secrets".to_vec();
        let shares = scheme.split(&secret).unwrap();
        assert_eq!(shares.len(), 5);
        assert!(shares.iter().all(|s| s.len() == secret.len()));
        let received: Vec<Option<Vec<u8>>> = shares.into_iter().map(Some).collect();
        assert_eq!(scheme.reconstruct(&received, secret.len()).unwrap(), secret);
    }

    #[test]
    fn any_k_subset_reconstructs() {
        let scheme = Ssss::new(5, 3).unwrap();
        let secret: Vec<u8> = (0..100).collect();
        let shares = scheme.split(&secret).unwrap();
        for a in 0..5 {
            for b in a + 1..5 {
                for c in b + 1..5 {
                    let mut received: Vec<Option<Vec<u8>>> = vec![None; 5];
                    for &i in &[a, b, c] {
                        received[i] = Some(shares[i].clone());
                    }
                    assert_eq!(scheme.reconstruct(&received, secret.len()).unwrap(), secret);
                }
            }
        }
    }

    #[test]
    fn fewer_than_k_shares_fails() {
        let scheme = Ssss::new(4, 3).unwrap();
        let shares = scheme.split(b"top secret").unwrap();
        let received = vec![Some(shares[0].clone()), None, None, Some(shares[3].clone())];
        assert!(matches!(
            scheme.reconstruct(&received, 10),
            Err(SharingError::NotEnoughShares { .. })
        ));
    }

    #[test]
    fn shares_are_randomized_not_convergent() {
        let scheme = Ssss::new(4, 2).unwrap();
        let secret = vec![0x55u8; 64];
        let shares_a = scheme.split(&secret).unwrap();
        let shares_b = scheme.split(&secret).unwrap();
        assert_ne!(shares_a, shares_b, "SSSS must embed fresh randomness");
        assert!(!scheme.is_convergent());
    }

    #[test]
    fn deterministic_with_seeded_rng() {
        let scheme = Ssss::new(4, 2).unwrap();
        let secret = b"seeded".to_vec();
        let random = seeded(scheme.random_len(secret.len()), 9);
        assert_eq!(
            scheme.split_with(&secret, &random).unwrap(),
            scheme.split_with(&secret, &random).unwrap()
        );
    }

    #[test]
    fn single_share_of_2_of_n_is_not_the_secret() {
        // With k = 2, a single share must differ from the plaintext secret
        // (information-theoretic hiding means it is uniformly random, so a
        // collision over 64 bytes is negligible).
        let scheme = Ssss::new(3, 2).unwrap();
        let secret = vec![0u8; 64];
        let shares = scheme.split(&secret).unwrap();
        for share in &shares {
            assert_ne!(share, &secret);
        }
    }

    #[test]
    fn storage_blowup_is_n() {
        let scheme = Ssss::new(6, 4).unwrap();
        assert_eq!(scheme.total_share_size(1000), 6000);
        assert!((scheme.storage_blowup(1000) - 6.0).abs() < 1e-9);
        assert_eq!(scheme.confidentiality_degree(), 3);
    }

    #[test]
    fn empty_secret_round_trips() {
        let scheme = Ssss::new(4, 3).unwrap();
        let shares = scheme.split(b"").unwrap();
        let received: Vec<Option<Vec<u8>>> = shares.into_iter().map(Some).collect();
        assert_eq!(scheme.reconstruct(&received, 0).unwrap(), Vec::<u8>::new());
    }

    proptest! {
        #[test]
        fn random_subsets_round_trip(secret in proptest::collection::vec(any::<u8>(), 0..200),
                                     seed: u64,
                                     n in 3usize..8) {
            let k = 2 + (seed as usize % (n - 2).max(1)).min(n - 2);
            let scheme = Ssss::new(n, k).unwrap();
            let random = seeded(scheme.random_len(secret.len()), seed);
            let shares = scheme.split_with(&secret, &random).unwrap();
            // Keep the last k shares (arbitrary subset).
            let received: Vec<Option<Vec<u8>>> = (0..n)
                .map(|i| (i >= n - k).then(|| shares[i].clone()))
                .collect();
            prop_assert_eq!(scheme.reconstruct(&received, secret.len()).unwrap(), secret);
        }
    }
}
