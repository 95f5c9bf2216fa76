//! Secret sharing made short (SSMS) \[34\].
//!
//! Krawczyk's construction combines key-based encryption with both IDA and
//! SSSS: the secret is encrypted under a fresh random key, the *ciphertext*
//! is dispersed with IDA (optimal `n/k` blowup), and the small *key* is
//! dispersed with SSSS (blowup `n`, but over only 32 bytes). Each share is
//! the concatenation of one ciphertext fragment and one key fragment, giving
//! the Table 1 blowup `n/k + n · S_key / S_sec` with computational
//! confidentiality degree `r = k − 1`.

use cdstore_crypto::{ctr::Aes256Ctr, os_random};
use cdstore_erasure::{shard_size, ReedSolomon};

use crate::{draw, ssss::Ssss, validate_shares, SecretSharing, SharingError};

/// Size of the random data-encryption key in bytes (AES-256).
pub const KEY_SIZE: usize = 32;

/// Krawczyk's `(n, k)` secret sharing made short.
#[derive(Debug, Clone)]
pub struct Ssms {
    n: usize,
    k: usize,
    rs: ReedSolomon,
    key_sharing: Ssss,
}

impl Ssms {
    /// Creates an SSMS scheme with `0 < k < n <= 255`.
    pub fn new(n: usize, k: usize) -> Result<Self, SharingError> {
        crate::validate_n_k(n, k)?;
        Ok(Ssms {
            n,
            k,
            rs: ReedSolomon::new(n, k)?,
            key_sharing: Ssss::new(n, k)?,
        })
    }

    /// Random bytes a split draws: the key, then the SSSS coefficients.
    pub fn random_len(&self) -> usize {
        KEY_SIZE + self.key_sharing.random_len(KEY_SIZE)
    }

    /// Splits with the key and its sharing coefficients taken from `random`,
    /// which [`SecretSharing::split`] draws from the OS. Panics unless
    /// `random` is [`Ssms::random_len`] bytes.
    pub fn split_with(&self, secret: &[u8], random: &[u8]) -> Result<Vec<Vec<u8>>, SharingError> {
        assert_eq!(random.len(), self.random_len());
        let (key, coefficients) = random.split_at(KEY_SIZE);
        let ciphertext = Aes256Ctr::new(key.try_into().expect("length checked"), 0).encrypt(secret);
        // Disperse the ciphertext with IDA and the key with SSSS.
        let data_shares = self.rs.encode_data(&ciphertext)?;
        let key_shares = self.key_sharing.split_with(key, coefficients)?;
        // Each share is ciphertext fragment || key fragment.
        Ok(data_shares
            .into_iter()
            .zip(key_shares)
            .map(|(mut d, k)| {
                d.extend_from_slice(&k);
                d
            })
            .collect())
    }
}

impl SecretSharing for Ssms {
    fn name(&self) -> &'static str {
        "SSMS"
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
        self.n * (shard_size(secret_len, self.k) + KEY_SIZE)
    }

    fn split(&self, secret: &[u8]) -> Result<Vec<Vec<u8>>, SharingError> {
        self.split_with(secret, &draw(self.random_len(), os_random)?)
    }

    fn reconstruct(
        &self,
        shares: &[Option<Vec<u8>>],
        secret_len: usize,
    ) -> Result<Vec<u8>, SharingError> {
        let (_, share_len) = validate_shares(shares, self.n, self.k)?;
        if share_len < KEY_SIZE {
            return Err(SharingError::MalformedShare(format!(
                "SSMS share of {share_len} bytes cannot contain a {KEY_SIZE}-byte key fragment"
            )));
        }
        let frag_len = share_len - KEY_SIZE;
        // Separate ciphertext fragments from key fragments.
        let mut data_shares: Vec<Option<Vec<u8>>> = Vec::with_capacity(self.n);
        let mut key_shares: Vec<Option<Vec<u8>>> = Vec::with_capacity(self.n);
        for share in shares {
            match share {
                Some(s) => {
                    data_shares.push(Some(s[..frag_len].to_vec()));
                    key_shares.push(Some(s[frag_len..].to_vec()));
                }
                None => {
                    data_shares.push(None);
                    key_shares.push(None);
                }
            }
        }
        let ciphertext = self.rs.reconstruct_data(&data_shares, secret_len)?;
        let key_bytes = self.key_sharing.reconstruct(&key_shares, KEY_SIZE)?;
        let key: [u8; KEY_SIZE] = key_bytes
            .try_into()
            .map_err(|_| SharingError::MalformedShare("key fragment has wrong size".into()))?;
        Ok(Aes256Ctr::new(&key, 0).encrypt(&ciphertext))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trip_basic() {
        let scheme = Ssms::new(4, 3).unwrap();
        let secret: Vec<u8> = (0..500u32).map(|i| (i % 256) as u8).collect();
        let shares = scheme.split(&secret).unwrap();
        assert_eq!(shares.len(), 4);
        let received: Vec<Option<Vec<u8>>> = shares.into_iter().map(Some).collect();
        assert_eq!(scheme.reconstruct(&received, secret.len()).unwrap(), secret);
    }

    #[test]
    fn tolerates_n_minus_k_losses() {
        let scheme = Ssms::new(5, 3).unwrap();
        let secret = b"encrypt then disperse".to_vec();
        let shares = scheme.split(&secret).unwrap();
        let received: Vec<Option<Vec<u8>>> = shares
            .into_iter()
            .enumerate()
            .map(|(i, s)| (i != 0 && i != 4).then_some(s))
            .collect();
        assert_eq!(scheme.reconstruct(&received, secret.len()).unwrap(), secret);
    }

    #[test]
    fn blowup_matches_table1_formula() {
        // Table 1: n/k + n * S_key / S_sec.
        let scheme = Ssms::new(4, 3).unwrap();
        let secret_len = 8 * 1024;
        let expected = 4.0 / 3.0 + 4.0 * KEY_SIZE as f64 / secret_len as f64;
        assert!((scheme.storage_blowup(secret_len) - expected).abs() < 1e-3);
    }

    #[test]
    fn blowup_is_smaller_than_ssss_for_large_secrets() {
        let ssms = Ssms::new(4, 3).unwrap();
        let ssss = crate::Ssss::new(4, 3).unwrap();
        let len = 8 * 1024;
        assert!(ssms.storage_blowup(len) < ssss.storage_blowup(len) / 2.0);
    }

    #[test]
    fn ciphertext_shares_look_random() {
        // The data fragments carried by the shares are AES-CTR ciphertext of
        // an all-zero secret, so they must not be all zero.
        let scheme = Ssms::new(4, 3).unwrap();
        let secret = vec![0u8; 300];
        let shares = scheme.split(&secret).unwrap();
        for share in &shares[..3] {
            assert!(share.iter().any(|&b| b != 0));
        }
    }

    #[test]
    fn randomized_so_not_convergent() {
        let scheme = Ssms::new(4, 3).unwrap();
        let secret = vec![7u8; 100];
        assert_ne!(
            scheme.split(&secret).unwrap(),
            scheme.split(&secret).unwrap()
        );
        assert!(!scheme.is_convergent());
    }

    #[test]
    fn too_short_shares_are_rejected() {
        let scheme = Ssms::new(4, 3).unwrap();
        let received: Vec<Option<Vec<u8>>> = vec![Some(vec![1u8; 4]); 4];
        assert!(matches!(
            scheme.reconstruct(&received, 100),
            Err(SharingError::MalformedShare(_))
        ));
    }

    proptest! {
        #[test]
        fn round_trips_for_arbitrary_secrets(secret in proptest::collection::vec(any::<u8>(), 0..400)) {
            let scheme = Ssms::new(4, 3).unwrap();
            let shares = scheme.split(&secret).unwrap();
            let received: Vec<Option<Vec<u8>>> = shares.into_iter().enumerate()
                .map(|(i, s)| (i != 1).then_some(s))
                .collect();
            prop_assert_eq!(scheme.reconstruct(&received, secret.len()).unwrap(), secret);
        }
    }
}
