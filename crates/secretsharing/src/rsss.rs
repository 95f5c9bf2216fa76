//! Ramp secret sharing scheme (RSSS) \[16\].
//!
//! RSSS generalises SSSS and IDA: the secret is divided into `k − r` pieces,
//! `r` random pieces of the same size are appended, and the `k` pieces are
//! dispersed into `n` shares with a (non-systematic) `n x k` dispersal
//! matrix. Any `k` shares reconstruct the secret, no `r` shares reveal
//! anything, and the storage blowup is `n / (k − r)` — trading
//! confidentiality (`r`) against storage.

use cdstore_crypto::os_random;
use cdstore_erasure::{pad_and_split, shard_size};
use cdstore_gf::{region, Matrix};

use crate::{draw, validate_shares, SecretSharing, SharingError};

/// Ramp `(n, k, r)` secret sharing over GF(2^8).
#[derive(Debug, Clone)]
pub struct Rsss {
    n: usize,
    k: usize,
    r: usize,
    /// Non-systematic `n x k` dispersal matrix (Vandermonde).
    matrix: Matrix,
}

impl Rsss {
    /// Creates a ramp scheme with `0 < k < n <= 255` and `0 <= r < k`.
    pub fn new(n: usize, k: usize, r: usize) -> Result<Self, SharingError> {
        crate::validate_n_k(n, k)?;
        if r >= k {
            return Err(SharingError::InvalidParameters(format!(
                "require r < k, got r={r}, k={k}"
            )));
        }
        // A plain Vandermonde matrix keeps every k x k row-submatrix
        // invertible while mixing the random pieces into every share, so no
        // share exposes raw secret bytes (unlike a systematic matrix).
        let matrix = Matrix::vandermonde(n, k);
        Ok(Rsss { n, k, r, matrix })
    }

    /// The ramp parameter `r` (number of random padding pieces).
    pub fn r(&self) -> usize {
        self.r
    }

    /// Size of each share for a secret of `secret_len` bytes.
    pub fn share_size(&self, secret_len: usize) -> usize {
        shard_size(secret_len, self.k - self.r)
    }

    /// Random bytes a split draws: `r` pieces of one share's size.
    pub fn random_len(&self, secret_len: usize) -> usize {
        self.r * self.share_size(secret_len)
    }

    /// Splits with the `r` random pieces taken from `random`, which
    /// [`SecretSharing::split`] draws from the OS. Panics unless `random` is
    /// [`Rsss::random_len`] bytes.
    pub fn split_with(&self, secret: &[u8], random: &[u8]) -> Result<Vec<Vec<u8>>, SharingError> {
        assert_eq!(random.len(), self.random_len(secret.len()));
        let mut pieces = pad_and_split(secret, self.k - self.r);
        let piece_len = pieces[0].len();
        pieces.extend((0..self.r).map(|i| random[i * piece_len..][..piece_len].to_vec()));
        let refs: Vec<&[u8]> = pieces.iter().map(|p| p.as_slice()).collect();
        let mut shares = vec![vec![0u8; piece_len]; self.n];
        let mut share_refs: Vec<&mut [u8]> = shares.iter_mut().map(|s| s.as_mut_slice()).collect();
        region::matrix_apply_into(
            self.matrix.as_slice(),
            self.n,
            self.k,
            &refs,
            &mut share_refs,
        );
        Ok(shares)
    }
}

impl SecretSharing for Rsss {
    fn name(&self) -> &'static str {
        "RSSS"
    }

    fn n(&self) -> usize {
        self.n
    }

    fn k(&self) -> usize {
        self.k
    }

    fn confidentiality_degree(&self) -> usize {
        self.r
    }

    fn total_share_size(&self, secret_len: usize) -> usize {
        self.n * self.share_size(secret_len)
    }

    fn split(&self, secret: &[u8]) -> Result<Vec<Vec<u8>>, SharingError> {
        self.split_with(secret, &draw(self.random_len(secret.len()), os_random)?)
    }

    fn reconstruct(
        &self,
        shares: &[Option<Vec<u8>>],
        secret_len: usize,
    ) -> Result<Vec<u8>, SharingError> {
        let (available, piece_len) = validate_shares(shares, self.n, self.k)?;
        let chosen = &available[..self.k];
        let sub = self.matrix.select_rows(chosen);
        let inv = sub
            .invert()
            .map_err(|e| SharingError::Erasure(e.to_string()))?;
        let inputs: Vec<&[u8]> = chosen
            .iter()
            .map(|&i| shares[i].as_ref().expect("available").as_slice())
            .collect();
        // Decode all k pieces straight into one flat buffer: the first
        // k − r pieces are the (padded) secret laid out contiguously, so
        // truncating recovers it in place — no per-piece allocation and no
        // reassembly copy per decode window.
        let data_len = (self.k - self.r) * piece_len;
        if data_len < secret_len {
            return Err(SharingError::MalformedShare(format!(
                "pieces hold {data_len} bytes but {secret_len} were requested"
            )));
        }
        if piece_len == 0 {
            return Ok(Vec::new());
        }
        let mut out = vec![0u8; self.k * piece_len];
        {
            let mut out_refs: Vec<&mut [u8]> = out.chunks_mut(piece_len).collect();
            region::matrix_apply_into(inv.as_slice(), self.k, self.k, &inputs, &mut out_refs);
        }
        out.truncate(secret_len);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn round_trip_basic() {
        let scheme = Rsss::new(4, 3, 1).unwrap();
        let secret: Vec<u8> = (0..123u32).map(|i| (i % 256) as u8).collect();
        let shares = scheme.split(&secret).unwrap();
        assert_eq!(shares.len(), 4);
        let received: Vec<Option<Vec<u8>>> = shares.into_iter().map(Some).collect();
        assert_eq!(scheme.reconstruct(&received, secret.len()).unwrap(), secret);
    }

    #[test]
    fn r_zero_degenerates_to_ida_blowup() {
        let scheme = Rsss::new(4, 3, 0).unwrap();
        assert!((scheme.storage_blowup(300) - 4.0 / 3.0).abs() < 1e-9);
        assert_eq!(scheme.confidentiality_degree(), 0);
    }

    #[test]
    fn r_k_minus_1_degenerates_to_ssss_blowup() {
        let scheme = Rsss::new(4, 3, 2).unwrap();
        assert!((scheme.storage_blowup(300) - 4.0).abs() < 1e-9);
        assert_eq!(scheme.confidentiality_degree(), 2);
    }

    #[test]
    fn invalid_r_is_rejected() {
        assert!(Rsss::new(4, 3, 3).is_err());
        assert!(Rsss::new(4, 3, 7).is_err());
    }

    #[test]
    fn blowup_is_n_over_k_minus_r() {
        // Table 1: storage blowup of RSSS is n / (k - r).
        for (n, k, r) in [(6usize, 4usize, 1usize), (8, 5, 2), (10, 7, 3)] {
            let scheme = Rsss::new(n, k, r).unwrap();
            let len = 10_000usize;
            let expected = n as f64 / (k - r) as f64;
            assert!(
                (scheme.storage_blowup(len) - expected).abs() < 0.01,
                "(n,k,r)=({n},{k},{r})"
            );
        }
    }

    #[test]
    fn any_k_subset_reconstructs() {
        let scheme = Rsss::new(5, 3, 1).unwrap();
        let secret: Vec<u8> = (0..64).collect();
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
    fn shares_do_not_expose_plaintext_when_r_positive() {
        // With r >= 1 every share is masked by at least one random piece, so
        // no share may equal a contiguous slice of the (constant) secret.
        let scheme = Rsss::new(4, 3, 1).unwrap();
        let secret = vec![0u8; 128];
        let shares = scheme.split(&secret).unwrap();
        for share in &shares {
            assert!(
                share.iter().any(|&b| b != 0),
                "share leaked the zero secret"
            );
        }
    }

    #[test]
    fn randomized_so_not_convergent() {
        let scheme = Rsss::new(4, 3, 1).unwrap();
        let secret = vec![0xabu8; 99];
        assert_ne!(
            scheme.split(&secret).unwrap(),
            scheme.split(&secret).unwrap()
        );
        assert!(!scheme.is_convergent());
    }

    proptest! {
        #[test]
        fn round_trips_with_erasures(secret in proptest::collection::vec(any::<u8>(), 1..400),
                                     seed: u64) {
            let n = 6;
            let k = 4;
            let r = (seed % 4) as usize; // 0..=3 < k
            let scheme = Rsss::new(n, k, r).unwrap();
            let mut random = vec![0u8; scheme.random_len(secret.len())];
            rand::rngs::StdRng::seed_from_u64(seed).fill(&mut random[..]);
            let shares = scheme.split_with(&secret, &random).unwrap();
            // Drop n - k arbitrary shares (here: the first two).
            let received: Vec<Option<Vec<u8>>> = shares.into_iter().enumerate()
                .map(|(i, s)| (i >= 2).then_some(s))
                .collect();
            prop_assert_eq!(scheme.reconstruct(&received, secret.len()).unwrap(), secret);
        }
    }
}
