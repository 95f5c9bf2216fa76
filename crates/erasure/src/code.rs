//! The systematic `(n, k)` Reed-Solomon code.

use core::fmt;

use cdstore_gf::{region, Matrix};

use crate::shard::pad_and_split;

/// Errors returned by Reed-Solomon encoding and decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErasureError {
    /// The `(n, k)` parameters are invalid (`k == 0`, `n <= k`, or `n > 255`).
    InvalidParameters {
        /// Total number of shards requested.
        n: usize,
        /// Number of data shards requested.
        k: usize,
    },
    /// The number of shards supplied does not match `n`.
    WrongShardCount {
        /// Number expected.
        expected: usize,
        /// Number supplied.
        actual: usize,
    },
    /// Fewer than `k` shards are available for reconstruction.
    NotEnoughShards {
        /// Shards required.
        needed: usize,
        /// Shards available.
        available: usize,
    },
    /// The supplied shards do not all have the same length.
    InconsistentShardSize,
    /// Internal matrix inversion failed (should not happen for a valid code).
    MatrixSingular,
}

impl fmt::Display for ErasureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErasureError::InvalidParameters { n, k } => {
                write!(f, "invalid Reed-Solomon parameters n={n}, k={k}")
            }
            ErasureError::WrongShardCount { expected, actual } => {
                write!(f, "expected {expected} shards, got {actual}")
            }
            ErasureError::NotEnoughShards { needed, available } => {
                write!(
                    f,
                    "need {needed} shards to reconstruct, only {available} available"
                )
            }
            ErasureError::InconsistentShardSize => write!(f, "shards have inconsistent sizes"),
            ErasureError::MatrixSingular => write!(f, "decode matrix is singular"),
        }
    }
}

impl std::error::Error for ErasureError {}

/// A systematic `(n, k)` Reed-Solomon erasure code over GF(2^8).
///
/// The dispersal matrix is a systematized `n x k` Vandermonde matrix: the
/// first `k` rows form the identity (data shards pass through unchanged) and
/// every `k x k` submatrix is invertible, so any `k` of the `n` shards
/// reconstruct the data.
#[derive(Clone)]
pub struct ReedSolomon {
    n: usize,
    k: usize,
    /// `n x k` encoding matrix, row-major.
    matrix: Matrix,
}

impl fmt::Debug for ReedSolomon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ReedSolomon(n={}, k={})", self.n, self.k)
    }
}

impl ReedSolomon {
    /// Creates a new `(n, k)` code.
    ///
    /// Requirements: `0 < k < n <= 255`.
    pub fn new(n: usize, k: usize) -> Result<Self, ErasureError> {
        if k == 0 || n <= k || n > 255 {
            return Err(ErasureError::InvalidParameters { n, k });
        }
        let matrix = Matrix::vandermonde(n, k)
            .systematize(k)
            .map_err(|_| ErasureError::MatrixSingular)?;
        Ok(ReedSolomon { n, k, matrix })
    }

    /// Total number of shards produced per encode.
    pub fn total_shards(&self) -> usize {
        self.n
    }

    /// Number of data shards (the reconstruction threshold).
    pub fn data_shards(&self) -> usize {
        self.k
    }

    /// Storage blowup of the code: `n / k`.
    pub fn storage_blowup(&self) -> f64 {
        self.n as f64 / self.k as f64
    }

    /// Encodes `k` equal-size data shards into `n` shards (the first `k`
    /// outputs are copies of the inputs).
    pub fn encode_shards(&self, data_shards: &[&[u8]]) -> Result<Vec<Vec<u8>>, ErasureError> {
        if data_shards.len() != self.k {
            return Err(ErasureError::WrongShardCount {
                expected: self.k,
                actual: data_shards.len(),
            });
        }
        let size = data_shards[0].len();
        if data_shards.iter().any(|s| s.len() != size) {
            return Err(ErasureError::InconsistentShardSize);
        }
        let mut out = Vec::with_capacity(self.n);
        // Systematic part: copy the data shards through.
        for shard in data_shards {
            out.push(shard.to_vec());
        }
        // Parity part: rows k..n of the encoding matrix.
        for row in self.k..self.n {
            let mut parity = vec![0u8; size];
            for (j, shard) in data_shards.iter().enumerate() {
                region::mul_acc(&mut parity, shard, self.matrix.get(row, j));
            }
            out.push(parity);
        }
        Ok(out)
    }

    /// Splits a byte buffer into `k` zero-padded shards and encodes them.
    pub fn encode_data(&self, data: &[u8]) -> Result<Vec<Vec<u8>>, ErasureError> {
        let shards = pad_and_split(data, self.k);
        let refs: Vec<&[u8]> = shards.iter().map(|s| s.as_slice()).collect();
        self.encode_shards(&refs)
    }

    /// Like [`encode_data`](ReedSolomon::encode_data), but writes the `n`
    /// shards into `out`, reusing the capacity of any buffers already there.
    ///
    /// `out` is resized to `n` entries; each entry is overwritten in place
    /// (no allocation once its capacity has grown to the shard size). This is
    /// the allocation-free path the streaming encode pipeline runs on.
    pub fn encode_into(&self, data: &[u8], out: &mut Vec<Vec<u8>>) -> Result<(), ErasureError> {
        let size = crate::shard::shard_size(data.len(), self.k);
        out.resize_with(self.n, Vec::new);
        let (data_part, parity_part) = out.split_at_mut(self.k);
        // Systematic part: copy `data` through, zero-padding the tail shard.
        for (i, shard) in data_part.iter_mut().enumerate() {
            let start = (i * size).min(data.len());
            let end = ((i + 1) * size).min(data.len());
            shard.clear();
            shard.extend_from_slice(&data[start..end]);
            shard.resize(size, 0);
        }
        // Parity part: rows k..n of the encoding matrix, accumulated into
        // zeroed reused buffers.
        for (p, parity) in parity_part.iter_mut().enumerate() {
            parity.clear();
            parity.resize(size, 0);
            for (j, shard) in data_part.iter().enumerate() {
                region::mul_acc(parity, shard, self.matrix.get(self.k + p, j));
            }
        }
        Ok(())
    }

    /// Validates a reconstruction input: right shard count, at least `k`
    /// available, equal sizes. Returns the available indices and shard size.
    fn validate_reconstruct(
        &self,
        shards: &[Option<&[u8]>],
    ) -> Result<(Vec<usize>, usize), ErasureError> {
        if shards.len() != self.n {
            return Err(ErasureError::WrongShardCount {
                expected: self.n,
                actual: shards.len(),
            });
        }
        let available: Vec<usize> = shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|_| i))
            .collect();
        if available.len() < self.k {
            return Err(ErasureError::NotEnoughShards {
                needed: self.k,
                available: available.len(),
            });
        }
        let size = shards[available[0]].expect("available").len();
        if available
            .iter()
            .any(|&i| shards[i].expect("available").len() != size)
        {
            return Err(ErasureError::InconsistentShardSize);
        }
        Ok((available, size))
    }

    /// Computes the inverted decode matrix and the `k` chosen input slices
    /// for the general (non-systematic-survivor) reconstruction path.
    fn decode_inputs<'a>(
        &self,
        shards: &[Option<&'a [u8]>],
        available: &[usize],
    ) -> Result<(Matrix, Vec<&'a [u8]>), ErasureError> {
        let chosen = &available[..self.k];
        let sub = self.matrix.select_rows(chosen);
        let inv = sub.invert().map_err(|_| ErasureError::MatrixSingular)?;
        let inputs: Vec<&[u8]> = chosen
            .iter()
            .map(|&i| shards[i].expect("available"))
            .collect();
        Ok((inv, inputs))
    }

    /// Reconstructs the `k` data shards from any `k` available shards, over
    /// borrowed shard slices so callers selecting k-subsets (e.g. the
    /// CAONT-RS brute-force decoder) never copy share bytes.
    ///
    /// `shards` must have length `n`; missing shards are `None`.
    pub fn reconstruct_data_shards_borrowed(
        &self,
        shards: &[Option<&[u8]>],
    ) -> Result<Vec<Vec<u8>>, ErasureError> {
        let (available, size) = self.validate_reconstruct(shards)?;
        // Fast path: all k data shards survive.
        if available.iter().take_while(|&&i| i < self.k).count() >= self.k {
            return Ok((0..self.k)
                .map(|i| shards[i].expect("data shard present").to_vec())
                .collect());
        }
        let (inv, inputs) = self.decode_inputs(shards, &available)?;
        let mut outputs = vec![vec![0u8; size]; self.k];
        let mut out_refs: Vec<&mut [u8]> = outputs.iter_mut().map(|o| o.as_mut_slice()).collect();
        region::matrix_apply_into(inv.as_slice(), self.k, self.k, &inputs, &mut out_refs);
        Ok(outputs)
    }

    /// Reconstructs the original byte buffer of length `original_len` from
    /// any `k` available shards. Kept beside the borrowed form because IDA,
    /// AONT-RS and SSMS reach it with the owned slots that
    /// `SecretSharing::reconstruct` hands them.
    pub fn reconstruct_data(
        &self,
        shards: &[Option<Vec<u8>>],
        original_len: usize,
    ) -> Result<Vec<u8>, ErasureError> {
        let borrowed: Vec<Option<&[u8]>> = shards.iter().map(|s| s.as_deref()).collect();
        self.reconstruct_data_borrowed(&borrowed, original_len)
    }

    /// Like [`reconstruct_data`](ReedSolomon::reconstruct_data) but over
    /// borrowed shard slices, decoding straight into one flat output buffer
    /// (no per-shard allocation, no reassembly copy) — the kernel the
    /// streamed-restore decode windows run on.
    ///
    /// # Panics
    ///
    /// Panics if the available shards hold fewer than `original_len` bytes.
    pub fn reconstruct_data_borrowed(
        &self,
        shards: &[Option<&[u8]>],
        original_len: usize,
    ) -> Result<Vec<u8>, ErasureError> {
        let (available, size) = self.validate_reconstruct(shards)?;
        assert!(
            size * self.k >= original_len,
            "shards hold {} bytes but {original_len} were requested",
            size * self.k
        );
        if size == 0 {
            return Ok(Vec::new());
        }
        let mut out = vec![0u8; size * self.k];
        if available.iter().take_while(|&&i| i < self.k).count() >= self.k {
            // Fast path: all k data shards survive; copy them through.
            for (i, chunk) in out.chunks_mut(size).enumerate() {
                chunk.copy_from_slice(shards[i].expect("data shard present"));
            }
        } else {
            let (inv, inputs) = self.decode_inputs(shards, &available)?;
            let mut out_refs: Vec<&mut [u8]> = out.chunks_mut(size).collect();
            region::matrix_apply_into(inv.as_slice(), self.k, self.k, &inputs, &mut out_refs);
        }
        out.truncate(original_len);
        Ok(out)
    }

    /// Reconstructs *all* `n` shards (data and parity) from any `k` available
    /// shards — the repair operation CDStore runs after a cloud failure.
    pub fn reconstruct_all_shards(
        &self,
        shards: &[Option<Vec<u8>>],
    ) -> Result<Vec<Vec<u8>>, ErasureError> {
        let borrowed: Vec<Option<&[u8]>> = shards.iter().map(|s| s.as_deref()).collect();
        let data_shards = self.reconstruct_data_shards_borrowed(&borrowed)?;
        let refs: Vec<&[u8]> = data_shards.iter().map(|s| s.as_slice()).collect();
        self.encode_shards(&refs)
    }

    /// Verifies that a full set of `n` shards is consistent with the code
    /// (i.e. the parity shards match the data shards).
    pub fn verify(&self, shards: &[Vec<u8>]) -> Result<bool, ErasureError> {
        if shards.len() != self.n {
            return Err(ErasureError::WrongShardCount {
                expected: self.n,
                actual: shards.len(),
            });
        }
        let refs: Vec<&[u8]> = shards[..self.k].iter().map(|s| s.as_slice()).collect();
        let expected = self.encode_shards(&refs)?;
        Ok(expected == shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(matches!(
            ReedSolomon::new(3, 3),
            Err(ErasureError::InvalidParameters { .. })
        ));
        assert!(matches!(
            ReedSolomon::new(3, 0),
            Err(ErasureError::InvalidParameters { .. })
        ));
        assert!(matches!(
            ReedSolomon::new(256, 3),
            Err(ErasureError::InvalidParameters { .. })
        ));
        assert!(ReedSolomon::new(4, 3).is_ok());
        assert!(ReedSolomon::new(255, 254).is_ok());
    }

    #[test]
    fn code_is_systematic() {
        let rs = ReedSolomon::new(6, 4).unwrap();
        let data: Vec<u8> = (0..64).collect();
        let shards = rs.encode_data(&data).unwrap();
        assert_eq!(shards.len(), 6);
        let split = pad_and_split(&data, 4);
        assert_eq!(&shards[..4], &split[..]);
    }

    #[test]
    fn encode_into_matches_encode_data_and_reuses_buffers() {
        let rs = ReedSolomon::new(6, 4).unwrap();
        let mut out = Vec::new();
        for round in 0..3u32 {
            let data: Vec<u8> = (0..500u32)
                .map(|i| ((i + round * 97) % 256) as u8)
                .collect();
            rs.encode_into(&data, &mut out).unwrap();
            assert_eq!(out, rs.encode_data(&data).unwrap(), "round {round}");
        }
        // Smaller payload after a larger one: buffers shrink in place.
        rs.encode_into(b"tiny", &mut out).unwrap();
        assert_eq!(out, rs.encode_data(b"tiny").unwrap());
        assert!(out[0].capacity() >= 125, "capacity should be retained");
    }

    #[test]
    fn any_k_of_n_reconstructs() {
        let rs = ReedSolomon::new(5, 3).unwrap();
        let data: Vec<u8> = (0..200u32).map(|i| (i * 7 % 256) as u8).collect();
        let shards = rs.encode_data(&data).unwrap();
        // Try every 3-subset of the 5 shards.
        for a in 0..5 {
            for b in a + 1..5 {
                for c in b + 1..5 {
                    let mut received: Vec<Option<Vec<u8>>> = vec![None; 5];
                    for &i in &[a, b, c] {
                        received[i] = Some(shards[i].clone());
                    }
                    let recovered = rs.reconstruct_data(&received, data.len()).unwrap();
                    assert_eq!(recovered, data, "subset ({a},{b},{c})");
                }
            }
        }
    }

    #[test]
    fn fewer_than_k_shards_fails() {
        let rs = ReedSolomon::new(4, 3).unwrap();
        let shards = rs.encode_data(b"some data to protect").unwrap();
        let received: Vec<Option<Vec<u8>>> =
            vec![Some(shards[0].clone()), Some(shards[3].clone()), None, None];
        assert!(matches!(
            rs.reconstruct_data(&received, 20),
            Err(ErasureError::NotEnoughShards {
                needed: 3,
                available: 2
            })
        ));
    }

    #[test]
    fn repair_rebuilds_lost_shards() {
        let rs = ReedSolomon::new(4, 3).unwrap();
        let data = b"repair after a cloud failure".to_vec();
        let shards = rs.encode_data(&data).unwrap();
        let mut received: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
        received[2] = None; // cloud 2 failed
        let rebuilt = rs.reconstruct_all_shards(&received).unwrap();
        assert_eq!(rebuilt, shards);
        assert!(rs.verify(&rebuilt).unwrap());
    }

    #[test]
    fn verify_detects_corruption() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let mut shards = rs.encode_data(b"integrity matters").unwrap();
        assert!(rs.verify(&shards).unwrap());
        shards[3][0] ^= 0xff;
        assert!(!rs.verify(&shards).unwrap());
    }

    #[test]
    fn wrong_shard_count_is_rejected() {
        let rs = ReedSolomon::new(4, 3).unwrap();
        assert!(matches!(
            rs.encode_shards(&[b"ab".as_slice(), b"cd".as_slice()]),
            Err(ErasureError::WrongShardCount {
                expected: 3,
                actual: 2
            })
        ));
        assert!(matches!(
            rs.reconstruct_all_shards(&[None, None]),
            Err(ErasureError::WrongShardCount {
                expected: 4,
                actual: 2
            })
        ));
    }

    #[test]
    fn inconsistent_shard_sizes_are_rejected() {
        let rs = ReedSolomon::new(4, 3).unwrap();
        assert!(matches!(
            rs.encode_shards(&[b"ab".as_slice(), b"cd".as_slice(), b"e".as_slice()]),
            Err(ErasureError::InconsistentShardSize)
        ));
    }

    #[test]
    fn empty_data_encodes_and_reconstructs() {
        let rs = ReedSolomon::new(4, 3).unwrap();
        let shards = rs.encode_data(b"").unwrap();
        assert!(shards.iter().all(|s| s.is_empty()));
        let received: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        assert_eq!(rs.reconstruct_data(&received, 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn storage_blowup_matches_n_over_k() {
        let rs = ReedSolomon::new(4, 3).unwrap();
        assert!((rs.storage_blowup() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn large_n_configurations_work() {
        // The paper's Figure 5(b) sweeps n from 4 to 20 with k/n <= 3/4.
        for n in (4..=20).step_by(4) {
            let k = (n * 3) / 4;
            let rs = ReedSolomon::new(n, k).unwrap();
            let data: Vec<u8> = (0..997u32).map(|i| (i % 251) as u8).collect();
            let shards = rs.encode_data(&data).unwrap();
            let mut received: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
            // Drop the first n-k shards (worst case: all data shards where possible).
            for item in received.iter_mut().take(n - k) {
                *item = None;
            }
            assert_eq!(rs.reconstruct_data(&received, data.len()).unwrap(), data);
        }
    }

    proptest! {
        #[test]
        fn random_erasures_round_trip(seed: u64,
                                      data in proptest::collection::vec(any::<u8>(), 1..600),
                                      n in 3usize..12) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let k = rng.gen_range(1..n);
            let rs = ReedSolomon::new(n, k).unwrap();
            let shards = rs.encode_data(&data).unwrap();
            // Keep a random k-subset.
            let mut indices: Vec<usize> = (0..n).collect();
            for i in (1..indices.len()).rev() {
                let j = rng.gen_range(0..=i);
                indices.swap(i, j);
            }
            let keep: std::collections::HashSet<usize> = indices[..k].iter().copied().collect();
            let received: Vec<Option<Vec<u8>>> = (0..n)
                .map(|i| keep.contains(&i).then(|| shards[i].clone()))
                .collect();
            prop_assert_eq!(rs.reconstruct_data(&received, data.len()).unwrap(), data);
        }

        #[test]
        fn parity_is_linear(a in proptest::collection::vec(any::<u8>(), 30),
                            b in proptest::collection::vec(any::<u8>(), 30)) {
            // RS is a linear code: encode(a ^ b) == encode(a) ^ encode(b).
            let rs = ReedSolomon::new(6, 3).unwrap();
            let xored: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
            let ea = rs.encode_data(&a).unwrap();
            let eb = rs.encode_data(&b).unwrap();
            let ex = rs.encode_data(&xored).unwrap();
            for i in 0..6 {
                let combined: Vec<u8> = ea[i].iter().zip(&eb[i]).map(|(x, y)| x ^ y).collect();
                prop_assert_eq!(&combined, &ex[i]);
            }
        }
    }
}
