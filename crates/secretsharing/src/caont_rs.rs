//! CAONT-RS — the paper's convergent dispersal instantiation (§3.2).
//!
//! CAONT-RS replaces Rivest's word-oriented AONT with an OAEP-based
//! all-or-nothing transform and the random key with a deterministic hash of
//! the secret:
//!
//! 1. `h = H(X)` — the convergent hash key (SHA-256, optionally salted);
//! 2. `Y = X ⊕ G(h)` where `G(h) = E(h, C)` encrypts a constant-value block
//!    `C` under `h` (one bulk AES-256-CTR pass);
//! 3. `t = h ⊕ H(Y)` — the package tail;
//! 4. the CAONT package `(Y, t)` is divided into `k` equal shares and encoded
//!    into `n` shares with a systematic Reed-Solomon code. Share `i` is
//!    always stored on cloud `i`, so identical secrets deduplicate per cloud.
//!
//! Decoding reverses the steps and verifies `H(X) == h`, giving an embedded
//! integrity check on the recovered secret.

use std::cell::RefCell;

use cdstore_crypto::{constant_time_eq, ctr, sha256};
use cdstore_erasure::ReedSolomon;

use crate::{validate_shares, SecretSharing, SharingError};

thread_local! {
    /// Per-thread CAONT package scratch for [`CaontRs::split_into`]: each
    /// encode worker settles on one buffer at its working chunk size instead
    /// of allocating a package per secret.
    static PACKAGE_SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Size of the convergent hash key / package tail in bytes.
pub const HASH_SIZE: usize = 32;

/// CAONT-RS convergent dispersal with parameters `(n, k)` (and `r = k − 1`).
#[derive(Debug, Clone)]
pub struct CaontRs {
    n: usize,
    k: usize,
    rs: ReedSolomon,
    /// Optional salt mixed into the convergent hash. All clients of one
    /// organisation share the salt; it turns the hash into an
    /// organisation-scoped key so cross-organisation dictionary attacks are
    /// harder (a lightweight version of the server-aided keying discussed in
    /// §3.2 Remarks).
    salt: Option<Vec<u8>>,
}

impl CaontRs {
    /// Creates a CAONT-RS scheme with `0 < k < n <= 255` and no salt.
    pub fn new(n: usize, k: usize) -> Result<Self, SharingError> {
        crate::validate_n_k(n, k)?;
        Ok(CaontRs {
            n,
            k,
            rs: ReedSolomon::new(n, k)?,
            salt: None,
        })
    }

    /// Creates a CAONT-RS scheme whose convergent hash is salted with an
    /// organisation-wide secret value.
    pub fn with_salt(n: usize, k: usize, salt: &[u8]) -> Result<Self, SharingError> {
        let mut scheme = Self::new(n, k)?;
        scheme.salt = Some(salt.to_vec());
        Ok(scheme)
    }

    /// Computes the convergent hash key `h = H(salt || X)` of a secret.
    pub fn hash_key(&self, secret: &[u8]) -> [u8; HASH_SIZE] {
        self.hash_key_padded(secret, 0)
    }

    /// `h = H(salt || X || 0^pad)` without materialising the padding.
    fn hash_key_padded(&self, secret: &[u8], pad: usize) -> [u8; HASH_SIZE] {
        // The padding is shorter than k <= 254 bytes.
        const ZEROS: [u8; 256] = [0u8; 256];
        match (&self.salt, pad) {
            (None, 0) => sha256::hash(secret),
            (salt, _) => {
                sha256::hash_parts(&[salt.as_deref().unwrap_or_default(), secret, &ZEROS[..pad]])
            }
        }
    }

    /// Returns the padded secret length: the smallest length at least
    /// `secret_len` such that the CAONT package (`padded + HASH_SIZE`)
    /// divides evenly into `k` shares.
    pub fn padded_secret_len(&self, secret_len: usize) -> usize {
        let mut padded = secret_len;
        while !(padded + HASH_SIZE).is_multiple_of(self.k) {
            padded += 1;
        }
        padded
    }

    /// Size of each share for a secret of `secret_len` bytes.
    pub fn share_size(&self, secret_len: usize) -> usize {
        (self.padded_secret_len(secret_len) + HASH_SIZE) / self.k
    }

    /// Builds the CAONT package `(Y, t)` for a secret (before Reed-Solomon).
    pub fn build_package(&self, secret: &[u8]) -> Vec<u8> {
        let mut package = Vec::new();
        self.build_package_into(secret, &mut package);
        package
    }

    /// Builds the CAONT package into `package`, reusing its capacity.
    pub fn build_package_into(&self, secret: &[u8], package: &mut Vec<u8>) {
        let h = self.padded_hash_key(secret);
        self.build_package_keyed(secret, &h, package);
    }

    /// `h = H(X)` over the zero-padded secret, so encode and decode agree.
    fn padded_hash_key(&self, secret: &[u8]) -> [u8; HASH_SIZE] {
        self.hash_key_padded(secret, self.padded_secret_len(secret.len()) - secret.len())
    }

    /// [`CaontRs::build_package_into`] given `h`, the secret's
    /// [`SecretSharing::convergent_key`], so the secret is not hashed again.
    fn build_package_keyed(&self, secret: &[u8], h: &[u8; HASH_SIZE], package: &mut Vec<u8>) {
        let padded_len = self.padded_secret_len(secret.len());
        // X (zero-padded to the package-friendly length).
        package.clear();
        package.extend_from_slice(secret);
        package.resize(padded_len + HASH_SIZE, 0);
        // Y = X ⊕ G(h)  (single bulk CTR pass over the head).
        ctr::apply_generator_mask(h, &mut package[..padded_len]);
        // t = h ⊕ H(Y).
        let hy = sha256::hash(&package[..padded_len]);
        for i in 0..HASH_SIZE {
            package[padded_len + i] = h[i] ^ hy[i];
        }
    }

    /// Inverts [`CaontRs::build_package`], verifying the embedded hash.
    pub fn open_package(&self, package: &[u8], secret_len: usize) -> Result<Vec<u8>, SharingError> {
        self.open_package_in_place(package.to_vec(), secret_len)
    }

    /// [`CaontRs::open_package`] on an owned package: `Y` is unmasked where it
    /// lies and the buffer is returned as the secret, so the decode path
    /// (whose package is a fresh Reed-Solomon output) copies nothing. On an
    /// integrity failure the half-opened buffer is dropped, never returned.
    fn open_package_in_place(
        &self,
        mut package: Vec<u8>,
        secret_len: usize,
    ) -> Result<Vec<u8>, SharingError> {
        if package.len() < HASH_SIZE || package.len() - HASH_SIZE < secret_len {
            return Err(SharingError::MalformedShare(format!(
                "CAONT package of {} bytes is too short for a {secret_len}-byte secret",
                package.len()
            )));
        }
        let padded_len = package.len() - HASH_SIZE;
        let (y, t) = package.split_at_mut(padded_len);
        // h = t ⊕ H(Y).
        let hy = sha256::hash(y);
        let mut h = [0u8; HASH_SIZE];
        for i in 0..HASH_SIZE {
            h[i] = t[i] ^ hy[i];
        }
        // X = Y ⊕ G(h).
        ctr::apply_generator_mask(&h, y);
        // Integrity: H(X) must equal h.
        let expected = self.hash_key(y);
        if !constant_time_eq(&expected, &h) {
            return Err(SharingError::IntegrityCheckFailed);
        }
        package.truncate(secret_len);
        Ok(package)
    }

    /// Reconstructs the secret by brute-forcing subsets of `k` shares until
    /// one decodes with a valid integrity hash (§3.2: the recovery strategy
    /// when some retrieved shares are corrupted).
    pub fn reconstruct_bruteforce(
        &self,
        shares: &[Option<Vec<u8>>],
        secret_len: usize,
    ) -> Result<Vec<u8>, SharingError> {
        let (available, _) = validate_shares(shares, self.n, self.k)?;
        let subsets = k_subsets(&available, self.k);
        let mut last_err = SharingError::IntegrityCheckFailed;
        // One borrowed candidate view, reset per subset — the share bytes are
        // never copied, only the k chosen slices are exposed to the decoder.
        let mut candidate: Vec<Option<&[u8]>> = vec![None; self.n];
        for subset in subsets {
            candidate.iter_mut().for_each(|c| *c = None);
            for &i in &subset {
                candidate[i] = shares[i].as_deref();
            }
            match self.try_reconstruct_borrowed(&candidate, secret_len) {
                Ok(secret) => return Ok(secret),
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    fn try_reconstruct(
        &self,
        shares: &[Option<Vec<u8>>],
        secret_len: usize,
    ) -> Result<Vec<u8>, SharingError> {
        let borrowed: Vec<Option<&[u8]>> = shares.iter().map(|s| s.as_deref()).collect();
        self.try_reconstruct_borrowed(&borrowed, secret_len)
    }

    fn try_reconstruct_borrowed(
        &self,
        shares: &[Option<&[u8]>],
        secret_len: usize,
    ) -> Result<Vec<u8>, SharingError> {
        let (_, share_len) = validate_shares(shares, self.n, self.k)?;
        let package_len = share_len * self.k;
        let package = self.rs.reconstruct_data_borrowed(shares, package_len)?;
        self.open_package_in_place(package, secret_len)
    }
}

/// Enumerates all `k`-element subsets of `items` (small `n`, used by the
/// brute-force decode path).
fn k_subsets(items: &[usize], k: usize) -> Vec<Vec<usize>> {
    if k == 0 {
        return vec![vec![]];
    }
    if items.len() < k {
        return vec![];
    }
    let mut out = Vec::new();
    for (i, &item) in items.iter().enumerate() {
        for mut rest in k_subsets(&items[i + 1..], k - 1) {
            let mut subset = vec![item];
            subset.append(&mut rest);
            out.push(subset);
        }
    }
    out
}

impl SecretSharing for CaontRs {
    fn name(&self) -> &'static str {
        "CAONT-RS"
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

    fn is_convergent(&self) -> bool {
        true
    }

    fn total_share_size(&self, secret_len: usize) -> usize {
        self.n * self.share_size(secret_len)
    }

    fn split(&self, secret: &[u8]) -> Result<Vec<Vec<u8>>, SharingError> {
        let package = self.build_package(secret);
        // The package length is a multiple of k by construction; the encoder
        // splits it into the k data shares and appends n − k parity shares.
        // Share i goes to cloud i (§3.2), which the caller realises by
        // indexing the returned vector.
        Ok(self.rs.encode_data(&package)?)
    }

    fn convergent_key(&self, secret: &[u8]) -> Option<[u8; HASH_SIZE]> {
        Some(self.padded_hash_key(secret))
    }

    fn split_into(&self, secret: &[u8], out: &mut Vec<Vec<u8>>) -> Result<(), SharingError> {
        self.split_into_keyed(secret, &self.padded_hash_key(secret), out)
    }

    fn split_into_keyed(
        &self,
        secret: &[u8],
        key: &[u8; HASH_SIZE],
        out: &mut Vec<Vec<u8>>,
    ) -> Result<(), SharingError> {
        // Zero-allocation steady state: the package lives in a thread-local
        // scratch buffer and the shares land in the caller's reused buffers.
        PACKAGE_SCRATCH.with(|scratch| {
            let mut package = scratch.borrow_mut();
            self.build_package_keyed(secret, key, &mut package);
            self.rs.encode_into(&package, out)?;
            Ok(())
        })
    }

    fn reconstruct(
        &self,
        shares: &[Option<Vec<u8>>],
        secret_len: usize,
    ) -> Result<Vec<u8>, SharingError> {
        self.try_reconstruct(shares, secret_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn drop_shares(shares: Vec<Vec<u8>>, drop: &[usize]) -> Vec<Option<Vec<u8>>> {
        shares
            .into_iter()
            .enumerate()
            .map(|(i, s)| (!drop.contains(&i)).then_some(s))
            .collect()
    }

    #[test]
    fn split_is_convergent() {
        let scheme = CaontRs::new(4, 3).unwrap();
        let secret: Vec<u8> = (0..8192u32).map(|i| (i * 131 % 256) as u8).collect();
        assert_eq!(
            scheme.split(&secret).unwrap(),
            scheme.split(&secret).unwrap()
        );
        assert!(scheme.is_convergent());
    }

    #[test]
    fn split_into_matches_split_and_reuses_buffers() {
        let scheme = CaontRs::new(4, 3).unwrap();
        let mut shares = Vec::new();
        for len in [0usize, 1, 100, 8192, 500] {
            let secret: Vec<u8> = (0..len as u32).map(|i| (i * 31 % 256) as u8).collect();
            scheme.split_into(&secret, &mut shares).unwrap();
            assert_eq!(shares, scheme.split(&secret).unwrap(), "len {len}");
            // The decode opens the package in place: same bytes back, from
            // the systematic shares and through a parity share.
            for drop in [3, 0] {
                let received = drop_shares(shares.clone(), &[drop]);
                assert_eq!(scheme.reconstruct(&received, len).unwrap(), secret);
            }
        }
        // After the 8192-byte round the buffers retain capacity for reuse.
        assert!(shares[0].capacity() >= scheme.share_size(500));
    }

    #[test]
    fn split_into_default_impl_matches_for_non_convergent_schemes() {
        // The trait's fallback path (split + move) must agree with split for
        // deterministic schemes; IDA is deterministic and does not override.
        let scheme = crate::Ida::new(4, 3).unwrap();
        let secret: Vec<u8> = (0..300u32).map(|i| (i % 256) as u8).collect();
        let mut shares = vec![Vec::from(&b"stale"[..]); 9];
        scheme.split_into(&secret, &mut shares).unwrap();
        assert_eq!(shares, scheme.split(&secret).unwrap());
    }

    #[test]
    fn any_k_of_n_reconstructs() {
        let scheme = CaontRs::new(4, 3).unwrap();
        let secret = b"convergent dispersal tolerates any single cloud failure".to_vec();
        let shares = scheme.split(&secret).unwrap();
        for drop in 0..4 {
            let received = drop_shares(shares.clone(), &[drop]);
            assert_eq!(scheme.reconstruct(&received, secret.len()).unwrap(), secret);
        }
    }

    #[test]
    fn package_layout_matches_paper_equations() {
        // Y = X ⊕ G(h), t = h ⊕ H(Y) — checked field by field.
        let scheme = CaontRs::new(4, 3).unwrap();
        let secret: Vec<u8> = (0..97u32).map(|i| (i % 256) as u8).collect();
        let padded_len = scheme.padded_secret_len(secret.len());
        let package = scheme.build_package(&secret);
        assert_eq!(package.len(), padded_len + HASH_SIZE);
        let mut padded = secret.clone();
        padded.resize(padded_len, 0);
        let h = cdstore_crypto::sha256::hash(&padded);
        let mask = cdstore_crypto::ctr::generator_mask(&h, padded_len);
        for i in 0..padded_len {
            assert_eq!(package[i], padded[i] ^ mask[i], "Y byte {i}");
        }
        let hy = cdstore_crypto::sha256::hash(&package[..padded_len]);
        for i in 0..HASH_SIZE {
            assert_eq!(package[padded_len + i], h[i] ^ hy[i], "t byte {i}");
        }
    }

    #[test]
    fn share_sizes_are_equal_and_package_divides_evenly() {
        for k in 1..8usize {
            let n = k + 2;
            if CaontRs::new(n, k).is_err() {
                continue;
            }
            let scheme = CaontRs::new(n, k).unwrap();
            for len in [0usize, 1, 31, 32, 1000, 8 * 1024] {
                let padded = scheme.padded_secret_len(len);
                assert!(padded >= len);
                assert_eq!((padded + HASH_SIZE) % k, 0);
                let secret = vec![0x5au8; len];
                let shares = scheme.split(&secret).unwrap();
                let size = shares[0].len();
                assert!(shares.iter().all(|s| s.len() == size));
                assert_eq!(size, scheme.share_size(len));
            }
        }
    }

    #[test]
    fn integrity_check_detects_corruption() {
        let scheme = CaontRs::new(4, 3).unwrap();
        let secret = b"the embedded hash detects corrupted decodes".to_vec();
        let mut shares = scheme.split(&secret).unwrap();
        shares[1][3] ^= 0xff;
        let received: Vec<Option<Vec<u8>>> = shares.iter().cloned().map(Some).collect();
        // Using the corrupted share (index 1) in the decode set must fail.
        let bad = vec![
            Some(shares[0].clone()),
            Some(shares[1].clone()),
            Some(shares[2].clone()),
            None,
        ];
        assert_eq!(
            scheme.reconstruct(&bad, secret.len()),
            Err(SharingError::IntegrityCheckFailed)
        );
        // The brute-force path finds a clean subset (0, 2, 3) and succeeds.
        assert_eq!(
            scheme
                .reconstruct_bruteforce(&received, secret.len())
                .unwrap(),
            secret
        );
    }

    #[test]
    fn tampered_package_fails_closed() {
        // A flipped bit anywhere in (Y, t) changes h, so the whole head
        // unmasks to garbage; the caller must get the error and no bytes.
        let scheme = CaontRs::new(4, 3).unwrap();
        let secret: Vec<u8> = (0..1000u32).map(|i| (i * 7 % 256) as u8).collect();
        let package = scheme.build_package(&secret);
        for at in [0, 500, package.len() - HASH_SIZE, package.len() - 1] {
            let mut tampered = package.clone();
            tampered[at] ^= 0x01;
            assert_eq!(
                scheme.open_package(&tampered, secret.len()),
                Err(SharingError::IntegrityCheckFailed),
                "flip at {at}"
            );
            assert_eq!(
                scheme.open_package_in_place(tampered, secret.len()),
                Err(SharingError::IntegrityCheckFailed),
                "flip at {at}, in place"
            );
        }
        assert_eq!(scheme.open_package(&package, secret.len()).unwrap(), secret);
    }

    #[test]
    fn salted_scheme_produces_different_shares() {
        let plain = CaontRs::new(4, 3).unwrap();
        let org_a = CaontRs::with_salt(4, 3, b"org-a").unwrap();
        let org_b = CaontRs::with_salt(4, 3, b"org-b").unwrap();
        let secret = b"shared plaintext across organisations".to_vec();
        let sa = org_a.split(&secret).unwrap();
        assert_ne!(plain.split(&secret).unwrap(), sa);
        assert_ne!(sa, org_b.split(&secret).unwrap());
        // Still convergent within one organisation.
        assert_eq!(sa, org_a.split(&secret).unwrap());
        // And still decodable.
        let received = sa.into_iter().map(Some).collect::<Vec<_>>();
        assert_eq!(org_a.reconstruct(&received, secret.len()).unwrap(), secret);
    }

    #[test]
    fn shares_hide_low_entropy_secrets_structurally() {
        // Even an all-zero secret yields shares that are not all zero (the
        // mask G(h) randomises the head; confidentiality of course still
        // requires a large message space, §3.1).
        let scheme = CaontRs::new(4, 3).unwrap();
        let secret = vec![0u8; 4096];
        let shares = scheme.split(&secret).unwrap();
        for share in &shares {
            assert!(share.iter().any(|&b| b != 0));
        }
    }

    #[test]
    fn wrong_share_count_and_too_few_shares_error() {
        let scheme = CaontRs::new(4, 3).unwrap();
        let shares = scheme.split(b"errors").unwrap();
        assert!(matches!(
            scheme.reconstruct(
                &shares.iter().cloned().map(Some).take(3).collect::<Vec<_>>(),
                6
            ),
            Err(SharingError::WrongShareCount { .. })
        ));
        let received = drop_shares(shares, &[0, 1]);
        assert!(matches!(
            scheme.reconstruct(&received, 6),
            Err(SharingError::NotEnoughShares { .. })
        ));
    }

    #[test]
    fn blowup_approaches_n_over_k_for_large_secrets() {
        let scheme = CaontRs::new(4, 3).unwrap();
        let blowup_small = scheme.storage_blowup(64);
        let blowup_large = scheme.storage_blowup(1 << 20);
        assert!(blowup_large < blowup_small);
        assert!((blowup_large - 4.0 / 3.0).abs() < 0.01);
    }

    #[test]
    fn empty_secret_round_trips() {
        let scheme = CaontRs::new(4, 3).unwrap();
        let shares = scheme.split(b"").unwrap();
        let received: Vec<Option<Vec<u8>>> = shares.into_iter().map(Some).collect();
        assert_eq!(scheme.reconstruct(&received, 0).unwrap(), Vec::<u8>::new());
    }

    proptest! {
        #[test]
        fn round_trips_for_arbitrary_secrets(secret in proptest::collection::vec(any::<u8>(), 0..2048),
                                             n in 3usize..8,
                                             drop_seed: u64) {
            let k = n - 1;
            let scheme = CaontRs::new(n, k).unwrap();
            let shares = scheme.split(&secret).unwrap();
            let drop = (drop_seed as usize) % n;
            let received = drop_shares(shares, &[drop]);
            prop_assert_eq!(scheme.reconstruct(&received, secret.len()).unwrap(), secret);
        }

        #[test]
        fn identical_secrets_from_different_users_converge(secret in proptest::collection::vec(any::<u8>(), 1..512)) {
            // Two independent scheme instances (two CDStore clients) produce
            // identical shares for identical content — the property that
            // enables inter-user deduplication.
            let client_a = CaontRs::new(4, 3).unwrap();
            let client_b = CaontRs::new(4, 3).unwrap();
            prop_assert_eq!(client_a.split(&secret).unwrap(), client_b.split(&secret).unwrap());
        }

        #[test]
        fn package_round_trips(secret in proptest::collection::vec(any::<u8>(), 0..1024)) {
            let scheme = CaontRs::new(4, 3).unwrap();
            let package = scheme.build_package(&secret);
            prop_assert_eq!(scheme.open_package(&package, secret.len()).unwrap(), secret);
        }
    }
}
