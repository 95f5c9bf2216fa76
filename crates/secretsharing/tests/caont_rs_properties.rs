//! Property tests for CAONT-RS (§3.2): round-trips over arbitrary secret
//! sizes up to 64 KiB, reconstruction from every k-subset of shares,
//! determinism across independently-constructed schemes, and corruption
//! detection.
//!
//! Case counts are reduced under `debug_assertions` so plain `cargo test`
//! stays fast; CI additionally runs this suite in release mode at full size.

use cdstore_secretsharing::{CaontRs, SecretSharing, SharingError};
use proptest::prelude::*;

const CASES: u32 = if cfg!(debug_assertions) { 6 } else { 32 };

/// All `k`-element subsets of `{0, …, n-1}`.
fn k_subsets(n: usize, k: usize) -> Vec<Vec<usize>> {
    fn go(start: usize, n: usize, k: usize, prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if k == 0 {
            out.push(prefix.clone());
            return;
        }
        for i in start..=n - k {
            prefix.push(i);
            go(i + 1, n, k - 1, prefix, out);
            prefix.pop();
        }
    }
    let mut out = Vec::new();
    go(0, n, k, &mut Vec::new(), &mut out);
    out
}

/// Keeps only the share slots named in `keep`, as after cloud failures.
fn keep_only(shares: &[Vec<u8>], keep: &[usize]) -> Vec<Option<Vec<u8>>> {
    shares
        .iter()
        .enumerate()
        .map(|(i, s)| keep.contains(&i).then(|| s.clone()))
        .collect()
}

#[test]
fn every_k_subset_reconstructs_for_small_parameter_sets() {
    let secret: Vec<u8> = (0..4096u32).map(|i| (i * 31 % 251) as u8).collect();
    for (n, k) in [(4usize, 3usize), (5, 3), (6, 4), (5, 2), (8, 5)] {
        let scheme = CaontRs::new(n, k).unwrap();
        let shares = scheme.split(&secret).unwrap();
        let subsets = k_subsets(n, k);
        assert!(subsets.len() >= n); // C(n, k) distinct decode sets
        for subset in subsets {
            let received = keep_only(&shares, &subset);
            assert_eq!(
                scheme.reconstruct(&received, secret.len()).unwrap(),
                secret,
                "n={n} k={k} subset={subset:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn round_trips_for_secret_sizes_up_to_64_kib(
        secret in proptest::collection::vec(any::<u8>(), 1..65536usize)
    ) {
        let scheme = CaontRs::new(4, 3).unwrap();
        let shares = scheme.split(&secret).unwrap();
        prop_assert_eq!(shares.len(), 4);
        for share in &shares {
            prop_assert_eq!(share.len(), scheme.share_size(secret.len()));
        }
        // Every one of the C(4, 3) = 4 decode subsets recovers the secret,
        // as does the full share set.
        for subset in k_subsets(4, 3) {
            let received = keep_only(&shares, &subset);
            prop_assert_eq!(
                &scheme.reconstruct(&received, secret.len()).unwrap(),
                &secret
            );
        }
        let all: Vec<Option<Vec<u8>>> = shares.into_iter().map(Some).collect();
        prop_assert_eq!(scheme.reconstruct(&all, secret.len()).unwrap(), secret);
    }

    #[test]
    fn independently_constructed_schemes_split_identically(
        secret in proptest::collection::vec(any::<u8>(), 1..8192usize)
    ) {
        // Convergence is what inter-user deduplication rests on: any two
        // clients (scheme instances) must derive byte-identical shares.
        let client_a = CaontRs::new(4, 3).unwrap();
        let client_b = CaontRs::new(4, 3).unwrap();
        let shares = client_a.split(&secret).unwrap();
        prop_assert_eq!(&shares, &client_b.split(&secret).unwrap());
        // Re-splitting on the same instance is stable too.
        prop_assert_eq!(&shares, &client_a.split(&secret).unwrap());
        // A shared organisation salt is equally deterministic, but yields
        // different shares than the unsalted scheme.
        let org_a = CaontRs::with_salt(4, 3, b"org").unwrap();
        let org_b = CaontRs::with_salt(4, 3, b"org").unwrap();
        let salted = org_a.split(&secret).unwrap();
        prop_assert_eq!(&salted, &org_b.split(&secret).unwrap());
        prop_assert!(salted != shares);
        // The keyed split is the same function of the secret: the key is the
        // `h` the package is built from (over salt, secret and padding), and
        // splitting with it hashes nothing twice and changes no byte.
        for (scheme, expected) in [(&client_a, &shares), (&org_a, &salted)] {
            let key = scheme.convergent_key(&secret).expect("CAONT-RS is convergent");
            let mut keyed = vec![b"stale".to_vec()];
            scheme.split_into_keyed(&secret, &key, &mut keyed).unwrap();
            prop_assert_eq!(&keyed, expected);
            let mut unkeyed = Vec::new();
            scheme.split_into(&secret, &mut unkeyed).unwrap();
            prop_assert_eq!(&unkeyed, expected);
        }
        prop_assert!(client_a.convergent_key(&secret) != org_a.convergent_key(&secret));
    }

    #[test]
    fn fewer_than_k_shares_never_reconstruct(
        secret in proptest::collection::vec(any::<u8>(), 1..4096usize),
        drop_seed: u64
    ) {
        let scheme = CaontRs::new(4, 3).unwrap();
        let shares = scheme.split(&secret).unwrap();
        // Keep only k - 1 = 2 shares.
        let first = (drop_seed % 4) as usize;
        let second = (first + 1 + (drop_seed / 4 % 3) as usize) % 4;
        let received = keep_only(&shares, &[first, second]);
        prop_assert!(matches!(
            scheme.reconstruct(&received, secret.len()),
            Err(SharingError::NotEnoughShares { needed: 3, available: 2 })
        ));
    }

    #[test]
    fn corrupting_any_decoded_share_is_detected(
        secret in proptest::collection::vec(any::<u8>(), 1..4096usize),
        corrupt_seed: u64
    ) {
        let scheme = CaontRs::new(4, 3).unwrap();
        let mut shares = scheme.split(&secret).unwrap();
        // Corrupt one byte of one share and decode from a subset that uses
        // the corrupted share: the embedded hash must catch it.
        let victim = (corrupt_seed % 4) as usize;
        let pos = (corrupt_seed / 4) as usize % shares[victim].len();
        shares[victim][pos] ^= 0x01;
        let subset: Vec<usize> = (0..4).filter(|&i| i != (victim + 1) % 4).collect();
        let received = keep_only(&shares, &subset);
        prop_assert_eq!(
            scheme.reconstruct(&received, secret.len()),
            Err(SharingError::IntegrityCheckFailed)
        );
    }
}
