//! Golden-vector regression tests pinning the exact CAONT-RS share bytes
//! for fixed inputs.
//!
//! CAONT-RS is *convergent*: the shares are a deterministic function of the
//! secret (and the optional organisation salt). Cross-version inter-user
//! deduplication therefore depends on every release producing bit-identical
//! shares — a refactor that silently changes the package layout, the hash,
//! the CTR mask, or the Reed-Solomon generator would fragment existing
//! deployments' dedup space. These vectors were produced by the
//! implementation at the time the suite was written and must never change.

use cdstore_crypto::sha256;
use cdstore_secretsharing::{CaontRs, SecretSharing};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    s.as_bytes()
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

/// Shares of the empty secret under (n, k) = (4, 3), no salt.
const EMPTY_SHARES: [&str; 4] = [
    "f5499fd541013679d1f67b",
    "f2c5fd14a06ba2cf7e9461",
    "8b57d71a7d5fb129604d6d",
    "7a7b5533b2518801be1463",
];

/// Shares of `TEXT_SECRET` under (n, k) = (4, 3), no salt.
const TEXT_SECRET: &[u8] = b"CDStore golden vector: convergent dispersal";
const TEXT_SHARES: [&str; 4] = [
    "a41f68a3a86da3adbc8775f00c0935804317a07d438a1011be",
    "cbff1407540c0de6e04d7ff669f510d00f55fba1327bebffde",
    "5ee16eb8e083312e9a282ecc6fd585b2acdc60e9813385a12d",
    "cbcff1d778b02946e528518f6dc6fb79c9222d10b7097002cb",
];

/// SHA-256 fingerprints of the four shares of the 8 KiB Knuth-sequence
/// secret (see [`big_secret`]), each share being 2742 bytes.
const BIG_SHARE_LEN: usize = 2742;
const BIG_SHARE_HASHES: [&str; 4] = [
    "4d4b08ed910c8d8b03949e87a7a721c044cc93607524a5dcf8230e7a92b14b1a",
    "2e5dbc7a19be0f837e1dff8c6e3015df107ef157e768ee30fc8036168f82c725",
    "dede8d18d878ca82c49be26b014d1c74ffaa473c6cc6ff173d496d19f3c4f82a",
    "791aec7e74cfd52875eaa61fc6c6be8daae5dc78d5ffa7b79b5d422a45610f43",
];

/// Shares of `b"salted golden vector"` under (4, 3) with salt
/// `b"org-secret"`.
const SALTED_SHARES: [&str; 4] = [
    "86b31bae2034bea239119b1646c56072709e",
    "7f4b9069a89a1e0c617bdf559d05674f95ee",
    "e5798d696afe0aa006aa4ac314adb64370ce",
    "ef8abd061dd1950bc3bb0e800229b9b8ee5e",
];

fn big_secret() -> Vec<u8> {
    (0..8192u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect()
}

fn assert_pinned(scheme: &CaontRs, secret: &[u8], pinned: &[&str; 4]) {
    let shares = scheme.split(secret).unwrap();
    for (i, (share, expected)) in shares.iter().zip(pinned).enumerate() {
        assert_eq!(
            hex(share),
            *expected,
            "share {i} drifted from the pinned vector — this breaks \
             cross-version inter-user deduplication"
        );
    }
    // The keyed split (what a share-fingerprint memo miss runs) lands the
    // same pinned bytes from the key alone.
    let key = scheme
        .convergent_key(secret)
        .expect("CAONT-RS is convergent");
    let mut keyed = Vec::new();
    scheme.split_into_keyed(secret, &key, &mut keyed).unwrap();
    assert_eq!(keyed, shares, "keyed split drifted from split");
    // The pinned bytes (as a server would have stored them in an older
    // version) still decode to the secret with today's code.
    let received: Vec<Option<Vec<u8>>> = pinned.iter().map(|s| Some(unhex(s))).collect();
    assert_eq!(scheme.reconstruct(&received, secret.len()).unwrap(), secret);
}

#[test]
fn empty_secret_shares_are_pinned() {
    let scheme = CaontRs::new(4, 3).unwrap();
    assert_pinned(&scheme, b"", &EMPTY_SHARES);
}

#[test]
fn text_secret_shares_are_pinned() {
    let scheme = CaontRs::new(4, 3).unwrap();
    assert_pinned(&scheme, TEXT_SECRET, &TEXT_SHARES);
}

#[test]
fn large_secret_share_fingerprints_are_pinned() {
    let scheme = CaontRs::new(4, 3).unwrap();
    let secret = big_secret();
    let shares = scheme.split(&secret).unwrap();
    for (i, (share, expected)) in shares.iter().zip(&BIG_SHARE_HASHES).enumerate() {
        assert_eq!(share.len(), BIG_SHARE_LEN, "share {i} length drifted");
        assert_eq!(
            hex(&sha256::hash(share)),
            *expected,
            "share {i} fingerprint drifted from the pinned vector"
        );
    }
}

#[test]
fn large_secret_batch_fingerprints_match_pinned_vectors() {
    // Same pinned digests, computed through the batched hashing entry point
    // the client uses (`sha256::hash_batch`). On SHA-NI hosts this runs the
    // hardware path, on scalar hosts the 4-lane interleaved scheduler, and
    // under CDSTORE_FORCE_SCALAR=1 the portable fallback — CI runs this
    // suite in both dispatch modes so every path must reproduce the vectors.
    let scheme = CaontRs::new(4, 3).unwrap();
    let secret = big_secret();
    let shares = scheme.split(&secret).unwrap();
    let refs: Vec<&[u8]> = shares.iter().map(|s| s.as_slice()).collect();
    let digests = sha256::hash_batch(&refs);
    assert_eq!(digests.len(), 4);
    for (i, (digest, expected)) in digests.iter().zip(&BIG_SHARE_HASHES).enumerate() {
        assert_eq!(
            hex(digest),
            *expected,
            "batched fingerprint of share {i} drifted from the pinned vector"
        );
    }
}

#[test]
fn salted_secret_shares_are_pinned() {
    let scheme = CaontRs::with_salt(4, 3, b"org-secret").unwrap();
    assert_pinned(&scheme, b"salted golden vector", &SALTED_SHARES);
}
