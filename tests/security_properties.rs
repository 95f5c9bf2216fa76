//! Integration tests for CDStore's security properties (§3): keyless
//! confidentiality, integrity, convergent determinism, and resistance to the
//! deduplication side-channel attacks.

use cdstore_core::{CdStore, CdStoreClient, CdStoreConfig, CdStoreServer, ServerTransport};
use cdstore_crypto::Fingerprint;
use cdstore_secretsharing::{CaontRs, SecretSharing, SharingError};

fn sensitive_data(len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i / 640) as u8).wrapping_mul(29))
        .collect()
}

#[test]
fn convergent_dispersal_is_deterministic_across_independent_clients() {
    // Two users running independent client instances produce byte-identical
    // shares for identical chunks — the property inter-user dedup relies on.
    let a = CaontRs::new(4, 3).unwrap();
    let b = CaontRs::new(4, 3).unwrap();
    for size in [100usize, 4096, 8191, 16384] {
        let secret = sensitive_data(size);
        assert_eq!(a.split(&secret).unwrap(), b.split(&secret).unwrap());
    }
}

#[test]
fn fewer_than_k_clouds_see_only_masked_data() {
    // No share (nor any k-1 shares) contains a recognisable run of the
    // original plaintext: the CAONT mask covers every data share, and parity
    // shares are combinations of masked shares.
    let scheme = CaontRs::new(4, 3).unwrap();
    let secret = vec![0x41u8; 16 * 1024]; // highly structured plaintext
    let shares = scheme.split(&secret).unwrap();
    for share in &shares {
        let longest_run = share
            .windows(32)
            .filter(|w| w.iter().all(|&b| b == 0x41))
            .count();
        assert_eq!(longest_run, 0, "a share leaked a 32-byte plaintext run");
    }
}

#[test]
fn integrity_violations_are_detected_and_survivable() {
    let scheme = CaontRs::new(4, 3).unwrap();
    let secret = sensitive_data(8192);
    let mut shares = scheme.split(&secret).unwrap();
    // An attacker (or bit rot) flips bytes in one cloud's share.
    for byte in shares[2].iter_mut().step_by(97) {
        *byte ^= 0x55;
    }
    let received: Vec<Option<Vec<u8>>> = shares.iter().cloned().map(Some).collect();
    // A decode that uses the corrupted share fails the embedded hash check.
    let with_corrupt = vec![
        Some(shares[0].clone()),
        Some(shares[1].clone()),
        Some(shares[2].clone()),
        None,
    ];
    assert_eq!(
        scheme.reconstruct(&with_corrupt, secret.len()),
        Err(SharingError::IntegrityCheckFailed)
    );
    // The brute-force subset decode finds the clean subset.
    assert_eq!(
        scheme
            .reconstruct_bruteforce(&received, secret.len())
            .unwrap(),
        secret
    );
}

#[test]
fn intra_user_dedup_reply_does_not_leak_other_users_data() {
    // The side-channel of Harnik et al.: an attacker asks "would this chunk
    // be deduplicated?" to learn whether someone else already stored it.
    // CDStore answers intra-user queries from the attacker's own history
    // only, so the reply is identical whether or not a victim stored it.
    let victim_servers: Vec<CdStoreServer> = (0..4).map(CdStoreServer::new).collect();
    let empty_servers: Vec<CdStoreServer> = (0..4).map(CdStoreServer::new).collect();

    let victim = CdStoreClient::new(1, 4, 3).unwrap();
    let secret_doc = sensitive_data(64 * 1024);
    victim
        .upload(&victim_servers, "/victim/salary.tar", &secret_doc)
        .unwrap();

    // The attacker guesses the victim's document and probes both worlds.
    let attacker = CdStoreClient::new(666, 4, 3).unwrap();
    let scheme = CaontRs::new(4, 3).unwrap();
    let guess_shares = scheme.split(&secret_doc[..8192]).unwrap();
    for cloud in 0..4usize {
        let fp = Fingerprint::of(&guess_shares[cloud]);
        let with_victim = victim_servers[cloud]
            .intra_user_query(attacker.user(), &[fp])
            .unwrap();
        let without_victim = empty_servers[cloud]
            .intra_user_query(attacker.user(), &[fp])
            .unwrap();
        assert_eq!(
            with_victim, without_victim,
            "the dedup reply must not depend on other users' stored data"
        );
        assert_eq!(with_victim, vec![false]);
    }
}

#[test]
fn knowing_a_fingerprint_does_not_grant_share_ownership() {
    // The proof-of-ownership attack: an attacker who learns a fingerprint
    // must not be able to fetch the share, because the server re-fingerprints
    // content itself and scopes retrieval to each user's own uploads.
    let servers: Vec<CdStoreServer> = (0..4).map(CdStoreServer::new).collect();
    let owner = CdStoreClient::new(1, 4, 3).unwrap();
    let data = sensitive_data(32 * 1024);
    owner.upload(&servers, "/owner/tax.tar", &data).unwrap();

    let scheme = CaontRs::new(4, 3).unwrap();
    let chunk_guess = scheme.split(&data[..8192]).unwrap();
    for cloud in 0..4usize {
        let fp = Fingerprint::of(&chunk_guess[cloud]);
        let result = servers[cloud].fetch_shares(666, &[fp]);
        assert!(
            result.is_err(),
            "cloud {cloud} must refuse a non-owner fetch"
        );
    }
}

#[test]
fn another_user_cannot_restore_by_guessing_the_pathname() {
    let store = CdStore::new(CdStoreConfig::new(4, 3).unwrap());
    let data = sensitive_data(100_000);
    store.backup(1, "/hr/reviews.tar", &data).unwrap();
    assert!(store.restore(2, "/hr/reviews.tar").is_err());
    assert_eq!(store.restore(1, "/hr/reviews.tar").unwrap(), data);
}

#[test]
fn salted_deployments_do_not_share_dedup_identities() {
    // An organisation-wide salt scopes convergent shares to the organisation,
    // so two organisations backing up the same public file do not produce
    // cross-organisation-identifiable shares.
    let org_a = CaontRs::with_salt(4, 3, b"org-a-secret").unwrap();
    let org_b = CaontRs::with_salt(4, 3, b"org-b-secret").unwrap();
    let common_file = sensitive_data(16 * 1024);
    assert_ne!(
        org_a.split(&common_file).unwrap(),
        org_b.split(&common_file).unwrap()
    );
    // But within one organisation the scheme is still convergent.
    assert_eq!(
        org_a.split(&common_file).unwrap(),
        org_a.split(&common_file).unwrap()
    );
}
