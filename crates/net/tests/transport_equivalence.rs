//! The in-process server and a remote one answer alike. One scripted
//! sequence of calls runs against an `Arc<CdStoreServer>` and against a
//! `RemoteServer` fronting an identical fresh server on loopback; at every
//! step both must return equal values, or errors of the same variant.

use std::fmt::Debug;
use std::sync::Arc;

use cdstore_core::{
    CdStoreError, CdStoreServer, FileRecipe, GcConfig, RecipeEntry, ServerTransport, ShareMetadata,
};
use cdstore_crypto::Fingerprint;
use cdstore_net::{LoopbackCluster, NetClientConfig};

const ALICE: u64 = 1;
const BOB: u64 = 2;

/// One step's outcome: the value's `Debug` form, or the error's variant.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Value(String),
    Error(&'static str),
}

fn outcome<T: Debug>(result: Result<T, CdStoreError>) -> Outcome {
    match result {
        Ok(value) => Outcome::Value(format!("{value:?}")),
        Err(e) => Outcome::Error(match e {
            CdStoreError::InvalidConfig(_) => "InvalidConfig",
            CdStoreError::Sharing(_) => "Sharing",
            CdStoreError::Storage(_) => "Storage",
            CdStoreError::NotEnoughClouds { .. } => "NotEnoughClouds",
            CdStoreError::FileNotFound(_) => "FileNotFound",
            CdStoreError::MissingShare(_) => "MissingShare",
            CdStoreError::IntegrityFailure(_) => "IntegrityFailure",
            CdStoreError::InconsistentMetadata(_) => "InconsistentMetadata",
            CdStoreError::Remote(_) => "Remote",
            CdStoreError::Io(_) => "Io",
        }),
    }
}

fn share(tag: u8, len: usize) -> (ShareMetadata, Vec<u8>) {
    let data: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(31) ^ tag).collect();
    let meta = ShareMetadata {
        fingerprint: Fingerprint::of(&data),
        share_size: len as u32,
        secret_seq: 0,
        secret_size: len as u32 * 3,
    };
    (meta, data)
}

fn recipe_of(shares: &[&(ShareMetadata, Vec<u8>)]) -> FileRecipe {
    FileRecipe {
        file_size: shares.iter().map(|(m, _)| u64::from(m.secret_size)).sum(),
        entries: shares
            .iter()
            .map(|(m, _)| RecipeEntry {
                share_fingerprint: m.fingerprint,
                secret_size: m.secret_size,
            })
            .collect(),
    }
}

/// Runs the script against `t`, naming each step's outcome.
fn script(t: &dyn ServerTransport) -> Vec<(&'static str, Outcome)> {
    let (a, b, c, d) = (share(1, 900), share(2, 700), share(3, 1100), share(4, 500));
    let fp = |s: &(ShareMetadata, Vec<u8>)| s.0.fingerprint;
    let one = recipe_of(&[&a, &b, &c, &a]);
    let two = recipe_of(&[&a]);
    let whole = one.num_secrets();
    let mut steps = Vec::new();
    let mut step = |name, result| steps.push((name, result));

    step("cloud_index", Outcome::Value(t.cloud_index().to_string()));
    step(
        "intra_user_query before",
        outcome(t.intra_user_query(ALICE, &[fp(&a), fp(&b), fp(&c)])),
    );
    step(
        "store_shares new",
        outcome(t.store_shares(ALICE, &[a.clone(), b.clone()])),
    );
    step(
        "intra_user_query after",
        outcome(t.intra_user_query(ALICE, &[fp(&a), fp(&b), fp(&c)])),
    );
    step(
        "store_shares inter-user duplicate",
        outcome(t.store_shares(BOB, std::slice::from_ref(&a))),
    );
    step(
        "commit_file with a last batch",
        outcome(t.commit_file(
            ALICE,
            b"/one",
            std::slice::from_ref(&c),
            &one,
            &[fp(&a), fp(&b)],
        )),
    );
    step(
        "put_file",
        outcome(t.put_file(BOB, b"/two", &two, &[fp(&a)])),
    );
    step(
        "store_shares abandoned",
        outcome(t.store_shares(ALICE, std::slice::from_ref(&d))),
    );
    step(
        "release_uploads",
        outcome(t.release_uploads(ALICE, &[fp(&d)])),
    );
    step("has_file true", outcome(t.has_file(ALICE, b"/one")));
    step("has_file false", outcome(t.has_file(BOB, b"/one")));
    step("get_recipe", outcome(t.get_recipe(ALICE, b"/one")));
    step("get_recipe missing", outcome(t.get_recipe(ALICE, b"/none")));
    step(
        "open_file zero window",
        outcome(t.open_file(ALICE, b"/one", 0, u64::MAX)),
    );
    step(
        "open_file one secret",
        outcome(t.open_file(ALICE, b"/one", 1, u64::MAX)),
    );
    step(
        "open_file whole file",
        outcome(t.open_file(ALICE, b"/one", whole, u64::MAX)),
    );
    step(
        "fetch_shares owned",
        outcome(t.fetch_shares(ALICE, &[fp(&c), fp(&a)])),
    );
    step(
        "fetch_shares another user's share",
        outcome(t.fetch_shares(BOB, &[fp(&b)])),
    );
    step("delete_file", outcome(t.delete_file(ALICE, b"/one")));
    step("delete_file again", outcome(t.delete_file(ALICE, b"/one")));
    step("flush", outcome(t.flush()));
    step("gc_with", outcome(t.gc_with(GcConfig::default())));
    step("fetch_shares kept", outcome(t.fetch_shares(BOB, &[fp(&a)])));
    step("probe", outcome(t.probe()));
    steps
}

#[test]
fn in_process_and_remote_servers_answer_alike() {
    let local: Arc<CdStoreServer> = Arc::new(CdStoreServer::new(2));
    let in_process = script(&local);

    let cluster =
        LoopbackCluster::spawn_with_servers(vec![Arc::new(CdStoreServer::new(2))]).unwrap();
    let remote = cluster.transports(NetClientConfig::default()).unwrap();
    let over_wire = script(&remote[0]);

    assert_eq!(in_process.len(), over_wire.len());
    for ((name, here), (_, there)) in in_process.iter().zip(&over_wire) {
        assert_eq!(here, there, "step {name:?} differs");
    }
    // The script reaches what it is meant to reach on both.
    let named = |step: &str| &in_process.iter().find(|(n, _)| *n == step).unwrap().1;
    assert_eq!(
        named("fetch_shares another user's share"),
        &Outcome::Error("MissingShare")
    );
    assert_eq!(named("get_recipe missing"), &Outcome::Error("FileNotFound"));
    assert_eq!(named("delete_file"), &Outcome::Value("true".into()));
    assert_eq!(named("delete_file again"), &Outcome::Value("false".into()));
    assert_eq!(named("has_file true"), &Outcome::Value("true".into()));
    assert_eq!(named("has_file false"), &Outcome::Value("false".into()));
    assert!(
        matches!(named("store_shares inter-user duplicate"), Outcome::Value(v) if v.contains("DuplicateInterUser"))
    );
}
