//! Pins every seeded input the workspace generates: the FSL and VM traces
//! and the benchmark secrets. A change to the generator behind them must
//! reproduce these streams bit for bit, or every trace, dedup ratio and
//! benchmark input silently moves.

use cdstore_bench::random_secrets;
use cdstore_crypto::sha256::Sha256;
use cdstore_workloads::{FslConfig, FslWorkload, VmConfig, VmWorkload, Workload};

fn hex(digest: [u8; 32]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

fn hash_chunk_lists(workload: &dyn Workload) -> String {
    let mut h = Sha256::new();
    for week in workload.snapshots() {
        for snapshot in week {
            h.update(&snapshot.user.to_le_bytes());
            h.update(&(snapshot.week as u64).to_le_bytes());
            h.update(&(snapshot.chunks.len() as u64).to_le_bytes());
            for chunk in &snapshot.chunks {
                h.update(&chunk.content_id.to_le_bytes());
                h.update(&chunk.size.to_le_bytes());
            }
        }
    }
    hex(h.finalize())
}

#[test]
fn fsl_and_vm_traces_are_pinned() {
    let mut h = Sha256::new();
    for seed in 1..=3 {
        let fsl = FslWorkload::new(FslConfig {
            seed,
            ..FslConfig::small()
        });
        let vm = VmWorkload::new(VmConfig {
            seed,
            ..VmConfig::small()
        });
        h.update(hash_chunk_lists(&fsl).as_bytes());
        h.update(hash_chunk_lists(&vm).as_bytes());
    }
    assert_eq!(
        hex(h.finalize()),
        "5b128d66882816b391abeb4c5e6ee86e2bc6a60615e775fdd1096a5d722a3aea"
    );
}

#[test]
fn random_secrets_are_pinned() {
    let secrets = random_secrets(1 << 20, 8192, 7);
    let mut h = Sha256::new();
    for secret in &secrets {
        h.update(&(secret.len() as u64).to_le_bytes());
        h.update(secret);
    }
    assert_eq!(secrets.len(), 127);
    assert_eq!(
        hex(h.finalize()),
        "6663e3ff980a31a0c25a17f879a8b21261476c3e5be8c8ee53145df1f4a243e9"
    );
}
