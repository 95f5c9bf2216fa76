//! Deduplication analysis of the synthetic FSL-like and VM-like workloads:
//! the weekly intra-user and inter-user savings of Figure 6, computed both by
//! the fast bookkeeping analyser and by replaying a scaled-down slice of the
//! workload through the real CDStore system to show the two agree.
//!
//! Run with `cargo run --release --example dedup_analysis`.

use cdstore_core::{CdStore, CdStoreConfig};
use cdstore_workloads::{weekly_dedup, FslConfig, FslWorkload, VmConfig, VmWorkload, Workload};

fn main() {
    let (n, k) = (4usize, 3usize);

    for (name, snapshots) in [
        (
            "FSL-like",
            FslWorkload::new(FslConfig {
                users: 4,
                weeks: 6,
                initial_chunks_per_user: 200,
                ..Default::default()
            })
            .snapshots(),
        ),
        (
            "VM-like",
            VmWorkload::new(VmConfig {
                users: 8,
                weeks: 6,
                chunks_per_image: 150,
                ..Default::default()
            })
            .snapshots(),
        ),
    ] {
        println!("=== {name} workload ===");
        // Fast analysis (what the Figure 6 harness uses at scale).
        let weekly = weekly_dedup(&snapshots, n, k);
        println!(
            "{:<6} {:>18} {:>18}",
            "Week", "Intra-user saving", "Inter-user saving"
        );
        for week in &weekly {
            println!(
                "{:<6} {:>17.1}% {:>17.1}%",
                week.week + 1,
                week.stats.intra_user_saving() * 100.0,
                week.stats.inter_user_saving() * 100.0
            );
        }

        // Replay the first two weeks through the real system and compare.
        let store = CdStore::new(CdStoreConfig::new(n, k).expect("valid (n, k)"));
        for week in snapshots.iter().take(2) {
            for snapshot in week {
                store
                    .backup_chunks(snapshot.user, &snapshot.pathname(), &snapshot.materialize())
                    .expect("backup succeeds");
            }
        }
        let stats = store.stats();
        let system = stats.dedup;
        let analysed = weekly[1].cumulative;
        println!(
            "system replay (2 weeks): intra {:.1}% vs analysed {:.1}%, inter {:.1}% vs analysed {:.1}%",
            system.intra_user_saving() * 100.0,
            analysed.intra_user_saving() * 100.0,
            system.inter_user_saving() * 100.0,
            analysed.inter_user_saving() * 100.0
        );
        // The client's share-fingerprint memo: how many secrets it named
        // without encoding, and how many of those a server did not own after
        // all (another user's content), so they were encoded once more.
        let secrets = stats.memo_hits + stats.memo_misses;
        println!(
            "share-fingerprint memo: {:.1}% of {secrets} secrets hit, {:.1}% of the hits encoded after all",
            stats.memo_hits as f64 / secrets.max(1) as f64 * 100.0,
            stats.memo_materialised as f64 / stats.memo_hits.max(1) as f64 * 100.0
        );
        println!();
    }
}
