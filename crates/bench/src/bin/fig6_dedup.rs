//! Figure 6: deduplication efficiency of CDStore on the FSL-like and VM-like
//! workloads with (n, k) = (4, 3).
//!
//! * Figure 6(a): intra-user and inter-user deduplication savings per weekly
//!   backup.
//! * Figure 6(b): cumulative sizes of logical data, logical shares,
//!   transferred shares, and physical shares.
//!
//! Run with `cargo run --release -p cdstore_bench --bin fig6_dedup [scale]`,
//! where `scale` multiplies the per-user chunk counts (default 1).

use cdstore_workloads::{weekly_dedup, FslConfig, FslWorkload, VmConfig, VmWorkload, Workload};

fn gb(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0 * 1024.0)
}

fn report(name: &str, snapshots: &[Vec<cdstore_workloads::Snapshot>], n: usize, k: usize) {
    let weekly = weekly_dedup(snapshots, n, k);
    println!("--- {name} dataset, (n, k) = ({n}, {k}) ---");
    println!("Figure 6(a): weekly deduplication savings");
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
    println!();
    println!("Figure 6(b): cumulative data and share sizes (GB)");
    println!(
        "{:<6} {:>14} {:>16} {:>18} {:>16}",
        "Week", "Logical data", "Logical shares", "Transferred shares", "Physical shares"
    );
    for week in &weekly {
        println!(
            "{:<6} {:>14.3} {:>16.3} {:>18.3} {:>16.3}",
            week.week + 1,
            gb(week.cumulative.logical_bytes),
            gb(week.cumulative.logical_share_bytes),
            gb(week.cumulative.transferred_share_bytes),
            gb(week.cumulative.physical_share_bytes)
        );
    }
    let last = weekly.last().expect("at least one week");
    println!(
        "After {} weeks: physical shares are {:.1}% of the logical data (dedup ratio {:.1}x)",
        weekly.len(),
        last.cumulative.physical_to_logical() * 100.0,
        last.cumulative.dedup_ratio()
    );
    println!();
}

fn main() {
    let scale: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(1);
    let (n, k) = (4, 3);

    let fsl = FslWorkload::new(FslConfig {
        initial_chunks_per_user: 400 * scale,
        ..Default::default()
    });
    report("FSL", &fsl.snapshots(), n, k);

    let vm = VmWorkload::new(VmConfig {
        chunks_per_image: 300 * scale,
        ..Default::default()
    });
    report("VM", &vm.snapshots(), n, k);

    println!("Paper: FSL intra-user savings >= 94.2% after week 1, inter-user <= 12.9%;");
    println!(
        "VM intra-user savings >= 98.0% after week 1, inter-user 93.4% in week 1 then 11.8-47.0%;"
    );
    println!("after 16 weeks physical shares are ~6.3% (FSL) and ~0.8% (VM) of logical data.");
}
