//! Figure 9: monetary cost savings of CDStore over the AONT-RS multi-cloud
//! baseline and the single-cloud baseline.
//!
//! * Figure 9(a): savings versus the weekly backup size (0.25–256 TB) at a
//!   fixed 10x deduplication ratio.
//! * Figure 9(b): savings versus the deduplication ratio (1–50x) at a fixed
//!   16 TB weekly backup size.
//!
//! Run with `cargo run --release -p cdstore_bench --bin fig9_cost`.

use cdstore_cost::{CostModel, Scenario, TB};

fn main() {
    let model = CostModel::new();

    println!("Figure 9(a): cost savings vs weekly backup size (dedup ratio 10x, 26-week retention, (4, 3))");
    println!(
        "{:<14} {:>14} {:>16} {:>16} {:>14} {:>16} {:>18}",
        "Weekly (TB)",
        "CDStore $/mo",
        "AONT-RS $/mo",
        "1-cloud $/mo",
        "Instance",
        "vs AONT-RS",
        "vs single-cloud"
    );
    let mut weekly_tb = 0.25;
    while weekly_tb <= 256.0 {
        let c = model.evaluate(&Scenario::case_study(weekly_tb * TB, 10.0));
        println!(
            "{:<14} {:>14.0} {:>16.0} {:>16.0} {:>14} {:>15.1}% {:>17.1}%",
            weekly_tb,
            c.cdstore.total_usd(),
            c.aont_rs.total_usd(),
            c.single_cloud.total_usd(),
            c.cdstore.instance.as_deref().unwrap_or("-"),
            c.saving_vs_aont_rs() * 100.0,
            c.saving_vs_single_cloud() * 100.0
        );
        weekly_tb *= 2.0;
    }

    println!();
    println!("Figure 9(b): cost savings vs deduplication ratio (weekly backup 16 TB)");
    println!(
        "{:<14} {:>14} {:>16} {:>18}",
        "Dedup ratio", "CDStore $/mo", "vs AONT-RS", "vs single-cloud"
    );
    for ratio in [1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 40.0, 50.0] {
        let c = model.evaluate(&Scenario::case_study(16.0 * TB, ratio));
        println!(
            "{:<14} {:>14.0} {:>15.1}% {:>17.1}%",
            ratio,
            c.cdstore.total_usd(),
            c.saving_vs_aont_rs() * 100.0,
            c.saving_vs_single_cloud() * 100.0
        );
    }
    println!();
    println!(
        "Paper: at 16 TB weekly and 10x dedup, the single-cloud and AONT-RS systems cost about"
    );
    println!("US$12,250 and US$16,400 per month; CDStore costs about US$3,540 including VM costs,");
    println!(
        "a saving of at least 70%; savings grow with the weekly size and the dedup ratio, and sit"
    );
    println!(
        "around 70-80% for ratios of 10-50x; the jagged steps come from EC2 instance switching."
    );
}
