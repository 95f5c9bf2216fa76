//! Figure 7(a): baseline single-client transfer speeds — upload of unique
//! data, upload of duplicate data, and download — with (n, k) = (4, 3).
//!
//! Both rows are measured end to end on this host: the same client drives
//! four real `cdstore_net` servers over loopback TCP, every share crossing a
//! socket. The `Loopback` row's servers keep their containers in memory (the
//! stand-in for the paper's LAN testbed, without its 1 Gb/s NIC ceiling);
//! the `Cloud` row's servers reach theirs across the four Table 2 links
//! (`Shaping::COMMERCIAL_CLOUDS`), and its download runs through servers
//! reopened from those backends so that it times the links, not the
//! container cache.
//!
//! Run with `cargo run --release -p cdstore_bench --bin fig7a_baseline_transfer [data_mb]`.

use cdstore_bench::netbench::{assert_cloud_row_shape, shaped_single_speeds, wire_single_speeds};
use cdstore_storage::Shaping;

fn main() {
    let data_mb: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(64);
    let (n, k) = (4usize, 3usize);
    let links = Shaping::COMMERCIAL_CLOUDS.map(|(_, link)| link);

    let loopback = wire_single_speeds(data_mb * 1024 * 1024);
    // The largest object that crosses a link is a 4 MB container: ≈ 0.9 s at
    // 4.45 MB/s, far below `FaultPlan`'s 5 s cap on one operation's sleep.
    let (cloud, link_ops) = shaped_single_speeds(&links, k, data_mb * 1024 * 1024);

    println!("Figure 7(a): single-client baseline transfer speeds (MB/s), (n, k) = ({n}, {k})");
    println!(
        "({data_mb} MB through 4 cdstore_net servers over loopback TCP, measured on this host)"
    );
    println!(
        "{:<10} {:>16} {:>16} {:>12}",
        "Testbed", "Upload (uniq)", "Upload (dup)", "Download"
    );
    for (name, row) in [("Loopback", loopback), ("Cloud", cloud)] {
        println!(
            "{name:<10} {:>16.1} {:>16.1} {:>12.1}",
            row.upload_unique, row.upload_duplicate, row.download
        );
    }
    println!();
    println!(
        "Loopback: server backends in memory; no NIC ceiling, so it sits above the paper's LAN."
    );
    println!(
        "Cloud: each server's backend behind its Table 2 link (latency + bandwidth slept out per"
    );
    println!("backend operation); download through reopened servers, {link_ops:?} backend reads per cloud.");
    println!("Paper: LAN 77.5 / 149.9 / 99.2 MB/s; Cloud 6.2 / 57.1 / 12.3 MB/s.");
    println!(
        "What the measured Cloud row exposes that a flow model hid: a duplicate upload sends no"
    );
    println!("shares, yet every request still crosses each link — a journal append, the recipe container,");
    println!(
        "and the whole-index checkpoint when it falls due — so it is latency-bound far below the"
    );
    println!(
        "paper's 57; and a restore fetches each window from the first k clouds by index, one after"
    );
    println!(
        "another, so it reads at about a third of the k-link bound (ROADMAP item 3). Uploads, too,"
    );
    println!("ship each cloud's batch in turn: the unique column tracks the sum of the four links' times.");
    assert_cloud_row_shape(&loopback, &cloud, &link_ops, &links, k);
}
