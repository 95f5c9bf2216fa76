//! Figure 8: aggregate upload speed of multiple concurrent CDStore clients
//! (1–8) with four servers and (n, k) = (4, 3), for both unique and
//! duplicate data.
//!
//! Each round builds a live deployment, spawns 1–8 client threads (each with
//! its own cloned handle and user id), releases them through a barrier, and
//! measures the wall-clock aggregate MB/s of logical data through the full
//! chunk → CAONT-RS → two-stage-dedup → container pipeline. Two measured
//! deployments run side by side: **in-process** servers (no sockets — the
//! computation ceiling) and **over-the-wire** servers behind real loopback
//! TCP via `cdstore_net` (serialization, syscalls, and flow control
//! included). Neither has a NIC, so where the paper's curves flatten at its
//! servers' 1 Gb/s links, these flatten at this host's cores.
//!
//! Run with
//! `cargo run --release -p cdstore_bench --bin fig8_multi_client [per_client_mb] [--wire]`.
//!
//! `--wire` restricts the run to the over-the-wire columns (the CI smoke
//! configuration: a quick end-to-end proof that concurrent clients saturate
//! real sockets).

use cdstore_bench::netbench::{aggregate_upload, wire_aggregate_upload};
use cdstore_core::{CdStore, CdStoreConfig};

fn measure_in_process(clients: usize, per_client: usize, duplicate: bool) -> f64 {
    let store = CdStore::new(CdStoreConfig::new(4, 3).unwrap());
    aggregate_upload(&store, clients, per_client, duplicate)
}

fn main() {
    let mut per_client_mb: usize = 8;
    let mut wire_only = false;
    for arg in std::env::args().skip(1) {
        if arg == "--wire" {
            wire_only = true;
        } else if let Ok(mb) = arg.parse() {
            per_client_mb = mb;
        }
    }
    let per_client = per_client_mb * 1024 * 1024;
    let (n, k) = (4usize, 3usize);

    if wire_only {
        println!(
            "Figure 8 (wire smoke): aggregate upload over loopback TCP (MB/s), (n, k) = ({n}, {k})"
        );
        println!("({per_client_mb} MB per client through 4 cdstore_net servers)");
        println!(
            "{:<10} {:>15} {:>15}",
            "Clients", "Wire (uniq)", "Wire (dup)"
        );
        for clients in 1..=8usize {
            let uniq = wire_aggregate_upload(clients, per_client, false);
            let dup = wire_aggregate_upload(clients, per_client, true);
            println!("{clients:<10} {uniq:>15.1} {dup:>15.1}");
            assert!(uniq > 0.0 && dup > 0.0, "wire deployment moved no data");
        }
        return;
    }

    println!("Figure 8: aggregate upload speeds (MB/s) vs number of clients, (n, k) = ({n}, {k})");
    println!("({per_client_mb} MB per client through live servers, in-process vs loopback TCP, measured on");
    println!(
        " this host with {} core(s))",
        std::thread::available_parallelism().map_or(1, |p| p.get())
    );
    println!(
        "{:<8} {:>14} {:>13} {:>12} {:>11}",
        "Clients", "InProc (uniq)", "InProc (dup)", "Wire (uniq)", "Wire (dup)"
    );
    for clients in 1..=8usize {
        let inproc_uniq = measure_in_process(clients, per_client, false);
        let inproc_dup = measure_in_process(clients, per_client, true);
        let wire_uniq = wire_aggregate_upload(clients, per_client, false);
        let wire_dup = wire_aggregate_upload(clients, per_client, true);
        println!(
            "{clients:<8} {inproc_uniq:>14.1} {inproc_dup:>13.1} {wire_uniq:>12.1} {wire_dup:>11.1}"
        );
    }
    println!();
    println!(
        "Paper: unique-data aggregate reaches 282 MB/s at 8 clients (310 MB/s without disk I/O,"
    );
    println!("i.e. about the aggregate Ethernet speed of k = 3 servers); duplicate-data aggregate reaches");
    println!(
        "572 MB/s with a knee at 4 clients where server CPU saturates. The in-process columns are"
    );
    println!(
        "CPU-bound (no network at all); the wire columns add real TCP serialization and syscalls"
    );
    println!("over loopback, so the gap between the two is the protocol overhead.");
}
