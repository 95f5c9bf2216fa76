//! Figure 7(a): baseline single-client transfer speeds — upload of unique
//! data, upload of duplicate data, and download — on the LAN and cloud
//! testbeds with (n, k) = (4, 3).
//!
//! The client-side computation speed is measured on this machine; the LAN
//! and cloud rows are simulated from the Table 2 profiles (see
//! `cdstore_bench::transfer` for the model). A third, fully *measured* row
//! drives the same client against four real `cdstore_net` servers over
//! loopback TCP — no model at all, every share crossing a socket.
//!
//! Run with `cargo run --release -p cdstore-bench --bin fig7a_baseline_transfer [data_mb]`.

use cdstore_bench::netbench::wire_single_speeds;
use cdstore_bench::transfer::SingleClientModel;
use cdstore_bench::{chunk_and_encode_speed, decoding_speed, random_secrets};
use cdstore_secretsharing::CaontRs;

fn main() {
    let data_mb: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(64);
    let (n, k) = (4usize, 3usize);
    let scheme = CaontRs::new(n, k).unwrap();

    // Measure the client's computation stages on this machine. The CDStore
    // client parallelises coding across cores (§4.6); use the available
    // parallelism so the computation stage reflects a fully driven client.
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(8);
    let flat: Vec<u8> = random_secrets(data_mb * 1024 * 1024, 8 * 1024, 3).concat();
    let secrets = random_secrets(data_mb * 1024 * 1024, 8 * 1024, 4);
    let compute_mbps = chunk_and_encode_speed(&scheme, &flat, threads);
    let decode_mbps = decoding_speed(&scheme, &secrets);

    let logical_mb = 2048.0;
    let per_cloud_unique = vec![logical_mb / k as f64; n];
    let no_transfer = vec![0.0; n];

    println!("Figure 7(a): single-client baseline transfer speeds (MB/s), (n, k) = ({n}, {k})");
    println!("(measured client compute: chunk+encode {compute_mbps:.1} MB/s, decode {decode_mbps:.1} MB/s)");
    println!(
        "{:<10} {:>16} {:>16} {:>12}",
        "Testbed", "Upload (uniq)", "Upload (dup)", "Download"
    );
    for (name, model) in [
        ("LAN", SingleClientModel::lan(n, k, compute_mbps)),
        ("Cloud", SingleClientModel::commercial(k, compute_mbps)),
    ] {
        let up_uniq = model.upload_speed(logical_mb, &per_cloud_unique);
        let up_dup = model.upload_speed(logical_mb, &no_transfer);
        let down = model.download_speed(logical_mb, decode_mbps);
        println!("{name:<10} {up_uniq:>16.1} {up_dup:>16.1} {down:>12.1}");
    }
    // The measured row: real sockets on loopback, no flow model.
    let wire = wire_single_speeds(data_mb * 1024 * 1024);
    println!(
        "{:<10} {:>16.1} {:>16.1} {:>12.1}",
        "Loopback*", wire.upload_unique, wire.upload_duplicate, wire.download
    );
    println!();
    println!("(* measured end to end over real loopback TCP against 4 cdstore_net servers;");
    println!("   loopback has no NIC ceiling, so it sits between the LAN model and pure compute)");
    println!("Paper: LAN 77.5 / 149.9 / 99.2 MB/s; Cloud 6.2 / 57.1 / 12.3 MB/s.");
    println!(
        "Shape to verify: LAN upload(uniq) ~ k/n of the effective network speed; upload(dup) is"
    );
    println!("compute-bound; download ~10% below the network; the cloud dup/uniq gap is much larger (>5x).");
}
