//! Perf trajectory for the network layer: runs the fig7a/fig8 wire
//! measurements with fixed seeds and writes `BENCH_net.json`, so this and
//! future PRs leave a comparable curve (ROADMAP item 6).
//!
//! ```text
//! cargo run --release -p cdstore_bench --bin bench_net -- [out_path] [per_client_mb]
//! ```
//!
//! The arguments go in either order: a number is the size, any other
//! argument the path. Defaults: `BENCH_net.json` in the current directory,
//! 4 MB per client. All data generation is seeded; run-to-run variance
//! comes only from the machine, never the workload.

use cdstore_bench::json::{write_snapshot, Json};
use cdstore_bench::netbench::{rpc_batching, wire_aggregate_upload, wire_single_speeds};
use cdstore_bench::SnapshotArgs;

fn main() {
    let args = SnapshotArgs::from_env("BENCH_net.json", 4, false);
    let per_client_mb = args.size as usize;
    let per_client = per_client_mb * 1024 * 1024;

    eprintln!("bench_net: single-client loopback speeds ({per_client_mb} MB)...");
    let single = wire_single_speeds(per_client);

    // fig8 over the wire: concurrent clients against 4 loopback servers.
    let mut aggregate = Vec::new();
    for clients in [1usize, 4, 8] {
        eprintln!("bench_net: aggregate at {clients} client(s)...");
        let unique = wire_aggregate_upload(clients, per_client, false);
        let duplicate = wire_aggregate_upload(clients, per_client, true);
        aggregate.push(Json::obj([
            ("clients", clients.into()),
            ("unique_mbps", unique.into()),
            ("duplicate_mbps", duplicate.into()),
        ]));
    }

    eprintln!("bench_net: rpc batching ratio...");
    // ~3 KB is what a CAONT-RS share of an 8 KB average chunk actually
    // weighs at k = 3, so the ratio reflects the real protocol traffic.
    let rpc = rpc_batching(512, 3 * 1024);

    let snapshot = Json::obj([
        ("schema_version", 1.into()),
        ("n", 4.into()),
        ("k", 3.into()),
        ("per_client_mb", per_client_mb.into()),
        // fig7a over the wire: one client, loopback TCP.
        ("single_upload_unique_mbps", single.upload_unique.into()),
        (
            "single_upload_duplicate_mbps",
            single.upload_duplicate.into(),
        ),
        ("single_download_mbps", single.download.into()),
        ("aggregate", Json::Arr(aggregate)),
        // Raw share-upload RPC, one batch vs one-share-per-request.
        ("rpc_batched_mbps", rpc.batched_mbps.into()),
        ("rpc_unbatched_mbps", rpc.unbatched_mbps.into()),
        ("rpc_batching_speedup", rpc.speedup.into()),
    ]);

    write_snapshot(&args.out_path, &snapshot).expect("write snapshot");
    println!("{snapshot}");
    eprintln!("bench_net: wrote {}", args.out_path);
}
