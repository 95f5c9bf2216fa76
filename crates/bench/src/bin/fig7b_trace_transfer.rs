//! Figure 7(b): single-client trace-driven transfer speeds on the FSL-like
//! workload — upload of the first backup, upload of subsequent backups, and
//! download of the first — with (n, k) = (4, 3).
//!
//! Every row is measured end to end on this host: seven weekly snapshots of
//! one user (`data_mb` MB in the first) replayed against four real
//! `cdstore_net` servers over loopback TCP. The `Loopback` row feeds the
//! trace's own chunks to `CdStore::backup_chunks`; the `Streamed` row pushes
//! the same bytes through `backup_stream`/`restore_stream`, so the client
//! re-chunks them; the `Cloud` row is the `Loopback` replay with each
//! server's backend behind its Table 2 link (`Shaping::COMMERCIAL_CLOUDS`)
//! and the download through servers reopened from those backends.
//!
//! Run with `cargo run --release -p cdstore_bench --bin fig7b_trace_transfer [data_mb]`.

use cdstore_bench::netbench::{
    assert_cloud_row_shape, cold_restore, mbps_of, shaped_wire_store, wire_store, WireSingleSpeeds,
};
use cdstore_core::CdStore;
use cdstore_net::RemoteServer;
use cdstore_storage::Shaping;
use cdstore_workloads::{FslConfig, FslWorkload, Snapshot, Workload};

/// Replays the weekly snapshots and returns (first upload, mean subsequent
/// upload) in MB/s; each upload ends with the flush that lands its last
/// containers on the backend. `streamed` selects the `Read`-shaped entry
/// point over the pre-chunked one.
fn upload_speeds(
    store: &CdStore<RemoteServer>,
    snapshots: &[Vec<Snapshot>],
    streamed: bool,
) -> (f64, f64) {
    let weekly: Vec<f64> = (snapshots.iter().map(|week| &week[0]))
        .map(|snap| {
            let chunks = snap.materialize();
            let flat = if streamed {
                chunks.concat()
            } else {
                Vec::new()
            };
            mbps_of(snap.logical_bytes(), || {
                if streamed {
                    store.backup_stream(snap.user, &snap.pathname(), &flat[..])
                } else {
                    store.backup_chunks(snap.user, &snap.pathname(), &chunks)
                }
                .expect("trace backup");
                store.flush().expect("flush");
            })
        })
        .collect();
    let subsequent = &weekly[1..];
    (
        weekly[0],
        subsequent.iter().sum::<f64>() / subsequent.len() as f64,
    )
}

fn main() {
    let data_mb: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(16);
    let (n, k) = (4usize, 3usize);
    let links = Shaping::COMMERCIAL_CLOUDS.map(|(_, link)| link);
    let snapshots = FslWorkload::new(FslConfig {
        users: 1,
        weeks: 7,
        initial_chunks_per_user: data_mb * 128, // 8 KB mean chunk size
        ..Default::default()
    })
    .snapshots();
    let first = &snapshots[0][0];
    let row = |(upload_unique, upload_duplicate), download| WireSingleSpeeds {
        upload_unique,
        upload_duplicate,
        download,
    };

    let loopback = {
        let (_cluster, store) = wire_store(n, k);
        let uploads = upload_speeds(&store, &snapshots, false);
        let download = mbps_of(first.logical_bytes(), || {
            let restored = store.restore(first.user, &first.pathname());
            assert_eq!(
                restored.expect("restore").len() as u64,
                first.logical_bytes()
            );
        });
        row(uploads, download)
    };
    let streamed = {
        let (_cluster, store) = wire_store(n, k);
        let uploads = upload_speeds(&store, &snapshots, true);
        let download = mbps_of(first.logical_bytes(), || {
            let written = store.restore_stream(first.user, &first.pathname(), &mut std::io::sink());
            assert_eq!(written.expect("streamed restore"), first.logical_bytes());
        });
        row(uploads, download)
    };

    // The largest object that crosses a link is a 4 MB container: ≈ 0.9 s at
    // 4.45 MB/s, far below `FaultPlan`'s 5 s cap on one operation's sleep.
    let (mut cluster, store, plans) = shaped_wire_store(&links, k);
    let uploads = upload_speeds(&store, &snapshots, false);
    let restore = cold_restore(&mut cluster, &store, &plans, first.user, &first.pathname());
    assert_eq!(restore.data.len() as u64, first.logical_bytes());
    let cloud = row(uploads, restore.mbps);

    println!("Figure 7(b): single-client trace-driven transfer speeds (MB/s), FSL-like workload, (n, k) = ({n}, {k})");
    println!("(7 weekly snapshots, {data_mb} MB in the first, through 4 cdstore_net servers over loopback TCP,");
    println!(" measured on this host)");
    println!(
        "{:<10} {:>16} {:>18} {:>12}",
        "Testbed", "Upload (first)", "Upload (subsqt)", "Download"
    );
    for (name, row) in [
        ("Loopback", loopback),
        ("Streamed", streamed),
        ("Cloud", cloud),
    ] {
        println!(
            "{name:<10} {:>16.1} {:>18.1} {:>12.1}",
            row.upload_unique, row.upload_duplicate, row.download
        );
    }
    println!();
    println!("Loopback: the trace's own chunks through backup_chunks, server backends in memory.");
    println!("Streamed: the same bytes through backup_stream/restore_stream (the client re-chunks them).");
    println!(
        "Cloud: the Loopback replay with each server's backend behind its Table 2 link; download"
    );
    println!(
        "through reopened servers, {:?} backend reads per cloud.",
        restore.link_ops
    );
    println!("Paper: LAN 92.3 / 145.1 / 89.6 MB/s; Cloud 6.9 / 56.2 / 9.5 MB/s.");
    println!(
        "Shape to verify: subsequent backups are mostly duplicates and upload several times faster"
    );
    println!("than the first. What the measured Cloud row exposes that a flow model hid: a mostly-duplicate");
    println!(
        "upload still crosses each link on every request (journal append, recipe container, a due"
    );
    println!(
        "checkpoint), so it stays latency-bound below the paper's 56; and a restore fetches each"
    );
    println!("window from the first k clouds by index, one after another (ROADMAP item 3).");
    assert_cloud_row_shape(&loopback, &cloud, &restore.link_ops, &links, k);
}
