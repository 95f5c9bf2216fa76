//! Table 2: upload/download speed of each of the four clouds moving unique
//! data in 4 MB units — here *measured* through the link model every `Cloud`
//! row of Figures 7(a)/7(b) runs on: each cloud is a `FaultyBackend` shaped
//! with its `Shaping::COMMERCIAL_CLOUDS` entry, and this binary times real
//! `put`s and `get`s through it, in real time (no `time_scale`). The table
//! shows how closely a shaped backend delivers its configured bandwidth once
//! the per-request latency is paid (mean and standard deviation over three
//! runs; the four clouds run on parallel threads).
//!
//! Run with `cargo run --release -p cdstore_bench --bin table2_cloud_speeds [total_mb]`
//! (default 64 MB per cloud and direction).

use std::sync::Arc;

use cdstore_bench::netbench::mbps_of;
use cdstore_storage::{
    FaultConfig, FaultPlan, FaultyBackend, MemoryBackend, Shaping, StorageBackend,
};

const RUNS: usize = 3;
const UNIT_BYTES: usize = 4 << 20;

/// One run against one cloud: (upload, download) MB/s of `units` 4 MB
/// objects through a freshly shaped backend.
fn measure(link: Shaping, units: usize, seed: u64) -> (f64, f64) {
    let plan = Arc::new(FaultPlan::new(FaultConfig::clean(seed).with_shaping(link)));
    let cloud = FaultyBackend::new(Arc::new(MemoryBackend::new()), plan);
    let unit = vec![0xc5u8; UNIT_BYTES];
    let bytes = (units * UNIT_BYTES) as u64;
    let upload = mbps_of(bytes, || {
        for i in 0..units {
            cloud.put(&format!("unit-{i}"), &unit).expect("shaped put");
        }
    });
    let download = mbps_of(bytes, || {
        for i in 0..units {
            let got = cloud.get(&format!("unit-{i}")).expect("shaped get");
            assert_eq!(got.len(), UNIT_BYTES);
        }
    });
    (upload, download)
}

fn mean_std(samples: &[f64]) -> (f64, f64) {
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / samples.len() as f64;
    (mean, var.sqrt())
}

fn main() {
    let total_mb: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(64);
    let units = total_mb.div_ceil(4).max(1);

    let runs: Vec<Vec<(f64, f64)>> = std::thread::scope(|scope| {
        let clouds: Vec<_> = (Shaping::COMMERCIAL_CLOUDS.iter().zip(0..))
            .map(|(&(_, link), seed)| {
                scope.spawn(move || (0..RUNS).map(|_| measure(link, units, seed)).collect())
            })
            .collect();
        (clouds.into_iter())
            .map(|cloud| cloud.join().expect("measuring thread panicked"))
            .collect()
    });

    println!(
        "Table 2: per-cloud speeds (MB/s), {} MB in 4 MB units through a shaped backend, measured on this host",
        units * 4
    );
    println!(
        "{:<12} {:>22} {:>12} {:>22} {:>12}",
        "Cloud", "Upload avg (std)", "configured", "Download avg (std)", "configured"
    );
    for ((name, link), runs) in Shaping::COMMERCIAL_CLOUDS.iter().zip(&runs) {
        let (ups, downs): (Vec<f64>, Vec<f64>) = runs.iter().copied().unzip();
        let ((up, up_std), (down, down_std)) = (mean_std(&ups), mean_std(&downs));
        println!(
            "{name:<12} {up:>15.2} ({up_std:.2}) {:>12.2} {down:>15.2} ({down_std:.2}) {:>12.2}",
            link.upload_mbps, link.download_mbps
        );
        for (measured, configured) in [(up, link.upload_mbps), (down, link.download_mbps)] {
            assert!(
                (measured / configured - 1.0).abs() <= 0.10,
                "{name}: measured {measured:.2} MB/s against a configured {configured} MB/s"
            );
        }
    }
    println!();
    println!(
        "The configured columns are the paper's Table 2 means (2 GB of unique data in 4 MB units,"
    );
    println!(
        "September 2014, from Hong Kong): Amazon 5.87 (0.19) / 4.45 (0.30), Google 4.99 (0.23) /"
    );
    println!(
        "4.45 (0.21), Azure 19.59 (1.20) / 13.78 (0.72), Rackspace 19.42 (1.06) / 12.93 (1.47)."
    );
    println!(
        "Measured sits a few percent below configured: each 4 MB request also pays its link's"
    );
    println!("latency (35 ms to Singapore, 5 ms within Hong Kong), and a sleep only overshoots.");
}
