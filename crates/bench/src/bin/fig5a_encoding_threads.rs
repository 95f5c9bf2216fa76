//! Figure 5(a): encoding speeds of CAONT-RS, AONT-RS, and CAONT-RS-Rivest
//! versus the number of coding threads, with (n, k) = (4, 3).
//!
//! Run with `cargo run --release -p cdstore_bench --bin fig5a_encoding_threads [data_mb]`.
//! The paper uses 2 GB of random data; the default here is 64 MB to keep the
//! harness fast — pass a larger size for steadier numbers.

use cdstore_bench::encodebench::streamed_encode_speed;
use cdstore_bench::{encoding_speed, random_secrets};
use cdstore_chunking::{ChunkerConfig, ChunkerKind};
use cdstore_secretsharing::{AontRs, CaontRs, CaontRsRivest, SecretSharing};

fn main() {
    let data_mb: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(64);
    let secrets = random_secrets(data_mb * 1024 * 1024, 8 * 1024, 7);
    let (n, k) = (4, 3);

    let caont = CaontRs::new(n, k).unwrap();
    let aont = AontRs::new(n, k).unwrap();
    let rivest = CaontRsRivest::new(n, k).unwrap();
    let schemes: [(&str, &(dyn SecretSharing + Sync)); 3] = [
        ("CAONT-RS", &caont),
        ("AONT-RS", &aont),
        ("CAONT-RS-Rivest", &rivest),
    ];

    println!("Figure 5(a): encoding speed (MB/s) vs number of threads, (n, k) = ({n}, {k}), {data_mb} MB of random data");
    println!(
        "{:<10} {:>14} {:>14} {:>18}",
        "Threads", "CAONT-RS", "AONT-RS", "CAONT-RS-Rivest"
    );
    for threads in 1..=4usize {
        let mut row = Vec::new();
        for (_, scheme) in &schemes {
            row.push(encoding_speed(*scheme, &secrets, threads));
        }
        println!(
            "{:<10} {:>14.1} {:>14.1} {:>18.1}",
            threads, row[0], row[1], row[2]
        );
    }
    println!();
    println!("Paper (Local-i5, 2 threads): CAONT-RS 183 MB/s, with CAONT-RS 19-27% above AONT-RS");
    println!("and 54-61% above CAONT-RS-Rivest; speeds increase with threads on both machines.");

    // Companion series: the full chunk+encode data path (CAONT-RS, Rabin
    // chunking) through the client's bounded-memory pipeline.
    let flat = secrets.concat();
    let chunk_config = ChunkerConfig::default();
    println!();
    println!("Chunk+encode data path, CAONT-RS with Rabin chunking, same data:");
    println!("{:<10} {:>16}", "Threads", "Streamed (MB/s)");
    for threads in 1..=4usize {
        let streamed = streamed_encode_speed(
            &caont,
            ChunkerKind::Rabin,
            chunk_config,
            &flat,
            threads,
            None,
        );
        println!("{threads:<10} {:>16.1}", streamed.mbps);
    }
}
