//! Figure 5(b): encoding speeds versus the number of clouds `n` (4 to 20),
//! with `k` the largest integer such that `k/n <= 3/4` and two coding
//! threads.
//!
//! Run with `cargo run --release -p cdstore_bench --bin fig5b_encoding_n [data_mb]`.

use cdstore_bench::{chunk_and_encode_speed, encoding_speed, random_secrets};
use cdstore_secretsharing::{AontRs, CaontRs, CaontRsRivest, SecretSharing};

fn main() {
    let data_mb: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(64);
    let secrets = random_secrets(data_mb * 1024 * 1024, 8 * 1024, 11);
    let threads = 2usize;

    println!("Figure 5(b): encoding speed (MB/s) vs n (k = largest with k/n <= 3/4), {threads} threads, {data_mb} MB");
    println!(
        "{:<6} {:<6} {:>14} {:>14} {:>18}",
        "n", "k", "CAONT-RS", "AONT-RS", "CAONT-RS-Rivest"
    );
    for n in (4..=20usize).step_by(4) {
        let k = (n * 3) / 4;
        let caont = CaontRs::new(n, k).unwrap();
        let aont = AontRs::new(n, k).unwrap();
        let rivest = CaontRsRivest::new(n, k).unwrap();
        let schemes: [&(dyn SecretSharing + Sync); 3] = [&caont, &aont, &rivest];
        let speeds: Vec<f64> = schemes
            .iter()
            .map(|s| encoding_speed(*s, &secrets, threads))
            .collect();
        println!(
            "{:<6} {:<6} {:>14.1} {:>14.1} {:>18.1}",
            n, k, speeds[0], speeds[1], speeds[2]
        );
    }

    // Combined chunking + encoding (§5.3, last paragraph): around 16% lower
    // than the encoding-only speed.
    let caont = CaontRs::new(4, 3).unwrap();
    let flat: Vec<u8> = random_secrets(data_mb * 1024 * 1024, 8 * 1024, 13).concat();
    let encode_only = encoding_speed(&caont, &secrets, threads);
    let combined = chunk_and_encode_speed(&caont, &flat, threads);
    println!();
    println!(
        "Combined chunking + encoding, (4, 3), {threads} threads: {combined:.1} MB/s ({:.0}% below encoding-only {encode_only:.1} MB/s)",
        (1.0 - combined / encode_only) * 100.0
    );
    println!();
    println!("Paper: speeds decrease only slightly with n (about 8% from n = 4 to 20 for CAONT-RS on Local-i5),");
    println!(
        "because Reed-Solomon coding is a small cost next to the AONT's cryptographic operations;"
    );
    println!("combined chunking + encoding is about 16% below encoding-only.");
}
