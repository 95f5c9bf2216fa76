//! Table 1: comparison of secret sharing algorithms — confidentiality degree
//! and storage blowup, analytic and measured on real splits.
//!
//! Run with `cargo run --release -p cdstore_bench --bin table1_schemes`.

use cdstore_secretsharing::{build_scheme, SchemeKind};

fn main() {
    let n = 4usize;
    let k = 3usize;
    let secret_size = 8 * 1024usize;
    let secret: Vec<u8> = (0..secret_size).map(|i| (i * 53 % 256) as u8).collect();

    println!("Table 1: Comparison of secret sharing algorithms ((n, k) = ({n}, {k}), {secret_size}-byte secret)");
    println!(
        "{:<18} {:>20} {:>18} {:>18} {:>14}",
        "Algorithm", "Confidentiality r", "Blowup (formula)", "Blowup (measured)", "Deduplicable"
    );

    for kind in SchemeKind::ALL {
        let scheme = build_scheme(kind, n, k, None).expect("valid scheme");
        let formula = scheme.storage_blowup(secret_size);
        let shares = scheme.split(&secret).expect("split");
        let measured: usize = shares.iter().map(|s| s.len()).sum();
        let measured_blowup = measured as f64 / secret_size as f64;
        println!(
            "{:<18} {:>20} {:>18.4} {:>18.4} {:>14}",
            kind.to_string(),
            format!("r = {}", scheme.confidentiality_degree()),
            formula,
            measured_blowup,
            if scheme.is_convergent() { "yes" } else { "no" },
        );
    }

    println!();
    println!("RSSS trade-off (n = {n}, k = {k}): r from 0 to k-1");
    println!("{:<8} {:>18}", "r", "Blowup (measured)");
    for r in 0..k {
        let scheme = build_scheme(SchemeKind::Rsss, n, k, Some(r)).expect("valid scheme");
        let shares = scheme.split(&secret).expect("split");
        let measured: usize = shares.iter().map(|s| s.len()).sum();
        println!("{:<8} {:>18.4}", r, measured as f64 / secret_size as f64);
    }
}
