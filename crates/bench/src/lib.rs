//! Shared measurement helpers for the figure/table harness binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper's evaluation (§5) and prints the same rows/series the paper
//! reports, measured on the host that runs it. Absolute numbers differ from
//! the 2015 testbed — a different CPU, loopback TCP for its LAN, and
//! `cdstore_storage::Shaping` links for its four clouds — but the
//! comparisons (who wins, by roughly what factor, where the knees fall) are
//! expected to match; `BENCH_figs.json` at the repo root holds the recorded
//! output of the whole battery (`bench_all`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

use cdstore_chunking::{ChunkerConfig, ChunkerKind};
use cdstore_core::{encode_chunks, PipelineConfig};
use cdstore_secretsharing::SecretSharing;

pub mod encodebench;
pub mod indexbench;
pub mod kernelbench;
pub mod netbench;

/// Number of bytes in a mebibyte.
pub const MB: f64 = 1024.0 * 1024.0;

/// Generates `total_bytes` of pseudo-random data split into variable-size
/// chunks with the given average (mimicking the paper's "2GB of random data
/// ... generate secrets using variable-size chunking with an average chunk
/// size 8KB").
pub fn random_secrets(total_bytes: usize, avg_chunk: usize, seed: u64) -> Vec<Vec<u8>> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut secrets = Vec::new();
    let mut produced = 0usize;
    while produced < total_bytes {
        let size = rng
            .gen_range(avg_chunk / 2..avg_chunk * 3 / 2)
            .min(total_bytes - produced)
            .max(1);
        let mut chunk = vec![0u8; size];
        rng.fill(&mut chunk[..]);
        produced += size;
        secrets.push(chunk);
    }
    secrets
}

/// Measures the encoding speed (MB/s of original data) of a scheme over a
/// batch of secrets using `threads` coding threads: the client's encode
/// pipeline fed pre-chunked, shares returned to the pool at the sink.
pub fn encoding_speed(
    scheme: &(dyn SecretSharing + Sync),
    secrets: &[Vec<u8>],
    threads: usize,
) -> f64 {
    let config = PipelineConfig {
        encode_threads: threads,
        ..PipelineConfig::default()
    };
    let start = Instant::now();
    let report = encode_chunks(scheme, secrets, &config, |mut enc, pool| {
        pool.put_all(&mut enc.shares);
        Ok(())
    })
    .expect("encoding failed");
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(report.num_secrets, secrets.len() as u64);
    report.logical_bytes as f64 / MB / elapsed
}

/// Measures the combined chunking + encoding speed over a flat buffer, as in
/// the last paragraph of §5.3: the client's encode pipeline with default
/// Rabin chunking over the slice.
pub fn chunk_and_encode_speed(
    scheme: &(dyn SecretSharing + Sync),
    data: &[u8],
    threads: usize,
) -> f64 {
    let (kind, config) = (ChunkerKind::Rabin, ChunkerConfig::default());
    encodebench::streamed_encode_speed(scheme, kind, config, data, threads, None).mbps
}

/// Formats a floating-point MB/s value for table output.
pub fn fmt_speed(mbps: f64) -> String {
    format!("{mbps:8.1}")
}

/// Formats a percentage for table output.
pub fn fmt_pct(fraction: f64) -> String {
    format!("{:6.1}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdstore_secretsharing::CaontRs;

    #[test]
    fn random_secrets_cover_the_requested_bytes() {
        let secrets = random_secrets(100_000, 8192, 1);
        let total: usize = secrets.iter().map(|s| s.len()).sum();
        assert_eq!(total, 100_000);
        assert!(
            secrets.len() >= 9 && secrets.len() <= 25,
            "{} chunks",
            secrets.len()
        );
    }

    #[test]
    fn speed_measurements_are_positive_and_scale_sanely() {
        let scheme = CaontRs::new(4, 3).unwrap();
        let secrets = random_secrets(512 * 1024, 8192, 2);
        let enc = encoding_speed(&scheme, &secrets, 2);
        assert!(enc > 0.0);
        let combined = chunk_and_encode_speed(&scheme, &vec![7u8; 256 * 1024], 2);
        assert!(combined > 0.0);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_pct(0.5), "  50.0%");
        assert!(fmt_speed(123.456).contains("123.5"));
    }
}
