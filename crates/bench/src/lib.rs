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
pub mod json;
pub mod kernelbench;
pub mod netbench;

/// Number of bytes in a mebibyte.
pub const MB: f64 = 1024.0 * 1024.0;

/// Generates `total_bytes` of pseudo-random data split into variable-size
/// chunks with the given average (mimicking the paper's "2GB of random data
/// ... generate secrets using variable-size chunking with an average chunk
/// size 8KB").
pub fn random_secrets(total_bytes: usize, avg_chunk: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = cdstore_workloads::SplitMix64::new(seed);
    let mut secrets = Vec::new();
    let mut produced = 0usize;
    while produced < total_bytes {
        let size = rng
            .gen_range(avg_chunk / 2..avg_chunk * 3 / 2)
            .min(total_bytes - produced)
            .max(1);
        let mut chunk = vec![0u8; size];
        rng.fill(&mut chunk);
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

/// A snapshot binary's command line: `[out_path] [size]` in either order,
/// plus `--smoke` where the binary takes it.
#[derive(Debug, PartialEq)]
pub struct SnapshotArgs {
    /// Where the snapshot is written.
    pub out_path: String,
    /// The run's size, in the binary's unit (MB, or entries).
    pub size: u64,
    /// `--smoke` was given.
    pub smoke: bool,
}

impl SnapshotArgs {
    /// Parses `args` (without the program name) over the given defaults: a
    /// numeric argument is the size, `--smoke` sets `smoke` if
    /// `takes_smoke`, any other argument starting with `-` is an error and
    /// anything else is the path.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        out_path: &str,
        size: u64,
        takes_smoke: bool,
    ) -> Result<SnapshotArgs, String> {
        let mut parsed = SnapshotArgs {
            out_path: out_path.to_string(),
            size,
            smoke: false,
        };
        for arg in args {
            if let Ok(n) = arg.parse() {
                parsed.size = n;
            } else if takes_smoke && arg == "--smoke" {
                parsed.smoke = true;
            } else if arg.starts_with('-') {
                return Err(format!("unknown option `{arg}`"));
            } else {
                parsed.out_path = arg;
            }
        }
        Ok(parsed)
    }

    /// [`SnapshotArgs::parse`] over this process's arguments; prints the
    /// error and exits with status 2 if they do not parse.
    pub fn from_env(out_path: &str, size: u64, takes_smoke: bool) -> SnapshotArgs {
        Self::parse(std::env::args().skip(1), out_path, size, takes_smoke).unwrap_or_else(|e| {
            let smoke = if takes_smoke { " | --smoke" } else { "" };
            eprintln!("{e}; expected [out_path] [size{smoke}]");
            std::process::exit(2)
        })
    }
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
    fn snapshot_args_take_a_path_and_a_size_in_any_order() {
        let parse = |args: &[&str], takes_smoke| {
            let args = args.iter().map(|a| a.to_string());
            SnapshotArgs::parse(args, "BENCH_x.json", 8, takes_smoke)
        };
        let args = |out_path: &str, size, smoke| SnapshotArgs {
            out_path: out_path.to_string(),
            size,
            smoke,
        };
        assert_eq!(parse(&["--smoke"], true), Ok(args("BENCH_x.json", 8, true)));
        assert_eq!(
            parse(&["o.json", "16"], false),
            Ok(args("o.json", 16, false))
        );
        assert_eq!(parse(&["16"], false), Ok(args("BENCH_x.json", 16, false)));
        assert!(parse(&["o.json", "--fast"], true).is_err());
        assert!(parse(&["--smoke"], false).is_err());
    }

    #[test]
    fn floats_round_trip_exactly() {
        for n in [0.0295, 1.0e15, -2.5, 61.0, f64::MIN_POSITIVE] {
            let text = json::Json::from(n).to_string();
            assert_eq!(text.parse::<f64>().unwrap(), n, "{text}");
        }
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(json::Json::from(1024.0).to_string(), "1024");
        assert_eq!(json::Json::from(26usize).to_string(), "26");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_pct(0.5), "  50.0%");
        assert!(fmt_speed(123.456).contains("123.5"));
    }
}
