//! Nightly driver: runs every table- and figure-regenerating binary with
//! fixed seeds and collects one machine-readable `BENCH_figs.json`.
//!
//! The nightly workflow (`.github/workflows/nightly.yml`) invokes this once
//! per night so the repo accumulates a comparable perf trajectory across
//! PRs; the PR workflow invokes it with `--smoke` as a cheap path check
//! that every figure binary still runs end to end.
//!
//! Each figure binary is found next to this executable (they are all built
//! by `cargo build --release --bins -p cdstore_bench`), run as a child
//! process, and its wall-clock time, exit status, and output recorded. The
//! driver exits nonzero if any figure fails, but always writes the JSON
//! first so a partial night still leaves evidence.
//!
//! ```text
//! cargo build --release --bins -p cdstore_bench
//! target/release/bench_all [--smoke] [--out BENCH_figs.json]
//! ```
//!
//! A full run's `BENCH_figs.json` is committed at the repo root, so a smoke
//! run writes `BENCH_figs.smoke.json` unless `--out` says otherwise.

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use serde::Serialize;

/// One figure binary run.
#[derive(Serialize)]
struct FigRun {
    name: &'static str,
    args: Vec<String>,
    ok: bool,
    seconds: f64,
    /// Captured stdout — the figure's printed table.
    stdout: String,
    /// Captured stderr, kept only when the run failed.
    stderr: String,
}

/// The whole snapshot written to `BENCH_figs.json`.
#[derive(Serialize)]
struct BenchAll {
    schema_version: u32,
    mode: &'static str,
    runs: Vec<FigRun>,
}

/// The figure battery: `(binary, smoke args, full args)`. Full runs use
/// each binary's own defaults, which are already sized for a nightly
/// budget; smoke runs shrink every knob to a path check.
const FIGS: &[(&str, &[&str], &[&str])] = &[
    ("table1_schemes", &[], &[]),
    ("table2_cloud_speeds", &["4"], &[]),
    ("fig5a_encoding_threads", &["8"], &[]),
    ("fig5b_encoding_n", &["8"], &[]),
    ("fig6_dedup", &["1"], &[]),
    ("fig7a_baseline_transfer", &["8"], &[]),
    ("fig7b_trace_transfer", &["4"], &[]),
    ("fig8_multi_client", &["2", "--wire"], &[]),
    ("fig9_cost", &[], &[]),
    ("fig_recovery", &["500"], &[]),
    ("fig_space_reclaim", &["4", "64", "50"], &[]),
];

fn sibling(name: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .ok_or_else(|| String::from("current_exe has no parent directory"))?;
    let path = dir.join(name);
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} not found next to bench_all — build the full battery first: \
             cargo build --release --bins -p cdstore_bench",
            path.display()
        ))
    }
}

fn main() -> ExitCode {
    let mut smoke = false;
    let mut out_path = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => match it.next() {
                Some(path) => out_path = Some(path),
                None => {
                    eprintln!("bench_all: --out needs a value");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("bench_all: unknown argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let out_path = out_path.unwrap_or_else(|| {
        String::from(if smoke {
            "BENCH_figs.smoke.json"
        } else {
            "BENCH_figs.json"
        })
    });

    // Resolve every binary up front: a missing sibling should fail the
    // night immediately and name the build command, not surface as one
    // mysteriously absent figure.
    let mut resolved = Vec::new();
    for (name, smoke_args, full_args) in FIGS {
        match sibling(name) {
            Ok(path) => resolved.push((*name, path, if smoke { smoke_args } else { full_args })),
            Err(e) => {
                eprintln!("bench_all: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut runs = Vec::new();
    let mut failed = false;
    for (name, path, args) in resolved {
        eprintln!("bench_all: running {name} {}...", args.join(" "));
        let started = Instant::now();
        let output = Command::new(&path).args(args.iter()).output();
        let seconds = started.elapsed().as_secs_f64();
        let run = match output {
            Ok(output) => FigRun {
                name,
                args: args.iter().map(|a| a.to_string()).collect(),
                ok: output.status.success(),
                seconds,
                stdout: String::from_utf8_lossy(&output.stdout).into_owned(),
                stderr: if output.status.success() {
                    String::new()
                } else {
                    String::from_utf8_lossy(&output.stderr).into_owned()
                },
            },
            Err(e) => FigRun {
                name,
                args: args.iter().map(|a| a.to_string()).collect(),
                ok: false,
                seconds,
                stdout: String::new(),
                stderr: format!("failed to spawn: {e}"),
            },
        };
        if !run.ok {
            failed = true;
            eprintln!("bench_all: {name} FAILED after {seconds:.1}s");
        } else {
            eprintln!("bench_all: {name} ok ({seconds:.1}s)");
        }
        runs.push(run);
    }

    let snapshot = BenchAll {
        schema_version: 1,
        mode: if smoke { "smoke" } else { "full" },
        runs,
    };
    let json = serde_json::to_string_pretty(&snapshot).expect("serialize snapshot");
    if let Err(e) = std::fs::write(&out_path, format!("{json}\n")) {
        eprintln!("bench_all: writing {out_path} failed: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("bench_all: wrote {out_path}");
    if failed {
        eprintln!("bench_all: at least one figure failed");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
