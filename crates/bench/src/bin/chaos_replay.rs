//! Replays a chaos scenario from its seed and prints the fault schedules.
//!
//! This is the local-debugging companion to `tests/chaos_suite.rs`: when
//! the CI chaos job fails it uploads the per-cloud fault schedule logs,
//! whose header names the seed. Re-running that seed here reproduces the
//! exact same fault sequence (injection is deterministic in the seed and
//! the op tick), prints every injected fault, and exits nonzero if the
//! workload does not survive it.
//!
//! ```text
//! cargo run --release -p cdstore_bench --bin chaos_replay -- \
//!     [--seed N] [--profile degraded|torn|outage] [--smoke]
//! ```
//!
//! Defaults: the CI seed (`0xCD570FE`), profile `degraded`, full size.

use std::process::ExitCode;
use std::sync::Arc;

use cdstore_core::{CdStore, CdStoreConfig, RetryPolicy};
use cdstore_storage::{FaultConfig, FaultPlan, FaultyBackend, MemoryBackend, StorageBackend};
use cdstore_workloads::{FslConfig, FslWorkload, Snapshot, Workload};

/// The same default as `tests/chaos_suite.rs` (`CHAOS_SEED` there).
const DEFAULT_SEED: u64 = 0xCD5_70FE;

struct Args {
    seed: u64,
    profile: String,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: DEFAULT_SEED,
        profile: String::from("degraded"),
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                args.seed = v.parse().map_err(|_| format!("bad seed: {v}"))?;
            }
            "--profile" => {
                args.profile = it.next().ok_or("--profile needs a value")?;
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

/// Maps a profile name to the per-cloud fault configuration, mirroring the
/// profiles the chaos suite runs. Rates are per backend operation, and a
/// server commits its journal once per request — a backup is a few dozen
/// large operations per cloud, so the rates are set for that.
fn profile_config(profile: &str, seed: u64, cloud: usize) -> Result<FaultConfig, String> {
    let base = FaultConfig::clean(seed.wrapping_add(cloud as u64));
    match profile {
        "degraded" => Ok(base.with_error_rate(0.10).with_torn_write_rate(0.06)),
        "torn" => Ok(base.with_torn_write_rate(0.18)),
        "outage" => Ok(base.with_error_rate(0.12).with_torn_write_rate(0.08)),
        other => Err(format!(
            "unknown profile {other:?} (expected degraded, torn, or outage)"
        )),
    }
}

fn run(args: &Args) -> Result<Vec<Arc<FaultPlan>>, String> {
    let mut backends: Vec<Arc<dyn StorageBackend>> = Vec::new();
    let mut plans = Vec::new();
    for cloud in 0..4 {
        let plan = Arc::new(FaultPlan::new(profile_config(
            &args.profile,
            args.seed,
            cloud,
        )?));
        backends.push(Arc::new(FaultyBackend::new(
            Arc::new(MemoryBackend::new()),
            Arc::clone(&plan),
        )));
        plans.push(plan);
    }
    let config = CdStoreConfig::new(4, 3)
        .map_err(|e| e.to_string())?
        .with_retry(RetryPolicy::with_attempts(8));
    let store = CdStore::with_backends(config, backends).map_err(|e| e.to_string())?;

    let (users, weeks, chunks) = if args.smoke { (3, 6, 24) } else { (4, 6, 120) };
    let snapshots: Vec<Vec<Snapshot>> = FslWorkload::new(FslConfig {
        users,
        weeks,
        initial_chunks_per_user: chunks,
        ..Default::default()
    })
    .snapshots();

    for (week_no, week) in snapshots.iter().enumerate() {
        if args.profile == "outage" && week_no > 0 {
            // The outage profile additionally takes one cloud fully down
            // between weeks, verifying a k-of-n restore mid-outage.
            let victim = week_no % 4;
            store.fail_cloud(victim);
            plans[victim].set_outage(true);
            let first = &snapshots[0][0];
            let restored = store
                .restore(first.user, &first.pathname())
                .map_err(|e| format!("mid-outage restore failed: {e}"))?;
            if restored != first.materialize().concat() {
                return Err("mid-outage restore returned wrong bytes".into());
            }
            plans[victim].set_outage(false);
            store.recover_cloud(victim);
        }
        for snapshot in week {
            store
                .backup_chunks(snapshot.user, &snapshot.pathname(), &snapshot.materialize())
                .map_err(|e| format!("backup of {} failed: {e}", snapshot.pathname()))?;
            // Every backup job ends with a flush, as in the chaos suite.
            store.flush().map_err(|e| format!("flush failed: {e}"))?;
        }
        eprintln!("chaos_replay: week {week_no} backed up");
    }

    for snapshot in snapshots.last().expect("non-empty workload") {
        let restored = store
            .restore(snapshot.user, &snapshot.pathname())
            .map_err(|e| format!("restore of {} failed: {e}", snapshot.pathname()))?;
        if restored != snapshot.materialize().concat() {
            return Err(format!(
                "restore of {} returned wrong bytes",
                snapshot.pathname()
            ));
        }
    }
    Ok(plans)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("chaos_replay: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "chaos_replay: seed={} profile={} {}",
        args.seed,
        args.profile,
        if args.smoke { "smoke" } else { "full" }
    );
    match run(&args) {
        Ok(plans) => {
            for (cloud, plan) in plans.iter().enumerate() {
                println!("=== cloud {cloud} ===");
                print!("{}", plan.render_schedule());
            }
            eprintln!("chaos_replay: workload survived every injected fault");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("chaos_replay: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
