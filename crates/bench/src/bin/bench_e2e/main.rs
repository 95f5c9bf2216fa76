//! `bench_e2e`: the repository's benchmark. See `README.md` beside this
//! file for what each workload and metric means.
//!
//! ```text
//! bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--spans-out <file>]
//! bench_e2e compare <a.jsonl> <b.jsonl>
//! ```

mod compare;
mod json;
mod metrics;
mod replay;
mod spans;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use workloads::{Scale, Workload, FULL, SMOKE};

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub smoke: bool,
    pub spans_out: Option<String>,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: bench_e2e --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--spans-out <file>]\n       bench_e2e compare <a.jsonl> <b.jsonl>",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut spans_out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name)
                        .ok_or_else(|| format!("unknown workload {name:?}\n{}", usage()))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                })
            }
            "--smoke" => smoke = true,
            "--spans-out" => spans_out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(usage)?,
        seed: seed.ok_or_else(usage)?,
        seconds: seconds.ok_or_else(usage)?,
        trace: trace.ok_or_else(usage)?,
        scale: if smoke { SMOKE } else { FULL },
        smoke,
        spans_out,
    })
}

/// Restricts this process to the lowest-numbered CPU it may run on and
/// returns that CPU's number, or `None` where that cannot be done. Threads
/// spawned later inherit the restriction, so clients, pipelines and
/// in-process servers all share the one core.
///
/// The host gives the benchmark two virtual CPUs of a shared machine. A
/// thread woken on the other, idle one waits for the host to schedule that
/// CPU, which takes anything from microseconds to milliseconds depending on
/// the neighbours: unpinned, `smallfiles-wire` ran at half the speed and
/// three to eight times the run-to-run spread (README, "Measured
/// steadiness"). On one core a wake-up is a context switch inside the guest.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Option<usize> {
    // std links the C library, which exports both calls.
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // 1024 CPUs, the size of glibc's `cpu_set_t`.
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of `bytes` bytes and pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().position(|w| *w != 0)?;
    let bit = mask[word].trailing_zeros() as usize;
    mask = [0u64; 16];
    mask[word] = 1 << bit;
    // SAFETY: `mask` is a live buffer of `bytes` bytes that the call only reads.
    (unsafe { sched_setaffinity(0, bytes, mask.as_ptr()) } == 0).then_some(word * 64 + bit)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Option<usize> {
    None
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv.as_slice() {
            [_, a, b] => compare::run(a, b, "BENCHMARK.json"),
            _ => {
                eprintln!("{}", usage());
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    match pin_to_one_cpu() {
        Some(cpu) => println!("pinned to CPU {cpu}, one of {cpus} available"),
        None => println!("not pinned: running on all {cpus} available CPUs"),
    }
    let outcome = if args.trace {
        trace::run(&args)
    } else {
        metrics::run(&args, started)
    };
    match outcome {
        Ok(output) => {
            for line in output.lines(&args) {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::FAILURE
        }
    }
}
