//! The end-to-end run (`--trace 0`) and the output format both runs share.

use std::time::Instant;

use crate::json::Json;
use crate::workloads::{peak_rss_mib, run_rep, warm_up, Deployment, Inputs, Rep};
use crate::Args;

const GIB: f64 = (1u64 << 30) as f64;
const MIB: f64 = (1u64 << 20) as f64;

/// How many times set-up runs; `setup_s` is the median.
const SETUPS: usize = 3;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    /// The reported value, reduced from `reps` where there are any.
    pub value: f64,
    /// Every per-repetition (or per-set-up) value behind `value`.
    pub reps: Vec<f64>,
}

impl Metric {
    pub fn single(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            reps: Vec::new(),
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// What a run measured. [`Output::lines`] renders it: the last line is the
/// one-object result the driver reads, the line before it the detailed
/// record `compare` reads.
pub struct Output {
    pub notes: Vec<String>,
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

impl Output {
    pub fn lines(&self, args: &Args) -> Vec<String> {
        let Output {
            notes,
            metrics,
            attempted,
            failed,
        } = self;
        let mut lines = notes.clone();
        let width = metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        for m in metrics {
            let reps: Vec<String> = m.reps.iter().map(|v| format!("{v:.4}")).collect();
            lines.push(format!(
                "{:width$}  {:>14.6} {:<6} {}",
                m.name,
                m.value,
                m.unit,
                if reps.is_empty() {
                    String::new()
                } else {
                    format!("[{}]", reps.join(" "))
                }
            ));
        }
        let failed_ops_ratio = *failed as f64 / (*attempted).max(1) as f64;
        lines.push(format!(
            "failed_ops_ratio {failed_ops_ratio} ({failed} of {attempted} backup/flush/restore calls)"
        ));
        let metric_map = |with_reps: bool| {
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        let mut fields =
                            vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
                        if with_reps {
                            let reps = m.reps.iter().map(|v| Json::Num(*v)).collect();
                            fields.push(("reps", Json::Arr(reps)));
                        }
                        (m.name.clone(), Json::obj(fields))
                    })
                    .collect(),
            )
        };
        lines.push(
            Json::obj(vec![
                ("workload", Json::str(args.workload.name())),
                ("seed", Json::Num(args.seed as f64)),
                ("seconds", Json::Num(args.seconds)),
                ("smoke", Json::Bool(args.smoke)),
                ("trace", Json::Bool(args.trace)),
                ("attempted", Json::Num(*attempted as f64)),
                ("failed", Json::Num(*failed as f64)),
                ("failed_ops_ratio", Json::Num(failed_ops_ratio)),
                ("metrics", metric_map(true)),
            ])
            .render(),
        );
        let all_finite = metrics.iter().all(|m| m.value.is_finite());
        lines.push(
            Json::obj(vec![
                ("correct", Json::Bool(*failed == 0 && all_finite)),
                ("attempted", Json::Num(*attempted as f64)),
                ("failed", Json::Num(*failed as f64)),
                ("metrics", metric_map(false)),
            ])
            .render(),
        );
        lines
    }
}

/// One set-up: generate the inputs from the seed, spawn a deployment of the
/// workload's shape, and run the untimed warm-up backup and restore on it.
pub fn set_up(args: &Args) -> Result<Inputs, String> {
    let inputs = Inputs::generate(args.workload, args.seed, &args.scale);
    warm_up(args.workload, &args.scale).map_err(|e| format!("warm-up failed: {e}"))?;
    Ok(inputs)
}

/// One untraced repetition on a fresh deployment.
pub fn untraced_rep(args: &Args, inputs: &Inputs) -> Result<Rep, String> {
    let deployment = Deployment::spawn(args.workload.wire(), args.workload.disk_index(), None)
        .map_err(|e| format!("deployment failed: {e}"))?;
    Ok(run_rep(&deployment, inputs, None))
}

pub fn run(args: &Args, started: Instant) -> Result<Output, String> {
    // Set-up runs several times so `setup_s` can be a median; the first
    // reading runs from process start and so includes everything lazy.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut inputs = None;
    for i in 0..SETUPS {
        drop(inputs.take());
        let t0 = if i == 0 { started } else { Instant::now() };
        inputs = Some(set_up(args)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("SETUPS > 0");

    // Repetitions on fresh deployments until the next one would overrun
    // the measuring time.
    let measuring = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut peak_rss = 0.0;
    loop {
        reps.push(untraced_rep(args, &inputs)?);
        if reps.len() == 1 {
            // Read after the first repetition, so the value does not depend
            // on how many repetitions the host's speed allowed.
            peak_rss = peak_rss_mib();
        }
        let elapsed = measuring.elapsed().as_secs_f64();
        if elapsed + elapsed / reps.len() as f64 > args.seconds {
            break;
        }
    }

    let per_rep = |f: &dyn Fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let logical = inputs.backup_bytes() as f64;
    // Timing metrics report the best repetition, not the median. This host
    // only ever slows a repetition down — its CPU speed drops by up to a
    // third for seconds or minutes at a time — so the best one is the
    // steadiest estimate of what the code can do: over ten runs the median
    // of the repetitions moved about twice as much (README, "Measured
    // steadiness"). Byte ratios have no such one-sided noise and stay medians.
    type Reduce = fn(&[f64]) -> f64;
    let highest: Reduce = |reps| reps.iter().copied().fold(f64::NAN, f64::max);
    let lowest: Reduce = |reps| reps.iter().copied().fold(f64::NAN, f64::min);
    let metrics = [
        ("setup_s", "s", median as Reduce, setup_s),
        (
            "backup_mib_s",
            "MiB/s",
            highest,
            per_rep(&|r| r.backup.bytes as f64 / MIB / r.backup.wall_s),
        ),
        (
            "restore_mib_s",
            "MiB/s",
            highest,
            per_rep(&|r| r.restore().bytes as f64 / MIB / r.restore().wall_s),
        ),
        (
            "backup_cpu_s_per_gib",
            "s/GiB",
            lowest,
            per_rep(&|r| r.backup.cpu_s / (r.backup.bytes as f64 / GIB)),
        ),
        (
            "restore_cpu_s_per_gib",
            "s/GiB",
            lowest,
            per_rep(&|r| r.restore().cpu_s / (r.restore().bytes as f64 / GIB)),
        ),
        (
            "sent_per_logical",
            "ratio",
            median,
            per_rep(&|r| r.sent_bytes as f64 / logical),
        ),
        (
            "stored_per_logical",
            "ratio",
            median,
            per_rep(&|r| r.stored_bytes as f64 / logical),
        ),
        ("peak_rss_mib", "MiB", median, vec![peak_rss]),
    ]
    .into_iter()
    .map(|(name, unit, reduce, reps)| Metric {
        name: name.to_string(),
        unit,
        value: reduce(&reps),
        reps,
    })
    .collect();
    let attempted = reps.iter().map(|r| r.attempted).sum();
    let failed = reps.iter().map(|r| r.failed).sum();
    let notes = vec![format!(
        "{} seed {} — {} repetitions in {:.1} s, {:.1} MiB backed up per repetition",
        args.workload.name(),
        args.seed,
        reps.len(),
        measuring.elapsed().as_secs_f64(),
        logical / MIB,
    )];
    Ok(Output {
        notes,
        metrics,
        attempted,
        failed,
    })
}
