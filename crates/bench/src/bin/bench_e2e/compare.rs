//! `bench_e2e compare <a> <b>`: do two result sets agree within the bounds
//! `BENCHMARK.json` fixes?
//!
//! A result set is a file of captured `bench_e2e` output: every line that
//! is a detailed record (`{"workload": …}`) counts, everything else is
//! skipped. Several records of one workload (say ten seeds) are reduced to
//! the median per metric.

use std::process::ExitCode;

use crate::json::Json;
use crate::metrics::median;

/// `workload → metric → values`, in first-seen order.
type ResultSet = Vec<(String, Vec<(String, Vec<f64>)>)>;

fn slot<'a, T: Default>(list: &'a mut Vec<(String, T)>, key: &str) -> &'a mut T {
    let at = match list.iter().position(|(k, _)| k == key) {
        Some(at) => at,
        None => {
            list.push((key.to_string(), T::default()));
            list.len() - 1
        }
    };
    &mut list[at].1
}

pub fn parse_result_set(text: &str) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    for line in text.lines().filter(|l| l.starts_with("{\"workload\"")) {
        let record = Json::parse(line)?;
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("record without a workload name")?;
        let metrics = slot(&mut set, workload);
        for (name, metric) in record
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("record without metrics")?
        {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                slot(metrics, name).push(value);
            }
        }
        let failed = record.get("failed_ops_ratio").and_then(Json::as_f64);
        slot(metrics, "failed_ops_ratio").push(failed.unwrap_or(f64::NAN));
    }
    if set.is_empty() {
        return Err("no result records found".into());
    }
    Ok(set)
}

fn lookup(set: &ResultSet, workload: &str, metric: &str) -> Option<f64> {
    let (_, metrics) = set.iter().find(|(w, _)| w == workload)?;
    let (_, values) = metrics.iter().find(|(m, _)| m == metric)?;
    Some(median(values))
}

/// One row per workload × end-to-end metric, and whether every row agrees.
pub fn compare(
    benchmark: &Json,
    a: &ResultSet,
    b: &ResultSet,
) -> Result<(Vec<String>, bool), String> {
    let workloads = benchmark
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no workloads")?;
    let metrics = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end metrics")?;
    let mut rows = vec![format!(
        "{:<16} {:<22} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "a", "b", "b/a", "bound"
    )];
    let mut agree = true;
    for workload in workloads {
        let workload = workload
            .get("name")
            .and_then(Json::as_str)
            .ok_or("unnamed workload")?;
        for metric in metrics {
            let name = metric
                .get("name")
                .and_then(Json::as_str)
                .ok_or("unnamed metric")?;
            let bound = metric
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without bound")?;
            let lower_is_better = metric.get("better").and_then(Json::as_str) == Some("lower");
            let (verdict, va, vb) = match (lookup(a, workload, name), lookup(b, workload, name)) {
                (Some(va), Some(vb)) => {
                    let ratio = vb / va;
                    let verdict = if !ratio.is_finite() {
                        "UNDEFINED"
                    } else if (ratio - 1.0).abs() <= bound {
                        "ok"
                    } else if (ratio > 1.0) == lower_is_better {
                        "WORSE"
                    } else {
                        "BETTER"
                    };
                    (verdict, va, vb)
                }
                _ => ("MISSING", f64::NAN, f64::NAN),
            };
            agree &= verdict == "ok";
            rows.push(format!(
                "{workload:<16} {name:<22} {va:>14.6} {vb:>14.6} {:>8.4} {bound:>6.3}  {verdict}",
                vb / va
            ));
        }
        // Not a bounded metric (it is never anything but 0 on a healthy
        // tree): any failed call in either set is a disagreement.
        let failed = |set| lookup(set, workload, "failed_ops_ratio");
        let verdict = match (failed(a), failed(b)) {
            (Some(fa), Some(fb)) if fa == 0.0 && fb == 0.0 => "ok",
            (Some(_), Some(_)) => "FAILED-OPS",
            _ => "MISSING",
        };
        agree &= verdict == "ok";
        rows.push(format!(
            "{workload:<16} {:<22} {:>14.6} {:>14.6} {:>8} {:>6}  {verdict}",
            "failed_ops_ratio",
            failed(a).unwrap_or(f64::NAN),
            failed(b).unwrap_or(f64::NAN),
            "",
            "0"
        ));
    }
    Ok((rows, agree))
}

pub fn run(a_path: &str, b_path: &str, benchmark_path: &str) -> ExitCode {
    let load = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let outcome = (|| {
        let benchmark =
            Json::parse(&load(benchmark_path)?).map_err(|e| format!("{benchmark_path}: {e}"))?;
        let a = parse_result_set(&load(a_path)?).map_err(|e| format!("{a_path}: {e}"))?;
        let b = parse_result_set(&load(b_path)?).map_err(|e| format!("{b_path}: {e}"))?;
        compare(&benchmark, &a, &b)
    })();
    match outcome {
        Ok((rows, agree)) => {
            for row in rows {
                println!("{row}");
            }
            if agree {
                println!("the two result sets agree within every bound");
                ExitCode::SUCCESS
            } else {
                println!("the two result sets DIFFER by more than a bound");
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("bench_e2e compare: {message}");
            ExitCode::from(2)
        }
    }
}
