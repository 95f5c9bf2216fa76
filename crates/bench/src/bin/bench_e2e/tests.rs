use std::sync::Arc;
use std::time::Instant;

use crate::compare::{compare, parse_result_set};
use crate::json::Json;
use crate::metrics::{self, Output};
use crate::spans::{covered_ns, self_ns, Kind, Recorder, Span, Summary};
use crate::trace;
use crate::workloads::{Scale, Workload, SMOKE};
use crate::Args;

fn span(id: u32, parent: u32, kind: Kind, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        kind,
        name: match kind {
            Kind::Op => "backup",
            Kind::Transport => "store_shares",
            Kind::Backend => "put",
        },
        cloud: 0,
        start_ns,
        end_ns,
        bytes: 0,
        items: 0,
        family: "",
    }
}

#[test]
fn self_time_is_duration_minus_the_union_of_child_intervals() {
    let op = span(1, 0, Kind::Op, 100, 1100);
    let a = span(2, 1, Kind::Transport, 200, 400);
    let b = span(3, 1, Kind::Transport, 600, 900);
    assert_eq!(self_ns(&op, &[&a, &b]), 1000 - 200 - 300);
    assert_eq!(self_ns(&op, &[]), 1000);
    // A child sticking out of its parent only counts where it overlaps.
    let late = span(4, 1, Kind::Transport, 1000, 1500);
    assert_eq!(self_ns(&op, &[&late]), 900);
}

#[test]
fn overlapping_per_cloud_spans_are_not_double_counted() {
    let op = span(1, 0, Kind::Op, 0, 1000);
    // Four clouds called in parallel over nearly the same interval, one
    // nested entirely inside another, one adjacent.
    let clouds = [
        span(2, 1, Kind::Transport, 100, 500),
        span(3, 1, Kind::Transport, 150, 550),
        span(4, 1, Kind::Transport, 200, 300),
        span(5, 1, Kind::Transport, 550, 600),
    ];
    let refs: Vec<&Span> = clouds.iter().collect();
    assert_eq!(self_ns(&op, &refs), 1000 - 500);
    let mut intervals = vec![(150, 550), (100, 500), (550, 600), (200, 300)];
    assert_eq!(covered_ns(&mut intervals, 0, 1000), 500);
}

#[test]
fn stage_self_times_plus_unattributed_time_equal_the_op_wall_time() {
    // op ⊃ two sequential transport calls, each ⊃ backend calls.
    let spans = vec![
        span(1, 0, Kind::Op, 0, 10_000),
        span(2, 1, Kind::Transport, 1_000, 4_000),
        span(3, 2, Kind::Backend, 1_500, 2_500),
        span(4, 2, Kind::Backend, 3_000, 3_200),
        span(5, 1, Kind::Transport, 5_000, 9_000),
        span(6, 5, Kind::Backend, 6_000, 8_500),
    ];
    let summary = Summary::of(&spans);
    let op = summary.kind_total(Kind::Op);
    let transport = summary.kind_total(Kind::Transport);
    let backend = summary.kind_total(Kind::Backend);
    // The op's own (unattributed) time plus every stage's self time is the
    // op's wall time, exactly.
    let total = op.self_s + transport.self_s + backend.self_s;
    assert!(
        (total - op.total_s).abs() < 1e-12,
        "{total} vs {}",
        op.total_s
    );
    assert!((op.self_s - 3_000e-9).abs() < 1e-12);
    assert!((transport.self_s - (3_000.0 - 1_200.0 + 4_000.0 - 2_500.0) * 1e-9).abs() < 1e-12);
    // Client self and wait partition the op wall time.
    assert_eq!(
        (
            summary.client_self_ns,
            summary.client_wait_ns(),
            summary.op_wall_ns
        ),
        (3_000, 7_000, 10_000)
    );
}

#[test]
fn recorder_links_children_to_the_enclosing_span_per_thread() {
    let rec: Arc<Recorder> = Recorder::new();
    rec.op("backup", 7, || {
        rec.span(
            Kind::Transport,
            "store_shares",
            2,
            "",
            || {
                rec.span(Kind::Backend, "put", 2, "container", || (), |_| (5, 0));
            },
            |_| (3, 1),
        );
        // Another thread's spans do not become children of this op.
        std::thread::scope(|scope| {
            scope.spawn(|| rec.span(Kind::Backend, "append", 1, "meta-wal", || (), |_| (0, 0)));
        });
    });
    let spans = rec.take();
    assert_eq!(spans.len(), 4);
    assert_eq!(
        (spans[0].kind, spans[0].parent, spans[0].bytes),
        (Kind::Op, 0, 7)
    );
    assert_eq!((spans[1].parent, spans[1].bytes, spans[1].items), (1, 3, 1));
    assert_eq!((spans[2].parent, spans[2].family), (2, "container"));
    assert_eq!(spans[3].parent, 0);
    assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
}

fn benchmark_json() -> Json {
    // The manifest directory is `crates/bench` when built as a bin of
    // `cdstore_bench` and this directory when built as its own package;
    // `BENCHMARK.json` sits at the repository root above both.
    let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    loop {
        let candidate = dir.join("BENCHMARK.json");
        if candidate.exists() {
            let text = std::fs::read_to_string(candidate).expect("readable BENCHMARK.json");
            return Json::parse(&text).expect("BENCHMARK.json parses");
        }
        assert!(dir.pop(), "no BENCHMARK.json above the manifest directory");
    }
}

fn named(list: &Json) -> Vec<(String, String)> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|entry| {
            let field = |key| {
                entry
                    .get(key)
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// `(name, unit)` of the metrics `BENCHMARK.json` lists under `section`.
fn listed(section: &str) -> Vec<(String, String)> {
    named(benchmark_json().get(section).expect("section present"))
}

fn is_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// That the metric names and units match what the binary emits is checked
/// against real runs, in [`checked`].
#[test]
fn benchmark_json_names_the_workloads_and_its_own_directory() {
    let benchmark = benchmark_json();
    let workloads: Vec<String> = named(benchmark.get("workloads").expect("workloads"))
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    let emitted: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, emitted);
    let paths = benchmark
        .get("paths")
        .and_then(Json::as_arr)
        .expect("paths");
    assert_eq!(paths, [Json::str("crates/bench/src/bin/bench_e2e")]);
    for metric in benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("list")
    {
        let bound = metric.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25);
    }
}

/// Unoptimised builds run the byte-at-a-time AES some twenty times slower,
/// so `cargo test` without `--release` shrinks the smoke shapes further.
const DEBUG_SMOKE: Scale = Scale {
    bulk_files: 3,
    bulk_file_bytes: 160 * 1024,
    weekly_users: 4,
    weekly_weeks: 3,
    weekly_chunks: 6,
    small_files: 16,
    warmup_bytes: 32 * 1024,
    replay_sample_bytes: 96 * 1024,
};

fn smoke_args(workload: Workload, seed: u64, trace: bool) -> Args {
    Args {
        workload,
        seed,
        // One repetition: the loop stops as soon as the budget is spent.
        seconds: 0.001,
        trace,
        scale: if cfg!(debug_assertions) {
            DEBUG_SMOKE
        } else {
            SMOKE
        },
        smoke: true,
        spans_out: None,
    }
}

fn value(output: &Output, name: &str) -> f64 {
    let metric = output.metrics.iter().find(|m| m.name == name);
    metric.unwrap_or_else(|| panic!("no metric {name}")).value
}

/// Checks everything a run's output promises and returns it.
fn checked(args: &Args, output: Output, section: &str) -> Output {
    assert_eq!(output.failed, 0, "failed_ops_ratio must be 0");
    assert!(output.attempted >= 1);
    let emitted: Vec<(String, String)> = output
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    let expected = listed(section);
    assert_eq!(
        emitted, expected,
        "BENCHMARK.json names exactly what is emitted"
    );
    for metric in &output.metrics {
        assert!(is_metric_name(&metric.name), "{}", metric.name);
        assert!(
            metric.value.is_finite(),
            "{} = {}",
            metric.name,
            metric.value
        );
    }
    // The last line is the driver's result object with exactly four keys.
    let lines = output.lines(args);
    let last = Json::parse(lines.last().expect("a result line")).expect("valid JSON");
    let keys: Vec<&str> = last
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
    let listed = last.get("metrics").and_then(Json::as_obj).expect("metrics");
    assert_eq!(listed.len(), expected.len());
    for (_, metric) in listed {
        let keys: Vec<&str> = metric
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["value", "unit"]);
    }
    output
}

fn smoke(workload: Workload) {
    let run = |seed| {
        let args = smoke_args(workload, seed, false);
        let output = metrics::run(&args, Instant::now()).expect("untraced run");
        checked(&args, output, "end_to_end")
    };
    let (first, again) = (run(11), run(11));
    let sent = |o: &Output| value(o, "sent_per_logical");
    let stored = |o: &Output| value(o, "stored_per_logical");
    // Byte counts repeat exactly for a fixed seed. The one exception is
    // stored bytes under weekly-wire's two concurrent clients, where
    // checkpoint and container-seal timing shift a few metadata bytes.
    assert_eq!(sent(&first), sent(&again));
    if workload == Workload::WeeklyWire {
        assert!((stored(&first) / stored(&again) - 1.0).abs() < 0.01);
        let other = run(12);
        assert_ne!(sent(&first), sent(&other));
        assert_ne!(stored(&first), stored(&other));
        assert!(sent(&first) < 1.0);
    } else {
        assert_eq!(stored(&first), stored(&again));
    }
    let args = smoke_args(workload, 11, true);
    let traced = checked(&args, trace::run(&args).expect("traced run"), "per_layer");
    assert_eq!(
        value(&traced, "net.wire_overhead_s") == 0.0,
        !workload.wire()
    );
}

#[test]
fn smoke_bulk_inproc() {
    smoke(Workload::BulkInproc);
}

#[test]
fn smoke_bulk_wire() {
    smoke(Workload::BulkWire);
}

#[test]
fn smoke_weekly_wire() {
    smoke(Workload::WeeklyWire);
}

#[test]
fn smoke_smallfiles_wire() {
    smoke(Workload::SmallfilesWire);
}

#[test]
fn bulk_workloads_move_identical_bytes() {
    let ratios = |workload| {
        let output = metrics::run(&smoke_args(workload, 5, false), Instant::now()).expect("run");
        (
            value(&output, "sent_per_logical"),
            value(&output, "stored_per_logical"),
        )
    };
    assert_eq!(ratios(Workload::BulkInproc), ratios(Workload::BulkWire));
}

#[test]
fn compare_flags_differences_beyond_the_bound_and_failed_ops() {
    let benchmark = benchmark_json();
    let record = |workload: &str, backup: f64, failed: f64| {
        let metrics: Vec<(String, Json)> = listed("end_to_end")
            .into_iter()
            .map(|(name, unit)| {
                let value = if name == "backup_mib_s" { backup } else { 2.0 };
                (
                    name,
                    Json::obj(vec![
                        ("value", Json::Num(value)),
                        ("unit", Json::str(&unit)),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("workload", Json::str(workload)),
            ("failed_ops_ratio", Json::Num(failed)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    };
    let set = |backup: f64, failed: f64| {
        let lines: Vec<String> = Workload::ALL
            .iter()
            .flat_map(|w| {
                // Three records per workload: compare takes their median.
                [backup * 0.5, backup, backup * 2.0].map(|b| record(w.name(), b, failed))
            })
            .chain(["not a record".to_string()])
            .collect();
        parse_result_set(&lines.join("\n")).expect("parses")
    };
    let base = set(40.0, 0.0);
    let (rows, agree) = compare(&benchmark, &base, &set(41.0, 0.0)).expect("compares");
    assert!(agree, "{rows:#?}");
    // One header, then per workload one row per metric plus failed ops.
    let per_workload = listed("end_to_end").len() + 1;
    assert_eq!(rows.len(), 1 + Workload::ALL.len() * per_workload);
    let (rows, agree) = compare(&benchmark, &base, &set(20.0, 0.0)).expect("compares");
    assert!(!agree);
    assert_eq!(
        rows.iter().filter(|r| r.ends_with("WORSE")).count(),
        Workload::ALL.len()
    );
    let (rows, agree) = compare(&benchmark, &base, &set(80.0, 0.0)).expect("compares");
    assert!(!agree);
    assert_eq!(
        rows.iter().filter(|r| r.ends_with("BETTER")).count(),
        Workload::ALL.len()
    );
    let (rows, agree) = compare(&benchmark, &base, &set(40.0, 0.01)).expect("compares");
    assert!(!agree);
    assert!(rows.iter().any(|r| r.ends_with("FAILED-OPS")));
    assert!(parse_result_set("nothing here").is_err());
}

#[test]
fn json_round_trips_what_the_benchmark_writes() {
    let value = Json::obj(vec![
        ("name", Json::str("a \"quoted\"\\ line\n")),
        (
            "numbers",
            Json::Arr(vec![Json::Num(1.0), Json::Num(-0.25), Json::Num(1.5e-9)]),
        ),
        (
            "nested",
            Json::obj(vec![("ok", Json::Bool(true)), ("none", Json::Null)]),
        ),
    ]);
    assert_eq!(Json::parse(&value.render()).expect("parses"), value);
    assert_eq!(Json::Num(f64::NAN).render(), "null");
    assert_eq!(Json::Num(3.0).render(), "3");
    assert!(Json::parse("{\"a\": [1, 2,]}").is_err());
    assert!(Json::parse("{} trailing").is_err());
}
