//! The traced run (`--trace 1`): per-layer metrics from two sources.
//!
//! *Boundary spans* come from one real repetition of the workload with
//! every transport and backend wrapped (see [`crate::spans`]); wire
//! workloads are additionally repeated in-process, where a transport span is
//! exactly the server's time, to get the server-side sums and the wire cost
//! by subtraction. *Stage replay* (see [`crate::replay`]) gives the rates of
//! the layers the spans cannot see inside.
//!
//! `--seconds` does not bound this run: it always alternates two untraced
//! and two traced repetitions (plus one in-process for wire workloads) and
//! then runs the replay.

use std::sync::Arc;

use crate::metrics::{median, set_up, untraced_rep, Metric, Output};
use crate::replay;
use crate::spans::{Kind, Recorder, Span, Summary};
use crate::workloads::{restore_pass, run_rep, Deployment, Inputs, Phase, Rep};
use crate::Args;

const MIB: f64 = (1u64 << 20) as f64;

/// What the backend wrappers saw, the benchmark's own `total_bytes`
/// readings excluded.
#[derive(Default)]
struct BackendTotals {
    puts: u64,
    put_bytes: u64,
    appends: u64,
    append_bytes: u64,
    gets: u64,
    get_bytes: u64,
    secs: f64,
    checkpoint_puts: u64,
    /// Index runs written: every memtable flush or compaction writes one
    /// run and then rewrites its store's manifest (the only `idx-*` object
    /// that is ever `put`; runs themselves are appended).
    index_runs: u64,
    index_run_deletes: u64,
}

fn backend_totals(spans: &[Span]) -> BackendTotals {
    let mut t = BackendTotals::default();
    for span in spans {
        if span.kind != Kind::Backend || span.name == "total_bytes" {
            continue;
        }
        t.secs += span.secs();
        match span.name {
            "put" => {
                t.puts += 1;
                t.put_bytes += span.bytes;
                t.checkpoint_puts += (span.family == "meta-ckpt") as u64;
                t.index_runs += (span.family == "idx-other") as u64;
            }
            "append" => {
                t.appends += 1;
                t.append_bytes += span.bytes;
            }
            "get" | "read_range" => {
                t.gets += 1;
                t.get_bytes += span.bytes;
            }
            "delete" => t.index_run_deletes += (span.family == "idx-run") as u64,
            _ => {}
        }
    }
    t
}

/// Mean duration of backup ops during which a server committed a
/// checkpoint, over the mean of those during which none did (1 when there
/// is nothing to compare). Needs in-process spans, where the checkpoint's
/// backend put descends from the op that triggered it.
fn checkpoint_stall_ratio(spans: &[Span]) -> f64 {
    let mut stalled = vec![false; spans.len() + 1];
    for span in spans {
        if span.kind == Kind::Backend && span.name == "put" && span.family == "meta-ckpt" {
            let mut at = span.parent;
            while at != 0 {
                stalled[at as usize] = true;
                at = spans[at as usize - 1].parent;
            }
        }
    }
    let mean = |flag: bool| {
        let secs: Vec<f64> = spans
            .iter()
            .filter(|s| s.kind == Kind::Op && s.name == "backup" && stalled[s.id as usize] == flag)
            .map(Span::secs)
            .collect();
        (!secs.is_empty()).then(|| secs.iter().sum::<f64>() / secs.len() as f64)
    };
    match (mean(true), mean(false)) {
        (Some(with), Some(without)) if without > 0.0 => with / without,
        _ => 1.0,
    }
}

/// One traced repetition.
struct Traced {
    rep: Rep,
    spans: Vec<Span>,
    /// The degraded-restore phase: the workload's own, or an extra pass
    /// after `fail_cloud(0)`.
    degraded: Phase,
    /// One explicit checkpoint of server 0 at its final index size.
    checkpoint_s: f64,
    /// Opening the deployment's pooled connections, before the clock started.
    connect_s: f64,
}

impl Traced {
    fn wall_s(&self) -> f64 {
        wall_s(&self.rep)
    }
}

/// Backup plus restore phase wall time of a repetition.
fn wall_s(rep: &Rep) -> f64 {
    rep.backup.wall_s + rep.restore().wall_s
}

/// One traced repetition on a fresh deployment of the given shape.
fn traced_rep(
    wire: bool,
    disk_index: bool,
    inputs: &Inputs,
    extra_degraded_pass: bool,
) -> Result<Traced, String> {
    let rec: Arc<Recorder> = Recorder::new();
    let deployment = Deployment::spawn(wire, disk_index, Some(&rec))
        .map_err(|e| format!("traced deployment failed: {e}"))?;
    let mut rep = run_rep(&deployment, inputs, Some(&rec));
    let spans = rec.take();
    let degraded = if inputs.degraded_pass {
        rep.restore_degraded
    } else if extra_degraded_pass {
        // Tallied apart so the repetition's op latencies stay the normal
        // pass's; only the call and failure counts carry over.
        let mut extra = Rep::default();
        deployment.store.fail_cloud(0);
        let phase = restore_pass(&*deployment.store, inputs, Some(&rec), &mut extra);
        rep.attempted += extra.attempted;
        rep.failed += extra.failed;
        phase
    } else {
        Phase::default()
    };
    let start = std::time::Instant::now();
    deployment.servers[0]
        .checkpoint()
        .map_err(|e| format!("explicit checkpoint failed: {e}"))?;
    let checkpoint_s = start.elapsed().as_secs_f64();
    Ok(Traced {
        rep,
        spans,
        degraded,
        checkpoint_s,
        connect_s: deployment.connect_s,
    })
}

fn mib_s(phase: Phase) -> f64 {
    phase.bytes as f64 / MIB / phase.wall_s
}

pub fn run(args: &Args) -> Result<Output, String> {
    let inputs = set_up(args)?;
    let wire = args.workload.wire();
    let disk_index = args.workload.disk_index();

    // Untraced and traced repetitions alternate, and each side counts its
    // less disturbed one: the overhead ratio compares the two best walls,
    // and the spans come from the best traced repetition.
    const PAIRS: usize = 2;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut plain_wall_s = f64::INFINITY;
    let mut native: Option<Traced> = None;
    for _ in 0..PAIRS {
        let plain = untraced_rep(args, &inputs)?;
        attempted += plain.attempted;
        failed += plain.failed;
        plain_wall_s = plain_wall_s.min(wall_s(&plain));
        let traced = traced_rep(wire, disk_index, &inputs, true)?;
        attempted += traced.rep.attempted;
        failed += traced.rep.failed;
        if native
            .as_ref()
            .is_none_or(|best| traced.wall_s() < best.wall_s())
        {
            native = Some(traced);
        }
    }
    let Traced {
        rep,
        spans,
        degraded,
        checkpoint_s: native_checkpoint_s,
        connect_s,
    } = native.expect("PAIRS > 0");
    // In-process a transport span is the server's own time, so the
    // server-side sums always come from an in-process repetition.
    let inproc = if wire {
        let traced = traced_rep(false, disk_index, &inputs, false)?;
        attempted += traced.rep.attempted;
        failed += traced.rep.failed;
        Some(traced)
    } else {
        None
    };
    let (server_spans, checkpoint_s) = match &inproc {
        Some(traced) => (traced.spans.as_slice(), traced.checkpoint_s),
        None => (spans.as_slice(), native_checkpoint_s),
    };

    let stages = replay::run(&inputs, args.scale.replay_sample_bytes)
        .map_err(|e| format!("stage replay failed: {e}"))?;

    let native = Summary::of(&spans);
    let server = Summary::of(server_spans);
    let backend = backend_totals(&spans);
    let files =
        (native.get(Kind::Op, "backup").count + native.get(Kind::Op, "restore").count) as f64;
    let transport = native.kind_total(Kind::Transport);
    let server_transport = server.kind_total(Kind::Transport);
    let wire_overhead_s = if wire {
        transport.total_s - server_transport.total_s
    } else {
        0.0
    };
    let index_items: u64 = server_spans
        .iter()
        .filter(|s| s.kind == Kind::Transport)
        .map(|s| s.items)
        .sum();

    // Stage self times: CPU seconds the stage rates imply for the bytes the
    // traced repetition moved (client side).
    let backup_mib = rep.backup.bytes as f64 / MIB;
    let normal_mib = rep.restore_normal.bytes as f64 / MIB;
    let degraded_mib = rep.restore_degraded.bytes as f64 / MIB;
    let restore_mib = normal_mib + degraded_mib;
    let chunking_self = backup_mib / stages.fastcdc_mib_s;
    // Seconds per MiB of H(X), H(Y) and the AES mask: what CAONT costs in
    // either direction. A backup adds the share fingerprints.
    let caont_s_per_mib =
        2.0 / stages.sha256_mib_s + stages.bytes_enciphered_per_logical / stages.aes_ctr_mib_s;
    let crypto_self = (backup_mib + restore_mib) * caont_s_per_mib
        + backup_mib * (stages.bytes_hashed_per_logical - 2.0) / stages.fingerprint_batch_mib_s;
    let erasure_self = backup_mib / stages.rs_encode_mib_s
        + normal_mib / stages.rs_decode_systematic_mib_s
        + degraded_mib / stages.rs_decode_parity_mib_s;
    // Split and reconstruct contain CAONT and the RS pass; what is left
    // over is packaging, padding and copies.
    let sharing_total = backup_mib / stages.split_mib_s
        + normal_mib / stages.reconstruct_mib_s
        + degraded_mib / stages.reconstruct_parity_mib_s;
    let sharing_self =
        (sharing_total - (backup_mib + restore_mib) * caont_s_per_mib - erasure_self).max(0.0);

    let max = |ms: &[f64]| ms.iter().copied().fold(0.0, f64::max);
    let secrets = rep.secrets.max(1) as f64;
    let served = native.get(Kind::Transport, "fetch_shares").bytes.max(1) as f64;
    let ceiling = stages.encode_ceiling_mib_s();

    let values: Vec<(&str, &'static str, f64)> = vec![
        ("chunking.fastcdc_mib_s", "MiB/s", stages.fastcdc_mib_s),
        ("chunking.chunks", "count", rep.secrets as f64),
        (
            "chunking.mean_chunk_bytes",
            "B",
            rep.backup.bytes as f64 / secrets,
        ),
        ("chunking.self_s", "s", chunking_self),
        ("crypto.aes_ctr_mib_s", "MiB/s", stages.aes_ctr_mib_s),
        ("crypto.sha256_mib_s", "MiB/s", stages.sha256_mib_s),
        (
            "crypto.fingerprint_batch_mib_s",
            "MiB/s",
            stages.fingerprint_batch_mib_s,
        ),
        (
            "crypto.bytes_hashed_per_logical",
            "ratio",
            stages.bytes_hashed_per_logical,
        ),
        (
            "crypto.bytes_enciphered_per_logical",
            "ratio",
            stages.bytes_enciphered_per_logical,
        ),
        ("crypto.self_s", "s", crypto_self),
        (
            "gf.mul_acc_share_mib_s",
            "MiB/s",
            stages.mul_acc_share_mib_s,
        ),
        ("erasure.encode_mib_s", "MiB/s", stages.rs_encode_mib_s),
        (
            "erasure.decode_systematic_mib_s",
            "MiB/s",
            stages.rs_decode_systematic_mib_s,
        ),
        (
            "erasure.decode_parity_mib_s",
            "MiB/s",
            stages.rs_decode_parity_mib_s,
        ),
        ("erasure.self_s", "s", erasure_self),
        ("secretsharing.split_mib_s", "MiB/s", stages.split_mib_s),
        (
            "secretsharing.reconstruct_mib_s",
            "MiB/s",
            stages.reconstruct_mib_s,
        ),
        (
            "secretsharing.reconstruct_parity_mib_s",
            "MiB/s",
            stages.reconstruct_parity_mib_s,
        ),
        (
            "secretsharing.pool_peak_buffers",
            "count",
            stages.pool_peak_buffers,
        ),
        (
            "secretsharing.pool_reuse_ratio",
            "ratio",
            stages.pool_reuse_ratio,
        ),
        ("secretsharing.self_s", "s", sharing_self),
        (
            "core.encode_stream_mib_s",
            "MiB/s",
            stages.encode_stream_mib_s,
        ),
        (
            "core.encode_stream_1t_mib_s",
            "MiB/s",
            stages.encode_stream_1t_mib_s,
        ),
        ("core.encode_ceiling_mib_s", "MiB/s", ceiling),
        (
            "core.encode_explained_ratio",
            "ratio",
            stages.encode_stream_1t_mib_s / ceiling,
        ),
        (
            "core.client_self_s",
            "s",
            native.client_self_ns as f64 / 1e9,
        ),
        (
            "core.client_wait_s",
            "s",
            native.client_wait_ns() as f64 / 1e9,
        ),
        (
            "core.transport_calls_per_file",
            "count",
            transport.count as f64 / files,
        ),
        ("core.backup_op_p50_ms", "ms", median(&rep.backup_op_ms)),
        (
            "core.backup_op_max_over_p50",
            "ratio",
            max(&rep.backup_op_ms) / median(&rep.backup_op_ms),
        ),
        (
            "core.backup_op_ckpt_over_plain",
            "ratio",
            checkpoint_stall_ratio(server_spans),
        ),
        ("core.restore_op_p50_ms", "ms", median(&rep.restore_op_ms)),
        (
            "core.restore_normal_mib_s",
            "MiB/s",
            mib_s(rep.restore_normal),
        ),
        ("core.restore_degraded_mib_s", "MiB/s", mib_s(degraded)),
        (
            "core.intra_dedup_saving",
            "ratio",
            rep.dedup.intra_user_saving(),
        ),
        (
            "core.inter_dedup_saving",
            "ratio",
            rep.dedup.inter_user_saving(),
        ),
        (
            "core.intra_user_query_s",
            "s",
            server.get(Kind::Transport, "intra_user_query").total_s,
        ),
        (
            "core.store_shares_s",
            "s",
            server.get(Kind::Transport, "store_shares").total_s,
        ),
        (
            "core.put_file_s",
            "s",
            server.get(Kind::Transport, "put_file").total_s,
        ),
        (
            "core.get_recipe_s",
            "s",
            server.get(Kind::Transport, "get_recipe").total_s,
        ),
        (
            "core.fetch_shares_s",
            "s",
            server.get(Kind::Transport, "fetch_shares").total_s,
        ),
        (
            "core.flush_s",
            "s",
            server.get(Kind::Transport, "flush").total_s,
        ),
        ("core.server_self_s", "s", server_transport.self_s),
        (
            "core.server_store_unique_mib_s",
            "MiB/s",
            stages.server_store_unique_mib_s,
        ),
        (
            "core.server_store_dup_mib_s",
            "MiB/s",
            stages.server_store_dup_mib_s,
        ),
        (
            "core.server_fetch_mib_s",
            "MiB/s",
            stages.server_fetch_mib_s,
        ),
        ("core.checkpoint_s", "s", checkpoint_s),
        ("core.checkpoints", "count", backend.checkpoint_puts as f64),
        ("index.insert_kops_s", "kops/s", stages.index_insert_kops_s),
        (
            "index.lookup_hit_kops_s",
            "kops/s",
            stages.index_lookup_hit_kops_s,
        ),
        (
            "index.lookup_miss_kops_s",
            "kops/s",
            stages.index_lookup_miss_kops_s,
        ),
        (
            "index.block_cache_hit_ratio",
            "ratio",
            stages.index_block_cache_hit_ratio,
        ),
        ("index.runs", "count", backend.index_runs as f64),
        // A run writer clears its key before writing, so each run written
        // accounts for one delete; compaction deletes `compaction_fanin`
        // (4 by default) more.
        (
            "index.compactions",
            "count",
            backend.index_run_deletes.saturating_sub(backend.index_runs) as f64 / 4.0,
        ),
        ("index.bytes_per_entry", "B", stages.index_bytes_per_entry),
        (
            "index.self_s",
            "s",
            index_items as f64 / 1e3 / stages.index_lookup_hit_kops_s,
        ),
        (
            "storage.append_mib_s",
            "MiB/s",
            stages.container_append_mib_s,
        ),
        ("storage.read_mib_s", "MiB/s", stages.container_read_mib_s),
        ("storage.backend_puts", "count", backend.puts as f64),
        ("storage.backend_put_bytes", "B", backend.put_bytes as f64),
        ("storage.backend_appends", "count", backend.appends as f64),
        ("storage.backend_gets", "count", backend.gets as f64),
        ("storage.backend_get_bytes", "B", backend.get_bytes as f64),
        ("storage.backend_s", "s", backend.secs),
        (
            "storage.write_amp",
            "ratio",
            (backend.put_bytes + backend.append_bytes) as f64
                / rep.dedup.physical_share_bytes.max(1) as f64,
        ),
        (
            "storage.read_amp",
            "ratio",
            backend.get_bytes as f64 / served,
        ),
        ("net.frame_encode_mib_s", "MiB/s", stages.frame_encode_mib_s),
        ("net.frame_decode_mib_s", "MiB/s", stages.frame_decode_mib_s),
        ("net.probe_codec_us", "us", stages.probe_codec_us),
        ("net.rpc_roundtrip_us", "us", stages.rpc_roundtrip_us),
        ("net.store_rpc_mib_s", "MiB/s", stages.store_rpc_mib_s),
        ("net.fetch_rpc_mib_s", "MiB/s", stages.fetch_rpc_mib_s),
        (
            "net.rpcs_per_file",
            "count",
            if wire {
                transport.count as f64 / files
            } else {
                0.0
            },
        ),
        ("net.connect_s", "s", connect_s),
        ("net.wire_overhead_s", "s", wire_overhead_s),
        ("net.self_s", "s", wire_overhead_s),
        (
            "bench.trace_overhead_ratio",
            "ratio",
            wall_s(&rep) / plain_wall_s,
        ),
        ("bench.traced_logical_mib", "MiB", backup_mib),
        (
            "bench.replay_sample_mib",
            "MiB",
            stages.sample_bytes as f64 / MIB,
        ),
        (
            "bench.spans",
            "count",
            (spans.len() + inproc.as_ref().map_or(0, |t| t.spans.len())) as f64,
        ),
    ];
    let metrics: Vec<Metric> = values
        .into_iter()
        .map(|(name, unit, value)| Metric::single(name, unit, value))
        .collect();

    let mut notes = vec![format!(
        "{} seed {} — best of {PAIRS} traced repetitions: backup {:.2} s + restore {:.2} s; best untraced: {:.2} s",
        args.workload.name(),
        args.seed,
        rep.backup.wall_s,
        rep.restore().wall_s,
        plain_wall_s,
    )];
    notes.push(format!(
        "op wall {:.3} s = client self {:.3} s + transport wait {:.3} s",
        native.op_wall_ns as f64 / 1e9,
        native.client_self_ns as f64 / 1e9,
        native.client_wait_ns() as f64 / 1e9
    ));
    notes.push("span                          count      total_s       self_s        MiB".into());
    for (label, summary) in [("", &native), ("in-process ", &server)] {
        if label.is_empty() || inproc.is_some() {
            for ((kind, name), t) in &summary.by_name {
                notes.push(format!(
                    "{label}{:<9} {:<18} {:>6} {:>12.4} {:>12.4} {:>10.2}",
                    format!("{kind:?}").to_lowercase(),
                    name,
                    t.count,
                    t.total_s,
                    t.self_s,
                    t.bytes as f64 / MIB
                ));
            }
        }
    }
    if let Some(path) = &args.spans_out {
        write_spans(path, &spans).map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(Output {
        notes,
        metrics,
        attempted,
        failed,
    })
}

/// Writes the native repetition's raw spans, one JSON object per line.
fn write_spans(path: &str, spans: &[Span]) -> std::io::Result<()> {
    use crate::json::Json;
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let line = Json::obj(vec![
            ("id", Json::Num(s.id as f64)),
            ("parent", Json::Num(s.parent as f64)),
            ("kind", Json::Str(format!("{:?}", s.kind).to_lowercase())),
            ("name", Json::str(s.name)),
            (
                "cloud",
                if s.cloud == usize::MAX {
                    Json::Null
                } else {
                    Json::Num(s.cloud as f64)
                },
            ),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
            ("bytes", Json::Num(s.bytes as f64)),
            ("items", Json::Num(s.items as f64)),
            ("family", Json::str(s.family)),
        ]);
        writeln!(out, "{}", line.render())?;
    }
    out.flush()
}
