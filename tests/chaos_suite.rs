//! Chaos harness: trace replays through CDStore deployments whose backends
//! misbehave on purpose.
//!
//! Every scenario drives real workloads (the FSL/VM synthetic traces from
//! `cdstore_workloads`) through a [`CdStore`] deployment whose clouds are
//! wrapped in [`FaultyBackend`]s — seeded, replayable fault plans injecting
//! transient errors, torn writes, outages, and slowdowns — and asserts the
//! paper's reliability claims hold under fire: byte-exact restores, k-of-n
//! reads through a single-cloud outage, bounded retries, and bounded
//! recovery. Fault schedules are written to `target/chaos/` so a CI failure
//! can be replayed locally from the artifact (see `docs/chaos.md`).
//!
//! A server commits its journal once per request, so a backup touches its
//! backend a few dozen times, not thousands: every backend operation is a
//! large one (a journal group, a container, a checkpoint), and the fault
//! rates are set per *such* operation. Each rate-driven scenario ends a
//! backup job with a flush (as the paper's client does), and checks that it
//! injected at least [`MIN_FAULTS_PER_CLOUD`] faults on every cloud.
//!
//! Debug builds (tier-1 `cargo test -q`) run reduced sizes; the CI `chaos`
//! job runs the full sizes in release mode with `CHAOS_SEED` pinned.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cdstore_core::{
    CdStore, CdStoreConfig, CdStoreError, CdStoreServer, RetryPolicy, ServerTransport,
};
use cdstore_net::{LoopbackCluster, NetClientConfig};
use cdstore_storage::journal::WAL_PREFIX;
use cdstore_storage::{
    FaultConfig, FaultKind, FaultPlan, FaultyBackend, MemoryBackend, StorageBackend, Window,
};
use cdstore_workloads::{FslConfig, FslWorkload, Snapshot, VmConfig, VmWorkload, Workload};

/// Seed every scenario derives its fault plans from. CI pins this via the
/// `CHAOS_SEED` environment variable so a failure names its exact schedule.
fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xCD5_70FE)
}

/// Faults a rate-driven scenario must inject on *every* cloud, at either
/// size, before it may claim to have tested anything.
const MIN_FAULTS_PER_CLOUD: usize = 3;

/// Whether to run the full-size workloads (release CI) or the reduced
/// tier-1 sizes (debug).
fn full_size() -> bool {
    !cfg!(debug_assertions)
}

fn fsl_snapshots(users: usize, weeks: usize, chunks: usize) -> Vec<Vec<Snapshot>> {
    FslWorkload::new(FslConfig {
        users,
        weeks,
        initial_chunks_per_user: chunks,
        ..Default::default()
    })
    .snapshots()
}

fn vm_snapshots(users: usize, weeks: usize, chunks: usize) -> Vec<Vec<Snapshot>> {
    VmWorkload::new(VmConfig {
        users,
        weeks,
        chunks_per_image: chunks,
        ..Default::default()
    })
    .snapshots()
}

/// Builds `n` fault-wrapped in-memory clouds from one scenario seed: every
/// cloud gets its own deterministic plan (seed offset by cloud index).
fn faulty_clouds(
    n: usize,
    seed: u64,
    configure: impl Fn(FaultConfig) -> FaultConfig,
) -> (Vec<Arc<FaultyBackend>>, Vec<Arc<FaultPlan>>) {
    let mut backends = Vec::with_capacity(n);
    let mut plans = Vec::with_capacity(n);
    for cloud in 0..n {
        let plan = Arc::new(FaultPlan::new(configure(FaultConfig::clean(
            seed.wrapping_add(cloud as u64),
        ))));
        backends.push(Arc::new(FaultyBackend::new(
            Arc::new(MemoryBackend::new()),
            Arc::clone(&plan),
        )));
        plans.push(plan);
    }
    (backends, plans)
}

/// Upcasts the concrete fault-wrapped clouds to the trait objects the
/// deployment constructors take.
fn as_backends(clouds: &[Arc<FaultyBackend>]) -> Vec<Arc<dyn StorageBackend>> {
    clouds
        .iter()
        .map(|b| Arc::clone(b) as Arc<dyn StorageBackend>)
        .collect()
}

/// Writes the per-cloud fault schedules where CI uploads them from on
/// failure (best-effort; the suite must not fail on log I/O).
fn dump_schedules(scenario: &str, plans: &[Arc<FaultPlan>]) {
    let dir = std::path::Path::new("target/chaos");
    let _ = std::fs::create_dir_all(dir);
    for (cloud, plan) in plans.iter().enumerate() {
        let _ = std::fs::write(
            dir.join(format!("{scenario}-cloud{cloud}.log")),
            plan.render_schedule(),
        );
    }
}

/// One backup job: the snapshot goes up through `store.backup_chunks` and
/// the job ends with a flush, panicking with the scenario name on failure.
fn backup_job<T: ServerTransport>(store: &CdStore<T>, scenario: &str, snapshot: &Snapshot) {
    store
        .backup_chunks(snapshot.user, &snapshot.pathname(), &snapshot.materialize())
        .unwrap_or_else(|e| panic!("{scenario}: backup failed: {e}"));
    store
        .flush()
        .unwrap_or_else(|e| panic!("{scenario}: flush failed: {e}"));
}

/// Replays every snapshot as one backup job each.
fn replay<T: ServerTransport>(store: &CdStore<T>, scenario: &str, snapshots: &[Vec<Snapshot>]) {
    for snapshot in snapshots.iter().flatten() {
        backup_job(store, scenario, snapshot);
    }
}

/// The self-check of every rate-driven scenario: the run was genuinely
/// hostile on every cloud.
fn assert_hostile(scenario: &str, plans: &[Arc<FaultPlan>]) {
    for (cloud, plan) in plans.iter().enumerate() {
        let faults = plan.schedule().len();
        assert!(
            faults >= MIN_FAULTS_PER_CLOUD,
            "{scenario}: cloud {cloud} injected {faults} faults in {} backend operations \
             (< {MIN_FAULTS_PER_CLOUD}) — the scenario tested too little",
            plan.ticks()
        );
    }
}

/// Asserts every user's latest snapshot restores byte-exactly.
fn assert_restores<T: ServerTransport>(
    store: &CdStore<T>,
    scenario: &str,
    snapshots: &[Vec<Snapshot>],
) {
    for snapshot in snapshots.last().expect("non-empty workload") {
        let expected: Vec<u8> = snapshot.materialize().concat();
        let restored = store
            .restore(snapshot.user, &snapshot.pathname())
            .unwrap_or_else(|e| panic!("{scenario}: restore failed: {e}"));
        assert_eq!(restored, expected, "{scenario}: restore mismatch");
    }
}

/// Degraded clouds — every backend injecting transient errors and torn
/// writes — slow the workload down but never fail it: retries absorb every
/// fault, restores stay byte-exact, and dedup keeps working.
#[test]
fn trace_replay_survives_degraded_clouds() {
    let seed = chaos_seed();
    let (clouds, plans) = faulty_clouds(4, seed, |c| {
        c.with_error_rate(0.10).with_torn_write_rate(0.06)
    });
    let config = CdStoreConfig::new(4, 3)
        .unwrap()
        .with_retry(RetryPolicy::with_attempts(8));
    let store = CdStore::with_backends(config, as_backends(&clouds)).unwrap();

    let (users, weeks, chunks) = if full_size() { (4, 6, 120) } else { (3, 6, 24) };
    let snapshots = fsl_snapshots(users, weeks, chunks);
    replay(&store, "degraded", &snapshots);
    assert_restores(&store, "degraded", &snapshots);
    dump_schedules("degraded", &plans);
    assert_hostile("degraded", &plans);
    // Dedup survived the chaos: intra-user dedup still removes a duplicate
    // re-upload entirely, and inter-user dedup kept physical below logical.
    let before = store.stats().dedup;
    let last = &snapshots.last().unwrap()[0];
    store
        .backup_chunks(last.user, "/chaos/duplicate", &last.materialize())
        .unwrap();
    let after = store.stats().dedup;
    assert_eq!(
        after.transferred_share_bytes, before.transferred_share_bytes,
        "duplicate re-upload must transfer nothing"
    );
    assert!(after.physical_share_bytes <= after.transferred_share_bytes);
}

/// A full single-cloud outage: restores keep succeeding k-of-n (failing
/// over to a spare cloud even though nobody flagged the cloud down),
/// backups fail fast with bounded retries, and the system recovers as soon
/// as the cloud returns.
#[test]
fn single_cloud_outage_keeps_k_of_n_reads_alive() {
    let seed = chaos_seed().wrapping_add(100);
    let (clouds, plans) = faulty_clouds(4, seed, |c| c);
    let retry = RetryPolicy {
        max_attempts: 3,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(4),
    };
    let config = CdStoreConfig::new(4, 3).unwrap().with_retry(retry);
    let store = CdStore::with_backends(config, as_backends(&clouds)).unwrap();

    let size = if full_size() { 400_000 } else { 80_000 };
    let data: Vec<u8> = (0..size)
        .map(|i| ((i / 700) as u8).wrapping_mul(13).wrapping_add(7))
        .collect();
    store.backup(1, "/outage/a.tar", &data).unwrap();
    store.flush().unwrap();
    // Restart every server so the container caches are cold: reads must go
    // to the (about to misbehave) backends, not be absorbed by the LRU.
    for i in 0..4 {
        store.restart_server(i).unwrap();
    }

    // Cloud 0 goes dark at the backend level; the façade still believes all
    // four clouds are up, so the restore's first choice includes cloud 0.
    plans[0].set_outage(true);
    let events_before = plans[0].schedule().len();
    assert_eq!(
        store.restore(1, "/outage/a.tar").unwrap(),
        data,
        "restore must fail over to the spare cloud"
    );
    assert!(
        plans[0].schedule().len() > events_before,
        "restore never hit the dead cloud — failover was not exercised"
    );

    // New data buffers server-side, so the backup itself succeeds; it is
    // the flush that must push bytes through the dead cloud and fail — with
    // bounded retries, not a hang: at most max_attempts per server, each
    // backoff capped at 4 ms.
    let fresh: Vec<u8> = (0..size)
        .map(|i| ((i / 650) as u8).wrapping_mul(31).wrapping_add(11))
        .collect();
    store.backup(1, "/outage/b.tar", &fresh).unwrap();
    let started = Instant::now();
    let err = store
        .flush()
        .expect_err("flushing through a dead cloud must fail");
    assert!(
        matches!(err, CdStoreError::Storage(_) | CdStoreError::Remote(_)),
        "unexpected error {err}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "retries must be bounded, took {:?}",
        started.elapsed()
    );

    // The cloud comes back: the failed seal retries cleanly (a failed seal
    // reinstates the builder) and both files restore byte-exactly.
    plans[0].set_outage(false);
    store.flush().unwrap();
    assert_eq!(store.restore(1, "/outage/a.tar").unwrap(), data);
    assert_eq!(store.restore(1, "/outage/b.tar").unwrap(), fresh);
    dump_schedules("outage", &plans);
}

/// Façade-visible outages hit mid-trace, a different cloud each week:
/// backups quiesce around the windows, mid-outage restores keep succeeding
/// k-of-n, pending deletes replay on recovery, and every file restores
/// byte-exactly at the end.
#[test]
fn outage_windows_and_failover_during_churn() {
    let seed = chaos_seed().wrapping_add(200);
    let (clouds, plans) = faulty_clouds(4, seed, |c| {
        c.with_error_rate(0.12).with_torn_write_rate(0.08)
    });
    let config = CdStoreConfig::new(4, 3)
        .unwrap()
        .with_retry(RetryPolicy::with_attempts(8));
    let store = CdStore::with_backends(config, as_backends(&clouds)).unwrap();

    let (users, weeks, chunks) = if full_size() { (3, 6, 100) } else { (3, 5, 24) };
    let snapshots = fsl_snapshots(users, weeks, chunks);
    for (week_no, week) in snapshots.iter().enumerate() {
        if week_no > 0 {
            // Take one cloud fully down — backend outage plus façade flag —
            // and verify week-0 data still restores from the other three.
            let victim = week_no % 4;
            store.fail_cloud(victim);
            plans[victim].set_outage(true);
            let first = &snapshots[0][0];
            assert_eq!(
                store.restore(first.user, &first.pathname()).unwrap(),
                first.materialize().concat()
            );
            plans[victim].set_outage(false);
            store.recover_cloud(victim);
        }
        for snapshot in week {
            backup_job(&store, "windows", snapshot);
        }
    }
    assert_restores(&store, "windows", &snapshots);
    dump_schedules("windows", &plans);
    assert_hostile("windows", &plans);
}

/// Graceful server restarts injected mid-churn while backends stay flaky:
/// every restart recovers from backend-only state within a bounded time and
/// the workload never notices.
#[test]
fn mid_churn_server_restarts_recover_bounded() {
    let seed = chaos_seed().wrapping_add(300);
    let (clouds, plans) = faulty_clouds(4, seed, |c| c.with_torn_write_rate(0.18));
    let config = CdStoreConfig::new(4, 3)
        .unwrap()
        .with_retry(RetryPolicy::with_attempts(8));
    let store = CdStore::with_backends(config, as_backends(&clouds)).unwrap();

    let (users, weeks, chunks) = if full_size() { (3, 6, 100) } else { (3, 4, 24) };
    let snapshots = fsl_snapshots(users, weeks, chunks);
    let mut restarts = 0usize;
    for (week_no, week) in snapshots.iter().enumerate() {
        for (i, snapshot) in week.iter().enumerate() {
            backup_job(&store, "restart", snapshot);
            if i == week.len() / 2 {
                // Restart a rotating server in the middle of every week.
                // The restart's own backend traffic sees the same injected
                // faults as client traffic, so ride it on the retry policy:
                // a transient fault mid-seal or mid-recovery is ridden out,
                // not fatal.
                let victim = week_no % 4;
                let started = Instant::now();
                let report = config
                    .retry
                    .run(|_| store.restart_server(victim))
                    .unwrap_or_else(|e| panic!("restart of server {victim} failed: {e}"));
                assert!(
                    started.elapsed() < Duration::from_secs(30),
                    "recovery took {:?}",
                    started.elapsed()
                );
                assert!(report.containers_scanned > 0);
                restarts += 1;
            }
        }
    }
    assert!(restarts >= weeks);
    assert_restores(&store, "restart", &snapshots);
    dump_schedules("restart", &plans);
    assert_hostile("restart", &plans);
}

/// Crash-style recovery under fire: the deployment is dropped wholesale and
/// reopened from the bytes the faulty backends happened to persist —
/// including any torn container prefix a retry abandoned mid-flight — and
/// every flushed file restores.
#[test]
fn crash_reopen_from_faulty_backends() {
    let seed = chaos_seed().wrapping_add(400);
    let (clouds, plans) = faulty_clouds(4, seed, |c| {
        c.with_error_rate(0.06).with_torn_write_rate(0.10)
    });
    let config = CdStoreConfig::new(4, 3)
        .unwrap()
        .with_retry(RetryPolicy::with_attempts(8));
    let store = CdStore::with_backends(config, as_backends(&clouds)).unwrap();

    let (users, weeks, chunks) = if full_size() { (3, 6, 90) } else { (3, 4, 24) };
    let snapshots = fsl_snapshots(users, weeks, chunks);
    replay(&store, "crash", &snapshots);
    drop(store);

    // Reopen from the persisted state, through the clean inner view: the
    // clouds have "recovered", but whatever garbage the fault plans caused
    // to be written is still there for recovery to prune.
    let inner: Vec<Arc<dyn StorageBackend>> = clouds.iter().map(|b| b.inner()).collect();
    let started = Instant::now();
    let (reopened, reports) = CdStore::open(config, inner).unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "crash recovery took {:?}",
        started.elapsed()
    );
    assert_eq!(reports.len(), 4);
    assert!(reports.iter().all(|r| r.containers_scanned > 0));
    assert_restores(&reopened, "crash", &snapshots);
    dump_schedules("crash", &plans);
    assert_hostile("crash", &plans);
}

/// The same chaos over real TCP, on the VM trace: a networked deployment on
/// fault-injecting backends, with a wire-server crash-restart injected
/// between weeks. Clients ride out the dropped connections through retry,
/// and restores stay byte-exact end to end.
#[test]
fn networked_chaos_with_crash_restart() {
    let seed = chaos_seed().wrapping_add(500);
    let (clouds, plans) = faulty_clouds(4, seed, |c| c.with_torn_write_rate(0.18));
    let cores: Vec<Arc<CdStoreServer>> = clouds
        .iter()
        .enumerate()
        .map(|(i, b)| {
            Arc::new(CdStoreServer::with_backend(
                i,
                Arc::clone(b) as Arc<dyn StorageBackend>,
            ))
        })
        .collect();
    let mut cluster = LoopbackCluster::spawn_with_servers(cores).unwrap();
    let config = CdStoreConfig::new(4, 3)
        .unwrap()
        .with_retry(RetryPolicy::with_attempts(8));
    let store = cluster.store(config, NetClientConfig::default()).unwrap();

    let (users, weeks, chunks) = if full_size() { (3, 8, 90) } else { (3, 6, 24) };
    let snapshots = vm_snapshots(users, weeks, chunks);
    for (week_no, week) in snapshots.iter().enumerate() {
        for snapshot in week {
            backup_job(&store, "net-chaos", snapshot);
        }
        // Crash-restart a rotating wire server between weeks: connections
        // drop, the server recovers from backend-only state, and the next
        // week's traffic reconnects to the same address. Every job ended
        // with a flush, so the crash tears no buffered shares away
        // (unflushed-tail recovery is exercised by
        // `crash_reopen_from_faulty_backends`).
        let victim = week_no % 4;
        config
            .retry
            .run(|_| cluster.restart(victim))
            .unwrap_or_else(|e| panic!("net-chaos: restart of {victim} failed: {e}"));
    }
    assert_restores(&store, "net-chaos", &snapshots);
    dump_schedules("net-chaos", &plans);
    // The wire path saw injected faults too.
    assert_hostile("net-chaos", &plans);
}

/// A host crash mid-commit: every cloud's server dies while the journal
/// *group* of an upload batch is being appended, each at its own seeded cut.
/// After the restart, everything acknowledged restores byte-exactly, and the
/// upload the crash interrupted is cleanly absent — a prefix of its group
/// replays, but none of it stays applied — until the client backs it up
/// again.
#[test]
fn a_crash_tearing_a_journal_group_leaves_nothing_half_applied() {
    let seed = chaos_seed().wrapping_add(700);
    let (clouds, plans) = faulty_clouds(4, seed, |c| c);
    let config = CdStoreConfig::new(4, 3).unwrap();
    let store = CdStore::with_backends(config, as_backends(&clouds)).unwrap();

    // Acknowledged work: every job below returned and flushed.
    let (users, weeks, chunks) = if full_size() { (3, 3, 90) } else { (2, 2, 24) };
    let snapshots = fsl_snapshots(users, weeks, chunks);
    replay(&store, "torn-group", &snapshots);
    let unique_before: Vec<usize> =
        store.with_servers(|servers| servers.iter().map(|s| s.unique_shares()).collect());

    // The crash: each cloud's next backend write is the group commit of the
    // victim's share batch; it lands a strict prefix and the host is gone.
    // Whatever the doomed process answers after that instant reached nobody,
    // so the upload's own result is ignored: it was never acknowledged.
    for plan in &plans {
        plan.crash_on_next_write();
    }
    let size = if full_size() { 600_000 } else { 150_000 };
    let victim: Vec<u8> = (0..size)
        .map(|i| ((i / 900) as u8).wrapping_mul(29).wrapping_add(3))
        .collect();
    let _ = store.backup(77, "/torn/victim.tar", &victim);
    drop(store);
    dump_schedules("torn-group", &plans);
    for (cloud, plan) in plans.iter().enumerate() {
        let schedule = plan.schedule();
        let FaultKind::TornWrite { written, requested } = schedule[0].kind else {
            panic!(
                "cloud {cloud}: the crash was not a torn write: {}",
                schedule[0]
            );
        };
        assert!(
            schedule[0].op == "append" && schedule[0].key.starts_with(WAL_PREFIX),
            "cloud {cloud}: the crash missed the journal: {}",
            schedule[0]
        );
        // A group of many records (two per share), torn strictly inside.
        assert!(requested > 1_000 && written < requested, "{}", schedule[0]);
    }

    // Restart from the bytes the crash left behind.
    let inner: Vec<Arc<dyn StorageBackend>> = clouds.iter().map(|b| b.inner()).collect();
    let (reopened, reports) = CdStore::open(config, inner).unwrap();
    assert!(
        reports.iter().any(|r| r.torn_tail),
        "no recovery saw a torn group: {reports:?}"
    );
    assert_restores(&reopened, "torn-group", &snapshots);
    assert!(reopened.restore(77, "/torn/victim.tar").is_err());
    reopened.with_servers(|servers| {
        for (cloud, server) in servers.iter().enumerate() {
            assert_eq!(
                server.unique_shares(),
                unique_before[cloud],
                "cloud {cloud} kept part of the torn group applied"
            );
        }
    });
    // Nothing of the interrupted upload lingers as a false duplicate either:
    // the retried backup ships every share again and restores byte-exactly.
    let sent_before = reopened.stats().dedup.transferred_share_bytes;
    reopened.backup(77, "/torn/victim.tar", &victim).unwrap();
    reopened.flush().unwrap();
    assert!(reopened.stats().dedup.transferred_share_bytes >= sent_before + victim.len() as u64);
    assert_eq!(reopened.restore(77, "/torn/victim.tar").unwrap(), victim);
}

/// Determinism: two runs of the same chaotic workload from the same seed
/// produce identical fault schedules and identical final backend state —
/// the property that makes a CI chaos failure replayable from its logged
/// seed.
#[test]
fn same_seed_chaos_runs_are_identical() {
    let run = |seed: u64| {
        let (clouds, plans) = faulty_clouds(4, seed, |c| {
            c.with_error_rate(0.08)
                .with_torn_write_rate(0.05)
                .with_outage(Window::new(30, 34))
        });
        let config = CdStoreConfig::new(4, 3)
            .unwrap()
            .with_retry(RetryPolicy::with_attempts(8));
        let store = CdStore::with_backends(config, as_backends(&clouds)).unwrap();
        let snapshots = fsl_snapshots(3, 4, if full_size() { 60 } else { 24 });
        replay(&store, "determinism", &snapshots);
        assert_restores(&store, "determinism", &snapshots);
        assert_hostile("determinism", &plans);

        // Fault schedules plus a full content snapshot of every backend,
        // read through the clean inner view so the snapshot itself neither
        // fails nor advances the fault clock.
        let schedules: Vec<_> = plans.iter().map(|p| p.schedule()).collect();
        let state: Vec<Vec<(String, Vec<u8>)>> = clouds
            .iter()
            .map(|b| {
                let inner = b.inner();
                let mut keys = inner.list().unwrap();
                keys.sort();
                keys.into_iter()
                    .map(|k| {
                        let v = inner.get(&k).unwrap();
                        (k, v)
                    })
                    .collect()
            })
            .collect();
        (schedules, state)
    };

    let seed = chaos_seed().wrapping_add(600);
    let (schedules_a, state_a) = run(seed);
    let (schedules_b, state_b) = run(seed);
    assert!(
        schedules_a.iter().any(|s| !s.is_empty()),
        "no faults injected — determinism test tested nothing"
    );
    assert_eq!(
        schedules_a, schedules_b,
        "fault schedules must be identical"
    );
    assert_eq!(state_a, state_b, "final backend state must be identical");

    // A different seed must genuinely change the schedule.
    let (schedules_c, _) = run(seed + 1);
    assert_ne!(schedules_a, schedules_c);
}
