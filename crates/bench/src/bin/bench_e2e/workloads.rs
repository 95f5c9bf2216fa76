//! The four workloads: seeded inputs, deployments, and one repetition.
//!
//! Every workload is a closed loop: a client thread issues its next call
//! only after the previous one returned. All of them run (n, k) = (4, 3)
//! CAONT-RS with FastCDC at the default 8 KiB average, the default
//! `PipelineConfig`, and one `MemoryBackend` per cloud.

use std::sync::Arc;
use std::time::Instant;

use cdstore_chunking::ChunkerKind;
use cdstore_core::{
    CdStore, CdStoreConfig, CdStoreError, CdStoreServer, DedupStats, ServerTransport, UploadReport,
};
use cdstore_crypto::sha256;
use cdstore_net::{LoopbackCluster, NetClientConfig};
use cdstore_storage::{MemoryBackend, StorageBackend};
use cdstore_workloads::{ChunkSpec, FslConfig, FslWorkload, Workload as _};

use crate::spans::{Recorder, SpanBackend, SpanTransport};

pub const N: usize = 4;
pub const K: usize = 3;
const MIB: usize = 1024 * 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BulkInproc,
    BulkWire,
    WeeklyWire,
    SmallfilesWire,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BulkInproc,
        Workload::BulkWire,
        Workload::WeeklyWire,
        Workload::SmallfilesWire,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkInproc => "bulk-inproc",
            Workload::BulkWire => "bulk-wire",
            Workload::WeeklyWire => "weekly-wire",
            Workload::SmallfilesWire => "smallfiles-wire",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether clients reach the servers over loopback TCP.
    pub fn wire(self) -> bool {
        self != Workload::BulkInproc
    }

    /// Whether the servers run disk-resident indexes.
    pub fn disk_index(self) -> bool {
        self == Workload::WeeklyWire
    }
}

/// Input sizes. `FULL` is what `BENCHMARK.json` measures; `SMOKE` is the
/// same shapes at about 1/32 of the bytes.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub bulk_files: usize,
    pub bulk_file_bytes: usize,
    pub weekly_users: usize,
    pub weekly_weeks: usize,
    pub weekly_chunks: usize,
    pub small_files: usize,
    pub warmup_bytes: usize,
    /// Bytes of the workload the traced run's stage replay consumes.
    pub replay_sample_bytes: usize,
}

pub const FULL: Scale = Scale {
    bulk_files: 3,
    bulk_file_bytes: 16 * MIB,
    weekly_users: 4,
    weekly_weeks: 8,
    weekly_chunks: 400,
    small_files: 800,
    warmup_bytes: 16 * MIB,
    replay_sample_bytes: 8 * MIB,
};

pub const SMOKE: Scale = Scale {
    bulk_files: 4,
    bulk_file_bytes: MIB,
    weekly_users: 4,
    weekly_weeks: 4,
    weekly_chunks: 24,
    small_files: 48,
    warmup_bytes: MIB / 2,
    replay_sample_bytes: MIB,
};

/// splitmix64: seeded, fast, incompressible output.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

pub struct FileInput {
    pub user: u64,
    pub path: String,
    pub data: Vec<u8>,
    pub digest: [u8; 32],
}

impl FileInput {
    fn new(user: u64, path: String, data: Vec<u8>) -> Self {
        let digest = sha256::hash(&data);
        FileInput {
            user,
            path,
            data,
            digest,
        }
    }
}

/// What one repetition does, as indices into `files`.
pub struct Inputs {
    pub files: Vec<FileInput>,
    /// `backups[thread][round]` = files that client thread backs up in that
    /// round; the thread calls `flush` after each round.
    pub backups: Vec<Vec<Vec<usize>>>,
    /// `restores[thread]` = files that client thread restores, once per pass.
    pub restores: Vec<Vec<usize>>,
    /// Whether the workload itself restores a second time after
    /// `fail_cloud(0)`.
    pub degraded_pass: bool,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64, scale: &Scale) -> Inputs {
        match workload {
            Workload::BulkInproc | Workload::BulkWire => {
                let files: Vec<FileInput> = (0..scale.bulk_files)
                    .map(|i| {
                        let mut rng =
                            Rng(seed ^ (i as u64 + 1).wrapping_mul(0x00b5_ad4e_ceda_1ce2));
                        FileInput::new(
                            1,
                            format!("/bulk/{i}.bin"),
                            rng.bytes(scale.bulk_file_bytes),
                        )
                    })
                    .collect();
                Inputs::one_client(files)
            }
            Workload::WeeklyWire => {
                // The generator keeps its default seed, so which chunks
                // repeat, change and grow — and with it the dedup ratio —
                // is one fixed structure. `--seed` instead salts every
                // content id: all bytes, FastCDC cut points, fingerprints
                // and index stripes differ from seed to seed. Seeding the
                // structure itself moves `sent_per_logical` by 4 % between
                // seeds at this size, which would bury a real dedup
                // regression.
                let snapshots = FslWorkload::new(FslConfig {
                    users: scale.weekly_users,
                    weeks: scale.weekly_weeks,
                    initial_chunks_per_user: scale.weekly_chunks,
                    ..FslConfig::default()
                })
                .snapshots();
                let salt = Rng(seed).next();
                let threads = 2;
                let mut files = Vec::new();
                let mut backups = vec![Vec::new(); threads];
                let mut restores = vec![Vec::new(); threads];
                for (week, snaps) in snapshots.iter().enumerate() {
                    let mut round = vec![Vec::new(); threads];
                    for snap in snaps {
                        let thread = snap.user as usize * threads / scale.weekly_users;
                        let mut data = Vec::with_capacity(snap.logical_bytes() as usize);
                        for chunk in &snap.chunks {
                            let salted = ChunkSpec::new(chunk.content_id ^ salt, chunk.size);
                            data.extend_from_slice(&salted.materialize());
                        }
                        round[thread].push(files.len());
                        if week + 1 == snapshots.len() {
                            restores[thread].push(files.len());
                        }
                        // Users are 1-based so user 0 never collides with
                        // the warm-up's user.
                        files.push(FileInput::new(snap.user + 1, snap.pathname(), data));
                    }
                    for (thread, files) in round.into_iter().enumerate() {
                        backups[thread].push(files);
                    }
                }
                Inputs {
                    files,
                    backups,
                    restores,
                    degraded_pass: true,
                }
            }
            Workload::SmallfilesWire => {
                let mut rng = Rng(seed ^ 0x5ca1_ab1e_0000_0001);
                let files: Vec<FileInput> = (0..scale.small_files)
                    .map(|i| {
                        let len = 1024 + (rng.next() % (31 * 1024 + 1)) as usize;
                        FileInput::new(
                            1 + (i % 4) as u64,
                            format!("/home/u{}/f{i}", i % 4),
                            rng.bytes(len),
                        )
                    })
                    .collect();
                Inputs::one_client(files)
            }
        }
    }

    /// One client backs up every file, flushes once, and restores every file.
    fn one_client(files: Vec<FileInput>) -> Inputs {
        let all: Vec<usize> = (0..files.len()).collect();
        Inputs {
            files,
            backups: vec![vec![all.clone()]],
            restores: vec![all],
            degraded_pass: false,
        }
    }

    /// Bytes handed to `backup` in one repetition.
    pub fn backup_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.data.len() as u64).sum()
    }

    /// Bytes returned by one restore pass.
    pub fn restore_pass_bytes(&self) -> u64 {
        self.restores
            .iter()
            .flatten()
            .map(|&i| self.files[i].data.len() as u64)
            .sum()
    }
}

// ---------------------------------------------------------------------------
// Deployments
// ---------------------------------------------------------------------------

/// The part of `CdStore<T>` the workloads drive, with the transport type
/// erased so one driver serves every deployment shape.
pub trait Store: Send + Sync {
    fn backup(&self, user: u64, path: &str, data: &[u8]) -> Result<UploadReport, CdStoreError>;
    fn restore(&self, user: u64, path: &str) -> Result<Vec<u8>, CdStoreError>;
    fn flush(&self) -> Result<(), CdStoreError>;
    fn fail_cloud(&self, cloud: usize);
}

impl<T: ServerTransport> Store for CdStore<T> {
    fn backup(&self, user: u64, path: &str, data: &[u8]) -> Result<UploadReport, CdStoreError> {
        CdStore::backup(self, user, path, data)
    }
    fn restore(&self, user: u64, path: &str) -> Result<Vec<u8>, CdStoreError> {
        CdStore::restore(self, user, path)
    }
    fn flush(&self) -> Result<(), CdStoreError> {
        CdStore::flush(self)
    }
    fn fail_cloud(&self, cloud: usize) {
        CdStore::fail_cloud(self, cloud)
    }
}

pub fn config(disk_index: bool) -> CdStoreConfig {
    let config = CdStoreConfig::new(N, K)
        .expect("(4,3) is a valid configuration")
        .with_chunker_kind(ChunkerKind::FastCdc);
    if disk_index {
        config.with_disk_index()
    } else {
        config
    }
}

/// One fresh deployment: four servers over four empty `MemoryBackend`s.
/// Fields drop in order, so client connections close before the cluster.
pub struct Deployment {
    pub store: Box<dyn Store>,
    /// The servers, where this benchmark built them itself (every shape but
    /// untraced in-process, which goes through `CdStore::with_backends`).
    pub servers: Vec<Arc<CdStoreServer>>,
    /// Seconds [`open_connections`] took; 0 in-process.
    pub connect_s: f64,
    backends: Vec<Arc<dyn StorageBackend>>,
    _cluster: Option<LoopbackCluster>,
}

impl Deployment {
    pub fn spawn(
        wire: bool,
        disk_index: bool,
        rec: Option<&Arc<Recorder>>,
    ) -> Result<Deployment, CdStoreError> {
        let config = config(disk_index);
        let backends: Vec<Arc<dyn StorageBackend>> = (0..N)
            .map(|cloud| {
                let memory: Arc<dyn StorageBackend> = Arc::new(MemoryBackend::new());
                match rec {
                    Some(rec) => Arc::new(SpanBackend::new(memory, cloud, rec.clone())),
                    None => memory,
                }
            })
            .collect();
        if !wire && rec.is_none() {
            return Ok(Deployment {
                store: Box::new(CdStore::with_backends(config, backends.clone())?),
                servers: Vec::new(),
                connect_s: 0.0,
                backends,
                _cluster: None,
            });
        }
        let servers = backends
            .iter()
            .enumerate()
            .map(|(cloud, backend)| {
                CdStoreServer::with_backend_and_index(cloud, backend.clone(), config.index_mode)
                    .map(Arc::new)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut connect_s = 0.0;
        let (store, cluster): (Box<dyn Store>, _) = if wire {
            let cluster = LoopbackCluster::spawn_with_servers(servers.clone())
                .map_err(|e| CdStoreError::Remote(e.to_string()))?;
            let net = NetClientConfig::default();
            let transports = cluster.transports(net.clone())?;
            connect_s = open_connections(&transports, net.connections)?;
            let store: Box<dyn Store> = match rec {
                Some(rec) => Box::new(CdStore::from_transports(
                    config,
                    transports
                        .into_iter()
                        .map(|t| SpanTransport::new(t, rec.clone()))
                        .collect(),
                )?),
                None => Box::new(CdStore::from_transports(config, transports)?),
            };
            (store, Some(cluster))
        } else {
            let rec = rec.expect("untraced in-process returned above");
            let transports = servers
                .iter()
                .map(|s| SpanTransport::new(s.clone(), rec.clone()))
                .collect();
            (
                Box::new(CdStore::from_transports(config, transports)?),
                None,
            )
        };
        Ok(Deployment {
            store,
            servers,
            connect_s,
            backends,
            _cluster: cluster,
        })
    }

    /// Σ bytes of every object on every backend: containers, journal
    /// segments, checkpoints, and index runs.
    pub fn stored_bytes(&self) -> u64 {
        self.backends
            .iter()
            .map(|b| b.total_bytes().unwrap_or(0))
            .sum()
    }
}

/// Opens every pooled connection of every transport, all clouds at once, and
/// returns how long that took. A `NetClient` connects a pool slot on first
/// use and a server's accept loop polls every 50 ms, so left alone the first
/// `backup` of a deployment waits about 200 ms for four accept ticks. A
/// client pays that once per session; a repetition here is 1–4 s of work, so
/// it is kept out of the timed phases and reported as `net.connect_s`. An
/// empty server's `flush` changes nothing, and the pool is round-robin, so
/// `connections` calls touch every slot.
fn open_connections<T: ServerTransport>(
    transports: &[T],
    connections: usize,
) -> Result<f64, CdStoreError> {
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = transports
            .iter()
            .map(|t| scope.spawn(move || (0..connections).try_for_each(|_| t.flush())))
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("connecting thread panicked"))
    })?;
    Ok(start.elapsed().as_secs_f64())
}

// ---------------------------------------------------------------------------
// One repetition
// ---------------------------------------------------------------------------

/// Process CPU time (user + system, all threads, exited ones included) in
/// seconds, from `CLOCK_PROCESS_CPUTIME_ID`: nanosecond resolution, where
/// `/proc/self/stat` counts 10 ms ticks — 2 % of a `smallfiles-wire` restore
/// phase.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_s() -> f64 {
    /// `struct timespec` where `time_t` and `long` are both 64 bits.
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    // std links the C library, which exports the call.
    extern "C" {
        fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut time = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `time` is a live, writable `struct timespec` of this target's
    // layout, which is all the call requires.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    assert_eq!(status, 0, "CLOCK_PROCESS_CPUTIME_ID is always readable");
    time.sec as f64 + time.nsec as f64 / 1e9
}

/// Process CPU time (user + system, all threads) in seconds, from
/// `/proc/self/stat`, in USER_HZ ticks of 10 ms.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    (utime + stime) / 100.0
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Phase {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub bytes: u64,
}

/// Everything one repetition measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    pub backup: Phase,
    pub restore_normal: Phase,
    /// Zero unless the workload defines a degraded pass.
    pub restore_degraded: Phase,
    pub sent_bytes: u64,
    pub stored_bytes: u64,
    /// Secrets (chunks) the backups produced.
    pub secrets: u64,
    pub dedup: DedupStats,
    pub attempted: u64,
    pub failed: u64,
    pub backup_op_ms: Vec<f64>,
    pub restore_op_ms: Vec<f64>,
}

#[derive(Default)]
struct ThreadTally {
    attempted: u64,
    failed: u64,
    sent_bytes: u64,
    secrets: u64,
    dedup: DedupStats,
    op_ms: Vec<f64>,
    restored: Vec<(usize, Vec<u8>)>,
}

fn timed<R>(
    rec: Option<&Arc<Recorder>>,
    name: &'static str,
    bytes: u64,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    let start = Instant::now();
    let out = match rec {
        Some(rec) => rec.op(name, bytes, f),
        None => f(),
    };
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Runs `per_thread` once per client thread (inline when there is only one)
/// and returns the phase's wall and CPU time with the per-thread tallies.
fn phase<F>(threads: usize, per_thread: F) -> (f64, f64, Vec<ThreadTally>)
where
    F: Fn(usize) -> ThreadTally + Sync,
{
    let cpu0 = process_cpu_s();
    let start = Instant::now();
    let tallies: Vec<ThreadTally> = if threads == 1 {
        vec![per_thread(0)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let per_thread = &per_thread;
                    scope.spawn(move || per_thread(t))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    };
    (
        start.elapsed().as_secs_f64(),
        process_cpu_s() - cpu0,
        tallies,
    )
}

/// The backup phase: every thread backs up its rounds, flushing after each.
/// Returns after the final `flush` has returned on every thread.
pub fn backup_phase(
    store: &dyn Store,
    inputs: &Inputs,
    rec: Option<&Arc<Recorder>>,
    rep: &mut Rep,
) {
    let (wall_s, cpu_s, tallies) = phase(inputs.backups.len(), |t| {
        let mut tally = ThreadTally::default();
        for round in &inputs.backups[t] {
            for &i in round {
                let file = &inputs.files[i];
                let (result, ms) = timed(rec, "backup", file.data.len() as u64, || {
                    store.backup(file.user, &file.path, &file.data)
                });
                tally.attempted += 1;
                tally.op_ms.push(ms);
                match result {
                    Ok(report) => {
                        tally.sent_bytes += report.transferred_per_cloud.iter().sum::<u64>();
                        tally.secrets += report.num_secrets as u64;
                        tally.dedup.accumulate(&report.dedup);
                    }
                    Err(_) => tally.failed += 1,
                }
            }
            let (result, _) = timed(rec, "flush", 0, || store.flush());
            tally.attempted += 1;
            tally.failed += result.is_err() as u64;
        }
        tally
    });
    rep.backup = Phase {
        wall_s,
        cpu_s,
        bytes: inputs.backup_bytes(),
    };
    for tally in tallies {
        rep.attempted += tally.attempted;
        rep.failed += tally.failed;
        rep.sent_bytes += tally.sent_bytes;
        rep.secrets += tally.secrets;
        rep.dedup.accumulate(&tally.dedup);
        rep.backup_op_ms.extend(tally.op_ms);
    }
}

/// One restore pass: every thread restores its files once. Restored bytes
/// are checked against the input digests after the clock has stopped.
pub fn restore_pass(
    store: &dyn Store,
    inputs: &Inputs,
    rec: Option<&Arc<Recorder>>,
    rep: &mut Rep,
) -> Phase {
    let (wall_s, cpu_s, tallies) = phase(inputs.restores.len(), |t| {
        let mut tally = ThreadTally::default();
        for &i in &inputs.restores[t] {
            let file = &inputs.files[i];
            let (result, ms) = timed(rec, "restore", file.data.len() as u64, || {
                store.restore(file.user, &file.path)
            });
            tally.attempted += 1;
            tally.op_ms.push(ms);
            match result {
                Ok(data) => tally.restored.push((i, data)),
                Err(_) => tally.failed += 1,
            }
        }
        tally
    });
    for tally in tallies {
        rep.attempted += tally.attempted;
        rep.failed += tally.failed;
        rep.restore_op_ms.extend(tally.op_ms);
        for (i, data) in tally.restored {
            if sha256::hash(&data) != inputs.files[i].digest {
                rep.failed += 1;
            }
        }
    }
    Phase {
        wall_s,
        cpu_s,
        bytes: inputs.restore_pass_bytes(),
    }
}

impl Rep {
    /// All restore passes the workload defines, together.
    pub fn restore(&self) -> Phase {
        let (a, b) = (self.restore_normal, self.restore_degraded);
        Phase {
            wall_s: a.wall_s + b.wall_s,
            cpu_s: a.cpu_s + b.cpu_s,
            bytes: a.bytes + b.bytes,
        }
    }
}

/// One repetition on a fresh deployment: backup phase, stored-bytes
/// reading, restore pass, and (where the workload defines one) the degraded
/// pass after `fail_cloud(0)`.
pub fn run_rep(deployment: &Deployment, inputs: &Inputs, rec: Option<&Arc<Recorder>>) -> Rep {
    let store = &*deployment.store;
    let mut rep = Rep::default();
    backup_phase(store, inputs, rec, &mut rep);
    rep.stored_bytes = deployment.stored_bytes();
    rep.restore_normal = restore_pass(store, inputs, rec, &mut rep);
    if inputs.degraded_pass {
        store.fail_cloud(0);
        rep.restore_degraded = restore_pass(store, inputs, rec, &mut rep);
    }
    rep
}

/// The untimed warm-up: one backup and restore on a throwaway deployment of
/// the workload's shape, so lazy initialisation (kernel detection, GF
/// tables, thread-local scratch, allocator growth) is paid before timing.
pub fn warm_up(workload: Workload, scale: &Scale) -> Result<(), CdStoreError> {
    let deployment = Deployment::spawn(workload.wire(), workload.disk_index(), None)?;
    let data = Rng(0x7761_726d).bytes(scale.warmup_bytes);
    deployment.store.backup(0, "/warm-up", &data)?;
    deployment.store.flush()?;
    if deployment.store.restore(0, "/warm-up")? != data {
        return Err(CdStoreError::IntegrityFailure(
            "warm-up restore differs".into(),
        ));
    }
    Ok(())
}
