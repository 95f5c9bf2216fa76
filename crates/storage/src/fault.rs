//! Deterministic fault injection for storage backends.
//!
//! CDStore's value proposition is surviving cloud misbehaviour, so the test
//! battery must exercise *hostile* backends, not just loopback happy paths.
//! This module provides the one fault model shared by the whole workspace:
//!
//! * [`FaultPlan`] — a seeded, replayable schedule of faults. Every decision
//!   (inject or pass through, where to tear a write, how long to stall) is a
//!   pure function of `(seed, operation tick)`, so two runs issuing the same
//!   operation sequence observe byte-identical fault schedules — the property
//!   the chaos suite's determinism test pins down, and what makes a CI
//!   failure replayable locally from its logged schedule.
//! * [`FaultyBackend`] — a [`StorageBackend`] decorator applying a plan to
//!   any inner backend: transient typed-`Io` failures, torn `put`s/`append`s
//!   (a byte-prefix lands, then the call fails — exactly the crash shape the
//!   journal/run/container formats must detect), full-outage windows,
//!   slow-then-recover windows, and per-operation latency/bandwidth shaping.
//! * [`Shaping`] — the workspace's one link model: a latency and two
//!   bandwidths, slept out per operation. The paper's Table 2 clouds are its
//!   constants ([`Shaping::COMMERCIAL_CLOUDS`]); the transfer figures put
//!   real servers behind them, so the chaos harness and the figures cannot
//!   drift apart.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::backend::{StorageBackend, StorageError};

/// Bandwidth/latency shaping applied to every operation: the link between a
/// CDStore server and its cloud's storage, as seen from the client's site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shaping {
    /// Per-request round-trip latency in milliseconds.
    pub latency_ms: f64,
    /// Write (client → cloud) bandwidth in MB/s.
    pub upload_mbps: f64,
    /// Read (cloud → client) bandwidth in MB/s.
    pub download_mbps: f64,
}

impl Shaping {
    /// Amazon S3 (Singapore), Table 2 of the paper: mean MB/s moving 2 GB of
    /// unique data in 4 MB units from Hong Kong, September 2014.
    pub const AMAZON: Shaping = Shaping {
        latency_ms: 35.0,
        upload_mbps: 5.87,
        download_mbps: 4.45,
    };

    /// Google Cloud Storage (Singapore), Table 2.
    pub const GOOGLE: Shaping = Shaping {
        latency_ms: 35.0,
        upload_mbps: 4.99,
        download_mbps: 4.45,
    };

    /// Microsoft Azure (Hong Kong), Table 2.
    pub const AZURE: Shaping = Shaping {
        latency_ms: 5.0,
        upload_mbps: 19.59,
        download_mbps: 13.78,
    };

    /// Rackspace (Hong Kong), Table 2.
    pub const RACKSPACE: Shaping = Shaping {
        latency_ms: 5.0,
        upload_mbps: 19.42,
        download_mbps: 12.93,
    };

    /// The four commercial clouds of the paper's cloud testbed by name, in
    /// the order the shares are labelled (cloud 0..3).
    pub const COMMERCIAL_CLOUDS: [(&'static str, Shaping); 4] = [
        ("Amazon", Shaping::AMAZON),
        ("Google", Shaping::GOOGLE),
        ("Azure", Shaping::AZURE),
        ("Rackspace", Shaping::RACKSPACE),
    ];

    /// Simulated seconds one operation of `bytes` payload takes.
    fn delay_seconds(&self, bytes: u64, write: bool) -> f64 {
        let mbps = if write {
            self.upload_mbps
        } else {
            self.download_mbps
        };
        let mb = bytes as f64 / (1024.0 * 1024.0);
        self.latency_ms / 1000.0 + if mbps > 0.0 { mb / mbps } else { 0.0 }
    }
}

/// A half-open window `[start, end)` of operation ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// First tick inside the window.
    pub start: u64,
    /// First tick past the window.
    pub end: u64,
}

impl Window {
    /// Creates a window covering ticks `start..end`.
    pub fn new(start: u64, end: u64) -> Self {
        Window { start, end }
    }

    fn contains(&self, tick: u64) -> bool {
        (self.start..self.end).contains(&tick)
    }
}

/// Configuration of one [`FaultPlan`]. The default is a *clean* plan: no
/// errors, no tearing, no outages, no shaping — a `FaultyBackend` over it is
/// a transparent pass-through.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed every per-operation decision derives from.
    pub seed: u64,
    /// Probability (0.0–1.0) that an operation fails with a transient
    /// [`StorageError::Io`] before touching the inner backend.
    pub error_rate: f64,
    /// Probability (0.0–1.0) that a `put`/`append` writes only a byte-prefix
    /// of its payload and then fails — the torn-write crash shape.
    pub torn_write_rate: f64,
    /// Latency/bandwidth shaping applied to every operation (none by
    /// default); [`Shaping::COMMERCIAL_CLOUDS`] holds the paper's Table 2.
    pub shaping: Option<Shaping>,
    /// Divide every injected delay by this factor, so tests can run Table 2
    /// bandwidths in compressed time (e.g. `1000.0` → milliseconds become
    /// microseconds). Must be positive.
    pub time_scale: f64,
    /// Full-outage windows: every operation whose tick falls inside fails.
    pub outages: Vec<Window>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            error_rate: 0.0,
            torn_write_rate: 0.0,
            shaping: None,
            time_scale: 1.0,
            outages: Vec::new(),
        }
    }
}

impl FaultConfig {
    /// A clean plan with the given seed (no faults until configured).
    pub fn clean(seed: u64) -> Self {
        FaultConfig {
            seed,
            ..Default::default()
        }
    }

    /// Sets the transient error probability.
    pub fn with_error_rate(mut self, rate: f64) -> Self {
        self.error_rate = rate;
        self
    }

    /// Sets the torn-write probability.
    pub fn with_torn_write_rate(mut self, rate: f64) -> Self {
        self.torn_write_rate = rate;
        self
    }

    /// Sets latency/bandwidth shaping.
    pub fn with_shaping(mut self, shaping: Shaping) -> Self {
        self.shaping = Some(shaping);
        self
    }

    /// Sets the time-compression factor for injected delays.
    pub fn with_time_scale(mut self, scale: f64) -> Self {
        self.time_scale = scale;
        self
    }

    /// Adds a full-outage tick window.
    pub fn with_outage(mut self, window: Window) -> Self {
        self.outages.push(window);
        self
    }
}

/// What a fault did to one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation failed with an injected transient I/O error.
    Transient,
    /// A write landed only a byte-prefix before failing.
    TornWrite {
        /// Bytes that reached the inner backend.
        written: usize,
        /// Bytes the caller asked to write.
        requested: usize,
    },
    /// The operation fell inside a scheduled outage window.
    Outage,
    /// The operation was rejected by a harness-forced outage
    /// ([`FaultPlan::set_outage`]).
    ForcedOutage,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Transient => write!(f, "transient"),
            FaultKind::TornWrite { written, requested } => {
                write!(f, "torn-write {written}/{requested}")
            }
            FaultKind::Outage => write!(f, "outage"),
            FaultKind::ForcedOutage => write!(f, "forced-outage"),
        }
    }
}

/// One injected fault, as recorded in the plan's schedule log.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// The operation tick the fault hit.
    pub tick: u64,
    /// The backend operation ("put", "get", "append", ...).
    pub op: &'static str,
    /// The object key the operation addressed.
    pub key: String,
    /// What was injected.
    pub kind: FaultKind,
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tick={} op={} key={} fault={}",
            self.tick, self.op, self.key, self.kind
        )
    }
}

/// Cap on retained schedule events so a long churn run cannot grow the log
/// without bound; [`FaultPlan::events_dropped`] counts the overflow.
const MAX_LOGGED_EVENTS: usize = 100_000;

/// A seeded, replayable fault schedule shared by every operation of one
/// backend (or one simulated cloud).
///
/// The plan is driven by a global operation counter (the *tick*): every
/// backend call consumes one tick, and all fault decisions derive from
/// `splitmix64(seed, tick)`. A single-threaded workload therefore observes
/// exactly the same faults on every run — and the recorded schedule
/// ([`FaultPlan::schedule`] / [`FaultPlan::render_schedule`]) is all that is
/// needed to reproduce a CI failure locally.
pub struct FaultPlan {
    config: FaultConfig,
    tick: AtomicU64,
    forced_outage: AtomicBool,
    crash_armed: AtomicBool,
    log: Mutex<Vec<FaultEvent>>,
    dropped: AtomicU64,
}

/// One round of splitmix64: a high-quality 64-bit mix of the input.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Maps a 64-bit draw onto `[0, 1)`.
fn unit(draw: u64) -> f64 {
    (draw >> 11) as f64 / (1u64 << 53) as f64
}

impl FaultPlan {
    /// Creates a plan from its configuration.
    pub fn new(config: FaultConfig) -> Self {
        assert!(config.time_scale > 0.0, "time_scale must be positive");
        FaultPlan {
            config,
            tick: AtomicU64::new(0),
            forced_outage: AtomicBool::new(false),
            crash_armed: AtomicBool::new(false),
            log: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// The plan's configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Operations observed so far.
    pub fn ticks(&self) -> u64 {
        self.tick.load(Ordering::Relaxed)
    }

    /// Forces (or lifts) a full outage regardless of tick windows — the
    /// harness's lever for timed outages and "kill this cloud now" moments.
    pub fn set_outage(&self, outage: bool) {
        self.forced_outage.store(outage, Ordering::SeqCst);
    }

    /// Arms a one-shot *host crash*: the next `put`/`append` that carries a
    /// payload lands a seeded strict prefix and fails (logged as a torn
    /// write), and from that instant the plan rejects every operation as a
    /// forced outage — the process died mid-write, and what the inner
    /// backend holds is what a restart will find.
    pub fn crash_on_next_write(&self) {
        self.crash_armed.store(true, Ordering::SeqCst);
    }

    /// Whether the plan currently rejects every operation: a forced outage,
    /// or the *next* tick falling inside a scheduled outage window.
    pub fn outage_active(&self) -> bool {
        self.forced_outage.load(Ordering::SeqCst)
            || self
                .config
                .outages
                .iter()
                .any(|w| w.contains(self.tick.load(Ordering::Relaxed)))
    }

    /// The injected faults recorded so far, in injection order.
    pub fn schedule(&self) -> Vec<FaultEvent> {
        self.log.lock().expect("fault log lock").clone()
    }

    /// Events discarded after the log cap was reached.
    pub fn events_dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Renders the schedule as one event per line, preceded by a header that
    /// names the seed — the artifact CI uploads on a chaos failure, and the
    /// input to "replay this locally" (see `docs/chaos.md`).
    pub fn render_schedule(&self) -> String {
        let log = self.log.lock().expect("fault log lock");
        let mut out = String::with_capacity(64 + log.len() * 48);
        out.push_str(&format!(
            "# fault schedule: seed={} ticks={} events={} dropped={}\n",
            self.config.seed,
            self.ticks(),
            log.len(),
            self.events_dropped(),
        ));
        for event in log.iter() {
            out.push_str(&format!("{event}\n"));
        }
        out
    }

    fn record(&self, event: FaultEvent) {
        let mut log = self.log.lock().expect("fault log lock");
        if log.len() < MAX_LOGGED_EVENTS {
            log.push(event);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn draw(&self, tick: u64, salt: u64) -> u64 {
        splitmix64(
            self.config
                .seed
                .wrapping_mul(0x2545_f491_4f6c_dd1d)
                .wrapping_add(splitmix64(tick))
                .wrapping_add(salt.wrapping_mul(0xd6e8_feb8_6659_fd93)),
        )
    }

    fn injected(key: &str) -> StorageError {
        StorageError::Io(std::io::Error::other(format!("injected fault on {key}")))
    }

    /// Runs the fault decision for one operation: consumes a tick, possibly
    /// fails, possibly stalls. On the torn-write path, `tear` receives the
    /// prefix length to land before the failure. Returns `Ok(())` when the
    /// operation should proceed against the inner backend.
    fn gate(
        &self,
        op: &'static str,
        key: &str,
        bytes: u64,
        write: bool,
        tear: Option<&mut dyn FnMut(usize) -> Result<(), StorageError>>,
    ) -> Result<(), StorageError> {
        let tick = self.tick.fetch_add(1, Ordering::SeqCst);
        if self.forced_outage.load(Ordering::SeqCst) {
            self.record(FaultEvent {
                tick,
                op,
                key: key.to_string(),
                kind: FaultKind::ForcedOutage,
            });
            return Err(Self::injected(key));
        }
        if self.config.outages.iter().any(|w| w.contains(tick)) {
            self.record(FaultEvent {
                tick,
                op,
                key: key.to_string(),
                kind: FaultKind::Outage,
            });
            return Err(Self::injected(key));
        }
        if self.config.error_rate > 0.0 && unit(self.draw(tick, 1)) < self.config.error_rate {
            self.record(FaultEvent {
                tick,
                op,
                key: key.to_string(),
                kind: FaultKind::Transient,
            });
            return Err(Self::injected(key));
        }
        if let Some(tear) = tear {
            let crash = bytes > 0 && self.crash_armed.swap(false, Ordering::SeqCst);
            if crash
                || (self.config.torn_write_rate > 0.0
                    && bytes > 0
                    && unit(self.draw(tick, 2)) < self.config.torn_write_rate)
            {
                // Land a strict prefix, then fail — the crash shape every
                // CRC-framed on-backend format must detect and discard.
                let cut = (self.draw(tick, 3) % bytes) as usize;
                tear(cut)?;
                self.record(FaultEvent {
                    tick,
                    op,
                    key: key.to_string(),
                    kind: FaultKind::TornWrite {
                        written: cut,
                        requested: bytes as usize,
                    },
                });
                if crash {
                    self.forced_outage.store(true, Ordering::SeqCst);
                }
                return Err(Self::injected(key));
            }
        }
        // Delay shaping last: failed operations return promptly (a dead
        // cloud answers with connection-refused, not a slow transfer).
        let delay = match &self.config.shaping {
            Some(shaping) => shaping.delay_seconds(bytes, write),
            None => 0.0,
        };
        if delay > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(
                (delay / self.config.time_scale).min(5.0),
            ));
        }
        Ok(())
    }
}

/// A [`StorageBackend`] decorator injecting the faults of a [`FaultPlan`]
/// into every operation against the wrapped backend.
pub struct FaultyBackend {
    inner: Arc<dyn StorageBackend>,
    plan: Arc<FaultPlan>,
}

impl FaultyBackend {
    /// Wraps `inner` with the given plan.
    pub fn new(inner: Arc<dyn StorageBackend>, plan: Arc<FaultPlan>) -> Self {
        FaultyBackend { inner, plan }
    }

    /// The fault plan driving this backend.
    pub fn plan(&self) -> Arc<FaultPlan> {
        self.plan.clone()
    }

    /// The wrapped backend (faults bypassed — what a co-located process or a
    /// state-inspection assertion reads).
    pub fn inner(&self) -> Arc<dyn StorageBackend> {
        self.inner.clone()
    }
}

impl StorageBackend for FaultyBackend {
    fn put(&self, key: &str, data: &[u8]) -> Result<(), StorageError> {
        let mut tear = |cut: usize| self.inner.put(key, &data[..cut]);
        self.plan
            .gate("put", key, data.len() as u64, true, Some(&mut tear))?;
        self.inner.put(key, data)
    }

    fn get(&self, key: &str) -> Result<Vec<u8>, StorageError> {
        let len = self.inner.object_size(key).unwrap_or(0);
        self.plan.gate("get", key, len, false, None)?;
        self.inner.get(key)
    }

    fn delete(&self, key: &str) -> Result<(), StorageError> {
        self.plan.gate("delete", key, 0, true, None)?;
        self.inner.delete(key)
    }

    fn exists(&self, key: &str) -> Result<bool, StorageError> {
        self.plan.gate("exists", key, 0, false, None)?;
        self.inner.exists(key)
    }

    fn list(&self) -> Result<Vec<String>, StorageError> {
        self.plan.gate("list", "*", 0, false, None)?;
        self.inner.list()
    }

    fn append(&self, key: &str, data: &[u8]) -> Result<(), StorageError> {
        let mut tear = |cut: usize| self.inner.append(key, &data[..cut]);
        self.plan
            .gate("append", key, data.len() as u64, true, Some(&mut tear))?;
        self.inner.append(key, data)
    }

    fn object_size(&self, key: &str) -> Result<u64, StorageError> {
        self.plan.gate("object_size", key, 0, false, None)?;
        self.inner.object_size(key)
    }

    fn read_range(&self, key: &str, offset: u64, len: usize) -> Result<Vec<u8>, StorageError> {
        self.plan.gate("read_range", key, len as u64, false, None)?;
        self.inner.read_range(key, offset, len)
    }

    fn total_bytes(&self) -> Result<u64, StorageError> {
        self.plan.gate("total_bytes", "*", 0, false, None)?;
        self.inner.total_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemoryBackend;

    fn faulty(config: FaultConfig) -> (FaultyBackend, Arc<FaultPlan>) {
        let plan = Arc::new(FaultPlan::new(config));
        (
            FaultyBackend::new(Arc::new(MemoryBackend::new()), plan.clone()),
            plan,
        )
    }

    #[test]
    fn clean_plan_is_a_transparent_pass_through() {
        let (backend, plan) = faulty(FaultConfig::clean(7));
        backend.put("a", b"alpha").unwrap();
        backend.append("a", b"!").unwrap();
        assert_eq!(backend.get("a").unwrap(), b"alpha!");
        assert_eq!(backend.read_range("a", 0, 5).unwrap(), b"alpha");
        assert!(backend.exists("a").unwrap());
        assert_eq!(backend.list().unwrap(), vec!["a".to_string()]);
        assert_eq!(backend.object_size("a").unwrap(), 6);
        assert_eq!(backend.total_bytes().unwrap(), 6);
        backend.delete("a").unwrap();
        assert!(plan.schedule().is_empty());
        assert!(plan.ticks() >= 8);
    }

    #[test]
    fn error_rate_injects_typed_io_failures_at_roughly_the_configured_rate() {
        let (backend, plan) = faulty(FaultConfig::clean(11).with_error_rate(0.25));
        let mut failures = 0;
        for i in 0..400 {
            if backend.put(&format!("k{i}"), b"data").is_err() {
                failures += 1;
            }
        }
        assert!(
            (50..=150).contains(&failures),
            "expected ~100 failures, got {failures}"
        );
        assert_eq!(plan.schedule().len(), failures);
        assert!(plan
            .schedule()
            .iter()
            .all(|e| e.kind == FaultKind::Transient));
    }

    #[test]
    fn torn_writes_land_a_strict_prefix_then_fail() {
        let (backend, plan) = faulty(FaultConfig::clean(3).with_torn_write_rate(1.0));
        let payload = vec![0xabu8; 1000];
        assert!(matches!(
            backend.put("torn", &payload),
            Err(StorageError::Io(_))
        ));
        let schedule = plan.schedule();
        assert_eq!(schedule.len(), 1);
        let FaultKind::TornWrite { written, requested } = schedule[0].kind else {
            panic!("expected a torn write, got {:?}", schedule[0].kind);
        };
        assert_eq!(requested, 1000);
        assert!(written < 1000);
        // The prefix really landed on the inner backend.
        let inner = backend.inner();
        if written > 0 {
            assert_eq!(inner.get("torn").unwrap(), payload[..written].to_vec());
        } else {
            assert!(matches!(inner.get("torn"), Err(StorageError::NotFound(_))));
        }
        // A clean retry (here: fault exhausted by rate draw on the next
        // tick) overwrites the prefix — mirrored by the seal-retry path.
        backend.inner().put("torn", &payload).unwrap();
        assert_eq!(inner.get("torn").unwrap(), payload);
    }

    #[test]
    fn outage_windows_and_forced_outages_block_every_operation() {
        let (backend, plan) = faulty(FaultConfig::clean(5).with_outage(Window::new(2, 4)));
        backend.put("a", b"1").unwrap(); // tick 0
        backend.put("b", b"2").unwrap(); // tick 1
        assert!(backend.put("c", b"3").is_err()); // tick 2: outage
        assert!(backend.get("a").is_err()); // tick 3: outage
        assert_eq!(backend.get("a").unwrap(), b"1"); // tick 4: recovered
        assert_eq!(plan.schedule().len(), 2);

        plan.set_outage(true);
        assert!(plan.outage_active());
        assert!(backend.get("a").is_err());
        plan.set_outage(false);
        assert!(!plan.outage_active());
        assert_eq!(backend.get("a").unwrap(), b"1");
        let kinds: Vec<_> = plan.schedule().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&FaultKind::ForcedOutage));
    }

    #[test]
    fn an_armed_crash_tears_the_next_write_and_kills_the_backend() {
        let (backend, plan) = faulty(FaultConfig::clean(13));
        backend.put("before", b"intact").unwrap();
        plan.crash_on_next_write();
        assert_eq!(backend.get("before").unwrap(), b"intact"); // reads pass
        let payload = vec![0x5au8; 4096];
        assert!(backend.append("log", &payload).is_err());
        assert!(plan.outage_active());
        assert!(backend.get("before").is_err());
        let schedule = plan.schedule();
        let FaultKind::TornWrite { written, requested } = schedule[0].kind else {
            panic!("expected a torn write, got {:?}", schedule[0].kind);
        };
        assert_eq!((schedule[0].op, requested), ("append", 4096));
        assert_eq!(schedule[1].kind, FaultKind::ForcedOutage);
        // A restart finds the strict prefix and everything written before.
        let inner = backend.inner();
        assert_eq!(inner.get("before").unwrap(), b"intact");
        assert_eq!(inner.get("log").unwrap_or_default(), payload[..written]);
        assert!(written < requested);
    }

    #[test]
    fn same_seed_and_op_sequence_reproduce_the_same_schedule() {
        let run = |seed: u64| {
            let (backend, plan) = faulty(
                FaultConfig::clean(seed)
                    .with_error_rate(0.2)
                    .with_torn_write_rate(0.2),
            );
            for i in 0..200 {
                let _ = backend.put(&format!("k{}", i % 17), &vec![i as u8; 64 + i]);
                let _ = backend.get(&format!("k{}", i % 17));
            }
            (plan.schedule(), backend.inner().list().unwrap())
        };
        let (schedule_a, state_a) = run(42);
        let (schedule_b, state_b) = run(42);
        assert!(!schedule_a.is_empty());
        assert_eq!(schedule_a, schedule_b);
        assert_eq!(state_a, state_b);
        let (schedule_c, _) = run(43);
        assert_ne!(schedule_a, schedule_c, "different seeds must differ");
    }

    #[test]
    fn shaping_stalls_operations_and_time_scale_compresses_the_stall() {
        let shaping = Shaping {
            latency_ms: 5.0,
            upload_mbps: 1.0,
            download_mbps: 1.0,
        };
        let (backend, _) = faulty(
            FaultConfig::clean(9)
                .with_shaping(shaping)
                .with_time_scale(1.0),
        );
        let start = std::time::Instant::now();
        backend.put("s", &[0u8; 1024]).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(4));

        // time_scale divides the shaped delay: 200 ms of latency / 20.
        let (compressed, _) = faulty(
            FaultConfig::clean(9)
                .with_shaping(Shaping {
                    latency_ms: 200.0,
                    ..shaping
                })
                .with_time_scale(20.0),
        );
        let start = std::time::Instant::now();
        compressed.put("s", &[0u8; 16]).unwrap();
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(9), "{elapsed:?}");
        assert!(elapsed < Duration::from_millis(100), "{elapsed:?}");
    }

    #[test]
    fn table2_values_are_embedded() {
        let [amazon, google, azure, rackspace] = Shaping::COMMERCIAL_CLOUDS;
        assert_eq!(amazon, ("Amazon", Shaping::AMAZON));
        assert_eq!(google, ("Google", Shaping::GOOGLE));
        assert_eq!(azure, ("Azure", Shaping::AZURE));
        assert_eq!(rackspace, ("Rackspace", Shaping::RACKSPACE));
        let mbps = |s: Shaping| (s.upload_mbps, s.download_mbps);
        assert_eq!(mbps(Shaping::AMAZON), (5.87, 4.45));
        assert_eq!(mbps(Shaping::GOOGLE), (4.99, 4.45));
        assert_eq!(mbps(Shaping::AZURE), (19.59, 13.78));
        assert_eq!(mbps(Shaping::RACKSPACE), (19.42, 12.93));
    }

    /// The accuracy `table2_cloud_speeds` and the figures' `Cloud` rows rest
    /// on: a shaped operation takes its configured delay — never less, and
    /// (a sleep only overshoots) not much more.
    #[test]
    fn shaped_transfers_take_their_configured_time() {
        let link = Shaping {
            latency_ms: 2.0,
            upload_mbps: 25.0,
            download_mbps: 20.0,
        };
        let (backend, _) = faulty(FaultConfig::clean(1).with_shaping(link));
        let unit = vec![0x5au8; 1 << 20];
        let expected = |write| Duration::from_secs_f64(4.0 * link.delay_seconds(1 << 20, write));

        let start = std::time::Instant::now();
        for i in 0..4 {
            backend.put(&format!("unit-{i}"), &unit).unwrap();
        }
        let upload = start.elapsed();
        let start = std::time::Instant::now();
        for i in 0..4 {
            assert_eq!(backend.get(&format!("unit-{i}")).unwrap().len(), unit.len());
        }
        let download = start.elapsed();

        for (took, want) in [(upload, expected(true)), (download, expected(false))] {
            assert!(took >= want, "took {took:?}, configured {want:?}");
            assert!(took <= want.mul_f64(1.5), "took {took:?} for {want:?}");
        }
    }

    #[test]
    fn schedule_renders_with_seed_header() {
        let (backend, plan) = faulty(FaultConfig::clean(77).with_error_rate(1.0));
        let _ = backend.put("x", b"y");
        let rendered = plan.render_schedule();
        assert!(rendered.starts_with("# fault schedule: seed=77"));
        assert!(rendered.contains("op=put key=x fault=transient"));
        assert_eq!(plan.events_dropped(), 0);
    }
}
