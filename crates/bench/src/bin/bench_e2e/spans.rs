//! Boundary spans recorded from outside the system.
//!
//! Nothing here touches another crate's internals: [`SpanTransport`] wraps
//! any [`ServerTransport`] (the client ⇄ server boundary) and
//! [`SpanBackend`] wraps any [`StorageBackend`] (the server ⇄ object-store
//! boundary). The workload driver opens one *op* span around each
//! `backup`/`restore`/`flush` call; transport calls made on that thread
//! become its children, and — in-process, where the server runs on the
//! caller's thread — backend calls become children of the transport span.
//! Spans are kept in memory and only aggregated after the run.

use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cdstore_core::server::{GcConfig, GcReport};
use cdstore_core::transport::{ServerProbe, ServerTransport, StoreReceipt};
use cdstore_core::{CdStoreError, FileRecipe, ShareMetadata};
use cdstore_crypto::Fingerprint;
use cdstore_storage::{StorageBackend, StorageError};

/// Which boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One `backup`/`restore`/`flush` call made by the workload driver.
    Op,
    /// One [`ServerTransport`] method call.
    Transport,
    /// One [`StorageBackend`] method call.
    Backend,
}

/// One recorded interval. `parent` is the id of the enclosing span on the
/// same thread (0 = none), so all spans of one client operation share its
/// op span as their root.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub kind: Kind,
    pub name: &'static str,
    /// Cloud index for transport/backend spans; `usize::MAX` for op spans.
    pub cloud: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Payload bytes moved by the call (share bytes, object bytes, file bytes).
    pub bytes: u64,
    /// Fingerprints, shares, or recipe entries the call carried (transport
    /// spans only): the number of index entries the server had to touch.
    pub items: u64,
    /// Backend object key family (`container`, `meta-ckpt`, `meta-wal`,
    /// `idx-run`, `idx-other`, `other`); empty for non-backend spans.
    pub family: &'static str,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

thread_local! {
    /// Id of the innermost open span on this thread.
    static CURRENT: Cell<u32> = const { Cell::new(0) };
}

/// Collects spans from every thread of one traced repetition.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Arc<Self> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a new span; `moved` computes `(bytes, items)` from
    /// its result.
    pub fn span<R>(
        &self,
        kind: Kind,
        name: &'static str,
        cloud: usize,
        family: &'static str,
        f: impl FnOnce() -> R,
        moved: impl FnOnce(&R) -> (u64, u64),
    ) -> R {
        // Reserve the slot up front so ids are assigned in start order and a
        // child can name its parent before the parent has ended.
        let parent = CURRENT.with(Cell::get);
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.spans.lock().expect("span recorder lock");
            let id = spans.len() as u32 + 1;
            spans.push(Span {
                id,
                parent,
                kind,
                name,
                cloud,
                start_ns,
                end_ns: start_ns,
                bytes: 0,
                items: 0,
                family,
            });
            id
        };
        CURRENT.with(|c| c.set(id));
        let out = f();
        CURRENT.with(|c| c.set(parent));
        let end_ns = self.now_ns();
        let (bytes, items) = moved(&out);
        let mut spans = self.spans.lock().expect("span recorder lock");
        let slot = &mut spans[id as usize - 1];
        slot.end_ns = end_ns;
        slot.bytes = bytes;
        slot.items = items;
        out
    }

    /// An op span around one driver call.
    pub fn op<R>(&self, name: &'static str, bytes: u64, f: impl FnOnce() -> R) -> R {
        self.span(Kind::Op, name, usize::MAX, "", f, |_| (bytes, 0))
    }

    /// Takes every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span recorder lock"))
    }
}

// ---------------------------------------------------------------------------
// Span arithmetic
// ---------------------------------------------------------------------------

/// Total length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

/// A span's self time: its duration minus the part of it that its direct
/// children cover. Overlapping children (e.g. per-cloud calls issued in
/// parallel) count once.
pub fn self_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children.iter().map(|c| (c.start_ns, c.end_ns)).collect();
    let covered = covered_ns(&mut intervals, span.start_ns, span.end_ns);
    (span.end_ns - span.start_ns) - covered
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
    pub bytes: u64,
}

/// Aggregated view of one traced repetition.
pub struct Summary {
    /// `(kind, name)` → totals, in first-seen order.
    pub by_name: Vec<((Kind, &'static str), NameTotal)>,
    /// Σ op self time: op duration minus the union of its transport
    /// children. Integer nanoseconds, so that self and wait partition the
    /// wall time exactly.
    pub client_self_ns: u64,
    /// Σ op durations.
    pub op_wall_ns: u64,
}

impl Summary {
    pub fn of(spans: &[Span]) -> Summary {
        let mut children: Vec<Vec<&Span>> = vec![Vec::new(); spans.len() + 1];
        for span in spans {
            children[span.parent as usize].push(span);
        }
        let mut by_name: Vec<((Kind, &'static str), NameTotal)> = Vec::new();
        let (mut client_self, mut op_wall) = (0u64, 0u64);
        for span in spans {
            let own = self_ns(span, &children[span.id as usize]);
            let key = (span.kind, span.name);
            let slot = match by_name.iter().position(|(k, _)| *k == key) {
                Some(i) => &mut by_name[i].1,
                None => {
                    by_name.push((key, NameTotal::default()));
                    &mut by_name.last_mut().expect("just pushed").1
                }
            };
            slot.count += 1;
            slot.total_s += span.secs();
            slot.self_s += own as f64 / 1e9;
            slot.bytes += span.bytes;
            if span.kind == Kind::Op {
                op_wall += span.end_ns - span.start_ns;
                client_self += own;
            }
        }
        Summary {
            by_name,
            client_self_ns: client_self,
            op_wall_ns: op_wall,
        }
    }

    /// Σ time ops spent inside transport calls: the union of each op's
    /// transport children.
    pub fn client_wait_ns(&self) -> u64 {
        self.op_wall_ns - self.client_self_ns
    }

    pub fn get(&self, kind: Kind, name: &str) -> NameTotal {
        self.by_name
            .iter()
            .find(|((k, n), _)| *k == kind && *n == name)
            .map(|(_, t)| *t)
            .unwrap_or_default()
    }

    /// Σ over every span of `kind`.
    pub fn kind_total(&self, kind: Kind) -> NameTotal {
        let mut out = NameTotal::default();
        for ((k, _), t) in &self.by_name {
            if *k == kind {
                out.count += t.count;
                out.total_s += t.total_s;
                out.self_s += t.self_s;
                out.bytes += t.bytes;
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// The two wrappers
// ---------------------------------------------------------------------------

/// A [`ServerTransport`] that records one span per call.
pub struct SpanTransport<T: ServerTransport> {
    inner: T,
    rec: Arc<Recorder>,
}

impl<T: ServerTransport> SpanTransport<T> {
    pub fn new(inner: T, rec: Arc<Recorder>) -> Self {
        SpanTransport { inner, rec }
    }

    /// One transport span carrying `bytes` of share payload and `items`
    /// fingerprints/shares/recipe entries.
    fn call<R>(&self, name: &'static str, bytes: u64, items: usize, f: impl FnOnce(&T) -> R) -> R {
        let cloud = self.inner.cloud_index();
        self.rec.span(
            Kind::Transport,
            name,
            cloud,
            "",
            || f(&self.inner),
            |_| (bytes, items as u64),
        )
    }
}

impl<T: ServerTransport> ServerTransport for SpanTransport<T> {
    fn cloud_index(&self) -> usize {
        self.inner.cloud_index()
    }

    fn intra_user_query(
        &self,
        user: u64,
        fingerprints: &[Fingerprint],
    ) -> Result<Vec<bool>, CdStoreError> {
        self.call("intra_user_query", 0, fingerprints.len(), |t| {
            t.intra_user_query(user, fingerprints)
        })
    }

    fn store_shares(
        &self,
        user: u64,
        shares: &[(ShareMetadata, Vec<u8>)],
    ) -> Result<StoreReceipt, CdStoreError> {
        let sent: u64 = shares.iter().map(|(_, d)| d.len() as u64).sum();
        self.call("store_shares", sent, shares.len(), |t| {
            t.store_shares(user, shares)
        })
    }

    fn put_file(
        &self,
        user: u64,
        encoded_pathname: &[u8],
        recipe: &FileRecipe,
        uploaded: &[Fingerprint],
    ) -> Result<(), CdStoreError> {
        self.call("put_file", 0, recipe.entries.len(), |t| {
            t.put_file(user, encoded_pathname, recipe, uploaded)
        })
    }

    fn release_uploads(&self, user: u64, fingerprints: &[Fingerprint]) -> Result<(), CdStoreError> {
        self.call("release_uploads", 0, fingerprints.len(), |t| {
            t.release_uploads(user, fingerprints)
        })
    }

    fn has_file(&self, user: u64, encoded_pathname: &[u8]) -> Result<bool, CdStoreError> {
        self.call("has_file", 0, 1, |t| t.has_file(user, encoded_pathname))
    }

    fn get_recipe(&self, user: u64, encoded_pathname: &[u8]) -> Result<FileRecipe, CdStoreError> {
        self.call("get_recipe", 0, 1, |t| t.get_recipe(user, encoded_pathname))
    }

    fn delete_file(&self, user: u64, encoded_pathname: &[u8]) -> Result<bool, CdStoreError> {
        self.call("delete_file", 0, 1, |t| {
            t.delete_file(user, encoded_pathname)
        })
    }

    fn fetch_shares(
        &self,
        user: u64,
        fingerprints: &[Fingerprint],
    ) -> Result<Vec<Vec<u8>>, CdStoreError> {
        let cloud = self.inner.cloud_index();
        self.rec.span(
            Kind::Transport,
            "fetch_shares",
            cloud,
            "",
            || self.inner.fetch_shares(user, fingerprints),
            |r| {
                let bytes = r
                    .as_ref()
                    .map(|shares| shares.iter().map(|s| s.len() as u64).sum())
                    .unwrap_or(0);
                (bytes, fingerprints.len() as u64)
            },
        )
    }

    fn flush(&self) -> Result<(), CdStoreError> {
        self.call("flush", 0, 0, |t| t.flush())
    }

    fn gc_with(&self, config: GcConfig) -> Result<GcReport, CdStoreError> {
        self.call("gc", 0, 0, |t| t.gc_with(config))
    }

    fn probe(&self) -> Result<ServerProbe, CdStoreError> {
        self.call("probe", 0, 0, |t| t.probe())
    }
}

/// Classifies a backend object key by the family of its name.
pub fn key_family(key: &str) -> &'static str {
    if key.starts_with("container-") {
        "container"
    } else if key.starts_with("meta-ckpt-") {
        "meta-ckpt"
    } else if key.starts_with("meta-wal-") {
        "meta-wal"
    } else if key.starts_with("idx-") {
        if key.contains("-r-") {
            "idx-run"
        } else {
            "idx-other"
        }
    } else {
        "other"
    }
}

/// A [`StorageBackend`] that records one span per call.
pub struct SpanBackend {
    inner: Arc<dyn StorageBackend>,
    cloud: usize,
    rec: Arc<Recorder>,
}

impl SpanBackend {
    pub fn new(inner: Arc<dyn StorageBackend>, cloud: usize, rec: Arc<Recorder>) -> Self {
        SpanBackend { inner, cloud, rec }
    }

    /// One backend span on `key`; `read` sizes the result for calls that
    /// return object bytes, `written` is the payload of calls that send them.
    fn call<R>(
        &self,
        name: &'static str,
        key: &str,
        written: usize,
        f: impl FnOnce() -> R,
        read: impl FnOnce(&R) -> usize,
    ) -> R {
        self.rec
            .span(Kind::Backend, name, self.cloud, key_family(key), f, |r| {
                ((written + read(r)) as u64, 0)
            })
    }
}

fn len_of(result: &Result<Vec<u8>, StorageError>) -> usize {
    result.as_ref().map(Vec::len).unwrap_or(0)
}

impl StorageBackend for SpanBackend {
    fn put(&self, key: &str, data: &[u8]) -> Result<(), StorageError> {
        self.call("put", key, data.len(), || self.inner.put(key, data), |_| 0)
    }

    fn get(&self, key: &str) -> Result<Vec<u8>, StorageError> {
        self.call("get", key, 0, || self.inner.get(key), len_of)
    }

    fn delete(&self, key: &str) -> Result<(), StorageError> {
        self.call("delete", key, 0, || self.inner.delete(key), |_| 0)
    }

    fn exists(&self, key: &str) -> Result<bool, StorageError> {
        self.call("exists", key, 0, || self.inner.exists(key), |_| 0)
    }

    fn list(&self) -> Result<Vec<String>, StorageError> {
        self.call("list", "", 0, || self.inner.list(), |_| 0)
    }

    fn append(&self, key: &str, data: &[u8]) -> Result<(), StorageError> {
        self.call(
            "append",
            key,
            data.len(),
            || self.inner.append(key, data),
            |_| 0,
        )
    }

    fn object_size(&self, key: &str) -> Result<u64, StorageError> {
        self.call("object_size", key, 0, || self.inner.object_size(key), |_| 0)
    }

    fn read_range(&self, key: &str, offset: u64, len: usize) -> Result<Vec<u8>, StorageError> {
        self.call(
            "read_range",
            key,
            0,
            || self.inner.read_range(key, offset, len),
            len_of,
        )
    }

    fn total_bytes(&self) -> Result<u64, StorageError> {
        self.call("total_bytes", "", 0, || self.inner.total_bytes(), |_| 0)
    }
}
