//! CDStore: reliable, secure, and cost-efficient multi-cloud backup storage
//! via convergent dispersal (Li, Qin, Lee — USENIX ATC 2015).
//!
//! CDStore disperses users' backup data across `n` clouds with the
//! convergent-dispersal scheme CAONT-RS, so that:
//!
//! * **reliability** — any `k` of the `n` clouds suffice to restore the data
//!   and to rebuild the shares lost on failed clouds;
//! * **security** — no `k − 1` clouds learn anything about the data, without
//!   any encryption keys to manage (keyless security), and the embedded hash
//!   provides integrity checking;
//! * **cost efficiency** — because the dispersal is *convergent*
//!   (deterministic in the content), identical chunks produce identical
//!   shares, and two-stage deduplication removes them: intra-user dedup on
//!   the client saves upload bandwidth, inter-user dedup on each server saves
//!   storage, and neither leaks cross-user dedup patterns to clients
//!   (side-channel resistance, §3.3).
//!
//! The crate mirrors the paper's architecture (§4):
//!
//! * [`client`] — the CDStore client: chunking, CAONT-RS encoding, intra-user
//!   deduplication, batched uploads, restores.
//! * [`server`] — the CDStore server co-located with each cloud: inter-user
//!   deduplication, share/file indices, container storage.
//! * [`metadata`] — file recipes and share metadata exchanged between the two.
//! * [`dedup`] — the two-stage deduplication bookkeeping used by the
//!   deduplication-efficiency experiments.
//! * [`pipeline`] — the bounded, multi-threaded chunk → encode pipeline
//!   every upload runs through (§4.6).
//! * [`memo`] — the client's bounded cache of share fingerprints by
//!   convergent key, which lets a chunk seen before cost one hash instead of
//!   an encode.
//! * [`system`] — [`CdStore`], a façade wiring one client to `n` servers; the
//!   entry point for most users. Generic over [`transport::ServerTransport`],
//!   defaulting to in-process servers over simulated clouds.
//! * [`transport`] — the client ⇄ server boundary as a trait, so the same
//!   client code runs against in-process servers or over `cdstore_net`'s TCP
//!   protocol.
//!
//! # Quick start
//!
//! ```
//! use cdstore_core::{CdStore, CdStoreConfig};
//!
//! let config = CdStoreConfig::new(4, 3).unwrap();
//! let store = CdStore::new(config);
//!
//! let user = 1;
//! let backup = vec![42u8; 200_000];
//! let report = store.backup(user, "/home/alice/docs.tar", &backup).unwrap();
//! assert!(report.logical_bytes() > 0);
//!
//! // Restore even with one cloud down.
//! store.fail_cloud(2);
//! let restored = store.restore(user, "/home/alice/docs.tar").unwrap();
//! assert_eq!(restored, backup);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod dedup;
pub mod error;
pub mod memo;
pub mod metadata;
pub mod pipeline;
pub mod retry;
pub mod server;
pub mod system;
pub mod transport;
pub mod wal;

pub use client::{
    CdStoreClient, UploadReport, RESTORE_WINDOW_BYTES, RESTORE_WINDOW_SECRETS, UPLOAD_BATCH_BYTES,
};
pub use dedup::DedupStats;
pub use error::CdStoreError;
pub use memo::{ShareMemo, SHARE_MEMO_ENTRIES};
pub use metadata::{FileRecipe, RecipeEntry, ShareMetadata};
pub use pipeline::{
    encode_chunks, encode_stream, EncodeStreamReport, EncodedSecret, PipelineConfig, RetainedSecret,
};
pub use retry::{is_transient, RetryPolicy};
pub use server::{CdStoreServer, GcConfig, GcReport, RecoveryReport, ServerStats};
pub use system::{CdStore, CdStoreConfig, SystemStats};
pub use transport::{ServerProbe, ServerTransport, ShareVerdict, StoreReceipt};
pub use wal::{Checkpoint, MetaRecord};
