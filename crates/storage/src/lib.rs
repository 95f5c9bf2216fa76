//! Container management and storage backends for CDStore servers (§4.5).
//!
//! Each CDStore server packs globally unique shares into *share containers*
//! and file recipes into *recipe containers*, capped at 4 MB, and writes the
//! sealed containers to the cloud storage backend. Reads go through an LRU
//! container cache to limit backend I/O.
//!
//! * [`container`] — the container format and per-user open-container builders.
//! * [`backend`] — the storage-backend abstraction with in-memory and
//!   directory-based implementations.
//! * [`cache`] — a byte-bounded LRU cache of recently accessed containers.
//! * [`store`] — [`ContainerStore`], which ties the three together and is the
//!   component CDStore servers use to persist and fetch shares and recipes.
//! * [`journal`] — the durable metadata journal: a checksummed write-ahead
//!   log plus periodic checkpoints, persisted through the same backend, from
//!   which a server rebuilds its in-memory indices after a crash.
//! * [`fault`] — deterministic fault injection: a seeded, replayable
//!   [`FaultPlan`], the [`FaultyBackend`] decorator, and [`Shaping`] — the
//!   one link model the chaos harness and the transfer figures share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cache;
pub mod container;
pub mod fault;
pub mod journal;
pub mod store;

pub use backend::{DirBackend, MemoryBackend, StorageBackend, StorageError};
pub use cache::LruCache;
pub use container::{Container, ContainerBuilder, ContainerKind, CONTAINER_CAPACITY};
pub use fault::{
    FaultConfig, FaultEvent, FaultKind, FaultPlan, FaultyBackend, Shaping, SlowWindow, Window,
};
pub use journal::{Journal, LoadedJournal};
pub use store::{ContainerStore, ContainerUsage, ShareLocation, StoreStats, StoreUtilisation};
