//! Index management for CDStore servers (§4.4).
//!
//! Each CDStore server keeps two index structures — the *file index* and the
//! *share index* — in a local key-value store. The paper uses LevelDB; this
//! crate provides a self-contained substitute with the same structural
//! ingredients (an LSM-style store with a write-buffer, sorted runs, Bloom
//! filters, and background compaction) in two layers:
//!
//! * [`KvStore`] — the log-structured merge key-value store: a memtable,
//!   and beneath it, when built on a storage backend, sorted runs.
//! * [`Sharded`] — a thread-safe store striped over mutex-guarded
//!   [`KvStore`]s so a server can run many clients concurrently. It owns
//!   the lifecycle (memory / `create` / `open`, `flush_runs`, counters)
//!   once; each index is a key hash, a value codec and the rule of each
//!   mutation on top of it:
//!   [`ShardedShareIndex`] maps share fingerprints to container references,
//!   owner lists, and per-user reference counts (the structure both
//!   deduplication stages query); [`ShardedFileIndex`] maps
//!   `(user, pathname)` keys to file-recipe references; [`ShardedKvStore`]
//!   holds raw byte pairs.
//!
//! # Examples
//!
//! ```
//! use cdstore_index::KvStore;
//!
//! let mut store = KvStore::new();
//! store.put(b"alpha".to_vec(), b"1".to_vec());
//! assert_eq!(store.get(b"alpha"), Some(b"1".to_vec()));
//! store.delete(b"alpha");
//! assert_eq!(store.get(b"alpha"), None);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bloom;
pub mod file_index;
pub mod kvstore;
mod run;
pub mod sharded;
pub mod share_index;

pub use bloom::BloomFilter;
pub use file_index::{FileEntry, FileKey, FilePutOutcome, ShardedFileIndex};
pub use kvstore::{BlockCacheStats, KvStore, KvStoreConfig, KvStoreOpenStats, KvStoreStats};
pub use sharded::{Sharded, ShardedKvStore};
pub use share_index::{ReleaseReport, ShardedShareIndex, ShareEntry, ShareLocation, StoreOutcome};
