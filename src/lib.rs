//! Workspace facade for CDStore — convergent dispersal backup across
//! multiple clouds (Li, Qin, Lee — USENIX ATC'15).
//!
//! Re-exports every layer of the workspace under one roof so integration
//! tests, examples, and downstream users can depend on a single crate. The
//! layers, bottom to top:
//!
//! * [`gf`] — GF(2^8) arithmetic, matrices, and region operations
//! * [`crypto`] — SHA-256 hashing and AES-CTR encryption
//! * [`chunking`] — fixed-size and Rabin content-defined chunking
//! * [`erasure`] — systematic Reed-Solomon coding over GF(2^8)
//! * [`secretsharing`] — AONT-RS, CAONT-RS, SSSS, RSSS, IDA, SSMS
//! * [`storage`] — container store, cache, storage backends, and the seeded
//!   fault/link-shaping layer (`FaultyBackend`, `Shaping`)
//! * [`index`] — bloom-filtered LSM key-value store and dedup indices
//! * [`cost`] — the §5.6 monetary cost model (Figure 9)
//! * [`workloads`] — FSL/VM backup workload generators
//! * [`core`] — client/server pipeline tying everything together

#![forbid(unsafe_code)]

pub use cdstore_chunking as chunking;
pub use cdstore_core as core;
pub use cdstore_cost as cost;
pub use cdstore_crypto as crypto;
pub use cdstore_erasure as erasure;
pub use cdstore_gf as gf;
pub use cdstore_index as index;
pub use cdstore_secretsharing as secretsharing;
pub use cdstore_storage as storage;
pub use cdstore_workloads as workloads;
