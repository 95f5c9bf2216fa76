//! Synthetic backup workloads reproducing the paper's datasets (§5.2).
//!
//! The paper drives its deduplication and trace experiments with two
//! real-world datasets that are not publicly reproducible here:
//!
//! * **FSL** — weekly snapshots of nine students' home directories
//!   (variable-size chunks, ~8 KB average), with very high *intra-user*
//!   redundancy week over week (≥ 94% savings after the first week) but low
//!   *inter-user* redundancy (≤ 13%);
//! * **VM** — weekly snapshots of 156 VM images cloned from one master image
//!   (4 KB fixed-size chunks), with extreme inter-user redundancy in the
//!   first week (93%) and moderate inter-user redundancy afterwards
//!   (12–47%), plus ≥ 98% intra-user savings.
//!
//! This crate generates synthetic weekly backup streams whose deduplication
//! characteristics reproduce those published numbers. A snapshot is a list
//! of [`ChunkSpec`]s; chunk *content* is derived deterministically from the
//! chunk identity (the same reconstruction the authors use when replaying
//! the FSL trace: "we reconstruct a chunk by writing the fingerprint value
//! repeatedly to a chunk with the specified size", §5.5).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod fsl;
pub mod rng;
pub mod spec;
pub mod vm;

pub use analysis::{weekly_dedup, WeeklyDedup};
pub use fsl::{FslConfig, FslWorkload};
pub use rng::SplitMix64;
pub use spec::{ChunkSpec, Snapshot};
pub use vm::{VmConfig, VmWorkload};

/// A weekly multi-user backup workload: `snapshots()[week][user]`.
pub trait Workload {
    /// Human-readable dataset name ("FSL", "VM").
    fn name(&self) -> &'static str;

    /// Number of weekly backups.
    fn weeks(&self) -> usize;

    /// Number of users.
    fn users(&self) -> usize;

    /// Generates every snapshot, indexed as `[week][user]`.
    fn snapshots(&self) -> Vec<Vec<Snapshot>>;
}
