//! The VM-like workload: weekly snapshots of student VM images cloned from a
//! common master image.
//!
//! Published characteristics reproduced here (§5.2, §5.4, Figure 6):
//! * 156 VM images, 16 weekly snapshots, 4 KB fixed-size chunks (zero-filled
//!   chunks already removed);
//! * inter-user dedup saving of 93.4% for the first backup (all images start
//!   from the same master) and 11.8–47.0% for subsequent backups (students
//!   make similar changes while working on the same assignments);
//! * intra-user dedup saving of at least 98.0% after the first week;
//! * after 16 weeks the physical shares are ~0.8% of the logical data.

use cdstore_crypto::sha256;

use crate::spec::{ChunkSpec, Snapshot};
use crate::{SplitMix64, Workload};

/// Configuration of the VM-like generator.
#[derive(Debug, Clone, Copy)]
pub struct VmConfig {
    /// Number of VM images / users (156 in the paper).
    pub users: usize,
    /// Number of weekly snapshots (16 in the paper).
    pub weeks: usize,
    /// Number of chunks per VM image (after removing zero-filled chunks).
    pub chunks_per_image: usize,
    /// Fraction of each image that is the unmodified master image at week 0.
    pub master_fraction: f64,
    /// Fraction of chunks each user modifies per week.
    pub weekly_modify_rate: f64,
    /// Of the modified chunks, the fraction drawn from a per-week shared pool
    /// (students making the same changes for the same assignment).
    pub shared_change_fraction: f64,
    /// Fixed chunk size in bytes (4 KB in the paper).
    pub chunk_size: u32,
    /// Seed for deterministic generation.
    pub seed: u64,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            users: 156,
            weeks: 16,
            chunks_per_image: 300,
            master_fraction: 0.93,
            weekly_modify_rate: 0.02,
            shared_change_fraction: 0.35,
            chunk_size: 4096,
            seed: 0x1156,
        }
    }
}

impl VmConfig {
    /// A reduced configuration for quick tests.
    pub fn small() -> Self {
        VmConfig {
            users: 12,
            weeks: 6,
            chunks_per_image: 120,
            ..Default::default()
        }
    }
}

/// The VM-like workload generator.
#[derive(Debug, Clone)]
pub struct VmWorkload {
    config: VmConfig,
}

impl VmWorkload {
    /// Creates a generator.
    pub fn new(config: VmConfig) -> Self {
        VmWorkload { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> VmConfig {
        self.config
    }

    fn content_id(namespace: &str, a: u64, b: u64) -> u64 {
        let digest =
            sha256::hash_parts(&[namespace.as_bytes(), &a.to_be_bytes(), &b.to_be_bytes()]);
        u64::from_be_bytes(digest[..8].try_into().expect("8 bytes"))
    }
}

impl Workload for VmWorkload {
    fn name(&self) -> &'static str {
        "VM"
    }

    fn weeks(&self) -> usize {
        self.config.weeks
    }

    fn users(&self) -> usize {
        self.config.users
    }

    fn snapshots(&self) -> Vec<Vec<Snapshot>> {
        let cfg = self.config;
        let mut rng = SplitMix64::new(cfg.seed);
        // The master image every VM is cloned from.
        let master: Vec<ChunkSpec> = (0..cfg.chunks_per_image)
            .map(|i| ChunkSpec::new(Self::content_id("vm-master", 0, i as u64), cfg.chunk_size))
            .collect();
        // Initial per-VM state: mostly master chunks plus a per-user remainder.
        let mut state: Vec<Vec<ChunkSpec>> = (0..cfg.users)
            .map(|user| {
                master
                    .iter()
                    .enumerate()
                    .map(|(i, &chunk)| {
                        if rng.gen_bool(cfg.master_fraction) {
                            chunk
                        } else {
                            ChunkSpec::new(
                                Self::content_id("vm-user", user as u64, i as u64),
                                cfg.chunk_size,
                            )
                        }
                    })
                    .collect()
            })
            .collect();

        let mut out = Vec::with_capacity(cfg.weeks);
        let mut next_unique: u64 = 1 << 40;
        for week in 0..cfg.weeks {
            // The shared pool of this week's "assignment" changes.
            let weekly_pool_size =
                ((cfg.chunks_per_image as f64) * cfg.weekly_modify_rate).ceil() as usize * 2 + 1;
            let weekly_pool: Vec<ChunkSpec> = (0..weekly_pool_size)
                .map(|i| {
                    ChunkSpec::new(
                        Self::content_id("vm-week-pool", week as u64, i as u64),
                        cfg.chunk_size,
                    )
                })
                .collect();
            let mut this_week = Vec::with_capacity(cfg.users);
            for (user, chunks) in state.iter_mut().enumerate() {
                if week > 0 {
                    for chunk in chunks.iter_mut() {
                        if rng.gen_bool(cfg.weekly_modify_rate) {
                            if rng.gen_bool(cfg.shared_change_fraction) {
                                *chunk = weekly_pool[rng.gen_range(0..weekly_pool.len())];
                            } else {
                                next_unique += 1;
                                *chunk = ChunkSpec::new(
                                    Self::content_id("vm-unique", user as u64, next_unique),
                                    cfg.chunk_size,
                                );
                            }
                        }
                    }
                }
                this_week.push(Snapshot {
                    user: user as u64,
                    week,
                    chunks: chunks.clone(),
                });
            }
            out.push(this_week);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::weekly_dedup;

    #[test]
    fn generates_the_configured_shape() {
        let workload = VmWorkload::new(VmConfig::small());
        let snapshots = workload.snapshots();
        assert_eq!(snapshots.len(), workload.weeks());
        assert!(snapshots.iter().all(|w| w.len() == workload.users()));
        // Fixed-size chunks.
        assert!(snapshots[0][0].chunks.iter().all(|c| c.size == 4096));
    }

    #[test]
    fn first_week_has_high_inter_user_savings() {
        let workload = VmWorkload::new(VmConfig {
            users: 20,
            weeks: 2,
            chunks_per_image: 200,
            ..Default::default()
        });
        let weekly = weekly_dedup(&workload.snapshots(), 4, 3);
        assert!(
            weekly[0].stats.inter_user_saving() > 0.85,
            "week 0 inter-user saving {}",
            weekly[0].stats.inter_user_saving()
        );
    }

    #[test]
    fn subsequent_weeks_have_moderate_inter_user_and_high_intra_user_savings() {
        let workload = VmWorkload::new(VmConfig {
            users: 16,
            weeks: 5,
            chunks_per_image: 250,
            ..Default::default()
        });
        let weekly = weekly_dedup(&workload.snapshots(), 4, 3);
        for week in weekly.iter().skip(1) {
            assert!(
                week.stats.intra_user_saving() > 0.95,
                "week {} intra saving {}",
                week.week,
                week.stats.intra_user_saving()
            );
            let inter = week.stats.inter_user_saving();
            assert!(
                (0.05..0.75).contains(&inter),
                "week {} inter saving {inter}",
                week.week
            );
        }
    }

    #[test]
    fn cumulative_physical_fraction_is_tiny() {
        let workload = VmWorkload::new(VmConfig {
            users: 20,
            weeks: 8,
            chunks_per_image: 200,
            ..Default::default()
        });
        let weekly = weekly_dedup(&workload.snapshots(), 4, 3);
        let total = weekly.last().unwrap().cumulative;
        // The paper reports physical shares ≈ 0.8% of logical data for VM
        // after 16 weeks; at this reduced scale it stays below a few percent.
        assert!(
            total.physical_to_logical() < 0.10,
            "physical/logical {}",
            total.physical_to_logical()
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = VmWorkload::new(VmConfig::small()).snapshots();
        let b = VmWorkload::new(VmConfig::small()).snapshots();
        assert_eq!(a, b);
    }
}
