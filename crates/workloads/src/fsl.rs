//! The FSL-like workload: weekly home-directory backups of a few users.
//!
//! Published characteristics reproduced here (§5.2, §5.4, Figure 6):
//! * nine users, 16 weekly backups, variable-size chunks of ~8 KB;
//! * intra-user dedup saving of at least 94.2% for every backup after the
//!   first week (users modify or add only a small portion of data);
//! * inter-user dedup saving of no more than 12.9% (home directories share
//!   little content across users);
//! * after 16 weeks the physical shares are ~6.3% of the logical data.

use cdstore_crypto::sha256;

use crate::spec::{ChunkSpec, Snapshot};
use crate::{SplitMix64, Workload};

/// Configuration of the FSL-like generator.
#[derive(Debug, Clone, Copy)]
pub struct FslConfig {
    /// Number of users (the paper's filtered dataset has 9).
    pub users: usize,
    /// Number of weekly backups (16 in the paper).
    pub weeks: usize,
    /// Number of chunks in each user's first backup.
    pub initial_chunks_per_user: usize,
    /// Fraction of a user's chunks drawn from a small cross-user shared pool.
    pub shared_fraction: f64,
    /// Fraction of chunks replaced by new content each week.
    pub weekly_modify_rate: f64,
    /// Fraction of new chunks appended each week (dataset growth).
    pub weekly_growth_rate: f64,
    /// Mean chunk size in bytes (variable-size chunking, 8 KB average).
    pub mean_chunk_size: u32,
    /// Seed for deterministic generation.
    pub seed: u64,
}

impl Default for FslConfig {
    fn default() -> Self {
        FslConfig {
            users: 9,
            weeks: 16,
            initial_chunks_per_user: 400,
            shared_fraction: 0.10,
            weekly_modify_rate: 0.03,
            weekly_growth_rate: 0.005,
            mean_chunk_size: 8 * 1024,
            seed: 0xf51,
        }
    }
}

impl FslConfig {
    /// A reduced configuration for quick tests.
    pub fn small() -> Self {
        FslConfig {
            users: 4,
            weeks: 6,
            initial_chunks_per_user: 80,
            ..Default::default()
        }
    }
}

/// The FSL-like workload generator.
#[derive(Debug, Clone)]
pub struct FslWorkload {
    config: FslConfig,
}

impl FslWorkload {
    /// Creates a generator.
    pub fn new(config: FslConfig) -> Self {
        FslWorkload { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> FslConfig {
        self.config
    }

    fn content_id(namespace: &str, a: u64, b: u64) -> u64 {
        let digest =
            sha256::hash_parts(&[namespace.as_bytes(), &a.to_be_bytes(), &b.to_be_bytes()]);
        u64::from_be_bytes(digest[..8].try_into().expect("8 bytes"))
    }

    fn chunk_size(rng: &mut SplitMix64, mean: u32) -> u32 {
        // Variable-size chunking yields sizes between min (mean/4) and max
        // (2 * mean); sample uniformly, which preserves the mean.
        rng.gen_range(mean as usize / 4..(mean * 2 - mean / 4) as usize + 1) as u32
    }
}

impl Workload for FslWorkload {
    fn name(&self) -> &'static str {
        "FSL"
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
        // Current state of each user's home directory.
        let mut state: Vec<Vec<ChunkSpec>> = Vec::with_capacity(cfg.users);
        // A small shared pool (e.g. common project files) used by every user.
        let shared_pool: Vec<ChunkSpec> = (0..cfg.initial_chunks_per_user)
            .map(|i| {
                ChunkSpec::new(
                    Self::content_id("fsl-shared", 0, i as u64),
                    Self::chunk_size(&mut rng, cfg.mean_chunk_size),
                )
            })
            .collect();
        for user in 0..cfg.users {
            let mut chunks = Vec::with_capacity(cfg.initial_chunks_per_user);
            for i in 0..cfg.initial_chunks_per_user {
                if rng.gen_bool(cfg.shared_fraction) {
                    chunks.push(shared_pool[rng.gen_range(0..shared_pool.len())]);
                } else {
                    chunks.push(ChunkSpec::new(
                        Self::content_id("fsl-user", user as u64, i as u64),
                        Self::chunk_size(&mut rng, cfg.mean_chunk_size),
                    ));
                }
            }
            state.push(chunks);
        }

        let mut out = Vec::with_capacity(cfg.weeks);
        let mut next_id: u64 = 1 << 32;
        for week in 0..cfg.weeks {
            let mut this_week = Vec::with_capacity(cfg.users);
            for (user, chunks) in state.iter_mut().enumerate() {
                if week > 0 {
                    // Modify a small fraction of existing chunks.
                    let len = chunks.len();
                    for chunk in chunks.iter_mut() {
                        if rng.gen_bool(cfg.weekly_modify_rate) {
                            next_id += 1;
                            *chunk = ChunkSpec::new(
                                Self::content_id("fsl-mod", user as u64, next_id),
                                Self::chunk_size(&mut rng, cfg.mean_chunk_size),
                            );
                        }
                    }
                    // Append some new chunks (growth).
                    let growth = ((len as f64) * cfg.weekly_growth_rate).ceil() as usize;
                    for _ in 0..growth {
                        next_id += 1;
                        chunks.push(ChunkSpec::new(
                            Self::content_id("fsl-new", user as u64, next_id),
                            Self::chunk_size(&mut rng, cfg.mean_chunk_size),
                        ));
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
        let workload = FslWorkload::new(FslConfig::small());
        let snapshots = workload.snapshots();
        assert_eq!(snapshots.len(), workload.weeks());
        assert!(snapshots.iter().all(|w| w.len() == workload.users()));
        assert_eq!(snapshots[0][0].week, 0);
        assert_eq!(snapshots[2][3].user, 3);
        assert!(snapshots[0][0].logical_bytes() > 0);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = FslWorkload::new(FslConfig::small()).snapshots();
        let b = FslWorkload::new(FslConfig::small()).snapshots();
        assert_eq!(a, b);
    }

    #[test]
    fn intra_user_savings_are_high_after_week_one() {
        let workload = FslWorkload::new(FslConfig {
            users: 4,
            weeks: 5,
            initial_chunks_per_user: 300,
            ..Default::default()
        });
        let weekly = weekly_dedup(&workload.snapshots(), 4, 3);
        for week in weekly.iter().skip(1) {
            assert!(
                week.stats.intra_user_saving() > 0.90,
                "week {} intra-user saving {}",
                week.week,
                week.stats.intra_user_saving()
            );
        }
    }

    #[test]
    fn inter_user_savings_are_low() {
        let workload = FslWorkload::new(FslConfig {
            users: 5,
            weeks: 4,
            initial_chunks_per_user: 300,
            ..Default::default()
        });
        let weekly = weekly_dedup(&workload.snapshots(), 4, 3);
        for week in &weekly {
            assert!(
                week.stats.inter_user_saving() < 0.2,
                "week {} inter-user saving {}",
                week.week,
                week.stats.inter_user_saving()
            );
        }
    }

    #[test]
    fn dataset_grows_slowly_over_weeks() {
        let workload = FslWorkload::new(FslConfig::small());
        let snapshots = workload.snapshots();
        let first: u64 = snapshots[0].iter().map(|s| s.logical_bytes()).sum();
        let last: u64 = snapshots
            .last()
            .unwrap()
            .iter()
            .map(|s| s.logical_bytes())
            .sum();
        assert!(last > first);
        assert!(last < first * 2);
    }
}
