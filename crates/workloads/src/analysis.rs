//! Fast deduplication analysis over chunk specifications.
//!
//! Figure 6 reports deduplication savings over 8–24 TB datasets; replaying
//! those through the full CDStore pipeline is unnecessary for the
//! *accounting*, because convergent dispersal maps each unique chunk to a
//! fixed set of `n` unique shares deterministically. This module performs
//! exactly the bookkeeping the two deduplication stages would perform —
//! per-user and global unique-share tracking — directly on [`ChunkSpec`](crate::spec::ChunkSpec)s,
//! which lets the experiment harness analyse arbitrarily large synthetic
//! workloads in memory.
//!
//! The per-chunk share size model matches CAONT-RS: each of the `n` shares
//! of a chunk of `s` bytes has `ceil((s + 32) / k)` bytes (the 32-byte tail
//! is the embedded hash).

use std::collections::HashSet;

use cdstore_core::DedupStats;

use crate::spec::Snapshot;

/// One week's deduplication outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeeklyDedup {
    /// Week number.
    pub week: usize,
    /// Counters for this week's backups only.
    pub stats: DedupStats,
    /// Counters accumulated from week 0 through this week (Figure 6(b)).
    pub cumulative: DedupStats,
}

/// Size of one CAONT-RS share of a chunk of `size` bytes under `(n, k)`.
pub fn share_size(size: u64, k: usize) -> u64 {
    (size + 32).div_ceil(k as u64)
}

/// Replays the two-stage deduplication bookkeeping over a weekly workload.
///
/// `snapshots[week][user]` is the layout produced by
/// [`crate::Workload::snapshots`].
pub fn weekly_dedup(snapshots: &[Vec<Snapshot>], n: usize, k: usize) -> Vec<WeeklyDedup> {
    // Per-user sets of already-uploaded chunk identities (intra-user stage),
    // and the global set of stored identities (inter-user stage). Because
    // convergent dispersal maps a chunk to the same share on every cloud,
    // tracking chunk identities is equivalent to tracking per-cloud shares.
    let mut per_user: Vec<HashSet<(u64, u32)>> = Vec::new();
    let mut global: HashSet<(u64, u32)> = HashSet::new();
    let mut cumulative = DedupStats::default();
    let mut out = Vec::with_capacity(snapshots.len());

    for (week, backups) in snapshots.iter().enumerate() {
        let mut stats = DedupStats::default();
        for snapshot in backups {
            let user = snapshot.user as usize;
            if per_user.len() <= user {
                per_user.resize_with(user + 1, HashSet::new);
            }
            for chunk in &snapshot.chunks {
                let identity = (chunk.content_id, chunk.size);
                let share = share_size(chunk.size as u64, k);
                let all_shares = share * n as u64;
                stats.logical_bytes += chunk.size as u64;
                stats.logical_share_bytes += all_shares;
                // Intra-user stage: upload only if this user never uploaded it.
                if per_user[user].insert(identity) {
                    stats.transferred_share_bytes += all_shares;
                    // Inter-user stage: store only if no user stored it before.
                    if global.insert(identity) {
                        stats.physical_share_bytes += all_shares;
                    }
                }
            }
        }
        cumulative.accumulate(&stats);
        out.push(WeeklyDedup {
            week,
            stats,
            cumulative,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ChunkSpec;

    fn snapshot(user: u64, week: usize, ids: &[u64]) -> Snapshot {
        Snapshot {
            user,
            week,
            chunks: ids.iter().map(|&id| ChunkSpec::new(id, 1000)).collect(),
        }
    }

    #[test]
    fn share_size_model_matches_caont_rs() {
        // (1000 + 32) / 3 rounded up.
        assert_eq!(share_size(1000, 3), 344);
        assert_eq!(share_size(0, 3), 11);
        assert_eq!(share_size(8192, 4), 2056);
    }

    #[test]
    fn identical_weekly_backups_are_fully_intra_deduplicated() {
        let weeks = vec![
            vec![snapshot(0, 0, &[1, 2, 3])],
            vec![snapshot(0, 1, &[1, 2, 3])],
        ];
        let result = weekly_dedup(&weeks, 4, 3);
        assert_eq!(
            result[0].stats.transferred_share_bytes,
            result[0].stats.logical_share_bytes
        );
        assert_eq!(result[1].stats.transferred_share_bytes, 0);
        assert!((result[1].stats.intra_user_saving() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_week_that_stores_nothing_new_has_an_infinite_dedup_ratio() {
        let weeks = vec![
            vec![snapshot(0, 0, &[1, 2, 3])],
            vec![snapshot(0, 1, &[1, 2, 3])],
        ];
        let result = weekly_dedup(&weeks, 4, 3);
        assert_eq!(result[1].stats.physical_share_bytes, 0);
        assert!(result[1].stats.logical_share_bytes > 0);
        assert!(result[1].stats.dedup_ratio().is_infinite());
        assert_eq!(DedupStats::default().dedup_ratio(), 1.0);
    }

    #[test]
    fn cross_user_duplicates_are_removed_only_at_the_inter_user_stage() {
        let weeks = vec![vec![snapshot(0, 0, &[1, 2]), snapshot(1, 0, &[1, 2])]];
        let result = weekly_dedup(&weeks, 4, 3);
        // Both users transfer everything (no client-side cross-user dedup)...
        assert_eq!(
            result[0].stats.transferred_share_bytes,
            result[0].stats.logical_share_bytes
        );
        // ...but only one copy is stored.
        assert_eq!(
            result[0].stats.physical_share_bytes * 2,
            result[0].stats.transferred_share_bytes
        );
        assert!((result[0].stats.inter_user_saving() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn duplicates_within_one_snapshot_are_intra_deduplicated() {
        let weeks = vec![vec![snapshot(0, 0, &[7, 7, 7, 8])]];
        let result = weekly_dedup(&weeks, 4, 3);
        let per_chunk = share_size(1000, 3) * 4;
        assert_eq!(result[0].stats.logical_share_bytes, 4 * per_chunk);
        assert_eq!(result[0].stats.transferred_share_bytes, 2 * per_chunk);
    }

    #[test]
    fn cumulative_counters_accumulate() {
        let weeks = vec![
            vec![snapshot(0, 0, &[1])],
            vec![snapshot(0, 1, &[1, 2])],
            vec![snapshot(0, 2, &[1, 2, 3])],
        ];
        let result = weekly_dedup(&weeks, 4, 3);
        assert_eq!(result[2].cumulative.logical_bytes, 6000);
        let per_chunk = share_size(1000, 3) * 4;
        assert_eq!(result[2].cumulative.physical_share_bytes, 3 * per_chunk);
    }

    #[test]
    fn logical_share_blowup_is_about_n_over_k() {
        let weeks = vec![vec![snapshot(0, 0, &(0..100u64).collect::<Vec<_>>())]];
        let result = weekly_dedup(&weeks, 4, 3);
        let blowup =
            result[0].stats.logical_share_bytes as f64 / result[0].stats.logical_bytes as f64;
        assert!(blowup > 1.33 && blowup < 1.40, "blowup {blowup}");
    }
}
