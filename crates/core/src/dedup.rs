//! Two-stage deduplication bookkeeping (§3.3, §5.4).
//!
//! The deduplication-efficiency experiments track four data quantities per
//! backup stream:
//!
//! * **logical data** — the original user data to be encoded into shares;
//! * **logical shares** — all shares before any deduplication
//!   (`≈ n/k ×` the logical data);
//! * **transferred shares** — shares actually uploaded after *intra-user*
//!   deduplication on the client;
//! * **physical shares** — shares actually stored after *inter-user*
//!   deduplication on the servers.
//!
//! The two savings metrics of Figure 6(a) follow directly:
//! `intra-user saving = 1 − transferred / logical shares` and
//! `inter-user saving = 1 − physical / transferred`.

/// Byte counters for the four data quantities of §5.4.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DedupStats {
    /// Original user data bytes.
    pub logical_bytes: u64,
    /// All-share bytes before deduplication.
    pub logical_share_bytes: u64,
    /// Share bytes uploaded after intra-user deduplication.
    pub transferred_share_bytes: u64,
    /// Share bytes stored after inter-user deduplication.
    pub physical_share_bytes: u64,
}

impl DedupStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds another set of counters into this one.
    pub fn accumulate(&mut self, other: &DedupStats) {
        self.logical_bytes += other.logical_bytes;
        self.logical_share_bytes += other.logical_share_bytes;
        self.transferred_share_bytes += other.transferred_share_bytes;
        self.physical_share_bytes += other.physical_share_bytes;
    }

    /// Intra-user deduplication saving: `1 − transferred / logical shares`.
    pub fn intra_user_saving(&self) -> f64 {
        saving(self.transferred_share_bytes, self.logical_share_bytes)
    }

    /// Inter-user deduplication saving: `1 − physical / transferred`.
    pub fn inter_user_saving(&self) -> f64 {
        saving(self.physical_share_bytes, self.transferred_share_bytes)
    }

    /// Deduplication ratio as defined in §5.6: logical shares / physical
    /// shares (e.g. `10×`).
    pub fn dedup_ratio(&self) -> f64 {
        if self.physical_share_bytes == 0 {
            return if self.logical_share_bytes == 0 {
                1.0
            } else {
                f64::INFINITY
            };
        }
        self.logical_share_bytes as f64 / self.physical_share_bytes as f64
    }

    /// Ratio of stored physical bytes to original logical bytes (Figure 6(b)'s
    /// bottom line; e.g. 6.3% for FSL, 0.8% for VM after 16 weeks).
    pub fn physical_to_logical(&self) -> f64 {
        if self.logical_bytes == 0 {
            return 0.0;
        }
        self.physical_share_bytes as f64 / self.logical_bytes as f64
    }
}

fn saving(after: u64, before: u64) -> f64 {
    if before == 0 {
        return 0.0;
    }
    1.0 - after as f64 / before as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn savings_are_computed_from_byte_ratios() {
        let stats = DedupStats {
            logical_bytes: 900,
            logical_share_bytes: 1200,
            transferred_share_bytes: 300,
            physical_share_bytes: 150,
        };
        assert!((stats.intra_user_saving() - 0.75).abs() < 1e-12);
        assert!((stats.inter_user_saving() - 0.5).abs() < 1e-12);
        assert!((stats.dedup_ratio() - 8.0).abs() < 1e-12);
        assert!((stats.physical_to_logical() - 150.0 / 900.0).abs() < 1e-12);
    }

    #[test]
    fn zero_counters_do_not_divide_by_zero() {
        let stats = DedupStats::new();
        assert_eq!(stats.intra_user_saving(), 0.0);
        assert_eq!(stats.inter_user_saving(), 0.0);
        assert_eq!(stats.dedup_ratio(), 1.0);
        assert_eq!(stats.physical_to_logical(), 0.0);
    }

    #[test]
    fn accumulate_adds_componentwise() {
        let mut a = DedupStats {
            logical_bytes: 1,
            logical_share_bytes: 2,
            transferred_share_bytes: 3,
            physical_share_bytes: 4,
        };
        let b = DedupStats {
            logical_bytes: 10,
            logical_share_bytes: 20,
            transferred_share_bytes: 30,
            physical_share_bytes: 40,
        };
        a.accumulate(&b);
        assert_eq!(a.logical_bytes, 11);
        assert_eq!(a.physical_share_bytes, 44);
    }

    #[test]
    fn everything_duplicate_means_full_saving() {
        let stats = DedupStats {
            logical_bytes: 100,
            logical_share_bytes: 133,
            transferred_share_bytes: 0,
            physical_share_bytes: 0,
        };
        assert!((stats.intra_user_saving() - 1.0).abs() < 1e-12);
        assert_eq!(stats.inter_user_saving(), 0.0);
        assert!(stats.dedup_ratio().is_infinite());
    }
}
