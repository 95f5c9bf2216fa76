//! The cost model comparing CDStore with the AONT-RS and single-cloud
//! baselines (Figure 9).

use crate::pricing::{cheapest_instance_for_index, S3Pricing};

/// A backup scenario (the paper's case study: weekly backups retained for 26
/// weeks, `(n, k) = (4, 3)`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// Weekly backup size in bytes (logical data per week).
    pub weekly_backup_bytes: f64,
    /// Retention in weeks (26 in the paper: half a year).
    pub retention_weeks: u32,
    /// Deduplication ratio (logical shares / physical shares, e.g. 10).
    pub dedup_ratio: f64,
    /// Number of clouds.
    pub n: usize,
    /// Reconstruction threshold.
    pub k: usize,
    /// Average chunk (secret) size in bytes; determines metadata overheads.
    pub avg_chunk_bytes: f64,
}

impl Scenario {
    /// The paper's default case study with a given weekly size and dedup ratio.
    pub fn case_study(weekly_backup_bytes: f64, dedup_ratio: f64) -> Self {
        Scenario {
            weekly_backup_bytes,
            retention_weeks: 26,
            dedup_ratio,
            n: 4,
            k: 3,
            avg_chunk_bytes: 8.0 * 1024.0,
        }
    }

    /// Total logical bytes retained (weekly size × retention).
    pub fn logical_bytes(&self) -> f64 {
        self.weekly_backup_bytes * self.retention_weeks as f64
    }
}

/// The monthly cost of one system, broken down by component.
#[derive(Debug, Clone, PartialEq)]
pub struct CostBreakdown {
    /// System name.
    pub system: String,
    /// Monthly storage cost in USD (data + metadata).
    pub storage_usd: f64,
    /// Monthly VM cost in USD (zero for the baselines).
    pub vm_usd: f64,
    /// The EC2 instance type chosen per cloud (CDStore only).
    pub instance: Option<String>,
    /// Number of instances per cloud (usually 1).
    pub instances_per_cloud: u32,
}

impl CostBreakdown {
    /// Total monthly cost.
    pub fn total_usd(&self) -> f64 {
        self.storage_usd + self.vm_usd
    }
}

/// The three-way comparison evaluated for one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct CostComparison {
    /// The scenario evaluated.
    pub scenario: Scenario,
    /// CDStore's cost.
    pub cdstore: CostBreakdown,
    /// The AONT-RS multi-cloud baseline's cost.
    pub aont_rs: CostBreakdown,
    /// The single-cloud baseline's cost.
    pub single_cloud: CostBreakdown,
}

impl CostComparison {
    /// Saving of CDStore relative to the AONT-RS baseline, in `[0, 1]`.
    pub fn saving_vs_aont_rs(&self) -> f64 {
        1.0 - self.cdstore.total_usd() / self.aont_rs.total_usd()
    }

    /// Saving of CDStore relative to the single-cloud baseline, in `[0, 1]`.
    pub fn saving_vs_single_cloud(&self) -> f64 {
        1.0 - self.cdstore.total_usd() / self.single_cloud.total_usd()
    }
}

/// The cost model: pricing inputs plus index/metadata size parameters.
#[derive(Debug, Clone)]
pub struct CostModel {
    pricing: S3Pricing,
    /// Bytes of share-index + mapping state per unique share held on each
    /// server's local instance storage.
    index_entry_bytes: f64,
    /// Bytes of file-recipe metadata per secret per cloud, stored in S3 and
    /// *not* deduplicated (recipes reference every logical secret).
    recipe_entry_bytes: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            pricing: S3Pricing::default(),
            index_entry_bytes: 120.0,
            recipe_entry_bytes: 36.0,
        }
    }
}

impl CostModel {
    /// Creates the default model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a model with explicit metadata-size parameters (used by the
    /// sensitivity tests).
    pub fn with_metadata_sizes(index_entry_bytes: f64, recipe_entry_bytes: f64) -> Self {
        CostModel {
            pricing: S3Pricing::default(),
            index_entry_bytes,
            recipe_entry_bytes,
        }
    }

    /// Evaluates the three systems for a scenario.
    pub fn evaluate(&self, scenario: &Scenario) -> CostComparison {
        let logical = scenario.logical_bytes();
        let n = scenario.n as f64;
        let k = scenario.k as f64;

        // --- Single cloud: all logical data, no redundancy, no dedup, no VMs.
        let single_cloud = CostBreakdown {
            system: "single-cloud".to_string(),
            storage_usd: self.pricing.monthly_cost(logical),
            vm_usd: 0.0,
            instance: None,
            instances_per_cloud: 1,
        };

        // --- AONT-RS multi-cloud: n/k blowup, no dedup, no VMs. Each cloud
        // stores logical / k bytes and is billed on its own tier schedule.
        let aont_per_cloud = logical / k;
        let aont_rs = CostBreakdown {
            system: "AONT-RS".to_string(),
            storage_usd: n * self.pricing.monthly_cost(aont_per_cloud),
            vm_usd: 0.0,
            instance: None,
            instances_per_cloud: 1,
        };

        // --- CDStore: deduplicated shares + file recipes + server VMs.
        let physical_logical = logical / scenario.dedup_ratio.max(1.0);
        let physical_per_cloud = physical_logical / k;
        // File recipes: one entry per secret per cloud, for every logical
        // (non-deduplicated) secret of every retained backup.
        let secrets = logical / scenario.avg_chunk_bytes;
        let recipe_per_cloud = secrets * self.recipe_entry_bytes;
        let storage_usd = n * self
            .pricing
            .monthly_cost(physical_per_cloud + recipe_per_cloud);
        // Index sizing: one entry per unique share stored on the cloud.
        let share_bytes = (scenario.avg_chunk_bytes + 32.0) / k;
        let unique_shares_per_cloud = physical_per_cloud / share_bytes;
        let index_bytes = unique_shares_per_cloud * self.index_entry_bytes;
        let (instance, count, per_cloud_vm) = cheapest_instance_for_index(index_bytes);
        let cdstore = CostBreakdown {
            system: "CDStore".to_string(),
            storage_usd,
            vm_usd: n * per_cloud_vm,
            instance: Some(instance.name.to_string()),
            instances_per_cloud: count,
        };

        CostComparison {
            scenario: *scenario,
            cdstore,
            aont_rs,
            single_cloud,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TB;

    #[test]
    fn paper_case_study_reproduces_70_percent_saving() {
        // §5.6: 16 TB weekly, 10x dedup, 26-week retention, (4, 3).
        let model = CostModel::new();
        let comparison = model.evaluate(&Scenario::case_study(16.0 * TB, 10.0));
        // Single-cloud ≈ US$12,250/month, AONT-RS ≈ US$16,400/month.
        assert!(
            (10_500.0..13_500.0).contains(&comparison.single_cloud.total_usd()),
            "single cloud {}",
            comparison.single_cloud.total_usd()
        );
        assert!(
            (15_000.0..18_000.0).contains(&comparison.aont_rs.total_usd()),
            "AONT-RS {}",
            comparison.aont_rs.total_usd()
        );
        // CDStore saves at least 70% against both baselines.
        assert!(
            comparison.saving_vs_aont_rs() >= 0.70,
            "vs AONT-RS {}",
            comparison.saving_vs_aont_rs()
        );
        assert!(
            comparison.saving_vs_single_cloud() >= 0.70,
            "vs single {}",
            comparison.saving_vs_single_cloud()
        );
        // And it does pay for VMs.
        assert!(comparison.cdstore.vm_usd > 0.0);
        assert!(comparison.cdstore.instance.is_some());
    }

    #[test]
    fn savings_increase_with_weekly_backup_size() {
        let model = CostModel::new();
        let small = model.evaluate(&Scenario::case_study(0.25 * TB, 10.0));
        let large = model.evaluate(&Scenario::case_study(64.0 * TB, 10.0));
        assert!(large.saving_vs_aont_rs() > small.saving_vs_aont_rs());
        assert!(large.saving_vs_single_cloud() > small.saving_vs_single_cloud());
    }

    #[test]
    fn savings_increase_with_dedup_ratio() {
        let model = CostModel::new();
        let low = model.evaluate(&Scenario::case_study(16.0 * TB, 2.0));
        let mid = model.evaluate(&Scenario::case_study(16.0 * TB, 10.0));
        let high = model.evaluate(&Scenario::case_study(16.0 * TB, 50.0));
        assert!(mid.saving_vs_aont_rs() > low.saving_vs_aont_rs());
        assert!(high.saving_vs_aont_rs() >= mid.saving_vs_aont_rs());
        // §5.6: between 10x and 50x the saving sits around 70–85%.
        assert!(mid.saving_vs_aont_rs() > 0.70 && high.saving_vs_aont_rs() < 0.95);
    }

    #[test]
    fn saving_vs_aont_rs_exceeds_saving_vs_single_cloud() {
        // The AONT-RS baseline additionally pays for dispersal redundancy, so
        // CDStore's saving against it is larger (§5.6).
        let model = CostModel::new();
        for weekly_tb in [1.0, 4.0, 16.0, 64.0] {
            let c = model.evaluate(&Scenario::case_study(weekly_tb * TB, 10.0));
            assert!(
                c.saving_vs_aont_rs() > c.saving_vs_single_cloud(),
                "weekly {weekly_tb} TB"
            );
        }
    }

    #[test]
    fn no_dedup_makes_cdstore_more_expensive_than_single_cloud() {
        // With dedup ratio 1 CDStore still pays the dispersal redundancy and
        // the VMs, so it cannot beat the single-cloud baseline.
        let model = CostModel::new();
        let c = model.evaluate(&Scenario::case_study(16.0 * TB, 1.0));
        assert!(c.saving_vs_single_cloud() < 0.0);
    }

    #[test]
    fn instance_choice_switches_with_index_size() {
        let model = CostModel::new();
        let tiny = model.evaluate(&Scenario::case_study(0.25 * TB, 10.0));
        let huge = model.evaluate(&Scenario::case_study(256.0 * TB, 10.0));
        assert_ne!(tiny.cdstore.instance, huge.cdstore.instance);
        assert!(huge.cdstore.vm_usd > tiny.cdstore.vm_usd);
    }

    #[test]
    fn recipe_overhead_slows_saving_growth_at_scale() {
        // §5.6: "The increase slows down as the weekly backup size further
        // increases, since the overhead of file recipes becomes significant."
        let model = CostModel::new();
        let s64 = model
            .evaluate(&Scenario::case_study(64.0 * TB, 10.0))
            .saving_vs_aont_rs();
        let s128 = model
            .evaluate(&Scenario::case_study(128.0 * TB, 10.0))
            .saving_vs_aont_rs();
        let s256 = model
            .evaluate(&Scenario::case_study(256.0 * TB, 10.0))
            .saving_vs_aont_rs();
        let growth_1 = s128 - s64;
        let growth_2 = s256 - s128;
        assert!(growth_2 <= growth_1 + 1e-6);
    }
}
