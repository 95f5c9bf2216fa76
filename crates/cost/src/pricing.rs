//! Embedded S3 tiered storage pricing and EC2 reserved-instance catalogue.
//!
//! The paper's tool uses the Amazon EC2 \[1\] and S3 \[2\] price lists of
//! September 2014. Those exact lists are no longer served, so this module
//! embeds a static snapshot with the same structure: S3 charges roughly
//! US$30 per TB-month with volume discounts in six tiers, and
//! high-utilisation reserved EC2 instances (compute-optimised `c3` and
//! storage-optimised `i2` families) cost roughly US$60–1,300 per month
//! depending on CPU/memory/local-storage size. The absolute dollar values
//! are representative; the *structure* (tiered storage, discrete instance
//! steps) is what produces Figure 9's shape.

use crate::GB;

/// One S3 storage pricing tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct S3Tier {
    /// Upper bound of the tier in GB (cumulative); effectively unbounded for
    /// the last tier (a very large finite value).
    pub upto_gb: f64,
    /// Price in USD per GB-month within the tier.
    pub usd_per_gb_month: f64,
}

/// The S3 tiered storage price list (standard storage, September 2014).
#[derive(Debug, Clone, PartialEq)]
pub struct S3Pricing {
    /// The tiers, in increasing order of `upto_gb`.
    pub tiers: Vec<S3Tier>,
}

impl Default for S3Pricing {
    fn default() -> Self {
        S3Pricing {
            tiers: vec![
                S3Tier {
                    upto_gb: 1024.0,
                    usd_per_gb_month: 0.0300,
                },
                S3Tier {
                    upto_gb: 50.0 * 1024.0,
                    usd_per_gb_month: 0.0295,
                },
                S3Tier {
                    upto_gb: 500.0 * 1024.0,
                    usd_per_gb_month: 0.0290,
                },
                S3Tier {
                    upto_gb: 1000.0 * 1024.0,
                    usd_per_gb_month: 0.0285,
                },
                S3Tier {
                    upto_gb: 5000.0 * 1024.0,
                    usd_per_gb_month: 0.0280,
                },
                S3Tier {
                    upto_gb: 1.0e15,
                    usd_per_gb_month: 0.0275,
                },
            ],
        }
    }
}

impl S3Pricing {
    /// Monthly storage cost in USD for `bytes` of data, applying the tiers
    /// cumulatively (the first 1 TB at the first tier's rate, and so on).
    pub fn monthly_cost(&self, bytes: f64) -> f64 {
        let mut remaining_gb = bytes.max(0.0) / GB;
        let mut cost = 0.0;
        let mut previous_upto = 0.0;
        for tier in &self.tiers {
            if remaining_gb <= 0.0 {
                break;
            }
            let tier_capacity = tier.upto_gb - previous_upto;
            let in_tier = remaining_gb.min(tier_capacity);
            cost += in_tier * tier.usd_per_gb_month;
            remaining_gb -= in_tier;
            previous_upto = tier.upto_gb;
        }
        cost
    }
}

/// One EC2 reserved-instance option.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ec2Instance {
    /// Instance type name.
    pub name: &'static str,
    /// Number of virtual CPUs.
    pub vcpus: u32,
    /// Memory in GB.
    pub memory_gb: f64,
    /// Local (instance-store) storage in GB, which must hold the
    /// deduplication indices (§5.6).
    pub local_storage_gb: f64,
    /// Effective monthly cost in USD (upfront fee amortised plus hourly
    /// charges, high-utilisation reserved pricing).
    pub monthly_usd: f64,
}

/// The embedded catalogue of candidate instances, cheapest first.
pub const EC2_CATALOG: [Ec2Instance; 6] = [
    Ec2Instance {
        name: "c3.large",
        vcpus: 2,
        memory_gb: 3.75,
        local_storage_gb: 32.0,
        monthly_usd: 61.0,
    },
    Ec2Instance {
        name: "c3.xlarge",
        vcpus: 4,
        memory_gb: 7.5,
        local_storage_gb: 80.0,
        monthly_usd: 123.0,
    },
    Ec2Instance {
        name: "c3.2xlarge",
        vcpus: 8,
        memory_gb: 15.0,
        local_storage_gb: 160.0,
        monthly_usd: 245.0,
    },
    Ec2Instance {
        name: "i2.xlarge",
        vcpus: 4,
        memory_gb: 30.5,
        local_storage_gb: 800.0,
        monthly_usd: 360.0,
    },
    Ec2Instance {
        name: "i2.2xlarge",
        vcpus: 8,
        memory_gb: 61.0,
        local_storage_gb: 1600.0,
        monthly_usd: 720.0,
    },
    Ec2Instance {
        name: "i2.4xlarge",
        vcpus: 16,
        memory_gb: 122.0,
        local_storage_gb: 3200.0,
        monthly_usd: 1295.0,
    },
];

/// Chooses the cheapest instance configuration whose local storage holds an
/// index of `index_bytes`. If the index exceeds even the largest instance,
/// multiple instances of the largest type are used (`count > 1`).
///
/// Returns `(instance, count, monthly cost in USD)`.
pub fn cheapest_instance_for_index(index_bytes: f64) -> (Ec2Instance, u32, f64) {
    let index_gb = index_bytes.max(0.0) / GB;
    for instance in EC2_CATALOG {
        if index_gb <= instance.local_storage_gb {
            return (instance, 1, instance.monthly_usd);
        }
    }
    let largest = EC2_CATALOG[EC2_CATALOG.len() - 1];
    let count = (index_gb / largest.local_storage_gb).ceil() as u32;
    (largest, count, largest.monthly_usd * count as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TB;

    #[test]
    fn s3_pricing_is_about_30_usd_per_tb() {
        let pricing = S3Pricing::default();
        let one_tb = pricing.monthly_cost(TB);
        assert!((one_tb - 30.72).abs() < 0.1, "1 TB costs {one_tb}");
        assert_eq!(pricing.monthly_cost(0.0), 0.0);
    }

    #[test]
    fn s3_tiers_give_volume_discounts() {
        let pricing = S3Pricing::default();
        let small = pricing.monthly_cost(10.0 * TB) / 10.0;
        let large = pricing.monthly_cost(1000.0 * TB) / 1000.0;
        assert!(large < small, "per-TB rate must fall with volume");
        // Paper's example: 16 TB weekly * 26 weeks = 416 TB logical in a
        // single cloud costs about US$12,250 per month.
        let single_cloud = pricing.monthly_cost(416.0 * TB);
        assert!(
            (11_000.0..13_500.0).contains(&single_cloud),
            "416 TB costs {single_cloud}"
        );
    }

    #[test]
    fn s3_cost_is_monotonic_in_size() {
        let pricing = S3Pricing::default();
        let mut last = 0.0;
        for tb in [0.5, 1.0, 10.0, 100.0, 1000.0, 6000.0] {
            let cost = pricing.monthly_cost(tb * TB);
            assert!(cost > last);
            last = cost;
        }
    }

    #[test]
    fn instance_selection_prefers_cheapest_that_fits() {
        let (small, count, cost) = cheapest_instance_for_index(10.0 * GB);
        assert_eq!(small.name, "c3.large");
        assert_eq!(count, 1);
        assert_eq!(cost, 61.0);
        let (mid, _, _) = cheapest_instance_for_index(500.0 * GB);
        assert_eq!(mid.name, "i2.xlarge");
        let (large, count, cost) = cheapest_instance_for_index(10_000.0 * GB);
        assert_eq!(large.name, "i2.4xlarge");
        assert_eq!(count, 4);
        assert!((cost - 4.0 * 1295.0).abs() < 1e-9);
    }

    #[test]
    fn catalog_is_sorted_by_cost_and_monthly_costs_match_paper_range() {
        for pair in EC2_CATALOG.windows(2) {
            assert!(pair[0].monthly_usd < pair[1].monthly_usd);
            assert!(pair[0].local_storage_gb < pair[1].local_storage_gb);
        }
        assert!(EC2_CATALOG[0].monthly_usd >= 60.0);
        assert!(EC2_CATALOG[EC2_CATALOG.len() - 1].monthly_usd <= 1300.0);
    }
}
