//! Byzantine-robust secure aggregation — the paper's stated future work
//! (§8: "an interesting future research is to combine LightSecAgg with
//! state-of-the-art Byzantine robust aggregation protocols").
//!
//! Coordinate-wise robust statistics (median, trimmed mean) cannot be
//! computed under additive masking — the server only ever sees sums. The
//! standard reconciliation (So et al. 2021b; He et al. 2020d) is
//! **group-wise aggregation**: partition the `N` users into `G` groups,
//! run secure aggregation *within* each group (so the server learns only
//! group means, never an individual update), then combine the group
//! means with a robust statistic. A single Byzantine user corrupts at
//! most its own group's mean, which the cross-group median then rejects.
//!
//! Privacy trade-off (documented, inherent to the construction): the
//! server learns `G` group aggregates instead of one global aggregate,
//! i.e. sums over `N/G` users; within each group the full LightSecAgg
//! `T_g`-privacy/dropout guarantees apply.

use lsa_field::Field;
use lsa_protocol::transport::MemTransport;
use lsa_protocol::{Federation, LsaConfig, ProtocolError, RoundPlan, SyncFederation};
use lsa_quantize::VectorQuantizer;
use rand::Rng;

/// Configuration for group-wise robust secure aggregation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustConfig {
    /// Number of groups `G ≥ 1` (use `G ≥ 2f+1` to tolerate `f`
    /// Byzantine users, one per group in the worst case).
    pub groups: usize,
    /// Quantization level for the in-group secure aggregation.
    pub quantizer: VectorQuantizer,
}

impl RobustConfig {
    /// A configuration tolerating `f` Byzantine users (`G = 2f + 1`).
    pub fn tolerating(f: usize) -> Self {
        Self {
            groups: 2 * f + 1,
            quantizer: VectorQuantizer::new(1 << 16),
        }
    }
}

/// Securely aggregate `updates` with Byzantine robustness: LightSecAgg
/// within round-robin groups, coordinate-wise **median across group
/// means**. Returns the robust estimate of the mean update.
///
/// # Errors
///
/// Propagates protocol errors; notably fails if a group has fewer than
/// two members (choose `groups ≤ N/2`).
pub fn group_median_aggregate<F: Field, R: Rng + ?Sized>(
    updates: &[Vec<f32>],
    cfg: &RobustConfig,
    rng: &mut R,
) -> Result<Vec<f32>, ProtocolError> {
    let n = updates.len();
    let d = updates.first().map(Vec::len).unwrap_or(0);
    if n == 0 || d == 0 {
        return Err(ProtocolError::InvalidConfig(
            "need at least one non-empty update".into(),
        ));
    }
    if cfg.groups == 0 || n / cfg.groups < 2 {
        return Err(ProtocolError::InvalidConfig(format!(
            "{} groups over {n} users leaves groups of size < 2",
            cfg.groups
        )));
    }

    // Round-robin grouping (deterministic; a deployment would randomize
    // per round to stop an adversary from targeting one group forever).
    let mut group_means: Vec<Vec<f64>> = Vec::with_capacity(cfg.groups);
    for g in 0..cfg.groups {
        let members: Vec<usize> = (0..n).filter(|i| i % cfg.groups == g).collect();
        let n_g = members.len();
        // In-group LightSecAgg: T_g = ⌈n_g/2⌉−1, tolerate ⌊n_g/2⌋−... use
        // the largest U = n_g (no in-group dropout modeled here; the
        // caller's dropout handling happens before grouping).
        let t_g = (n_g - 1) / 2;
        let lsa = LsaConfig::new(n_g, t_g, t_g + 1, d)?;
        let field_updates: Vec<Vec<F>> = members
            .iter()
            .map(|&i| {
                let reals: Vec<f64> = updates[i].iter().map(|&v| v as f64).collect();
                cfg.quantizer.quantize(&reals, rng)
            })
            .collect();
        let sync = SyncFederation::new(lsa, MemTransport::new(), rng.gen())?;
        let plan = RoundPlan::full(n_g).with_updates(field_updates);
        let out = Federation::new(Box::new(sync)).run_round(&plan)?;
        let mean: Vec<f64> = cfg
            .quantizer
            .dequantize(&out.aggregate)
            .into_iter()
            .map(|v| v / n_g as f64)
            .collect();
        group_means.push(mean);
    }

    // Coordinate-wise median across group means.
    let mut result = Vec::with_capacity(d);
    let mut column = vec![0.0f64; cfg.groups];
    for k in 0..d {
        for (g, mean) in group_means.iter().enumerate() {
            column[g] = mean[k];
        }
        column.sort_by(f64::total_cmp);
        let mid = cfg.groups / 2;
        let median = if cfg.groups % 2 == 1 {
            column[mid]
        } else {
            (column[mid - 1] + column[mid]) / 2.0
        };
        result.push(median as f32);
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_field::Fp61;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn honest_updates(n: usize, d: usize) -> Vec<Vec<f32>> {
        // honest updates clustered around a common direction
        (0..n)
            .map(|i| {
                (0..d)
                    .map(|k| 1.0 + 0.01 * ((i * d + k) % 7) as f32)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn without_byzantine_matches_mean() {
        let updates = honest_updates(12, 6);
        let cfg = RobustConfig::tolerating(1); // G = 3
        let mut rng = StdRng::seed_from_u64(1);
        let robust = group_median_aggregate::<Fp61, _>(&updates, &cfg, &mut rng).unwrap();
        // the true mean is ≈ 1.0 + small per-coordinate offsets
        for (k, v) in robust.iter().enumerate() {
            let mean: f32 = updates.iter().map(|u| u[k]).sum::<f32>() / updates.len() as f32;
            assert!((v - mean).abs() < 0.02, "coord {k}: {v} vs {mean}");
        }
    }

    #[test]
    fn single_byzantine_user_is_suppressed() {
        let mut updates = honest_updates(12, 6);
        // user 0 poisons with a huge update (model-poisoning attack)
        updates[0] = vec![1e6; 6];
        let cfg = RobustConfig::tolerating(1); // G = 3, tolerates 1
        let mut rng = StdRng::seed_from_u64(2);
        let robust = group_median_aggregate::<Fp61, _>(&updates, &cfg, &mut rng).unwrap();
        // the poisoned group's mean is ≈ 250k, but the median of 3 group
        // means picks an honest group
        for v in &robust {
            assert!((*v - 1.0).abs() < 0.1, "poison leaked: {v}");
        }
        // contrast: the plain mean is destroyed
        let plain: f32 = updates.iter().map(|u| u[0]).sum::<f32>() / 12.0;
        assert!(plain > 1000.0);
    }

    #[test]
    fn too_many_groups_rejected() {
        let updates = honest_updates(6, 4);
        let cfg = RobustConfig {
            groups: 5, // groups of size 1 — cannot run secure aggregation
            quantizer: VectorQuantizer::new(1 << 16),
        };
        let mut rng = StdRng::seed_from_u64(3);
        assert!(group_median_aggregate::<Fp61, _>(&updates, &cfg, &mut rng).is_err());
    }

    #[test]
    fn empty_input_rejected() {
        let cfg = RobustConfig::tolerating(1);
        let mut rng = StdRng::seed_from_u64(4);
        let empty: Vec<Vec<f32>> = vec![];
        assert!(group_median_aggregate::<Fp61, _>(&empty, &cfg, &mut rng).is_err());
    }

    #[test]
    fn even_group_count_uses_midpoint_median() {
        let updates = honest_updates(8, 3);
        let cfg = RobustConfig {
            groups: 2,
            quantizer: VectorQuantizer::new(1 << 16),
        };
        let mut rng = StdRng::seed_from_u64(5);
        let robust = group_median_aggregate::<Fp61, _>(&updates, &cfg, &mut rng).unwrap();
        assert_eq!(robust.len(), 3);
        for v in &robust {
            assert!((*v - 1.0).abs() < 0.1);
        }
    }
}
