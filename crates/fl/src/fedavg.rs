//! Synchronous federated averaging with a pluggable aggregation seam.
//!
//! The aggregation closure receives every participating client's local
//! update `Δ_i` and returns their *average* — in production that seam is
//! where secure aggregation sits (the server learns only the average).
//! The simulator swaps in LightSecAgg/SecAgg-backed aggregators there.

use crate::dataset::Dataset;
use crate::model::LogisticRegression;
use crate::sgd::{local_update, LocalTraining};
use rand::Rng;

/// Per-round training metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundMetrics {
    /// Global round index.
    pub round: usize,
    /// Test accuracy after the round's global update.
    pub accuracy: f64,
    /// Mean test cross-entropy loss after the round's global update.
    pub loss: f64,
}

/// Configuration for a synchronous FedAvg run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FedAvgConfig {
    /// Number of global rounds.
    pub rounds: usize,
    /// Server learning rate `η_g`.
    pub server_lr: f32,
    /// Local training hyper-parameters.
    pub local: LocalTraining,
}

impl Default for FedAvgConfig {
    fn default() -> Self {
        Self {
            rounds: 20,
            server_lr: 1.0,
            local: LocalTraining::default(),
        }
    }
}

/// Run synchronous FedAvg.
///
/// `aggregate` maps the clients' updates to their average; the default
/// (insecure) choice is [`mean_aggregate`]. Returns per-round test
/// accuracy.
pub fn run_fedavg<A, R>(
    model: &mut LogisticRegression,
    shards: &[Dataset],
    test: &Dataset,
    cfg: &FedAvgConfig,
    mut aggregate: A,
    rng: &mut R,
) -> Vec<RoundMetrics>
where
    A: FnMut(&[Vec<f32>]) -> Vec<f32>,
    R: Rng + ?Sized,
{
    let mut metrics = Vec::with_capacity(cfg.rounds);
    for round in 0..cfg.rounds {
        let global = model.params();
        let updates: Vec<Vec<f32>> = shards
            .iter()
            .map(|shard| local_update(model, &global, shard, &cfg.local, rng))
            .collect();
        let avg = aggregate(&updates);
        assert_eq!(avg.len(), global.len(), "aggregate changed dimension");
        let new_params: Vec<f32> = global
            .iter()
            .zip(&avg)
            .map(|(&g, &a)| g - cfg.server_lr * a)
            .collect();
        model.set_params(&new_params);
        metrics.push(RoundMetrics {
            round,
            accuracy: model.accuracy(test),
            loss: model.loss(test),
        });
    }
    metrics
}

/// The plain (insecure) averaging baseline.
pub fn mean_aggregate(updates: &[Vec<f32>]) -> Vec<f32> {
    assert!(!updates.is_empty());
    let d = updates[0].len();
    let mut acc = vec![0.0f32; d];
    for u in updates {
        assert_eq!(u.len(), d);
        for (a, &v) in acc.iter_mut().zip(u) {
            *a += v;
        }
    }
    let scale = 1.0 / updates.len() as f32;
    for a in acc.iter_mut() {
        *a *= scale;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LogisticRegression;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fedavg_learns_synthetic_task() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = Dataset::synthetic(1200, 8, 4, 2.0, &mut rng);
        let (train, test) = data.split_test(0.2);
        let shards = train.iid_partition(8);
        let mut model = LogisticRegression::new(8, 4);
        let cfg = FedAvgConfig {
            rounds: 15,
            ..FedAvgConfig::default()
        };
        let metrics = run_fedavg(&mut model, &shards, &test, &cfg, mean_aggregate, &mut rng);
        let last = metrics.last().unwrap().accuracy;
        assert!(last > 0.85, "final accuracy {last}");
        // learning actually progressed
        assert!(metrics[0].accuracy <= last + 0.05);
    }

    #[test]
    fn aggregate_seam_receives_all_updates() {
        let mut rng = StdRng::seed_from_u64(2);
        let data = Dataset::synthetic(200, 4, 2, 1.5, &mut rng);
        let shards = data.iid_partition(5);
        let test = shards[0].clone();
        let mut model = LogisticRegression::new(4, 2);
        let mut seen = 0usize;
        let cfg = FedAvgConfig {
            rounds: 2,
            ..FedAvgConfig::default()
        };
        run_fedavg(
            &mut model,
            &shards,
            &test,
            &cfg,
            |updates| {
                seen += updates.len();
                mean_aggregate(updates)
            },
            &mut rng,
        );
        assert_eq!(seen, 10); // 5 clients × 2 rounds
    }

    #[test]
    fn mean_aggregate_small() {
        let got = mean_aggregate(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(got, vec![2.0, 3.0]);
    }
}
