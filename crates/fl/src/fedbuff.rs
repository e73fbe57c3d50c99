//! Buffered asynchronous FL in the style of FedBuff (Nguyen et al. 2021),
//! the asynchronous baseline of the paper's Figures 7, 11 and 12.
//!
//! The simulation follows Appendix F.5: `N` clients, server buffer of
//! size `K`, per-contribution staleness `τ ~ Uniform[0, τ_max]`. Each
//! global round the server fills its buffer with `K` client updates, each
//! computed from the global model as it was `τ` rounds ago, weights them
//! by `s(τ)` and applies the weighted average.
//!
//! The aggregation seam is the [`BufferAggregator`] trait: the plain
//! float implementation ([`PlainFedBuff`]) is the FedBuff baseline, and
//! the simulator provides a LightSecAgg-backed implementation that
//! quantizes, masks, and recovers through the actual async protocol, so
//! Figures 7/11/12 compare exactly what the paper compares.

use crate::dataset::Dataset;
use crate::fedavg::RoundMetrics;
use crate::model::LogisticRegression;
use crate::sgd::{local_update, LocalTraining};
use lsa_quantize::StalenessFn;
use rand::{Rng, SeedableRng};

/// One buffered contribution.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferedContribution {
    /// Contributing client.
    pub client: usize,
    /// Staleness `τ = t − t_i` of the contribution.
    pub staleness: u64,
    /// The local update `Δ_i` (descent direction).
    pub delta: Vec<f32>,
}

/// Turns a full buffer into the weighted-average update the server
/// applies. Implementations may be insecure (plain floats) or secure
/// (masked, quantized, field-aggregated).
pub trait BufferAggregator {
    /// Aggregate the buffer into a single update of the same dimension.
    fn aggregate<R: Rng + ?Sized>(
        &mut self,
        buffer: &[BufferedContribution],
        rng: &mut R,
    ) -> Vec<f32>;
}

/// The plain (insecure) FedBuff aggregation: weighted average with
/// real-valued staleness weights.
#[derive(Debug, Clone, Copy)]
pub struct PlainFedBuff {
    /// Staleness weighting strategy.
    pub staleness: StalenessFn,
}

impl BufferAggregator for PlainFedBuff {
    fn aggregate<R: Rng + ?Sized>(
        &mut self,
        buffer: &[BufferedContribution],
        _rng: &mut R,
    ) -> Vec<f32> {
        assert!(!buffer.is_empty());
        let d = buffer[0].delta.len();
        let mut acc = vec![0.0f64; d];
        let mut total = 0.0f64;
        for c in buffer {
            let w = self.staleness.evaluate(c.staleness);
            total += w;
            for (a, &v) in acc.iter_mut().zip(&c.delta) {
                *a += w * v as f64;
            }
        }
        acc.into_iter().map(|v| (v / total) as f32).collect()
    }
}

/// Configuration of the buffered-async simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FedBuffConfig {
    /// Global rounds (buffer flushes).
    pub rounds: usize,
    /// Buffer size `K`.
    pub buffer_k: usize,
    /// Maximum staleness `τ_max`.
    pub tau_max: u64,
    /// Server learning rate `η_g`.
    pub server_lr: f32,
    /// Local training hyper-parameters.
    pub local: LocalTraining,
}

impl Default for FedBuffConfig {
    fn default() -> Self {
        // Appendix F.5: N = 100, K = 10, τ_max = 10.
        Self {
            rounds: 30,
            buffer_k: 10,
            tau_max: 10,
            server_lr: 1.0,
            local: LocalTraining::default(),
        }
    }
}

/// Run the buffered-asynchronous simulation.
///
/// Clients are sampled uniformly per buffer slot; each contribution's
/// base model is the global model `τ` rounds ago with
/// `τ ~ Uniform[0, min(t, τ_max)]` (Appendix F.5). Returns per-round
/// test accuracy.
pub fn run_fedbuff<A, R>(
    model: &mut LogisticRegression,
    shards: &[Dataset],
    test: &Dataset,
    cfg: &FedBuffConfig,
    aggregator: &mut A,
    rng: &mut R,
) -> Vec<RoundMetrics>
where
    A: BufferAggregator,
    R: Rng + ?Sized,
{
    let n = shards.len();
    assert!(n >= 1, "need at least one client");
    let mut history: Vec<Vec<f32>> = vec![model.params()];
    let mut metrics = Vec::with_capacity(cfg.rounds);
    for round in 0..cfg.rounds {
        let now = history.len() - 1;
        let mut buffer = Vec::with_capacity(cfg.buffer_k);
        for _ in 0..cfg.buffer_k {
            let client = rng.gen_range(0..n);
            let tau = rng.gen_range(0..=cfg.tau_max.min(now as u64));
            let base = &history[now - tau as usize];
            let delta = local_update(model, base, &shards[client], &cfg.local, rng);
            buffer.push(BufferedContribution {
                client,
                staleness: tau,
                delta,
            });
        }
        // Aggregate with a child RNG so the aggregator's own randomness
        // (quantization, masking) does not perturb the client/staleness
        // sampling stream — plain and secure runs on the same seed then
        // see identical contribution streams, which is what the paper's
        // accuracy comparison requires.
        let mut agg_rng = rand::rngs::StdRng::seed_from_u64(rng.gen());
        let avg = aggregator.aggregate(&buffer, &mut agg_rng);
        let current = history.last().expect("non-empty history");
        let new_params: Vec<f32> = current
            .iter()
            .zip(&avg)
            .map(|(&g, &a)| g - cfg.server_lr * a)
            .collect();
        model.set_params(&new_params);
        history.push(new_params);
        // bound history length by τ_max
        if history.len() > cfg.tau_max as usize + 1 {
            let cut = history.len() - (cfg.tau_max as usize + 1);
            history.drain(..cut);
        }
        metrics.push(RoundMetrics {
            round,
            accuracy: model.accuracy(test),
            loss: model.loss(test),
        });
    }
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LogisticRegression;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Dataset, Dataset) {
        let mut rng = StdRng::seed_from_u64(1);
        Dataset::synthetic(1500, 8, 4, 2.0, &mut rng).split_test(0.2)
    }

    #[test]
    fn fedbuff_learns_with_constant_staleness() {
        let (train, test) = setup();
        let shards = train.iid_partition(20);
        let mut model = LogisticRegression::new(8, 4);
        let mut agg = PlainFedBuff {
            staleness: StalenessFn::Constant,
        };
        let cfg = FedBuffConfig {
            rounds: 25,
            buffer_k: 5,
            tau_max: 5,
            ..FedBuffConfig::default()
        };
        let metrics = run_fedbuff(
            &mut model,
            &shards,
            &test,
            &cfg,
            &mut agg,
            &mut StdRng::seed_from_u64(2),
        );
        let last = metrics.last().unwrap().accuracy;
        assert!(last > 0.8, "accuracy {last}");
    }

    #[test]
    fn poly_staleness_downweights_stale_updates() {
        // Not an accuracy bar — just exercise the Poly path and confirm
        // the weighted average differs from Constant on the same stream.
        let buffer = vec![
            BufferedContribution {
                client: 0,
                staleness: 0,
                delta: vec![1.0, 1.0],
            },
            BufferedContribution {
                client: 1,
                staleness: 9,
                delta: vec![-1.0, -1.0],
            },
        ];
        let mut rng = StdRng::seed_from_u64(3);
        let mut constant = PlainFedBuff {
            staleness: StalenessFn::Constant,
        };
        let mut poly = PlainFedBuff {
            staleness: StalenessFn::Poly { alpha: 1.0 },
        };
        let c = constant.aggregate(&buffer, &mut rng);
        let p = poly.aggregate(&buffer, &mut rng);
        assert!((c[0] - 0.0).abs() < 1e-6);
        // Poly: (1·1 + 0.1·(−1)) / 1.1 ≈ 0.818
        assert!((p[0] - 0.8181).abs() < 1e-3, "poly {p:?}");
    }

    #[test]
    fn staleness_bounded_by_round_index() {
        // In round 0 there is no history, so τ must be 0 — this would
        // panic on out-of-bounds indexing otherwise.
        let (train, test) = setup();
        let shards = train.iid_partition(5);
        let mut model = LogisticRegression::new(8, 4);
        let mut agg = PlainFedBuff {
            staleness: StalenessFn::Poly { alpha: 1.0 },
        };
        let cfg = FedBuffConfig {
            rounds: 3,
            buffer_k: 2,
            tau_max: 50,
            ..FedBuffConfig::default()
        };
        let metrics = run_fedbuff(
            &mut model,
            &shards,
            &test,
            &cfg,
            &mut agg,
            &mut StdRng::seed_from_u64(4),
        );
        assert_eq!(metrics.len(), 3);
    }
}
