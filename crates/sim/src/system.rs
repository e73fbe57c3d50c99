//! Full-system runs: real federated training + real secure aggregation +
//! simulated cross-device timing, per round.
//!
//! This is the "system and security co-design" view of §6: for each
//! global round the harness (1) trains real local models, (2) aggregates
//! them through the *actual* protocol implementation, and (3) obtains the
//! round's wall-clock time from the calibrated round simulator using the
//! *measured* local-training time — producing accuracy-versus-wall-clock
//! curves in which LightSecAgg reaches a target accuracy earlier than the
//! baselines even though all three aggregate identically.

use crate::cost::KernelCosts;
use crate::round::{simulate_round, ProtocolKind, RoundBreakdown, RoundParams};
use lsa_baselines::{run_secagg_round, SecAggConfig};
use lsa_field::Fp61;
use lsa_fl::{local_update, Dataset, LocalTraining, Model};
use lsa_net::NetworkConfig;
use lsa_protocol::transport::MemTransport;
use lsa_protocol::{DropoutSchedule, Federation, LsaConfig, RoundPlan, SyncFederation};
use lsa_quantize::VectorQuantizer;
use rand::Rng;
use std::time::Instant;

/// Configuration of a full-system run.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Which secure-aggregation protocol carries the updates.
    pub protocol: ProtocolKind,
    /// Global rounds.
    pub rounds: usize,
    /// Worst-case dropout rate per round (dropped after upload).
    pub dropout_rate: f64,
    /// Network parameters for the timing simulation.
    pub net: NetworkConfig,
    /// Overlap offline phase with training (§6).
    pub overlap: bool,
    /// Kernel costs for the timing simulation.
    pub costs: KernelCosts,
    /// Local training hyper-parameters.
    pub local: LocalTraining,
    /// Quantization level `c_l`.
    pub quantizer: VectorQuantizer,
}

impl SystemConfig {
    /// Paper-style defaults for a given protocol and client count.
    pub fn paper_default(protocol: ProtocolKind, clients: usize) -> Self {
        Self {
            protocol,
            rounds: 10,
            dropout_rate: 0.1,
            net: NetworkConfig::mbps(clients, 320.0, 640.0, 0.002),
            overlap: true,
            costs: KernelCosts::nominal(),
            local: LocalTraining::default(),
            quantizer: VectorQuantizer::new(1 << 16),
        }
    }
}

/// One round's record: learning progress plus simulated timing.
#[derive(Debug, Clone)]
pub struct SystemRoundRecord {
    /// Round index.
    pub round: usize,
    /// Test accuracy after the global update.
    pub accuracy: f64,
    /// This round's simulated phase breakdown.
    pub breakdown: RoundBreakdown,
    /// Cumulative simulated wall-clock (seconds) including this round.
    pub elapsed_s: f64,
}

/// Run real training + real secure aggregation + simulated timing.
///
/// The aggregation is exact for every protocol, so accuracies coincide
/// across protocols on the same seed; the wall-clock differs — exactly
/// the comparison of Figure 6 projected onto training curves.
///
/// # Panics
///
/// Panics if the dropout rate exceeds what the protocol parameters
/// tolerate (the drivers return errors that are surfaced as panics here
/// because a misconfigured experiment should fail loudly).
pub fn run_system<M, R>(
    model: &mut M,
    shards: &[Dataset],
    test: &Dataset,
    cfg: &SystemConfig,
    rng: &mut R,
) -> Vec<SystemRoundRecord>
where
    M: Model,
    R: Rng + ?Sized,
{
    let n = shards.len();
    let d = model.num_params();
    let t = n / 2;
    let dropped = ((n as f64 * cfg.dropout_rate).round() as usize).min(n - t - 1);
    let drop_ids: Vec<usize> = (0..dropped).collect();
    let sched = DropoutSchedule::after_upload(drop_ids);

    let mut records = Vec::with_capacity(cfg.rounds);
    let mut elapsed = 0.0f64;
    for round in 0..cfg.rounds {
        let global = model.params();

        // (1) real local training, measured
        let train_start = Instant::now();
        let updates: Vec<Vec<f32>> = shards
            .iter()
            .map(|shard| local_update(model, &global, shard, &cfg.local, rng))
            .collect();
        // the testbed trains clients in parallel: per-client time
        let train_time_s = train_start.elapsed().as_secs_f64() / n as f64;

        // (2) real secure aggregation
        let field_updates: Vec<Vec<Fp61>> = updates
            .iter()
            .map(|u| {
                let reals: Vec<f64> = u.iter().map(|&v| v as f64).collect();
                cfg.quantizer.quantize(&reals, rng)
            })
            .collect();
        let (aggregate, participants) = match cfg.protocol {
            ProtocolKind::LightSecAgg => {
                let u = ((0.7 * n as f64) as usize).clamp(t + 1, n - dropped);
                let lsa = LsaConfig::new(n, t, u, d).expect("valid derived config");
                // a fresh federation per round (N persistent endpoints
                // built each time) over an in-memory transport: every
                // protocol message crosses a serialized wire
                let sync = SyncFederation::new(lsa, MemTransport::new(), rng.gen())
                    .expect("valid derived config");
                let out = Federation::new(Box::new(sync))
                    .run_round(&RoundPlan::from_schedule(&field_updates, &sched))
                    .expect("within budget");
                (out.aggregate, out.contributors.len())
            }
            ProtocolKind::SecAgg => {
                let sa = SecAggConfig::secagg(n, t.min(n - 2), d).expect("valid config");
                let out =
                    run_secagg_round(&sa, &field_updates, &sched, rng).expect("within budget");
                (out.aggregate, out.included.len())
            }
            ProtocolKind::SecAggPlus => {
                let sa = SecAggConfig::secagg_plus(n, d).expect("valid config");
                let out =
                    run_secagg_round(&sa, &field_updates, &sched, rng).expect("within budget");
                (out.aggregate, out.included.len())
            }
        };
        let avg: Vec<f32> = cfg
            .quantizer
            .dequantize(&aggregate)
            .into_iter()
            .map(|v| (v / participants.max(1) as f64) as f32)
            .collect();
        let new_params: Vec<f32> = global.iter().zip(&avg).map(|(&g, &a)| g - a).collect();
        model.set_params(&new_params);

        // (3) simulated cross-device timing with the measured train time
        let mut params = RoundParams::paper_default(cfg.protocol, n, d, cfg.dropout_rate);
        params.net = cfg.net;
        params.overlap = cfg.overlap;
        params.costs = cfg.costs;
        params.train_time_s = train_time_s;
        let breakdown = simulate_round(&params);
        elapsed += breakdown.total;

        records.push(SystemRoundRecord {
            round,
            accuracy: model.accuracy(test),
            breakdown,
            elapsed_s: elapsed,
        });
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_fl::LogisticRegression;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Vec<Dataset>, Dataset) {
        let mut rng = StdRng::seed_from_u64(1);
        let (train, test) = Dataset::synthetic(1200, 8, 4, 2.0, &mut rng).split_test(0.25);
        (train.iid_partition(8), test)
    }

    #[test]
    fn system_run_learns_and_accumulates_time() {
        let (shards, test) = setup();
        let mut model = LogisticRegression::new(8, 4);
        let mut cfg = SystemConfig::paper_default(ProtocolKind::LightSecAgg, 8);
        cfg.rounds = 6;
        let recs = run_system(
            &mut model,
            &shards,
            &test,
            &cfg,
            &mut StdRng::seed_from_u64(2),
        );
        assert_eq!(recs.len(), 6);
        // wall clock strictly increases
        for w in recs.windows(2) {
            assert!(w[1].elapsed_s > w[0].elapsed_s);
        }
        assert!(
            recs.last().unwrap().accuracy > 0.8,
            "acc {}",
            recs.last().unwrap().accuracy
        );
    }

    #[test]
    fn protocols_reach_same_accuracy_with_positive_wall_clock() {
        // No dropouts, so both protocols aggregate the same participant
        // set (with dropouts SecAgg legitimately discards after-upload
        // droppers while LightSecAgg keeps them — different training
        // data, different trajectories). At this toy scale (d ≈ 36) the
        // wall-clock ordering is latency-bound and not meaningful — the
        // at-scale ordering is pinned by
        // `round::tests::lightsecagg_beats_baselines_at_paper_scale`.
        let (shards, test) = setup();
        let mut accs = Vec::new();
        for protocol in [ProtocolKind::LightSecAgg, ProtocolKind::SecAgg] {
            let mut model = LogisticRegression::new(8, 4);
            let mut cfg = SystemConfig::paper_default(protocol, 8);
            cfg.rounds = 6;
            cfg.dropout_rate = 0.0;
            let recs = run_system(
                &mut model,
                &shards,
                &test,
                &cfg,
                &mut StdRng::seed_from_u64(3),
            );
            accs.push(recs.last().unwrap().accuracy);
            assert!(recs.last().unwrap().elapsed_s > 0.0);
            // every round contributes positive time
            for w in recs.windows(2) {
                assert!(w[1].elapsed_s > w[0].elapsed_s);
            }
        }
        // exact aggregation ⇒ near-equal accuracy (quantization noise and
        // RNG-stream divergence only)
        assert!((accs[0] - accs[1]).abs() < 0.1, "{accs:?}");
    }
}
