//! Secure FedAvg through the multi-round [`Federation`] API.
//!
//! [`SecureFedAvg`] is the data-plane bridge between the real-valued
//! training loop ([`lsa_fl::run_fedavg`] / [`lsa_fl::run_fedbuff`]) and
//! the persistent secure-aggregation federation: each training round's
//! client updates are stochastically quantized (Eq. 30), submitted
//! through one federated round — sync or buffered-async, chosen **by
//! value** via the boxed aggregator variant — and the recovered
//! aggregate is dequantized back into the weighted-average update. Over
//! a timed [`MemTransport`] every envelope also pays
//! simulated network time, so the same object yields both convergence
//! curves and wall-clock estimates.
//!
//! Use [`SecureFedAvg::aggregate`] as the `run_fedavg` aggregation seam
//! (`|updates| secure.aggregate(updates)`). The secure `run_fedbuff`
//! drop-in, with §4.2's staleness weights, is
//! [`crate::secure_fedbuff::LsaBufferAggregator`].

use lsa_field::Field;
use lsa_net::{Duplex, NetworkConfig};
use lsa_protocol::federation::{BufferedFederation, Federation, RoundPlan, SyncFederation};
use lsa_protocol::topology::{GroupTopology, GroupedFederation};
use lsa_protocol::transport::MemTransport;
use lsa_protocol::LsaConfig;
use lsa_quantize::VectorQuantizer;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Federated averaging with every round's aggregation running through a
/// persistent secure federation.
pub struct SecureFedAvg<F: Field> {
    federation: Federation<F>,
    quantizer: VectorQuantizer,
    /// Total planned training rounds, when known: the last round then
    /// skips the (useless) overlapped mask exchange for a round that
    /// will never run.
    horizon: Option<u64>,
    rng: StdRng,
}

impl<F: Field> SecureFedAvg<F> {
    /// Wrap an existing federation (either variant) with a quantizer.
    pub fn new(federation: Federation<F>, quantizer: VectorQuantizer, seed: u64) -> Self {
        Self {
            federation,
            quantizer,
            horizon: None,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Declare the total number of training rounds. Without a horizon
    /// every round prepares the next one (the price of §4.1 overlap
    /// with an unknown end); with one, the final round skips that
    /// trailing exchange.
    #[must_use]
    pub fn with_horizon(mut self, rounds: u64) -> Self {
        self.horizon = Some(rounds);
        self
    }

    /// Synchronous federation over the discrete-event network: every
    /// envelope pays simulated bandwidth/latency, so secure training
    /// also yields a wall-clock estimate.
    ///
    /// # Errors
    ///
    /// Propagates invalid configuration.
    pub fn sync_sim(
        cfg: LsaConfig,
        quantizer: VectorQuantizer,
        net: NetworkConfig,
        duplex: Duplex,
        seed: u64,
    ) -> Result<Self, lsa_protocol::ProtocolError> {
        let sync = SyncFederation::new(cfg, MemTransport::timed(net, duplex), seed)?;
        Ok(Self::new(Federation::new(Box::new(sync)), quantizer, seed))
    }

    /// Grouped federation over the discrete-event network — the grouped
    /// analogue of [`Self::sync_sim`]; `net` must provide a channel per
    /// *global* client id.
    ///
    /// # Errors
    ///
    /// Propagates invalid configuration.
    pub fn grouped_sim(
        topology: GroupTopology,
        quantizer: VectorQuantizer,
        net: NetworkConfig,
        duplex: Duplex,
        seed: u64,
    ) -> Result<Self, lsa_protocol::ProtocolError> {
        let grouped = GroupedFederation::new(topology, MemTransport::timed(net, duplex), seed)?;
        Ok(Self::new(
            Federation::new(Box::new(grouped)),
            quantizer,
            seed,
        ))
    }

    /// Buffered-asynchronous federation (unit weights) over in-memory
    /// queues — same training semantics as [`Self::sync_sim`], different
    /// protocol underneath.
    ///
    /// # Errors
    ///
    /// Propagates invalid configuration.
    pub fn buffered_mem(
        cfg: LsaConfig,
        quantizer: VectorQuantizer,
        seed: u64,
    ) -> Result<Self, lsa_protocol::ProtocolError> {
        let buffered = BufferedFederation::unit_weight(cfg, MemTransport::new(), seed)?;
        Ok(Self::new(
            Federation::new(Box::new(buffered)),
            quantizer,
            seed,
        ))
    }

    /// Aggregate one FedAvg round: quantize every client's update,
    /// run one secure federated round with full participation (and the
    /// next round's mask exchange overlapped, §4.1), and dequantize the
    /// average.
    ///
    /// This is the `run_fedavg` aggregation seam:
    /// `run_fedavg(&mut model, .., |u| secure.aggregate(u), rng)`.
    ///
    /// # Panics
    ///
    /// Panics if `updates.len() != cfg.n()` or a protocol error occurs
    /// (the training loop has no error channel — federation failures
    /// here are bugs, not recoverable conditions).
    pub fn aggregate(&mut self, updates: &[Vec<f32>]) -> Vec<f32> {
        let cfg = self.federation.config();
        assert_eq!(updates.len(), cfg.n(), "one update per federation slot");
        let quantized: Vec<Vec<F>> = updates
            .iter()
            .map(|u| {
                let reals: Vec<f64> = u.iter().map(|&v| v as f64).collect();
                self.quantizer.quantize(&reals, &mut self.rng)
            })
            .collect();
        let cohort: Vec<usize> = (0..cfg.n()).collect();
        let mut plan = RoundPlan::new(cohort.clone()).with_updates(quantized);
        // overlap the next round's mask exchange — unless this is the
        // declared final round, whose successor will never run
        let next_round = self.federation.round() + 1;
        if self.horizon.is_none_or(|h| next_round < h) {
            plan = plan.with_prepare_next(cohort);
        }
        let outcome = self
            .federation
            .run_round(&plan)
            .expect("federated round within dropout budget");
        self.quantizer
            .dequantize_sum(&outcome.aggregate, outcome.total_weight)
            .into_iter()
            .map(|v| v as f32)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_field::Fp61;

    fn cfg(n: usize, d: usize) -> LsaConfig {
        LsaConfig::new(n, (n - 1) / 2, (n - 1) / 2 + 1, d).unwrap()
    }

    /// Synchronous secure FedAvg over in-memory queues.
    fn sync_mem(cfg: LsaConfig, quantizer: VectorQuantizer, seed: u64) -> SecureFedAvg<Fp61> {
        let sync = SyncFederation::new(cfg, MemTransport::new(), seed).unwrap();
        SecureFedAvg::new(Federation::new(Box::new(sync)), quantizer, seed)
    }

    /// Grouped secure FedAvg over in-memory queues.
    fn grouped_mem(
        topology: GroupTopology,
        quantizer: VectorQuantizer,
        seed: u64,
    ) -> SecureFedAvg<Fp61> {
        let grouped = GroupedFederation::new(topology, MemTransport::new(), seed).unwrap();
        SecureFedAvg::new(Federation::new(Box::new(grouped)), quantizer, seed)
    }

    #[test]
    fn sync_and_buffered_average_agree_with_plain_mean() {
        let updates: Vec<Vec<f32>> = (0..4)
            .map(|i| {
                (0..6)
                    .map(|k| (i as f32 - 1.5) * 0.25 + k as f32 * 0.1)
                    .collect()
            })
            .collect();
        let mean: Vec<f32> = (0..6)
            .map(|k| updates.iter().map(|u| u[k]).sum::<f32>() / 4.0)
            .collect();
        let quantizer = VectorQuantizer::new(1 << 16);
        let mut sync = sync_mem(cfg(4, 6), quantizer, 1);
        let mut buffered = SecureFedAvg::<Fp61>::buffered_mem(cfg(4, 6), quantizer, 2).unwrap();
        for secure in [sync.aggregate(&updates), buffered.aggregate(&updates)] {
            for (a, b) in secure.iter().zip(&mean) {
                assert!((a - b).abs() < 1e-3, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn grouped_average_agrees_with_plain_mean() {
        let updates: Vec<Vec<f32>> = (0..8)
            .map(|i| {
                (0..5)
                    .map(|k| (i as f32 - 3.5) * 0.2 + k as f32 * 0.05)
                    .collect()
            })
            .collect();
        let mean: Vec<f32> = (0..5)
            .map(|k| updates.iter().map(|u| u[k]).sum::<f32>() / 8.0)
            .collect();
        let topo = GroupTopology::uniform(8, 2, 0.25, 0.75, 5).unwrap();
        let mut grouped = grouped_mem(topo, VectorQuantizer::new(1 << 16), 6);
        for (a, b) in grouped.aggregate(&updates).iter().zip(&mean) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn hierarchical_average_agrees_with_plain_mean() {
        let n = 16;
        let d = 5;
        let updates: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                (0..d)
                    .map(|k| (i as f32 - 7.5) * 0.1 + k as f32 * 0.05)
                    .collect()
            })
            .collect();
        let mean: Vec<f32> = (0..d)
            .map(|k| updates.iter().map(|u| u[k]).sum::<f32>() / n as f32)
            .collect();
        // 2 super-groups x 2 leaf groups x 4 clients
        let topology = GroupTopology::two_level(n, 2, 2, 0.25, 0.75, d).unwrap();
        let mut hier = grouped_mem(topology, VectorQuantizer::new(1 << 16), 9);
        for (a, b) in hier.aggregate(&updates).iter().zip(&mean) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn repeated_rounds_reuse_overlapped_masks() {
        let quantizer = VectorQuantizer::new(1 << 16);
        let mut secure = sync_mem(cfg(4, 3), quantizer, 3);
        let updates = vec![vec![0.5f32; 3]; 4];
        for round in 0..4u64 {
            assert_eq!(secure.federation.round(), round);
            let avg = secure.aggregate(&updates);
            assert!((avg[0] - 0.5).abs() < 1e-3);
        }
    }
}
