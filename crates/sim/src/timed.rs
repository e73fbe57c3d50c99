//! Measured protocol rounds: the *real* protocol over the *simulated*
//! network.
//!
//! [`crate::round`] prices a round analytically from operation counts —
//! fast at any scale but blind to what the implementation actually
//! sends. This module instead runs the deployed round path — a
//! [`SyncFederation`] of sans-IO sessions — over a timed [`MemTransport`]
//! (its tests also run a grouped federation the same way), so every
//! phase timing is derived from the **actual serialized envelope
//! bytes** flowing through the [`lsa_net`] discrete-event network:
//! headers, survivor announcements and padding included, with
//! per-channel queueing at every endpoint.
//!
//! Use this to validate the analytic model at feasible scales and to
//! time concrete deployments of moderate size; use [`crate::round`] for
//! paper-scale (`N = 100`, `d ≈ 10^6`) sweeps.

use lsa_field::Field;
use lsa_net::{Duplex, NetworkConfig};
use lsa_protocol::federation::{RoundOutcome, RoundPlan, SyncFederation};
use lsa_protocol::telemetry::RoundReport;
use lsa_protocol::transport::MemTransport;
use lsa_protocol::{DropoutSchedule, Federation, LsaConfig, ProtocolError};
use rand::Rng;

/// One measured synchronous round: the exact aggregate plus the round's
/// [`RoundReport`], with phase timings derived from serialized envelope
/// sizes.
#[derive(Debug, Clone)]
pub struct TimedRoundOutput<F> {
    /// The protocol output (aggregate + contributors), the same as over
    /// any other transport.
    pub output: RoundOutcome<F>,
    /// The round's telemetry: per-phase simulated wall-clock
    /// (`"offline"`, `"upload"`, `"announce"`, `"recovery"`), traffic
    /// totals and event counters. Each phase's `end` is the *last*
    /// arrival of the phase; see [`TimedRoundOutput::total`] for the
    /// protocol-semantic round time.
    pub report: RoundReport,
    /// Round completion time (s): the server proceeds as soon as the
    /// `U`-th aggregated share arrives (Algorithm 1 line 24 — matching
    /// the analytic model's `kth_completion(U−1)`), even while straggler
    /// shares are still in flight. The full drain time of every message
    /// is `report.phases.last().end`.
    pub total: f64,
}

impl<F> TimedRoundOutput<F> {
    /// Total serialized bytes moved across all phases (payload plus
    /// framing — zero framing on the simulated network).
    pub fn total_bytes(&self) -> usize {
        self.report.total_bytes()
    }
}

/// Run one synchronous LightSecAgg round over the discrete-event
/// network, returning the aggregate and measured per-phase timings: a
/// fresh [`SyncFederation`] seeded from `rng` (so no ratchet engages)
/// runs [`RoundPlan::from_schedule`] once. The survivor announcement
/// goes to the clients still online, so `k` after-upload dropouts mean
/// `k` fewer `"announce"` messages.
///
/// # Errors
///
/// Propagates any [`ProtocolError`] from the federation.
///
/// # Panics
///
/// Panics if `net.clients < cfg.n()` (the network must have a channel
/// per user).
pub fn run_timed_sync_round<F: Field, R: Rng + ?Sized>(
    cfg: LsaConfig,
    models: &[Vec<F>],
    dropouts: &DropoutSchedule,
    rng: &mut R,
    net: NetworkConfig,
    duplex: Duplex,
) -> Result<TimedRoundOutput<F>, ProtocolError> {
    assert!(
        net.clients >= cfg.n(),
        "network has {} client channels but the protocol needs {}",
        net.clients,
        cfg.n()
    );
    let sync = SyncFederation::new(cfg, MemTransport::timed(net, duplex), rng.gen())?;
    let mut fed = Federation::new(Box::new(sync));
    let output = fed.run_round(&RoundPlan::from_schedule(models, dropouts))?;
    let report = fed.last_report().cloned().unwrap_or_default();
    // The server decodes at the U-th aggregated-share arrival; helpers
    // beyond U keep transmitting but don't gate the round (the analytic
    // model's `kth_completion(u - 1)` — see sim::round).
    let total = report
        .phase("recovery")
        .filter(|p| p.messages >= cfg.u())
        .map_or_else(
            || report.phases.last().map_or(0.0, |p| p.end),
            |p| p.kth_completion(cfg.u() - 1),
        );
    Ok(TimedRoundOutput {
        output,
        total,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_field::Fp61;
    use lsa_protocol::federation::SecureAggregator;
    use lsa_protocol::topology::{GroupTopology, GroupedFederation};
    use lsa_protocol::transport::{MemTransport, PhaseTiming};
    use lsa_protocol::wire::Envelope;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn models(n: usize, d: usize, seed: u64) -> Vec<Vec<Fp61>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| lsa_field::ops::random_vector(d, &mut rng))
            .collect()
    }

    /// Run one full-participation **grouped** (tree-topology) round
    /// ([`lsa_protocol::topology`]) over the discrete-event network: every
    /// leaf group runs over its own simulated link (its own aggregator
    /// node, Turbo-Aggregate style), so the per-phase byte/timing records
    /// quantify exactly what the topology saves.
    ///
    /// The per-leaf phase records are merged label-by-label
    /// ([`RoundReport::merge`]): message and byte counts are summed across
    /// leaves, while each phase's `end` is the moment the *slowest* leaf
    /// finished it — subtrees run concurrently in a real hierarchy, so the
    /// merged end is the root's critical path. `total` is the merged
    /// recovery end (a conservative bound that ignores straggler shares
    /// *within* a leaf).
    ///
    /// The server-side compute behind those arrivals — the per-subtree
    /// one-shot decodes inside `finish_round` — runs one subtree after
    /// another on the calling thread; it costs this driver wall-clock time
    /// but never moves the simulated network timings.
    ///
    /// # Errors
    ///
    /// Propagates any [`ProtocolError`] from the grouped federation.
    ///
    /// # Panics
    ///
    /// Panics if `net.clients` is smaller than the largest leaf group:
    /// each leaf's cloned network indexes channels by leaf-local id, so a
    /// `net` sized for the largest leaf suffices (sizing for `n`, the old
    /// flat calling convention, always works too).
    fn run_timed_grouped_round<F: Field>(
        topology: &GroupTopology,
        models: &[Vec<F>],
        seed: u64,
        net: NetworkConfig,
        duplex: Duplex,
    ) -> Result<TimedRoundOutput<F>, ProtocolError> {
        let largest_leaf = topology
            .configs()
            .iter()
            .map(lsa_protocol::LsaConfig::n)
            .max()
            .unwrap_or(0);
        assert!(
            net.clients >= largest_leaf,
            "network has {} client channels but the largest leaf group needs {}",
            net.clients,
            largest_leaf
        );
        assert_eq!(models.len(), topology.n(), "one model per client");
        let mut grouped =
            GroupedFederation::new(topology.clone(), MemTransport::timed(net, duplex), seed)?;
        let cohort: Vec<usize> = (0..topology.n()).collect();
        grouped.open_round(&cohort)?;
        for (id, model) in models.iter().enumerate() {
            grouped.submit(id, model)?;
        }
        let outcome = grouped.finish_round()?;
        let report = grouped.round_report().unwrap_or_default();
        let total = report.phase("recovery").map_or_else(
            || report.phases.last().map_or(0.0, |p| p.end),
            |p: &PhaseTiming| p.end,
        );
        Ok(TimedRoundOutput {
            output: outcome,
            report,
            total,
        })
    }

    #[test]
    fn timed_round_matches_mem_transport_aggregate() {
        // Acceptance: a full round with dropouts completes over a
        // timed MemTransport with byte-identical aggregates to the same
        // federation over an untimed one under the same seed.
        let cfg = LsaConfig::new(6, 2, 4, 17).unwrap();
        let ms = models(6, 17, 1);
        let sched = DropoutSchedule {
            before_upload: vec![1],
            after_upload: vec![4],
        };
        let seed = StdRng::seed_from_u64(9).gen();
        let mem = SyncFederation::new(cfg, MemTransport::new(), seed).unwrap();
        let legacy = Federation::new(Box::new(mem))
            .run_round(&RoundPlan::from_schedule(&ms, &sched))
            .unwrap();
        let timed = run_timed_sync_round(
            cfg,
            &ms,
            &sched,
            &mut StdRng::seed_from_u64(9),
            NetworkConfig::paper_default(6),
            Duplex::Full,
        )
        .unwrap();
        assert_eq!(timed.output.aggregate, legacy.aggregate);
        assert_eq!(timed.output.contributors, legacy.contributors);
        assert_eq!(timed.output.contributors, vec![0, 2, 3, 4, 5]);
        assert!(timed.total > 0.0);
        // the one wire-visible difference from announcing to everyone:
        // client 4 uploaded and vanished, so only the four survivors
        // still online are sent (and billed) an announcement
        assert_eq!(timed.report.phase("announce").unwrap().messages, 4);
        assert_eq!(timed.report.phase("recovery").unwrap().messages, 4);
    }

    #[test]
    fn phase_bytes_equal_serialized_envelope_sizes() {
        // The offline phase moves exactly N·(N−1) coded-share envelopes;
        // the upload phase exactly N masked models. The transport's
        // byte accounting must equal the envelopes' wire lengths.
        let n = 5;
        let cfg = LsaConfig::new(n, 1, 3, 10).unwrap();
        let ms = models(n, 10, 2);
        let timed = run_timed_sync_round(
            cfg,
            &ms,
            &DropoutSchedule::none(),
            &mut StdRng::seed_from_u64(3),
            NetworkConfig::paper_default(n),
            Duplex::Full,
        )
        .unwrap();

        let share_env: Envelope<Fp61> = Envelope::CodedMaskShare(lsa_protocol::CodedMaskShare {
            from: 0,
            to: 1,
            group: 0,
            round: 0,
            payload: vec![Fp61::ZERO; cfg.segment_len()],
        });
        let offline = timed.report.phase("offline").unwrap();
        assert_eq!(offline.messages, n * (n - 1));
        assert_eq!(offline.bytes, n * (n - 1) * share_env.wire_len());

        let model_env: Envelope<Fp61> = Envelope::MaskedModel(lsa_protocol::MaskedModel {
            from: 0,
            group: 0,
            round: 0,
            payload: vec![Fp61::ZERO; cfg.padded_len()],
        });
        let upload = timed.report.phase("upload").unwrap();
        assert_eq!(upload.messages, n);
        assert_eq!(upload.bytes, n * model_env.wire_len());
    }

    #[test]
    fn server_proceeds_at_u_arrivals_not_last() {
        // 8 helpers but U = 5: the round completes at the 5th share
        // arrival; the 3 straggler shares drain afterwards
        let n = 8;
        let cfg = LsaConfig::new(n, 2, 5, 400).unwrap();
        let ms = models(n, 400, 8);
        let timed = run_timed_sync_round(
            cfg,
            &ms,
            &DropoutSchedule::none(),
            &mut StdRng::seed_from_u64(9),
            NetworkConfig::mbps(n, 10.0, 20.0, 0.001),
            Duplex::Full,
        )
        .unwrap();
        let recovery = timed.report.phase("recovery").unwrap();
        assert_eq!(recovery.messages, n); // all helpers transmit...
        assert_eq!(timed.total, recovery.kth_completion(4)); // ...U gates
        assert!(
            timed.total < recovery.end,
            "U-th arrival {} should precede last {}",
            timed.total,
            recovery.end
        );
    }

    #[test]
    fn larger_models_take_longer_on_the_wire() {
        let cfg_small = LsaConfig::new(4, 1, 3, 8).unwrap();
        let cfg_big = LsaConfig::new(4, 1, 3, 800).unwrap();
        let net = NetworkConfig::mbps(4, 10.0, 100.0, 0.001);
        let t_small = run_timed_sync_round(
            cfg_small,
            &models(4, 8, 4),
            &DropoutSchedule::none(),
            &mut StdRng::seed_from_u64(5),
            net,
            Duplex::Full,
        )
        .unwrap();
        let t_big = run_timed_sync_round(
            cfg_big,
            &models(4, 800, 4),
            &DropoutSchedule::none(),
            &mut StdRng::seed_from_u64(5),
            net,
            Duplex::Full,
        )
        .unwrap();
        assert!(t_big.total > t_small.total);
        assert!(t_big.total_bytes() > t_small.total_bytes());
    }

    #[test]
    fn grouped_timed_round_recovers_exact_sum() {
        let topo = GroupTopology::uniform(8, 2, 0.25, 0.75, 12).unwrap();
        let ms = models(8, 12, 11);
        let timed =
            run_timed_grouped_round(&topo, &ms, 3, NetworkConfig::paper_default(8), Duplex::Full)
                .unwrap();
        let mut want = vec![Fp61::ZERO; 12];
        for m in &ms {
            lsa_field::ops::add_assign(&mut want, m);
        }
        assert_eq!(timed.output.aggregate, want);
        assert_eq!(timed.output.contributors.len(), 8);
        assert!(timed.total > 0.0);
    }

    #[test]
    fn hierarchical_timed_round_recovers_exact_sum() {
        // two-level: 2 super-groups x 2 leaf groups x 4 clients; every
        // phase priced per leaf link, aggregate exact
        let n = 16;
        let d = 10;
        let ms = models(n, d, 21);
        let topo = GroupTopology::hierarchical(n, &[2, 2], 0.25, 0.75, d).unwrap();
        let timed =
            run_timed_grouped_round(&topo, &ms, 6, NetworkConfig::paper_default(n), Duplex::Full)
                .unwrap();
        let mut want = vec![Fp61::ZERO; d];
        for m in &ms {
            lsa_field::ops::add_assign(&mut want, m);
        }
        assert_eq!(timed.output.aggregate, want);
        assert_eq!(timed.output.contributors.len(), n);
        assert!(timed.total > 0.0);
        // each of the 4 leaves of 4 clients moves 4*3 offline shares;
        // the merged record pools them
        assert_eq!(timed.report.phase("offline").unwrap().messages, 4 * 4 * 3);
    }

    #[test]
    fn hierarchical_round_accepts_leaf_sized_network() {
        // channels are leaf-local: a net sized for the largest leaf (4)
        // must serve a 16-client two-level tree
        let n = 16;
        let d = 6;
        let ms = models(n, d, 23);
        let topo = GroupTopology::hierarchical(n, &[2, 2], 0.25, 0.75, d).unwrap();
        let timed =
            run_timed_grouped_round(&topo, &ms, 7, NetworkConfig::paper_default(4), Duplex::Full)
                .unwrap();
        let mut want = vec![Fp61::ZERO; d];
        for m in &ms {
            lsa_field::ops::add_assign(&mut want, m);
        }
        assert_eq!(timed.output.aggregate, want);
    }

    #[test]
    fn grouping_cuts_offline_traffic_on_the_wire() {
        // same N and d, measured over the same simulated network: the
        // grouped topology's offline phase moves Σ n_g(n_g−1) messages
        // instead of N(N−1) — the bench claim, pinned in miniature
        let n = 16;
        let d = 8;
        let ms = models(n, d, 13);
        let flat_cfg = LsaConfig::new(n, 4, 12, d).unwrap();
        let flat = run_timed_grouped_round(
            &GroupTopology::flat(flat_cfg),
            &ms,
            5,
            NetworkConfig::paper_default(n),
            Duplex::Full,
        )
        .unwrap();
        let grouped = run_timed_grouped_round(
            &GroupTopology::uniform(n, 4, 0.25, 0.75, d).unwrap(),
            &ms,
            5,
            NetworkConfig::paper_default(n),
            Duplex::Full,
        )
        .unwrap();
        assert_eq!(flat.output.aggregate, grouped.output.aggregate);
        let flat_offline = flat.report.phase("offline").unwrap();
        let grouped_offline = grouped.report.phase("offline").unwrap();
        assert_eq!(flat_offline.messages, n * (n - 1));
        assert_eq!(grouped_offline.messages, 4 * 4 * 3);
        assert!(
            grouped_offline.bytes < flat_offline.bytes,
            "grouped {} vs flat {}",
            grouped_offline.bytes,
            flat_offline.bytes
        );
    }

    #[test]
    fn half_duplex_is_slower_offline() {
        // the all-to-all coded-share exchange serializes sends/receives
        // under half duplex — the §6 ablation, now measured from real
        // envelope bytes
        let cfg = LsaConfig::new(6, 2, 4, 600).unwrap();
        let ms = models(6, 600, 6);
        let net = NetworkConfig::mbps(6, 10.0, 100.0, 0.0);
        let full = run_timed_sync_round(
            cfg,
            &ms,
            &DropoutSchedule::none(),
            &mut StdRng::seed_from_u64(7),
            net,
            Duplex::Full,
        )
        .unwrap();
        let half = run_timed_sync_round(
            cfg,
            &ms,
            &DropoutSchedule::none(),
            &mut StdRng::seed_from_u64(7),
            net,
            Duplex::Half,
        )
        .unwrap();
        let f = full.report.phase("offline").unwrap().duration();
        let h = half.report.phase("offline").unwrap().duration();
        assert!(h > f * 1.2, "full {f} vs half {h}");
    }
}
