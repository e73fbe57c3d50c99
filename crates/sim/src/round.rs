//! The round timing simulator.
//!
//! Combines exact per-protocol operation counts (the same quantities as
//! [`crate::complexity`], but evaluated for the concrete phase structure
//! of each protocol) with [`KernelCosts`] and the discrete-event network
//! of [`lsa_net`] to produce the per-phase running times reported in
//! Figure 6, Figures 8–10 and Table 4 of the paper.
//!
//! The dropout model is the paper's §7.1 worst case: `pN` users drop
//! *after* uploading their masked models. For LightSecAgg those users'
//! models are still aggregated (the survivor set is fixed at upload
//! close), but they do not help recovery; for SecAgg/SecAgg+ the server
//! must treat them as dropped and reconstruct their pairwise masks —
//! the asymmetry that produces the paper's headline gain.

use crate::cost::KernelCosts;
use lsa_net::{Duplex, Network, NetworkConfig, NodeId, Transfer};

/// Which protocol to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// LightSecAgg (this paper).
    LightSecAgg,
    /// SecAgg over the complete graph.
    SecAgg,
    /// SecAgg+ over a `O(log N)`-regular graph.
    SecAggPlus,
}

impl ProtocolKind {
    /// All three protocols in the paper's plotting order.
    pub const ALL: [ProtocolKind; 3] = [
        ProtocolKind::LightSecAgg,
        ProtocolKind::SecAgg,
        ProtocolKind::SecAggPlus,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolKind::LightSecAgg => "LightSecAgg",
            ProtocolKind::SecAgg => "SecAgg",
            ProtocolKind::SecAggPlus => "SecAgg+",
        }
    }
}

/// Inputs of one simulated round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundParams {
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Number of users `N`.
    pub(crate) n: usize,
    /// Model dimension `d`.
    pub(crate) d: usize,
    /// Worst-case dropout rate `p` (§7.1).
    pub(crate) dropout_rate: f64,
    /// Network parameters.
    pub net: NetworkConfig,
    /// Client duplexing (§6 ablation).
    pub duplex: Duplex,
    /// Whether the offline phase overlaps local training (§6).
    pub overlap: bool,
    /// Local training time in seconds (protocol-independent input;
    /// 22.8 s for CNN/FEMNIST in Table 4).
    pub train_time_s: f64,
    /// Calibrated kernel costs.
    pub costs: KernelCosts,
    /// Wire bytes per field element (4 for `GF(2^32−5)`).
    pub(crate) bytes_per_elem: usize,
    /// Override LightSecAgg's `U` (ablation; `None` = paper's rule).
    pub(crate) u_override: Option<usize>,
}

impl RoundParams {
    /// The paper's default setup for a given protocol/model size/user
    /// count: `T = N/2`, 320 Mb/s clients, 2× server, 2 ms latency.
    pub fn paper_default(protocol: ProtocolKind, n: usize, d: usize, dropout_rate: f64) -> Self {
        Self {
            protocol,
            n,
            d,
            dropout_rate,
            net: NetworkConfig::mbps(n, 320.0, 640.0, 0.002),
            duplex: Duplex::Full,
            overlap: false,
            train_time_s: 22.8,
            costs: KernelCosts::nominal(),
            bytes_per_elem: 4,
            u_override: None,
        }
    }

    /// Privacy guarantee `T = N/2`.
    pub(crate) fn t(&self) -> usize {
        self.n / 2
    }

    /// Number of users dropped in this round (capped by Theorem 1).
    pub(crate) fn dropped(&self) -> usize {
        let raw = (self.n as f64 * self.dropout_rate).round() as usize;
        raw.min(self.n - self.t() - 1)
    }

    /// LightSecAgg's `U`: the paper's empirically optimal `⌊0.7N⌋`,
    /// clamped into `(T, N − D]` (§7.2, "Impact of U").
    pub(crate) fn lsa_u(&self) -> usize {
        if let Some(u) = self.u_override {
            return u;
        }
        let preferred = (0.7 * self.n as f64).floor() as usize;
        preferred.clamp(self.t() + 1, self.n - self.dropped())
    }

    /// SecAgg+ graph degree `k = O(log N)` (even).
    pub(crate) fn plus_degree(&self) -> usize {
        lsa_baselines::CommunicationGraph::secagg_plus_default(self.n).degree()
    }
}

/// Per-phase wall-clock times of one round, in seconds (the rows of
/// Table 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundBreakdown {
    /// Offline phase (mask generation/encoding/exchange or pairwise
    /// agreement + secret sharing).
    pub offline: f64,
    /// Local training (input parameter, identical across protocols).
    pub training: f64,
    /// Masked-model upload.
    pub uploading: f64,
    /// Aggregate recovery at the server.
    pub recovery: f64,
    /// Total running time respecting the overlap mode.
    pub total: f64,
}

impl RoundBreakdown {
    /// Aggregation-only time (Table 2 "Aggregation-only" column):
    /// everything except training and the offline phase.
    pub(crate) fn aggregation_only(&self) -> f64 {
        self.uploading + self.recovery
    }
}

/// Simulate one round.
pub fn simulate_round(p: &RoundParams) -> RoundBreakdown {
    let (offline, uploading, recovery) = match p.protocol {
        ProtocolKind::LightSecAgg => simulate_lightsecagg(p),
        ProtocolKind::SecAgg => simulate_secagg(p, p.n - 1, p.t()),
        ProtocolKind::SecAggPlus => {
            let k = p.plus_degree();
            simulate_secagg(p, k, k / 2)
        }
    };
    let training = p.train_time_s;
    let total = if p.overlap {
        offline.max(training) + uploading + recovery
    } else {
        offline + training + uploading + recovery
    };
    RoundBreakdown {
        offline,
        training,
        uploading,
        recovery,
        total,
    }
}

fn ns(x: f64) -> f64 {
    x / 1e9
}

fn simulate_lightsecagg(p: &RoundParams) -> (f64, f64, f64) {
    let n = p.n;
    let t = p.t();
    let u = p.lsa_u();
    let dropped = p.dropped();
    let seg = p.d.div_ceil(u - t);
    let d_padded = seg * (u - t);
    let c = &p.costs;

    // ---- offline: generate + encode + all-to-all exchange ----
    // mask & noise generation: (U−T)·seg data + T·seg noise elements
    let gen_elems = (u * seg) as f64;
    // encoding N coded segments at the points ±β: the even and odd
    // coefficient halves are each evaluated at the ⌈N/2⌉ squares β²
    // (U Horner steps per pair of users between them), then one β·O
    // multiply per element forms both p(β) and p(−β)
    let encode_macs = (n.div_ceil(2) * (u + 1) * seg) as f64;
    let offline_compute = ns(gen_elems * c.prg_elem_ns + encode_macs * c.field_mac_ns);

    // all-to-all exchange of coded segments, round-robin interleaved
    let share_bytes = seg * p.bytes_per_elem;
    let mut net = Network::new(p.net, p.duplex);
    let mut transfers = Vec::with_capacity(n * (n - 1));
    for shift in 1..n {
        for i in 0..n {
            let j = (i + shift) % n;
            transfers.push(Transfer::new(
                NodeId::Client(i),
                NodeId::Client(j),
                share_bytes,
            ));
        }
    }
    let offline = offline_compute + net.run_phase(0.0, &transfers).phase_end;

    // ---- upload: every user sends the padded masked model ----
    let mut net = Network::new(p.net, p.duplex);
    let model_bytes = d_padded * p.bytes_per_elem;
    let uploads: Vec<Transfer> = (0..n)
        .map(|i| Transfer::new(NodeId::Client(i), NodeId::Server, model_bytes))
        .collect();
    let masking = ns(d_padded as f64 * c.field_add_ns);
    let uploading = masking + net.run_phase(0.0, &uploads).phase_end;

    // ---- recovery: helpers aggregate + send; server one-shot decode ----
    let helpers = n - dropped; // after-upload droppers don't help
    let client_agg = ns((n * seg) as f64 * c.field_add_ns); // Σ over U1 shares
    let mut net = Network::new(p.net, p.duplex);
    let shares: Vec<Transfer> = (0..helpers)
        .map(|i| Transfer::new(NodeId::Client(i), NodeId::Server, share_bytes))
        .collect();
    let report = net.run_phase(0.0, &shares);
    let net_time = report.kth_completion(u - 1); // server proceeds at U arrivals
                                                 // server: Lagrange basis (U² scalar MACs) + decode (U−T)·U·seg MACs
                                                 // + sum N masked models + subtract the aggregate mask
    let server_ops = (u * u) as f64 * c.field_mac_ns
        + ((u - t) * u * seg) as f64 * c.field_mac_ns
        + (n * d_padded) as f64 * c.field_add_ns
        + d_padded as f64 * c.field_add_ns;
    let recovery = client_agg + net_time + ns(server_ops);

    (offline, uploading, recovery)
}

/// Shared engine for SecAgg (deg = N−1) and SecAgg+ (deg = k).
fn simulate_secagg(p: &RoundParams, deg: usize, shamir_t: usize) -> (f64, f64, f64) {
    let n = p.n;
    let dropped = p.dropped();
    let included = n - dropped;
    let c = &p.costs;
    // seeds are shared as 16 limbs (b) + 4 limbs (sk)
    let limbs = 20usize;
    let seed_bytes = limbs * p.bytes_per_elem;

    // ---- offline: DH + Shamir sharing + pairwise PRG pre-expansion ----
    // each client pre-expands deg pairwise masks + 1 self mask of length d
    let prg_elems = ((deg + 1) * p.d) as f64;
    // sharing two secrets: limbs × (t+1)-term Horner per holder
    let shamir_ops = (2 * limbs * (shamir_t + 1) * deg) as f64;
    let offline_compute = ns(prg_elems * c.prg_elem_ns + shamir_ops * c.shamir_op_ns);
    // share exchange: deg messages of seed_bytes per client (keys are
    // relayed through the server but are tiny; the shares dominate)
    let mut net = Network::new(p.net, p.duplex);
    let mut transfers = Vec::with_capacity(n * deg);
    for shift in 1..=deg / 2 {
        for i in 0..n {
            let j = (i + shift) % n;
            transfers.push(Transfer::new(
                NodeId::Client(i),
                NodeId::Client(j),
                seed_bytes,
            ));
            transfers.push(Transfer::new(
                NodeId::Client(j),
                NodeId::Client(i),
                seed_bytes,
            ));
        }
    }
    let offline = offline_compute + net.run_phase(0.0, &transfers).phase_end;

    // ---- upload ----
    let mut net = Network::new(p.net, p.duplex);
    let model_bytes = p.d * p.bytes_per_elem;
    let uploads: Vec<Transfer> = (0..n)
        .map(|i| Transfer::new(NodeId::Client(i), NodeId::Server, model_bytes))
        .collect();
    // masking: deg+1 vector adds of length d
    let masking = ns(((deg + 1) * p.d) as f64 * c.field_add_ns);
    let uploading = masking + net.run_phase(0.0, &uploads).phase_end;

    // ---- recovery (Eq. 1) ----
    // helpers upload their held shares: (included + dropped) owners ×
    // limb shares
    let mut net = Network::new(p.net, p.duplex);
    let share_msg = (included.min(deg) + dropped.min(deg)) * limbs / 2 * p.bytes_per_elem;
    let share_uploads: Vec<Transfer> = (0..included)
        .map(|i| Transfer::new(NodeId::Client(i), NodeId::Server, share_msg.max(1)))
        .collect();
    let net_time = net.run_phase(0.0, &share_uploads).phase_end;
    // reconstructions: included b-seeds + dropped sk-keys, each limb a
    // (t+1)²-op Lagrange
    let recon_ops = ((included * 16 + dropped * 4) * (shamir_t + 1) * (shamir_t + 1)) as f64;
    // PRG re-expansion: one self mask per included user + one pairwise
    // mask per (dropped, included-neighbour) pair
    let pairs_per_dropped = deg.min(included);
    let prg_elems = ((included + dropped * pairs_per_dropped) * p.d) as f64;
    // vector adds: included models + the same number of mask subtractions
    let adds = ((included + included + dropped * pairs_per_dropped) * p.d) as f64;
    let server = ns(recon_ops * c.shamir_op_ns + prg_elems * c.prg_elem_ns + adds * c.field_add_ns);
    let recovery = net_time + server;

    (offline, uploading, recovery)
}

/// A named phase segment for the Figure 5 timing diagrams.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSegment {
    /// Phase label.
    pub phase: &'static str,
    /// Start time (s).
    pub start: f64,
    /// End time (s).
    pub end: f64,
}

/// The timing diagram of one round (Figure 5): phase segments with
/// absolute start/end times under the round's overlap mode.
pub fn timeline(p: &RoundParams) -> Vec<PhaseSegment> {
    let b = simulate_round(p);
    let mut segments = Vec::new();
    if p.overlap {
        segments.push(PhaseSegment {
            phase: "offline",
            start: 0.0,
            end: b.offline,
        });
        segments.push(PhaseSegment {
            phase: "training",
            start: 0.0,
            end: b.training,
        });
        let t0 = b.offline.max(b.training);
        segments.push(PhaseSegment {
            phase: "uploading",
            start: t0,
            end: t0 + b.uploading,
        });
        segments.push(PhaseSegment {
            phase: "recovery",
            start: t0 + b.uploading,
            end: t0 + b.uploading + b.recovery,
        });
    } else {
        let marks = [
            ("offline", b.offline),
            ("training", b.training),
            ("uploading", b.uploading),
            ("recovery", b.recovery),
        ];
        let mut t = 0.0;
        for (name, len) in marks {
            segments.push(PhaseSegment {
                phase: name,
                start: t,
                end: t + len,
            });
            t += len;
        }
    }
    segments
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_fl::model_sizes::CNN_FEMNIST;

    fn params(protocol: ProtocolKind, p: f64) -> RoundParams {
        RoundParams::paper_default(protocol, 100, CNN_FEMNIST, p)
    }

    #[test]
    fn lightsecagg_beats_baselines_at_paper_scale() {
        for p in [0.1, 0.3] {
            let lsa = simulate_round(&params(ProtocolKind::LightSecAgg, p)).total;
            let sa = simulate_round(&params(ProtocolKind::SecAgg, p)).total;
            let sap = simulate_round(&params(ProtocolKind::SecAggPlus, p)).total;
            assert!(lsa < sap, "p={p}: LSA {lsa} !< SecAgg+ {sap}");
            assert!(sap < sa, "p={p}: SecAgg+ {sap} !< SecAgg {sa}");
        }
    }

    #[test]
    fn secagg_recovery_grows_with_dropout_lsa_flat() {
        let sa_low = simulate_round(&params(ProtocolKind::SecAgg, 0.1)).recovery;
        let sa_high = simulate_round(&params(ProtocolKind::SecAgg, 0.5)).recovery;
        assert!(sa_high > sa_low * 2.0, "{sa_low} -> {sa_high}");
        // LightSecAgg: flat between p = 0.1 and p = 0.3 (the paper's
        // Table 4 shows 40.9 s vs 40.7 s — identical because U = ⌊0.7N⌋
        // in both cases); at p = 0.5 it grows (64.5 s in the paper, as
        // U−T = 1 blows up the segment size) but far slower than SecAgg.
        let lsa_low = simulate_round(&params(ProtocolKind::LightSecAgg, 0.1)).recovery;
        let lsa_mid = simulate_round(&params(ProtocolKind::LightSecAgg, 0.3)).recovery;
        let lsa_high = simulate_round(&params(ProtocolKind::LightSecAgg, 0.5)).recovery;
        assert!((lsa_low - lsa_mid).abs() < 1e-9, "{lsa_low} vs {lsa_mid}");
        // and in absolute terms LightSecAgg recovery stays far below
        // SecAgg's at every dropout rate
        assert!(lsa_high < sa_high / 2.0, "{lsa_high} vs {sa_high}");
        assert!(lsa_low < sa_low / 2.0, "{lsa_low} vs {sa_low}");
    }

    #[test]
    fn overlap_reduces_total() {
        for proto in ProtocolKind::ALL {
            let mut p = params(proto, 0.1);
            let plain = simulate_round(&p).total;
            p.overlap = true;
            let overlapped = simulate_round(&p).total;
            assert!(
                overlapped <= plain + 1e-9,
                "{}: {overlapped} > {plain}",
                proto.name()
            );
        }
    }

    #[test]
    fn training_time_is_protocol_independent() {
        for proto in ProtocolKind::ALL {
            let b = simulate_round(&params(proto, 0.1));
            assert_eq!(b.training, 22.8);
        }
    }

    #[test]
    fn lsa_u_follows_paper_rule() {
        let p01 = params(ProtocolKind::LightSecAgg, 0.1);
        assert_eq!(p01.lsa_u(), 70); // ⌊0.7·100⌋
        let p05 = params(ProtocolKind::LightSecAgg, 0.5);
        // p = 0.5: dropouts capped at N−T−1 = 49, U forced to 51
        assert_eq!(p05.lsa_u(), 51);
    }

    #[test]
    fn timeline_segments_are_contiguous_when_sequential() {
        let p = params(ProtocolKind::LightSecAgg, 0.1);
        let segs = timeline(&p);
        assert_eq!(segs.len(), 4);
        for w in segs.windows(2) {
            assert!((w[0].end - w[1].start).abs() < 1e-9);
        }
    }

    #[test]
    fn timeline_overlap_runs_offline_and_training_concurrently() {
        let mut p = params(ProtocolKind::LightSecAgg, 0.1);
        p.overlap = true;
        let segs = timeline(&p);
        assert_eq!(segs[0].start, 0.0);
        assert_eq!(segs[1].start, 0.0);
        // upload starts at max(offline, training)
        assert!(segs[2].start >= segs[0].end.min(segs[1].end));
    }

    #[test]
    fn aggregation_only_excludes_training_and_offline() {
        let b = simulate_round(&params(ProtocolKind::SecAgg, 0.3));
        assert!((b.aggregation_only() - (b.uploading + b.recovery)).abs() < 1e-12);
    }

    #[test]
    fn half_duplex_slows_the_offline_exchange() {
        // §6 ablation: the all-to-all coded-mask exchange benefits from
        // the optimized concurrent send/receive queues (full duplex)
        let mut p = params(ProtocolKind::LightSecAgg, 0.1);
        let full = simulate_round(&p).offline;
        p.duplex = lsa_net::Duplex::Half;
        let half = simulate_round(&p).offline;
        assert!(half > full * 1.5, "full {full} vs half {half}");
    }

    #[test]
    fn u_override_trades_segment_size_for_decode_cost() {
        // §7.2 "Impact of U": larger U shrinks segments (cheaper offline
        // exchange) but decodes more symbols
        let mut small_u = params(ProtocolKind::LightSecAgg, 0.1);
        small_u.u_override = Some(51);
        let mut large_u = params(ProtocolKind::LightSecAgg, 0.1);
        large_u.u_override = Some(90);
        let b_small = simulate_round(&small_u);
        let b_large = simulate_round(&large_u);
        // U = 51 → U−T = 1 → full-size segments → much slower offline
        assert!(b_small.offline > 5.0 * b_large.offline);
    }

    #[test]
    fn bandwidth_presets_order_totals() {
        // 98 < 320 < 802 Mb/s ⇒ strictly decreasing totals for the
        // communication-heavy LightSecAgg phases, holding the
        // server-to-client provisioning ratio and latency fixed (the
        // Table 3 sweep)
        let mut totals = Vec::new();
        for mbps in [98.0, 320.0, 802.0] {
            let mut p = params(ProtocolKind::LightSecAgg, 0.1);
            p.net = lsa_net::NetworkConfig::mbps(100, mbps, 2.0 * mbps, 0.002);
            totals.push(simulate_round(&p).total);
        }
        assert!(totals[0] > totals[1] && totals[1] > totals[2], "{totals:?}");
    }

    #[test]
    fn larger_models_cost_more() {
        let small = simulate_round(&RoundParams::paper_default(
            ProtocolKind::LightSecAgg,
            100,
            lsa_fl::model_sizes::LOGISTIC_MNIST,
            0.1,
        ));
        let big = simulate_round(&params(ProtocolKind::LightSecAgg, 0.1));
        assert!(big.total > small.total);
    }
}
