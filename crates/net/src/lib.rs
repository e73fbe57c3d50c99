//! Network backends for cross-device FL: a discrete-event simulator
//! (this module) and a real blocking TCP transport ([`tcp`]), sharing
//! the [`timing::PhaseTiming`] accounting currency.
//!
//! Substitutes for the paper's AWS EC2 `m3.medium` testbed: every node
//! owns transmit/receive channels with finite bandwidth, every transfer
//! pays a propagation latency, and the server's shared ingress/egress
//! is modelled explicitly — which is what makes the
//! masked-model collection phase scale with `N·d` (Table 1, "online comm.
//! (S)") and produces the running-time curves of Figures 6 and 8–10.
//!
//! The simulator is intentionally flow-level (each transfer occupies a
//! channel for `bytes/rate` seconds, FIFO per channel): protocol phases
//! are bulk transfers, so flow-level queueing reproduces the phase
//! timings without per-packet detail.
//!
//! Duplexing is configurable: [`Duplex::Full`] models the paper's
//! optimized send/receive queues (§6, "tensor-aware RPC"); [`Duplex::Half`]
//! models the unoptimized path where a node's single channel serializes
//! sends and receives — the ablation of Figure 5.
//!
//! # Example
//!
//! ```
//! use lsa_net::{Duplex, Network, NetworkConfig, NodeId, Transfer};
//!
//! let cfg = NetworkConfig::mbps(3, 320.0, 1000.0, 0.002);
//! let mut net = Network::new(cfg, Duplex::Full);
//! // three clients upload 1 MB each to the server starting at t = 0
//! let transfers: Vec<Transfer> = (0..3)
//!     .map(|i| Transfer::new(NodeId::Client(i), NodeId::Server, 1_000_000))
//!     .collect();
//! let report = net.run_phase(0.0, &transfers);
//! assert!(report.phase_end > 0.0);
//! ```

pub mod tcp;
pub mod timing;

pub use tcp::{TcpTransport, FRAME_OVERHEAD};
pub use timing::PhaseTiming;

/// A network endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeId {
    /// Client (user) `i`.
    Client(usize),
    /// The aggregation server.
    Server,
}

/// Whether a node can send and receive simultaneously.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Duplex {
    /// Independent transmit/receive channels (optimized send/recv queues).
    Full,
    /// One shared channel: sends and receives serialize.
    Half,
}

/// Static link parameters of the simulated deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConfig {
    /// Number of clients.
    pub clients: usize,
    /// Per-client bandwidth in bits/second (applies per direction under
    /// full duplex).
    pub client_bps: f64,
    /// Server bandwidth in bits/second (shared across all concurrent
    /// flows in each direction).
    pub server_bps: f64,
    /// One-way propagation latency in seconds.
    pub latency: f64,
}

impl NetworkConfig {
    /// Convenience constructor in megabits/second.
    pub fn mbps(clients: usize, client_mbps: f64, server_mbps: f64, latency: f64) -> Self {
        Self {
            clients,
            client_bps: client_mbps * 1e6,
            server_bps: server_mbps * 1e6,
            latency,
        }
    }

    /// The paper's measured default: 320 Mb/s at clients, 2 ms latency;
    /// the server is provisioned at 10× client bandwidth.
    pub fn paper_default(clients: usize) -> Self {
        Self::mbps(clients, 320.0, 3200.0, 0.002)
    }
}

/// One bulk transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transfer {
    /// Sender.
    pub(crate) from: NodeId,
    /// Receiver.
    pub(crate) to: NodeId,
    /// Payload size in bytes.
    pub(crate) bytes: usize,
    /// Earliest time the transfer may start (relative to the phase
    /// start passed to [`Network::run_phase`]); defaults to `0`.
    pub(crate) ready_at: f64,
}

impl Transfer {
    /// A transfer ready at the phase start.
    pub fn new(from: NodeId, to: NodeId, bytes: usize) -> Self {
        Self {
            from,
            to,
            bytes,
            ready_at: 0.0,
        }
    }

    /// A transfer that becomes ready `ready_at` seconds into the phase.
    pub fn ready_at(mut self, t: f64) -> Self {
        self.ready_at = t;
        self
    }
}

/// FIFO bit-pipe: transfers serialize; each occupies the channel for
/// `bits/rate` seconds.
#[derive(Debug, Clone, Copy)]
struct Channel {
    rate_bps: f64,
    busy_until: f64,
}

impl Channel {
    fn new(rate_bps: f64) -> Self {
        Self {
            rate_bps,
            busy_until: 0.0,
        }
    }

    /// Reserve the channel from `earliest`; returns (start, end).
    fn reserve(&mut self, earliest: f64, bytes: f64) -> (f64, f64) {
        let start = earliest.max(self.busy_until);
        let end = start + bytes * 8.0 / self.rate_bps;
        self.busy_until = end;
        (start, end)
    }
}

/// The simulated network. Owns per-node channels and a virtual clock;
/// [`Network::run_phase`] schedules a batch of transfers and reports
/// completion times.
#[derive(Debug, Clone)]
pub struct Network {
    cfg: NetworkConfig,
    duplex: Duplex,
    client_tx: Vec<Channel>,
    client_rx: Vec<Channel>,
    server_tx: Channel,
    server_rx: Channel,
}

/// Completion report of a phase.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Completion time of each transfer, in input order.
    pub finish_times: Vec<f64>,
    /// The phase end (max of all completions, or the phase start when
    /// there were no transfers).
    pub phase_end: f64,
}

impl PhaseReport {
    /// Completion time of the `k`-th earliest-finishing transfer
    /// (0-based) — used for "server proceeds after receiving any `U`
    /// messages".
    ///
    /// # Panics
    ///
    /// Panics if `k >= finish_times.len()`.
    pub fn kth_completion(&self, k: usize) -> f64 {
        let mut sorted = self.finish_times.clone();
        sorted.sort_by(f64::total_cmp);
        sorted[k]
    }
}

impl Network {
    /// Build a network.
    pub fn new(cfg: NetworkConfig, duplex: Duplex) -> Self {
        let client_tx: Vec<Channel> = (0..cfg.clients)
            .map(|_| Channel::new(cfg.client_bps))
            .collect();
        let client_rx = client_tx.clone();
        Self {
            cfg,
            duplex,
            client_tx,
            client_rx,
            server_tx: Channel::new(cfg.server_bps),
            server_rx: Channel::new(cfg.server_bps),
        }
    }

    /// Reset all channels to idle (start of a fresh round).
    pub fn reset(&mut self) {
        for c in self.client_tx.iter_mut().chain(self.client_rx.iter_mut()) {
            c.busy_until = 0.0;
        }
        self.server_tx.busy_until = 0.0;
        self.server_rx.busy_until = 0.0;
    }

    /// Schedule all `transfers` no earlier than `start` (+ their
    /// individual `ready_at` offsets) and return the completion report.
    ///
    /// Transfers on the same channel serialize in input order — callers
    /// that want fair interleaving should interleave the input (the
    /// protocol drivers round-robin over clients, modelling the chunked
    /// concurrent queues of the paper's §6).
    pub fn run_phase(&mut self, start: f64, transfers: &[Transfer]) -> PhaseReport {
        let mut finish_times = Vec::with_capacity(transfers.len());
        let mut phase_end = start;
        for t in transfers {
            let ready = start + t.ready_at;
            let bytes = t.bytes as f64;
            // sender's transmit channel
            let (_, tx_end) = self.tx_channel(t.from).reserve(ready, bytes);
            // propagation
            let arrival = tx_end + self.cfg.latency;
            // receiver's receive channel: reception may cut through while
            // bits arrive, so a free channel finishes exactly at arrival
            let rx_serialization = bytes * 8.0 / self.rate_of(t.to);
            let (_, rx_end) = self
                .rx_channel(t.to)
                .reserve(arrival - rx_serialization, bytes);
            // the receive cannot complete before the data fully arrived
            let end = rx_end.max(arrival);
            finish_times.push(end);
            phase_end = phase_end.max(end);
        }
        PhaseReport {
            finish_times,
            phase_end,
        }
    }

    fn rate_of(&self, node: NodeId) -> f64 {
        match node {
            NodeId::Client(_) => self.cfg.client_bps,
            NodeId::Server => self.cfg.server_bps,
        }
    }

    fn tx_channel(&mut self, node: NodeId) -> &mut Channel {
        match (node, self.duplex) {
            (NodeId::Client(i), _) => &mut self.client_tx[i],
            (NodeId::Server, _) => &mut self.server_tx,
        }
    }

    fn rx_channel(&mut self, node: NodeId) -> &mut Channel {
        match (node, self.duplex) {
            (NodeId::Client(i), Duplex::Full) => &mut self.client_rx[i],
            // half duplex: the receive shares the transmit channel
            (NodeId::Client(i), Duplex::Half) => &mut self.client_tx[i],
            (NodeId::Server, Duplex::Full) => &mut self.server_rx,
            (NodeId::Server, Duplex::Half) => &mut self.server_tx,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn near(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn single_transfer_time_is_latency_plus_serialization() {
        // 1 Mb over 1 Mb/s with 10 ms latency = 1.01 s
        let cfg = NetworkConfig {
            clients: 1,
            client_bps: 1e6,
            server_bps: 1e9,
            latency: 0.01,
        };
        let mut net = Network::new(cfg, Duplex::Full);
        let r = net.run_phase(
            0.0,
            &[Transfer::new(NodeId::Client(0), NodeId::Server, 125_000)],
        );
        near(r.phase_end, 1.01);
    }

    #[test]
    fn server_ingress_serializes_uploads() {
        // 4 clients, fast client links, slow server: uploads queue at the
        // server ingress.
        let cfg = NetworkConfig {
            clients: 4,
            client_bps: 1e9,
            server_bps: 1e6,
            latency: 0.0,
        };
        let mut net = Network::new(cfg, Duplex::Full);
        let transfers: Vec<Transfer> = (0..4)
            .map(|i| Transfer::new(NodeId::Client(i), NodeId::Server, 125_000))
            .collect();
        let r = net.run_phase(0.0, &transfers);
        near(r.phase_end, 4.0);
    }

    #[test]
    fn client_uplink_serializes_fanout() {
        // one client sends to 3 peers over a 1 Mb/s uplink: 3 s total
        let cfg = NetworkConfig {
            clients: 4,
            client_bps: 1e6,
            server_bps: 1e9,
            latency: 0.0,
        };
        let mut net = Network::new(cfg, Duplex::Full);
        let transfers: Vec<Transfer> = (1..4)
            .map(|i| Transfer::new(NodeId::Client(0), NodeId::Client(i), 125_000))
            .collect();
        let r = net.run_phase(0.0, &transfers);
        near(r.phase_end, 3.0);
    }

    #[test]
    fn half_duplex_serializes_send_and_receive() {
        let cfg = NetworkConfig {
            clients: 2,
            client_bps: 1e6,
            server_bps: 1e9,
            latency: 0.0,
        };
        // client 0 sends 1 Mb to client 1 AND receives 1 Mb from client 1.
        let transfers = vec![
            Transfer::new(NodeId::Client(0), NodeId::Client(1), 125_000),
            Transfer::new(NodeId::Client(1), NodeId::Client(0), 125_000),
        ];
        let mut full = Network::new(cfg, Duplex::Full);
        let full_t = full.run_phase(0.0, &transfers).phase_end;
        let mut half = Network::new(cfg, Duplex::Half);
        let half_t = half.run_phase(0.0, &transfers).phase_end;
        near(full_t, 1.0);
        assert!(half_t > 1.5, "half duplex should serialize: {half_t}");
    }

    #[test]
    fn ready_at_delays_start() {
        let cfg = NetworkConfig {
            clients: 1,
            client_bps: 1e6,
            server_bps: 1e9,
            latency: 0.0,
        };
        let mut net = Network::new(cfg, Duplex::Full);
        let r = net.run_phase(
            5.0,
            &[Transfer::new(NodeId::Client(0), NodeId::Server, 125_000).ready_at(2.0)],
        );
        near(r.phase_end, 8.0);
    }

    #[test]
    fn kth_completion_supports_any_u_semantics() {
        let cfg = NetworkConfig {
            clients: 3,
            client_bps: 1e6,
            server_bps: 1e9,
            latency: 0.0,
        };
        let mut net = Network::new(cfg, Duplex::Full);
        let transfers: Vec<Transfer> = (0..3)
            .map(|i| Transfer::new(NodeId::Client(i), NodeId::Server, 125_000 * (i + 1)))
            .collect();
        let r = net.run_phase(0.0, &transfers);
        near(r.kth_completion(0), 1.0);
        near(r.kth_completion(1), 2.0);
        near(r.kth_completion(2), 3.0);
    }

    #[test]
    fn reset_clears_backlog() {
        let cfg = NetworkConfig {
            clients: 1,
            client_bps: 1e6,
            server_bps: 1e9,
            latency: 0.0,
        };
        let mut net = Network::new(cfg, Duplex::Full);
        net.run_phase(
            0.0,
            &[Transfer::new(NodeId::Client(0), NodeId::Server, 125_000)],
        );
        net.reset();
        let r = net.run_phase(
            0.0,
            &[Transfer::new(NodeId::Client(0), NodeId::Server, 125_000)],
        );
        near(r.phase_end, 1.0);
    }

    #[test]
    fn paper_presets_have_expected_rates() {
        let d = NetworkConfig::paper_default(10);
        assert_eq!(d.client_bps, 320e6);
    }
}
