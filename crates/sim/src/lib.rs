//! Experiment harness for the LightSecAgg reproduction.
//!
//! Ties the protocol crates, the network simulator and the FL substrate
//! together to regenerate every table and figure of the paper's
//! evaluation:
//!
//! * [`complexity`] — the closed-form comparisons of Tables 1, 5 and 6;
//! * [`cost`] — per-operation costs calibrated by running the real
//!   kernels on this machine;
//! * [`round`] — the per-phase round timing simulator behind Figure 6,
//!   Figures 8–10 and Tables 2–4;
//! * [`timed`] — the *measured* alternative: the real sans-IO protocol
//!   over [`lsa_net`], phase timings from actual serialized envelopes;
//! * [`federated`] — secure FedAvg through the multi-round
//!   [`lsa_protocol::federation`] API: quantize → federated round →
//!   dequantize, one [`federated::SecureFedAvg`] for the sync, grouped
//!   and unit-weight buffered federations (the `run_fedavg` seam);
//! * [`secure_fedbuff`] — the secure FedBuff: asynchronous LightSecAgg
//!   with §4.2's staleness weights plugged into the `run_fedbuff`
//!   training loop (Figures 7, 11, 12);
//! * [`experiments`] — one runner per table/figure;
//! * [`report`] — console tables and TSV output.
//!
//! # Example: reproduce one Figure 6 point
//!
//! ```
//! use lsa_sim::round::{simulate_round, ProtocolKind, RoundParams};
//!
//! let params = RoundParams::paper_default(
//!     ProtocolKind::LightSecAgg,
//!     100,                      // N
//!     1_206_590,                // CNN/FEMNIST model size
//!     0.3,                      // dropout rate
//! );
//! let breakdown = simulate_round(&params);
//! assert!(breakdown.recovery < breakdown.total);
//! ```

pub mod complexity;
pub mod cost;
pub mod experiments;
pub mod federated;
pub mod report;
pub mod round;
pub mod secure_fedbuff;
pub mod timed;

pub use cost::KernelCosts;
pub use federated::SecureFedAvg;
pub use secure_fedbuff::LsaBufferAggregator;
