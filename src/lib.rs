//! # LightSecAgg (MLSys 2022) — a Rust reproduction
//!
//! Facade crate re-exporting the full workspace:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`field`] | `lsa-field` | `GF(2^32−5)` / `GF(2^61−1)` arithmetic |
//! | [`coding`] | `lsa-coding` | Vandermonde MDS codes, Shamir sharing |
//! | [`crypto`] | `lsa-crypto` | ChaCha20 PRG, SHA-256, Diffie–Hellman |
//! | [`quantize`] | `lsa-quantize` | stochastic quantization, staleness |
//! | [`protocol`] | `lsa-protocol` | LightSecAgg as a sans-IO engine: round-scoped wire envelopes, sans-IO client/server endpoints, transports, and the multi-round `federation` API (one `SecureAggregator` trait over sync + buffered-async) |
//! | [`baselines`] | `lsa-baselines` | SecAgg, SecAgg+ |
//! | [`net`] | `lsa-net` | discrete-event network simulator |
//! | [`fl`] | `lsa-fl` | datasets, models, FedAvg, FedBuff |
//! | [`sim`] | `lsa-sim` | cost model + every table/figure runner |
//!
//! See `README.md` for the quickstart, the crate map and the index of
//! paper table/figure binaries.
//!
//! # Example
//!
//! ```
//! use lightsecagg::protocol::transport::MemTransport;
//! use lightsecagg::protocol::{Federation, LsaConfig, RoundPlan, SyncFederation};
//! use lightsecagg::field::{Field, Fp61};
//!
//! let cfg = LsaConfig::new(4, 1, 3, 8)?;
//! let models: Vec<Vec<Fp61>> = (0..4)
//!     .map(|i| (0..8).map(|k| Fp61::from_u64((i * 8 + k) as u64)).collect())
//!     .collect();
//! let sync = SyncFederation::new(cfg, MemTransport::new(), 7)?;
//! let mut fed = Federation::new(Box::new(sync));
//! let out = fed.run_round(&RoundPlan::full(4).with_updates(models))?;
//! assert_eq!(out.contributors, vec![0, 1, 2, 3]);
//! assert_eq!(out.aggregate[0], Fp61::from_u64(8 + 16 + 24));
//! # Ok::<(), lightsecagg::protocol::ProtocolError>(())
//! ```

pub use lsa_baselines as baselines;
pub use lsa_coding as coding;
pub use lsa_crypto as crypto;
pub use lsa_field as field;
pub use lsa_fl as fl;
pub use lsa_net as net;
pub use lsa_protocol as protocol;
pub use lsa_quantize as quantize;
pub use lsa_sim as sim;

/// README.md's Rust blocks, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
