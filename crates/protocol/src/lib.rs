//! The LightSecAgg secure-aggregation protocol (So et al., MLSys 2022).
//!
//! LightSecAgg protects each user's local model with a single locally
//! generated random mask `z_i` whose MDS-coded shares are distributed to
//! the other users, such that the server can reconstruct the **aggregate**
//! mask of any sufficiently large surviving set in **one shot** —
//! independent of how many users dropped. This replaces the per-dropped-
//! user seed reconstruction that bottlenecks SecAgg/SecAgg+.
//!
//! The crate is organised as a **sans-IO protocol engine** under a
//! **multi-round federation layer**:
//!
//! * [`federation`] — the persistent multi-round API, and the **one**
//!   way to run a round (a one-shot round is a fresh federation run
//!   once): [`federation::SecureAggregator`] (one object-safe trait),
//!   [`federation::LeafFederation`] (the one leaf round driver, over
//!   one server and its clients of either protocol),
//!   [`FederationClient`] /
//!   [`federation::FederationServer`] (round lifecycle with cohort
//!   churn), and [`federation::Federation`] (the plan loop with §4.1's
//!   overlapped next-round mask sharing; [`RoundPlan::from_schedule`]
//!   bridges from a [`DropoutSchedule`]);
//! * [`ratchet`] — the stable-cohort fast path: pairwise pads over a
//!   retained base instead of a fresh share exchange, the one
//!   commit/ack handshake both variants' endpoints route into, and
//!   [`RatchetPolicy`] — whether, over which pad graph and with what
//!   commit window a cohort ratchets, carried on [`LsaConfig`];
//! * [`wire`] — [`wire::Envelope`], the single serializable message type
//!   unifying every protocol message, and the message structs it
//!   carries, with a canonical byte encoding; every envelope is
//!   **round-scoped** and cross-round replays are rejected with
//!   [`ProtocolError::StaleRound`];
//! * [`session`] — [`session::Session`], the uniform
//!   `handle(Envelope) -> Vec<(Recipient, Envelope)>` + `poll_output()`
//!   interface of every endpoint: pure event-driven state machines,
//!   entropy injected at construction, never during message handling;
//! * [`transport`] — the [`transport::Transport`] trait with
//!   [`transport::MemTransport`]: ordered in-memory queues, optionally
//!   over a link on the [`lsa_net`] discrete-event network
//!   ([`transport::MemTransport::timed`]), so protocol bytes pay
//!   simulated bandwidth/latency and phase timings come from real
//!   serialized message sizes;
//! * [`FederationClient`] and [`FederationServer`] — the user and the
//!   server of both variants, each one persistent [`session::Session`]
//!   that serves every round itself;
//!   [`FederationClient::timestamped`] and
//!   [`FederationServer::timestamped`] build the §4.2 pair;
//! * [`asynchronous`] — the buffered asynchronous variant's wire
//!   vocabulary (§4.2, Appendix F) and its one-shot flush driver.
//!
//! Guarantees (Theorem 1): for any `T + D < N`, privacy against any `T`
//! colluding users (information-theoretic, given the `T`-private MDS
//! code) and exact aggregate recovery despite any `D` dropouts.
//!
//! # Example: 3 users, 1 dropout, 1 colluder — the paper's Figure 3
//!
//! Build the transport with [`transport::MemTransport::timed`] instead
//! and the identical protocol bytes pay simulated network time.
//!
//! ```
//! use lsa_protocol::transport::MemTransport;
//! use lsa_protocol::{DropoutSchedule, Federation, LsaConfig, RoundPlan, SyncFederation};
//! use lsa_field::{Field, Fp61};
//!
//! let cfg = LsaConfig::new(3, 1, 2, 4).unwrap();
//! let models: Vec<Vec<Fp61>> = (0..3)
//!     .map(|i| (0..4).map(|k| Fp61::from_u64((10 * i + k) as u64)).collect())
//!     .collect();
//! // all entropy of the run derives from the one seed
//! let sync = SyncFederation::new(cfg, MemTransport::new(), 42).unwrap();
//! let mut fed = Federation::new(Box::new(sync));
//! // user 0 drops after uploading its masked model (worst case §7.1)
//! let schedule = DropoutSchedule::after_upload(vec![0]);
//! let out = fed
//!     .run_round(&RoundPlan::from_schedule(&models, &schedule))
//!     .unwrap();
//! // the aggregate covers ALL uploaders (incl. the delayed user 0)
//! assert_eq!(out.contributors, vec![0, 1, 2]);
//! for k in 0..4 {
//!     let want: Fp61 = (0..3).map(|i| models[i][k]).sum();
//!     assert_eq!(out.aggregate[k], want);
//! }
//! // every protocol message crossed the wire as canonical bytes
//! assert!(fed.aggregator().bytes_sent() > 0);
//! ```

pub mod asynchronous;
mod client;
mod config;
pub mod federation;
pub mod ratchet;
pub mod session;
pub mod telemetry;
pub mod topology;
pub mod transport;
pub mod wire;

pub use client::FederationClient;
pub use config::LsaConfig;
pub use federation::{
    BufferedFederation, Federation, FederationServer, RoundOutcome, RoundPlan, SecureAggregator,
    SyncFederation,
};
pub use ratchet::{
    PadTopology, RatchetAnnouncement, RatchetPolicy, RatchetWindowCommit, RATCHET_FROM_SERVER,
};
pub use session::{Recipient, Session};
pub use telemetry::RoundReport;
pub use transport::{MemTransport, Transport};
pub use wire::{
    AggregatedShare, CodedMaskShare, Envelope, EnvelopeKind, MaskedModel, SurvivorAnnouncement,
};

use core::fmt;

/// Errors produced by the protocol layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// Configuration violates `N ≥ U > T ≥ 0` (or similar).
    InvalidConfig(String),
    /// A message referenced a user index outside `[0, N)` or outside the
    /// expected set (e.g. a non-survivor in the recovery phase).
    UnknownUser(usize),
    /// A message arrived in the wrong protocol phase.
    WrongPhase,
    /// The same user sent the same kind of message twice.
    DuplicateMessage(usize),
    /// A coded share was delivered to the wrong recipient.
    MisroutedShare {
        /// The receiving client's id.
        expected: usize,
        /// The share's `to` field.
        got: usize,
    },
    /// A required coded share was never received from `from`.
    MissingShares {
        /// The user whose share is missing.
        from: usize,
    },
    /// Fewer survivors/shares than the protocol needs.
    NotEnoughSurvivors {
        /// How many are available.
        got: usize,
        /// How many are needed (`U`).
        need: usize,
    },
    /// An async update claimed a base round in the future.
    StaleUpdate {
        /// The update's claimed round.
        round: u64,
        /// The server's current round.
        now: u64,
    },
    /// An envelope stamped with a different round than the endpoint is
    /// serving — a cross-round replay or a message that outlived its
    /// round. Distinct from [`ProtocolError::DuplicateMessage`]: a
    /// duplicate repeats a message *within* the current round.
    StaleRound {
        /// The round id the envelope carries.
        got: u64,
        /// The round the endpoint is serving.
        current: u64,
    },
    /// An envelope stamped with a different aggregation group than the
    /// endpoint belongs to — in a grouped topology ([`topology`]) user
    /// indices are group-local, so a cross-group share must be rejected
    /// *before* it could be mistaken for a same-group message from the
    /// same local index.
    WrongGroup {
        /// The group id the envelope carries.
        got: usize,
        /// The group the endpoint belongs to.
        expected: usize,
    },
    /// An envelope stamped with a group id the deployment does not have
    /// at all — unroutable, as opposed to [`ProtocolError::WrongGroup`]
    /// where a real (but different) group's endpoint received it.
    UnknownGroup {
        /// The group id the envelope carries.
        got: usize,
        /// How many groups the deployment has (valid ids are `0..groups`).
        groups: usize,
    },
    /// An envelope kind this endpoint never accepts (e.g. a masked model
    /// delivered to a client) — the session analogue of a wrong-phase or
    /// misaddressed message.
    UnexpectedEnvelope {
        /// The offending message kind.
        kind: wire::EnvelopeKind,
    },
    /// A message failed to encode or decode on the wire.
    Wire(wire::WireError),
    /// An underlying coding error (share decode, length mismatch, …).
    Coding(lsa_coding::CodingError),
    /// A client's buffer of near-future envelopes hit its cap — the
    /// envelope is rejected instead of amplifying memory (once
    /// untrusted sockets feed the session, a peer racing ahead must not
    /// grow the lookahead queue without bound).
    PendingOverflow {
        /// The client whose buffer is full.
        client: usize,
        /// The future round the rejected envelope was stamped for.
        round: u64,
        /// The cap that was hit (envelopes buffered across all
        /// lookahead rounds).
        cap: usize,
    },
    /// The stable-cohort mask ratchet could not engage or complete: the
    /// cohort fingerprint, committed nonce, or submission set diverged
    /// from the retained round state. The round must fall back to the
    /// full offline mask exchange ([`ratchet`]).
    RatchetMismatch,
    /// A client crossed its per-round ingress quota of rejected
    /// envelopes at the server ([`federation::FederationServer`]).
    /// Raised once, on the crossing envelope; everything further from
    /// that client this round is silently quarantined (counted in
    /// [`telemetry::EventCounters::quarantined`]) so a flooding client
    /// cannot wedge the round.
    QuotaExceeded {
        /// The offending client.
        client: usize,
        /// Rejected envelopes accumulated by that client this round.
        strikes: usize,
        /// The quota that was crossed.
        cap: usize,
    },
    /// An operating-system I/O failure on a real network transport.
    Io(String),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            ProtocolError::UnknownUser(id) => write!(f, "unknown or unexpected user {id}"),
            ProtocolError::WrongPhase => write!(f, "message arrived in the wrong protocol phase"),
            ProtocolError::DuplicateMessage(id) => {
                write!(f, "duplicate message from user {id}")
            }
            ProtocolError::MisroutedShare { expected, got } => {
                write!(f, "share addressed to {got} delivered to {expected}")
            }
            ProtocolError::MissingShares { from } => {
                write!(f, "coded share from user {from} was never received")
            }
            ProtocolError::NotEnoughSurvivors { got, need } => {
                write!(f, "not enough survivors: got {got}, need {need}")
            }
            ProtocolError::StaleUpdate { round, now } => {
                write!(f, "update claims future round {round} (now {now})")
            }
            ProtocolError::StaleRound { got, current } => {
                write!(
                    f,
                    "envelope stamped for round {got} but the endpoint serves round {current}"
                )
            }
            ProtocolError::WrongGroup { got, expected } => {
                write!(
                    f,
                    "envelope stamped for group {got} but the endpoint belongs to group {expected}"
                )
            }
            ProtocolError::UnknownGroup { got, groups } => {
                write!(
                    f,
                    "envelope stamped for unknown group {got} (deployment has {groups} groups)"
                )
            }
            ProtocolError::UnexpectedEnvelope { kind } => {
                write!(f, "endpoint cannot accept a {kind} envelope")
            }
            ProtocolError::Wire(e) => write!(f, "wire error: {e}"),
            ProtocolError::Coding(e) => write!(f, "coding error: {e}"),
            ProtocolError::PendingOverflow { client, round, cap } => {
                write!(
                    f,
                    "client {client}: future-round buffer full (cap {cap} envelopes); \
                     rejected an envelope for round {round}"
                )
            }
            ProtocolError::RatchetMismatch => {
                write!(
                    f,
                    "stable-cohort ratchet state diverged; the round requires a full mask exchange"
                )
            }
            ProtocolError::QuotaExceeded {
                client,
                strikes,
                cap,
            } => {
                write!(
                    f,
                    "client {client}: ingress quota exceeded ({strikes} rejected envelopes, \
                     cap {cap}); further traffic from it is quarantined this round"
                )
            }
            ProtocolError::Io(msg) => write!(f, "transport I/O error: {msg}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Coding(e) => Some(e),
            ProtocolError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<wire::WireError> for ProtocolError {
    fn from(e: wire::WireError) -> Self {
        ProtocolError::Wire(e)
    }
}

impl From<lsa_coding::CodingError> for ProtocolError {
    fn from(e: lsa_coding::CodingError) -> Self {
        ProtocolError::Coding(e)
    }
}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        ProtocolError::Io(e.to_string())
    }
}

/// The one payload-length check of every endpoint: `got` elements where
/// `expected` belong is a [`lsa_coding::CodingError::LengthMismatch`].
pub(crate) fn check_len(expected: usize, got: usize) -> Result<(), ProtocolError> {
    if got == expected {
        Ok(())
    } else {
        Err(ProtocolError::Coding(
            lsa_coding::CodingError::LengthMismatch { expected, got },
        ))
    }
}

/// When users drop during a round (the paper's §7.1 worst case drops
/// users *after* they upload masked models, maximising server work in the
/// baselines; dropping before upload is the milder case).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DropoutSchedule {
    /// Users that vanish before uploading their masked model (they did
    /// participate in the offline mask exchange).
    pub before_upload: Vec<usize>,
    /// Users whose masked model arrives but who vanish before serving the
    /// recovery phase ("artificial drop" of §7.1).
    pub after_upload: Vec<usize>,
}

impl DropoutSchedule {
    /// No dropouts.
    pub fn none() -> Self {
        Self::default()
    }

    /// Drop the given users before the upload phase.
    pub fn before_upload(users: Vec<usize>) -> Self {
        Self {
            before_upload: users,
            after_upload: Vec::new(),
        }
    }

    /// Drop the given users after the upload phase (worst case).
    pub fn after_upload(users: Vec<usize>) -> Self {
        Self {
            before_upload: Vec::new(),
            after_upload: users,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_field::{Field, Fp32, Fp61};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn models<F: Field>(n: usize, d: usize, seed: u64) -> Vec<Vec<F>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| lsa_field::ops::random_vector(d, &mut rng))
            .collect()
    }

    fn expected_sum<F: Field>(models: &[Vec<F>], who: &[usize]) -> Vec<F> {
        let mut acc = vec![F::ZERO; models[0].len()];
        for &i in who {
            lsa_field::ops::add_assign(&mut acc, &models[i]);
        }
        acc
    }

    /// One §4.1 round on the deployed path: a fresh [`SyncFederation`]
    /// over a [`MemTransport`], the schedule bridged by
    /// [`RoundPlan::from_schedule`].
    fn round<F: Field>(
        cfg: LsaConfig,
        models: &[Vec<F>],
        schedule: &DropoutSchedule,
        seed: u64,
    ) -> Result<RoundOutcome<F>, ProtocolError> {
        let sync = SyncFederation::new(cfg, MemTransport::new(), seed)?;
        Federation::new(Box::new(sync)).run_round(&RoundPlan::from_schedule(models, schedule))
    }

    /// Theorem 1, one row: under `schedule` the round recovers exactly
    /// the plaintext sum over `want`.
    fn recovers<F: Field>(cfg: LsaConfig, seed: u64, schedule: &DropoutSchedule, want: &[usize]) {
        let ms = models::<F>(cfg.n(), cfg.d(), seed);
        let out = round(cfg, &ms, schedule, seed + 1).unwrap();
        assert_eq!(out.contributors, want);
        assert_eq!(out.total_weight, want.len() as u64);
        assert_eq!(out.aggregate.len(), cfg.d());
        assert_eq!(out.aggregate, expected_sum(&ms, want));
    }

    #[test]
    fn no_dropout_round_recovers_full_sum() {
        let cfg = LsaConfig::new(6, 2, 4, 17).unwrap();
        recovers::<Fp61>(cfg, 1, &DropoutSchedule::none(), &[0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn dropouts_before_upload_excluded_from_aggregate() {
        let cfg = LsaConfig::new(6, 2, 4, 10).unwrap();
        let sched = DropoutSchedule::before_upload(vec![1, 4]);
        recovers::<Fp61>(cfg, 3, &sched, &[0, 2, 3, 5]);
    }

    #[test]
    fn dropouts_after_upload_still_included() {
        // The §7.1 worst case: users drop after uploading, so their models
        // ARE in the aggregate but they don't help recovery.
        let cfg = LsaConfig::new(6, 2, 4, 10).unwrap();
        let sched = DropoutSchedule::after_upload(vec![0, 5]);
        recovers::<Fp61>(cfg, 5, &sched, &[0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn mixed_dropouts() {
        let cfg = LsaConfig::new(8, 3, 5, 12).unwrap();
        let sched = DropoutSchedule {
            before_upload: vec![2],
            after_upload: vec![0, 6],
        };
        recovers::<Fp61>(cfg, 7, &sched, &[0, 1, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn too_many_dropouts_fails_loudly() {
        let cfg = LsaConfig::new(4, 1, 3, 5).unwrap(); // tolerates 1 dropout
        let ms = models::<Fp61>(4, 5, 9);
        let sched = DropoutSchedule::before_upload(vec![0, 1]);
        let err = round(cfg, &ms, &sched, 10).unwrap_err();
        assert!(matches!(
            err,
            ProtocolError::NotEnoughSurvivors { got: 2, need: 3 }
        ));
    }

    #[test]
    fn works_over_fp32() {
        let cfg = LsaConfig::new(5, 2, 3, 8).unwrap();
        let sched = DropoutSchedule::after_upload(vec![1, 2]);
        recovers::<Fp32>(cfg, 11, &sched, &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn d_not_divisible_by_segments_padding_works() {
        // padded_len > d exercises the truncation path
        let cfg = LsaConfig::new(5, 1, 4, 10).unwrap(); // U−T = 3, d=10 → pad to 12
        assert!(cfg.padded_len() > cfg.d());
        recovers::<Fp61>(cfg, 13, &DropoutSchedule::none(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn weighted_models_remark3() {
        // Remark 3: users scale models by a weight before masking; the
        // protocol recovers the weighted sum with unmodified masks.
        let cfg = LsaConfig::new(4, 1, 3, 6).unwrap();
        let ms = models::<Fp61>(4, 6, 15);
        let weights = [3u64, 1, 4, 1];
        let weighted: Vec<Vec<Fp61>> = ms
            .iter()
            .zip(&weights)
            .map(|(m, &w)| m.iter().map(|&x| x * Fp61::from_u64(w)).collect())
            .collect();
        let out = round(cfg, &weighted, &DropoutSchedule::none(), 16).unwrap();
        assert_eq!(out.aggregate, expected_sum(&weighted, &[0, 1, 2, 3]));
    }

    #[test]
    fn server_only_sees_masked_payloads() {
        // Smoke privacy test: a single user's masked model is (pseudo)
        // uniformly distributed — empirically its low bits look uniform —
        // and differs from the raw model.
        let cfg = LsaConfig::new(3, 1, 2, 256).unwrap();
        let mut client = FederationClient::<Fp61>::new(0, cfg, StdRng::seed_from_u64(17)).unwrap();
        client.prepare(0).unwrap();
        let model = vec![Fp61::ZERO; 256];
        client.upload(0, &model).unwrap();
        let masked = std::iter::from_fn(|| client.poll_output())
            .find_map(|(_, env)| match env {
                Envelope::MaskedModel(m) => Some(m),
                _ => None,
            })
            .unwrap();
        assert_ne!(&masked.payload[..256], model.as_slice());
        let ones: u32 = masked
            .payload
            .iter()
            .map(|v| (v.residue() & 1) as u32)
            .sum();
        // ~half the low bits set
        assert!((80..176).contains(&ones), "low-bit count {ones}");
    }
}
