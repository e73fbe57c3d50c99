//! Multi-round federation: one [`SecureAggregator`] trait and one leaf
//! round driver over the sync and buffered-async endpoint pairs, with a
//! persistent round lifecycle — the one way to run a round.
//!
//! LightSecAgg's point (§4.1 of the paper) is *amortizing* secure
//! aggregation across a training run: the offline mask exchange for
//! round `t+1` overlaps round `t`'s computation, so the per-round online
//! cost is just one masked upload and one aggregated share. This module
//! is that lifecycle as an API:
//!
//! * [`SecureAggregator`] — an **object-safe** trait capturing one
//!   round: `open_round → submit* → prepare_next? → mark_dropped* →
//!   finish_round`. Callers pick a variant **by value**
//!   (`Box<dyn SecureAggregator<F>>`), not by code path.
//! * [`LeafFederation`] — the one implementation of that lifecycle for
//!   a leaf cohort (overlap, ratchet, rollback, telemetry) over
//!   [`FederationClient`]s and one [`FederationServer`];
//!   [`SyncFederation::new`] (§4.1) and
//!   [`BufferedFederation::unit_weight`] (§4.2) build it for either
//!   protocol.
//! * [`FederationClient`] / [`FederationServer`] — the persistent
//!   user and server of both protocols, Algorithm 1's user and server
//!   themselves; [`FederationClient::timestamped`] and
//!   [`FederationServer::timestamped`] build the §4.2 pair. The client
//!   holds the state of each live round and routes interleaved
//!   multi-round traffic by the round id every wire envelope carries;
//!   the server serves one round at a time. A replayed envelope from a
//!   finished round is rejected with [`ProtocolError::StaleRound`] —
//!   never confused with a same-round
//!   [`ProtocolError::DuplicateMessage`].
//! * [`Federation`] / [`RoundPlan`] — the driver loop: per-round cohort
//!   selection with cross-round churn (clients join, leave and rejoin
//!   between rounds) and overlapped next-round mask sharing. A one-shot
//!   round is a fresh federation run once;
//!   [`RoundPlan::from_schedule`] bridges from the
//!   [`DropoutSchedule`] vocabulary shared with the baselines.
//!
//! # Example: three rounds with churn through a trait object
//!
//! ```
//! use lsa_protocol::federation::{Federation, RoundPlan, SyncFederation};
//! use lsa_protocol::transport::MemTransport;
//! use lsa_protocol::LsaConfig;
//! use lsa_field::{Field, Fp61};
//!
//! let cfg = LsaConfig::new(4, 1, 2, 3).unwrap();
//! let sync = SyncFederation::new(cfg, MemTransport::new(), 7).unwrap();
//! let mut fed = Federation::new(Box::new(sync));
//!
//! let ones = vec![Fp61::ONE; 3];
//! // round 0: everyone participates
//! let r0 = fed
//!     .run_round(&RoundPlan::full(4).with_uniform_updates(ones.clone()))
//!     .unwrap();
//! assert_eq!(r0.contributors.len(), 4);
//! // round 1: client 3 left the cohort
//! let r1 = fed
//!     .run_round(&RoundPlan::new(vec![0, 1, 2]).with_uniform_updates(ones.clone()))
//!     .unwrap();
//! assert_eq!(r1.contributors, vec![0, 1, 2]);
//! // round 2: client 3 rejoined
//! let r2 = fed
//!     .run_round(&RoundPlan::full(4).with_uniform_updates(ones))
//!     .unwrap();
//! assert_eq!(r2.round, 2);
//! assert_eq!(r2.aggregate, vec![Fp61::from_u64(4); 3]);
//! ```

use crate::asynchronous::BufferEntry;
use crate::client::FederationClient;
use crate::config::LsaConfig;
use crate::ratchet::{self, ServerRatchet};
use crate::session::{Outgoing, Recipient, Session};
use crate::telemetry::{RoundReport, TrafficMark};
use crate::transport::Transport;
use crate::wire::{
    AggregatedShare, BufferAnnouncement, Envelope, EnvelopeKind, MaskedModel, SurvivorAnnouncement,
};
use crate::{check_len, DropoutSchedule, ProtocolError};
use lsa_coding::VandermondeCode;
use lsa_field::Field;
use lsa_quantize::{QuantizedStaleness, StalenessFn};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// Outcome of one federated round, uniform across variants.
///
/// The aggregate is `Σ w_i·x_i` over the contributors with
/// `Σ w_i = total_weight`; for the synchronous variant every weight is
/// 1, for the buffered variant weights are the integer staleness weights
/// of Eq. (34). Dequantize an average with
/// `quantizer.dequantize_sum(&outcome.aggregate, outcome.total_weight)`.
#[derive(Debug, Clone)]
pub struct RoundOutcome<F> {
    /// The round that was recovered.
    pub round: u64,
    /// The recovered (weighted) aggregate, length `d`.
    pub aggregate: Vec<F>,
    /// The clients whose updates are included, ascending.
    pub contributors: Vec<usize>,
    /// `Σ w_i` over the contributors (the averaging divisor).
    pub total_weight: u64,
}

/// One round of secure aggregation, variant-agnostic and object-safe.
///
/// The lifecycle per round is
/// `open_round → submit* → [prepare_next] → [mark_dropped*] → finish_round`
/// (or `abort_round`); [`SecureAggregator::reassign`] runs between
/// rounds, and [`SecureAggregator::round_report`] describes the last
/// finished one. Entropy is injected at construction only, so
/// implementations coerce to `Box<dyn SecureAggregator<F>>` and a
/// single [`Federation`] loop drives any variant.
pub trait SecureAggregator<F: Field> {
    /// The protocol configuration.
    fn config(&self) -> LsaConfig;

    /// The round currently open, or the next one to open.
    fn round(&self) -> u64;

    /// Open the next round with the given cohort, running the offline
    /// mask exchange unless [`SecureAggregator::prepare_next`] already
    /// did (the §4.1 overlap).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::WrongPhase`] if a round is already open;
    /// [`ProtocolError::NotEnoughSurvivors`] if the cohort is smaller
    /// than `U`; [`ProtocolError::InvalidConfig`] for out-of-range or
    /// duplicate cohort ids, or a cohort that differs from the one the
    /// round was prepared with.
    fn open_round(&mut self, cohort: &[usize]) -> Result<u64, ProtocolError>;

    /// Run the offline mask exchange for the *next* round while the
    /// current one is still in flight — the paper's offline/online
    /// overlap. The next `open_round` with the same cohort then skips
    /// straight to the online phase.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::InvalidConfig`] if that round is already
    /// prepared or the cohort is malformed.
    fn prepare_next(&mut self, cohort: &[usize]) -> Result<(), ProtocolError>;

    /// Submit client `id`'s quantized update for the open round.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::WrongPhase`] without an open round;
    /// [`ProtocolError::UnknownUser`] if `id` is not in the cohort;
    /// [`ProtocolError::DuplicateMessage`] on a second submission; on
    /// a transport that delivers immediately, also whatever the server
    /// rejects the upload with (otherwise from `finish_round`).
    fn submit(&mut self, id: usize, update: &[F]) -> Result<(), ProtocolError>;

    /// Mark a cohort client as vanished *after* its upload: its update
    /// stays in the aggregate but it serves no recovery traffic (the
    /// §7.1 worst case).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::WrongPhase`] /
    /// [`ProtocolError::UnknownUser`] as for
    /// [`SecureAggregator::submit`].
    fn mark_dropped(&mut self, id: usize) -> Result<(), ProtocolError>;

    /// Close the round: fix the survivors, run the one-shot mask
    /// recovery and return the aggregate.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::WrongPhase`] without an open round;
    /// [`ProtocolError::NotEnoughSurvivors`] if dropouts exceeded the
    /// budget; any protocol error from the sessions.
    fn finish_round(&mut self) -> Result<RoundOutcome<F>, ProtocolError>;

    /// Abandon the open round (if any), discarding its per-round state
    /// so the next round can open. [`Federation`] calls it after a
    /// failed attempt, and the aggregator tree to retire a stalled leaf
    /// after that leaf's `finish_round` failed; a no-op when no round
    /// is open.
    fn abort_round(&mut self);

    /// Re-seat the client-id mapping with a permutation derived from
    /// `seed`, between rounds. An aggregator tree re-assigns clients
    /// across its leaf groups, so slowly-accumulating intra-group
    /// collusion never watches the same peers for long, then passes
    /// `seed` to every leaf. A leaf has a single privacy domain and no
    /// mapping of its own: it carries its ratchet *across* the
    /// permutation, keeping the retained base masks and shares
    /// (recovery is seat-based and untouched by the permute) but
    /// advancing every member's pad-derivation epoch in lockstep
    /// (`ratchet::reseat_epoch`) and dropping any pre-committed nonce
    /// window. The buffered leaf ([`BufferedFederation`]) does not
    /// reseat: it clears its ratchet
    /// ([`SecureAggregator::clear_ratchet`]), correct, just slower (the
    /// next round pays a full exchange).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::WrongPhase`] while a round is open and
    /// [`ProtocolError::InvalidConfig`] while one is prepared: the
    /// mapping is part of a round's identity.
    fn reassign(&mut self, seed: u64) -> Result<(), ProtocolError>;

    /// Discard all stable-cohort ratchet state ([`crate::ratchet`]):
    /// retained base masks, in-flight commits, and any *prepared* round
    /// whose masks were derived by ratcheting (so a retry runs the full
    /// offline exchange). The aggregator tree clears every leaf.
    fn clear_ratchet(&mut self);

    /// Total serialized bytes this aggregator (including every leaf of
    /// a tree) has moved across its transport(s).
    fn bytes_sent(&self) -> usize;

    /// The [`RoundReport`] of the most recent *finished* round —
    /// per-phase timings, traffic and event counters — or `None` before
    /// any round completed. The aggregator tree returns the
    /// `RoundReport::merge` of its leaves' reports: leaves run over
    /// independent links in a real deployment, so the merged view is
    /// the root's critical path. Its [`RoundReport::stalled`] names the
    /// leaves a partial-recovery tree skipped.
    fn round_report(&self) -> Option<RoundReport>;
}

/// A boxed [`SecureAggregator`]: what [`Federation`] drives, and one
/// leaf recovery domain of the aggregator tree ([`crate::topology`]).
pub type BoxedAggregator<F> = Box<dyn SecureAggregator<F>>;

// ---------------------------------------------------------------------
// The persistent server
// ---------------------------------------------------------------------

/// The LightSecAgg server, persistent across rounds, for both
/// protocols: it serves one round at a time, opened by
/// [`Self::open_round`] and ended by [`Self::close_round`] or
/// [`Self::abort_round`].
///
/// The server never learns an individual model: it sees masked models
/// and aggregated coded masks, and reconstructs the *aggregate* mask in
/// one shot (the paper's key idea). Masked models fold into a running
/// sum the moment they arrive, kept unreduced in the field's widened
/// accumulator domain ([`lsa_field::Field::Wide`]) and reduced once at
/// recovery, so memory is `O(d)` however many users upload.
/// Recovery is **deliberately lazy**: the `U`-th aggregated share is
/// only stored; the `O(U²) + O(U·d)` decode runs when the owner calls
/// [`Self::close_round`], not inside the message pump.
///
/// [`Self::new`] builds the §4.1 server (Algorithm 1): each survivor's
/// upload counts once. [`Self::timestamped`] builds the §4.2 one
/// (Appendix F): it buffers up to `K` uploads masked in any round up to
/// the open one, each scaled on receipt by its staleness weight, and
/// the same one-shot decode recovers their weighted sum.
#[derive(Debug, Clone)]
pub struct FederationServer<F: Field> {
    cfg: LsaConfig,
    group: usize,
    round: u64,
    code: VandermondeCode<F>,
    /// The open round's state; `None` between rounds.
    open: Option<RoundState<F>>,
    /// The §4.2 buffer's rules; `None` for the §4.1 server.
    buffer: Option<Buffer>,
    /// The server half of the stable-cohort handshake
    /// ([`crate::ratchet`]): the commit in flight and its queued
    /// announcements.
    ratchet: ServerRatchet<F>,
    /// Rejected-envelope strikes per claimed sender, reset at each
    /// `open_round` — the per-round ingress quota state.
    strikes: BTreeMap<usize, usize>,
    /// Envelopes rejected with a typed error, cumulatively.
    rejections: usize,
    /// Envelopes silently discarded from over-quota senders,
    /// cumulatively.
    quarantined: usize,
}

/// What makes a server the §4.2 one: its buffer size and how it weighs
/// a stale upload.
#[derive(Debug, Clone)]
struct Buffer {
    /// `K`: uploads one round accepts.
    capacity: usize,
    staleness: QuantizedStaleness,
    /// The randomness of the staleness weights' rounding.
    entropy: StdRng,
}

/// What the server holds for the round it is serving.
#[derive(Debug, Clone)]
struct RoundState<F: Field> {
    /// Running `Σ w_i·~x_i` over every upload (padded length),
    /// unreduced in the widened domain.
    sum_masked: Vec<F::Wide>,
    /// Terms absorbed per `sum_masked` accumulator since the last
    /// normalisation, checked against [`Field::WIDE_CAPACITY`].
    sum_terms: u64,
    /// One `(who, round, weight)` per upload, in arrival order; a §4.1
    /// upload is `(from, the open round, 1)`.
    entries: Vec<BufferEntry>,
    /// The contributors, ascending: empty while uploads are collected,
    /// fixed by [`FederationServer::close_upload`] (never empty after).
    /// §4.1's survivor set `U₁`.
    survivors: Vec<usize>,
    shares: Vec<(usize, Vec<F>)>,
    /// How many announcements [`Session::poll_output`] has sent.
    announced: usize,
}

/// The per-client ingress quota: rejected envelopes a client may
/// accumulate in one round before the server raises
/// [`ProtocolError::QuotaExceeded`] and quarantines its further
/// traffic. A well-behaved client triggers at most a handful of typed
/// rejections per round (races around phase boundaries), so eight
/// strikes separates glitches from floods.
pub const DEFAULT_INGRESS_QUOTA: usize = 8;

impl<F: Field> FederationServer<F> {
    /// Create the §4.1 server; no round is open yet.
    ///
    /// # Errors
    ///
    /// Propagates invalid configuration as [`ProtocolError::Coding`].
    pub fn new(cfg: LsaConfig) -> Result<Self, ProtocolError> {
        Self::in_group(0, cfg)
    }

    /// Create the §4.1 server for aggregation group `group` of a grouped
    /// topology ([`crate::topology`]); envelopes from any other group
    /// are rejected with [`ProtocolError::WrongGroup`].
    ///
    /// # Errors
    ///
    /// Propagates invalid configuration as [`ProtocolError::Coding`].
    pub(crate) fn in_group(group: usize, cfg: LsaConfig) -> Result<Self, ProtocolError> {
        Ok(Self {
            cfg,
            group,
            round: 0,
            code: VandermondeCode::new(cfg.n(), cfg.u())?,
            open: None,
            buffer: None,
            ratchet: ServerRatchet::new(group),
            strikes: BTreeMap::new(),
            rejections: 0,
            quarantined: 0,
        })
    }

    /// Create the §4.2 (buffered-asynchronous) server, flat (group 0):
    /// a round accepts up to `buffer_size`
    /// [`EnvelopeKind::TimestampedUpdate`]s masked in any round up to
    /// the open one, and weighs each by `staleness` when it arrives,
    /// drawing from `entropy`. Closing the upload phase announces the
    /// buffer to every user.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::InvalidConfig`] if `buffer_size == 0`;
    /// invalid configuration as [`ProtocolError::Coding`].
    pub fn timestamped(
        cfg: LsaConfig,
        buffer_size: usize,
        staleness: QuantizedStaleness,
        entropy: StdRng,
    ) -> Result<Self, ProtocolError> {
        if buffer_size == 0 {
            return Err(ProtocolError::InvalidConfig(
                "buffer size must be positive".into(),
            ));
        }
        let buffer = Buffer {
            capacity: buffer_size,
            staleness,
            entropy,
        };
        Ok(Self {
            buffer: Some(buffer),
            ..Self::new(cfg)?
        })
    }

    /// Open `round`: accept uploads stamped with it (§4.2: with it or
    /// any earlier round), reject everything else.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::WrongPhase`] if a round is already open;
    /// [`ProtocolError::StaleRound`] when reopening a past round.
    pub fn open_round(&mut self, round: u64) -> Result<(), ProtocolError> {
        if self.open.is_some() {
            return Err(ProtocolError::WrongPhase);
        }
        if round < self.round {
            return Err(ProtocolError::StaleRound {
                got: round,
                current: self.round,
            });
        }
        self.open = Some(RoundState {
            sum_masked: lsa_field::ops::wide_zeros::<F>(self.cfg.padded_len()),
            sum_terms: 0,
            entries: Vec::new(),
            survivors: Vec::new(),
            shares: Vec::new(),
            announced: 0,
        });
        self.round = round;
        // the ingress quota is per round: a client that misbehaved last
        // round starts the new one with a clean slate
        self.strikes.clear();
        Ok(())
    }

    /// Envelopes rejected with a typed error so far, cumulatively
    /// across rounds (a round's delta lands in
    /// [`crate::telemetry::EventCounters::rejections`]).
    pub fn rejections(&self) -> usize {
        self.rejections
    }

    /// Envelopes silently discarded from over-quota senders so far,
    /// cumulatively across rounds.
    pub fn quarantined(&self) -> usize {
        self.quarantined
    }

    /// Close the upload phase of the open round, fixing and returning
    /// its contributors (§4.1: the survivor set `U₁`, Algorithm 1 line
    /// 17). [`Session::poll_output`] then announces them — §4.1: the
    /// survivors to each survivor; §4.2: the buffer's entries, in
    /// arrival order, to every user — so each can compute its
    /// aggregated coded mask.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::WrongPhase`] without an open round, on a second
    /// close, or on an empty §4.2 buffer;
    /// [`ProtocolError::NotEnoughSurvivors`] if fewer than `U` users
    /// uploaded to the §4.1 server — recovery would be impossible.
    pub fn close_upload(&mut self) -> Result<Vec<usize>, ProtocolError> {
        let state = self
            .open
            .as_mut()
            .filter(|state| state.survivors.is_empty())
            .ok_or(ProtocolError::WrongPhase)?;
        let uploads = state.entries.len();
        if self.buffer.is_some() && uploads == 0 {
            return Err(ProtocolError::WrongPhase);
        }
        if self.buffer.is_none() && uploads < self.cfg.u() {
            return Err(ProtocolError::NotEnoughSurvivors {
                got: uploads,
                need: self.cfg.u(),
            });
        }
        state.survivors = state.entries.iter().map(|e| e.who).collect();
        state.survivors.sort_unstable();
        state.survivors.dedup();
        Ok(state.survivors.clone())
    }

    /// How many aggregated shares the open round has received.
    pub fn shares_received(&self) -> usize {
        self.open.as_ref().map_or(0, |state| state.shares.len())
    }

    /// Abandon the open round, discarding its state (used by the
    /// grouped topology's partial-recovery mode to retire a stalled
    /// group without blocking the next round). A no-op when no round is
    /// open.
    pub fn abort_round(&mut self) {
        self.open = None;
    }

    /// Close the open round with the one-shot recovery of Algorithm 1
    /// lines 24–28 (Appendix F.3.3 for §4.2), returning the
    /// contributors and the aggregate `Σ w_i·x_i` (every `w_i = 1` in
    /// §4.1). The server holds **no per-round state** afterwards — its
    /// memory across the run is `O(d)`, not `O(rounds · N · d)`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::WrongPhase`] without an open round;
    /// [`ProtocolError::NotEnoughSurvivors`] below `U` aggregated shares
    /// and [`ProtocolError::Coding`] on a decode failure, both of which
    /// leave the round open so the caller can pump more shares.
    pub fn close_round(&mut self) -> Result<RoundOutcome<F>, ProtocolError> {
        let state = self.open.as_ref().ok_or(ProtocolError::WrongPhase)?;
        if state.shares.len() < self.cfg.u() {
            return Err(ProtocolError::NotEnoughSurvivors {
                got: state.shares.len(),
                need: self.cfg.u(),
            });
        }
        // every upload is a contributor once the phase closes, so
        // Σ w_i·~x_i is the running sum, collapsed in one reduction pass
        let masked_sum = lsa_field::ops::wide_collapse::<F>(&state.sum_masked);
        let aggregate = unmask(&self.code, &self.cfg, &state.shares, masked_sum)?;
        let state = self.open.take().expect("the round is open");
        Ok(RoundOutcome {
            round: self.round,
            aggregate,
            total_weight: state.entries.iter().map(|e| e.weight).sum(),
            contributors: state.survivors,
        })
    }

    /// Group check → ratchet-ack routing → round check → the open
    /// round, without the ingress-quota accounting that
    /// [`Session::handle`] wraps around it.
    fn handle_inner(&mut self, envelope: Envelope<F>) -> Result<(), ProtocolError> {
        if envelope.group() != self.group {
            return Err(ProtocolError::WrongGroup {
                got: envelope.group(),
                expected: self.group,
            });
        }
        if ratchet::is_handshake(&envelope) {
            return self.ratchet.handle(&envelope);
        }
        let Some(state) = self.open.as_mut() else {
            return Err(ProtocolError::StaleRound {
                got: envelope.round(),
                current: self.round,
            });
        };
        // the wire tag is the protocol: each server takes its own upload
        let kind = envelope.kind();
        let upload = if self.buffer.is_some() {
            EnvelopeKind::TimestampedUpdate
        } else {
            EnvelopeKind::MaskedModel
        };
        match envelope {
            Envelope::MaskedModel(m) | Envelope::TimestampedUpdate(m) if kind == upload => {
                state.fold_upload(&self.cfg, self.round, m, self.buffer.as_mut())
            }
            Envelope::AggregatedShare(s) => {
                state.file_share(&self.cfg, self.round, s, self.buffer.is_some())
            }
            other => Err(ProtocolError::UnexpectedEnvelope { kind: other.kind() }),
        }
    }
}

impl<F: Field> RoundState<F> {
    /// Fold a masked upload into the running sum, scaled by its weight
    /// (§4.2: drawn here, on receipt). Checked after its group: phase
    /// (§4.2: also a full buffer), then round (§4.1: a replay from
    /// round `t−1` is *stale*, not a duplicate; §4.2: only a round
    /// later than the open one is), then sender, length and duplicate
    /// `(sender, round)`.
    fn fold_upload(
        &mut self,
        cfg: &LsaConfig,
        now: u64,
        msg: MaskedModel<F>,
        buffer: Option<&mut Buffer>,
    ) -> Result<(), ProtocolError> {
        let full = buffer
            .as_ref()
            .is_some_and(|b| self.entries.len() >= b.capacity);
        if !self.survivors.is_empty() || full {
            return Err(ProtocolError::WrongPhase);
        }
        match buffer {
            Some(_) if msg.round > now => {
                return Err(ProtocolError::StaleUpdate {
                    round: msg.round,
                    now,
                })
            }
            None if msg.round != now => {
                return Err(ProtocolError::StaleRound {
                    got: msg.round,
                    current: now,
                })
            }
            _ => {}
        }
        if msg.from >= cfg.n() {
            return Err(ProtocolError::UnknownUser(msg.from));
        }
        check_len(cfg.padded_len(), msg.payload.len())?;
        // one contribution per client and mask round: a redelivered
        // upload would otherwise be summed (and weighted) twice
        if self
            .entries
            .iter()
            .any(|e| (e.who, e.round) == (msg.from, msg.round))
        {
            return Err(ProtocolError::DuplicateMessage(msg.from));
        }
        let weight = buffer.map_or(1, |b| {
            b.staleness.integer_weight(now - msg.round, &mut b.entropy)
        });
        let mut payload = msg.payload;
        if weight != 1 {
            lsa_field::ops::scale_assign(&mut payload, F::from_u64(weight));
        }
        // plain integer adds, no per-element reduction; normalise if a
        // (pathologically long) run of uploads approaches the
        // accumulator capacity
        if self.sum_terms >= F::WIDE_CAPACITY {
            lsa_field::ops::wide_normalize::<F>(&mut self.sum_masked);
            self.sum_terms = 1;
        }
        lsa_field::ops::wide_accumulate::<F>(&mut self.sum_masked, &payload);
        self.sum_terms += 1;
        self.entries.push(BufferEntry {
            who: msg.from,
            round: msg.round,
            weight,
        });
        Ok(())
    }

    /// Store an aggregated coded mask from a survivor (§4.2: from any
    /// user). Shares beyond `U` are accepted and ignored by the decoder
    /// (it uses the first `U`). Checked after its group: phase, round,
    /// sender, length, duplicate.
    fn file_share(
        &mut self,
        cfg: &LsaConfig,
        round: u64,
        msg: AggregatedShare<F>,
        any_user: bool,
    ) -> Result<(), ProtocolError> {
        if self.survivors.is_empty() {
            return Err(ProtocolError::WrongPhase);
        }
        if msg.round != round {
            return Err(ProtocolError::StaleRound {
                got: msg.round,
                current: round,
            });
        }
        let known = if any_user {
            msg.from < cfg.n()
        } else {
            self.survivors.contains(&msg.from)
        };
        if !known {
            return Err(ProtocolError::UnknownUser(msg.from));
        }
        check_len(cfg.segment_len(), msg.payload.len())?;
        if self.shares.iter().any(|(from, _)| *from == msg.from) {
            return Err(ProtocolError::DuplicateMessage(msg.from));
        }
        self.shares.push((msg.from, msg.payload));
        Ok(())
    }
}

/// The one-shot recovery (Algorithm 1 lines 24–28, Appendix F.3.3):
/// MDS-decode the aggregate mask from the first `U` aggregated shares —
/// evaluations of the aggregated mask polynomial at the senders' points
/// (Eq. 6) — and subtract each decoded segment from its chunk of the
/// (weighted) sum of masked uploads, truncated to `d`.
fn unmask<F: Field>(
    code: &VandermondeCode<F>,
    cfg: &LsaConfig,
    shares: &[(usize, Vec<F>)],
    mut masked_sum: Vec<F>,
) -> Result<Vec<F>, ProtocolError> {
    let segments = code.decode_prefix(shares, cfg.data_segments())?;
    for (chunk, segment) in masked_sum.chunks_mut(cfg.segment_len()).zip(&segments) {
        lsa_field::ops::sub_assign(chunk, segment);
    }
    masked_sum.truncate(cfg.d());
    Ok(masked_sum)
}

impl<F: Field> Session<F> for FederationServer<F> {
    fn local_addr(&self) -> Recipient {
        Recipient::Server
    }

    fn handle(&mut self, envelope: Envelope<F>) -> Result<Vec<Outgoing<F>>, ProtocolError> {
        // Ingress quota: key on the claimed sender when it is at least
        // a plausible client id. An over-quota sender's traffic is
        // dropped *silently* — erroring on every flooded envelope
        // would let the flood wedge the round it failed to corrupt.
        let sender = envelope.sender().filter(|&id| id < self.cfg.n());
        if let Some(id) = sender {
            if self.strikes.get(&id).copied().unwrap_or(0) >= DEFAULT_INGRESS_QUOTA {
                self.quarantined += 1;
                return Ok(Vec::new());
            }
        }
        let result = self.handle_inner(envelope);
        if result.is_err() {
            self.rejections += 1;
            if let Some(id) = sender {
                let strikes = self.strikes.entry(id).or_insert(0);
                *strikes += 1;
                if *strikes >= DEFAULT_INGRESS_QUOTA {
                    // the crossing envelope surfaces typed, once
                    return Err(ProtocolError::QuotaExceeded {
                        client: id,
                        strikes: *strikes,
                        cap: DEFAULT_INGRESS_QUOTA,
                    });
                }
            }
        }
        result.map(|()| Vec::new())
    }

    fn poll_output(&mut self) -> Option<Outgoing<F>> {
        if let Some(out) = self.ratchet.poll_output() {
            return Some(out);
        }
        // `survivors` is empty until the upload phase closes
        let state = self.open.as_mut().filter(|s| !s.survivors.is_empty())?;
        let (to, announcement) = if self.buffer.is_some() {
            let to = (state.announced < self.cfg.n()).then_some(state.announced)?;
            let announcement = BufferAnnouncement {
                group: self.group,
                round: self.round,
                entries: state.entries.clone(),
            };
            (to, Envelope::BufferAnnouncement(announcement))
        } else {
            let to = *state.survivors.get(state.announced)?;
            let announcement = SurvivorAnnouncement {
                group: self.group,
                round: self.round,
                survivors: state.survivors.clone(),
            };
            (to, Envelope::SurvivorAnnouncement(announcement))
        };
        state.announced += 1;
        Some((Recipient::Client(to), announcement))
    }
}

// ---------------------------------------------------------------------
// Shared round bookkeeping
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
pub(crate) struct OpenRound {
    pub(crate) round: u64,
    pub(crate) cohort: BTreeSet<usize>,
    pub(crate) submitted: BTreeSet<usize>,
    /// Cohort members not marked dropped: every delivery of the round
    /// is filtered by it, so it is kept as members drop instead of
    /// rebuilt per upload.
    online: BTreeSet<usize>,
    /// `Some` when this round's masks were derived by the stable-cohort
    /// ratchet ([`crate::ratchet`]) instead of a full exchange: a
    /// ratcheted round's pairwise pads cancel only over the *full*
    /// cohort, so `finish_round` requires every member to have
    /// submitted. `Some(true)` when the round was *joined* from a
    /// pre-committed nonce window with zero wire traffic, rather than
    /// paying a commit/ack handshake.
    pub(crate) ratcheted: Option<bool>,
}

impl OpenRound {
    pub(crate) fn new(round: u64, cohort: BTreeSet<usize>) -> Self {
        Self {
            round,
            online: cohort.clone(),
            cohort,
            submitted: BTreeSet::new(),
            ratcheted: None,
        }
    }

    pub(crate) fn require_member(&self, id: usize) -> Result<(), ProtocolError> {
        if self.cohort.contains(&id) {
            Ok(())
        } else {
            Err(ProtocolError::UnknownUser(id))
        }
    }

    /// Clients still online: cohort members that have not vanished.
    pub(crate) fn online(&self) -> &BTreeSet<usize> {
        &self.online
    }

    /// Record that cohort member `id` vanished.
    pub(crate) fn mark_dropped(&mut self, id: usize) -> Result<(), ProtocolError> {
        self.require_member(id)?;
        self.online.remove(&id);
        Ok(())
    }

    /// How many cohort members vanished.
    pub(crate) fn dropouts(&self) -> usize {
        self.cohort.len() - self.online.len()
    }
}

/// Consume the preparation for `round` if its cohort matches.
///
/// `Ok(true)` — prepared with this cohort, entry consumed (the overlap
/// paid off). `Ok(false)` — never prepared; the caller must run the
/// offline exchange now. `Err` — prepared with a *different* cohort; the
/// entry is left intact so a corrected retry can still use it. Shared by
/// every `SecureAggregator` impl (including the grouped topology) so
/// the retry semantics cannot drift.
pub(crate) fn claim_prepared(
    prepared: &mut BTreeMap<u64, BTreeSet<usize>>,
    round: u64,
    cohort: &BTreeSet<usize>,
) -> Result<bool, ProtocolError> {
    match prepared.get(&round) {
        Some(p) if p == cohort => {
            prepared.remove(&round);
            Ok(true)
        }
        Some(_) => Err(ProtocolError::InvalidConfig(format!(
            "round {round} was prepared with a different cohort"
        ))),
        None => Ok(false),
    }
}

/// Reject a second preparation of the same round (shared by every
/// `SecureAggregator` impl).
pub(crate) fn ensure_unprepared(
    prepared: &BTreeMap<u64, BTreeSet<usize>>,
    round: u64,
) -> Result<(), ProtocolError> {
    if prepared.contains_key(&round) {
        return Err(ProtocolError::InvalidConfig(format!(
            "round {round} is already prepared"
        )));
    }
    Ok(())
}

/// Reject a reassignment unless the aggregator is between rounds:
/// nothing open, nothing prepared (shared by every `SecureAggregator`
/// impl).
pub(crate) fn ensure_between_rounds(
    open: bool,
    prepared: &BTreeMap<u64, BTreeSet<usize>>,
) -> Result<(), ProtocolError> {
    if open {
        return Err(ProtocolError::WrongPhase);
    }
    if !prepared.is_empty() {
        return Err(ProtocolError::InvalidConfig(
            "cannot reassign while a prepared round is pending".into(),
        ));
    }
    Ok(())
}

fn validate_cohort(cfg: &LsaConfig, cohort: &[usize]) -> Result<BTreeSet<usize>, ProtocolError> {
    let set: BTreeSet<usize> = cohort.iter().copied().collect();
    if set.len() != cohort.len() {
        return Err(ProtocolError::InvalidConfig(
            "cohort contains duplicate ids".into(),
        ));
    }
    if let Some(&bad) = set.iter().find(|&&id| id >= cfg.n()) {
        return Err(ProtocolError::UnknownUser(bad));
    }
    if set.len() < cfg.u() {
        return Err(ProtocolError::NotEnoughSurvivors {
            got: set.len(),
            need: cfg.u(),
        });
    }
    Ok(set)
}

/// Deliver every receivable envelope: the server always accepts;
/// clients only while listed in `online` (everyone else has left or
/// vanished — their envelopes are discarded undelivered). Responses are
/// forwarded back into the transport. Shared by the leaf driver and
/// the buffered one-shot driver
/// ([`crate::asynchronous::run_buffered_flush`]).
pub(crate) fn pump<F: Field, T: Transport<F>>(
    transport: &mut T,
    server: &mut FederationServer<F>,
    clients: &mut [FederationClient<F>],
    online: &BTreeSet<usize>,
) -> Result<(), ProtocolError> {
    while let Some(delivery) = transport.recv()? {
        let responses = match delivery.to {
            Recipient::Client(i) => {
                if !online.contains(&i) {
                    continue;
                }
                clients[i].handle(delivery.envelope)?
            }
            Recipient::Server => server.handle(delivery.envelope)?,
        };
        let from = delivery.to;
        for (to, envelope) in responses {
            transport.send(from, to, &envelope)?;
        }
    }
    Ok(())
}

/// Drain a session's queued envelopes into the transport, discarding
/// those addressed to clients outside `online`.
pub(crate) fn drain_to<F, T, S>(
    session: &mut S,
    transport: &mut T,
    online: &BTreeSet<usize>,
) -> Result<(), ProtocolError>
where
    F: Field,
    T: Transport<F>,
    S: Session<F>,
{
    let from = session.local_addr();
    while let Some((to, envelope)) = session.poll_output() {
        if let Recipient::Client(i) = to {
            if !online.contains(&i) {
                continue;
            }
        }
        transport.send(from, to, &envelope)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The leaf round driver
// ---------------------------------------------------------------------

/// One leaf aggregation domain behind the [`SecureAggregator`] trait:
/// `cfg.n()` persistent [`FederationClient`]s and one
/// [`FederationServer`] of either protocol over one transport, with
/// per-round cohorts, overlapped next-round mask sharing, the
/// stable-cohort ratchet ([`crate::ratchet`]) and one [`RoundReport`]
/// per round. The constructors pick the protocol:
/// [`SyncFederation::new`] (§4.1) and [`BufferedFederation::unit_weight`]
/// (§4.2).
#[derive(Debug, Clone)]
pub struct LeafFederation<F: Field, T> {
    cfg: LsaConfig,
    /// The namespaced leaf-group id every envelope is stamped with
    /// (0 for a standalone flat federation).
    group: usize,
    transport: T,
    clients: Vec<FederationClient<F>>,
    server: FederationServer<F>,
    next_round: u64,
    open: Option<OpenRound>,
    /// Rounds whose offline exchange already ran, with their cohorts.
    prepared: BTreeMap<u64, BTreeSet<usize>>,
    /// Prepared rounds whose masks came from the ratchet, not a full
    /// exchange (dropped wholesale by [`SecureAggregator::clear_ratchet`]);
    /// the value records whether the round was joined from a window
    /// with zero handshake traffic.
    prepared_ratcheted: BTreeMap<u64, bool>,
    /// Driver-side nonce entropy for ratchet commits.
    entropy: StdRng,
    /// Fingerprint of the cohort whose base masks the clients retain,
    /// set after each successful round ([`crate::ratchet`]).
    ratchet_fp: Option<u64>,
    /// Every seat's fingerprint digest (`ratchet::member_digest`),
    /// hashed once: a leaf's group and config never change, so a
    /// cohort's fingerprint is a sum of these.
    seat_digests: Vec<u64>,
    /// Driver-side mirror of the pre-committed window, `round → nonce`
    /// — membership decides whether the next round joins with zero
    /// traffic or opens a fresh window.
    window: BTreeMap<u64, u64>,
    /// Transport counters snapshotted when the open round started (its
    /// traffic delta becomes the round's [`RoundReport`]). Traffic from
    /// an overlapped `prepare_next` is billed to the round it ran
    /// *during* — the paper's point is exactly that this cost hides
    /// inside the current round.
    mark: TrafficMark,
    /// Server rejection/quarantine totals at the same snapshot.
    mark_rejections: (usize, usize),
    /// Telemetry of the most recent finished round.
    last_report: Option<RoundReport>,
}

impl<F: Field, T: Transport<F>> LeafFederation<F, T> {
    /// Assemble the driver around endpoints built from the same `cfg`
    /// (whose [`LsaConfig::ratchet`] policy the driver follows).
    /// `entropy` seeds the driver's nonce stream: the master RNG's next
    /// draw *after* every endpoint seed, so those streams do not depend
    /// on it.
    fn assemble(
        group: usize,
        cfg: LsaConfig,
        transport: T,
        clients: Vec<FederationClient<F>>,
        server: FederationServer<F>,
        entropy: u64,
    ) -> Self {
        Self {
            cfg,
            group,
            transport,
            clients,
            server,
            next_round: 0,
            open: None,
            prepared: BTreeMap::new(),
            prepared_ratcheted: BTreeMap::new(),
            entropy: StdRng::seed_from_u64(entropy),
            ratchet_fp: None,
            seat_digests: (0..cfg.n())
                .map(|id| ratchet::member_digest(group, cfg, id))
                .collect(),
            window: BTreeMap::new(),
            mark: TrafficMark::default(),
            mark_rejections: (0, 0),
            last_report: None,
        }
    }

    /// The underlying transport (for byte/timing statistics).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Mutable access to the transport (e.g. to inject a fault, start a
    /// transcript or send a forged envelope between rounds).
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Deliver everything in flight to the server and the `online`
    /// clients.
    fn pump(&mut self, online: &BTreeSet<usize>) -> Result<(), ProtocolError> {
        pump(
            &mut self.transport,
            &mut self.server,
            &mut self.clients,
            online,
        )
    }

    /// Throw away whatever a dead round or handshake left in flight. The
    /// `recv` that reports an undecodable frame has consumed it, so the
    /// drain goes on; any other error (`Io`) may persist and ends it.
    fn discard_in_flight(&mut self, label: &'static str) {
        self.transport.flush(label);
        while matches!(
            self.transport.recv(),
            Ok(Some(_)) | Err(ProtocolError::Wire(_))
        ) {}
    }

    /// The seat fingerprint of `cohort` in this leaf: the wrapping sum
    /// of its members' `ratchet::member_digest`s. An id past the last
    /// seat is hashed on the spot.
    fn fingerprint<'a>(&self, cohort: impl IntoIterator<Item = &'a usize>) -> u64 {
        cohort.into_iter().fold(0, |acc, &id| {
            let seat = self.seat_digests.get(id).copied();
            acc.wrapping_add(
                seat.unwrap_or_else(|| ratchet::member_digest(self.group, self.cfg, id)),
            )
        })
    }

    /// Cut the finished round's [`RoundReport`] from the baseline taken
    /// at `open_round`.
    fn cut_report(&self, open: &OpenRound) -> RoundReport {
        let mut report = self.mark.cut::<F, T>(&self.transport, open.round);
        report.ratchet = self.cfg.ratchet();
        let (rejections, quarantined) = self.rejections();
        report.events.dropouts = open.dropouts();
        // a windowed join is counted apart from handshake-bearing
        // ratchets so bench JSON can tell amortized rounds from
        // commit/ack ones
        report.events.ratchets = usize::from(open.ratcheted == Some(false));
        report.events.windowed_ratchets = usize::from(open.ratcheted == Some(true));
        report.events.rejections = rejections - self.mark_rejections.0;
        report.events.quarantined = quarantined - self.mark_rejections.1;
        report
    }

    /// Give `round` its masks: by the ratchet when the cohort is the
    /// one the retained bases belong to (`Some(windowed)`), by the full
    /// offline exchange otherwise (`None`).
    ///
    /// The exchange is streamed: each member's shares are delivered
    /// before the next member serialises its own, so an immediate
    /// transport holds one sender's `N − 1` envelopes, not the cohort's
    /// `N(N − 1)`, and the order of sends and of deliveries is what it
    /// was. A phase-buffered transport has nothing receivable before
    /// the `flush`: there the exchange is still one phase.
    fn share_masks(
        &mut self,
        round: u64,
        cohort: &BTreeSet<usize>,
        label: &'static str,
    ) -> Result<Option<bool>, ProtocolError> {
        if let Some(windowed) = self.try_ratchet(round, cohort, label) {
            return Ok(Some(windowed));
        }
        self.exchange_shares(round, cohort, label)
            .inspect_err(|_| self.rollback(round, cohort))?;
        Ok(None)
    }

    /// The full offline exchange of [`Self::share_masks`].
    fn exchange_shares(
        &mut self,
        round: u64,
        cohort: &BTreeSet<usize>,
        label: &'static str,
    ) -> Result<(), ProtocolError> {
        // everyone joins before anyone sends: a share must find its
        // recipient's round open
        for &id in cohort {
            self.clients[id].prepare(round)?;
        }
        for &id in cohort {
            drain_to(&mut self.clients[id], &mut self.transport, cohort)?;
            self.pump(cohort)?;
        }
        self.transport.flush(label);
        self.pump(cohort)
    }

    /// Attempt the stable-cohort fast path for `round`:
    /// `Some(windowed)` iff the cohort's fingerprint matches the
    /// retained bases and either the round joined a pre-committed nonce
    /// window with zero traffic (`Some(true)`) or the commit → derive →
    /// ack handshake succeeded (`Some(false)`; one commit covers the
    /// next `W` rounds when the window is wider than 1). On
    /// ineligibility *or any failure* the half-built state is rolled
    /// back and `None` is returned — the caller runs the full offline
    /// exchange.
    fn try_ratchet(
        &mut self,
        round: u64,
        cohort: &BTreeSet<usize>,
        label: &'static str,
    ) -> Option<bool> {
        if !self.cfg.ratchet().enabled() {
            return None;
        }
        let fp = self.fingerprint(cohort);
        if self.ratchet_fp != Some(fp) {
            // churn: the retained bases, and any window nonces, belong
            // to a cohort that no longer exists. Nothing can use them
            // again (this round's harvest would overwrite them), so
            // release them now instead of carrying them through the
            // full exchange, and purge the nonces everywhere so the
            // re-key starts clean
            if self.ratchet_fp.take().is_some() {
                self.window.clear();
                for client in &mut self.clients {
                    client.ratchet().clear();
                }
            }
            return None;
        }
        let windowed = self.window.remove(&round).is_some();
        let derived = if windowed {
            // zero wire traffic: the whole window was committed and
            // acked up front, every member derives driver-locally
            cohort
                .iter()
                .try_for_each(|&id| self.clients[id].ratchet_join(round))
        } else {
            self.exchange_ratchet(round, cohort, fp, label)
        };
        if derived.is_err() {
            self.rollback(round, cohort);
            return None;
        }
        Some(windowed)
    }

    /// The ratchet handshake: the server commits `W` fresh nonces — one
    /// [`crate::ratchet::RatchetAnnouncement`] for `round` alone at
    /// `W = 1`, or one window covering `round..round + W` — and every
    /// cohort member derives the first round's mask from its retained
    /// base and acks fingerprint agreement.
    fn exchange_ratchet(
        &mut self,
        round: u64,
        cohort: &BTreeSet<usize>,
        fingerprint: u64,
        label: &'static str,
    ) -> Result<(), ProtocolError> {
        let policy = self.cfg.ratchet();
        let nonces: Vec<u64> = (0..policy.window()).map(|_| self.entropy.gen()).collect();
        let server = &mut self.server.ratchet;
        server.commit(round, cohort, fingerprint, policy.topology(), &nonces);
        self.window = ratchet::banked_nonces(round, &nonces);
        drain_to(&mut self.server, &mut self.transport, cohort)?;
        self.transport.flush(label);
        self.pump(cohort)?;
        // acks produced during the first pump may still be pending on a
        // phase-buffered transport
        self.transport.flush(label);
        self.pump(cohort)?;
        self.server.ratchet.ready(round)
    }

    /// Forget the retained bases, the server commit and every
    /// pre-committed window nonce, on every client.
    fn forget_ratchet(&mut self) {
        self.ratchet_fp = None;
        self.window.clear();
        self.server.ratchet.clear();
        for client in &mut self.clients {
            client.ratchet().clear();
        }
    }

    /// The server's cumulative `(rejected, quarantined)` envelope counts.
    fn rejections(&self) -> (usize, usize) {
        (self.server.rejections(), self.server.quarantined())
    }

    /// Discard everything a failed ratchet handshake or full exchange
    /// may have built: the ratchet state, `cohort`'s half-joined round
    /// and the envelopes still in flight.
    fn rollback(&mut self, round: u64, cohort: &BTreeSet<usize>) {
        self.forget_ratchet();
        for &id in cohort {
            self.clients[id].discard(round);
        }
        self.discard_in_flight("offline-abort");
    }
}

impl<F: Field, T: Transport<F>> SecureAggregator<F> for LeafFederation<F, T> {
    fn config(&self) -> LsaConfig {
        self.cfg
    }

    fn round(&self) -> u64 {
        self.open.as_ref().map_or(self.next_round, |o| o.round)
    }

    fn open_round(&mut self, cohort: &[usize]) -> Result<u64, ProtocolError> {
        if self.open.is_some() {
            return Err(ProtocolError::WrongPhase);
        }
        let cohort = validate_cohort(&self.cfg, cohort)?;
        let round = self.next_round;
        // telemetry baseline: everything from here to `finish_round`
        // (including an overlapped `prepare_next`) bills to this round
        self.mark = TrafficMark::of::<F, T>(&self.transport);
        self.mark_rejections = self.rejections();
        let ratcheted = if claim_prepared(&mut self.prepared, round, &cohort)? {
            self.prepared_ratcheted.remove(&round)
        } else {
            self.share_masks(round, &cohort, "offline")?
        };
        self.server.open_round(round)?;
        self.next_round = round + 1;
        self.open = Some(OpenRound {
            ratcheted,
            ..OpenRound::new(round, cohort)
        });
        Ok(round)
    }

    fn prepare_next(&mut self, cohort: &[usize]) -> Result<(), ProtocolError> {
        let round = self.next_round;
        ensure_unprepared(&self.prepared, round)?;
        let cohort = validate_cohort(&self.cfg, cohort)?;
        if let Some(windowed) = self.share_masks(round, &cohort, "offline-overlap")? {
            self.prepared_ratcheted.insert(round, windowed);
        }
        self.prepared.insert(round, cohort);
        Ok(())
    }

    fn submit(&mut self, id: usize, update: &[F]) -> Result<(), ProtocolError> {
        let open = self.open.as_mut().ok_or(ProtocolError::WrongPhase)?;
        open.require_member(id)?;
        if open.submitted.contains(&id) {
            return Err(ProtocolError::DuplicateMessage(id));
        }
        self.clients[id].upload(open.round, update)?;
        open.submitted.insert(id);
        let online = open.online();
        drain_to(&mut self.clients[id], &mut self.transport, online)?;
        // an immediate transport hands the upload to the server now,
        // which folds it into the running sum while it is hot — and a
        // server-side rejection surfaces here; a phase-buffered one
        // delivers after `finish_round`'s "upload" flush
        pump(
            &mut self.transport,
            &mut self.server,
            &mut self.clients,
            online,
        )
    }

    fn mark_dropped(&mut self, id: usize) -> Result<(), ProtocolError> {
        let open = self.open.as_mut().ok_or(ProtocolError::WrongPhase)?;
        open.mark_dropped(id)
    }

    fn finish_round(&mut self) -> Result<RoundOutcome<F>, ProtocolError> {
        let open = self.open.clone().ok_or(ProtocolError::WrongPhase)?;
        // A ratcheted round's pairwise pads cancel only when *every*
        // cohort member's masked upload is in the sum: a before-upload
        // dropout invalidates the round, typed so the driver can abort
        // and replay the plan with a full exchange. The round stays open
        // for `abort_round`.
        if open.ratcheted.is_some() && open.submitted.len() != open.cohort.len() {
            return Err(ProtocolError::RatchetMismatch);
        }
        let online = open.online();

        // Deliver the masked uploads a phase-buffered transport still
        // holds (an immediate one delivered each at `submit`).
        self.transport.flush("upload");
        self.pump(online)?;

        // Fix the contributors, announce, collect aggregated shares.
        self.server.close_upload()?;
        drain_to(&mut self.server, &mut self.transport, online)?;
        self.transport.flush("announce");
        self.pump(online)?;
        self.transport.flush("recovery");
        self.pump(online)?;

        let outcome = self.server.close_round()?;
        // Every cohort member completed this round: a full exchange is
        // retained as the ratchet base for the next stable round (a
        // ratcheted round's mask is `m + u`, so the previous base is
        // kept). The harvest takes what the retire below would drop.
        if self.cfg.ratchet().enabled() {
            let fp = self.fingerprint(&open.cohort);
            if open.ratcheted.is_none() {
                for &id in &open.cohort {
                    self.clients[id].harvest(open.round, fp);
                }
            }
            self.ratchet_fp = Some(fp);
        }
        // Retire the finished round everywhere; prepared next-round
        // state survives (it is >= round + 1).
        for client in &mut self.clients {
            client.retire_below(open.round + 1);
        }
        self.last_report = Some(self.cut_report(&open));
        self.open = None;
        Ok(outcome)
    }

    fn abort_round(&mut self) {
        if let Some(open) = self.open.take() {
            self.server.abort_round();
            // an abort means the cohort did not complete the round:
            // conservatively forget the ratchet bases too
            self.forget_ratchet();
            // the aborted round can never complete; retire it so
            // envelopes for it surface as stale, while any prepared
            // round >= round + 1 survives
            for client in &mut self.clients {
                client.retire_below(open.round + 1);
            }
            self.discard_in_flight("abort");
        }
    }

    fn clear_ratchet(&mut self) {
        self.forget_ratchet();
        // ratchet-derived preparations are as suspect as the base they
        // came from: drop them so a retry full-exchanges
        for round in std::mem::take(&mut self.prepared_ratcheted).into_keys() {
            self.prepared.remove(&round);
            for client in &mut self.clients {
                client.discard(round);
            }
        }
    }

    fn reassign(&mut self, seed: u64) -> Result<(), ProtocolError> {
        ensure_between_rounds(self.open.is_some(), &self.prepared)?;
        // a buffered leaf does not carry its bases across a reseat
        if self.server.buffer.is_some() {
            self.clear_ratchet();
            return Ok(());
        }
        // the leaf fingerprint is seat-based and unchanged by a global
        // permute, so the retained bases stay valid — only the pad
        // derivation must diverge from the pre-permute stretch (and any
        // pre-committed window dies with the old seating). Every member
        // applies the same `seed`, so the permuted edges still cancel
        // ([`crate::ratchet::reseat_epoch`])
        for client in &mut self.clients {
            client.ratchet().reseat(|base| base.bump_pad_epoch(seed));
        }
        self.window.clear();
        self.server.ratchet.clear();
        Ok(())
    }

    fn bytes_sent(&self) -> usize {
        self.transport.bytes_sent()
    }

    fn round_report(&self) -> Option<RoundReport> {
        self.last_report.clone()
    }
}

// ---------------------------------------------------------------------
// The two protocols' constructors
// ---------------------------------------------------------------------

/// The §4.1 synchronous protocol behind the [`SecureAggregator`] trait:
/// persistent [`FederationClient`]s, one persistent §4.1
/// [`FederationServer`], exact (unit-weight) aggregation over the
/// survivors.
pub type SyncFederation<F, T> = LeafFederation<F, T>;

impl<F: Field, T: Transport<F>> SyncFederation<F, T> {
    /// Create a federation of `cfg.n()` persistent clients over
    /// `transport`. All entropy for the whole run derives from `seed`.
    ///
    /// # Errors
    ///
    /// Propagates invalid configuration.
    pub fn new(cfg: LsaConfig, transport: T, seed: u64) -> Result<Self, ProtocolError> {
        Self::in_group(0, cfg, transport, seed)
    }

    /// As [`Self::new`], but serving as leaf group `group` of an
    /// aggregator tree ([`crate::topology`]): every envelope is stamped
    /// with the tree-namespaced id and traffic stamped for any other
    /// leaf is rejected with [`ProtocolError::WrongGroup`].
    ///
    /// # Errors
    ///
    /// Propagates invalid configuration.
    pub fn in_group(
        group: usize,
        cfg: LsaConfig,
        transport: T,
        seed: u64,
    ) -> Result<Self, ProtocolError> {
        let mut master = StdRng::seed_from_u64(seed);
        let clients = (0..cfg.n())
            .map(|id| {
                FederationClient::in_group(group, id, cfg, StdRng::seed_from_u64(master.gen()))
            })
            .collect::<Result<_, _>>()?;
        let server = FederationServer::in_group(group, cfg)?;
        let leaf = Self::assemble(group, cfg, transport, clients, server, master.gen());
        Ok(leaf)
    }
}

/// The §4.2 buffered-asynchronous protocol behind the
/// [`SecureAggregator`] trait: persistent timestamped
/// [`FederationClient`]s ([`FederationClient::timestamped`]) whose
/// round-stamped masks let the §4.2 [`FederationServer`]
/// ([`FederationServer::timestamped`]) recover a staleness-weighted
/// aggregate from whatever its buffer holds when the round closes. Runs
/// flat (group 0) and clears, rather than reseats, its ratchet on a
/// [`SecureAggregator::reassign`].
pub type BufferedFederation<F, T> = LeafFederation<F, T>;

impl<F: Field, T: Transport<F>> BufferedFederation<F, T> {
    /// A buffered federation with unit weights (`s(τ) = 1`, `c_g = 1`) —
    /// the drop-in replacement for the synchronous variant. Updates
    /// submitted through the [`SecureAggregator`] interface are always
    /// fresh (`τ = 0`), so no other staleness function could change a
    /// weight here.
    ///
    /// # Errors
    ///
    /// Propagates invalid configuration.
    pub fn unit_weight(cfg: LsaConfig, transport: T, seed: u64) -> Result<Self, ProtocolError> {
        let mut master = StdRng::seed_from_u64(seed);
        let clients = (0..cfg.n())
            .map(|id| FederationClient::timestamped(id, cfg, StdRng::seed_from_u64(master.gen())))
            .collect::<Result<_, _>>()?;
        let server = FederationServer::timestamped(
            cfg,
            cfg.n(),
            QuantizedStaleness::new(StalenessFn::Constant, 1),
            StdRng::seed_from_u64(master.gen()),
        )?;
        let leaf = Self::assemble(0, cfg, transport, clients, server, master.gen());
        Ok(leaf)
    }
}

// ---------------------------------------------------------------------
// The driver loop
// ---------------------------------------------------------------------

/// Declarative description of one federated round for
/// [`Federation::run_round`].
#[derive(Debug, Clone)]
pub struct RoundPlan<F> {
    /// The participating clients.
    pub cohort: Vec<usize>,
    /// `(client, quantized update)` submissions; cohort members without
    /// an update drop *before* upload.
    pub updates: Vec<(usize, Vec<F>)>,
    /// Cohort members that vanish after uploading (§7.1 worst case).
    pub drop_after_upload: Vec<usize>,
    /// When set, the next round's mask exchange runs overlapped with
    /// this round (§4.1).
    pub prepare_next: Option<Vec<usize>>,
}

impl<F> RoundPlan<F> {
    /// A plan with the given cohort and no submissions yet.
    pub fn new(cohort: Vec<usize>) -> Self {
        Self {
            cohort,
            updates: Vec::new(),
            drop_after_upload: Vec::new(),
            prepare_next: None,
        }
    }

    /// Full participation: cohort `0..n`.
    pub fn full(n: usize) -> Self {
        Self::new((0..n).collect())
    }

    /// Add one client's update.
    #[must_use]
    pub fn with_update(mut self, id: usize, update: Vec<F>) -> Self {
        self.updates.push((id, update));
        self
    }

    /// Give every cohort member its update, in cohort order.
    ///
    /// # Panics
    ///
    /// Panics if `updates.len() != cohort.len()`.
    #[must_use]
    pub fn with_updates(mut self, updates: Vec<Vec<F>>) -> Self {
        assert_eq!(updates.len(), self.cohort.len(), "one update per member");
        self.updates = self.cohort.iter().copied().zip(updates).collect();
        self
    }

    /// Give every cohort member the *same* update (convenient in tests).
    #[must_use]
    pub fn with_uniform_updates(self, update: Vec<F>) -> Self
    where
        F: Clone,
    {
        let updates = vec![update; self.cohort.len()];
        self.with_updates(updates)
    }

    /// The one-shot round the [`DropoutSchedule`] vocabulary describes
    /// (shared with `lsa_baselines::run_secagg_round`): cohort
    /// `0..models.len()`, `models[i]` as user `i`'s update unless `i` is
    /// in `before_upload`, and everyone in either list vanished for the
    /// recovery phase. Run it on a *fresh* federation —
    /// `SyncFederation::new(cfg, transport, rng.gen())` — so no ratchet
    /// engages and the round is Algorithm 1 as written.
    ///
    /// Strict where the schedule type is not: an id outside the cohort
    /// in either list fails the round with
    /// [`ProtocolError::UnknownUser`] (through
    /// [`SecureAggregator::mark_dropped`]) instead of being ignored, as
    /// does `models.len() > N` (through
    /// [`SecureAggregator::open_round`]); fewer models than `N` is the
    /// smaller cohort it says, [`ProtocolError::NotEnoughSurvivors`]
    /// below `U`. An id in *both* lists never uploads and serves no
    /// recovery.
    ///
    /// What a caller holding one RNG sees differently from drawing every
    /// mask from it directly: per-client entropy derives from the
    /// federation's one seed, so masks differ (aggregates cannot — they
    /// are a function of the models and the contributor set), and the
    /// survivor announcement is not sent to clients that vanished.
    pub fn from_schedule(models: &[Vec<F>], schedule: &DropoutSchedule) -> Self
    where
        F: Clone,
    {
        let mut plan = Self::full(models.len());
        plan.updates = (0..models.len())
            .filter(|id| !schedule.before_upload.contains(id))
            .map(|id| (id, models[id].clone()))
            .collect();
        plan.drop_after_upload = [&schedule.before_upload[..], &schedule.after_upload].concat();
        plan
    }

    /// Mark a client as vanishing after its upload.
    #[must_use]
    pub fn with_drop_after_upload(mut self, id: usize) -> Self {
        self.drop_after_upload.push(id);
        self
    }

    /// Overlap the next round's offline mask exchange with this round.
    #[must_use]
    pub fn with_prepare_next(mut self, cohort: Vec<usize>) -> Self {
        self.prepare_next = Some(cohort);
        self
    }
}

/// The multi-round driver: owns a boxed [`SecureAggregator`] (either
/// variant) and executes [`RoundPlan`]s against it — the *same* loop for
/// synchronous and buffered-asynchronous federations.
pub struct Federation<F> {
    aggregator: Box<dyn SecureAggregator<F>>,
    /// Telemetry of the most recent successful [`Federation::run_round`],
    /// with driver-level events (ratchet fallbacks) folded in.
    last_report: Option<RoundReport>,
}

impl<F: Field> Federation<F> {
    /// Wrap an aggregator variant chosen by value.
    pub fn new(aggregator: Box<dyn SecureAggregator<F>>) -> Self {
        Self {
            aggregator,
            last_report: None,
        }
    }

    /// The [`RoundReport`] of the most recent successful
    /// [`Federation::run_round`]: the aggregator's own report plus the
    /// driver's event view (a ratchet fast path that failed mid-round
    /// and was replayed with a full exchange counts as one `fallbacks`).
    pub fn last_report(&self) -> Option<&RoundReport> {
        self.last_report.as_ref()
    }

    /// The protocol configuration.
    pub fn config(&self) -> LsaConfig {
        self.aggregator.config()
    }

    /// The round currently open, or the next one to open.
    pub fn round(&self) -> u64 {
        self.aggregator.round()
    }

    /// The wrapped aggregator.
    pub fn aggregator(&self) -> &dyn SecureAggregator<F> {
        self.aggregator.as_ref()
    }

    /// Mutable access to the wrapped aggregator (e.g. to drive the
    /// lifecycle by hand).
    pub fn aggregator_mut(&mut self) -> &mut dyn SecureAggregator<F> {
        self.aggregator.as_mut()
    }

    /// Execute one round: open with the plan's cohort, submit the
    /// updates, overlap the next round's mask exchange if requested,
    /// apply the after-upload drops, and recover the aggregate.
    ///
    /// When the stable-cohort fast path diverges mid-round (a ratcheted
    /// round lost a member before upload —
    /// [`ProtocolError::RatchetMismatch`]), the ratchet state is
    /// discarded, the round aborted, and the plan replayed **once**
    /// with a full mask exchange; the failed round number is burned.
    ///
    /// # Errors
    ///
    /// Propagates any [`ProtocolError`] from the lifecycle. A plan that
    /// fails after its round opened leaves no round open behind it: the
    /// round is aborted (its number burned, like the fallback's) and the
    /// next plan runs. Driving the lifecycle by hand keeps
    /// `finish_round`'s "the round stays open for more shares".
    pub fn run_round(&mut self, plan: &RoundPlan<F>) -> Result<RoundOutcome<F>, ProtocolError> {
        let (out, fell_back) = match attempt_round(self.aggregator.as_mut(), plan) {
            Err(ProtocolError::RatchetMismatch) => {
                (attempt_round(self.aggregator.as_mut(), plan), true)
            }
            out => (out, false),
        };
        let out = out?;
        let mut report = self.aggregator.round_report();
        if let Some(r) = &mut report {
            r.events.fallbacks += usize::from(fell_back);
        }
        self.last_report = report;
        Ok(out)
    }
}

/// One attempt at a [`RoundPlan`]'s lifecycle (extracted so
/// [`Federation::run_round`] can replay it after a ratchet fallback).
/// An attempt that fails once its round is open aborts that round —
/// dropping the ratchet state first when that is what diverged.
fn attempt_round<F: Field>(
    aggregator: &mut dyn SecureAggregator<F>,
    plan: &RoundPlan<F>,
) -> Result<RoundOutcome<F>, ProtocolError> {
    aggregator.open_round(&plan.cohort)?;
    let out = drive_open_round(aggregator, plan);
    if let Err(e) = &out {
        if *e == ProtocolError::RatchetMismatch {
            aggregator.clear_ratchet();
        }
        aggregator.abort_round();
    }
    out
}

/// The plan's steps after `open_round`.
fn drive_open_round<F: Field>(
    aggregator: &mut dyn SecureAggregator<F>,
    plan: &RoundPlan<F>,
) -> Result<RoundOutcome<F>, ProtocolError> {
    // §4.1 overlap: the next round's offline phase runs while this
    // round's participants are still computing their updates. It
    // must run *before* the submissions so its transport flush
    // carries only mask traffic — otherwise pending uploads would be
    // mis-billed to the overlapped offline phase on a timed link.
    if let Some(next) = &plan.prepare_next {
        aggregator.prepare_next(next)?;
    }
    for (id, update) in &plan.updates {
        aggregator.submit(*id, update)?;
    }
    for &id in &plan.drop_after_upload {
        aggregator.mark_dropped(id)?;
    }
    aggregator.finish_round()
}

impl<F> core::fmt::Debug for Federation<F> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Federation").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratchet::{policies, RatchetAnnouncement, RATCHET_FROM_SERVER};
    use crate::transport::MemTransport;
    use lsa_field::Fp61;

    fn cfg() -> LsaConfig {
        LsaConfig::new(5, 1, 3, 4).unwrap()
    }

    fn updates(ids: &[usize]) -> Vec<(usize, Vec<Fp61>)> {
        ids.iter()
            .map(|&i| (i, vec![Fp61::from_u64(i as u64 + 1); 4]))
            .collect()
    }

    fn expected(ids: &[usize]) -> Vec<Fp61> {
        let total: u64 = ids.iter().map(|&i| i as u64 + 1).sum();
        vec![Fp61::from_u64(total); 4]
    }

    /// Both leaf variants under every policy of [`policies`].
    fn variants() -> Vec<(String, Federation<Fp61>)> {
        let mut out: Vec<(String, Federation<Fp61>)> = Vec::new();
        for policy in policies() {
            let cfg = cfg().with_ratchet(policy);
            let sync = SyncFederation::new(cfg, MemTransport::new(), 1).unwrap();
            out.push((format!("sync/{policy:?}"), Federation::new(Box::new(sync))));
            let buffered = BufferedFederation::unit_weight(cfg, MemTransport::new(), 2).unwrap();
            out.push((
                format!("buffered/{policy:?}"),
                Federation::new(Box::new(buffered)),
            ));
        }
        out
    }

    #[test]
    fn both_variants_run_the_same_multi_round_loop() {
        // the acceptance shape: ONE loop, a trait object per variant
        for (name, mut fed) in variants() {
            for round in 0..3u64 {
                let mut plan = RoundPlan::new(vec![0, 1, 2, 3, 4]);
                plan.updates = updates(&[0, 1, 2, 3, 4]);
                let out = fed.run_round(&plan).unwrap_or_else(|e| {
                    panic!("{name} round {round} failed: {e}");
                });
                assert_eq!(out.round, round, "{name}");
                assert_eq!(out.aggregate, expected(&[0, 1, 2, 3, 4]), "{name}");
                assert_eq!(out.total_weight, 5, "{name}");
            }
        }
    }

    /// A leaf takes a reassignment only between rounds: mid-round is
    /// `WrongPhase`, a prepared next round is `InvalidConfig`, and the
    /// rounds on either side of an accepted one stay exact.
    #[test]
    fn leaf_reassign_waits_for_the_round_boundary() {
        let cohort = [0, 1, 2, 3, 4];
        for (name, mut fed) in variants() {
            let leaf = fed.aggregator_mut();
            leaf.reassign(1).unwrap();
            for round in 0..3u64 {
                leaf.open_round(&cohort).unwrap();
                assert_eq!(leaf.reassign(2), Err(ProtocolError::WrongPhase), "{name}");
                if round == 0 {
                    leaf.prepare_next(&cohort).unwrap();
                }
                for (id, u) in updates(&cohort) {
                    leaf.submit(id, &u).unwrap();
                }
                let out = leaf.finish_round().unwrap();
                assert_eq!(out.aggregate, expected(&cohort), "{name} round {round}");
                if round == 0 {
                    assert!(
                        matches!(leaf.reassign(3), Err(ProtocolError::InvalidConfig(_))),
                        "{name}"
                    );
                } else {
                    leaf.reassign(4 + round).unwrap();
                }
            }
        }
    }

    #[test]
    fn churn_leave_and_rejoin_between_rounds() {
        for (name, mut fed) in variants() {
            // round 0: full cohort
            let mut p0 = RoundPlan::new(vec![0, 1, 2, 3, 4]);
            p0.updates = updates(&[0, 1, 2, 3, 4]);
            fed.run_round(&p0).unwrap();
            // round 1: clients 1 and 4 left
            let mut p1 = RoundPlan::new(vec![0, 2, 3]);
            p1.updates = updates(&[0, 2, 3]);
            let out1 = fed.run_round(&p1).unwrap();
            assert_eq!(out1.contributors, vec![0, 2, 3], "{name}");
            assert_eq!(out1.aggregate, expected(&[0, 2, 3]), "{name}");
            // round 2: client 1 rejoined
            let mut p2 = RoundPlan::new(vec![0, 1, 2, 3]);
            p2.updates = updates(&[0, 1, 2, 3]);
            let out2 = fed.run_round(&p2).unwrap();
            assert_eq!(out2.contributors, vec![0, 1, 2, 3], "{name}");
            assert_eq!(out2.aggregate, expected(&[0, 1, 2, 3]), "{name}");
        }
    }

    #[test]
    fn overlapped_preparation_matches_unprepared_rounds() {
        for (name, mut fed) in variants() {
            let cohort = vec![0usize, 1, 2, 3, 4];
            let mut p0 = RoundPlan::new(cohort.clone()).with_prepare_next(cohort.clone());
            p0.updates = updates(&cohort);
            let out0 = fed.run_round(&p0).unwrap();
            // round 1 rides on the masks shared during round 0
            let mut p1 = RoundPlan::new(cohort.clone());
            p1.updates = updates(&cohort);
            let out1 = fed.run_round(&p1).unwrap();
            assert_eq!(out0.aggregate, out1.aggregate, "{name}");
            assert_eq!(out1.round, 1, "{name}");
        }
    }

    #[test]
    fn drop_after_upload_keeps_contribution() {
        for (name, mut fed) in variants() {
            let cohort = vec![0usize, 1, 2, 3, 4];
            let mut plan = RoundPlan::new(cohort.clone());
            plan.updates = updates(&cohort);
            plan.drop_after_upload = vec![4];
            let out = fed.run_round(&plan).unwrap();
            // user 4 uploaded, then vanished: still in the aggregate
            assert_eq!(out.aggregate, expected(&[0, 1, 2, 3, 4]), "{name}");
        }
    }

    #[test]
    fn cohort_below_u_rejected() {
        for (name, mut fed) in variants() {
            let err = fed.run_round(&RoundPlan::new(vec![0, 1])).unwrap_err();
            assert!(
                matches!(err, ProtocolError::NotEnoughSurvivors { got: 2, need: 3 }),
                "{name}: {err}"
            );
        }
    }

    #[test]
    fn from_schedule_is_strict_about_ids_and_follows_the_model_count() {
        let models: Vec<Vec<Fp61>> = updates(&[0, 1, 2, 3, 4, 5])
            .into_iter()
            .map(|(_, update)| update)
            .collect();
        let run = |models: &[Vec<Fp61>], schedule: DropoutSchedule| {
            let sync = SyncFederation::new(cfg(), MemTransport::new(), 8).unwrap();
            Federation::new(Box::new(sync)).run_round(&RoundPlan::from_schedule(models, &schedule))
        };
        // an out-of-range id in either list is a typed error, not ignored
        assert_eq!(
            run(&models[..5], DropoutSchedule::before_upload(vec![5])).unwrap_err(),
            ProtocolError::UnknownUser(5)
        );
        assert_eq!(
            run(&models[..5], DropoutSchedule::after_upload(vec![9])).unwrap_err(),
            ProtocolError::UnknownUser(9)
        );
        // an id in both lists never uploads and serves no recovery
        let both = DropoutSchedule {
            before_upload: vec![2],
            after_upload: vec![2, 4],
        };
        let plan = RoundPlan::from_schedule(&models[..5], &both);
        assert_eq!(plan.updates, updates(&[0, 1, 3, 4]));
        let out = run(&models[..5], both).unwrap();
        assert_eq!(out.contributors, vec![0, 1, 3, 4]);
        assert_eq!(out.aggregate, expected(&[0, 1, 3, 4]));
        // the cohort is `0..models.len()`: one too many is out of range,
        // fewer is the smaller cohort, too few cannot open
        assert_eq!(
            run(&models, DropoutSchedule::none()).unwrap_err(),
            ProtocolError::UnknownUser(5)
        );
        let four = run(&models[..4], DropoutSchedule::none()).unwrap();
        assert_eq!(four.contributors, vec![0, 1, 2, 3]);
        assert_eq!(
            run(&models[..2], DropoutSchedule::none()).unwrap_err(),
            ProtocolError::NotEnoughSurvivors { got: 2, need: 3 }
        );
    }

    #[test]
    fn double_submit_is_duplicate() {
        for (name, mut fed) in variants() {
            let agg = fed.aggregator_mut();
            agg.open_round(&[0, 1, 2, 3, 4]).unwrap();
            agg.submit(0, &[Fp61::ONE; 4]).unwrap();
            let err = agg.submit(0, &[Fp61::ONE; 4]).unwrap_err();
            assert!(
                matches!(err, ProtocolError::DuplicateMessage(0)),
                "{name}: {err}"
            );
        }
    }

    #[test]
    fn non_member_submit_rejected() {
        let mut fed: Federation<Fp61> = Federation::new(Box::new(
            SyncFederation::new(cfg(), MemTransport::new(), 3).unwrap(),
        ));
        let agg = fed.aggregator_mut();
        agg.open_round(&[0, 1, 2, 3]).unwrap();
        assert!(matches!(
            agg.submit(4, &[Fp61::ONE; 4]),
            Err(ProtocolError::UnknownUser(4))
        ));
    }

    #[test]
    fn mismatched_open_after_prepare_leaves_preparation_usable() {
        // a cohort mismatch must NOT consume the preparation: retrying
        // with the prepared cohort still opens (and reuses the masks)
        for (name, mut fed) in variants() {
            let agg = fed.aggregator_mut();
            agg.prepare_next(&[0, 1, 2, 3, 4]).unwrap();
            let err = agg.open_round(&[0, 1, 2, 3]).unwrap_err();
            assert!(matches!(err, ProtocolError::InvalidConfig(_)), "{name}");
            agg.open_round(&[0, 1, 2, 3, 4])
                .unwrap_or_else(|e| panic!("{name}: corrected retry failed: {e}"));
            for id in 0..5 {
                agg.submit(id, &[Fp61::ONE; 4]).unwrap();
            }
            let out = agg.finish_round().unwrap();
            assert_eq!(out.aggregate, vec![Fp61::from_u64(5); 4], "{name}");
        }
    }

    #[test]
    fn overlap_phase_never_swallows_upload_traffic() {
        // over a timed link the overlapped offline exchange must be
        // billed to "offline-overlap" and the masked uploads to
        // "upload" — the critical-path accounting the bench relies on
        use lsa_net::{Duplex, NetworkConfig};

        let cfg = cfg();
        let n = cfg.n();
        let sync = SyncFederation::new(
            cfg,
            MemTransport::timed(NetworkConfig::paper_default(n), Duplex::Full),
            4,
        )
        .unwrap();
        let mut fed: Federation<Fp61> = Federation::new(Box::new(sync));
        let cohort: Vec<usize> = (0..n).collect();
        let mut plan = RoundPlan::new(cohort.clone()).with_prepare_next(cohort);
        plan.updates = updates(&[0, 1, 2, 3, 4]);
        fed.run_round(&plan).unwrap();

        // downcast not available through the trait object; rebuild the
        // same run on a concrete federation to inspect timings
        let mut sync = SyncFederation::<Fp61, MemTransport>::new(
            cfg,
            MemTransport::timed(NetworkConfig::paper_default(n), Duplex::Full),
            4,
        )
        .unwrap();
        sync.open_round(&(0..n).collect::<Vec<_>>()).unwrap();
        sync.prepare_next(&(0..n).collect::<Vec<_>>()).unwrap();
        for (id, update) in updates(&[0, 1, 2, 3, 4]) {
            sync.submit(id, &update).unwrap();
        }
        sync.finish_round().unwrap();
        let phases: Vec<(&str, usize)> = Transport::<Fp61>::timings(sync.transport())
            .iter()
            .map(|t| (t.label, t.messages))
            .collect();
        let msgs = |label: &str| {
            phases
                .iter()
                .find(|(l, _)| *l == label)
                .map(|(_, m)| *m)
                .unwrap_or_else(|| panic!("missing phase {label}: {phases:?}"))
        };
        assert_eq!(msgs("offline"), n * (n - 1));
        assert_eq!(msgs("offline-overlap"), n * (n - 1));
        assert_eq!(msgs("upload"), n, "uploads mis-billed: {phases:?}");
    }

    #[test]
    fn early_next_round_share_buffered_until_prepare() {
        // a peer's round-1 share arriving before this client joined
        // round 1 is held, then replayed by prepare(1); a duplicated
        // early frame is rejected typed at the replay without costing
        // the round or the good shares; an implausibly far-future round
        // is still rejected
        let mut rng = StdRng::seed_from_u64(6);
        let mut a =
            FederationClient::<Fp61>::new(0, cfg(), StdRng::seed_from_u64(rng.gen())).unwrap();
        let mut b =
            FederationClient::<Fp61>::new(1, cfg(), StdRng::seed_from_u64(rng.gen())).unwrap();
        let mut c =
            FederationClient::<Fp61>::new(2, cfg(), StdRng::seed_from_u64(rng.gen())).unwrap();
        // `from`'s round-1 share for `j`
        let share_to = |from: &mut FederationClient<Fp61>, j: usize| loop {
            let (to, env) = from.poll_output().expect("has shares");
            if to == Recipient::Client(j) && env.round() == 1 {
                break env;
            }
        };
        b.prepare(0).unwrap();
        c.prepare(0).unwrap();
        a.prepare(1).unwrap();
        let share_r1 = share_to(&mut a, 1);
        // b is still on round 0: the round-1 share is buffered, not lost
        assert_eq!(b.handle(share_r1).unwrap(), Vec::new());
        b.prepare(1).unwrap();
        let r1 = b.live(1);
        assert_eq!(r1.shares_received(), 2, "replayed share must land");
        // c is still on round 0 when b's and a's round-1 shares arrive,
        // then a's again as a duplicated frame: all three are buffered
        let (from_b, from_a) = (share_to(&mut b, 2), share_to(&mut a, 2));
        for env in [from_b, from_a.clone(), from_a] {
            assert_eq!(c.handle(env).unwrap(), Vec::new());
        }
        // the duplicate is reported once both good shares are filed,
        // with round 1 joined: a recovery naming all three is answered
        assert_eq!(c.prepare(1), Err(ProtocolError::DuplicateMessage(0)));
        assert_eq!(c.live(1).shares_received(), 3);
        let ann = Envelope::SurvivorAnnouncement(SurvivorAnnouncement {
            group: 0,
            round: 1,
            survivors: vec![0, 1, 2],
        });
        assert_eq!(c.handle(ann).unwrap().len(), 1);
        // far beyond the lookahead window → unroutable
        let far = Envelope::CodedMaskShare(crate::wire::CodedMaskShare {
            from: 0,
            to: 1,
            group: 0,
            round: 50,
            payload: vec![Fp61::ZERO; cfg().segment_len()],
        });
        assert!(matches!(
            b.handle(far),
            Err(ProtocolError::StaleRound { got: 50, .. })
        ));
    }

    /// Both users' constructors, each with the tag its coded shares
    /// travel under.
    type MakeClient = fn(usize, LsaConfig, StdRng) -> Result<FederationClient<Fp61>, ProtocolError>;
    type ShareTag = fn(crate::wire::CodedMaskShare<Fp61>) -> Envelope<Fp61>;
    const CLIENTS: [(MakeClient, ShareTag); 2] = [
        (FederationClient::new, Envelope::CodedMaskShare),
        (FederationClient::timestamped, Envelope::TimestampedShare),
    ];

    #[test]
    fn future_round_buffer_is_bounded_with_typed_rejection() {
        // an untrusted peer flooding near-future envelopes hits the cap
        // instead of growing the buffer without bound
        for (make, tag) in CLIENTS {
            let mut b = make(1, cfg(), StdRng::seed_from_u64(9)).unwrap();
            b.prepare(0).unwrap();
            let cap = b.pending_cap();
            assert_eq!(cap, 2 * (2 * cfg().n() + 2), "cap is O(LOOKAHEAD · n)");
            let flood = |round: u64| {
                tag(crate::wire::CodedMaskShare {
                    from: 0,
                    to: 1,
                    group: 0,
                    round,
                    payload: vec![Fp61::ZERO; cfg().segment_len()],
                })
            };
            for i in 0..cap {
                // alternate between the two lookahead rounds: the cap is
                // shared, not per-round
                let round = 1 + (i as u64 % 2);
                assert_eq!(
                    b.handle(flood(round)).unwrap(),
                    Vec::new(),
                    "under cap at {i}"
                );
            }
            assert!(matches!(
                b.handle(flood(1)),
                Err(ProtocolError::PendingOverflow { client: 1, round: 1, cap: c }) if c == cap
            ));
            assert!(matches!(
                b.handle(flood(2)),
                Err(ProtocolError::PendingOverflow {
                    client: 1,
                    round: 2,
                    ..
                })
            ));
            // past the lookahead nothing is buffered at all
            assert!(matches!(
                b.handle(flood(3)),
                Err(ProtocolError::StaleRound { got: 3, current: 0 })
            ));
            // joining round 1 drains its share of the buffer: new round-2
            // traffic fits again (the replay files the first flooded share
            // and reports the first of the duplicates after it — only the
            // buffering policy is under test here)
            let _ = b.prepare(1);
            assert!(b.handle(flood(2)).is_ok(), "buffer frees as rounds open");
        }
    }

    #[test]
    fn federation_client_rejects_retired_round_envelopes() {
        for (make, _) in CLIENTS {
            let mut rng = StdRng::seed_from_u64(5);
            let mut a = make(0, cfg(), StdRng::seed_from_u64(rng.gen())).unwrap();
            let mut b = make(1, cfg(), StdRng::seed_from_u64(rng.gen())).unwrap();
            a.prepare(0).unwrap();
            b.prepare(0).unwrap();
            // capture one of a's round-0 shares for b
            let share_for_b = loop {
                let (to, env) = a.poll_output().expect("has shares");
                if to == Recipient::Client(1) {
                    break env;
                }
            };
            b.handle(share_for_b.clone()).unwrap();
            // b moves on to round 1; the replayed round-0 share is stale
            b.retire_below(1);
            b.prepare(1).unwrap();
            assert!(matches!(
                b.handle(share_for_b),
                Err(ProtocolError::StaleRound { got: 0, current: 1 })
            ));
        }
    }

    #[test]
    fn replayed_ratchet_commits_and_acks_are_rejected_typed() {
        let mut fed = SyncFederation::<Fp61, _>::new(cfg(), MemTransport::new(), 21).unwrap();
        let cohort: Vec<usize> = (0..5).collect();
        for _ in 0..2 {
            fed.open_round(&cohort).unwrap();
            for (id, u) in updates(&cohort) {
                fed.submit(id, &u).unwrap();
            }
            fed.finish_round().unwrap();
        }
        // rounds 0 and 1 are retired: a commit replayed from round 1 is
        // rejected as stale before any mask re-derivation, whatever its
        // nonce claims
        let fp = ratchet::tests::fingerprint_of(0, cfg(), &cohort);
        let replay = RatchetAnnouncement {
            from: RATCHET_FROM_SERVER,
            group: 0,
            round: 1,
            nonce: 99,
            fingerprint: fp,
        };
        assert!(matches!(
            fed.clients[0].handle(Envelope::RatchetAnnouncement(replay.clone())),
            Err(ProtocolError::StaleRound { got: 1, current: 2 })
        ));
        // an ack replayed to the server after its handshake was consumed
        // finds no in-flight commit to attach to
        let ack = RatchetAnnouncement { from: 0, ..replay };
        assert!(matches!(
            fed.server.handle(Envelope::RatchetAnnouncement(ack)),
            Err(ProtocolError::RatchetMismatch)
        ));
        // a commit for a round the client has already joined is
        // a duplicate — a second nonce must not rebuild the round's mask
        fed.open_round(&cohort).unwrap();
        let dup = RatchetAnnouncement {
            from: RATCHET_FROM_SERVER,
            group: 0,
            round: 2,
            nonce: 7,
            fingerprint: fp,
        };
        assert!(matches!(
            fed.clients[0].handle(Envelope::RatchetAnnouncement(dup)),
            Err(ProtocolError::DuplicateMessage(0))
        ));
    }

    #[test]
    fn retained_base_storage_is_shared_then_released() {
        use std::sync::Arc;
        let mut fed = SyncFederation::<Fp61, _>::new(cfg(), MemTransport::new(), 33).unwrap();
        let run = |fed: &mut SyncFederation<Fp61, MemTransport>, cohort: &[usize]| {
            fed.open_round(cohort).unwrap();
            for (id, u) in updates(cohort) {
                fed.submit(id, &u).unwrap();
            }
            fed.finish_round().unwrap()
        };
        let everyone: Vec<usize> = (0..5).collect();
        run(&mut fed, &everyone); // round 0: full exchange, harvested
        let watch: Vec<_> = fed
            .clients
            .iter()
            .map(|c| {
                // the harvest moved the finished session into the base:
                // nothing else holds its share material
                assert_eq!(c.active_rounds(), 0);
                let base = c.base().expect("base retained");
                assert_eq!(Arc::strong_count(base.share_storage()), 1);
                Arc::downgrade(base.share_storage())
            })
            .collect();
        // round 1 ratchets: while it is open, each member's live session
        // holds the base's storage itself, not a copy
        fed.open_round(&everyone).unwrap();
        assert!(fed
            .open
            .as_ref()
            .is_some_and(|open| open.ratcheted.is_some()));
        for (c, w) in fed.clients.iter().zip(&watch) {
            let base = c.base().expect("base retained");
            assert_eq!(Arc::strong_count(base.share_storage()), 2);
            assert_eq!(w.strong_count(), 2);
        }
        for (id, u) in updates(&everyone) {
            fed.submit(id, &u).unwrap();
        }
        assert_eq!(fed.finish_round().unwrap().aggregate, expected(&everyone));
        assert!(watch.iter().all(|w| w.strong_count() == 1));
        // churn: round 2 re-keys without member 4, and opening it
        // releases every member's stale base — member 4's too, which no
        // harvest would ever overwrite
        let out = run(&mut fed, &[0, 1, 2, 3]);
        assert_eq!(out.aggregate, expected(&[0, 1, 2, 3]));
        for (id, w) in watch.iter().enumerate() {
            assert_eq!(w.strong_count(), 0, "client {id} still owns its old base");
        }
    }

    /// A full exchange, then a ratcheted round, over a recording
    /// transport: each base's partner shares, re-encoded from its draw,
    /// are the `CodedMaskShare` payloads that went on the wire, and the
    /// pair seeds its pads use hash exactly those payloads.
    fn reencoded_shares_are_the_wire_shares<F: Field>(topology: ratchet::PadTopology) {
        let name = format!("{topology:?}");
        let cfg = cfg().with_ratchet(ratchet::RatchetPolicy::new(true, topology, 1));
        let code = VandermondeCode::<F>::new(cfg.n(), cfg.u()).unwrap();
        let mut fed = SyncFederation::<F, _>::new(cfg, MemTransport::new(), 36).unwrap();
        let transcript = fed.transport_mut().transcript();
        let everyone: Vec<usize> = (0..cfg.n()).collect();
        let model = vec![F::ONE; cfg.d()];
        let run = |fed: &mut SyncFederation<F, MemTransport>| {
            for &id in &everyone {
                fed.submit(id, &model).unwrap();
            }
            let sum = fed.finish_round().unwrap().aggregate;
            assert_eq!(sum, vec![F::from_u64(cfg.n() as u64); cfg.d()], "{name}");
        };
        fed.open_round(&everyone).unwrap();
        let wire: BTreeMap<(usize, usize), Vec<F>> = transcript
            .lock()
            .unwrap()
            .iter()
            .filter_map(|(_, _, frame)| match Envelope::<F>::from_bytes(frame) {
                Ok(Envelope::CodedMaskShare(s)) => Some(((s.from, s.to), s.payload)),
                _ => None,
            })
            .collect();
        assert_eq!(wire.len(), cfg.n() * (cfg.n() - 1), "{name}");
        for c in &fed.clients {
            // drained: every coded segment left in its envelope
            assert_eq!(c.live(0).held_segments(), (0, cfg.t()), "{name}");
        }
        run(&mut fed);
        fed.open_round(&everyone).unwrap();
        assert!(fed.open.as_ref().is_some_and(|o| o.ratcheted.is_some()));
        for (id, c) in fed.clients.iter().enumerate() {
            let base = c.base().expect("round 0 is the base");
            let partners = topology.partners(&everyone, id);
            let seeded: Vec<usize> = base.pair_seeds().keys().copied().collect();
            let mut want = partners.clone();
            want.sort_unstable();
            assert_eq!(seeded, want, "{name}: client {id} seeds its partners");
            for peer in partners {
                let (sent, recv) = (&wire[&(id, peer)], &wire[&(peer, id)]);
                assert_eq!(&base.coded_for(&code, peer), sent, "{name}: {id} -> {peer}");
                assert_eq!(
                    base.pair_seeds()[&peer],
                    ratchet::pair_seed(0, 0, id, peer, sent, recv),
                    "{name}: edge {id}-{peer}"
                );
            }
        }
        run(&mut fed);
    }

    #[test]
    fn reencoded_partner_shares_match_the_wire_fp61() {
        for topology in [
            ratchet::PadTopology::Clique,
            ratchet::PadTopology::Hypercube,
        ] {
            reencoded_shares_are_the_wire_shares::<Fp61>(topology);
        }
    }

    #[test]
    fn reencoded_partner_shares_match_the_wire_fp32() {
        for topology in [
            ratchet::PadTopology::Clique,
            ratchet::PadTopology::Hypercube,
        ] {
            reencoded_shares_are_the_wire_shares::<lsa_field::Fp32>(topology);
        }
    }

    #[test]
    fn recovery_answers_are_exact_whether_summed_or_retained() {
        use crate::wire::{AggregatedShare, SurvivorAnnouncement};
        let everyone: Vec<usize> = (0..5).collect();
        for policy in policies() {
            let name = format!("{policy:?}");
            let cfg = cfg().with_ratchet(policy);
            let mut fed = SyncFederation::<Fp61, _>::new(cfg, MemTransport::new(), 35).unwrap();
            let transcript = fed.transport_mut().transcript();
            let mut retained: Option<*const Fp61> = None;
            for round in 0..4 {
                fed.open_round(&everyone).unwrap();
                let ratcheted = fed.open.as_ref().is_some_and(|o| o.ratcheted.is_some());
                assert_eq!(
                    ratcheted,
                    policy.enabled() && round > 0,
                    "{name} round {round}"
                );
                for (id, u) in updates(&everyone) {
                    fed.submit(id, &u).unwrap();
                }
                // `Σ_i [~z_i]_j` from the senders' side: every share the
                // cohort coded for `j` in the round that exchanged them,
                // re-encoded from that round's draw (the base's, for a
                // ratcheted round)
                let code = VandermondeCode::new(cfg.n(), cfg.u()).unwrap();
                let coded_for = |j: usize, from: &[usize]| {
                    let shares: Vec<Vec<Fp61>> = from
                        .iter()
                        .map(|&i| {
                            let client = &fed.clients[i];
                            let drawn = if ratcheted {
                                client.base().expect("a ratcheted round has a base")
                            } else {
                                client.live(round)
                            };
                            drawn.coded_for(&code, j)
                        })
                        .collect();
                    lsa_field::ops::sum_vectors(shares.iter().map(Vec::as_slice)).unwrap()
                };
                let want: Vec<Vec<Fp61>> =
                    everyone.iter().map(|&j| coded_for(j, &everyone)).collect();
                // a subset takes the per-survivor sum, exact too, and
                // leaves the total as it was
                let subset = [0, 2, 4];
                let partial = coded_for(1, &subset);
                let client = &mut fed.clients[1];
                let total_before = client.live(round).share_total().cloned();
                let ann = SurvivorAnnouncement {
                    group: 0,
                    round,
                    survivors: subset.to_vec(),
                };
                let reply = client.handle(Envelope::SurvivorAnnouncement(ann)).unwrap();
                let [(_, Envelope::AggregatedShare(share))] = &reply[..] else {
                    panic!("{name}: one aggregated share, got {reply:?}");
                };
                assert_eq!(share.payload, partial, "{name} round {round}: subset");
                assert_eq!(client.live(round).share_total().cloned(), total_before);

                transcript.lock().unwrap().clear();
                assert_eq!(fed.finish_round().unwrap().aggregate, expected(&everyone));
                let answers: Vec<AggregatedShare<Fp61>> = transcript
                    .lock()
                    .unwrap()
                    .iter()
                    .filter_map(|(_, _, frame)| match Envelope::<Fp61>::from_bytes(frame) {
                        Ok(Envelope::AggregatedShare(share)) => Some(share),
                        _ => None,
                    })
                    .collect();
                assert_eq!(answers.len(), everyone.len(), "{name} round {round}");
                for answer in answers {
                    assert_eq!(answer.payload, want[answer.from], "{name} round {round}");
                }
                // the rounds of a stable stretch answer from one total,
                // held by the retained base
                if ratcheted {
                    let base = fed.clients[0].base().expect("base retained");
                    let total = base.share_total().expect("summed by the first answer");
                    assert_eq!(*retained.get_or_insert(total.as_ptr()), total.as_ptr());
                }
            }
        }
    }

    #[test]
    fn churn_releases_every_retained_base_when_the_round_opens() {
        for policy in policies().into_iter().filter(|p| p.enabled()) {
            let cfg = cfg().with_ratchet(policy);
            let sync = SyncFederation::<Fp61, _>::new(cfg, MemTransport::new(), 5).unwrap();
            let buffered =
                BufferedFederation::<Fp61, _>::unit_weight(cfg, MemTransport::new(), 6).unwrap();
            assert_churn_releases_bases(sync, &format!("sync/{policy:?}"));
            assert_churn_releases_bases(buffered, &format!("buffered/{policy:?}"));
        }
    }

    /// Two full-cohort rounds retain a base everywhere; opening a
    /// churned round leaves none, before any share is exchanged.
    fn assert_churn_releases_bases(mut fed: LeafFederation<Fp61, MemTransport>, name: &str) {
        let everyone: Vec<usize> = (0..5).collect();
        for _ in 0..2 {
            fed.open_round(&everyone).unwrap();
            for (id, u) in updates(&everyone) {
                fed.submit(id, &u).unwrap();
            }
            fed.finish_round().unwrap();
        }
        let held = |fed: &mut LeafFederation<Fp61, MemTransport>| {
            fed.clients.iter_mut().filter_map(|c| c.base()).count()
        };
        assert_eq!(held(&mut fed), 5, "{name}: bases retained while stable");
        fed.open_round(&[0, 1, 2, 3]).unwrap();
        assert_eq!(held(&mut fed), 0, "{name}: a churned round kept a base");
        for (id, u) in updates(&[0, 1, 2, 3]) {
            fed.submit(id, &u).unwrap();
        }
        assert_eq!(
            fed.finish_round().unwrap().aggregate,
            expected(&[0, 1, 2, 3]),
            "{name}"
        );
    }

    #[test]
    fn cached_seat_digests_fingerprint_as_of_flat_does() {
        let cfg = LsaConfig::new(16, 2, 10, 4).unwrap();
        let sync = SyncFederation::<Fp61, _>::in_group(7, cfg, MemTransport::new(), 8).unwrap();
        let buffered =
            BufferedFederation::<Fp61, _>::unit_weight(cfg, MemTransport::new(), 9).unwrap();
        assert_seat_fingerprints(sync, 7);
        assert_seat_fingerprints(buffered, 0);
    }

    /// Sampled cohorts fingerprint as the sum of their
    /// [`ratchet::member_digest`]s, after a full round, after a
    /// reassignment (what an aggregator tree's `reassign` passes to
    /// every leaf) and a ratcheted round, and after a churned round.
    fn assert_seat_fingerprints(mut fed: LeafFederation<Fp61, MemTransport>, group: usize) {
        let cfg = fed.cfg;
        let mut rng = StdRng::seed_from_u64(group as u64);
        let everyone: Vec<usize> = (0..cfg.n()).collect();
        for (step, cohort) in [everyone.clone(), everyone, (0..12).collect()]
            .iter()
            .enumerate()
        {
            if step == 1 {
                fed.reassign(0xD00D).unwrap();
            }
            fed.open_round(cohort).unwrap();
            for (id, u) in updates(cohort) {
                fed.submit(id, &u).unwrap();
            }
            fed.finish_round().unwrap();
            for _ in 0..20 {
                let sampled: Vec<usize> = (0..cfg.n()).filter(|_| rng.gen_bool(0.6)).collect();
                let want = ratchet::tests::fingerprint_of(group, cfg, &sampled);
                assert_eq!(fed.fingerprint(&sampled), want);
            }
        }
        // an id past the last seat has no cached digest
        let stray = [0, 3, cfg.n(), 99];
        let want = ratchet::tests::fingerprint_of(group, cfg, &stray);
        assert_eq!(fed.fingerprint(&stray), want);
    }

    // -----------------------------------------------------------------
    // The §4.1 server's typed rejections, envelope by envelope
    // -----------------------------------------------------------------

    fn server(group: usize, round: u64) -> FederationServer<Fp61> {
        let mut server = FederationServer::in_group(group, cfg()).unwrap();
        server.open_round(round).unwrap();
        server
    }

    fn upload(from: usize, group: usize, round: u64) -> Envelope<Fp61> {
        Envelope::MaskedModel(MaskedModel {
            from,
            group,
            round,
            payload: vec![Fp61::ZERO; cfg().padded_len()],
        })
    }

    fn agg_share(from: usize) -> Envelope<Fp61> {
        Envelope::AggregatedShare(AggregatedShare {
            from,
            group: 0,
            round: 0,
            payload: vec![Fp61::ZERO; cfg().segment_len()],
        })
    }

    #[test]
    fn phase_transitions_enforced() {
        // nothing to recover before a round opens
        let mut idle = FederationServer::<Fp61>::new(cfg()).unwrap();
        assert_eq!(idle.close_round().unwrap_err(), ProtocolError::WrongPhase);
        let mut s = server(0, 0);
        // cannot accept aggregated shares yet
        assert_eq!(
            s.handle(agg_share(0)).unwrap_err(),
            ProtocolError::WrongPhase
        );
        // cannot recover yet, and the round stays open
        assert_eq!(
            s.close_round().unwrap_err(),
            ProtocolError::NotEnoughSurvivors { got: 0, need: 3 }
        );
        s.handle(upload(0, 0, 0)).unwrap();
    }

    #[test]
    fn close_requires_u_models() {
        let mut s = server(0, 0);
        for id in 0..2 {
            s.handle(upload(id, 0, 0)).unwrap();
        }
        assert_eq!(
            s.close_upload().unwrap_err(),
            ProtocolError::NotEnoughSurvivors { got: 2, need: 3 }
        );
    }

    #[test]
    fn non_survivor_share_rejected() {
        let mut s = server(0, 0);
        for id in 0..3 {
            s.handle(upload(id, 0, 0)).unwrap();
        }
        s.close_upload().unwrap();
        // user 3 dropped before upload
        assert_eq!(
            s.handle(agg_share(3)).unwrap_err(),
            ProtocolError::UnknownUser(3)
        );
    }

    #[test]
    fn duplicate_model_rejected() {
        let mut s = server(0, 0);
        s.handle(upload(0, 0, 0)).unwrap();
        assert_eq!(
            s.handle(upload(0, 0, 0)).unwrap_err(),
            ProtocolError::DuplicateMessage(0)
        );
    }

    #[test]
    fn envelope_is_checked_group_then_round_then_sender() {
        // an upload wrong in every way reports its group, then its
        // round, and only then counts as a duplicate
        let mut s = server(7, 3);
        s.handle(upload(0, 7, 3)).unwrap();
        assert_eq!(
            s.handle(upload(0, 6, 2)).unwrap_err(),
            ProtocolError::WrongGroup {
                got: 6,
                expected: 7
            }
        );
        assert_eq!(
            s.handle(upload(0, 7, 2)).unwrap_err(),
            ProtocolError::StaleRound { got: 2, current: 3 }
        );
        assert_eq!(
            s.handle(upload(0, 7, 3)).unwrap_err(),
            ProtocolError::DuplicateMessage(0)
        );
        // nothing is announced before the phase closes
        assert!(s.poll_output().is_none());
    }

    #[test]
    fn cross_round_upload_is_stale_not_duplicate() {
        // a round-3 server must reject a round-2 upload as StaleRound —
        // and a same-round repeat as DuplicateMessage. The two failure
        // modes are distinct typed errors.
        let mut s = server(0, 3);
        assert_eq!(s.round, 3);
        assert_eq!(
            s.handle(upload(0, 0, 2)).unwrap_err(),
            ProtocolError::StaleRound { got: 2, current: 3 }
        );
        s.handle(upload(0, 0, 3)).unwrap();
        assert_eq!(
            s.handle(upload(0, 0, 3)).unwrap_err(),
            ProtocolError::DuplicateMessage(0)
        );
    }
}
