//! Buffered-asynchronous LightSecAgg (§4.2 and Appendix F of the paper).
//!
//! The server buffers `K` masked local updates that may originate from
//! *different* global rounds (staleness `τ_i = t − t_i ≤ τ_max`). Because
//! MDS coding commutes with addition, users can aggregate their stored
//! coded masks `[~z_i^{(t_i)}]_j` with the *round-matched* timestamps the
//! server announces, and the server still recovers the (staleness-
//! weighted) aggregate mask in one shot — the property SecAgg/SecAgg+
//! fundamentally lack (Remark 1).
//!
//! Staleness compensation happens inside the field via the quantized
//! weights `s_{c_g}(τ)` of Eq. (34).
//!
//! [`AsyncClient`] / [`AsyncServer`] are the persistent endpoints and
//! speak [`Session`] themselves: each owns the entropy stream injected
//! at construction, its outbox and its half of the stable-cohort
//! handshake ([`crate::ratchet`]). Local actions
//! ([`AsyncClient::generate_round_mask`], [`AsyncClient::upload_update`],
//! [`AsyncServer::announce`]) queue envelopes for
//! [`Session::poll_output`]; everything a peer sends goes through
//! [`Session::handle`]. [`BufferedVariant`]'s hooks, beside them here,
//! plug them into the leaf round driver
//! ([`crate::federation::LeafFederation`]), and [`run_buffered_flush`]
//! pumps one flush of stale contributions.

use crate::client::{add_padded, check_share, repeated, sample_mask};
use crate::config::LsaConfig;
use crate::federation::{drain_to, pump, unmask, BufferedVariant, LeafVariant, RoundOutcome};
use crate::ratchet::{self, ClientRatchet, PadTopology, ServerRatchet};
use crate::session::{Outgoing, Recipient, Session};
use crate::transport::Transport;
use crate::wire::{AggregatedShare, BufferAnnouncement, CodedMaskShare, Envelope, MaskedModel};
use crate::{check_len, ProtocolError};
use lsa_coding::VandermondeCode;
use lsa_crypto::Seed;
use lsa_field::Field;
use lsa_quantize::{QuantizedStaleness, VectorQuantizer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// A coded mask share tagged with the round its mask was generated in
/// (Appendix F.3.1): the §4.1 share under its own wire tag. The
/// buffered variant runs flat, so its group is always 0 and a share
/// stamped otherwise is rejected as cross-group.
pub type TimestampedShare<F> = CodedMaskShare<F>;

/// A masked, quantized local update tagged with its base round `t_i`
/// (Appendix F.3.2), `~Δ_i = Δ̄_i + z_i^{(t_i)}`: the §4.1 upload under
/// its own wire tag.
pub type TimestampedUpdate<F> = MaskedModel<F>;

/// One buffered entry the server announces for mask aggregation:
/// user `who` contributed an update based on round `round`, to be weighted
/// by the integer staleness weight `weight` (`= s_{c_g}(t − round)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferEntry {
    /// Contributing user.
    pub who: usize,
    /// Base round of the contribution.
    pub round: u64,
    /// Integer staleness weight `c_g·Q_{c_g}(s(τ))`.
    pub weight: u64,
}

/// Client endpoint of asynchronous LightSecAgg.
///
/// Keeps every mask it generated (per round) plus every coded share it
/// received (per sender and round), so it can serve aggregation requests
/// that mix rounds. Mask generation draws from the entropy stream
/// injected at construction; message handling never does.
#[derive(Debug, Clone)]
pub struct AsyncClient<F> {
    id: usize,
    cfg: LsaConfig,
    code: VandermondeCode<F>,
    /// Own masks by round.
    masks: BTreeMap<u64, Vec<F>>,
    /// Received coded shares keyed by `(sender, round)`. A ratcheted
    /// round files its base round's shares under its own key by handle,
    /// not by copy.
    received: BTreeMap<(usize, u64), Arc<[F]>>,
    /// Own coded shares as sent, keyed by `(recipient, round)` —
    /// retained so a stable cohort can derive pairwise ratchet pads
    /// from the share material both edge endpoints already hold
    /// ([`crate::ratchet`]).
    sent: BTreeMap<(usize, u64), SentShare<F>>,
    /// Pad-derivation epoch mixed into every ratchet pad seed; bumped
    /// in lockstep across a cohort when seats are permuted without a
    /// fresh exchange ([`crate::ratchet::reseat_epoch`]).
    pad_epoch: u64,
    entropy: StdRng,
    outbox: VecDeque<Outgoing<F>>,
    /// The client half of the stable-cohort handshake. Its base is a
    /// *round number*: that round's fully-exchanged state stays
    /// resident here.
    ratchet: ClientRatchet<u64>,
}

/// A coded share as sent to one peer in one round, with the edge secret
/// it yields.
#[derive(Debug, Clone)]
struct SentShare<F> {
    share: Vec<F>,
    /// [`crate::ratchet::pair_seed`] of this edge and round derived
    /// under the pad epoch: hashed the first time the round serves as a
    /// ratchet base in that epoch (never, for a round that is re-keyed
    /// before it ratchets), cleared by [`AsyncClient::bump_pad_epoch`]
    /// and dropped with the share.
    /// Boxed: most sent shares never pad an edge, and at leaf sizes a
    /// seed inline would add a quarter to every one of them.
    edge: Option<Box<Seed>>,
}

impl<F: Field> AsyncClient<F> {
    /// Create the client for user `id` with its own entropy stream.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidConfig`] if `id >= cfg.n()`.
    pub fn new(id: usize, cfg: LsaConfig, entropy: StdRng) -> Result<Self, ProtocolError> {
        if id >= cfg.n() {
            return Err(ProtocolError::InvalidConfig(format!(
                "client id {id} out of range for N={}",
                cfg.n()
            )));
        }
        let code = VandermondeCode::new(cfg.n(), cfg.u())?;
        Ok(Self {
            id,
            cfg,
            code,
            masks: BTreeMap::new(),
            received: BTreeMap::new(),
            sent: BTreeMap::new(),
            pad_epoch: 0,
            entropy,
            outbox: VecDeque::new(),
            ratchet: ClientRatchet::new(id, 0, cfg.ratchet().topology()),
        })
    }

    /// Advance the pad-derivation epoch (cohort reseat without a fresh
    /// exchange); every cohort member must apply the same `seed`. The
    /// cached edge seeds belong to the old epoch and are dropped; the
    /// next ratchet re-hashes them from the retained shares.
    pub fn bump_pad_epoch(&mut self, seed: u64) {
        self.pad_epoch = crate::ratchet::reseat_epoch(self.pad_epoch, seed);
        for sent in self.sent.values_mut() {
            sent.edge = None;
        }
    }

    /// This client's user index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Local action: the offline phase for `round` — sample
    /// `z_i^{(round)}` from the client's entropy stream, encode, and
    /// queue the coded shares for every other user. The own share is
    /// stored internally.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::DuplicateMessage`] if the round's mask was
    /// already generated.
    pub fn generate_round_mask(&mut self, round: u64) -> Result<(), ProtocolError> {
        if self.masks.contains_key(&round) {
            return Err(ProtocolError::DuplicateMessage(self.id));
        }
        let (mask, coded) = sample_mask(&self.code, &self.cfg, &mut self.entropy)?;
        self.masks.insert(round, mask);
        self.received
            .insert((self.id, round), coded[self.id].as_slice().into());
        // a copy of each segment goes out, the encoder's own moves into
        // the retained table
        for (j, share) in coded.into_iter().enumerate() {
            if j != self.id {
                let out = TimestampedShare {
                    from: self.id,
                    to: j,
                    group: 0,
                    round,
                    payload: share.clone(),
                };
                self.outbox
                    .push_back((Recipient::Client(j), Envelope::TimestampedShare(out)));
                self.sent
                    .insert((j, round), SentShare { share, edge: None });
            }
        }
        Ok(())
    }

    /// Local action: mask a quantized local update computed from base
    /// round `round` and queue the upload.
    ///
    /// **Privacy invariant**: each round's mask must protect at most one
    /// uploaded update — masking two *different* updates with the same
    /// `z_i^{(round)}` would let the server learn their difference.
    /// Generate a fresh round mask (with a fresh round id) per upload;
    /// the mask is not consumed because legitimate retries of the
    /// *same* payload are safe.
    ///
    /// # Errors
    ///
    /// * [`ProtocolError::MissingShares`] if no mask was generated for the
    ///   round;
    /// * [`ProtocolError::Coding`] on length mismatch.
    pub fn upload_update(&mut self, round: u64, update: &[F]) -> Result<(), ProtocolError> {
        check_len(self.cfg.d(), update.len())?;
        let mask = self
            .masks
            .get(&round)
            .ok_or(ProtocolError::MissingShares { from: self.id })?;
        let upload = TimestampedUpdate {
            from: self.id,
            group: 0,
            round,
            payload: add_padded(update, mask),
        };
        self.outbox
            .push_back((Recipient::Server, Envelope::TimestampedUpdate(upload)));
        Ok(())
    }

    /// File a timestamped coded share from a peer (its group was checked
    /// by [`Session::handle`]).
    fn receive_share(&mut self, share: TimestampedShare<F>) -> Result<(), ProtocolError> {
        check_share(&share, self.id, &self.cfg)?;
        let key = (share.from, share.round);
        if self.received.contains_key(&key) {
            return Err(ProtocolError::DuplicateMessage(share.from));
        }
        self.received.insert(key, share.payload.into());
        Ok(())
    }

    /// Serve the server's aggregation request for the flush announced at
    /// `announced_round`: compute
    /// `Σ_entries weight · [~z_who^{(round)}]_id` (Appendix F.3.3). The
    /// response is stamped with `announced_round` so the server can
    /// reject answers to an earlier flush. An entry named twice is a
    /// [`ProtocolError::DuplicateMessage`], checked before any share is
    /// looked up.
    fn aggregated_share_for(
        &self,
        announced_round: u64,
        entries: &[BufferEntry],
    ) -> Result<AggregatedShare<F>, ProtocolError> {
        if let Some((twice, _)) = repeated(entries, |e| (e.who, e.round)) {
            return Err(ProtocolError::DuplicateMessage(twice));
        }
        let mut weights = Vec::with_capacity(entries.len());
        let mut shares: Vec<&[F]> = Vec::with_capacity(entries.len());
        for e in entries {
            let share = self
                .received
                .get(&(e.who, e.round))
                .ok_or(ProtocolError::MissingShares { from: e.who })?;
            weights.push(F::from_u64(e.weight));
            shares.push(share);
        }
        let mut acc = vec![F::ZERO; self.cfg.segment_len()];
        lsa_field::ops::weighted_sum_into(&mut acc, &weights, &shares);
        Ok(AggregatedShare {
            from: self.id,
            group: 0,
            round: announced_round,
            payload: acc,
        })
    }

    /// Drop masks and shares for rounds `< keep_from` (bounded staleness
    /// means they can never be requested again). A retained ratchet base
    /// round stays resident regardless — it must outlive every round
    /// derived from it — while the ratcheted rounds between it and
    /// `keep_from` go, so a long stable stretch stays `O(1)` rounds of
    /// state.
    pub fn discard_before(&mut self, keep_from: u64) {
        let base = self.ratchet.base().copied();
        let live = |r: u64| r >= keep_from || Some(r) == base;
        self.masks.retain(|&r, _| live(r));
        self.received.retain(|&(_, r), _| live(r));
        self.sent.retain(|&(_, r), _| live(r));
    }

    /// Number of stored (sender, round) coded shares.
    pub fn shares_stored(&self) -> usize {
        self.received.len()
    }

    /// Drop exactly one round's mask, share state and unsent shares —
    /// rollback of a half-built ratcheted round or a failed full
    /// exchange before the round is joined again from scratch.
    fn forget_round(&mut self, round: u64) {
        self.masks.remove(&round);
        self.received.retain(|&(_, r), _| r != round);
        self.sent.retain(|&(_, r), _| r != round);
        self.outbox.retain(|(_, e)| e.round() != round);
    }

    /// Derive the mask for `round` by ratcheting `base_round`'s retained
    /// state under `nonce` ([`crate::ratchet`]): the new mask is the
    /// base mask plus pairwise-cancelling PRG pads over the edges
    /// `topology` assigns this member, and the base round's coded
    /// shares are re-filed under `round` — by handle, the share data is
    /// not copied — so aggregation requests naming `(who, round)`
    /// resolve to the base shares (re-filing covers *every* peer
    /// regardless of topology — recovery still needs the full share
    /// set). No share traffic is produced.
    ///
    /// # Errors
    ///
    /// * [`ProtocolError::DuplicateMessage`] if `round` already has a
    ///   mask;
    /// * [`ProtocolError::RatchetMismatch`] if the base round's mask or
    ///   any edge peer's base share material is missing.
    fn ratchet_round_mask(
        &mut self,
        round: u64,
        base_round: u64,
        nonce: u64,
        topology: PadTopology,
    ) -> Result<(), ProtocolError> {
        if self.masks.contains_key(&round) {
            return Err(ProtocolError::DuplicateMessage(self.id));
        }
        let Some(base_mask) = self.masks.get(&base_round) else {
            return Err(ProtocolError::RatchetMismatch);
        };
        let peers: Vec<usize> = self
            .received
            .keys()
            .filter(|&&(_, r)| r == base_round)
            .map(|&(j, _)| j)
            .collect();
        let mut mask = base_mask.clone();
        for j in topology.partners(&peers, self.id) {
            let Some(sent) = self.sent.get_mut(&(j, base_round)) else {
                return Err(ProtocolError::RatchetMismatch);
            };
            let recv = &self.received[&(j, base_round)];
            let edge = **sent.edge.get_or_insert_with(|| {
                let seed = crate::ratchet::pair_seed(0, base_round, self.id, j, &sent.share, recv);
                Box::new(seed.derive(self.pad_epoch))
            });
            crate::ratchet::add_pair_pad(&mut mask, edge, nonce, self.id, j);
        }
        for &j in &peers {
            let share = Arc::clone(&self.received[&(j, base_round)]);
            self.received.insert((j, round), share);
        }
        self.masks.insert(round, mask);
        Ok(())
    }

    /// Run a handshake step on the ratchet half while its derive step
    /// ([`Self::ratchet_round_mask`]) writes the rest of the client: the
    /// ratchet is held apart for the step.
    fn with_ratchet<R>(&mut self, step: impl FnOnce(&mut ClientRatchet<u64>, &mut Self) -> R) -> R {
        let idle = ClientRatchet::new(self.id, 0, PadTopology::Clique);
        let mut ratchet = std::mem::replace(&mut self.ratchet, idle);
        let out = step(&mut ratchet, self);
        self.ratchet = ratchet;
        out
    }
}

impl<F: Field> Session<F> for AsyncClient<F> {
    fn local_addr(&self) -> Recipient {
        Recipient::Client(self.id)
    }

    fn handle(&mut self, envelope: Envelope<F>) -> Result<Vec<Outgoing<F>>, ProtocolError> {
        // the buffered variant runs flat: anything stamped for another
        // group is cross-group traffic
        if envelope.group() != 0 {
            return Err(ProtocolError::WrongGroup {
                got: envelope.group(),
                expected: 0,
            });
        }
        match envelope {
            Envelope::TimestampedShare(share) => {
                self.receive_share(share)?;
                Ok(Vec::new())
            }
            Envelope::BufferAnnouncement(ann) => {
                let share = self.aggregated_share_for(ann.round, &ann.entries)?;
                Ok(vec![(Recipient::Server, Envelope::AggregatedShare(share))])
            }
            // a server commit: the shared handshake state derives the
            // round's mask from the retained base round and acks
            commit if ratchet::is_handshake(&commit) => {
                let round = commit.round();
                // a commit for an already-masked round is a replay, not
                // a fresh ratchet
                if let Some(&current) = self.masks.keys().next_back().filter(|&&r| round <= r) {
                    return Err(ProtocolError::StaleRound {
                        got: round,
                        current,
                    });
                }
                let ((), ack) = self.with_ratchet(|ratchet, client| {
                    ratchet.accept(&commit, |&mut base, nonce, topology| {
                        client.ratchet_round_mask(round, base, nonce, topology)
                    })
                })?;
                Ok(vec![ack])
            }
            other => Err(ProtocolError::UnexpectedEnvelope { kind: other.kind() }),
        }
    }

    fn poll_output(&mut self) -> Option<Outgoing<F>> {
        self.outbox.pop_front()
    }
}

/// The weighted aggregate recovered by the async server, still in the
/// field. Use [`WeightedAggregate::dequantize`] to obtain the real-valued
/// weighted-average update of Eq. (37).
#[derive(Debug, Clone)]
pub struct WeightedAggregate<F> {
    /// `Σ w_i·Δ̄_i` (field elements, length `d`).
    pub aggregate: Vec<F>,
    /// `Σ w_i` — the integer normalizer.
    pub total_weight: u64,
    /// The buffer entries that contributed.
    pub entries: Vec<BufferEntry>,
}

impl<F: Field> WeightedAggregate<F> {
    /// Convert to the real-valued *weighted average* update
    /// `Σ w_i Q_{c_l}(Δ_i) / Σ w_i` (Eq. 37), given the quantizer used by
    /// the clients.
    pub fn dequantize(&self, quantizer: &VectorQuantizer) -> Vec<f64> {
        quantizer.dequantize_sum(&self.aggregate, self.total_weight.max(1))
    }
}

/// Server endpoint of asynchronous LightSecAgg, with a FedBuff-style
/// buffer.
///
/// The global round clock advances only through
/// [`AsyncServer::advance_to`]; staleness-weight randomness comes from
/// the entropy stream injected at construction.
#[derive(Debug, Clone)]
pub struct AsyncServer<F> {
    cfg: LsaConfig,
    code: VandermondeCode<F>,
    staleness: QuantizedStaleness,
    buffer_size: usize,
    buffer: Vec<(BufferEntry, Vec<F>)>,
    shares: Vec<(usize, Vec<F>)>,
    /// `(flush round, entries)` once announced.
    announced: Option<(u64, Vec<BufferEntry>)>,
    entropy: StdRng,
    now: u64,
    outbox: VecDeque<Outgoing<F>>,
    /// The server half of the stable-cohort handshake: the commit in
    /// flight and its queued announcements.
    ratchet: ServerRatchet<F>,
}

impl<F: Field> AsyncServer<F> {
    /// Create a server with buffer size `K`, a staleness-weighting
    /// strategy and its own entropy stream.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidConfig`] if `buffer_size == 0`.
    pub fn new(
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
        let code = VandermondeCode::new(cfg.n(), cfg.u())?;
        Ok(Self {
            cfg,
            code,
            staleness,
            buffer_size,
            buffer: Vec::new(),
            shares: Vec::new(),
            announced: None,
            entropy,
            now: 0,
            outbox: VecDeque::new(),
            ratchet: ServerRatchet::new(0),
        })
    }

    /// Local action: advance the global round clock (never backwards).
    pub fn advance_to(&mut self, round: u64) {
        self.now = self.now.max(round);
    }

    /// Buffer a masked update; the staleness weight
    /// `s_{c_g}(now − update.round)` is drawn immediately. Checked after
    /// its group ([`Session::handle`]): phase, then round, then sender.
    fn receive_update(&mut self, update: TimestampedUpdate<F>) -> Result<(), ProtocolError> {
        if self.announced.is_some() || self.buffer_full() {
            return Err(ProtocolError::WrongPhase);
        }
        if update.round > self.now {
            return Err(ProtocolError::StaleUpdate {
                round: update.round,
                now: self.now,
            });
        }
        if update.from >= self.cfg.n() {
            return Err(ProtocolError::UnknownUser(update.from));
        }
        check_len(self.cfg.padded_len(), update.payload.len())?;
        // one contribution per client and base round: a redelivered
        // upload would otherwise be summed (and weighted) twice
        let key = (update.from, update.round);
        if self.buffer.iter().any(|(e, _)| (e.who, e.round) == key) {
            return Err(ProtocolError::DuplicateMessage(update.from));
        }
        let weight = self
            .staleness
            .integer_weight(self.now - update.round, &mut self.entropy);
        let entry = BufferEntry {
            who: update.from,
            round: update.round,
            weight,
        };
        self.buffer.push((entry, update.payload));
        Ok(())
    }

    /// Whether the buffer has reached capacity.
    pub fn buffer_full(&self) -> bool {
        self.buffer.len() >= self.buffer_size
    }

    /// Number of buffered updates.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Local action: fix the (full) buffer and queue a
    /// [`BufferAnnouncement`] (stamped with the current round) to every
    /// user, so users can compute weighted aggregated shares.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::WrongPhase`] until the buffer is full.
    pub fn announce(&mut self) -> Result<(), ProtocolError> {
        if !self.buffer_full() {
            return Err(ProtocolError::WrongPhase);
        }
        self.announce_partial()
    }

    /// Local action: announce whatever the buffer currently holds, even
    /// if not full.
    ///
    /// §4.2 of the paper notes the aggregated group size "does not need
    /// to be fixed in all rounds" — this supports deadline-triggered
    /// flushes where the server aggregates a partial buffer rather than
    /// waiting for `K` stragglers.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::WrongPhase`] if the buffer is empty or a
    /// round is already announced.
    pub fn announce_partial(&mut self) -> Result<(), ProtocolError> {
        if self.buffer.is_empty() || self.announced.is_some() {
            return Err(ProtocolError::WrongPhase);
        }
        let entries: Vec<BufferEntry> = self.buffer.iter().map(|(e, _)| *e).collect();
        for id in 0..self.cfg.n() {
            let announcement = BufferAnnouncement {
                group: 0,
                round: self.now,
                entries: entries.clone(),
            };
            self.outbox.push_back((
                Recipient::Client(id),
                Envelope::BufferAnnouncement(announcement),
            ));
        }
        self.announced = Some((self.now, entries));
        Ok(())
    }

    /// Accept a weighted aggregated share from any user. Checked after
    /// its group ([`Session::handle`]): phase, then the flush round
    /// (a share answering another flush is
    /// [`ProtocolError::StaleRound`]), then sender.
    fn receive_aggregated_share(&mut self, msg: AggregatedShare<F>) -> Result<(), ProtocolError> {
        let Some((round, _)) = &self.announced else {
            return Err(ProtocolError::WrongPhase);
        };
        if msg.round != *round {
            return Err(ProtocolError::StaleRound {
                got: msg.round,
                current: *round,
            });
        }
        if msg.from >= self.cfg.n() {
            return Err(ProtocolError::UnknownUser(msg.from));
        }
        check_len(self.cfg.segment_len(), msg.payload.len())?;
        if self.shares.iter().any(|(from, _)| *from == msg.from) {
            return Err(ProtocolError::DuplicateMessage(msg.from));
        }
        self.shares.push((msg.from, msg.payload));
        Ok(())
    }

    /// Local action: recover the weighted aggregate `Σ w_i Δ̄_i` by
    /// one-shot decoding of `Σ w_i z_i^{(t_i)}` once `U` aggregated
    /// shares have arrived, and clear the buffer for the next round.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::WrongPhase`] before an announcement,
    /// [`ProtocolError::NotEnoughSurvivors`] before `U` shares arrive.
    pub fn recover(&mut self) -> Result<WeightedAggregate<F>, ProtocolError> {
        let Some((_, entries)) = self.announced.clone() else {
            return Err(ProtocolError::WrongPhase);
        };
        if self.shares.len() < self.cfg.u() {
            return Err(ProtocolError::NotEnoughSurvivors {
                got: self.shares.len(),
                need: self.cfg.u(),
            });
        }
        // Σ w_i ~Δ_i over the buffer: one fused widened pass, reduced
        // once per element instead of once per buffered update.
        let mut weighted_sum = vec![F::ZERO; self.cfg.padded_len()];
        let weights: Vec<F> = self
            .buffer
            .iter()
            .map(|(entry, _)| F::from_u64(entry.weight))
            .collect();
        let payloads: Vec<&[F]> = self.buffer.iter().map(|(_, p)| p.as_slice()).collect();
        lsa_field::ops::weighted_sum_into(&mut weighted_sum, &weights, &payloads);
        // One-shot decode of Σ w_i z_i^{(t_i)} (coding commutes with the
        // weighted sum because the weights are scalars).
        let aggregate = unmask(&self.code, &self.cfg, &self.shares, weighted_sum)?;

        let total_weight = entries.iter().map(|e| e.weight).sum();
        self.buffer.clear();
        self.shares.clear();
        self.announced = None;
        Ok(WeightedAggregate {
            aggregate,
            total_weight,
            entries,
        })
    }
}

impl<F: Field> Session<F> for AsyncServer<F> {
    fn local_addr(&self) -> Recipient {
        Recipient::Server
    }

    fn handle(&mut self, envelope: Envelope<F>) -> Result<Vec<Outgoing<F>>, ProtocolError> {
        // group, then round, then sender, like every other endpoint:
        // the buffered variant runs flat, so the group comes first
        if envelope.group() != 0 {
            return Err(ProtocolError::WrongGroup {
                got: envelope.group(),
                expected: 0,
            });
        }
        match envelope {
            Envelope::TimestampedUpdate(update) => self.receive_update(update)?,
            Envelope::AggregatedShare(share) => self.receive_aggregated_share(share)?,
            ack if ratchet::is_handshake(&ack) => self.ratchet.handle(&ack)?,
            other => return Err(ProtocolError::UnexpectedEnvelope { kind: other.kind() }),
        }
        Ok(Vec::new())
    }

    fn poll_output(&mut self) -> Option<Outgoing<F>> {
        self.ratchet
            .poll_output()
            .or_else(|| self.outbox.pop_front())
    }
}

/// The §4.2 hooks of the leaf round driver
/// ([`crate::federation::LeafFederation`]).
impl<F: Field> LeafVariant<F> for BufferedVariant {
    type Client = AsyncClient<F>;
    type Server = AsyncServer<F>;
    /// The base *round*: its state stays resident in the client.
    type Base = u64;

    fn client_ratchet(client: &mut Self::Client) -> &mut ClientRatchet<u64> {
        &mut client.ratchet
    }

    fn server_ratchet(server: &mut Self::Server) -> &mut ServerRatchet<F> {
        &mut server.ratchet
    }

    fn join(client: &mut Self::Client, round: u64) -> Result<(), ProtocolError> {
        client.generate_round_mask(round)
    }

    fn ratchet_join(client: &mut Self::Client, round: u64) -> Result<(), ProtocolError> {
        client.with_ratchet(|ratchet, client| {
            ratchet.join(round, |&mut base, nonce, topology| {
                client.ratchet_round_mask(round, base, nonce, topology)
            })
        })
    }

    fn upload(client: &mut Self::Client, round: u64, update: &[F]) -> Result<(), ProtocolError> {
        client.upload_update(round, update)
    }

    fn retire(client: &mut Self::Client, round: u64) {
        // bounded memory: masks for finished rounds can never be
        // requested again (a retained base round is kept alive by the
        // clamp in `discard_before`)
        client.discard_before(round);
    }

    fn discard(client: &mut Self::Client, round: u64) {
        client.forget_round(round);
    }

    fn harvest(client: &mut Self::Client, round: u64, fingerprint: u64) {
        client.ratchet.harvest(round, fingerprint);
    }

    fn open(server: &mut Self::Server, round: u64) -> Result<(), ProtocolError> {
        server.advance_to(round);
        Ok(())
    }

    fn close_upload(server: &mut Self::Server) -> Result<(), ProtocolError> {
        // fix whatever the buffer holds (§4.2: the group size need not
        // be fixed across rounds)
        server.announce_partial()
    }

    fn close(server: &mut Self::Server, round: u64) -> Result<RoundOutcome<F>, ProtocolError> {
        let recovered = server.recover()?;
        let mut contributors: Vec<usize> = recovered.entries.iter().map(|e| e.who).collect();
        contributors.sort_unstable();
        contributors.dedup();
        Ok(RoundOutcome {
            round,
            aggregate: recovered.aggregate,
            contributors,
            total_weight: recovered.total_weight,
        })
    }

    fn abort(server: &mut Self::Server) {
        // the server is persistent: left alone, the dead round's buffer
        // and announcement would refuse every later upload
        server.buffer.clear();
        server.shares.clear();
        server.announced = None;
        server.outbox.clear();
    }
}

/// One buffered contribution fed to [`run_buffered_flush`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlushInput<F> {
    /// The contributing user (buffer slot owner).
    pub slot: usize,
    /// The base round the update was computed from.
    pub round: u64,
    /// The quantized update (length `cfg.d()`).
    pub update: Vec<F>,
}

/// Thin driver: run one buffered-asynchronous flush over an explicit
/// [`Transport`], pumping fresh [`AsyncClient`]s and an [`AsyncServer`].
///
/// Phase boundaries are flushed under the labels `"mask-exchange"`,
/// `"buffered-upload"`, `"buffer-announce"` and `"async-recovery"`. The
/// global round is `max` of the input rounds; each endpoint's entropy
/// stream is derived from `rng` at construction (the clients', then
/// the server's), after which message handling is deterministic.
///
/// # Errors
///
/// Propagates any protocol error from the endpoints.
pub fn run_buffered_flush<F: Field, R: Rng + ?Sized, T: Transport<F>>(
    cfg: LsaConfig,
    inputs: &[FlushInput<F>],
    staleness: QuantizedStaleness,
    rng: &mut R,
    transport: &mut T,
) -> Result<WeightedAggregate<F>, ProtocolError> {
    if inputs.is_empty() {
        return Err(ProtocolError::InvalidConfig("empty flush".into()));
    }
    let n = cfg.n();
    if let Some(bad) = inputs.iter().find(|i| i.slot >= n) {
        return Err(ProtocolError::UnknownUser(bad.slot));
    }
    let now = inputs.iter().map(|i| i.round).max().expect("non-empty");

    let mut clients: Vec<AsyncClient<F>> = (0..n)
        .map(|id| AsyncClient::new(id, cfg, StdRng::seed_from_u64(rng.gen())))
        .collect::<Result<_, _>>()?;
    let entropy = StdRng::seed_from_u64(rng.gen());
    let mut server = AsyncServer::new(cfg, inputs.len(), staleness, entropy)?;
    server.advance_to(now);

    // Offline: each contributing slot generates its round mask and the
    // coded shares travel to every peer. Nobody vanishes mid-flush.
    let everyone: BTreeSet<usize> = (0..n).collect();
    for input in inputs {
        clients[input.slot].generate_round_mask(input.round)?;
    }
    for client in clients.iter_mut() {
        drain_to(client, transport, &everyone)?;
    }
    transport.flush("mask-exchange");
    pump(transport, &mut server, &mut clients, &everyone)?;

    // Upload: masked, round-stamped updates.
    for input in inputs {
        clients[input.slot].upload_update(input.round, &input.update)?;
        drain_to(&mut clients[input.slot], transport, &everyone)?;
    }
    transport.flush("buffered-upload");
    pump(transport, &mut server, &mut clients, &everyone)?;

    // Recovery: announce the buffer, collect weighted aggregated shares.
    server.announce()?;
    drain_to(&mut server, transport, &everyone)?;
    transport.flush("buffer-announce");
    pump(transport, &mut server, &mut clients, &everyone)?;
    transport.flush("async-recovery");
    pump(transport, &mut server, &mut clients, &everyone)?;

    server.recover()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_field::Fp61;
    use lsa_quantize::StalenessFn;

    fn cfg() -> LsaConfig {
        LsaConfig::new(4, 1, 3, 6).unwrap()
    }

    fn staleness() -> QuantizedStaleness {
        QuantizedStaleness::new(StalenessFn::Constant, 1)
    }

    fn server(buffer_size: usize, seed: u64) -> AsyncServer<Fp61> {
        AsyncServer::new(cfg(), buffer_size, staleness(), StdRng::seed_from_u64(seed)).unwrap()
    }

    /// `cfg.n()` clients after the full offline exchange of every round
    /// in `rounds`.
    fn exchanged<F: Field>(
        cfg: LsaConfig,
        rounds: std::ops::Range<u64>,
        seed: u64,
    ) -> Vec<AsyncClient<F>> {
        let mut clients: Vec<AsyncClient<F>> = (0..cfg.n())
            .map(|id| AsyncClient::new(id, cfg, StdRng::seed_from_u64(seed + id as u64)).unwrap())
            .collect();
        for round in rounds {
            let mut pending = Vec::new();
            for c in clients.iter_mut() {
                c.generate_round_mask(round).unwrap();
                pending.extend(std::iter::from_fn(|| c.poll_output()));
            }
            for (to, share) in pending {
                let Recipient::Client(j) = to else {
                    unreachable!()
                };
                clients[j].handle(share).unwrap();
            }
        }
        clients
    }

    /// Client `c`'s upload of `update` under base round `round`.
    fn upload(c: &mut AsyncClient<Fp61>, round: u64, update: &[Fp61]) -> Envelope<Fp61> {
        c.upload_update(round, update).unwrap();
        c.poll_output().unwrap().1
    }

    /// Deliver the server's queued announcements to the `answering`
    /// clients and their aggregated shares back.
    fn serve(
        server: &mut AsyncServer<Fp61>,
        clients: &mut [AsyncClient<Fp61>],
        answering: &[usize],
    ) {
        while let Some((to, announcement)) = server.poll_output() {
            let Recipient::Client(j) = to else {
                unreachable!()
            };
            if answering.contains(&j) {
                for (_, reply) in clients[j].handle(announcement).unwrap() {
                    server.handle(reply).unwrap();
                }
            }
        }
    }

    fn announced(server: &AsyncServer<Fp61>) -> &[BufferEntry] {
        &server.announced.as_ref().expect("announced").1
    }

    #[test]
    fn update_from_future_rejected() {
        let mut server = server(2, 1);
        server.advance_to(3);
        let upd = TimestampedUpdate {
            from: 0,
            group: 0,
            round: 5,
            payload: vec![Fp61::ZERO; cfg().padded_len()],
        };
        assert!(matches!(
            server.handle(Envelope::TimestampedUpdate(upd)),
            Err(ProtocolError::StaleUpdate { round: 5, now: 3 })
        ));
    }

    #[test]
    fn buffer_fills_and_announces() {
        let mut server = server(2, 2);
        server.advance_to(1);
        assert!(matches!(server.announce(), Err(ProtocolError::WrongPhase)));
        for (id, round) in [(0usize, 0u64), (1, 1)] {
            server
                .handle(Envelope::TimestampedUpdate(TimestampedUpdate {
                    from: id,
                    group: 0,
                    round,
                    payload: vec![Fp61::ZERO; cfg().padded_len()],
                }))
                .unwrap();
            assert_eq!(server.buffer_full(), id == 1);
        }
        server.announce().unwrap();
        let entries = announced(&server);
        assert_eq!(entries.len(), 2);
        // constant staleness with c_g = 1 gives weight 1
        assert!(entries.iter().all(|e| e.weight == 1));
    }

    #[test]
    fn client_discard_before_prunes() {
        let mut c = AsyncClient::<Fp61>::new(0, cfg(), StdRng::seed_from_u64(3)).unwrap();
        c.generate_round_mask(0).unwrap();
        c.generate_round_mask(1).unwrap();
        c.generate_round_mask(2).unwrap();
        assert_eq!(c.shares_stored(), 3);
        c.discard_before(2);
        assert_eq!(c.shares_stored(), 1);
        // masking with a pruned round now fails
        assert!(c.upload_update(0, &[Fp61::ZERO; 6]).is_err());
        assert!(c.upload_update(2, &[Fp61::ZERO; 6]).is_ok());
    }

    #[test]
    fn ratcheted_masks_cancel_and_refile_shares() {
        // Full exchange at round 0, then ratchet round 1 on every client:
        // the pairwise pads must cancel over the cohort (Σ z_i^1 == Σ z_i^0)
        // and the base shares must be re-filed so aggregation requests
        // naming round 1 resolve without any new share traffic.
        let cfg = cfg();
        let mut clients = exchanged::<Fp61>(cfg, 0..1, 17);
        let base_sum: Vec<Fp61> = {
            let mut acc = vec![Fp61::ZERO; cfg.padded_len()];
            for c in &clients {
                lsa_field::ops::add_assign(&mut acc, &c.masks[&0]);
            }
            acc
        };
        for c in clients.iter_mut() {
            c.ratchet_round_mask(1, 0, 0xfeed, PadTopology::Clique)
                .unwrap();
            // shares re-filed under the new round, none sent
            assert_eq!(c.shares_stored(), 8);
            assert!(c.poll_output().is_none());
        }
        let mut ratchet_sum = vec![Fp61::ZERO; cfg.padded_len()];
        for c in &clients {
            lsa_field::ops::add_assign(&mut ratchet_sum, &c.masks[&1]);
            // each individual mask is fresh, not the base replayed
            assert_ne!(c.masks[&1], c.masks[&0]);
            assert_eq!(c.received[&(0, 1)], c.received[&(0, 0)]);
        }
        assert_eq!(ratchet_sum, base_sum);
        // a second ratchet from the same base coexists with round 1
        // until eviction; with round 0 retained as the ratchet base,
        // discard_before then retires the intermediate ratcheted round
        // while pinning the base
        for c in clients.iter_mut() {
            c.ratchet_round_mask(2, 0, 0xbeef, PadTopology::Hypercube)
                .unwrap();
            c.ratchet.harvest(0, 0);
            c.discard_before(2);
            assert!(!c.masks.contains_key(&1));
            assert!(c.masks.contains_key(&0), "base stays resident");
            assert_eq!(c.shares_stored(), 8);
        }
        // duplicate and missing-base cases are typed
        assert!(matches!(
            clients[0].ratchet_round_mask(2, 0, 1, PadTopology::Clique),
            Err(ProtocolError::DuplicateMessage(0))
        ));
        assert!(matches!(
            clients[0].ratchet_round_mask(5, 3, 1, PadTopology::Clique),
            Err(ProtocolError::RatchetMismatch)
        ));
    }

    /// The async ratchet against the derivation as first written
    /// ([`crate::ratchet::tests::reference_pair_pad`]), and its re-filing
    /// against the base's own allocations.
    fn ratchet_matches_reference<F: Field>() {
        use crate::ratchet::tests::reference_pair_pad;
        let cfg = LsaConfig::new(6, 1, 4, 9).unwrap();
        let mut clients = exchanged::<F>(cfg, 3..4, 23);
        let peers: Vec<usize> = (0..6).collect();
        for c in clients.iter_mut() {
            let mut round = 4;
            for bumped in [false, true] {
                if bumped {
                    // a seed of the old epoch that survived the bump
                    // would still cancel pairwise: only the reference
                    // below can tell
                    c.bump_pad_epoch(0xD00D);
                    assert!(c.sent.values().all(|s| s.edge.is_none()));
                }
                for topology in [PadTopology::Clique, PadTopology::Hypercube] {
                    // twice per setting: the first derivation may hash
                    // an edge secret, the second only reads it back
                    for nonce in [0xA1u64, 0xB2] {
                        let mut want = c.masks[&3].clone();
                        for j in topology.partners(&peers, c.id) {
                            let sent = &c.sent[&(j, 3)].share;
                            let recv = &c.received[&(j, 3)];
                            reference_pair_pad(
                                &mut want,
                                0,
                                3,
                                c.pad_epoch,
                                nonce,
                                c.id,
                                j,
                                sent,
                                recv,
                            );
                        }
                        c.ratchet_round_mask(round, 3, nonce, topology).unwrap();
                        assert_eq!(c.masks[&round], want, "{topology:?} bumped={bumped}");
                        for &j in &peers {
                            let (base, refiled) = (&c.received[&(j, 3)], &c.received[&(j, round)]);
                            assert!(Arc::ptr_eq(base, refiled), "re-filed by handle");
                        }
                        round += 1;
                    }
                }
            }
            // every edge was hashed by the clique rounds, once
            assert!(c.sent.values().all(|s| s.edge.is_some()));
            // evicting the derived rounds leaves each base share with
            // its one original owner
            c.ratchet.harvest(3, 0);
            c.discard_before(round);
            assert_eq!(c.shares_stored(), 6);
            assert!(c.received.values().all(|s| Arc::strong_count(s) == 1));
            // and dropping the base drops its edge secrets with it
            c.forget_round(3);
            assert!(c.sent.is_empty());
        }
    }

    #[test]
    fn ratcheted_mask_matches_reference_derivation_fp61() {
        ratchet_matches_reference::<Fp61>();
    }

    #[test]
    fn ratcheted_mask_matches_reference_derivation_fp32() {
        ratchet_matches_reference::<lsa_field::Fp32>();
    }

    #[test]
    fn partial_flush_aggregates_fewer_than_k() {
        // §4.2: the group size may vary per round — a deadline flush with
        // 1 < K entries still recovers exactly.
        let cfg = cfg();
        let mut clients = exchanged::<Fp61>(cfg, 0..1, 9);
        let mut server = server(3, 9);
        let update = vec![Fp61::from_u64(7); cfg.d()];
        server.handle(upload(&mut clients[0], 0, &update)).unwrap();
        // only 1 of 3 buffered; flush early
        assert!(matches!(server.announce(), Err(ProtocolError::WrongPhase)));
        server.announce_partial().unwrap();
        assert_eq!(announced(&server).len(), 1);
        serve(&mut server, &mut clients, &[0, 1, 2]);
        let agg = server.recover().unwrap();
        assert_eq!(agg.aggregate, update);
    }

    #[test]
    fn empty_partial_flush_rejected() {
        let mut server = server(3, 0);
        assert!(matches!(
            server.announce_partial(),
            Err(ProtocolError::WrongPhase)
        ));
    }

    #[test]
    fn duplicate_round_mask_rejected() {
        let mut c = AsyncClient::<Fp61>::new(0, cfg(), StdRng::seed_from_u64(4)).unwrap();
        c.generate_round_mask(0).unwrap();
        assert!(c.generate_round_mask(0).is_err());
    }

    #[test]
    fn redelivered_upload_is_rejected_and_summed_once() {
        // the same (client, base round) twice is a duplicate that leaves
        // the buffer as it was; the same client on another base round is
        // a second §4.2 contribution
        let cfg = cfg();
        let mut clients = exchanged::<Fp61>(cfg, 0..2, 41);
        let mut server = server(4, 42);
        server.advance_to(1);
        let ones = vec![Fp61::from_u64(1); cfg.d()];
        let first = upload(&mut clients[0], 0, &ones);
        server.handle(first.clone()).unwrap();
        assert_eq!(
            server.handle(first).unwrap_err(),
            ProtocolError::DuplicateMessage(0)
        );
        assert_eq!(server.buffered(), 1);
        let twos = vec![Fp61::from_u64(2); cfg.d()];
        server.handle(upload(&mut clients[1], 0, &twos)).unwrap();
        let fours = vec![Fp61::from_u64(4); cfg.d()];
        server.handle(upload(&mut clients[0], 1, &fours)).unwrap();
        server.announce_partial().unwrap();
        serve(&mut server, &mut clients, &[0, 1, 2]);
        let agg = server.recover().unwrap();
        assert_eq!(agg.aggregate, vec![Fp61::from_u64(7); cfg.d()]);
        assert_eq!(agg.total_weight, 3);
    }

    #[test]
    fn buffered_envelope_is_checked_group_then_round_then_sender() {
        // through `Session::handle`: an envelope wrong in every way
        // reports its group, then its round, and only then its sender —
        // before and after the announcement
        let mut s = server(2, 5);
        s.advance_to(3);
        let upload = |group, round| {
            Envelope::TimestampedUpdate(TimestampedUpdate {
                from: 0,
                group,
                round,
                payload: vec![Fp61::ZERO; cfg().padded_len()],
            })
        };
        s.handle(upload(0, 3)).unwrap();
        assert_eq!(
            s.handle(upload(6, 9)).unwrap_err(),
            ProtocolError::WrongGroup {
                got: 6,
                expected: 0
            }
        );
        assert_eq!(
            s.handle(upload(0, 9)).unwrap_err(),
            ProtocolError::StaleUpdate { round: 9, now: 3 }
        );
        assert_eq!(
            s.handle(upload(0, 3)).unwrap_err(),
            ProtocolError::DuplicateMessage(0)
        );
        s.announce_partial().unwrap();
        assert_eq!(
            s.handle(upload(6, 3)).unwrap_err(),
            ProtocolError::WrongGroup {
                got: 6,
                expected: 0
            }
        );
        let share = |from, group, round| {
            Envelope::AggregatedShare(AggregatedShare {
                from,
                group,
                round,
                payload: vec![Fp61::ZERO; cfg().segment_len()],
            })
        };
        assert_eq!(
            s.handle(share(9, 6, 99)).unwrap_err(),
            ProtocolError::WrongGroup {
                got: 6,
                expected: 0
            }
        );
        assert_eq!(
            s.handle(share(9, 0, 99)).unwrap_err(),
            ProtocolError::StaleRound {
                got: 99,
                current: 3
            }
        );
        assert_eq!(
            s.handle(share(9, 0, 3)).unwrap_err(),
            ProtocolError::UnknownUser(9)
        );
        s.handle(share(0, 0, 3)).unwrap();
        assert_eq!(
            s.handle(share(0, 0, 3)).unwrap_err(),
            ProtocolError::DuplicateMessage(0)
        );
    }

    #[test]
    fn announced_entry_named_twice_is_rejected_not_summed_twice() {
        // through `Session::handle`: a repeated (sender, base round) is
        // reported before any share is looked up, even one never
        // received; the same sender on another base round is not a
        // repeat
        let mut clients = exchanged::<Fp61>(cfg(), 0..2, 43);
        let ann = |entries: &[(usize, u64)]| {
            Envelope::BufferAnnouncement(BufferAnnouncement {
                group: 0,
                round: 1,
                entries: entries
                    .iter()
                    .map(|&(who, round)| BufferEntry {
                        who,
                        round,
                        weight: 1,
                    })
                    .collect(),
            })
        };
        let c = &mut clients[1];
        assert_eq!(
            c.handle(ann(&[(0, 0), (2, 0), (0, 0)])).unwrap_err(),
            ProtocolError::DuplicateMessage(0)
        );
        assert_eq!(
            c.handle(ann(&[(2, 1), (9, 0), (2, 1)])).unwrap_err(),
            ProtocolError::DuplicateMessage(2)
        );
        // none of the rejections cost the client anything
        let replies = c.handle(ann(&[(0, 0), (2, 0), (0, 1)])).unwrap();
        assert_eq!(replies.len(), 1);
    }

    #[test]
    fn buffered_flush_driver_recovers_weighted_sum() {
        // mixed base rounds through the session driver over a wire:
        // Poly staleness at c_g = 4 gives exact weights 4 (τ=0), 2 (τ=1)
        let cfg = LsaConfig::new(4, 1, 3, 6).unwrap();
        let staleness = QuantizedStaleness::new(lsa_quantize::StalenessFn::Poly { alpha: 1.0 }, 4);
        let inputs = vec![
            FlushInput {
                slot: 0,
                round: 1,
                update: vec![Fp61::from_u64(10); 6],
            },
            FlushInput {
                slot: 2,
                round: 0,
                update: vec![Fp61::from_u64(3); 6],
            },
        ];
        let mut rng = StdRng::seed_from_u64(20);
        let mut transport = crate::transport::MemTransport::new();
        let agg = run_buffered_flush(cfg, &inputs, staleness, &mut rng, &mut transport).unwrap();
        assert_eq!(agg.total_weight, 6);
        // 4·10 + 2·3 = 46 in every coordinate
        assert_eq!(agg.aggregate, vec![Fp61::from_u64(46); 6]);
        // every phase actually crossed the wire
        assert!(transport.messages_sent() > 0);
    }

    #[test]
    fn out_of_range_slot_rejected_not_panicking() {
        let cfg = LsaConfig::new(4, 1, 3, 6).unwrap();
        let inputs = vec![FlushInput {
            slot: 7,
            round: 0,
            update: vec![Fp61::ZERO; 6],
        }];
        let mut rng = StdRng::seed_from_u64(22);
        let mut transport = crate::transport::MemTransport::new();
        assert!(matches!(
            run_buffered_flush(cfg, &inputs, staleness(), &mut rng, &mut transport),
            Err(ProtocolError::UnknownUser(7))
        ));
    }

    #[test]
    fn empty_flush_rejected() {
        let cfg = LsaConfig::new(4, 1, 3, 6).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let mut transport = crate::transport::MemTransport::new();
        assert!(matches!(
            run_buffered_flush::<Fp61, _, _>(cfg, &[], staleness(), &mut rng, &mut transport),
            Err(ProtocolError::InvalidConfig(_))
        ));
    }
}
