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

use crate::config::LsaConfig;
use crate::federation::{drain_to, pump};
use crate::messages::AggregatedShare;
use crate::session::{AsyncClientSession, AsyncServerSession};
use crate::transport::Transport;
use crate::ProtocolError;
use lsa_coding::{vandermonde, VandermondeCode};
use lsa_crypto::Seed;
use lsa_field::Field;
use lsa_quantize::{QuantizedStaleness, VectorQuantizer};
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A coded mask share tagged with the generation round (Appendix F.3.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimestampedShare<F> {
    /// Mask owner.
    pub from: usize,
    /// Recipient.
    pub to: usize,
    /// Aggregation group (the buffered-async variant runs flat, so this
    /// is always 0; non-zero shares are rejected as cross-group).
    pub group: usize,
    /// Round `t_i` in which the mask was generated.
    pub round: u64,
    /// Coded segment `[~z_from^{(round)}]_to`.
    pub payload: Vec<F>,
}

/// A masked, quantized local update tagged with its base round
/// (Appendix F.3.2): `~Δ_i = Δ̄_i + z_i^{(t_i)}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimestampedUpdate<F> {
    /// Uploading user.
    pub from: usize,
    /// Aggregation group (always 0 — see [`TimestampedShare::group`]).
    pub group: usize,
    /// Round `t_i` the user based its update on.
    pub round: u64,
    /// Masked quantized update, padded length.
    pub payload: Vec<F>,
}

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

/// Client side of asynchronous LightSecAgg.
///
/// Keeps every mask it generated (per round) plus every coded share it
/// received (per sender and round), so it can serve aggregation requests
/// that mix rounds.
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
    /// Create the client for user `id`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidConfig`] if `id >= cfg.n()`.
    pub fn new(id: usize, cfg: LsaConfig) -> Result<Self, ProtocolError> {
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

    /// Offline phase for round `round`: sample `z_i^{(round)}`, encode,
    /// and return the shares for the other users. The own share is stored
    /// internally.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::DuplicateMessage`] if the round's mask was
    /// already generated.
    pub fn generate_round_mask<R: Rng + ?Sized>(
        &mut self,
        round: u64,
        rng: &mut R,
    ) -> Result<Vec<TimestampedShare<F>>, ProtocolError> {
        if self.masks.contains_key(&round) {
            return Err(ProtocolError::DuplicateMessage(self.id));
        }
        let mask = lsa_field::ops::random_vector(self.cfg.padded_len(), rng);
        let mut segments = vandermonde::partition(&mask, self.cfg.data_segments())?;
        for _ in 0..self.cfg.t() {
            segments.push(lsa_field::ops::random_vector(self.cfg.segment_len(), rng));
        }
        let coded = self.code.encode_all(&segments);
        self.masks.insert(round, mask);
        self.received
            .insert((self.id, round), coded[self.id].as_slice().into());
        let shares = (0..self.cfg.n())
            .filter(|&j| j != self.id)
            .map(|j| TimestampedShare {
                from: self.id,
                to: j,
                group: 0,
                round,
                payload: coded[j].clone(),
            })
            .collect();
        // the encoder's own segments move into the retained table
        for (j, share) in coded.into_iter().enumerate() {
            if j != self.id {
                self.sent
                    .insert((j, round), SentShare { share, edge: None });
            }
        }
        Ok(shares)
    }

    /// Accept a timestamped coded share from a peer.
    ///
    /// # Errors
    ///
    /// Mirrors [`crate::Client::receive_share`].
    pub fn receive_share(&mut self, share: TimestampedShare<F>) -> Result<(), ProtocolError> {
        if share.group != 0 {
            return Err(ProtocolError::WrongGroup {
                got: share.group,
                expected: 0,
            });
        }
        if share.to != self.id {
            return Err(ProtocolError::MisroutedShare {
                expected: self.id,
                got: share.to,
            });
        }
        if share.from >= self.cfg.n() {
            return Err(ProtocolError::UnknownUser(share.from));
        }
        if share.payload.len() != self.cfg.segment_len() {
            return Err(ProtocolError::Coding(
                lsa_coding::CodingError::LengthMismatch {
                    expected: self.cfg.segment_len(),
                    got: share.payload.len(),
                },
            ));
        }
        let key = (share.from, share.round);
        if self.received.contains_key(&key) {
            return Err(ProtocolError::DuplicateMessage(share.from));
        }
        self.received.insert(key, share.payload.into());
        Ok(())
    }

    /// Mask a quantized local update computed from base round `round`.
    ///
    /// **Privacy invariant**: each round's mask must protect at most one
    /// uploaded update — masking two *different* updates with the same
    /// `z_i^{(round)}` would let the server learn their difference.
    /// Generate a fresh round mask (with a fresh round id) per upload;
    /// the type does not consume the mask because legitimate retries of
    /// the *same* payload are safe.
    ///
    /// # Errors
    ///
    /// * [`ProtocolError::MissingShares`] if no mask was generated for the
    ///   round;
    /// * [`ProtocolError::Coding`] on length mismatch.
    pub fn mask_update(
        &self,
        round: u64,
        update: &[F],
    ) -> Result<TimestampedUpdate<F>, ProtocolError> {
        if update.len() != self.cfg.d() {
            return Err(ProtocolError::Coding(
                lsa_coding::CodingError::LengthMismatch {
                    expected: self.cfg.d(),
                    got: update.len(),
                },
            ));
        }
        let mask = self
            .masks
            .get(&round)
            .ok_or(ProtocolError::MissingShares { from: self.id })?;
        Ok(TimestampedUpdate {
            from: self.id,
            group: 0,
            round,
            payload: crate::client::add_padded(update, mask),
        })
    }

    /// Serve the server's aggregation request for the flush announced at
    /// `announced_round`: compute
    /// `Σ_entries weight · [~z_who^{(round)}]_id` (Appendix F.3.3). The
    /// response is stamped with `announced_round` so the server can
    /// reject answers to an earlier flush.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::MissingShares`] if a requested share was
    /// never received.
    pub fn aggregated_share_for(
        &self,
        announced_round: u64,
        entries: &[BufferEntry],
    ) -> Result<AggregatedShare<F>, ProtocolError> {
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
    /// means they can never be requested again).
    pub fn discard_before(&mut self, keep_from: u64) {
        self.masks.retain(|&r, _| r >= keep_from);
        self.received.retain(|&(_, r), _| r >= keep_from);
        self.sent.retain(|&(_, r), _| r >= keep_from);
    }

    /// Number of stored (sender, round) coded shares.
    pub fn shares_stored(&self) -> usize {
        self.received.len()
    }

    /// The most recent round a mask exists for, if any.
    pub fn latest_mask_round(&self) -> Option<u64> {
        self.masks.keys().next_back().copied()
    }

    /// Drop exactly one round's mask and share state — rollback of a
    /// half-built ratcheted round before falling back to a full
    /// exchange (which regenerates the round from scratch).
    pub fn forget_round(&mut self, round: u64) {
        self.masks.remove(&round);
        self.received.retain(|&(_, r), _| r != round);
        self.sent.retain(|&(_, r), _| r != round);
    }

    /// Derive the mask for `round` by ratcheting `base_round`'s retained
    /// state under `nonce` ([`crate::ratchet`]): the new mask is the
    /// base mask plus pairwise-cancelling PRG pads over the edges
    /// `topology` assigns this member, and the base round's coded
    /// shares are re-filed under `round` — by handle, the share data is
    /// not copied — so aggregation requests naming `(who, round)`
    /// resolve to the base shares (re-filing covers *every* peer
    /// regardless of topology — recovery still needs the full share
    /// set). No share traffic is produced. State
    /// from earlier *ratcheted* rounds (between the base and `round`)
    /// is dropped — only the base must stay resident.
    ///
    /// # Errors
    ///
    /// * [`ProtocolError::DuplicateMessage`] if `round` already has a
    ///   mask;
    /// * [`ProtocolError::RatchetMismatch`] if the base round's mask or
    ///   any edge peer's base share material is missing.
    pub fn ratchet_round_mask(
        &mut self,
        round: u64,
        base_round: u64,
        nonce: u64,
        topology: crate::ratchet::PadTopology,
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

    /// As [`Self::discard_before`], but additionally keeping exactly
    /// round `keep` resident — the ratchet base round, which must
    /// outlive every round derived from it. Intermediate ratcheted
    /// rounds between the base and `keep_from` are evicted, so a long
    /// stable stretch stays `O(1)` rounds of state.
    pub fn discard_before_keeping(&mut self, keep_from: u64, keep: u64) {
        self.masks.retain(|&r, _| r >= keep_from || r == keep);
        self.received
            .retain(|&(_, r), _| r >= keep_from || r == keep);
        self.sent.retain(|&(_, r), _| r >= keep_from || r == keep);
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

/// Server side of asynchronous LightSecAgg with a FedBuff-style buffer.
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
}

impl<F: Field> AsyncServer<F> {
    /// Create a server with buffer size `K` and a staleness-weighting
    /// strategy.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidConfig`] if `buffer_size == 0`.
    pub fn new(
        cfg: LsaConfig,
        buffer_size: usize,
        staleness: QuantizedStaleness,
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
        })
    }

    /// Accept a masked update at global round `now`; the staleness weight
    /// `s_{c_g}(now − update.round)` is drawn immediately. Returns `true`
    /// when the buffer is full.
    ///
    /// # Errors
    ///
    /// * [`ProtocolError::WrongPhase`] if the buffer is already full;
    /// * [`ProtocolError::Coding`] / [`ProtocolError::UnknownUser`] on
    ///   malformed input;
    /// * [`ProtocolError::StaleUpdate`] if `update.round > now`.
    pub fn receive_update<R: Rng + ?Sized>(
        &mut self,
        update: TimestampedUpdate<F>,
        now: u64,
        rng: &mut R,
    ) -> Result<bool, ProtocolError> {
        if self.announced.is_some() || self.buffer.len() >= self.buffer_size {
            return Err(ProtocolError::WrongPhase);
        }
        if update.group != 0 {
            return Err(ProtocolError::WrongGroup {
                got: update.group,
                expected: 0,
            });
        }
        if update.from >= self.cfg.n() {
            return Err(ProtocolError::UnknownUser(update.from));
        }
        if update.round > now {
            return Err(ProtocolError::StaleUpdate {
                round: update.round,
                now,
            });
        }
        if update.payload.len() != self.cfg.padded_len() {
            return Err(ProtocolError::Coding(
                lsa_coding::CodingError::LengthMismatch {
                    expected: self.cfg.padded_len(),
                    got: update.payload.len(),
                },
            ));
        }
        let tau = now - update.round;
        let weight = self.staleness.integer_weight(tau, rng);
        self.buffer.push((
            BufferEntry {
                who: update.from,
                round: update.round,
                weight,
            },
            update.payload,
        ));
        Ok(self.buffer.len() >= self.buffer_size)
    }

    /// Whether the buffer has reached capacity.
    pub fn buffer_full(&self) -> bool {
        self.buffer.len() >= self.buffer_size
    }

    /// Number of buffered updates.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Fix and announce the buffer contents (entries with weights) at
    /// flush round `round`, so users can compute weighted aggregated
    /// shares.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::WrongPhase`] until the buffer is full.
    pub fn announce(&mut self, round: u64) -> Result<Vec<BufferEntry>, ProtocolError> {
        if !self.buffer_full() {
            return Err(ProtocolError::WrongPhase);
        }
        self.announce_partial(round)
    }

    /// Announce whatever the buffer currently holds, even if not full.
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
    pub fn announce_partial(&mut self, round: u64) -> Result<Vec<BufferEntry>, ProtocolError> {
        if self.buffer.is_empty() || self.announced.is_some() {
            return Err(ProtocolError::WrongPhase);
        }
        let entries: Vec<BufferEntry> = self.buffer.iter().map(|(e, _)| *e).collect();
        self.announced = Some((round, entries.clone()));
        Ok(entries)
    }

    /// Accept a weighted aggregated share from any user; returns `true`
    /// once `U` shares arrived.
    ///
    /// # Errors
    ///
    /// Mirrors [`crate::ServerRound::receive_aggregated_share`]; a share
    /// answering a different flush round is rejected with
    /// [`ProtocolError::StaleRound`].
    pub fn receive_aggregated_share(
        &mut self,
        msg: AggregatedShare<F>,
    ) -> Result<bool, ProtocolError> {
        let Some((round, _)) = &self.announced else {
            return Err(ProtocolError::WrongPhase);
        };
        if msg.round != *round {
            return Err(ProtocolError::StaleRound {
                got: msg.round,
                current: *round,
            });
        }
        if msg.group != 0 {
            return Err(ProtocolError::WrongGroup {
                got: msg.group,
                expected: 0,
            });
        }
        if msg.from >= self.cfg.n() {
            return Err(ProtocolError::UnknownUser(msg.from));
        }
        if msg.payload.len() != self.cfg.segment_len() {
            return Err(ProtocolError::Coding(
                lsa_coding::CodingError::LengthMismatch {
                    expected: self.cfg.segment_len(),
                    got: msg.payload.len(),
                },
            ));
        }
        if self.shares.iter().any(|(from, _)| *from == msg.from) {
            return Err(ProtocolError::DuplicateMessage(msg.from));
        }
        self.shares.push((msg.from, msg.payload));
        Ok(self.shares.len() >= self.cfg.u())
    }

    /// Abandon the flush in progress — buffered updates, announcement
    /// and aggregated shares — leaving an empty buffer that accepts
    /// uploads again.
    pub(crate) fn abandon_flush(&mut self) {
        self.buffer.clear();
        self.shares.clear();
        self.announced = None;
    }

    /// Recover the weighted aggregate `Σ w_i Δ̄_i` by one-shot decoding of
    /// `Σ w_i z_i^{(t_i)}` and clear the buffer for the next round.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::WrongPhase`] before `U` shares arrive.
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
        let agg_segments = self
            .code
            .decode_prefix(&self.shares, self.cfg.data_segments())?;
        let agg_mask = vandermonde::concatenate(&agg_segments);
        lsa_field::ops::sub_assign(&mut weighted_sum, &agg_mask);
        weighted_sum.truncate(self.cfg.d());

        let total_weight = entries.iter().map(|e| e.weight).sum();
        self.buffer.clear();
        self.shares.clear();
        self.announced = None;
        Ok(WeightedAggregate {
            aggregate: weighted_sum,
            total_weight,
            entries,
        })
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
/// [`Transport`], pumping [`AsyncClientSession`]s and an
/// [`AsyncServerSession`].
///
/// Phase boundaries are flushed under the labels `"mask-exchange"`,
/// `"buffered-upload"`, `"buffer-announce"` and `"async-recovery"`. The
/// global round is `max` of the input rounds; each session's entropy
/// stream is derived from `rng` at construction, after which message
/// handling is deterministic.
///
/// # Errors
///
/// Propagates any protocol error from the sessions.
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

    let mut clients: Vec<AsyncClientSession<F>> = (0..n)
        .map(|id| AsyncClientSession::from_rng(id, cfg, rng))
        .collect::<Result<_, _>>()?;
    let mut server = AsyncServerSession::new(
        cfg,
        inputs.len(),
        staleness,
        rand::rngs::StdRng::seed_from_u64(rng.gen()),
    )?;
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
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> LsaConfig {
        LsaConfig::new(4, 1, 3, 6).unwrap()
    }

    fn staleness() -> QuantizedStaleness {
        QuantizedStaleness::new(StalenessFn::Constant, 1)
    }

    #[test]
    fn update_from_future_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut server = AsyncServer::<Fp61>::new(cfg(), 2, staleness()).unwrap();
        let upd = TimestampedUpdate {
            from: 0,
            group: 0,
            round: 5,
            payload: vec![Fp61::ZERO; cfg().padded_len()],
        };
        assert!(matches!(
            server.receive_update(upd, 3, &mut rng),
            Err(ProtocolError::StaleUpdate { round: 5, now: 3 })
        ));
    }

    #[test]
    fn buffer_fills_and_announces() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut server = AsyncServer::<Fp61>::new(cfg(), 2, staleness()).unwrap();
        assert!(matches!(server.announce(1), Err(ProtocolError::WrongPhase)));
        for (id, round) in [(0usize, 0u64), (1, 1)] {
            let full = server
                .receive_update(
                    TimestampedUpdate {
                        from: id,
                        group: 0,
                        round,
                        payload: vec![Fp61::ZERO; cfg().padded_len()],
                    },
                    1,
                    &mut rng,
                )
                .unwrap();
            assert_eq!(full, id == 1);
        }
        let entries = server.announce(1).unwrap();
        assert_eq!(entries.len(), 2);
        // constant staleness with c_g = 1 gives weight 1
        assert!(entries.iter().all(|e| e.weight == 1));
    }

    #[test]
    fn client_discard_before_prunes() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut c = AsyncClient::<Fp61>::new(0, cfg()).unwrap();
        c.generate_round_mask(0, &mut rng).unwrap();
        c.generate_round_mask(1, &mut rng).unwrap();
        c.generate_round_mask(2, &mut rng).unwrap();
        assert_eq!(c.shares_stored(), 3);
        c.discard_before(2);
        assert_eq!(c.shares_stored(), 1);
        // masking with a pruned round now fails
        assert!(c.mask_update(0, &[Fp61::ZERO; 6]).is_err());
        assert!(c.mask_update(2, &[Fp61::ZERO; 6]).is_ok());
    }

    #[test]
    fn ratcheted_masks_cancel_and_refile_shares() {
        // Full exchange at round 0, then ratchet round 1 on every client:
        // the pairwise pads must cancel over the cohort (Σ z_i^1 == Σ z_i^0)
        // and the base shares must be re-filed so aggregation requests
        // naming round 1 resolve without any new share traffic.
        let mut rng = StdRng::seed_from_u64(17);
        let cfg = cfg();
        let mut clients: Vec<AsyncClient<Fp61>> = (0..4)
            .map(|id| AsyncClient::new(id, cfg).unwrap())
            .collect();
        let mut pending = Vec::new();
        for c in clients.iter_mut() {
            pending.extend(c.generate_round_mask(0, &mut rng).unwrap());
        }
        for s in pending {
            clients[s.to].receive_share(s).unwrap();
        }
        let base_sum: Vec<Fp61> = {
            let mut acc = vec![Fp61::ZERO; cfg.padded_len()];
            for c in &clients {
                lsa_field::ops::add_assign(&mut acc, &c.masks[&0]);
            }
            acc
        };
        for c in clients.iter_mut() {
            c.ratchet_round_mask(1, 0, 0xfeed, crate::ratchet::PadTopology::Clique)
                .unwrap();
            // shares re-filed under the new round, none sent
            assert_eq!(c.shares_stored(), 8);
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
        // until eviction; discard_before_keeping then retires the
        // intermediate ratcheted round while pinning the base
        for c in clients.iter_mut() {
            c.ratchet_round_mask(2, 0, 0xbeef, crate::ratchet::PadTopology::Hypercube)
                .unwrap();
            c.discard_before_keeping(2, 0);
            assert!(!c.masks.contains_key(&1));
            assert!(c.masks.contains_key(&0), "base stays resident");
            assert_eq!(c.shares_stored(), 8);
        }
        // duplicate and missing-base cases are typed
        assert!(matches!(
            clients[0].ratchet_round_mask(2, 0, 1, crate::ratchet::PadTopology::Clique),
            Err(ProtocolError::DuplicateMessage(0))
        ));
        assert!(matches!(
            clients[0].ratchet_round_mask(5, 3, 1, crate::ratchet::PadTopology::Clique),
            Err(ProtocolError::RatchetMismatch)
        ));
    }

    /// The async ratchet against the derivation as first written
    /// ([`crate::ratchet::tests::reference_pair_pad`]), and its re-filing
    /// against the base's own allocations.
    fn ratchet_matches_reference<F: Field>() {
        use crate::ratchet::{tests::reference_pair_pad, PadTopology};
        let cfg = LsaConfig::new(6, 1, 4, 9).unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        let mut clients: Vec<AsyncClient<F>> = (0..6)
            .map(|id| AsyncClient::new(id, cfg).unwrap())
            .collect();
        let mut pending = Vec::new();
        for c in clients.iter_mut() {
            pending.extend(c.generate_round_mask(3, &mut rng).unwrap());
        }
        for s in pending {
            clients[s.to].receive_share(s).unwrap();
        }
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
            c.discard_before_keeping(round, 3);
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
        let mut rng = StdRng::seed_from_u64(9);
        let cfg = cfg();
        let mut clients: Vec<AsyncClient<Fp61>> = (0..4)
            .map(|id| AsyncClient::new(id, cfg).unwrap())
            .collect();
        let mut pending = Vec::new();
        for c in clients.iter_mut() {
            pending.extend(c.generate_round_mask(0, &mut rng).unwrap());
        }
        for s in pending {
            clients[s.to].receive_share(s).unwrap();
        }
        let mut server = AsyncServer::<Fp61>::new(cfg, 3, staleness()).unwrap();
        let update = vec![Fp61::from_u64(7); cfg.d()];
        let masked = clients[0].mask_update(0, &update).unwrap();
        server.receive_update(masked, 0, &mut rng).unwrap();
        // only 1 of 3 buffered; flush early
        assert!(matches!(server.announce(0), Err(ProtocolError::WrongPhase)));
        let entries = server.announce_partial(0).unwrap();
        assert_eq!(entries.len(), 1);
        for client in clients.iter().take(3) {
            server
                .receive_aggregated_share(client.aggregated_share_for(0, &entries).unwrap())
                .unwrap();
        }
        let agg = server.recover().unwrap();
        assert_eq!(agg.aggregate, update);
    }

    #[test]
    fn empty_partial_flush_rejected() {
        let mut server = AsyncServer::<Fp61>::new(cfg(), 3, staleness()).unwrap();
        assert!(matches!(
            server.announce_partial(0),
            Err(ProtocolError::WrongPhase)
        ));
    }

    #[test]
    fn duplicate_round_mask_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut c = AsyncClient::<Fp61>::new(0, cfg()).unwrap();
        c.generate_round_mask(0, &mut rng).unwrap();
        assert!(c.generate_round_mask(0, &mut rng).is_err());
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
