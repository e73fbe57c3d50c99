//! The LightSecAgg client (user): one persistent [`FederationClient`]
//! per user across the whole run, for synchronous FL (Algorithm 1 and
//! §4.1 of the paper) and for buffered-asynchronous FL (§4.2 and
//! Appendix F), whose user runs the same offline phase.

use crate::asynchronous::BufferEntry;
use crate::config::LsaConfig;
use crate::ratchet::{self, ClientRatchet};
use crate::session::{Outgoing, Recipient, Session};
use crate::wire::{AggregatedShare, CodedMaskShare, Envelope, EnvelopeKind, MaskedModel};
use crate::{check_len, ProtocolError};
use lsa_coding::VandermondeCode;
use lsa_crypto::Seed;
use lsa_field::Field;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{BTreeMap, VecDeque};
use std::mem;
use std::sync::{Arc, OnceLock};

/// A LightSecAgg user: one entity across the whole training run, holding
/// the state of each *live* round and routing incoming envelopes by
/// their round id.
///
/// Lifecycle per round (Algorithm 1 of the paper):
///
/// 1. [`Self::prepare`] — samples the local mask `z_i` and the `T` noise
///    segments, and encodes the `N` coded segments (offline phase,
///    overlappable with training);
/// 2. [`Session::poll_output`] / [`Session::handle`] — exchange
///    `[~z_i]_j` with every other user. Each of the `N − 1` coded
///    segments moves into its envelope as it is polled, so once the
///    shares are out the client holds none of them: what it keeps is
///    its draw (the mask and the noise segments), from which a ratchet
///    base re-encodes the few shares its pad edges hash;
/// 3. [`Self::upload`] — queue the masked model `~x_i = x_i + z_i`;
/// 4. handling the server's [`crate::SurvivorAnnouncement`] — if
///    surviving, answer `Σ_{i∈U₁} [~z_i]_j` for the server's one-shot
///    recovery.
///
/// The §4.2 user ([`Self::timestamped`]) runs the same rounds. Its
/// shares and uploads go out under the
/// [`crate::asynchronous::TimestampedShare`] /
/// [`crate::asynchronous::TimestampedUpdate`] tags, and it answers a
/// [`crate::wire::BufferAnnouncement`] instead: `Σ weight · [~z_who^{(round)}]_j`
/// over the live rounds the buffer entries name (Appendix F.3.3). Each
/// kind of client rejects the other's share and announcement tags with
/// [`ProtocolError::UnexpectedEnvelope`].
///
/// Holding two adjacent rounds at once is the normal state: round `t`
/// is online while round `t+1`'s masks are being shared. An envelope for
/// a *near-future* round (within `LOOKAHEAD` (2) of the newest live
/// round) that arrives before this client joined it — a peer raced
/// ahead on a non-lockstep transport — is buffered and replayed when the
/// round is joined; [`ProtocolError::StaleRound`] is reserved for rounds
/// that are genuinely unroutable (retired, or implausibly far ahead),
/// and is never confused with a same-round
/// [`ProtocolError::DuplicateMessage`]. The entropy stream given at
/// construction is the only randomness the client ever uses.
///
/// # Example
///
/// ```
/// use lsa_protocol::{FederationClient, LsaConfig, Session};
/// use lsa_field::Fp61;
/// use rand::SeedableRng;
///
/// let cfg = LsaConfig::new(4, 1, 3, 8).unwrap();
/// let entropy = rand::rngs::StdRng::seed_from_u64(1);
/// let mut client = FederationClient::<Fp61>::new(0, cfg, entropy).unwrap();
/// client.prepare(0).unwrap();
/// let mut shares = 0;
/// while client.poll_output().is_some() {
///     shares += 1;
/// }
/// assert_eq!(shares, 3); // one per other user
/// ```
#[derive(Debug, Clone)]
pub struct FederationClient<F> {
    id: usize,
    cfg: LsaConfig,
    /// The aggregation group this client belongs to (0 when flat); every
    /// envelope is stamped with it and cross-group envelopes are
    /// rejected with [`ProtocolError::WrongGroup`] before any routing.
    group: usize,
    /// Whether this is the §4.2 user: its shares and uploads carry the
    /// timestamped tags and it answers buffer announcements.
    timestamped: bool,
    /// The `T`-private MDS code of `cfg`, built once.
    code: VandermondeCode<F>,
    entropy: StdRng,
    /// The live rounds (usually one, or two while the next round's masks
    /// are being shared).
    rounds: BTreeMap<u64, ClientRound<F>>,
    /// Early-arriving envelopes for rounds not yet joined.
    pending: BTreeMap<u64, Vec<Envelope<F>>>,
    /// Responses produced while replaying buffered envelopes.
    replies: VecDeque<Outgoing<F>>,
    /// Rounds below this are retired; envelopes for them are stale.
    horizon: u64,
    /// The client half of the stable-cohort handshake
    /// ([`crate::ratchet`]). Its base is the fully-exchanged round state
    /// of the last full offline round.
    ratchet: ClientRatchet<ClientRound<F>>,
}

/// One live round of a [`FederationClient`], and the retained ratchet
/// base ([`crate::ratchet`]) once a fully-exchanged round finishes.
#[derive(Debug, Clone)]
pub(crate) struct ClientRound<F> {
    round: u64,
    /// The local random mask `z_i`, padded length.
    mask: Vec<F>,
    /// The round's share material: immutable once the offline exchange
    /// completes, so rounds ratcheted from this one share the allocation.
    shares: Arc<Shares<F>>,
    /// Pad epoch for ratchet pads derived from this state: 0 at the
    /// base exchange, evolved in lockstep across the cohort by
    /// [`ClientRound::bump_pad_epoch`] on a reseat ([`crate::ratchet`]).
    pad_epoch: u64,
    /// [`crate::ratchet::pair_seed`] per pad partner: hashed the first
    /// time a round is ratcheted from this state (never, for a state
    /// that is never a ratchet base), over a re-encode of the shares
    /// sent to those partners; kept across pad epochs and dropped with
    /// the state.
    pair_seeds: BTreeMap<usize, Seed>,
    /// `pair_seeds` derived under `pad_epoch`, each the first time a
    /// pad needs it; cleared by [`ClientRound::bump_pad_epoch`].
    edge_seeds: BTreeMap<usize, Seed>,
    /// The coded segments `[~z_i]_j` still to send, by recipient in
    /// ascending order: [`Session::poll_output`] moves each into its
    /// envelope (empty from the start for a ratcheted round).
    outbox: VecDeque<(usize, Vec<F>)>,
    /// `None` before [`FederationClient::upload`]; then the masked
    /// payload until it is polled, and `Some(None)` once sent — a second
    /// upload is a duplicate either way.
    upload: Option<Option<Vec<F>>>,
}

/// The share material of one full offline exchange.
#[derive(Debug, Clone)]
pub(crate) struct Shares<F> {
    /// The `T` noise segments drawn with the mask. With the chunks of
    /// the drawn mask they re-encode any sent share `[~z_i]_j`, which
    /// only a ratchet base's pad partners ever need again.
    noise: Vec<Vec<F>>,
    /// Received coded segments `[~z_j]_i`, keyed by sender `j`.
    received: BTreeMap<usize, Vec<F>>,
    /// `Σ_j [~z_j]_i` over every `received` share: summed by the first
    /// recovery that names exactly those senders, reset by every insert.
    /// A stable stretch of ratcheted rounds shares this storage, so it
    /// answers each of their recoveries from one sum.
    total: OnceLock<Vec<F>>,
}

impl<F: Field> FederationClient<F> {
    /// How many rounds ahead of the newest live round an envelope may
    /// arrive and still be buffered (overlap keeps at most the next
    /// round in flight; one extra round of slack bounds the buffer
    /// against misbehaving peers).
    pub(crate) const LOOKAHEAD: u64 = 2;

    /// Hard cap on envelopes buffered across all lookahead rounds. A
    /// legitimate future round delivers at most `n − 1` coded shares
    /// plus a couple of server announcements, so `2n + 2` per lookahead
    /// round is generous for both protocol variants — while keeping the
    /// worst case a peer can pin at `O(LOOKAHEAD · n)` envelopes
    /// instead of unbounded (the memory-amplification vector once
    /// untrusted sockets feed [`Session::handle`]).
    pub(crate) fn pending_cap(&self) -> usize {
        Self::LOOKAHEAD as usize * (2 * self.cfg.n() + 2)
    }

    /// Create the persistent client for user `id` with its own entropy
    /// stream (the only randomness it will ever use).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidConfig`] if `id >= cfg.n()`.
    pub fn new(id: usize, cfg: LsaConfig, entropy: StdRng) -> Result<Self, ProtocolError> {
        Self::in_group(0, id, cfg, entropy)
    }

    /// Create the persistent client for the *group-local* user `id` of
    /// aggregation group `group` in a grouped topology
    /// ([`crate::topology`]): `cfg` is the group's own configuration,
    /// every emitted envelope is stamped with `group`, and any incoming
    /// envelope from another group is rejected with
    /// [`ProtocolError::WrongGroup`] — never buffered, never routed.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidConfig`] if `id >= cfg.n()`.
    pub(crate) fn in_group(
        group: usize,
        id: usize,
        cfg: LsaConfig,
        entropy: StdRng,
    ) -> Result<Self, ProtocolError> {
        if id >= cfg.n() {
            return Err(ProtocolError::InvalidConfig(format!(
                "client id {id} out of range for N={}",
                cfg.n()
            )));
        }
        Ok(Self {
            id,
            cfg,
            group,
            timestamped: false,
            code: VandermondeCode::new(cfg.n(), cfg.u())?,
            entropy,
            rounds: BTreeMap::new(),
            pending: BTreeMap::new(),
            replies: VecDeque::new(),
            horizon: 0,
            ratchet: ClientRatchet::new(id, group, cfg.ratchet().topology()),
        })
    }

    /// Create the persistent §4.2 (buffered-asynchronous) client for
    /// user `id`: flat (group 0), its shares and uploads stamped with
    /// the timestamped tags, answering [`crate::wire::BufferAnnouncement`]s.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidConfig`] if `id >= cfg.n()`.
    pub fn timestamped(id: usize, cfg: LsaConfig, entropy: StdRng) -> Result<Self, ProtocolError> {
        Ok(Self {
            timestamped: true,
            ..Self::new(id, cfg, entropy)?
        })
    }

    /// This client's user index (group-local in a grouped topology).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The highest live round, or the retirement horizon when no round
    /// is live.
    fn current_round(&self) -> u64 {
        self.rounds
            .keys()
            .next_back()
            .copied()
            .unwrap_or(self.horizon)
    }

    /// Number of live rounds (usually 1, or 2 while the next round's
    /// masks are being shared).
    #[cfg(test)]
    pub(crate) fn active_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Whether `round` may still be joined: it is neither retired (a
    /// replay) nor already joined.
    fn admit(&self, round: u64) -> Result<(), ProtocolError> {
        if round < self.horizon {
            return Err(ProtocolError::StaleRound {
                got: round,
                current: self.horizon,
            });
        }
        if self.rounds.contains_key(&round) {
            return Err(ProtocolError::DuplicateMessage(self.id));
        }
        Ok(())
    }

    /// Make `state` the live state of `round`, then replay every envelope
    /// that arrived for the round before it was joined. A rejected
    /// replay (a duplicated frame) costs neither the round nor the
    /// envelopes after it: the first rejection is returned once every
    /// other envelope is filed.
    fn install(&mut self, round: u64, state: ClientRound<F>) -> Result<(), ProtocolError> {
        self.rounds.insert(round, state);
        let mut first = Ok(());
        for envelope in self.pending.remove(&round).unwrap_or_default() {
            match self.handle(envelope) {
                Ok(replies) => self.replies.extend(replies),
                Err(err) => first = first.and(Err(err)),
            }
        }
        first
    }

    /// Join `round`: run the offline mask generation (the coded shares
    /// wait in the round's outbox for [`Session::poll_output`]) and replay
    /// any envelopes that arrived for this round before it was joined.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::StaleRound`] for a retired round,
    /// [`ProtocolError::DuplicateMessage`] if already joined; a replayed
    /// early envelope surfaces its own error, with the round joined.
    pub fn prepare(&mut self, round: u64) -> Result<(), ProtocolError> {
        self.admit(round)?;
        let id = self.id;
        let (mask, noise) = sample_mask(&self.cfg, &mut self.entropy);
        let mut coded = self
            .code
            .encode_all(&drawn_segments(&mask, &noise, self.cfg.u()));
        // a user trivially "receives" its own coded segment
        let received = BTreeMap::from([(id, mem::take(&mut coded[id]))]);
        let outbox = coded
            .into_iter()
            .enumerate()
            .filter(|&(to, _)| to != id)
            .collect();
        let shares = Shares {
            noise,
            received,
            total: OnceLock::new(),
        };
        let state = ClientRound {
            round,
            mask,
            shares: Arc::new(shares),
            pad_epoch: 0,
            pair_seeds: BTreeMap::new(),
            edge_seeds: BTreeMap::new(),
            outbox,
            upload: None,
        };
        self.install(round, state)
    }

    /// Join `round` from the window its nonce was pre-committed in, by
    /// ratcheting the retained base: zero wire traffic.
    ///
    /// # Errors
    ///
    /// As [`Self::prepare`], and [`ProtocolError::RatchetMismatch`]
    /// without a base or a banked nonce for `round`.
    pub(crate) fn ratchet_join(&mut self, round: u64) -> Result<(), ProtocolError> {
        self.admit(round)?;
        let (id, group, code) = (self.id, self.group, &self.code);
        let state = self.ratchet.join(round, |base, nonce, topology| {
            Ok(ClientRound::ratcheted_from(
                base, code, id, group, round, nonce, topology,
            ))
        })?;
        self.install(round, state)
    }

    /// Mask the quantized `model` under `round`'s mask and queue the
    /// upload `~x_i = x_i + z_i` (Algorithm 1 line 14); the model is
    /// zero-padded to the padded length. A round's mask protects one
    /// upload: masking two different models with it would hand the
    /// server their difference.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::StaleRound`] if the round is not live,
    /// [`ProtocolError::DuplicateMessage`] on a second upload, and a
    /// model length other than `cfg.d()` as [`ProtocolError::Coding`].
    pub fn upload(&mut self, round: u64, model: &[F]) -> Result<(), ProtocolError> {
        let current = self.current_round();
        let state = self
            .rounds
            .get_mut(&round)
            .ok_or(ProtocolError::StaleRound {
                got: round,
                current,
            })?;
        if state.upload.is_some() {
            return Err(ProtocolError::DuplicateMessage(self.id));
        }
        check_len(self.cfg.d(), model.len())?;
        state.upload = Some(Some(add_padded(model, &state.mask)));
        Ok(())
    }

    /// Retire every round below `round` (their aggregates are
    /// recovered; any further envelope for them is a stale replay).
    pub(crate) fn retire_below(&mut self, round: u64) {
        self.rounds.retain(|&r, _| r >= round);
        self.pending.retain(|&r, _| r >= round);
        self.horizon = self.horizon.max(round);
    }

    /// Drop exactly `round` and what was buffered for it, unsent shares
    /// included. The horizon does not move: the round is about to be
    /// joined again.
    pub(crate) fn discard(&mut self, round: u64) {
        self.rounds.remove(&round);
        self.pending.remove(&round);
    }

    /// Move the finished `round` into the ratchet base of the cohort
    /// fingerprinted by `fingerprint` (no copy).
    pub(crate) fn harvest(&mut self, round: u64, fingerprint: u64) {
        if let Some(state) = self.rounds.remove(&round) {
            self.ratchet.harvest(state, fingerprint);
        }
    }

    /// The client half of the ratchet handshake.
    pub(crate) fn ratchet(&mut self) -> &mut ClientRatchet<ClientRound<F>> {
        &mut self.ratchet
    }

    /// Answer the buffer announced at flush round `flush` (Appendix
    /// F.3.3): `Σ weight · [~z_who^{(round)}]_id` over the entries, each
    /// share looked up in the live round the entry names, stamped with
    /// `flush` so the server can reject answers to an earlier flush. An
    /// entry named twice is a [`ProtocolError::DuplicateMessage`],
    /// checked before any share is looked up.
    fn answer_buffer(
        &self,
        flush: u64,
        entries: &[BufferEntry],
    ) -> Result<Vec<Outgoing<F>>, ProtocolError> {
        if let Some((twice, _)) = repeated(entries, |e| (e.who, e.round)) {
            return Err(ProtocolError::DuplicateMessage(twice));
        }
        let mut weights = Vec::with_capacity(entries.len());
        let mut shares: Vec<&[F]> = Vec::with_capacity(entries.len());
        for e in entries {
            let share = self
                .rounds
                .get(&e.round)
                .and_then(|state| state.shares.received.get(&e.who))
                .ok_or(ProtocolError::MissingShares { from: e.who })?;
            weights.push(F::from_u64(e.weight));
            shares.push(share);
        }
        let mut payload = vec![F::ZERO; self.cfg.segment_len()];
        lsa_field::ops::weighted_sum_into(&mut payload, &weights, &shares);
        let share = AggregatedShare {
            from: self.id,
            group: self.group,
            round: flush,
            payload,
        };
        Ok(vec![(Recipient::Server, Envelope::AggregatedShare(share))])
    }
}

impl<F: Field> Session<F> for FederationClient<F> {
    fn local_addr(&self) -> Recipient {
        Recipient::Client(self.id)
    }

    fn handle(&mut self, envelope: Envelope<F>) -> Result<Vec<Outgoing<F>>, ProtocolError> {
        // cross-group traffic is rejected before any routing or
        // buffering: its local indices mean nothing in this group
        if envelope.group() != self.group {
            return Err(ProtocolError::WrongGroup {
                got: envelope.group(),
                expected: self.group,
            });
        }
        // the wire tag is the protocol: only this variant's share and
        // announcement, and ratchet commits, are ever routed or buffered
        let kind = envelope.kind();
        let ours = if self.timestamped {
            [
                EnvelopeKind::TimestampedShare,
                EnvelopeKind::BufferAnnouncement,
            ]
        } else {
            [
                EnvelopeKind::CodedMaskShare,
                EnvelopeKind::SurvivorAnnouncement,
            ]
        };
        if !ours.contains(&kind) && !ratchet::is_handshake(&envelope) {
            return Err(ProtocolError::UnexpectedEnvelope { kind });
        }
        // a buffer's entries name their own rounds (Appendix F.3.3)
        if let Envelope::BufferAnnouncement(ann) = envelope {
            return self.answer_buffer(ann.round, &ann.entries);
        }
        let round = envelope.round();
        // ratchet commits are round-*creating*, not round-routed: the
        // shared handshake state derives the round from the retained
        // base — no share traffic — and returns the ack
        if ratchet::is_handshake(&envelope) {
            self.admit(round)?;
            let (id, group, code) = (self.id, self.group, &self.code);
            let (state, ack) = self.ratchet.accept(&envelope, |base, nonce, topology| {
                Ok(ClientRound::ratcheted_from(
                    base, code, id, group, round, nonce, topology,
                ))
            })?;
            self.rounds.insert(round, state);
            return Ok(vec![ack]);
        }
        let current = self.current_round();
        let Some(state) = self.rounds.get_mut(&round) else {
            // a peer raced ahead: hold the envelope until the round is
            // joined — within the bounded budget
            if round <= current || round > current + Self::LOOKAHEAD {
                return Err(ProtocolError::StaleRound {
                    got: round,
                    current,
                });
            }
            let cap = self.pending_cap();
            if self.pending.values().map(Vec::len).sum::<usize>() >= cap {
                return Err(ProtocolError::PendingOverflow {
                    client: self.id,
                    round,
                    cap,
                });
            }
            self.pending.entry(round).or_default().push(envelope);
            return Ok(Vec::new());
        };
        match envelope {
            // Algorithm 1 line 9: file `[~z_from]_id`
            Envelope::CodedMaskShare(share) | Envelope::TimestampedShare(share) => {
                check_share(&share, self.id, &self.cfg)?;
                if state.shares.received.contains_key(&share.from) {
                    return Err(ProtocolError::DuplicateMessage(share.from));
                }
                // sole owner during the exchange, so this never copies; a
                // share accepted by a *derived* round un-shares the
                // storage first
                let shares = Arc::make_mut(&mut state.shares);
                shares.received.insert(share.from, share.payload);
                shares.total = OnceLock::new();
                Ok(Vec::new())
            }
            // Algorithm 1 lines 20–22: answer `Σ_{i∈U₁} [~z_i]_id`. When
            // the survivors are exactly the senders this client holds
            // shares from, the answer is the retained share total, summed
            // once and reused by every later recovery over the same
            // shares (the rounds of a stable ratchet stretch).
            Envelope::SurvivorAnnouncement(ann) => {
                if let Some(twice) = repeated(&ann.survivors, |&i| i) {
                    return Err(ProtocolError::DuplicateMessage(twice));
                }
                let received = &state.shares.received;
                let mut shares: Vec<&[F]> = Vec::with_capacity(ann.survivors.len());
                for i in &ann.survivors {
                    let share = received
                        .get(i)
                        .ok_or(ProtocolError::MissingShares { from: *i })?;
                    shares.push(share);
                }
                // one widened pass over all survivor shares, reduced once
                // per element; distinct and all received, so as many as
                // received means every one of them
                let sum = || {
                    lsa_field::ops::sum_vectors(shares.iter().copied())
                        .unwrap_or_else(|| vec![F::ZERO; self.cfg.segment_len()])
                };
                let payload = if shares.len() == received.len() {
                    state.shares.total.get_or_init(sum).clone()
                } else {
                    sum()
                };
                let share = AggregatedShare {
                    from: self.id,
                    group: self.group,
                    round,
                    payload,
                };
                Ok(vec![(Recipient::Server, Envelope::AggregatedShare(share))])
            }
            other => Err(ProtocolError::UnexpectedEnvelope { kind: other.kind() }),
        }
    }

    fn poll_output(&mut self) -> Option<Outgoing<F>> {
        if let Some(reply) = self.replies.pop_front() {
            return Some(reply);
        }
        let (id, group) = (self.id, self.group);
        let (share_tag, upload_tag): (fn(_) -> _, fn(_) -> _) = if self.timestamped {
            (Envelope::TimestampedShare, Envelope::TimestampedUpdate)
        } else {
            (Envelope::CodedMaskShare, Envelope::MaskedModel)
        };
        self.rounds.values_mut().find_map(|state| {
            // the coded shares, each moved into its envelope (Algorithm
            // 1 line 8), then the masked upload
            if let Some((to, payload)) = state.outbox.pop_front() {
                if state.outbox.is_empty() {
                    // the last share is out: release the queue's buffer
                    state.outbox = VecDeque::new();
                }
                let share = CodedMaskShare {
                    from: id,
                    to,
                    group,
                    round: state.round,
                    payload,
                };
                return Some((Recipient::Client(to), share_tag(share)));
            }
            let payload = state.upload.as_mut()?.take()?;
            let masked = MaskedModel {
                from: id,
                group,
                round: state.round,
                payload,
            };
            Some((Recipient::Server, upload_tag(masked)))
        })
    }
}

impl<F: Field> ClientRound<F> {
    /// Derive user `id`'s state for a *ratcheted* round of group `group`
    /// from retained base state ([`crate::ratchet`]): same peers, same
    /// coded shares, and a fresh mask
    /// `z_i = m_i + Σ_j σ(i,j)·PRG(ρ_ij ‖ nonce)` whose pairwise pads
    /// cancel over the full cohort. No new share traffic and no copy: the
    /// derived round holds the base's share material by reference count,
    /// so recovery decodes `Σ m_i` exactly as it did then. The work is
    /// one seed digest and one keystream pass per pad, plus, the first
    /// time per base, one re-encode of the shares sent to the pad
    /// partners (from the base's draw, at their points only) and the
    /// hash of each edge secret `ρ_ij`, and the first time in each pad
    /// epoch one digest per edge (all cached in `base`).
    ///
    /// The cohort is implicit: every peer the base exchanged shares with
    /// (its `received` keys) is the fingerprinted membership — callers
    /// must have verified fingerprint agreement before ratcheting.
    /// `topology` selects which of those peers contribute a pad
    /// ([`crate::ratchet::PadTopology`]): the clique pads against all of
    /// them, the hypercube only along the (at most `⌈log₂ n_g⌉`) edges of
    /// this member's cohort rank.
    pub(crate) fn ratcheted_from(
        base: &mut Self,
        code: &VandermondeCode<F>,
        id: usize,
        group: usize,
        round: u64,
        nonce: u64,
        topology: ratchet::PadTopology,
    ) -> Self {
        let members: Vec<usize> = base.shares.received.keys().copied().collect();
        let partners = topology.partners(&members, id);
        let unseeded: Vec<usize> = partners
            .iter()
            .copied()
            .filter(|peer| !base.pair_seeds.contains_key(peer))
            .collect();
        if !unseeded.is_empty() {
            let sent = base.sent_shares(code, &unseeded);
            for (peer, sent) in unseeded.into_iter().zip(sent) {
                let recv = &base.shares.received[&peer];
                let seed = ratchet::pair_seed(group, base.round, id, peer, &sent, recv);
                base.pair_seeds.insert(peer, seed);
            }
        }
        let mut mask = base.mask.clone();
        for peer in partners {
            let edge = *base
                .edge_seeds
                .entry(peer)
                .or_insert_with(|| base.pair_seeds[&peer].derive(base.pad_epoch));
            ratchet::add_pair_pad(&mut mask, edge, nonce, id, peer);
        }
        Self {
            round,
            mask,
            shares: Arc::clone(&base.shares),
            pad_epoch: base.pad_epoch,
            pair_seeds: BTreeMap::new(),
            edge_seeds: BTreeMap::new(),
            // the offline phase was the commit/ack handshake (or nothing
            // at all, for a round joined from a pre-committed window)
            outbox: VecDeque::new(),
            upload: None,
        }
    }

    /// The coded segments this state's draw sent to `users`, re-encoded
    /// at their points only (Algorithm 1 line 7). Only a full
    /// exchange's state has its draw as its mask: a ratchet base does,
    /// a round ratcheted from one (`m + u`) does not.
    fn sent_shares(&self, code: &VandermondeCode<F>, users: &[usize]) -> Vec<Vec<F>> {
        let segments = drawn_segments(&self.mask, &self.shares.noise, code.u());
        code.encode_at(&segments, users)
    }

    /// Evolve the pad epoch across a reseat ([`crate::ratchet`]): the
    /// mask and share material — the recovery-critical state — are
    /// untouched; only future ratchet pads derive under the new epoch,
    /// from the kept pair seeds, with no second re-encode. Every
    /// member of a leaf must bump with the same `seed` so the refreshed
    /// pads still cancel.
    pub(crate) fn bump_pad_epoch(&mut self, seed: u64) {
        self.pad_epoch = ratchet::reseat_epoch(self.pad_epoch, seed);
        self.edge_seeds.clear();
    }
}

/// A key that more than one of `items` has, if any: the smallest such.
/// The lists servers announce are ascending, which one comparison per
/// item confirms; any other order is checked on sorted keys.
fn repeated<T, K: Ord + Copy>(items: &[T], key: impl Fn(&T) -> K) -> Option<K> {
    if items.windows(2).all(|w| key(&w[0]) < key(&w[1])) {
        return None;
    }
    let mut keys: Vec<K> = items.iter().map(key).collect();
    keys.sort_unstable();
    keys.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
}

/// What a coded share must be for client `id` to file it: addressed
/// to `id`, from a user of `cfg`, one segment long (group and round are
/// checked first).
fn check_share<F>(
    share: &CodedMaskShare<F>,
    id: usize,
    cfg: &LsaConfig,
) -> Result<(), ProtocolError> {
    if share.to != id {
        return Err(ProtocolError::MisroutedShare {
            expected: id,
            got: share.to,
        });
    }
    if share.from >= cfg.n() {
        return Err(ProtocolError::UnknownUser(share.from));
    }
    check_len(cfg.segment_len(), share.payload.len())
}

/// The offline phase's draw (Algorithm 1 lines 4–6): `z_i` uniform
/// over the padded length, then the `T` noise segments.
/// Returns `(z_i, noise segments)`.
fn sample_mask<F: Field, R: Rng + ?Sized>(cfg: &LsaConfig, rng: &mut R) -> (Vec<F>, Vec<Vec<F>>) {
    let mask = lsa_field::ops::random_vector(cfg.padded_len(), rng);
    let noise = (0..cfg.t())
        .map(|_| lsa_field::ops::random_vector(cfg.segment_len(), rng))
        .collect();
    (mask, noise)
}

/// The `U` segments the `T`-private MDS code encodes (Algorithm 1 line
/// 7), as views of the draw: the mask's `U − T` equal chunks, then the
/// `T` noise segments.
fn drawn_segments<'a, F>(mask: &'a [F], noise: &'a [Vec<F>], u: usize) -> Vec<&'a [F]> {
    let len = mask.len() / (u - noise.len());
    mask.chunks_exact(len)
        .chain(noise.iter().map(Vec::as_slice))
        .collect()
}

/// `x + z` in one pass, `x` zero-padded to `z`'s length (the masking
/// step).
fn add_padded<F: Field>(x: &[F], z: &[F]) -> Vec<F> {
    let (head, tail) = z.split_at(x.len());
    let mut out = Vec::with_capacity(z.len());
    out.extend(x.iter().zip(head).map(|(&x, &z)| x + z));
    out.extend_from_slice(tail);
    out
}

#[cfg(test)]
impl<F: Field> FederationClient<F> {
    /// Live round `round`'s state, for tests that look inside it.
    pub(crate) fn live(&self, round: u64) -> &ClientRound<F> {
        &self.rounds[&round]
    }

    /// The retained ratchet base, if any.
    pub(crate) fn base(&self) -> Option<&ClientRound<F>> {
        self.ratchet.base()
    }
}

#[cfg(test)]
impl<F: Field> ClientRound<F> {
    /// The peers this round holds shares from (its ratchetable cohort),
    /// ascending; includes the client itself.
    pub(crate) fn share_peers(&self) -> Vec<usize> {
        self.shares.received.keys().copied().collect()
    }

    /// How many coded shares have been received (incl. the self share).
    pub(crate) fn shares_received(&self) -> usize {
        self.shares.received.len()
    }

    /// The coded segment `[~z_i]_to` this state's draw sent, re-encoded:
    /// only a full exchange's state (a base, not a round ratcheted from
    /// one) holds its draw.
    pub(crate) fn coded_for(&self, code: &VandermondeCode<F>, to: usize) -> Vec<F> {
        self.sent_shares(code, &[to]).swap_remove(0)
    }

    /// How many coded segments wait to be sent, and how many noise
    /// segments are kept.
    pub(crate) fn held_segments(&self) -> (usize, usize) {
        (self.outbox.len(), self.shares.noise.len())
    }

    /// The un-derived pair seed per pad partner, once hashed.
    pub(crate) fn pair_seeds(&self) -> &BTreeMap<usize, Seed> {
        &self.pair_seeds
    }

    /// The share-material handle, for tests that pin who owns it.
    pub(crate) fn share_storage(&self) -> &Arc<Shares<F>> {
        &self.shares
    }

    /// The retained share total, once a recovery has summed it.
    pub(crate) fn share_total(&self) -> Option<&Vec<F>> {
        self.shares.total.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratchet::PadTopology;
    use crate::wire::SurvivorAnnouncement;
    use lsa_field::Fp61;
    use rand::SeedableRng;

    fn cfg() -> LsaConfig {
        LsaConfig::new(5, 1, 3, 10).unwrap()
    }

    fn cfg4() -> LsaConfig {
        LsaConfig::new(4, 1, 3, 6).unwrap()
    }

    /// The MDS code a client of `cfg` encodes with.
    fn code_of<F: Field>(cfg: LsaConfig) -> VandermondeCode<F> {
        VandermondeCode::new(cfg.n(), cfg.u()).unwrap()
    }

    /// `cfg.n()` clients of `group`, their entropy drawn from `seed`,
    /// each joined to `round`.
    fn joined<F: Field>(
        cfg: LsaConfig,
        group: usize,
        round: u64,
        seed: u64,
    ) -> Vec<FederationClient<F>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..cfg.n())
            .map(|id| {
                let entropy = StdRng::seed_from_u64(rng.gen());
                let mut c = FederationClient::in_group(group, id, cfg, entropy).unwrap();
                c.prepare(round).unwrap();
                c
            })
            .collect()
    }

    /// Deliver every coded share the clients emit, except those from or
    /// to `absent`, which are returned.
    fn deliver<F: Field>(
        clients: &mut [FederationClient<F>],
        absent: Option<usize>,
    ) -> Vec<CodedMaskShare<F>> {
        let mut held = Vec::new();
        for i in 0..clients.len() {
            while let Some((_, env)) = clients[i].poll_output() {
                let Envelope::CodedMaskShare(share) = env else {
                    panic!("only coded shares before an upload")
                };
                if absent.is_some_and(|a| share.from == a || share.to == a) {
                    held.push(share);
                } else {
                    let to = share.to;
                    clients[to].handle(Envelope::CodedMaskShare(share)).unwrap();
                }
            }
        }
        held
    }

    /// A cohort of `cfg().n()` clients of group 3 after the full offline
    /// exchange of `round`.
    fn exchanged<F: Field>(round: u64, seed: u64) -> Vec<FederationClient<F>> {
        let mut clients = joined(cfg(), 3, round, seed);
        deliver(&mut clients, None);
        clients
    }

    /// Each client's `round`, taken out of the client as a ratchet base.
    fn bases<F: Field>(clients: &mut [FederationClient<F>], round: u64) -> Vec<ClientRound<F>> {
        clients
            .iter_mut()
            .map(|c| c.rounds.remove(&round).unwrap())
            .collect()
    }

    /// Derive `c`'s round `round` from its live round `base` as the
    /// ratchet would from a retained base, and make it live beside it.
    fn derive_live<F: Field>(c: &mut FederationClient<F>, base: u64, round: u64, nonce: u64) {
        let (id, group) = (c.id, c.group);
        let base = c.rounds.get_mut(&base).unwrap();
        let derived = ClientRound::ratcheted_from(
            base,
            &c.code,
            id,
            group,
            round,
            nonce,
            PadTopology::Clique,
        );
        c.rounds.insert(round, derived);
    }

    /// The next envelope `c` emits for `to`.
    fn share_to<F: Field>(c: &mut FederationClient<F>, to: usize) -> Envelope<F> {
        std::iter::from_fn(|| c.poll_output())
            .find(|(r, _)| *r == Recipient::Client(to))
            .expect("has a share for the peer")
            .1
    }

    /// The masked model `c` emits, once its shares are out.
    fn masked<F: Field>(c: &mut FederationClient<F>) -> MaskedModel<F> {
        std::iter::from_fn(|| c.poll_output())
            .find_map(|(_, env)| match env {
                Envelope::MaskedModel(m) => Some(m),
                _ => None,
            })
            .expect("an upload was queued")
    }

    /// `c`'s answer to an announcement of `survivors` for `round`.
    fn answer<F: Field>(
        c: &mut FederationClient<F>,
        round: u64,
        survivors: &[usize],
    ) -> Result<Vec<F>, ProtocolError> {
        let ann = SurvivorAnnouncement {
            group: c.group,
            round,
            survivors: survivors.to_vec(),
        };
        let reply = c.handle(Envelope::SurvivorAnnouncement(ann))?;
        let [(Recipient::Server, Envelope::AggregatedShare(share))] = &reply[..] else {
            panic!("one aggregated share, got {reply:?}");
        };
        Ok(share.payload.clone())
    }

    #[test]
    fn new_client_has_own_share() {
        let mut c = FederationClient::<Fp61>::new(2, cfg(), StdRng::seed_from_u64(1)).unwrap();
        c.prepare(0).unwrap();
        assert_eq!(c.live(0).shares_received(), 1);
        assert_eq!(std::iter::from_fn(|| c.poll_output()).count(), 4);
    }

    #[test]
    fn out_of_range_id_rejected() {
        assert!(FederationClient::<Fp61>::new(7, cfg(), StdRng::seed_from_u64(2)).is_err());
    }

    #[test]
    fn misrouted_share_rejected() {
        let mut clients = joined::<Fp61>(cfg(), 0, 0, 3);
        // share addressed to user 2, delivered to user 1
        let share = share_to(&mut clients[0], 2);
        assert!(matches!(
            clients[1].handle(share),
            Err(ProtocolError::MisroutedShare {
                expected: 1,
                got: 2
            })
        ));
    }

    #[test]
    fn duplicate_share_rejected() {
        let mut clients = joined::<Fp61>(cfg(), 0, 0, 4);
        let share = share_to(&mut clients[0], 1);
        clients[1].handle(share.clone()).unwrap();
        assert!(matches!(
            clients[1].handle(share),
            Err(ProtocolError::DuplicateMessage(0))
        ));
    }

    #[test]
    fn mask_model_checks_length() {
        let mut c = FederationClient::<Fp61>::new(0, cfg(), StdRng::seed_from_u64(5)).unwrap();
        c.prepare(0).unwrap();
        assert!(c.upload(0, &[Fp61::ZERO; 9]).is_err());
        c.upload(0, &[Fp61::ZERO; 10]).unwrap();
        let m = masked(&mut c);
        assert_eq!(m.payload.len(), cfg().padded_len());
    }

    #[test]
    fn masked_zero_model_equals_mask() {
        let mut c = FederationClient::<Fp61>::new(0, cfg(), StdRng::seed_from_u64(6)).unwrap();
        c.prepare(0).unwrap();
        c.upload(0, &[Fp61::ZERO; 10]).unwrap();
        let m = masked(&mut c);
        assert_eq!(m.payload, c.live(0).mask);
    }

    #[test]
    fn ratcheted_masks_sum_to_base_masks() {
        // full offline exchange among all 5 clients, then ratchet each:
        // the pairwise pads must telescope away, so Σ z_i^(r+1) = Σ m_i
        // while every individual mask is fresh — under both topologies
        let mut clients = joined::<Fp61>(cfg(), 0, 0, 8);
        deliver(&mut clients, None);
        let mut bases = bases(&mut clients, 0);
        let code = code_of(cfg());
        let sum = |cs: &[ClientRound<Fp61>]| {
            let mut acc = vec![Fp61::ZERO; cfg().padded_len()];
            for c in cs {
                lsa_field::ops::add_assign(&mut acc, &c.mask);
            }
            acc
        };
        let base_sum = sum(&bases);
        for topology in [PadTopology::Clique, PadTopology::Hypercube] {
            let ratcheted: Vec<ClientRound<Fp61>> = bases
                .iter_mut()
                .enumerate()
                .map(|(id, c)| ClientRound::ratcheted_from(c, &code, id, 0, 1, 0xA5A5, topology))
                .collect();
            assert_eq!(sum(&ratcheted), base_sum, "pads must cancel in the sum");
            for (id, (b, r)) in bases.iter().zip(&ratcheted).enumerate() {
                assert_ne!(b.mask, r.mask, "client {id}: mask must be refreshed");
                assert_eq!(r.round, 1);
                assert_eq!(r.shares_received(), b.shares_received());
            }
            // a different nonce refreshes every mask again
            let again =
                ClientRound::ratcheted_from(&mut bases[0], &code, 0, 0, 2, 0x5A5A, topology);
            assert_ne!(again.mask, ratcheted[0].mask);
        }
        assert_eq!(bases[0].share_peers(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn epoch_bumped_ratchets_still_cancel_and_differ() {
        // a uniform epoch bump across the cohort keeps the pads
        // cancelling while refreshing every edge secret
        let mut clients = joined::<Fp61>(cfg4(), 0, 0, 9);
        deliver(&mut clients, None);
        let mut bases = bases(&mut clients, 0);
        let code = code_of(cfg4());
        let ratchet = |bases: &mut [ClientRound<Fp61>]| -> Vec<ClientRound<Fp61>> {
            bases
                .iter_mut()
                .enumerate()
                .map(|(id, c)| {
                    ClientRound::ratcheted_from(c, &code, id, 0, 1, 7, PadTopology::Hypercube)
                })
                .collect()
        };
        let before = ratchet(&mut bases);
        for c in bases.iter_mut() {
            c.bump_pad_epoch(0xD00D);
        }
        let after = ratchet(&mut bases);
        let sum = |cs: &[ClientRound<Fp61>]| {
            let mut acc = vec![Fp61::ZERO; cfg4().padded_len()];
            for c in cs {
                lsa_field::ops::add_assign(&mut acc, &c.mask);
            }
            acc
        };
        assert_eq!(sum(&before), sum(&after), "both epochs cancel to Σ m_i");
        for (b, a) in before.iter().zip(&after) {
            assert_ne!(b.mask, a.mask, "epoch must refresh the edge secrets");
        }
    }

    /// The derivation as first written ([`crate::ratchet::tests::reference_pair_pad`]:
    /// hash the edge secret per pad, expand element by element into a
    /// temporary, add or subtract it), for user `id` of group 3.
    fn reference_mask<F: Field>(
        base: &ClientRound<F>,
        id: usize,
        nonce: u64,
        topology: PadTopology,
    ) -> Vec<F> {
        let mut mask = base.mask.clone();
        for peer in topology.partners(&base.share_peers(), id) {
            crate::ratchet::tests::reference_pair_pad(
                &mut mask,
                3,
                base.round,
                base.pad_epoch,
                nonce,
                id,
                peer,
                &base.coded_for(&code_of(cfg()), peer),
                &base.shares.received[&peer],
            );
        }
        mask
    }

    fn ratchet_matches_reference<F: Field>() {
        for topology in [PadTopology::Clique, PadTopology::Hypercube] {
            let mut clients = exchanged::<F>(4, 31);
            let code = code_of(cfg());
            for (id, c) in bases(&mut clients, 4).iter_mut().enumerate() {
                // first derivation hashes the edge secrets, the second
                // reads them back, the third runs under a bumped epoch,
                // which must re-hash them: a seed of the old epoch that
                // survived the bump would still cancel pairwise, and
                // only the reference can tell
                let first = ClientRound::ratcheted_from(c, &code, id, 3, 5, 0xA1, topology);
                assert_eq!(first.mask, reference_mask(c, id, 0xA1, topology));
                let hashed = c.edge_seeds.clone();
                assert_eq!(hashed.len(), topology.partners(&c.share_peers(), id).len());
                let second = ClientRound::ratcheted_from(c, &code, id, 3, 6, 0xB2, topology);
                assert_eq!(second.mask, reference_mask(c, id, 0xB2, topology));
                assert_eq!(
                    c.edge_seeds, hashed,
                    "edge secrets are per base and epoch, not per round"
                );
                c.bump_pad_epoch(0xD00D);
                assert!(c.edge_seeds.is_empty(), "the bump drops the old epoch");
                let third = ClientRound::ratcheted_from(c, &code, id, 3, 7, 0xB2, topology);
                assert_eq!(third.mask, reference_mask(c, id, 0xB2, topology));
                assert_ne!(third.mask, second.mask, "epoch refreshes the pads");
                assert_eq!(c.edge_seeds.len(), hashed.len(), "re-hashed");
                // derived rounds hold the base's share material, not a copy
                for derived in [&first, &second, &third] {
                    assert!(Arc::ptr_eq(derived.share_storage(), c.share_storage()));
                    assert!(derived.edge_seeds.is_empty());
                }
            }
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
    fn edge_secrets_are_never_shared_across_bases() {
        // the same entropy re-runs the same exchange, so the two bases
        // hold identical share material and differ only in their round:
        // a seed cached for one must not serve the other
        use crate::ratchet::PadTopology::Hypercube;
        let mut old = bases(&mut exchanged::<Fp61>(0, 77), 0);
        let mut new = bases(&mut exchanged::<Fp61>(9, 77), 9);
        let code = code_of(cfg());
        for (id, (o, n)) in old.iter_mut().zip(new.iter_mut()).enumerate() {
            assert_eq!(o.mask, n.mask);
            let from_old = ClientRound::ratcheted_from(o, &code, id, 3, 10, 0xC3, Hypercube);
            assert!(
                n.edge_seeds.is_empty(),
                "a fresh base starts without secrets"
            );
            let from_new = ClientRound::ratcheted_from(n, &code, id, 3, 10, 0xC3, Hypercube);
            assert_ne!(
                from_old.mask, from_new.mask,
                "base round separates the pads"
            );
            assert_eq!(from_new.mask, reference_mask(n, id, 0xC3, Hypercube));
            assert!(o
                .edge_seeds
                .values()
                .all(|s| !n.edge_seeds.values().any(|t| s == t)));
        }
    }

    #[test]
    fn share_accepted_by_a_derived_round_leaves_the_base_untouched() {
        // a cohort one short of N: the derived round still shares the
        // base's storage, and un-shares it only if it must write
        let mut clients = joined::<Fp61>(cfg(), 0, 0, 12);
        deliver(&mut clients, Some(4));
        derive_live(&mut clients[0], 0, 1, 5);
        clients[4].prepare(1).unwrap();
        let share = share_to(&mut clients[4], 0);
        clients[0].handle(share).unwrap();
        let c = &clients[0];
        assert_eq!(c.live(1).shares_received(), 5);
        assert_eq!(c.live(0).shares_received(), 4);
        assert!(!Arc::ptr_eq(
            c.live(1).share_storage(),
            c.live(0).share_storage()
        ));
    }

    #[test]
    fn share_filed_after_the_total_was_summed_resets_it() {
        // a cohort one short of N: client 0 answers for the four it
        // holds, then files the fifth share, on a round derived from it
        // and on the base itself
        let mut clients = joined::<Fp61>(cfg(), 0, 0, 15);
        let late = deliver(&mut clients, Some(4));
        let code = code_of(cfg());
        let coded_for = |j: usize, from: &[usize]| {
            let shares: Vec<Vec<Fp61>> = from
                .iter()
                .map(|&i| clients[i].live(0).coded_for(&code, j))
                .collect();
            lsa_field::ops::sum_vectors(shares.iter().map(Vec::as_slice)).unwrap()
        };
        let (four, five) = (coded_for(0, &[0, 1, 2, 3]), coded_for(0, &[0, 1, 2, 3, 4]));
        let late = late.into_iter().find(|s| s.from == 4 && s.to == 0).unwrap();
        let c = &mut clients[0];
        derive_live(c, 0, 1, 5);
        assert_eq!(answer(c, 1, &[3, 2, 1, 0]).unwrap(), four);
        assert_eq!(c.live(0).share_total(), Some(&four), "one total for both");
        let refiled = CodedMaskShare {
            round: 1,
            ..late.clone()
        };
        c.handle(Envelope::CodedMaskShare(refiled)).unwrap();
        assert_eq!(c.live(1).share_total(), None, "the filed share resets it");
        assert_eq!(
            c.live(0).share_total(),
            Some(&four),
            "and leaves the base's"
        );
        assert_eq!(answer(c, 1, &[0, 1, 2, 3]).unwrap(), four, "now a subset");
        assert_eq!(answer(c, 1, &[0, 1, 2, 3, 4]).unwrap(), five);
        assert_eq!(c.live(1).share_total(), Some(&five));
        c.handle(Envelope::CodedMaskShare(late)).unwrap();
        assert_eq!(c.live(0).share_total(), None);
        assert_eq!(answer(c, 0, &[4, 3, 2, 1, 0]).unwrap(), five);
        assert_eq!(c.live(0).share_total(), Some(&five));
    }

    #[test]
    fn announcement_is_checked_group_then_round_then_shares() {
        let entropy = StdRng::seed_from_u64(13);
        let mut c = FederationClient::<Fp61>::in_group(3, 0, cfg(), entropy).unwrap();
        c.prepare(4).unwrap();
        let ann = |group, round, survivors: &[usize]| {
            Envelope::SurvivorAnnouncement(SurvivorAnnouncement {
                group,
                round,
                survivors: survivors.to_vec(),
            })
        };
        // wrong in every way: the group is what gets reported
        assert_eq!(
            c.handle(ann(2, 5, &[0, 1])).unwrap_err(),
            ProtocolError::WrongGroup {
                got: 2,
                expected: 3
            }
        );
        assert_eq!(
            c.handle(ann(3, 3, &[0, 1])).unwrap_err(),
            ProtocolError::StaleRound { got: 3, current: 4 }
        );
        assert_eq!(
            c.handle(ann(3, 4, &[0, 1])).unwrap_err(),
            ProtocolError::MissingShares { from: 1 }
        );
        // none of the rejections cost the client anything
        let replies = c.handle(ann(3, 4, &[0])).unwrap();
        assert_eq!(replies.len(), 1);
    }

    #[test]
    fn announced_survivor_named_twice_is_rejected_not_summed_twice() {
        // through `Session::handle`: a repeated survivor is reported
        // before any share is looked up, even one never received; a
        // full-length list with a repeat is not the whole cohort
        let mut clients = exchanged::<Fp61>(4, 14);
        let n = cfg().n();
        let ann = |survivors: Vec<usize>| {
            Envelope::SurvivorAnnouncement(SurvivorAnnouncement {
                group: 3,
                round: 4,
                survivors,
            })
        };
        let c = &mut clients[1];
        assert_eq!(
            c.handle(ann(vec![0, 2, 0])).unwrap_err(),
            ProtocolError::DuplicateMessage(0)
        );
        assert_eq!(
            c.handle(ann(vec![2, 9, 2])).unwrap_err(),
            ProtocolError::DuplicateMessage(2)
        );
        let mut repeated: Vec<usize> = (0..n).collect();
        repeated[1] = 0;
        assert_eq!(
            c.handle(ann(repeated)).unwrap_err(),
            ProtocolError::DuplicateMessage(0)
        );
        // none of the rejections cost the client anything
        let replies = c.handle(ann((0..n).collect())).unwrap();
        assert_eq!(replies.len(), 1);
    }

    #[test]
    fn aggregated_share_requires_all_survivor_shares() {
        let mut c = FederationClient::<Fp61>::new(0, cfg(), StdRng::seed_from_u64(7)).unwrap();
        c.prepare(0).unwrap();
        // survivor 3's share never arrived
        assert!(matches!(
            answer(&mut c, 0, &[0, 3]),
            Err(ProtocolError::MissingShares { from: 3 })
        ));
        // own share suffices for survivor set {0}
        assert!(answer(&mut c, 0, &[0]).is_ok());
    }
}
