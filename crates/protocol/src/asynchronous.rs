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
//! The §4.2 user is the same persistent
//! [`crate::FederationClient`] as the §4.1 one, built by
//! [`crate::FederationClient::timestamped`]: the same rounds, offline
//! phase and ratchet, with its shares and uploads under the timestamped
//! tags and its answer to a [`BufferAnnouncement`] weighted by the
//! entries' staleness. [`AsyncServer`] is the persistent server and
//! speaks [`Session`] itself: it owns the entropy stream injected at
//! construction, its outbox and its half of the stable-cohort handshake
//! ([`crate::ratchet`]). Local actions ([`AsyncServer::announce`])
//! queue envelopes for [`Session::poll_output`]; everything a peer sends
//! goes through [`Session::handle`]. [`BufferedVariant`]'s hooks, beside
//! it here, plug the server into the leaf round driver
//! ([`crate::federation::LeafFederation`]), and [`run_buffered_flush`]
//! pumps one flush of stale contributions.

use crate::client::FederationClient;
use crate::config::LsaConfig;
use crate::federation::{drain_to, pump, unmask, BufferedVariant, LeafVariant, RoundOutcome};
use crate::ratchet::{self, ServerRatchet};
use crate::session::{Outgoing, Recipient, Session};
use crate::transport::Transport;
use crate::wire::{AggregatedShare, BufferAnnouncement, CodedMaskShare, Envelope, MaskedModel};
use crate::{check_len, ProtocolError};
use lsa_coding::VandermondeCode;
use lsa_field::Field;
use lsa_quantize::{QuantizedStaleness, VectorQuantizer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, VecDeque};

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
    type Server = AsyncServer<F>;

    fn server_ratchet(server: &mut Self::Server) -> &mut ServerRatchet<F> {
        &mut server.ratchet
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
/// [`Transport`], pumping fresh timestamped [`FederationClient`]s and
/// an [`AsyncServer`].
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

    let mut clients: Vec<FederationClient<F>> = (0..n)
        .map(|id| FederationClient::timestamped(id, cfg, StdRng::seed_from_u64(rng.gen())))
        .collect::<Result<_, _>>()?;
    let entropy = StdRng::seed_from_u64(rng.gen());
    let mut server = AsyncServer::new(cfg, inputs.len(), staleness, entropy)?;
    server.advance_to(now);

    // Offline: every user joins every base round of the flush before
    // anyone sends (a share must find its recipient's round open), and
    // the coded shares travel to every peer. Nobody vanishes mid-flush.
    let everyone: BTreeSet<usize> = (0..n).collect();
    let rounds: BTreeSet<u64> = inputs.iter().map(|i| i.round).collect();
    for client in clients.iter_mut() {
        for &round in &rounds {
            client.prepare(round)?;
        }
    }
    for client in clients.iter_mut() {
        drain_to(client, transport, &everyone)?;
    }
    transport.flush("mask-exchange");
    pump(transport, &mut server, &mut clients, &everyone)?;

    // Upload: masked, round-stamped updates.
    for input in inputs {
        clients[input.slot].upload(input.round, &input.update)?;
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
    ) -> Vec<FederationClient<F>> {
        let mut clients: Vec<FederationClient<F>> = (0..cfg.n())
            .map(|id| {
                let entropy = StdRng::seed_from_u64(seed + id as u64);
                FederationClient::timestamped(id, cfg, entropy).unwrap()
            })
            .collect();
        for round in rounds {
            let mut pending = Vec::new();
            for c in clients.iter_mut() {
                c.prepare(round).unwrap();
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
    fn upload(c: &mut FederationClient<Fp61>, round: u64, update: &[Fp61]) -> Envelope<Fp61> {
        c.upload(round, update).unwrap();
        c.poll_output().unwrap().1
    }

    /// Deliver the server's queued announcements to the `answering`
    /// clients and their aggregated shares back.
    fn serve(
        server: &mut AsyncServer<Fp61>,
        clients: &mut [FederationClient<Fp61>],
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
        let mut c =
            FederationClient::<Fp61>::timestamped(0, cfg(), StdRng::seed_from_u64(3)).unwrap();
        for round in 0..3 {
            c.prepare(round).unwrap();
        }
        assert_eq!(c.active_rounds(), 3);
        c.retire_below(2);
        assert_eq!(c.active_rounds(), 1);
        // masking with a pruned round now fails
        assert!(c.upload(0, &[Fp61::ZERO; 6]).is_err());
        assert!(c.upload(2, &[Fp61::ZERO; 6]).is_ok());
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
        // one mask per round, and it protects one upload: masking two
        // different updates with it would hand the server their
        // difference
        let mut c =
            FederationClient::<Fp61>::timestamped(0, cfg(), StdRng::seed_from_u64(4)).unwrap();
        c.prepare(0).unwrap();
        assert!(c.prepare(0).is_err());
        c.upload(0, &[Fp61::ONE; 6]).unwrap();
        assert_eq!(
            c.upload(0, &[Fp61::ZERO; 6]),
            Err(ProtocolError::DuplicateMessage(0))
        );
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
