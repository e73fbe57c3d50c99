//! Sans-IO protocol sessions: pure event-driven state machines.
//!
//! A session owns one endpoint's protocol state and *never* touches a
//! socket, a clock or an RNG while handling messages: you feed it
//! envelopes with [`Session::handle`], it returns the envelopes that
//! must be sent in response, and [`Session::poll_output`] drains
//! envelopes produced by local actions (construction, model upload,
//! phase close). All entropy is injected at construction, so a session's
//! behaviour is a deterministic function of its inputs — the property
//! that makes the protocol testable, replayable and portable across
//! transports (in-memory queues, the discrete-event simulator, or a real
//! network stack).
//!
//! # Sessions
//!
//! * [`crate::Client`] / [`crate::ServerRound`] — one round of the
//!   synchronous protocol (§4.1, Algorithm 1): the per-round state
//!   machines speak [`Session`] themselves;
//! * [`AsyncClientSession`] / [`AsyncServerSession`] — the
//!   buffered-asynchronous variant (§4.2, Appendix F);
//! * [`crate::federation::FederationClient`] /
//!   [`crate::federation::FederationServer`] — the persistent
//!   multi-round endpoints that route to the per-round ones.
//!
//! # Example: pumping a session by hand
//!
//! ```
//! use lsa_protocol::session::{Recipient, Session};
//! use lsa_protocol::{Client, LsaConfig, ServerRound};
//! use lsa_field::{Field, Fp61};
//! use rand::SeedableRng;
//!
//! let cfg = LsaConfig::new(2, 0, 2, 4).unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mut a = Client::<Fp61>::new(0, cfg, &mut rng).unwrap();
//! let mut b = Client::<Fp61>::new(1, cfg, &mut rng).unwrap();
//! let mut server = ServerRound::<Fp61>::new(cfg).unwrap();
//!
//! // offline: each client emits its coded shares as they are polled
//! while let Some((to, env)) = a.poll_output() {
//!     assert_eq!(to, Recipient::Client(1));
//!     b.handle(env).unwrap();
//! }
//! while let Some((to, env)) = b.poll_output() {
//!     a.handle(env).unwrap();
//! }
//!
//! // upload + recovery
//! a.upload_model(&[Fp61::from_u64(1); 4]).unwrap();
//! b.upload_model(&[Fp61::from_u64(2); 4]).unwrap();
//! for c in [&mut a, &mut b] {
//!     while let Some((_, env)) = c.poll_output() {
//!         server.handle(env).unwrap();
//!     }
//! }
//! server.close_upload_phase().unwrap();
//! while let Some((to, env)) = server.poll_output() {
//!     let c = if to == Recipient::Client(0) { &mut a } else { &mut b };
//!     for (_, reply) in c.handle(env).unwrap() {
//!         server.handle(reply).unwrap();
//!     }
//! }
//! assert_eq!(server.recover_aggregate().unwrap()[0], Fp61::from_u64(3));
//! ```

use crate::asynchronous::{AsyncClient, AsyncServer, WeightedAggregate};
use crate::config::LsaConfig;
use crate::federation::{BufferedVariant, LeafVariant, RoundOutcome};
use crate::ratchet::{self, ClientRatchet, ServerRatchet};
use crate::wire::{BufferAnnouncement, Envelope};
use crate::ProtocolError;
use lsa_field::Field;
use lsa_quantize::QuantizedStaleness;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// A protocol endpoint address: where an envelope should be delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Recipient {
    /// User (client) `i`.
    Client(usize),
    /// The aggregation server.
    Server,
}

/// An envelope together with its destination.
pub type Outgoing<F> = (Recipient, Envelope<F>);

/// The uniform sans-IO interface every session implements.
pub trait Session<F: Field> {
    /// This session's own address.
    fn local_addr(&self) -> Recipient;

    /// Process one incoming envelope, returning the envelopes to send in
    /// response (possibly none).
    ///
    /// # Errors
    ///
    /// Every malformed input surfaces as a typed [`ProtocolError`]:
    /// misrouted shares, duplicates, wrong-phase messages and envelope
    /// kinds the endpoint never accepts
    /// ([`ProtocolError::UnexpectedEnvelope`]). Errors leave the session
    /// in its previous state; the offending envelope is discarded.
    fn handle(&mut self, envelope: Envelope<F>) -> Result<Vec<Outgoing<F>>, ProtocolError>;

    /// Drain the next envelope produced by a local action (construction,
    /// upload, phase close). Returns `None` when the outbox is empty.
    fn poll_output(&mut self) -> Option<Outgoing<F>>;
}

// ---------------------------------------------------------------------
// Buffered-asynchronous protocol
// ---------------------------------------------------------------------

/// Sans-IO client for the buffered-asynchronous protocol (§4.2).
///
/// Owns a deterministic entropy stream injected at construction; mask
/// generation ([`AsyncClientSession::generate_round_mask`]) draws from
/// it, message handling never does.
#[derive(Debug, Clone)]
pub struct AsyncClientSession<F> {
    inner: AsyncClient<F>,
    entropy: StdRng,
    outbox: VecDeque<Outgoing<F>>,
    /// The client half of the stable-cohort handshake
    /// ([`crate::ratchet`]). Its base is a *round number*: that round's
    /// fully-exchanged state stays resident in the inner client.
    ratchet: ClientRatchet<u64>,
}

impl<F: Field> AsyncClientSession<F> {
    /// Create the session for user `id` with its own entropy stream.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidConfig`] if `id >= cfg.n()`.
    pub fn new(id: usize, cfg: LsaConfig, entropy: StdRng) -> Result<Self, ProtocolError> {
        Ok(Self {
            inner: AsyncClient::new(id, cfg)?,
            entropy,
            outbox: VecDeque::new(),
            ratchet: ClientRatchet::new(id, 0, cfg.ratchet().topology()),
        })
    }

    /// Create with an entropy stream derived from `rng` (convenience for
    /// drivers that hold one master RNG).
    ///
    /// # Errors
    ///
    /// Same as [`Self::new`].
    pub fn from_rng<R: Rng + ?Sized>(
        id: usize,
        cfg: LsaConfig,
        rng: &mut R,
    ) -> Result<Self, ProtocolError> {
        Self::new(id, cfg, StdRng::seed_from_u64(rng.gen()))
    }

    /// This client's user index.
    pub fn id(&self) -> usize {
        self.inner.id()
    }

    /// Local action: run the offline phase for `round` — sample the
    /// round mask from the session's entropy stream and queue the coded
    /// shares for every other user.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::DuplicateMessage`] if the round's mask already
    /// exists.
    pub fn generate_round_mask(&mut self, round: u64) -> Result<(), ProtocolError> {
        let shares = self.inner.generate_round_mask(round, &mut self.entropy)?;
        for s in shares {
            self.outbox
                .push_back((Recipient::Client(s.to), Envelope::TimestampedShare(s)));
        }
        Ok(())
    }

    /// Local action: mask the quantized update for `round` and queue the
    /// upload.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::MissingShares`] if the round's mask was never
    /// generated, or a length mismatch as [`ProtocolError::Coding`].
    pub fn upload_update(&mut self, round: u64, update: &[F]) -> Result<(), ProtocolError> {
        let masked = self.inner.mask_update(round, update)?;
        self.outbox
            .push_back((Recipient::Server, Envelope::TimestampedUpdate(masked)));
        Ok(())
    }

    /// Drop state for rounds `< keep_from` (bounded staleness). While a
    /// ratchet base is retained, the base round's state is kept alive
    /// regardless (and intermediate ratcheted rounds are evicted).
    pub fn discard_before(&mut self, keep_from: u64) {
        match self.ratchet.base() {
            Some(&base) => self.inner.discard_before_keeping(keep_from, base),
            None => self.inner.discard_before(keep_from),
        }
    }

    /// Number of stored `(sender, round)` coded shares.
    pub fn shares_stored(&self) -> usize {
        self.inner.shares_stored()
    }
}

impl<F: Field> Session<F> for AsyncClientSession<F> {
    fn local_addr(&self) -> Recipient {
        Recipient::Client(self.inner.id())
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
                self.inner.receive_share(share)?;
                Ok(Vec::new())
            }
            Envelope::BufferAnnouncement(ann) => {
                let share = self.inner.aggregated_share_for(ann.round, &ann.entries)?;
                Ok(vec![(Recipient::Server, Envelope::AggregatedShare(share))])
            }
            // a server commit: the shared handshake state derives the
            // round's mask from the retained base round and acks
            commit if ratchet::is_handshake(&commit) => {
                let round = commit.round();
                // a commit for an already-masked round is a replay, not
                // a fresh ratchet
                if let Some(current) = self.inner.latest_mask_round().filter(|&r| round <= r) {
                    return Err(ProtocolError::StaleRound {
                        got: round,
                        current,
                    });
                }
                let ((), ack) = self.ratchet.accept(&commit, |&mut base, nonce, topology| {
                    self.inner.ratchet_round_mask(round, base, nonce, topology)
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

/// Sans-IO server for the buffered-asynchronous protocol (§4.2).
///
/// The global round clock advances only through
/// [`AsyncServerSession::advance_to`]; staleness-weight randomness comes
/// from the entropy stream injected at construction.
#[derive(Debug, Clone)]
pub struct AsyncServerSession<F> {
    inner: AsyncServer<F>,
    entropy: StdRng,
    now: u64,
    n: usize,
    outbox: VecDeque<Outgoing<F>>,
    /// The server half of the stable-cohort handshake
    /// ([`crate::ratchet`]): the commit in flight and its queued
    /// announcements.
    ratchet: ServerRatchet<F>,
}

impl<F: Field> AsyncServerSession<F> {
    /// Create a server session with buffer size `K`.
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
        Ok(Self {
            inner: AsyncServer::new(cfg, buffer_size, staleness)?,
            entropy,
            now: 0,
            n: cfg.n(),
            outbox: VecDeque::new(),
            ratchet: ServerRatchet::new(0),
        })
    }

    /// The current global round.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Local action: advance the global round clock (never backwards).
    pub fn advance_to(&mut self, round: u64) {
        self.now = self.now.max(round);
    }

    /// Number of buffered updates.
    pub fn buffered(&self) -> usize {
        self.inner.buffered()
    }

    /// Whether the buffer has reached capacity.
    pub fn buffer_full(&self) -> bool {
        self.inner.buffer_full()
    }

    /// Local action: fix the (full) buffer and queue a
    /// [`BufferAnnouncement`] (stamped with the current round) to every
    /// user.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::WrongPhase`] until the buffer is full.
    pub fn announce(&mut self) -> Result<(), ProtocolError> {
        let entries = self.inner.announce(self.now)?;
        self.queue_announcement(entries);
        Ok(())
    }

    /// Local action: announce a partial buffer (deadline flush, §4.2).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::WrongPhase`] if the buffer is empty or already
    /// announced.
    pub fn announce_partial(&mut self) -> Result<(), ProtocolError> {
        let entries = self.inner.announce_partial(self.now)?;
        self.queue_announcement(entries);
        Ok(())
    }

    fn queue_announcement(&mut self, entries: Vec<crate::asynchronous::BufferEntry>) {
        for id in 0..self.n {
            self.outbox.push_back((
                Recipient::Client(id),
                Envelope::BufferAnnouncement(BufferAnnouncement {
                    group: 0,
                    round: self.now,
                    entries: entries.clone(),
                }),
            ));
        }
    }

    /// Local action: recover the staleness-weighted aggregate once `U`
    /// aggregated shares have arrived, clearing the buffer.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::WrongPhase`] /
    /// [`ProtocolError::NotEnoughSurvivors`] before then.
    pub fn recover(&mut self) -> Result<WeightedAggregate<F>, ProtocolError> {
        self.inner.recover()
    }
}

impl<F: Field> Session<F> for AsyncServerSession<F> {
    fn local_addr(&self) -> Recipient {
        Recipient::Server
    }

    fn handle(&mut self, envelope: Envelope<F>) -> Result<Vec<Outgoing<F>>, ProtocolError> {
        match envelope {
            Envelope::TimestampedUpdate(update) => {
                self.inner
                    .receive_update(update, self.now, &mut self.entropy)?;
                Ok(Vec::new())
            }
            Envelope::AggregatedShare(share) => {
                self.inner.receive_aggregated_share(share)?;
                Ok(Vec::new())
            }
            ack if ratchet::is_handshake(&ack) => self.ratchet.handle(&ack).map(|()| Vec::new()),
            other => Err(ProtocolError::UnexpectedEnvelope { kind: other.kind() }),
        }
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
    type Client = AsyncClientSession<F>;
    type Server = AsyncServerSession<F>;
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
        client.ratchet.join(round, |&mut base, nonce, topology| {
            client
                .inner
                .ratchet_round_mask(round, base, nonce, topology)
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
        client.inner.forget_round(round);
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
        server.inner.abandon_flush();
        server.outbox.clear();
    }
}

#[cfg(test)]
mod tests {
    //! The sync per-round endpoints ([`Client`], [`ServerRound`]) seen
    //! through the [`Session`] interface alone.
    use super::*;
    use crate::server::ServerPhase;
    use crate::wire::SurvivorAnnouncement;
    use crate::{Client, ServerRound};
    use lsa_field::Fp61;

    fn cfg() -> LsaConfig {
        LsaConfig::new(4, 1, 3, 6).unwrap()
    }

    #[test]
    fn construction_queues_shares() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut c = Client::<Fp61>::new(0, cfg(), &mut rng).unwrap();
        let mut count = 0;
        while let Some((to, env)) = c.poll_output() {
            assert!(matches!(env, Envelope::CodedMaskShare(_)));
            assert_ne!(to, Recipient::Client(0));
            count += 1;
        }
        assert_eq!(count, 3);
    }

    #[test]
    fn double_upload_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut c = Client::<Fp61>::new(0, cfg(), &mut rng).unwrap();
        c.upload_model(&[Fp61::ZERO; 6]).unwrap();
        assert!(matches!(
            c.upload_model(&[Fp61::ZERO; 6]),
            Err(ProtocolError::DuplicateMessage(0))
        ));
        // …also once the first upload has left the outbox, and a
        // rejected upload queues nothing
        while c.poll_output().is_some() {}
        assert!(matches!(
            c.upload_model(&[Fp61::ZERO; 6]),
            Err(ProtocolError::DuplicateMessage(0))
        ));
        assert!(c.poll_output().is_none());
    }

    #[test]
    fn client_rejects_server_bound_envelopes() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut c = Client::<Fp61>::new(0, cfg(), &mut rng).unwrap();
        let masked = Envelope::MaskedModel(crate::messages::MaskedModel {
            from: 1,
            group: 0,
            round: 0,
            payload: vec![Fp61::ZERO; cfg().padded_len()],
        });
        assert!(matches!(
            c.handle(masked),
            Err(ProtocolError::UnexpectedEnvelope {
                kind: crate::wire::EnvelopeKind::MaskedModel
            })
        ));
    }

    #[test]
    fn server_rejects_client_bound_envelopes() {
        let mut s = ServerRound::<Fp61>::new(cfg()).unwrap();
        let ann = Envelope::SurvivorAnnouncement(SurvivorAnnouncement {
            group: 0,
            round: 0,
            survivors: vec![0, 1, 2],
        });
        assert!(matches!(
            s.handle(ann),
            Err(ProtocolError::UnexpectedEnvelope {
                kind: crate::wire::EnvelopeKind::SurvivorAnnouncement
            })
        ));
    }

    #[test]
    fn full_round_through_sessions() {
        let cfg = cfg();
        let mut rng = StdRng::seed_from_u64(4);
        let mut clients: Vec<Client<Fp61>> = (0..4)
            .map(|id| Client::new(id, cfg, &mut rng).unwrap())
            .collect();
        let mut server = ServerRound::<Fp61>::new(cfg).unwrap();

        // offline exchange
        let mut pending = Vec::new();
        for c in clients.iter_mut() {
            while let Some(out) = c.poll_output() {
                pending.push(out);
            }
        }
        for (to, env) in pending {
            let Recipient::Client(i) = to else { panic!() };
            clients[i].handle(env).unwrap();
        }

        // upload
        for (i, c) in clients.iter_mut().enumerate() {
            c.upload_model(&[Fp61::from_u64(i as u64); 6]).unwrap();
            while let Some((to, env)) = c.poll_output() {
                assert_eq!(to, Recipient::Server);
                server.handle(env).unwrap();
            }
        }

        // recovery
        server.close_upload_phase().unwrap();
        let mut announcements = Vec::new();
        while let Some(out) = server.poll_output() {
            announcements.push(out);
        }
        for (to, env) in announcements {
            let Recipient::Client(i) = to else { panic!() };
            for (_, reply) in clients[i].handle(env).unwrap() {
                server.handle(reply).unwrap();
            }
        }
        // the decode is lazy: the U-th share only marks the round ready
        assert_eq!(server.phase(), ServerPhase::ReadyToRecover);
        assert_eq!(
            server.recover_aggregate().unwrap(),
            vec![Fp61::from_u64(6); 6]
        );
        assert_eq!(server.phase(), ServerPhase::Recovered);
    }
}
