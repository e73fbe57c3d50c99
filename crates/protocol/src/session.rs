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
//! * [`ClientSession`] / [`ServerSession`] — the synchronous protocol
//!   (§4.1, Algorithm 1);
//! * [`AsyncClientSession`] / [`AsyncServerSession`] — the
//!   buffered-asynchronous variant (§4.2, Appendix F).
//!
//! # Example: pumping a session by hand
//!
//! ```
//! use lsa_protocol::session::{ClientSession, Recipient, ServerSession, Session};
//! use lsa_protocol::LsaConfig;
//! use lsa_field::{Field, Fp61};
//! use rand::SeedableRng;
//!
//! let cfg = LsaConfig::new(2, 0, 2, 4).unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mut a = ClientSession::<Fp61>::new(0, cfg, &mut rng).unwrap();
//! let mut b = ClientSession::<Fp61>::new(1, cfg, &mut rng).unwrap();
//! let mut server = ServerSession::<Fp61>::new(cfg).unwrap();
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
//! server.close_upload().unwrap();
//! while let Some((to, env)) = server.poll_output() {
//!     let c = if to == Recipient::Client(0) { &mut a } else { &mut b };
//!     for (_, reply) in c.handle(env).unwrap() {
//!         server.handle(reply).unwrap();
//!     }
//! }
//! assert_eq!(server.recover().unwrap()[0], Fp61::from_u64(3));
//! ```

use crate::asynchronous::{AsyncClient, AsyncServer, WeightedAggregate};
use crate::client::Client;
use crate::config::LsaConfig;
use crate::federation::{BufferedVariant, LeafVariant, RoundOutcome};
use crate::ratchet::{self, ClientRatchet, PadTopology, ServerRatchet};
use crate::server::{ServerPhase, ServerRound};
use crate::wire::{BufferAnnouncement, Envelope, SurvivorAnnouncement};
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
// Synchronous protocol
// ---------------------------------------------------------------------

/// Sans-IO client for the synchronous protocol (§4.1).
///
/// Construction runs the offline mask generation (the only entropy the
/// session ever uses); the `N − 1` coded mask shares are not queued but
/// built one at a time as [`Session::poll_output`] asks for them, ahead
/// of everything in the outbox, so a driver that delivers as it polls
/// never holds a second copy of the share table.
/// [`ClientSession::upload_model`] queues the masked model; receiving
/// the server's [`SurvivorAnnouncement`] yields the aggregated share.
#[derive(Debug, Clone)]
pub struct ClientSession<F> {
    inner: Client<F>,
    /// Next peer whose coded share is still to be emitted (`n` once the
    /// offline phase is out, and from the start for a ratcheted round).
    next_share: usize,
    outbox: VecDeque<Outgoing<F>>,
    uploaded: bool,
}

impl<F: Field> ClientSession<F> {
    /// Create the session for user `id` at round 0, sampling the local
    /// mask from `rng` (entropy is injected here and never used again).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidConfig`] if `id >= cfg.n()`.
    pub fn new<R: Rng + ?Sized>(
        id: usize,
        cfg: LsaConfig,
        rng: &mut R,
    ) -> Result<Self, ProtocolError> {
        Self::for_round(id, 0, cfg, rng)
    }

    /// Create the session for user `id` serving federation round
    /// `round`. Every emitted envelope is stamped with `round`; every
    /// accepted envelope must carry it, or the session rejects it as
    /// [`ProtocolError::StaleRound`].
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidConfig`] if `id >= cfg.n()`.
    pub fn for_round<R: Rng + ?Sized>(
        id: usize,
        round: u64,
        cfg: LsaConfig,
        rng: &mut R,
    ) -> Result<Self, ProtocolError> {
        Self::for_round_in_group(id, round, 0, cfg, rng)
    }

    /// As [`Self::for_round`], but serving aggregation group `group` of a
    /// grouped topology ([`crate::topology`]); `id` is group-local and
    /// cross-group envelopes are rejected with
    /// [`ProtocolError::WrongGroup`].
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidConfig`] if `id >= cfg.n()`.
    pub fn for_round_in_group<R: Rng + ?Sized>(
        id: usize,
        round: u64,
        group: usize,
        cfg: LsaConfig,
        rng: &mut R,
    ) -> Result<Self, ProtocolError> {
        Ok(Self {
            inner: Client::for_round_in_group(id, round, group, cfg, rng)?,
            next_share: 0,
            outbox: VecDeque::new(),
            uploaded: false,
        })
    }

    /// Derive a session for a *ratcheted* round from retained base
    /// state ([`crate::ratchet`]): no coded shares are emitted — the
    /// offline phase was the commit/ack handshake (or nothing at all,
    /// for a round joined from a pre-committed window).
    pub(crate) fn ratcheted(
        base: &mut Client<F>,
        round: u64,
        nonce: u64,
        topology: PadTopology,
    ) -> Self {
        Self {
            inner: Client::ratcheted_from(base, round, nonce, topology),
            next_share: base.config().n(),
            outbox: VecDeque::new(),
            uploaded: false,
        }
    }

    /// Give up the underlying client state (a finished round's session
    /// retiring into a ratchet base).
    pub(crate) fn into_client(self) -> Client<F> {
        self.inner
    }

    /// This client's user index.
    pub fn id(&self) -> usize {
        self.inner.id()
    }

    /// The federation round this session is serving.
    pub fn round(&self) -> u64 {
        self.inner.round()
    }

    /// The aggregation group this session belongs to (0 when flat).
    pub fn group(&self) -> usize {
        self.inner.group()
    }

    /// How many coded shares have been received (incl. the self share).
    pub fn shares_received(&self) -> usize {
        self.inner.shares_received()
    }

    /// Local action: mask the quantized model and queue the upload
    /// (Algorithm 1 line 14).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::DuplicateMessage`] on a second upload, or a
    /// length mismatch as [`ProtocolError::Coding`].
    pub fn upload_model(&mut self, model: &[F]) -> Result<(), ProtocolError> {
        if self.uploaded {
            return Err(ProtocolError::DuplicateMessage(self.inner.id()));
        }
        let masked = self.inner.mask_model(model)?;
        self.uploaded = true;
        self.outbox
            .push_back((Recipient::Server, Envelope::MaskedModel(masked)));
        Ok(())
    }

    /// Local action: upload a weighted model `s_i·x_i` (Remark 3).
    ///
    /// # Errors
    ///
    /// Same as [`Self::upload_model`].
    pub fn upload_weighted_model(&mut self, model: &[F], weight: u64) -> Result<(), ProtocolError> {
        if self.uploaded {
            return Err(ProtocolError::DuplicateMessage(self.inner.id()));
        }
        let masked = self.inner.mask_weighted_model(model, weight)?;
        self.uploaded = true;
        self.outbox
            .push_back((Recipient::Server, Envelope::MaskedModel(masked)));
        Ok(())
    }
}

impl<F: Field> Session<F> for ClientSession<F> {
    fn local_addr(&self) -> Recipient {
        Recipient::Client(self.inner.id())
    }

    fn handle(&mut self, envelope: Envelope<F>) -> Result<Vec<Outgoing<F>>, ProtocolError> {
        match envelope {
            Envelope::CodedMaskShare(share) => {
                self.inner.receive_share(share)?;
                Ok(Vec::new())
            }
            Envelope::SurvivorAnnouncement(ann) => {
                if ann.group != self.inner.group() {
                    return Err(ProtocolError::WrongGroup {
                        got: ann.group,
                        expected: self.inner.group(),
                    });
                }
                if ann.round != self.inner.round() {
                    return Err(ProtocolError::StaleRound {
                        got: ann.round,
                        current: self.inner.round(),
                    });
                }
                let share = self.inner.aggregated_share_for(&ann.survivors)?;
                Ok(vec![(Recipient::Server, Envelope::AggregatedShare(share))])
            }
            other => Err(ProtocolError::UnexpectedEnvelope { kind: other.kind() }),
        }
    }

    fn poll_output(&mut self) -> Option<Outgoing<F>> {
        while self.next_share < self.inner.config().n() {
            let to = self.next_share;
            self.next_share += 1;
            if to != self.inner.id() {
                let share = self.inner.outgoing_share(to);
                return Some((Recipient::Client(to), Envelope::CodedMaskShare(share)));
            }
        }
        self.outbox.pop_front()
    }
}

/// Sans-IO server for the synchronous protocol (§4.1).
///
/// Collects masked models; [`ServerSession::close_upload`] fixes the
/// survivor set and queues one [`SurvivorAnnouncement`] per survivor;
/// once `U` aggregated shares arrive, [`ServerSession::recover`] runs
/// the one-shot decode and caches the aggregate.
///
/// Recovery is **deliberately lazy**: receiving the `U`-th share only
/// marks the session ready. The `O(U²) + O(U·d)` decode runs when the
/// owner asks for the aggregate — which lets a grouped topology decode
/// its `G` independent groups on a thread pool instead of inline in the
/// (serial) message-pump.
#[derive(Debug, Clone)]
pub struct ServerSession<F: Field> {
    inner: ServerRound<F>,
    outbox: VecDeque<Outgoing<F>>,
    aggregate: Option<Vec<F>>,
}

impl<F: Field> ServerSession<F> {
    /// Start round 0 (single-round use).
    ///
    /// # Errors
    ///
    /// Propagates invalid configuration as [`ProtocolError::Coding`].
    pub fn new(cfg: LsaConfig) -> Result<Self, ProtocolError> {
        Self::for_round(cfg, 0)
    }

    /// Start the server session for federation round `round`; envelopes
    /// stamped with any other round are rejected as
    /// [`ProtocolError::StaleRound`].
    ///
    /// # Errors
    ///
    /// Propagates invalid configuration as [`ProtocolError::Coding`].
    pub fn for_round(cfg: LsaConfig, round: u64) -> Result<Self, ProtocolError> {
        Self::for_round_in_group(cfg, round, 0)
    }

    /// As [`Self::for_round`], but serving aggregation group `group` of a
    /// grouped topology ([`crate::topology`]); cross-group envelopes are
    /// rejected with [`ProtocolError::WrongGroup`].
    ///
    /// # Errors
    ///
    /// Propagates invalid configuration as [`ProtocolError::Coding`].
    pub fn for_round_in_group(
        cfg: LsaConfig,
        round: u64,
        group: usize,
    ) -> Result<Self, ProtocolError> {
        Ok(Self {
            inner: ServerRound::for_round_in_group(cfg, round, group)?,
            outbox: VecDeque::new(),
            aggregate: None,
        })
    }

    /// Current protocol phase.
    pub fn phase(&self) -> ServerPhase {
        self.inner.phase()
    }

    /// The federation round this session is serving.
    pub fn round(&self) -> u64 {
        self.inner.round()
    }

    /// The aggregation group this session serves (0 when flat).
    pub fn group(&self) -> usize {
        self.inner.group()
    }

    /// How many masked models have been received.
    pub fn models_received(&self) -> usize {
        self.inner.models_received()
    }

    /// How many aggregated shares have been received.
    pub fn shares_received(&self) -> usize {
        self.inner.shares_received()
    }

    /// The survivor set `U₁` (valid after [`Self::close_upload`]).
    pub fn survivors(&self) -> &[usize] {
        self.inner.survivors()
    }

    /// Local action: close the upload phase, fix `U₁`, and queue a
    /// [`SurvivorAnnouncement`] to every survivor.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::NotEnoughSurvivors`] if fewer than `U` users
    /// uploaded, [`ProtocolError::WrongPhase`] on a second close.
    pub fn close_upload(&mut self) -> Result<&[usize], ProtocolError> {
        let round = self.inner.round();
        let group = self.inner.group();
        let survivors = self.inner.close_upload_phase()?.to_vec();
        for &s in &survivors {
            self.outbox.push_back((
                Recipient::Client(s),
                Envelope::SurvivorAnnouncement(SurvivorAnnouncement {
                    group,
                    round,
                    survivors: survivors.clone(),
                }),
            ));
        }
        Ok(self.inner.survivors())
    }

    /// The recovered aggregate. Runs the one-shot decode on first call
    /// (once `U` aggregated shares have arrived) and caches the result;
    /// later calls are free.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::WrongPhase`] before `U` shares arrived, or a
    /// [`ProtocolError::Coding`] decode failure.
    pub fn recover(&mut self) -> Result<&[F], ProtocolError> {
        if self.aggregate.is_none() {
            self.aggregate = Some(self.inner.recover_aggregate()?);
        }
        Ok(self.aggregate.as_deref().expect("just recovered"))
    }

    /// The cached aggregate, if [`Self::recover`] has run.
    pub fn aggregate(&self) -> Option<&[F]> {
        self.aggregate.as_deref()
    }

    /// Whether `U` aggregated shares have arrived, i.e. whether
    /// [`Self::recover`] will succeed (or already has).
    pub fn is_complete(&self) -> bool {
        self.aggregate.is_some() || self.inner.phase() == ServerPhase::ReadyToRecover
    }
}

impl<F: Field> Session<F> for ServerSession<F> {
    fn local_addr(&self) -> Recipient {
        Recipient::Server
    }

    fn handle(&mut self, envelope: Envelope<F>) -> Result<Vec<Outgoing<F>>, ProtocolError> {
        match envelope {
            Envelope::MaskedModel(m) => {
                self.inner.receive_masked_model(m)?;
                Ok(Vec::new())
            }
            Envelope::AggregatedShare(s) => {
                // receiving the U-th share only marks the session ready;
                // the decode itself is deferred to `recover()` so owners
                // can schedule it (e.g. in parallel across groups)
                self.inner.receive_aggregated_share(s)?;
                Ok(Vec::new())
            }
            other => Err(ProtocolError::UnexpectedEnvelope { kind: other.kind() }),
        }
    }

    fn poll_output(&mut self) -> Option<Outgoing<F>> {
        self.outbox.pop_front()
    }
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
    use super::*;
    use lsa_field::Fp61;

    fn cfg() -> LsaConfig {
        LsaConfig::new(4, 1, 3, 6).unwrap()
    }

    #[test]
    fn construction_queues_shares() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut c = ClientSession::<Fp61>::new(0, cfg(), &mut rng).unwrap();
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
        let mut c = ClientSession::<Fp61>::new(0, cfg(), &mut rng).unwrap();
        c.upload_model(&[Fp61::ZERO; 6]).unwrap();
        assert!(matches!(
            c.upload_model(&[Fp61::ZERO; 6]),
            Err(ProtocolError::DuplicateMessage(0))
        ));
    }

    #[test]
    fn client_rejects_server_bound_envelopes() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut c = ClientSession::<Fp61>::new(0, cfg(), &mut rng).unwrap();
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
        let mut s = ServerSession::<Fp61>::new(cfg()).unwrap();
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
        let mut clients: Vec<ClientSession<Fp61>> = (0..4)
            .map(|id| ClientSession::new(id, cfg, &mut rng).unwrap())
            .collect();
        let mut server = ServerSession::<Fp61>::new(cfg).unwrap();

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
        server.close_upload().unwrap();
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
        assert!(server.is_complete());
        // the decode is lazy: nothing cached until recover() runs
        assert!(server.aggregate().is_none());
        assert_eq!(server.recover().unwrap(), vec![Fp61::from_u64(6); 6]);
        assert_eq!(server.aggregate().unwrap(), vec![Fp61::from_u64(6); 6]);
    }
}
