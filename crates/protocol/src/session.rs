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
//! // offline: construction queued each client's coded shares
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
use crate::ratchet::{PadTopology, RatchetAnnouncement, RatchetWindowCommit, RATCHET_FROM_SERVER};
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
/// session ever uses) and queues the `N − 1` coded mask shares;
/// [`ClientSession::upload_model`] queues the masked model; receiving
/// the server's [`SurvivorAnnouncement`] yields the aggregated share.
#[derive(Debug, Clone)]
pub struct ClientSession<F> {
    inner: Client<F>,
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
        let inner = Client::for_round_in_group(id, round, group, cfg, rng)?;
        let outbox = inner
            .outgoing_shares()
            .into_iter()
            .map(|s| (Recipient::Client(s.to), Envelope::CodedMaskShare(s)))
            .collect();
        Ok(Self {
            inner,
            outbox,
            uploaded: false,
        })
    }

    /// Derive a session for a *ratcheted* round from retained base
    /// state ([`crate::ratchet`]): no coded shares are queued — the
    /// only envelope the offline phase produces is the fingerprint ack
    /// to the server.
    pub(crate) fn ratcheted(
        base: &mut Client<F>,
        round: u64,
        nonce: u64,
        fingerprint: u64,
        topology: PadTopology,
    ) -> Self {
        let inner = Client::ratcheted_from(base, round, nonce, topology);
        let mut outbox = VecDeque::new();
        outbox.push_back((
            Recipient::Server,
            Envelope::RatchetAnnouncement(RatchetAnnouncement {
                from: inner.id() as u32,
                group: inner.group(),
                round,
                nonce,
                fingerprint,
            }),
        ));
        Self {
            inner,
            outbox,
            uploaded: false,
        }
    }

    /// As [`Self::ratcheted`], but without queueing an ack: the round's
    /// nonce was already committed (and acked) as part of a
    /// [`RatchetWindowCommit`] window, so joining it costs zero wire
    /// traffic.
    pub(crate) fn ratcheted_quiet(
        base: &mut Client<F>,
        round: u64,
        nonce: u64,
        topology: PadTopology,
    ) -> Self {
        Self {
            inner: Client::ratcheted_from(base, round, nonce, topology),
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
    /// Retained `(base round, cohort fingerprint)` for the stable-cohort
    /// ratchet: set after a full offline exchange completes, cleared on
    /// any churn ([`crate::ratchet`]).
    ratchet: Option<(u64, u64)>,
    /// Pad topology for ratcheted rounds (which edges get pairwise
    /// pads); both endpoints of a cohort must agree.
    topology: PadTopology,
    /// Pre-committed window nonces, `round → nonce`: rounds here can be
    /// joined via [`Self::ratchet_join`] with zero wire traffic.
    window: std::collections::BTreeMap<u64, u64>,
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
            ratchet: None,
            topology: crate::ratchet::pad_topology(),
            window: std::collections::BTreeMap::new(),
        })
    }

    /// Override the pad topology used for ratcheted rounds (defaults to
    /// the `LSA_PAD_TOPOLOGY` environment knob at construction).
    pub fn set_pad_topology(&mut self, topology: PadTopology) {
        self.topology = topology;
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
        match self.ratchet {
            Some((base, _)) => self.inner.discard_before_keeping(keep_from, base),
            None => self.inner.discard_before(keep_from),
        }
    }

    /// Number of stored `(sender, round)` coded shares.
    pub fn shares_stored(&self) -> usize {
        self.inner.shares_stored()
    }

    /// Mark `base_round`'s fully-exchanged state as the ratchet base for
    /// the cohort identified by `fingerprint`.
    pub(crate) fn harvest_ratchet(&mut self, base_round: u64, fingerprint: u64) {
        self.ratchet = Some((base_round, fingerprint));
    }

    /// Forget any retained ratchet base (churn, reassignment, mismatch),
    /// along with every pre-committed window nonce: the nonces were
    /// bound to the dead cohort and must never mask another one.
    pub(crate) fn clear_ratchet(&mut self) {
        self.ratchet = None;
        self.window.clear();
    }

    /// Join a round whose nonce was pre-committed in a window: derive
    /// the round mask locally, consuming the stored nonce. Zero wire
    /// traffic.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::RatchetMismatch`] when no base is retained or
    /// `round` is not in the committed window.
    pub(crate) fn ratchet_join(&mut self, round: u64) -> Result<(), ProtocolError> {
        let (base_round, _) = self.ratchet.ok_or(ProtocolError::RatchetMismatch)?;
        let nonce = self
            .window
            .remove(&round)
            .ok_or(ProtocolError::RatchetMismatch)?;
        self.inner
            .ratchet_round_mask(round, base_round, nonce, self.topology)
    }

    /// Drop exactly one round's mask and share state — rollback of a
    /// half-built ratcheted round.
    pub(crate) fn forget_round(&mut self, round: u64) {
        self.inner.forget_round(round);
    }
}

impl<F: Field> Session<F> for AsyncClientSession<F> {
    fn local_addr(&self) -> Recipient {
        Recipient::Client(self.inner.id())
    }

    fn handle(&mut self, envelope: Envelope<F>) -> Result<Vec<Outgoing<F>>, ProtocolError> {
        match envelope {
            Envelope::TimestampedShare(share) => {
                self.inner.receive_share(share)?;
                Ok(Vec::new())
            }
            Envelope::BufferAnnouncement(ann) => {
                if ann.group != 0 {
                    return Err(ProtocolError::WrongGroup {
                        got: ann.group,
                        expected: 0,
                    });
                }
                let share = self.inner.aggregated_share_for(ann.round, &ann.entries)?;
                Ok(vec![(Recipient::Server, Envelope::AggregatedShare(share))])
            }
            Envelope::RatchetAnnouncement(ann) => {
                if ann.group != 0 {
                    return Err(ProtocolError::WrongGroup {
                        got: ann.group,
                        expected: 0,
                    });
                }
                if ann.from != RATCHET_FROM_SERVER {
                    return Err(ProtocolError::UnexpectedEnvelope {
                        kind: crate::wire::EnvelopeKind::RatchetAnnouncement,
                    });
                }
                // a commit replayed from an already-masked round is a
                // replay, not a fresh ratchet
                if let Some(current) = self.inner.latest_mask_round() {
                    if ann.round <= current {
                        return Err(ProtocolError::StaleRound {
                            got: ann.round,
                            current,
                        });
                    }
                }
                let (base_round, fingerprint) =
                    self.ratchet.ok_or(ProtocolError::RatchetMismatch)?;
                if ann.fingerprint != fingerprint {
                    return Err(ProtocolError::RatchetMismatch);
                }
                self.inner
                    .ratchet_round_mask(ann.round, base_round, ann.nonce, self.topology)?;
                Ok(vec![(
                    Recipient::Server,
                    Envelope::RatchetAnnouncement(RatchetAnnouncement {
                        from: self.inner.id() as u32,
                        group: 0,
                        round: ann.round,
                        nonce: ann.nonce,
                        fingerprint,
                    }),
                )])
            }
            Envelope::RatchetWindowCommit(commit) => {
                if commit.group != 0 {
                    return Err(ProtocolError::WrongGroup {
                        got: commit.group,
                        expected: 0,
                    });
                }
                if commit.from != RATCHET_FROM_SERVER || commit.nonces.is_empty() {
                    return Err(ProtocolError::UnexpectedEnvelope {
                        kind: crate::wire::EnvelopeKind::RatchetWindowCommit,
                    });
                }
                if let Some(current) = self.inner.latest_mask_round() {
                    if commit.round <= current {
                        return Err(ProtocolError::StaleRound {
                            got: commit.round,
                            current,
                        });
                    }
                }
                let (base_round, fingerprint) =
                    self.ratchet.ok_or(ProtocolError::RatchetMismatch)?;
                if commit.fingerprint != fingerprint {
                    return Err(ProtocolError::RatchetMismatch);
                }
                // the window replaces any previous one; the first round
                // is derived (and acked) immediately, the rest join
                // later via `ratchet_join` with zero wire traffic
                self.topology = commit.topology;
                self.inner.ratchet_round_mask(
                    commit.round,
                    base_round,
                    commit.nonces[0],
                    self.topology,
                )?;
                self.window.clear();
                for (i, &nonce) in commit.nonces.iter().enumerate().skip(1) {
                    self.window.insert(commit.round + i as u64, nonce);
                }
                Ok(vec![(
                    Recipient::Server,
                    Envelope::RatchetWindowCommit(RatchetWindowCommit {
                        from: self.inner.id() as u32,
                        group: 0,
                        round: commit.round,
                        fingerprint,
                        topology: commit.topology,
                        nonces: Vec::new(),
                    }),
                )])
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
    /// In-flight ratchet commit: `(round, nonce, fingerprint, acks)`.
    ratchet: Option<(u64, u64, u64, std::collections::BTreeSet<usize>)>,
    /// In-flight windowed ratchet commit:
    /// `(first round, fingerprint, acks)`.
    window: Option<(u64, u64, std::collections::BTreeSet<usize>)>,
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
            ratchet: None,
            window: None,
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

    /// Local action: commit the ratchet nonce for `round` and queue a
    /// [`RatchetAnnouncement`] to every user ([`crate::ratchet`]).
    pub(crate) fn commit_ratchet(&mut self, round: u64, nonce: u64, fingerprint: u64) {
        self.ratchet = Some((round, nonce, fingerprint, std::collections::BTreeSet::new()));
        for id in 0..self.n {
            self.outbox.push_back((
                Recipient::Client(id),
                Envelope::RatchetAnnouncement(RatchetAnnouncement {
                    from: RATCHET_FROM_SERVER,
                    group: 0,
                    round,
                    nonce,
                    fingerprint,
                }),
            ));
        }
    }

    /// Whether every one of the `expect` cohort members acked the
    /// in-flight commit for `round`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::RatchetMismatch`] when no commit is in flight
    /// for `round` or acks are missing.
    pub(crate) fn ratchet_ready(&mut self, round: u64, expect: usize) -> Result<(), ProtocolError> {
        match self.ratchet.take() {
            Some((r, _, _, acks)) if r == round && acks.len() == expect => Ok(()),
            _ => Err(ProtocolError::RatchetMismatch),
        }
    }

    /// Local action: commit a *window* of ratchet nonces starting at
    /// `round` and queue one [`RatchetWindowCommit`] to every user; one
    /// handshake covers `nonces.len()` rounds ([`crate::ratchet`]).
    pub(crate) fn commit_ratchet_window(
        &mut self,
        round: u64,
        fingerprint: u64,
        topology: PadTopology,
        nonces: Vec<u64>,
    ) {
        self.window = Some((round, fingerprint, std::collections::BTreeSet::new()));
        for id in 0..self.n {
            self.outbox.push_back((
                Recipient::Client(id),
                Envelope::RatchetWindowCommit(RatchetWindowCommit {
                    from: RATCHET_FROM_SERVER,
                    group: 0,
                    round,
                    fingerprint,
                    topology,
                    nonces: nonces.clone(),
                }),
            ));
        }
    }

    /// Whether every one of the `expect` cohort members acked the
    /// in-flight window commit opening at `round`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::RatchetMismatch`] when no window commit is in
    /// flight for `round` or acks are missing.
    pub(crate) fn ratchet_window_ready(
        &mut self,
        round: u64,
        expect: usize,
    ) -> Result<(), ProtocolError> {
        match self.window.take() {
            Some((r, _, acks)) if r == round && acks.len() == expect => Ok(()),
            _ => Err(ProtocolError::RatchetMismatch),
        }
    }

    /// Forget any in-flight ratchet commit, including announcements not
    /// yet drained (a replayed commit after rollback would poison fresh
    /// sessions).
    pub(crate) fn clear_ratchet(&mut self) {
        self.ratchet = None;
        self.window = None;
        self.outbox.retain(|(_, e)| {
            !matches!(
                e,
                Envelope::RatchetAnnouncement(_) | Envelope::RatchetWindowCommit(_)
            )
        });
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
            Envelope::RatchetAnnouncement(ann) => {
                let Some((round, nonce, fingerprint, acks)) = self.ratchet.as_mut() else {
                    return Err(ProtocolError::RatchetMismatch);
                };
                if ann.round != *round {
                    return Err(ProtocolError::StaleRound {
                        got: ann.round,
                        current: *round,
                    });
                }
                if ann.nonce != *nonce || ann.fingerprint != *fingerprint {
                    return Err(ProtocolError::RatchetMismatch);
                }
                let id = ann.from as usize;
                if id >= self.n {
                    return Err(ProtocolError::UnknownUser(id));
                }
                if !acks.insert(id) {
                    return Err(ProtocolError::DuplicateMessage(id));
                }
                Ok(Vec::new())
            }
            Envelope::RatchetWindowCommit(ack) => {
                let Some((round, fingerprint, acks)) = self.window.as_mut() else {
                    return Err(ProtocolError::RatchetMismatch);
                };
                if ack.round != *round {
                    return Err(ProtocolError::StaleRound {
                        got: ack.round,
                        current: *round,
                    });
                }
                if ack.fingerprint != *fingerprint {
                    return Err(ProtocolError::RatchetMismatch);
                }
                let id = ack.from as usize;
                if id >= self.n {
                    return Err(ProtocolError::UnknownUser(id));
                }
                if !acks.insert(id) {
                    return Err(ProtocolError::DuplicateMessage(id));
                }
                Ok(Vec::new())
            }
            other => Err(ProtocolError::UnexpectedEnvelope { kind: other.kind() }),
        }
    }

    fn poll_output(&mut self) -> Option<Outgoing<F>> {
        self.outbox.pop_front()
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
