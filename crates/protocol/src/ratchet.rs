//! Stable-cohort mask ratchet: skip the offline phase when the cohort
//! doesn't change.
//!
//! LightSecAgg re-runs the full offline mask-encoding/share-exchange
//! phase every round, even when the cohort is identical to the last
//! round's. In that stable case the expensive part — the all-to-all
//! [`CodedMaskShare`](crate::CodedMaskShare) exchange — can be elided
//! entirely: every client *retains* its round-r base state (its own
//! mask `m_i`, the coded shares it sent, and the coded shares it
//! received), and derives its round-(r+k) mask as
//!
//! ```text
//!     z_i^(r+k) = m_i + u_i^(r+k)
//!     u_i^(r+k) = Σ_{j ∈ cohort, j ≠ i}  σ(i,j) · PRG(ρ_ij ‖ nonce_{r+k})
//! ```
//!
//! where `σ(i,j) = +1` for the lower-id endpoint of the pair and `−1`
//! for the higher one, and the pairwise seed `ρ_ij` is hashed from
//! material both endpoints of the edge already hold — the two coded
//! shares that crossed the edge during the base round's offline phase.
//! The pairwise pads telescope to zero over the full cohort, so the sum
//! of the ratcheted masks equals the sum of the *base* masks, and the
//! server recovers `Σ m_i` through the unchanged partial-recovery
//! machinery (survivors answer the survivor announcement with sums of
//! their *retained* base shares). No new share traffic, no new
//! recovery code path.
//!
//! The handshake that replaces the offline phase is a single round
//! trip: the server commits a fresh `nonce` per round (one
//! [`RatchetAnnouncement`], or one [`RatchetWindowCommit`] carrying the
//! nonces of the next `W` rounds) under the cohort fingerprint it
//! believes in, each client checks the fingerprint against its retained
//! state and acks. Any churn, reassignment, or disagreement surfaces as
//! the typed
//! [`ProtocolError::RatchetMismatch`]
//! and falls back to the ordinary full offline exchange.
//!
//! That handshake is implemented **once**, here, for both protocol
//! variants. `ClientRatchet` is the client half: the retained base
//! and its fingerprint, the pad topology, the banked window nonces; it
//! reads a commit, lets the endpoint derive the round under the
//! committed nonce and returns the ack. `ServerRatchet` is the server
//! half: the one commit in flight, the members that must ack it, the
//! acks so far. The [`crate::FederationClient`] and the
//! [`crate::FederationServer`] of either protocol own one each and route
//! the two handshake envelope kinds into it without looking inside;
//! what the client supplies is only *how* a round is derived from its
//! base.
//! *When* to commit, join or roll back is decided by the one driver,
//! [`crate::federation::LeafFederation`].
//!
//! Security: in a ratcheted round each mask is `m_i` plus a pad that is
//! *pseudorandom* under the committed nonce, so per-round privacy
//! degrades from information-theoretic to computational (PRG) — the
//! pads are fresh per round (the nonce is hashed into every pad seed),
//! so masked uploads from different rounds never reuse a pad, and the
//! base masks `m_i` are never exposed because the server only ever
//! learns `Σ m_i` over the announced survivor set. See README
//! ("Stable-cohort fast path") for the full argument.

use lsa_crypto::{sha256::Sha256, FieldPrg, Seed};
use lsa_field::Field;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::config::LsaConfig;
use crate::session::{Outgoing, Recipient};
use crate::wire::{Envelope, EnvelopeKind};
use crate::ProtocolError;

/// Domain tag for per-member fingerprint digests.
const FP_DOMAIN: &[u8] = b"lsa-ratchet-fp-v1";
/// Domain tag for pairwise pad seeds.
const PAIR_DOMAIN: &[u8] = b"lsa-ratchet-pair-v1";
/// Domain tag for the pad-epoch evolution across reseats.
const EPOCH_DOMAIN: &[u8] = b"lsa-ratchet-epoch-v1";

/// Sender id the server stamps into a [`RatchetAnnouncement`]; client
/// acks carry the client's own id, which is always `< n < u32::MAX`.
pub const RATCHET_FROM_SERVER: u32 = u32::MAX;

/// Order-independent digest of a cohort: who participates, in which
/// seat, under which per-group code parameters.
///
/// Two rounds with equal fingerprints see the same clients in the same
/// leaf slots under the same `LsaConfig`, which is exactly the
/// condition under which retained offline state can be re-used. The
/// combine is a wrapping sum of per-member SHA-256 digests, so the
/// fingerprint does not depend on cohort ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CohortFingerprint(u64);

impl CohortFingerprint {
    /// Rebuild a fingerprint from its raw wire representation.
    pub fn from_raw(raw: u64) -> Self {
        CohortFingerprint(raw)
    }

    /// The raw 64-bit value (what [`RatchetAnnouncement`] carries).
    #[cfg(test)]
    pub(crate) fn raw(self) -> u64 {
        self.0
    }

    /// Fingerprint a cohort given per-member `(group, config, global
    /// id, slot)` tuples. Order-independent.
    pub(crate) fn of_members<I>(members: I) -> Self
    where
        I: IntoIterator<Item = (usize, LsaConfig, usize, usize)>,
    {
        let mut acc = 0u64;
        for (group, cfg, id, slot) in members {
            acc = acc.wrapping_add(member_digest(group, cfg, id, slot));
        }
        CohortFingerprint(acc)
    }

    /// Fingerprint a flat (single-group) cohort, where each member's
    /// slot is its own id.
    #[cfg(test)]
    pub(crate) fn of_flat(group: usize, cfg: LsaConfig, cohort: &[usize]) -> Self {
        Self::of_members(cohort.iter().map(|&id| (group, cfg, id, id)))
    }
}

/// SHA-256-derived digest of one cohort seat.
pub(crate) fn member_digest(group: usize, cfg: LsaConfig, id: usize, slot: usize) -> u64 {
    let (n, t, u, d) = (cfg.n(), cfg.t(), cfg.u(), cfg.d());
    digest_words(FP_DOMAIN, [group, n, t, u, d, id, slot].map(|v| v as u64))
}

/// The first 8 bytes, read little-endian, of
/// `SHA-256(domain ‖ words)` with every word little-endian.
fn digest_words<const W: usize>(domain: &[u8], words: [u64; W]) -> u64 {
    let mut h = Sha256::new();
    h.update(domain);
    for v in words {
        h.update(&v.to_le_bytes());
    }
    u64::from_le_bytes(h.finalize()[..8].try_into().expect("8-byte prefix"))
}

/// The wire handshake that replaces the offline phase in a ratcheted
/// round.
///
/// Server → client: commits the per-round `nonce` under the cohort
/// `fingerprint` the server expects (`from` is
/// [`RATCHET_FROM_SERVER`]). Client → server: echoes the same fields as
/// an ack (`from` is the client id). A mismatched fingerprint or nonce
/// is [`ProtocolError::RatchetMismatch`];
/// a replayed announcement from an earlier round is
/// [`ProtocolError::StaleRound`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RatchetAnnouncement {
    /// [`RATCHET_FROM_SERVER`] for the commit, the client id for acks.
    pub from: u32,
    /// Group the round belongs to (wire group id).
    pub group: usize,
    /// The round being opened without an offline exchange.
    pub round: u64,
    /// Per-round nonce hashed into every pairwise pad seed.
    pub nonce: u64,
    /// Raw value of the [`CohortFingerprint`] both sides must agree on
    /// ([`CohortFingerprint::from_raw`] reads it back).
    pub fingerprint: u64,
}

/// The batched form of [`RatchetAnnouncement`]: one commit carries the
/// nonces of `W` consecutive rounds, so a steady stretch pays the
/// commit/ack round trip once per window instead of once per round.
///
/// Server → client: commits `nonces[k]` for round `round + k` under
/// `fingerprint` and the pad `topology` both sides must use (`from` is
/// [`RATCHET_FROM_SERVER`]). Client → server: echoes every field as an
/// ack (`from` is the client id). The first window round is derived and
/// acked immediately; later rounds are joined locally with **zero**
/// wire traffic. Any churn, fingerprint or topology disagreement is
/// [`ProtocolError::RatchetMismatch`]
/// and purges the remaining window nonces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RatchetWindowCommit {
    /// [`RATCHET_FROM_SERVER`] for the commit, the client id for acks.
    pub from: u32,
    /// Group the window belongs to (wire group id).
    pub group: usize,
    /// First round the window covers.
    pub round: u64,
    /// Raw value of the [`CohortFingerprint`] both sides must agree on
    /// ([`CohortFingerprint::from_raw`] reads it back).
    pub fingerprint: u64,
    /// Pad topology every window round derives its pads under.
    pub topology: PadTopology,
    /// Per-round nonces: `nonces[k]` serves round `round + k`.
    pub nonces: Vec<u64>,
}

/// Whether `envelope` belongs to the ratchet handshake (a commit or an
/// ack of either form) — what an endpoint checks to route it here.
pub(crate) fn is_handshake<F: Field>(envelope: &Envelope<F>) -> bool {
    matches!(
        envelope.kind(),
        EnvelopeKind::RatchetAnnouncement | EnvelopeKind::RatchetWindowCommit
    )
}

/// The nonces a window commit opening at `round` leaves to be joined
/// later: `nonces[k]` serves round `round + k`, and `nonces[0]` is
/// consumed by the commit itself.
pub(crate) fn banked_nonces(round: u64, nonces: &[u64]) -> BTreeMap<u64, u64> {
    // `round` arrives off the wire at a client: a window that would run
    // past the last round number banks only the rounds that exist
    (1u64..)
        .zip(nonces.iter().skip(1))
        .filter_map(|(k, &nonce)| Some((round.checked_add(k)?, nonce)))
        .collect()
}

/// A handshake envelope of either form, reduced to what the handshake
/// reads. The per-round form ([`RatchetAnnouncement`]) has no topology
/// and exactly one nonce, which its ack echoes; the window form
/// ([`RatchetWindowCommit`]) fixes the topology and carries `W` nonces,
/// and its ack carries none.
#[derive(Debug, Clone)]
struct Handshake {
    from: u32,
    group: usize,
    round: u64,
    fingerprint: u64,
    topology: Option<PadTopology>,
    nonces: Vec<u64>,
}

impl Handshake {
    fn read<F: Field>(envelope: &Envelope<F>) -> Result<Self, ProtocolError> {
        match envelope {
            Envelope::RatchetAnnouncement(a) => Ok(Self {
                from: a.from,
                group: a.group,
                round: a.round,
                fingerprint: a.fingerprint,
                topology: None,
                nonces: vec![a.nonce],
            }),
            Envelope::RatchetWindowCommit(c) => Ok(Self {
                from: c.from,
                group: c.group,
                round: c.round,
                fingerprint: c.fingerprint,
                topology: Some(c.topology),
                nonces: c.nonces.clone(),
            }),
            other => Err(ProtocolError::UnexpectedEnvelope { kind: other.kind() }),
        }
    }

    fn write<F: Field>(self) -> Envelope<F> {
        match self.topology {
            None => Envelope::RatchetAnnouncement(RatchetAnnouncement {
                from: self.from,
                group: self.group,
                round: self.round,
                nonce: self.nonces[0],
                fingerprint: self.fingerprint,
            }),
            Some(topology) => Envelope::RatchetWindowCommit(RatchetWindowCommit {
                from: self.from,
                group: self.group,
                round: self.round,
                fingerprint: self.fingerprint,
                topology,
                nonces: self.nonces,
            }),
        }
    }
}

/// The client half of the handshake, held by every
/// [`crate::FederationClient`] of either protocol.
///
/// `B` is what the client retains as a ratchet base: the state of its
/// last fully-exchanged round, moved out of the client (the handshake's
/// own tests retain a stand-in). Every operation that derives a round
/// takes a `derive(base, nonce, topology)` closure and hands back what
/// it built.
#[derive(Debug, Clone)]
pub(crate) struct ClientRatchet<B> {
    id: usize,
    group: usize,
    /// The retained base and the fingerprint of the cohort it was
    /// exchanged with: set after a full exchange completes, cleared on
    /// churn, reassignment or mismatch.
    base: Option<(B, u64)>,
    /// Pad topology for ratcheted rounds, from the leaf's
    /// [`RatchetPolicy`]; a window commit carries the server's choice
    /// and overwrites this, the per-round commit does not (both ends
    /// were built from the same configuration).
    topology: PadTopology,
    /// Pre-committed window nonces, `round → nonce`: rounds here are
    /// joined with zero wire traffic.
    window: BTreeMap<u64, u64>,
}

impl<B> ClientRatchet<B> {
    /// No base retained; ratcheted rounds derive their pads over
    /// `topology`.
    pub(crate) fn new(id: usize, group: usize, topology: PadTopology) -> Self {
        Self {
            id,
            group,
            base: None,
            topology,
            window: BTreeMap::new(),
        }
    }

    /// Retain `base` as the ratchet base of the cohort fingerprinted by
    /// `fingerprint`.
    pub(crate) fn harvest(&mut self, base: B, fingerprint: u64) {
        self.base = Some((base, fingerprint));
    }

    /// The retained base, if any.
    #[cfg(test)]
    pub(crate) fn base(&self) -> Option<&B> {
        self.base.as_ref().map(|(base, _)| base)
    }

    /// Forget the retained base and every banked window nonce — the
    /// nonces were bound to the dead cohort and must never mask
    /// another one.
    pub(crate) fn clear(&mut self) {
        self.base = None;
        self.window.clear();
    }

    /// Carry the base across a seat permutation: `bump` advances its
    /// pad-derivation epoch ([`reseat_epoch`]), and the window is
    /// dropped (its rounds were committed under the old seating).
    pub(crate) fn reseat(&mut self, bump: impl FnOnce(&mut B)) {
        self.window.clear();
        if let Some((base, _)) = self.base.as_mut() {
            bump(base);
        }
    }

    /// Join `round` from the banked window, consuming its nonce. No
    /// ack: the whole window was acked when it was committed.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::RatchetMismatch`] when no base is retained or
    /// `round` is not in the committed window; otherwise `derive`'s.
    pub(crate) fn join<R>(
        &mut self,
        round: u64,
        derive: impl FnOnce(&mut B, u64, PadTopology) -> Result<R, ProtocolError>,
    ) -> Result<R, ProtocolError> {
        let Some((base, _)) = self.base.as_mut() else {
            return Err(ProtocolError::RatchetMismatch);
        };
        let nonce = self
            .window
            .remove(&round)
            .ok_or(ProtocolError::RatchetMismatch)?;
        derive(base, nonce, self.topology)
    }

    /// Accept the server commit in `envelope`: check its fingerprint
    /// against the retained base, derive the (first) round under its
    /// nonce, bank the rest of a window — replacing any previous one —
    /// and return the derived round with the fingerprint-agreement ack.
    /// The endpoint has already decided that `envelope.round()` is a
    /// round it may still open.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::UnexpectedEnvelope`] for anything but a commit
    /// (acks are server-bound; a commit carries a nonce);
    /// [`ProtocolError::RatchetMismatch`] when no base is retained or
    /// the fingerprints differ; otherwise `derive`'s.
    pub(crate) fn accept<F: Field, R>(
        &mut self,
        envelope: &Envelope<F>,
        derive: impl FnOnce(&mut B, u64, PadTopology) -> Result<R, ProtocolError>,
    ) -> Result<(R, Outgoing<F>), ProtocolError> {
        let commit = Handshake::read(envelope)?;
        let (Some(&nonce), RATCHET_FROM_SERVER) = (commit.nonces.first(), commit.from) else {
            return Err(ProtocolError::UnexpectedEnvelope {
                kind: envelope.kind(),
            });
        };
        let Some((base, fingerprint)) = self.base.as_mut() else {
            return Err(ProtocolError::RatchetMismatch);
        };
        if commit.fingerprint != *fingerprint {
            return Err(ProtocolError::RatchetMismatch);
        }
        self.topology = commit.topology.unwrap_or(self.topology);
        let derived = derive(base, nonce, self.topology)?;
        let mut ack = Handshake {
            from: self.id as u32,
            group: self.group,
            nonces: vec![nonce],
            ..commit
        };
        if commit.topology.is_some() {
            self.window = banked_nonces(commit.round, &commit.nonces);
            ack.nonces.clear();
        }
        Ok((derived, (Recipient::Server, ack.write())))
    }
}

/// The server half of the handshake, shared by both server endpoints:
/// the one commit in flight and the envelopes that announce it.
#[derive(Debug, Clone)]
pub(crate) struct ServerRatchet<F> {
    group: usize,
    /// The commit acks are being collected for, the cohort members
    /// that must ack it, and those that have.
    in_flight: Option<(Handshake, BTreeSet<usize>, BTreeSet<usize>)>,
    /// Queued commits (they precede the round they open, so no
    /// per-round session could carry them).
    outbox: VecDeque<Outgoing<F>>,
}

impl<F: Field> ServerRatchet<F> {
    /// No commit in flight.
    pub(crate) fn new(group: usize) -> Self {
        Self {
            group,
            in_flight: None,
            outbox: VecDeque::new(),
        }
    }

    /// Commit `nonces` for the rounds from `round` on and queue the
    /// commit to every member of `cohort`: one nonce goes out as a
    /// [`RatchetAnnouncement`] (the wire-exact per-round flow), more as
    /// one [`RatchetWindowCommit`] under `topology`.
    pub(crate) fn commit(
        &mut self,
        round: u64,
        cohort: &BTreeSet<usize>,
        fingerprint: u64,
        topology: PadTopology,
        nonces: &[u64],
    ) {
        let commit = Handshake {
            from: RATCHET_FROM_SERVER,
            group: self.group,
            round,
            fingerprint,
            topology: (nonces.len() != 1).then_some(topology),
            nonces: nonces.to_vec(),
        };
        let envelope = commit.clone().write();
        self.outbox.extend(
            cohort
                .iter()
                .map(|&id| (Recipient::Client(id), envelope.clone())),
        );
        self.in_flight = Some((commit, cohort.clone(), BTreeSet::new()));
    }

    /// A client's fingerprint-agreement ack for the commit in flight.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::RatchetMismatch`] without a commit of that form
    /// in flight, or on a different fingerprint or nonce;
    /// [`ProtocolError::StaleRound`] for another round's ack;
    /// [`ProtocolError::UnknownUser`] from anyone the commit was not
    /// addressed to; [`ProtocolError::DuplicateMessage`] on a second
    /// ack; [`ProtocolError::UnexpectedEnvelope`] for an envelope that
    /// is not part of the handshake.
    pub(crate) fn handle(&mut self, ack: &Envelope<F>) -> Result<(), ProtocolError> {
        let ack = Handshake::read(ack)?;
        let Some((commit, expected, acks)) = self
            .in_flight
            .as_mut()
            .filter(|(commit, ..)| commit.topology.is_some() == ack.topology.is_some())
        else {
            return Err(ProtocolError::RatchetMismatch);
        };
        if ack.round != commit.round {
            return Err(ProtocolError::StaleRound {
                got: ack.round,
                current: commit.round,
            });
        }
        // the per-round ack echoes the committed nonce
        let nonce_agrees = commit.topology.is_some() || ack.nonces == commit.nonces;
        if ack.fingerprint != commit.fingerprint || !nonce_agrees {
            return Err(ProtocolError::RatchetMismatch);
        }
        let id = ack.from as usize;
        if !expected.contains(&id) {
            return Err(ProtocolError::UnknownUser(id));
        }
        if !acks.insert(id) {
            return Err(ProtocolError::DuplicateMessage(id));
        }
        Ok(())
    }

    /// Consume the commit in flight: `Ok` iff it opened `round` and
    /// exactly the members it was addressed to acked it.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::RatchetMismatch`] on a missing commit, a round
    /// mismatch or an incomplete ack set.
    pub(crate) fn ready(&mut self, round: u64) -> Result<(), ProtocolError> {
        match self.in_flight.take() {
            Some((commit, expected, acks)) if commit.round == round && acks == expected => Ok(()),
            _ => Err(ProtocolError::RatchetMismatch),
        }
    }

    /// Forget the commit in flight and its queued announcements (a
    /// commit replayed after a rollback would poison fresh sessions).
    pub(crate) fn clear(&mut self) {
        self.in_flight = None;
        self.outbox.clear();
    }

    /// The next queued commit envelope, if any.
    pub(crate) fn poll_output(&mut self) -> Option<Outgoing<F>> {
        self.outbox.pop_front()
    }
}

/// Which pairwise pads a ratcheted member derives per round.
///
/// The signed pads (`+PRG` at the lower endpoint, `−PRG` at the
/// higher) cancel edge-by-edge, so the telescoping argument holds over
/// **any** agreed edge set — not just the full clique. The topology is
/// therefore a pure cost/privacy dial:
///
/// | topology  | pads per member                        | collusion threshold      |
/// |-----------|----------------------------------------|--------------------------|
/// | clique    | `n_g − 1`                              | `n_g − 2`                |
/// | hypercube | `popcount(n_g − 1)` … `⌈log₂ n_g⌉`†    | `popcount(n_g − 1) − 1`* |
///
/// *A member's ratchet pad is the sum of its edge pads; an adversary
/// must corrupt **all** of a member's topology neighbours to strip its
/// pad, so the per-member threshold drops from `n_g − 2` (clique) to
/// `degree − 1`, and the least-connected member sets it. The base masks
/// `m_i` keep their information-theoretic `T`-privacy either way — only
/// the *per-round refresh* weakens.
///
/// †Every member has `⌈log₂ n_g⌉` partners only when `n_g` is a power of
/// two. Otherwise partners past the cohort's end are missing, and the
/// last seat, `n_g − 1`, pads with just `popcount(n_g − 1)` peers, the
/// minimum over all seats: 2 at `n_g = 6`, and 1 at every
/// `n_g = 2ᵏ + 1`, where the last seat pads only with seat 0.
/// [`PadTopology::max_degree`] is the best case.
///
/// Chosen per leaf by [`RatchetPolicy`]; the default is `hypercube`,
/// which breaks the `O(n_g · d)` PRG bound of the ratcheted round down
/// to `O(log n_g · d)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PadTopology {
    /// Every pair derives a pad: `n_g − 1` PRG expansions per member.
    Clique,
    /// Pads only along the hypercube edges of the member's cohort rank:
    /// at most `⌈log₂ n_g⌉` PRG expansions per member, and as few as
    /// `popcount(n_g − 1)` when `n_g` is not a power of two.
    #[default]
    Hypercube,
}

impl PadTopology {
    /// Stable one-byte wire tag (carried in [`RatchetWindowCommit`]).
    pub(crate) fn tag(self) -> u8 {
        match self {
            PadTopology::Clique => 0,
            PadTopology::Hypercube => 1,
        }
    }

    /// Decode a wire tag; `None` for an unknown byte.
    pub(crate) fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(PadTopology::Clique),
            1 => Some(PadTopology::Hypercube),
            _ => None,
        }
    }

    /// Human-readable name (bench row labels, JSON).
    pub fn name(self) -> &'static str {
        match self {
            PadTopology::Clique => "clique",
            PadTopology::Hypercube => "hypercube",
        }
    }

    /// The maximum pads any one member derives in a cohort of `m` — the
    /// best case. Under the hypercube the minimum is `popcount(m − 1)`,
    /// which equals this only when `m` is a power of two.
    pub fn max_degree(self, m: usize) -> usize {
        match self {
            PadTopology::Clique => m.saturating_sub(1),
            PadTopology::Hypercube => {
                // ⌈log₂ m⌉: the number of hypercube dimensions needed
                // to address m seats
                let mut bits = 0;
                while (1usize << bits) < m {
                    bits += 1;
                }
                bits
            }
        }
    }

    /// The peers member `id` pads against, given the ascending cohort
    /// `members` (which contains `id`). Symmetric: `a ∈ partners(b)`
    /// iff `b ∈ partners(a)`, so every edge pad appears exactly twice
    /// with opposite signs and cancels in the cohort sum.
    ///
    /// Hypercube edges connect cohort *ranks* differing in one bit
    /// (edges to ranks `≥ m` are simply absent — the incomplete
    /// hypercube stays connected for any `m`), so the edge set depends
    /// only on the agreed membership, never on raw id values.
    pub(crate) fn partners(self, members: &[usize], id: usize) -> Vec<usize> {
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]), "sorted cohort");
        match self {
            PadTopology::Clique => members.iter().copied().filter(|&j| j != id).collect(),
            PadTopology::Hypercube => {
                let m = members.len();
                let rank = members
                    .binary_search(&id)
                    .expect("member is in its own cohort");
                let mut out = Vec::with_capacity(self.max_degree(m));
                let mut bit = 1usize;
                while bit < m {
                    let peer = rank ^ bit;
                    if peer < m {
                        out.push(members[peer]);
                    }
                    bit <<= 1;
                }
                out
            }
        }
    }
}

/// Default number of rounds a single [`RatchetWindowCommit`] covers.
pub(crate) const DEFAULT_COMMIT_WINDOW: usize = 8;

/// Hard cap on the commit window (also the decode-side sanity bound on
/// the nonce count a commit may carry).
pub(crate) const MAX_COMMIT_WINDOW: usize = 1024;

/// How one leaf cohort ratchets: whether it does, over which pad graph,
/// and how many rounds one nonce commit covers. A value carried on
/// [`LsaConfig`] ([`LsaConfig::with_ratchet`]) and fixed at
/// construction; every [`crate::telemetry::RoundReport`] records the
/// policy its round ran under.
///
/// The default is ratchet on, [`PadTopology::Hypercube`], a window of
/// `DEFAULT_COMMIT_WINDOW` (8) rounds. Every policy produces bit-identical
/// aggregates — the policy moves cost and the per-round refresh's
/// collusion threshold, never the sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RatchetPolicy {
    enabled: bool,
    topology: PadTopology,
    window: usize,
}

impl RatchetPolicy {
    /// A policy from its three values; `window` is clamped to
    /// `1..=MAX_COMMIT_WINDOW` (1024; `1` reproduces the per-round
    /// [`RatchetAnnouncement`] handshake byte-for-byte).
    pub fn new(enabled: bool, topology: PadTopology, window: usize) -> Self {
        Self {
            enabled,
            topology,
            window: window.clamp(1, MAX_COMMIT_WINDOW),
        }
    }

    /// Always re-key: the full offline exchange every round.
    pub fn off() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }

    /// Whether a stable cohort skips the offline exchange.
    pub fn enabled(self) -> bool {
        self.enabled
    }

    /// The pad graph ratcheted rounds derive pairwise pads over.
    pub(crate) fn topology(self) -> PadTopology {
        self.topology
    }

    /// Rounds one server commit carries nonces for: a steady stretch
    /// pays the commit/ack round trip once per `window` rounds.
    pub(crate) fn window(self) -> usize {
        self.window
    }
}

impl Default for RatchetPolicy {
    fn default() -> Self {
        Self::new(true, PadTopology::default(), DEFAULT_COMMIT_WINDOW)
    }
}

/// The policies every fixture is swept over in tests: the default, the
/// always-rekey path, and the legacy clique graph with per-round
/// commits. All three must produce the same aggregates.
#[doc(hidden)]
pub fn policies() -> [RatchetPolicy; 3] {
    [
        RatchetPolicy::default(),
        RatchetPolicy::off(),
        RatchetPolicy::new(true, PadTopology::Clique, 1),
    ]
}

/// Evolve the pad epoch across a reseat ([`crate::topology`]'s
/// `reassign`): every member of a leaf folds the same `(old epoch,
/// reseat seed)` through SHA-256, so the refreshed edge secrets still
/// agree pairwise and the pads keep cancelling — while pads from
/// before the reseat become underivable without the new epoch.
pub(crate) fn reseat_epoch(old: u64, seed: u64) -> u64 {
    digest_words(EPOCH_DOMAIN, [old, seed])
}

/// Derive the edge secret client `id` shares with `peer` from the two
/// coded shares that crossed that edge during the base round's offline
/// phase: `sent` is the share `id` encoded **for** `peer`, `recv` the
/// one it received **from** `peer`; the hash runs over the edge's
/// `(lo, hi)` orientation, so both endpoints derive the same secret.
///
/// Both endpoints hold both shares, and no third party holds either: a
/// share `S_{i→j}` is a point on client i's degree-(U−1) encoding
/// polynomial, delivered only to j. Binding the seed to `(group,
/// base_round, lo, hi)` domain-separates edges. It depends on the base
/// alone; callers keep `pair_seed(..).derive(epoch)` beside the shares,
/// hashed once per base and pad epoch ([`reseat_epoch`]), and the nonce
/// is applied per round by [`add_pair_pad`].
pub(crate) fn pair_seed<F: Field>(
    group: usize,
    base_round: u64,
    id: usize,
    peer: usize,
    sent: &[F],
    recv: &[F],
) -> Seed {
    debug_assert_ne!(id, peer);
    let (lo, hi, lo_to_hi, hi_to_lo) = if id < peer {
        (id, peer, sent, recv)
    } else {
        (peer, id, recv, sent)
    };
    let mut h = Sha256::new();
    h.update(PAIR_DOMAIN);
    for v in [group as u64, base_round, lo as u64, hi as u64] {
        h.update(&v.to_le_bytes());
    }
    // each residue as an 8-byte word, staged one stack chunk at a time
    let mut chunk = [0u8; 4096];
    for xs in lo_to_hi.chunks(512).chain(hi_to_lo.chunks(512)) {
        for (bytes, x) in chunk.chunks_exact_mut(8).zip(xs) {
            bytes.copy_from_slice(&x.residue().to_le_bytes());
        }
        h.update(&chunk[..8 * xs.len()]);
    }
    Seed(h.finalize())
}

/// Add client `id`'s pairwise pad against `peer` for the given nonce
/// into `mask` (in place, one keystream pass): `+PRG` if `id` is the
/// lower endpoint of the edge, `−PRG` if it is the higher one. `edge`
/// is the edge's [`pair_seed`] derived under the pad epoch both
/// endpoints evolved in lockstep across reseats ([`reseat_epoch`]).
pub(crate) fn add_pair_pad<F: Field>(
    mask: &mut [F],
    edge: Seed,
    nonce: u64,
    id: usize,
    peer: usize,
) {
    let mut prg = FieldPrg::new(edge.derive(nonce));
    if id < peer {
        prg.add_into(mask);
    } else {
        prg.sub_into(mask);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use lsa_field::Fp61;

    /// The pad derivation as first written — edge secret hashed on the
    /// spot, pad expanded element by element into a temporary, then added
    /// or subtracted — kept as the reference the cached, fused path is
    /// pinned against.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn reference_pair_pad<F: Field>(
        mask: &mut [F],
        group: usize,
        base_round: u64,
        epoch: u64,
        nonce: u64,
        id: usize,
        peer: usize,
        sent: &[F],
        recv: &[F],
    ) {
        let seed = pair_seed(group, base_round, id, peer, sent, recv)
            .derive(epoch)
            .derive(nonce);
        let mut prg = FieldPrg::new(seed);
        let pad: Vec<F> = (0..mask.len()).map(|_| prg.next_element()).collect();
        if id < peer {
            lsa_field::ops::add_assign(mask, &pad);
        } else {
            lsa_field::ops::sub_assign(mask, &pad);
        }
    }

    fn cfg() -> LsaConfig {
        LsaConfig::new(4, 1, 3, 6).unwrap()
    }

    #[test]
    fn fingerprint_is_order_independent() {
        let a = CohortFingerprint::of_flat(0, cfg(), &[0, 1, 2, 3]);
        let b = CohortFingerprint::of_flat(0, cfg(), &[3, 1, 0, 2]);
        assert_eq!(a, b);
    }

    #[test]
    fn fingerprint_separates_membership_seat_group_and_config() {
        let base = CohortFingerprint::of_flat(0, cfg(), &[0, 1, 2]);
        // membership
        assert_ne!(base, CohortFingerprint::of_flat(0, cfg(), &[0, 1, 3]));
        // group namespace
        assert_ne!(base, CohortFingerprint::of_flat(1, cfg(), &[0, 1, 2]));
        // config (same shape, different dimension)
        let other = LsaConfig::new(4, 1, 3, 7).unwrap();
        assert_ne!(base, CohortFingerprint::of_flat(0, other, &[0, 1, 2]));
        // seat: same ids in different slots
        let reseated =
            CohortFingerprint::of_members([(0, cfg(), 0, 1), (0, cfg(), 1, 0), (0, cfg(), 2, 2)]);
        assert_ne!(base, reseated);
    }

    #[test]
    fn pair_pads_cancel_over_the_edge() {
        let sent: Vec<Fp61> = (0..5).map(Fp61::from_u64).collect();
        let recv: Vec<Fp61> = (10..15).map(Fp61::from_u64).collect();
        let mut a = vec![Fp61::ZERO; 8];
        let mut b = vec![Fp61::ZERO; 8];
        // endpoint 2 sent `sent` to 5 and received `recv` from it;
        // endpoint 5 saw the mirror image of the same two vectors and
        // must hash them to the same edge secret
        let edge = pair_seed(3, 7, 2, 5, &sent, &recv);
        assert_eq!(edge, pair_seed(3, 7, 5, 2, &recv, &sent));
        add_pair_pad(&mut a, edge.derive(0), 99, 2, 5);
        add_pair_pad(&mut b, edge.derive(0), 99, 5, 2);
        assert!(a.iter().any(|x| *x != Fp61::ZERO), "pad must be non-zero");
        let sum: Vec<Fp61> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        assert!(sum.iter().all(|x| *x == Fp61::ZERO), "pads must cancel");
    }

    #[test]
    fn pads_differ_across_nonces_rounds_and_epochs() {
        let sent: Vec<Fp61> = (0..3).map(Fp61::from_u64).collect();
        let recv: Vec<Fp61> = (4..7).map(Fp61::from_u64).collect();
        let pad = |base_round: u64, epoch: u64, nonce: u64| {
            let mut mask = vec![Fp61::ZERO; 6];
            let edge = pair_seed(0, base_round, 0, 1, &sent, &recv);
            add_pair_pad(&mut mask, edge.derive(epoch), nonce, 0, 1);
            mask
        };
        let n1 = pad(0, 0, 1);
        assert_ne!(n1, pad(0, 0, 2), "nonce must refresh the pad");
        assert_ne!(n1, pad(5, 0, 1), "base round must domain-separate the pad");
        assert_ne!(n1, pad(0, 9, 1), "pad epoch must refresh the pad");
    }

    #[test]
    fn fused_pad_matches_the_reference_derivation() {
        // both signs, a length that is not a whole sampler chunk
        let sent: Vec<Fp61> = (0..7).map(Fp61::from_u64).collect();
        let recv: Vec<Fp61> = (20..27).map(Fp61::from_u64).collect();
        for (id, peer) in [(2usize, 5usize), (5, 2)] {
            let mut got: Vec<Fp61> = (0..1500).map(Fp61::from_u64).collect();
            let mut want = got.clone();
            let edge = pair_seed(1, 4, id, peer, &sent, &recv);
            add_pair_pad(&mut got, edge.derive(3), 77, id, peer);
            reference_pair_pad(&mut want, 1, 4, 3, 77, id, peer, &sent, &recv);
            assert_eq!(got, want);
        }
    }

    /// The commits a server queued, drained.
    fn queued(server: &mut ServerRatchet<Fp61>) -> Vec<Outgoing<Fp61>> {
        std::iter::from_fn(|| server.poll_output()).collect()
    }

    /// Client `id`'s ack for `commit`, through the real client half.
    fn ack_of(id: usize, fingerprint: u64, commit: &Envelope<Fp61>) -> Envelope<Fp61> {
        let mut client = ClientRatchet::<()>::new(id, 0, PadTopology::default());
        client.harvest((), fingerprint);
        let ((), (to, ack)) = client.accept(commit, |_, _, _| Ok(())).unwrap();
        assert_eq!(to, Recipient::Server);
        ack
    }

    #[test]
    fn an_ack_from_outside_the_cohort_never_completes_a_commit() {
        // both envelope forms: one nonce → per-round, three → window
        for nonces in [vec![9u64], vec![9, 10, 11]] {
            let cohort = BTreeSet::from([0usize, 2, 3]);
            let mut server = ServerRatchet::<Fp61>::new(0);
            server.commit(5, &cohort, 77, PadTopology::Hypercube, &nonces);
            let commits = queued(&mut server);
            let to: Vec<Recipient> = commits.iter().map(|(to, _)| *to).collect();
            assert_eq!(to, [0, 2, 3].map(Recipient::Client));
            let commit = &commits[0].1;
            assert!(is_handshake(commit));

            server.handle(&ack_of(0, 77, commit)).unwrap();
            server.handle(&ack_of(2, 77, commit)).unwrap();
            // member 3 stays silent; client 1 — a valid id, but not
            // one the commit was addressed to — acks in its place
            assert_eq!(
                server.handle(&ack_of(1, 77, commit)),
                Err(ProtocolError::UnknownUser(1))
            );
            // three acks arrived for a cohort of three: a head count
            // would call the commit ready
            assert_eq!(server.clone().ready(5), Err(ProtocolError::RatchetMismatch));
            assert_eq!(
                server.handle(&ack_of(0, 77, commit)),
                Err(ProtocolError::DuplicateMessage(0))
            );
            server.handle(&ack_of(3, 77, commit)).unwrap();
            assert_eq!(server.clone().ready(6), Err(ProtocolError::RatchetMismatch));
            assert_eq!(server.ready(5), Ok(()));
            // consumed: a late ack finds nothing to attach to
            assert_eq!(
                server.handle(&ack_of(3, 77, commit)),
                Err(ProtocolError::RatchetMismatch)
            );
        }
    }

    #[test]
    fn acks_must_match_the_commit_in_flight() {
        let cohort = BTreeSet::from([0usize, 1]);
        let mut server = ServerRatchet::<Fp61>::new(0);
        server.commit(5, &cohort, 77, PadTopology::Clique, &[9]);
        let per_round = queued(&mut server).remove(0).1;
        let mut other = ServerRatchet::<Fp61>::new(0);
        other.commit(6, &cohort, 77, PadTopology::Clique, &[8]);
        let next_round = queued(&mut other).remove(0).1;
        other.commit(5, &cohort, 77, PadTopology::Clique, &[8]);
        let other_nonce = queued(&mut other).remove(0).1;
        other.commit(5, &cohort, 77, PadTopology::Clique, &[9, 8]);
        let window = queued(&mut other).remove(0).1;

        assert_eq!(
            server.handle(&ack_of(0, 77, &next_round)),
            Err(ProtocolError::StaleRound { got: 6, current: 5 })
        );
        for wrong in [&other_nonce, &window] {
            assert_eq!(
                server.handle(&ack_of(0, 77, wrong)),
                Err(ProtocolError::RatchetMismatch)
            );
        }
        // a fingerprint the server did not commit to
        let Envelope::RatchetAnnouncement(mut forged) = ack_of(0, 77, &per_round) else {
            panic!("per-round commits are acked per round");
        };
        forged.fingerprint = 78;
        assert_eq!(
            server.handle(&Envelope::RatchetAnnouncement(forged)),
            Err(ProtocolError::RatchetMismatch)
        );
        server.clear();
        assert_eq!(
            server.handle(&ack_of(0, 77, &per_round)),
            Err(ProtocolError::RatchetMismatch)
        );
    }

    #[test]
    fn client_half_banks_a_window_and_joins_it_once() {
        let cohort = BTreeSet::from([4usize]);
        let mut server = ServerRatchet::<Fp61>::new(3);
        server.commit(10, &cohort, 77, PadTopology::Clique, &[100, 101, 102]);
        let window = queued(&mut server).remove(0).1;
        server.commit(20, &cohort, 77, PadTopology::Hypercube, &[200]);
        let per_round = queued(&mut server).remove(0).1;

        let mut client = ClientRatchet::<u8>::new(4, 3, PadTopology::Hypercube);
        let derive = |_: &mut u8, nonce, topology| Ok((nonce, topology));
        // no base yet, then the wrong cohort's base
        assert_eq!(
            client.accept(&window, derive).unwrap_err(),
            ProtocolError::RatchetMismatch
        );
        client.harvest(0, 78);
        assert_eq!(
            client.accept(&window, derive).unwrap_err(),
            ProtocolError::RatchetMismatch
        );
        client.harvest(0, 77);
        // the window commit fixes the topology and derives round 10
        let (derived, (_, ack)) = client.accept(&window, derive).unwrap();
        assert_eq!(derived, (100, PadTopology::Clique));
        server.commit(10, &cohort, 77, PadTopology::Clique, &[100, 101, 102]);
        assert_eq!(
            server.handle(&ack),
            Ok(()),
            "the ack is stamped (4, group 3)"
        );
        // an ack is not a commit
        assert!(matches!(
            client.accept(&ack, derive),
            Err(ProtocolError::UnexpectedEnvelope {
                kind: EnvelopeKind::RatchetWindowCommit
            })
        ));
        // rounds 11 and 12 are banked, each joinable once; 13 is not
        assert_eq!(client.join(12, derive), Ok((102, PadTopology::Clique)));
        assert_eq!(client.join(12, derive), Err(ProtocolError::RatchetMismatch));
        assert_eq!(client.join(13, derive), Err(ProtocolError::RatchetMismatch));
        // a per-round commit leaves both the topology and the window be
        let (derived, _) = client.accept(&per_round, derive).unwrap();
        assert_eq!(derived, (200, PadTopology::Clique));
        assert_eq!(client.join(11, derive), Ok((101, PadTopology::Clique)));
        // a reseat keeps the base (bumped) and drops the window
        client.accept(&window, derive).unwrap();
        client.reseat(|base| *base += 1);
        assert_eq!(client.base(), Some(&1));
        assert_eq!(client.join(11, derive), Err(ProtocolError::RatchetMismatch));
        client.clear();
        assert_eq!(client.base(), None);
    }

    #[test]
    fn a_window_past_the_last_round_banks_only_rounds_that_exist() {
        let banked = banked_nonces(u64::MAX - 1, &[1, 2, 3, 4]);
        assert_eq!(banked, BTreeMap::from([(u64::MAX, 2)]));
        assert!(banked_nonces(7, &[1]).is_empty());
    }

    #[test]
    fn ratchet_policy_defaults_and_clamps_its_window() {
        let policy = RatchetPolicy::default();
        assert!(policy.enabled());
        assert_eq!(policy.topology(), PadTopology::Hypercube);
        assert_eq!(policy.window(), DEFAULT_COMMIT_WINDOW);
        assert!(!RatchetPolicy::off().enabled());
        for (asked, got) in [
            (0, 1),
            (3, 3),
            (1024, MAX_COMMIT_WINDOW),
            (99_999, MAX_COMMIT_WINDOW),
        ] {
            let policy = RatchetPolicy::new(true, PadTopology::Clique, asked);
            assert_eq!(policy.window(), got);
        }
        assert_eq!(policies()[0], RatchetPolicy::default());
    }

    #[test]
    fn hypercube_partners_are_symmetric_and_connected() {
        // symmetry makes every edge pad cancel; connectivity keeps the
        // incomplete hypercube a single privacy component for any m
        for m in 2..=33usize {
            // a non-contiguous id set: partners must work on ranks
            let members: Vec<usize> = (0..m).map(|i| i * 3 + 1).collect();
            let mut adj: Vec<Vec<usize>> = vec![Vec::new(); m];
            for (r, &id) in members.iter().enumerate() {
                let partners = PadTopology::Hypercube.partners(&members, id);
                assert!(partners.len() <= PadTopology::Hypercube.max_degree(m));
                assert!(!partners.contains(&id));
                for p in partners {
                    adj[r].push(members.binary_search(&p).unwrap());
                }
            }
            for (r, peers) in adj.iter().enumerate() {
                for &p in peers {
                    assert!(adj[p].contains(&r), "m={m}: edge {r}<->{p} one-sided");
                }
            }
            // BFS from rank 0
            let mut seen = vec![false; m];
            let mut queue = vec![0usize];
            seen[0] = true;
            while let Some(r) = queue.pop() {
                for &p in &adj[r] {
                    if !seen[p] {
                        seen[p] = true;
                        queue.push(p);
                    }
                }
            }
            assert!(seen.iter().all(|&s| s), "m={m}: hypercube disconnected");
        }
    }

    #[test]
    fn clique_partners_are_everyone_else() {
        let members = [2usize, 5, 9, 11];
        assert_eq!(PadTopology::Clique.partners(&members, 5), vec![2, 9, 11]);
        assert_eq!(PadTopology::Clique.max_degree(4), 3);
    }

    #[test]
    fn hypercube_degree_is_logarithmic() {
        assert_eq!(PadTopology::Hypercube.max_degree(16), 4);
        assert_eq!(PadTopology::Hypercube.max_degree(17), 5);
        assert_eq!(PadTopology::Hypercube.max_degree(1024), 10);
        assert_eq!(PadTopology::Hypercube.max_degree(1), 0);
    }

    #[test]
    fn hypercube_minimum_degree_is_the_last_seats_popcount() {
        // the fewest pads any seat derives: `max_degree` only when the
        // cohort is a power of two, down to one pad at m = 2ᵏ + 1
        let min_degree = |m: usize| {
            let members: Vec<usize> = (0..m).collect();
            members
                .iter()
                .map(|&id| PadTopology::Hypercube.partners(&members, id).len())
                .min()
                .expect("non-empty cohort")
        };
        for m in 1..=64usize {
            let min = min_degree(m);
            assert_eq!(min, (m - 1).count_ones() as usize, "m={m}");
            assert!(min <= PadTopology::Hypercube.max_degree(m), "m={m}");
            if m.is_power_of_two() {
                assert_eq!(min, PadTopology::Hypercube.max_degree(m), "m={m}");
            }
        }
        assert_eq!(min_degree(64), 6);
        assert_eq!(min_degree(16), 4);
        assert_eq!(min_degree(6), 2);
        for m in [5, 9, 17, 33] {
            assert_eq!(min_degree(m), 1, "m={m}");
        }
    }

    #[test]
    fn topology_tags_roundtrip() {
        for t in [PadTopology::Clique, PadTopology::Hypercube] {
            assert_eq!(PadTopology::from_tag(t.tag()), Some(t));
        }
        assert_eq!(PadTopology::from_tag(2), None);
        assert_eq!(PadTopology::default(), PadTopology::Hypercube);
    }

    #[test]
    fn reseat_epoch_moves_and_is_deterministic() {
        let e1 = reseat_epoch(0, 42);
        assert_eq!(e1, reseat_epoch(0, 42));
        assert_ne!(e1, 0);
        assert_ne!(e1, reseat_epoch(0, 43));
        assert_ne!(e1, reseat_epoch(e1, 42));
    }
}
