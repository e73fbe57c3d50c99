//! The LightSecAgg client (user) state machine for synchronous FL.

use crate::config::LsaConfig;
use crate::session::{Outgoing, Recipient, Session};
use crate::wire::{AggregatedShare, CodedMaskShare, Envelope, MaskedModel};
use crate::{check_len, ProtocolError};
use lsa_coding::{vandermonde, VandermondeCode};
use lsa_crypto::Seed;
use lsa_field::Field;
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// A LightSecAgg user.
///
/// Lifecycle per round (Algorithm 1 of the paper):
///
/// 1. [`Client::new`] — samples the local mask `z_i` and the `T` noise
///    segments, and encodes the `N` coded segments (offline phase,
///    overlappable with training);
/// 2. [`Client::outgoing_shares`] / [`Client::receive_share`] — exchange
///    `[~z_i]_j` with every other user;
/// 3. [`Client::mask_model`] — upload `~x_i = x_i + z_i`;
/// 4. [`Client::aggregated_share_for`] — if surviving, upload
///    `Σ_{i∈U₁} [~z_i]_j` for the server's one-shot recovery.
///
/// The same round as a sans-IO [`Session`]: the `N − 1` coded shares are
/// not queued but built one at a time as [`Session::poll_output`] asks
/// for them, ahead of the upload, so a driver that delivers as it polls
/// never holds a second copy of the share table;
/// [`Client::upload_model`] queues the masked model; handling the
/// server's [`crate::SurvivorAnnouncement`] yields the aggregated share.
/// Construction samples the only entropy the client ever uses.
///
/// # Example
///
/// ```
/// use lsa_protocol::{Client, LsaConfig};
/// use lsa_field::Fp61;
/// use rand::SeedableRng;
///
/// let cfg = LsaConfig::new(4, 1, 3, 8).unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let client = Client::<Fp61>::new(0, cfg, &mut rng).unwrap();
/// assert_eq!(client.outgoing_shares().len(), 3); // one per other user
/// ```
#[derive(Debug, Clone)]
pub struct Client<F> {
    id: usize,
    cfg: LsaConfig,
    group: usize,
    round: u64,
    /// The local random mask `z_i`, padded length.
    mask: Vec<F>,
    /// The round's share material: immutable once the offline exchange
    /// completes, so rounds ratcheted from this one share the allocation.
    shares: Arc<Shares<F>>,
    /// Pad epoch for ratchet pads derived from this state: 0 at the
    /// base exchange, evolved in lockstep across the cohort by
    /// [`Client::bump_pad_epoch`] on a reseat ([`crate::ratchet`]).
    pad_epoch: u64,
    /// [`crate::ratchet::pair_seed`] per peer, derived under
    /// `pad_epoch`: hashed the first time a round is ratcheted from this
    /// state (never, for a state that is never a ratchet base), cleared
    /// by [`Client::bump_pad_epoch`] and dropped with the state.
    edge_seeds: BTreeMap<usize, Seed>,
    /// Next peer whose coded share [`Session::poll_output`] has still to
    /// emit (`n` once the offline phase is out, and from the start for a
    /// ratcheted round).
    next_share: usize,
    /// The masked upload, from [`Client::upload_model`] until polled.
    upload: Option<MaskedModel<F>>,
    /// Whether [`Client::upload_model`] ran: a second upload is a
    /// duplicate even after the first was polled.
    uploaded: bool,
}

/// The coded segments of one full offline exchange.
#[derive(Debug, Clone)]
pub(crate) struct Shares<F> {
    /// Own coded segments `[~z_i]_j` for every `j ∈ [N]` (including self).
    coded_for: Vec<Vec<F>>,
    /// Received coded segments `[~z_j]_i`, keyed by sender `j`.
    received: BTreeMap<usize, Vec<F>>,
    /// `Σ_j [~z_j]_i` over every `received` share: summed by the first
    /// recovery that names exactly those senders, reset by every insert.
    /// A stable stretch of ratcheted rounds shares this storage, so it
    /// answers each of their recoveries from one sum.
    total: OnceLock<Vec<F>>,
}

impl<F: Field> Client<F> {
    /// Create the client for user `id` at round 0 (single-round use).
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

    /// Create the client for user `id` serving federation round `round`,
    /// running the offline mask generation and encoding. Every message
    /// the client emits is stamped with `round`; every message it accepts
    /// must carry it, or it is rejected as
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
    /// grouped topology ([`crate::topology`]): `id` is the *group-local*
    /// index, every emitted message is stamped with `group`, and any
    /// accepted message must carry it or be rejected as
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
        if id >= cfg.n() {
            return Err(ProtocolError::InvalidConfig(format!(
                "client id {id} out of range for N={}",
                cfg.n()
            )));
        }
        let code = VandermondeCode::new(cfg.n(), cfg.u())?;
        let (mask, coded_for) = sample_mask(&code, &cfg, rng)?;

        let mut received = BTreeMap::new();
        // A user trivially "receives" its own coded segment.
        received.insert(id, coded_for[id].clone());

        Ok(Self {
            id,
            cfg,
            group,
            round,
            mask,
            shares: Arc::new(Shares {
                coded_for,
                received,
                total: OnceLock::new(),
            }),
            pad_epoch: 0,
            edge_seeds: BTreeMap::new(),
            next_share: 0,
            upload: None,
            uploaded: false,
        })
    }

    /// Derive the client for a *ratcheted* round from retained base
    /// state ([`crate::ratchet`]): same peers, same coded shares, and a
    /// fresh mask `z_i = m_i + Σ_j σ(i,j)·PRG(ρ_ij ‖ nonce)` whose
    /// pairwise pads cancel over the full cohort. No new share traffic
    /// and no copy: the derived client holds the base's share material
    /// by reference count, so recovery decodes `Σ m_i` exactly as it did
    /// then. The work is one seed digest and one keystream pass per pad,
    /// plus hashing the edge secrets `ρ_ij` the first time in each pad
    /// epoch (cached in `base`).
    ///
    /// The cohort is implicit: every peer the base client exchanged
    /// shares with (its `received` keys) is the fingerprinted
    /// membership — callers must have verified fingerprint agreement
    /// before ratcheting. `topology` selects which of those peers
    /// contribute a pad ([`crate::ratchet::PadTopology`]): the clique
    /// pads against all of them, the hypercube only along the (at most
    /// `⌈log₂ n_g⌉`) edges of this member's cohort rank.
    pub(crate) fn ratcheted_from(
        base: &mut Self,
        round: u64,
        nonce: u64,
        topology: crate::ratchet::PadTopology,
    ) -> Self {
        let shares = &base.shares;
        let members: Vec<usize> = shares.received.keys().copied().collect();
        let mut mask = base.mask.clone();
        for peer in topology.partners(&members, base.id) {
            let edge = *base.edge_seeds.entry(peer).or_insert_with(|| {
                crate::ratchet::pair_seed(
                    base.group,
                    base.round,
                    base.id,
                    peer,
                    &shares.coded_for[peer],
                    &shares.received[&peer],
                )
                .derive(base.pad_epoch)
            });
            crate::ratchet::add_pair_pad(&mut mask, edge, nonce, base.id, peer);
        }
        Self {
            id: base.id,
            cfg: base.cfg,
            group: base.group,
            round,
            mask,
            shares: Arc::clone(shares),
            pad_epoch: base.pad_epoch,
            edge_seeds: BTreeMap::new(),
            // the offline phase was the commit/ack handshake (or nothing
            // at all, for a round joined from a pre-committed window)
            next_share: base.cfg.n(),
            upload: None,
            uploaded: false,
        }
    }

    /// Evolve the pad epoch across a reseat ([`crate::ratchet`]): the
    /// mask and share material — the recovery-critical state — are
    /// untouched; only future ratchet pads derive under the new epoch,
    /// from edge seeds re-hashed out of the retained shares. Every
    /// member of a leaf must bump with the same `seed` so the refreshed
    /// pads still cancel.
    pub(crate) fn bump_pad_epoch(&mut self, seed: u64) {
        self.pad_epoch = crate::ratchet::reseat_epoch(self.pad_epoch, seed);
        self.edge_seeds.clear();
    }

    /// The peers this client holds base shares from (its ratchetable
    /// cohort), ascending; includes the client itself.
    #[cfg(test)]
    pub(crate) fn share_peers(&self) -> Vec<usize> {
        self.shares.received.keys().copied().collect()
    }

    /// The share-material handle, for tests that pin who owns it.
    #[cfg(test)]
    pub(crate) fn share_storage(&self) -> &Arc<Shares<F>> {
        &self.shares
    }

    /// The retained share total, once a recovery has summed it.
    #[cfg(test)]
    pub(crate) fn share_total(&self) -> Option<&Vec<F>> {
        self.shares.total.get()
    }

    /// This client's user index (group-local in a grouped topology).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The federation round this client is serving.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The aggregation group this client belongs to (0 when flat).
    pub fn group(&self) -> usize {
        self.group
    }

    /// The protocol configuration.
    pub fn config(&self) -> &LsaConfig {
        &self.cfg
    }

    /// The coded mask share `[~z_id]_to` destined to user `to`
    /// (Algorithm 1 line 8); panics if `to >= cfg.n()`.
    pub fn outgoing_share(&self, to: usize) -> CodedMaskShare<F> {
        CodedMaskShare {
            from: self.id,
            to,
            group: self.group,
            round: self.round,
            payload: self.shares.coded_for[to].clone(),
        }
    }

    /// The coded mask shares destined to every *other* user, ascending.
    pub fn outgoing_shares(&self) -> Vec<CodedMaskShare<F>> {
        (0..self.cfg.n())
            .filter(|&j| j != self.id)
            .map(|j| self.outgoing_share(j))
            .collect()
    }

    /// Accept the coded share `[~z_from]_id` from another user
    /// (Algorithm 1 line 9).
    ///
    /// # Errors
    ///
    /// * [`ProtocolError::WrongGroup`] if the share belongs to another
    ///   aggregation group (checked first: local indices only mean
    ///   anything within the right group);
    /// * [`ProtocolError::StaleRound`] if the share belongs to another
    ///   round (checked *before* the duplicate check, so a cross-round
    ///   replay is never misreported as a duplicate);
    /// * [`ProtocolError::MisroutedShare`] if the share is not addressed
    ///   to this client;
    /// * [`ProtocolError::UnknownUser`] for an out-of-range sender;
    /// * [`ProtocolError::DuplicateMessage`] if the sender already shared;
    /// * [`ProtocolError::Coding`] for a wrong payload length.
    pub fn receive_share(&mut self, share: CodedMaskShare<F>) -> Result<(), ProtocolError> {
        if share.group != self.group {
            return Err(ProtocolError::WrongGroup {
                got: share.group,
                expected: self.group,
            });
        }
        if share.round != self.round {
            return Err(ProtocolError::StaleRound {
                got: share.round,
                current: self.round,
            });
        }
        check_share(&share, self.id, &self.cfg)?;
        if self.shares.received.contains_key(&share.from) {
            return Err(ProtocolError::DuplicateMessage(share.from));
        }
        // sole owner during the exchange, so this never copies; a share
        // accepted by a *derived* round un-shares the storage first
        let shares = Arc::make_mut(&mut self.shares);
        shares.received.insert(share.from, share.payload);
        shares.total = OnceLock::new();
        Ok(())
    }

    /// How many coded shares have been received (incl. the self share).
    pub fn shares_received(&self) -> usize {
        self.shares.received.len()
    }

    /// Mask a quantized local model: `~x_i = x_i + z_i` (Algorithm 1
    /// line 14). The input is zero-padded to the padded length.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::Coding`] if the model length is not
    /// exactly `cfg.d()`.
    pub fn mask_model(&self, model: &[F]) -> Result<MaskedModel<F>, ProtocolError> {
        check_len(self.cfg.d(), model.len())?;
        Ok(MaskedModel {
            from: self.id,
            group: self.group,
            round: self.round,
            payload: add_padded(model, &self.mask),
        })
    }

    /// Local action: mask the quantized model and queue the upload for
    /// [`Session::poll_output`] (Algorithm 1 line 14).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::DuplicateMessage`] on a second upload, or a
    /// length mismatch as [`ProtocolError::Coding`].
    pub fn upload_model(&mut self, model: &[F]) -> Result<(), ProtocolError> {
        if self.uploaded {
            return Err(ProtocolError::DuplicateMessage(self.id));
        }
        self.upload = Some(self.mask_model(model)?);
        self.uploaded = true;
        Ok(())
    }

    /// Mask a *weighted* model `s_i·x_i` (Remark 3 of the paper): the
    /// weight multiplies the model only — the mask is shared unscaled, so
    /// the server recovers `Σ s_i·x_i` and can divide by `Σ s_i` to get
    /// the weighted average (e.g. for unequal dataset sizes).
    ///
    /// # Errors
    ///
    /// Same as [`Self::mask_model`].
    pub fn mask_weighted_model(
        &self,
        model: &[F],
        weight: u64,
    ) -> Result<MaskedModel<F>, ProtocolError> {
        let w = F::from_u64(weight);
        let weighted: Vec<F> = model.iter().map(|&x| x * w).collect();
        self.mask_model(&weighted)
    }

    /// Compute the aggregated coded mask `Σ_{i∈survivors} [~z_i]_id`
    /// for the server's one-shot recovery (Algorithm 1 lines 20–22).
    ///
    /// When the survivors are exactly the senders this client holds
    /// shares from, the answer is the retained share total, summed once
    /// and reused by every later recovery over the same shares (the
    /// rounds of a stable ratchet stretch).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::DuplicateMessage`] for a survivor named
    /// twice (checked first), and [`ProtocolError::MissingShares`] if
    /// some survivor's coded share was never received.
    pub fn aggregated_share_for(
        &self,
        survivors: &[usize],
    ) -> Result<AggregatedShare<F>, ProtocolError> {
        if let Some(twice) = repeated(survivors, |&i| i) {
            return Err(ProtocolError::DuplicateMessage(twice));
        }
        let received = &self.shares.received;
        let mut shares: Vec<&[F]> = Vec::with_capacity(survivors.len());
        for &i in survivors {
            let share = received
                .get(&i)
                .ok_or(ProtocolError::MissingShares { from: i })?;
            shares.push(share);
        }
        // one widened pass over all survivor shares, reduced once per
        // element; distinct and all received, so as many as received
        // means every one of them
        let sum = || {
            lsa_field::ops::sum_vectors(shares.iter().copied())
                .unwrap_or_else(|| vec![F::ZERO; self.cfg.segment_len()])
        };
        let acc = if shares.len() == received.len() {
            self.shares.total.get_or_init(sum).clone()
        } else {
            sum()
        };
        Ok(AggregatedShare {
            from: self.id,
            group: self.group,
            round: self.round,
            payload: acc,
        })
    }
}

impl<F: Field> Session<F> for Client<F> {
    fn local_addr(&self) -> Recipient {
        Recipient::Client(self.id)
    }

    fn handle(&mut self, envelope: Envelope<F>) -> Result<Vec<Outgoing<F>>, ProtocolError> {
        match envelope {
            Envelope::CodedMaskShare(share) => {
                self.receive_share(share)?;
                Ok(Vec::new())
            }
            Envelope::SurvivorAnnouncement(ann) => {
                if ann.group != self.group {
                    return Err(ProtocolError::WrongGroup {
                        got: ann.group,
                        expected: self.group,
                    });
                }
                if ann.round != self.round {
                    return Err(ProtocolError::StaleRound {
                        got: ann.round,
                        current: self.round,
                    });
                }
                let share = self.aggregated_share_for(&ann.survivors)?;
                Ok(vec![(Recipient::Server, Envelope::AggregatedShare(share))])
            }
            other => Err(ProtocolError::UnexpectedEnvelope { kind: other.kind() }),
        }
    }

    fn poll_output(&mut self) -> Option<Outgoing<F>> {
        while self.next_share < self.cfg.n() {
            let to = self.next_share;
            self.next_share += 1;
            if to != self.id {
                let share = self.outgoing_share(to);
                return Some((Recipient::Client(to), Envelope::CodedMaskShare(share)));
            }
        }
        let masked = self.upload.take()?;
        Some((Recipient::Server, Envelope::MaskedModel(masked)))
    }
}

/// A key that more than one of `items` has, if any: the smallest such.
/// The lists servers announce are ascending, which one comparison per
/// item confirms; any other order is checked on sorted keys.
pub(crate) fn repeated<T, K: Ord + Copy>(items: &[T], key: impl Fn(&T) -> K) -> Option<K> {
    if items.windows(2).all(|w| key(&w[0]) < key(&w[1])) {
        return None;
    }
    let mut keys: Vec<K> = items.iter().map(key).collect();
    keys.sort_unstable();
    keys.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
}

/// What a coded share must be for client `id` of either variant to file
/// it: addressed to `id`, from a user of `cfg`, one segment long (group
/// and round are the endpoint's to check first).
pub(crate) fn check_share<F>(
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

/// The offline phase's mask of a client of either variant (Algorithm 1
/// lines 4–7): `z_i` uniform over the padded length, partitioned into
/// `U − T` data segments, padded with `T` noise segments and encoded
/// with the `T`-private MDS code into one coded segment per user.
/// Returns `(z_i, coded segments)`.
pub(crate) fn sample_mask<F: Field, R: Rng + ?Sized>(
    code: &VandermondeCode<F>,
    cfg: &LsaConfig,
    rng: &mut R,
) -> Result<(Vec<F>, Vec<Vec<F>>), ProtocolError> {
    let mask = lsa_field::ops::random_vector(cfg.padded_len(), rng);
    let mut segments = vandermonde::partition(&mask, cfg.data_segments())?;
    for _ in 0..cfg.t() {
        segments.push(lsa_field::ops::random_vector(cfg.segment_len(), rng));
    }
    debug_assert_eq!(segments.len(), cfg.u());
    Ok((mask, code.encode_all(&segments)))
}

/// `x + z` in one pass, `x` zero-padded to `z`'s length (the masking
/// step of both protocol variants).
pub(crate) fn add_padded<F: Field>(x: &[F], z: &[F]) -> Vec<F> {
    let (head, tail) = z.split_at(x.len());
    let mut out = Vec::with_capacity(z.len());
    out.extend(x.iter().zip(head).map(|(&x, &z)| x + z));
    out.extend_from_slice(tail);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_field::Fp61;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> LsaConfig {
        LsaConfig::new(5, 1, 3, 10).unwrap()
    }

    fn cfg4() -> LsaConfig {
        LsaConfig::new(4, 1, 3, 6).unwrap()
    }

    #[test]
    fn new_client_has_own_share() {
        let mut rng = StdRng::seed_from_u64(1);
        let c = Client::<Fp61>::new(2, cfg(), &mut rng).unwrap();
        assert_eq!(c.shares_received(), 1);
        assert_eq!(c.outgoing_shares().len(), 4);
    }

    #[test]
    fn out_of_range_id_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        assert!(Client::<Fp61>::new(7, cfg(), &mut rng).is_err());
    }

    #[test]
    fn misrouted_share_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let c0 = Client::<Fp61>::new(0, cfg(), &mut rng).unwrap();
        let mut c1 = Client::<Fp61>::new(1, cfg(), &mut rng).unwrap();
        // share addressed to user 2, delivered to user 1
        let share = c0
            .outgoing_shares()
            .into_iter()
            .find(|s| s.to == 2)
            .unwrap();
        assert!(matches!(
            c1.receive_share(share),
            Err(ProtocolError::MisroutedShare {
                expected: 1,
                got: 2
            })
        ));
    }

    #[test]
    fn duplicate_share_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let c0 = Client::<Fp61>::new(0, cfg(), &mut rng).unwrap();
        let mut c1 = Client::<Fp61>::new(1, cfg(), &mut rng).unwrap();
        let share = c0
            .outgoing_shares()
            .into_iter()
            .find(|s| s.to == 1)
            .unwrap();
        c1.receive_share(share.clone()).unwrap();
        assert!(matches!(
            c1.receive_share(share),
            Err(ProtocolError::DuplicateMessage(0))
        ));
    }

    #[test]
    fn mask_model_checks_length() {
        let mut rng = StdRng::seed_from_u64(5);
        let c = Client::<Fp61>::new(0, cfg(), &mut rng).unwrap();
        assert!(c.mask_model(&[Fp61::ZERO; 9]).is_err());
        let m = c.mask_model(&[Fp61::ZERO; 10]).unwrap();
        assert_eq!(m.payload.len(), cfg().padded_len());
    }

    #[test]
    fn masked_zero_model_equals_mask() {
        let mut rng = StdRng::seed_from_u64(6);
        let c = Client::<Fp61>::new(0, cfg(), &mut rng).unwrap();
        let m = c.mask_model(&[Fp61::ZERO; 10]).unwrap();
        assert_eq!(m.payload, c.mask);
    }

    #[test]
    fn ratcheted_masks_sum_to_base_masks() {
        // full offline exchange among all 5 clients, then ratchet each:
        // the pairwise pads must telescope away, so Σ z_i^(r+1) = Σ m_i
        // while every individual mask is fresh — under both topologies
        use crate::ratchet::PadTopology;
        let mut rng = StdRng::seed_from_u64(8);
        let mut clients: Vec<Client<Fp61>> = (0..5)
            .map(|i| Client::new(i, cfg(), &mut rng).unwrap())
            .collect();
        let shares: Vec<_> = clients.iter().flat_map(|c| c.outgoing_shares()).collect();
        for s in shares {
            clients[s.to].receive_share(s).unwrap();
        }
        let sum = |cs: &[Client<Fp61>]| {
            let mut acc = vec![Fp61::ZERO; cfg().padded_len()];
            for c in cs {
                lsa_field::ops::add_assign(&mut acc, &c.mask);
            }
            acc
        };
        let base_sum = sum(&clients);
        for topology in [PadTopology::Clique, PadTopology::Hypercube] {
            let ratcheted: Vec<Client<Fp61>> = clients
                .iter_mut()
                .map(|c| Client::ratcheted_from(c, 1, 0xA5A5, topology))
                .collect();
            assert_eq!(sum(&ratcheted), base_sum, "pads must cancel in the sum");
            for (b, r) in clients.iter().zip(&ratcheted) {
                assert_ne!(b.mask, r.mask, "client {}: mask must be refreshed", b.id);
                assert_eq!(r.round, 1);
                assert_eq!(r.shares_received(), b.shares_received());
            }
            // a different nonce refreshes every mask again
            let again = Client::ratcheted_from(&mut clients[0], 2, 0x5A5A, topology);
            assert_ne!(again.mask, ratcheted[0].mask);
        }
        assert_eq!(clients[0].share_peers(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn epoch_bumped_ratchets_still_cancel_and_differ() {
        // a uniform epoch bump across the cohort keeps the pads
        // cancelling while refreshing every edge secret
        use crate::ratchet::PadTopology;
        let mut rng = StdRng::seed_from_u64(9);
        let mut clients: Vec<Client<Fp61>> = (0..4)
            .map(|i| Client::new(i, cfg4(), &mut rng).unwrap())
            .collect();
        let shares: Vec<_> = clients.iter().flat_map(|c| c.outgoing_shares()).collect();
        for s in shares {
            clients[s.to].receive_share(s).unwrap();
        }
        let before: Vec<Client<Fp61>> = clients
            .iter_mut()
            .map(|c| Client::ratcheted_from(c, 1, 7, PadTopology::Hypercube))
            .collect();
        for c in clients.iter_mut() {
            c.bump_pad_epoch(0xD00D);
        }
        let after: Vec<Client<Fp61>> = clients
            .iter_mut()
            .map(|c| Client::ratcheted_from(c, 1, 7, PadTopology::Hypercube))
            .collect();
        let sum = |cs: &[Client<Fp61>]| {
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

    /// A cohort of `cfg().n()` clients after the full offline exchange
    /// of `round`.
    fn exchanged<F: Field>(round: u64, seed: u64) -> Vec<Client<F>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut clients: Vec<Client<F>> = (0..cfg().n())
            .map(|i| Client::for_round_in_group(i, round, 3, cfg(), &mut rng).unwrap())
            .collect();
        let shares: Vec<_> = clients.iter().flat_map(|c| c.outgoing_shares()).collect();
        for s in shares {
            clients[s.to].receive_share(s).unwrap();
        }
        clients
    }

    /// The derivation as first written ([`crate::ratchet::tests::reference_pair_pad`]:
    /// hash the edge secret per pad, expand element by element into a
    /// temporary, add or subtract it).
    fn reference_mask<F: Field>(
        base: &Client<F>,
        nonce: u64,
        topology: crate::ratchet::PadTopology,
    ) -> Vec<F> {
        let mut mask = base.mask.clone();
        for peer in topology.partners(&base.share_peers(), base.id) {
            crate::ratchet::tests::reference_pair_pad(
                &mut mask,
                base.group,
                base.round,
                base.pad_epoch,
                nonce,
                base.id,
                peer,
                &base.shares.coded_for[peer],
                &base.shares.received[&peer],
            );
        }
        mask
    }

    fn ratchet_matches_reference<F: Field>() {
        use crate::ratchet::PadTopology;
        for topology in [PadTopology::Clique, PadTopology::Hypercube] {
            let mut clients = exchanged::<F>(4, 31);
            for c in clients.iter_mut() {
                // first derivation hashes the edge secrets, the second
                // reads them back, the third runs under a bumped epoch,
                // which must re-hash them: a seed of the old epoch that
                // survived the bump would still cancel pairwise, and
                // only the reference can tell
                let first = Client::ratcheted_from(c, 5, 0xA1, topology);
                assert_eq!(first.mask, reference_mask(c, 0xA1, topology));
                let hashed = c.edge_seeds.clone();
                assert_eq!(
                    hashed.len(),
                    topology.partners(&c.share_peers(), c.id).len()
                );
                let second = Client::ratcheted_from(c, 6, 0xB2, topology);
                assert_eq!(second.mask, reference_mask(c, 0xB2, topology));
                assert_eq!(
                    c.edge_seeds, hashed,
                    "edge secrets are per base and epoch, not per round"
                );
                c.bump_pad_epoch(0xD00D);
                assert!(c.edge_seeds.is_empty(), "the bump drops the old epoch");
                let third = Client::ratcheted_from(c, 7, 0xB2, topology);
                assert_eq!(third.mask, reference_mask(c, 0xB2, topology));
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
        let mut old = exchanged::<Fp61>(0, 77);
        let mut new = exchanged::<Fp61>(9, 77);
        for (o, n) in old.iter_mut().zip(new.iter_mut()) {
            assert_eq!(o.mask, n.mask);
            let from_old = Client::ratcheted_from(o, 10, 0xC3, Hypercube);
            assert!(
                n.edge_seeds.is_empty(),
                "a fresh base starts without secrets"
            );
            let from_new = Client::ratcheted_from(n, 10, 0xC3, Hypercube);
            assert_ne!(
                from_old.mask, from_new.mask,
                "base round separates the pads"
            );
            assert_eq!(from_new.mask, reference_mask(n, 0xC3, Hypercube));
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
        let mut rng = StdRng::seed_from_u64(12);
        let mut clients: Vec<Client<Fp61>> = (0..5)
            .map(|i| Client::new(i, cfg(), &mut rng).unwrap())
            .collect();
        let shares: Vec<_> = clients.iter().flat_map(|c| c.outgoing_shares()).collect();
        for s in shares.into_iter().filter(|s| s.from != 4 && s.to != 4) {
            clients[s.to].receive_share(s).unwrap();
        }
        let mut derived =
            Client::ratcheted_from(&mut clients[0], 1, 5, crate::ratchet::PadTopology::Clique);
        let late = Client::<Fp61>::for_round(4, 1, cfg(), &mut rng).unwrap();
        let share = late.outgoing_shares().into_iter().find(|s| s.to == 0);
        derived.receive_share(share.unwrap()).unwrap();
        assert_eq!(derived.shares_received(), 5);
        assert_eq!(clients[0].shares_received(), 4);
        assert!(!Arc::ptr_eq(
            derived.share_storage(),
            clients[0].share_storage()
        ));
    }

    #[test]
    fn share_filed_after_the_total_was_summed_resets_it() {
        // a cohort one short of N: client 0 answers for the four it
        // holds, then files the fifth share, on a round derived from it
        // and on the base itself
        let mut rng = StdRng::seed_from_u64(15);
        let mut clients: Vec<Client<Fp61>> = (0..5)
            .map(|i| Client::new(i, cfg(), &mut rng).unwrap())
            .collect();
        let shares: Vec<_> = clients.iter().flat_map(|c| c.outgoing_shares()).collect();
        let (late, early): (Vec<_>, Vec<_>) =
            shares.into_iter().partition(|s| s.from == 4 || s.to == 4);
        for s in early {
            clients[s.to].receive_share(s).unwrap();
        }
        let coded_for = |j: usize, from: &[usize]| {
            let shares: Vec<Vec<Fp61>> = from
                .iter()
                .map(|&i| clients[i].outgoing_share(j).payload)
                .collect();
            lsa_field::ops::sum_vectors(shares.iter().map(Vec::as_slice)).unwrap()
        };
        let (four, five) = (coded_for(0, &[0, 1, 2, 3]), coded_for(0, &[0, 1, 2, 3, 4]));
        let late = late.into_iter().find(|s| s.from == 4 && s.to == 0).unwrap();
        let answer = |c: &Client<Fp61>, survivors: &[usize]| {
            c.aggregated_share_for(survivors).unwrap().payload
        };
        let mut base = clients[0].clone();
        let mut derived =
            Client::ratcheted_from(&mut base, 1, 5, crate::ratchet::PadTopology::Clique);
        assert_eq!(answer(&derived, &[3, 2, 1, 0]), four);
        assert_eq!(base.share_total(), Some(&four), "one total for both");
        derived
            .receive_share(CodedMaskShare {
                round: 1,
                ..late.clone()
            })
            .unwrap();
        assert_eq!(derived.share_total(), None, "the filed share resets it");
        assert_eq!(base.share_total(), Some(&four), "and leaves the base's");
        assert_eq!(answer(&derived, &[0, 1, 2, 3]), four, "now a subset");
        assert_eq!(answer(&derived, &[0, 1, 2, 3, 4]), five);
        assert_eq!(derived.share_total(), Some(&five));
        base.receive_share(late).unwrap();
        assert_eq!(base.share_total(), None);
        assert_eq!(answer(&base, &[4, 3, 2, 1, 0]), five);
        assert_eq!(base.share_total(), Some(&five));
    }

    #[test]
    fn announcement_is_checked_group_then_round_then_shares() {
        use crate::wire::SurvivorAnnouncement;
        let mut rng = StdRng::seed_from_u64(13);
        let mut c = Client::<Fp61>::for_round_in_group(0, 4, 3, cfg(), &mut rng).unwrap();
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
            c.handle(ann(3, 5, &[0, 1])).unwrap_err(),
            ProtocolError::StaleRound { got: 5, current: 4 }
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
        use crate::wire::SurvivorAnnouncement;
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
        let mut rng = StdRng::seed_from_u64(7);
        let c = Client::<Fp61>::new(0, cfg(), &mut rng).unwrap();
        // survivor 3's share never arrived
        assert!(matches!(
            c.aggregated_share_for(&[0, 3]),
            Err(ProtocolError::MissingShares { from: 3 })
        ));
        // own share suffices for survivor set {0}
        assert!(c.aggregated_share_for(&[0]).is_ok());
    }
}
