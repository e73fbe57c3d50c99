//! The SecAgg protocol (Bonawitz et al., CCS 2017) as described in §3 of
//! the LightSecAgg paper, generalised over a communication graph so that
//! SecAgg+ (Bell et al., CCS 2020) is the same engine on a sparse graph.
//!
//! Per round:
//!
//! 1. **Key advertisement** — every user publishes a DH public key.
//! 2. **Pairwise agreement + secret sharing** — every neighbour pair
//!    `(i,j)` derives the seed `a_{i,j}`; every user Shamir-shares its
//!    self-mask seed `b_i` *and* its DH secret key `sk_i` among its
//!    neighbours with threshold `t`.
//! 3. **Masking** — user `i` uploads
//!    `~x_i = x_i + PRG(b_i) + Σ_{j>i} PRG(a_{i,j}) − Σ_{j<i} PRG(a_{j,i})`
//!    (neighbours only).
//! 4. **Recovery** — for every *included* user the server reconstructs
//!    `b_i` (and subtracts `PRG(b_i)`); for every *dropped* user it
//!    reconstructs `sk_i`, re-derives that user's pairwise seeds and
//!    cancels the orphaned pairwise masks (Eq. 1 of the paper). This last
//!    step is the `O(N²·d)` bottleneck LightSecAgg removes.

use crate::graph::CommunicationGraph;
use crate::limbs;
use crate::BaselineError;
use lsa_coding::{shamir::Share, ShamirScheme};
use lsa_crypto::dh::{self, KeyPair, PublicKey, SecretKey};
use lsa_crypto::{FieldPrg, Seed};
use lsa_field::Field;
use lsa_protocol::MaskedModel;
use rand::Rng;
use std::collections::BTreeMap;

/// Configuration shared by SecAgg and SecAgg+.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecAggConfig {
    n: usize,
    threshold: usize,
    d: usize,
    graph: CommunicationGraph,
}

impl SecAggConfig {
    /// Classic SecAgg: complete graph, global Shamir threshold `t`
    /// (privacy against `t` colluders; reconstruction needs `t+1`
    /// neighbour shares).
    ///
    /// # Errors
    ///
    /// Returns [`BaselineError::InvalidConfig`] unless
    /// `n ≥ 2`, `d ≥ 1` and `t < n − 1` (each user has `n−1` share
    /// holders).
    pub fn secagg(n: usize, t: usize, d: usize) -> Result<Self, BaselineError> {
        Self::with_graph(n, t, d, CommunicationGraph::complete(n))
    }

    /// SecAgg+ with the default `O(log N)` degree and a majority local
    /// threshold `k/2` (the sparse-graph analogue of the paper's
    /// `T = N/2` setting).
    ///
    /// # Errors
    ///
    /// See [`Self::with_graph`].
    pub fn secagg_plus(n: usize, d: usize) -> Result<Self, BaselineError> {
        let graph = CommunicationGraph::secagg_plus_default(n);
        let t = graph.degree() / 2;
        Self::with_graph(n, t, d, graph)
    }

    /// Fully custom configuration.
    ///
    /// # Errors
    ///
    /// Returns [`BaselineError::InvalidConfig`] on parameter violations.
    pub fn with_graph(
        n: usize,
        threshold: usize,
        d: usize,
        graph: CommunicationGraph,
    ) -> Result<Self, BaselineError> {
        if n < 2 || d == 0 {
            return Err(BaselineError::InvalidConfig(format!(
                "need n >= 2 and d >= 1, got n={n}, d={d}"
            )));
        }
        if graph.n() != n {
            return Err(BaselineError::InvalidConfig(
                "graph size does not match n".into(),
            ));
        }
        // each secret has degree+1 holders (the neighbours plus the
        // owner itself, as in the paper's "2 out of 3" Figure 2 example)
        if threshold > graph.degree() {
            return Err(BaselineError::InvalidConfig(format!(
                "threshold {threshold} must not exceed the graph degree {}",
                graph.degree()
            )));
        }
        Ok(Self {
            n,
            threshold,
            d,
            graph,
        })
    }

    /// Number of users.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Shamir threshold `t`.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Model dimension.
    pub fn d(&self) -> usize {
        self.d
    }

    /// The communication graph.
    pub fn graph(&self) -> &CommunicationGraph {
        &self.graph
    }
}

/// Key advertisement message (round 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyAdvertisement {
    /// Advertising user.
    pub from: usize,
    /// Their DH public key.
    pub public_key: PublicKey,
}

/// Secret-share delivery message (round 1): `from`'s shares of `b_from`
/// and `sk_from` destined to neighbour `to`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecretShares<F> {
    /// Owner of the shared secrets.
    pub from: usize,
    /// Receiving neighbour.
    pub to: usize,
    /// Shares of the seed `b_from` (one per 16-bit limb).
    pub b_share: Vec<Share<F>>,
    /// Shares of the secret key `sk_from` (one per limb).
    pub sk_share: Vec<Share<F>>,
}

/// What a surviving helper reveals during recovery: for included users
/// the `b` share, for dropped users the `sk` share — never both for the
/// same owner (the SecAgg privacy invariant).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryShares<F> {
    /// The responding helper.
    pub from: usize,
    /// `(owner, limb shares of b_owner)` for included owners.
    pub b_shares: Vec<(usize, Vec<Share<F>>)>,
    /// `(owner, limb shares of sk_owner)` for dropped owners.
    pub sk_shares: Vec<(usize, Vec<Share<F>>)>,
}

/// The limb shares a holder keeps for one owner: `(b` shares, `sk`
/// shares`)`.
type HeldShares<F> = (Vec<Share<F>>, Vec<Share<F>>);

/// A SecAgg/SecAgg+ user.
#[derive(Debug, Clone)]
pub struct SecAggClient<F> {
    id: usize,
    cfg: SecAggConfig,
    round: u64,
    keypair: KeyPair,
    b_seed: Seed,
    directory: BTreeMap<usize, PublicKey>,
    /// Shares this client holds of other users' secrets, keyed by owner.
    held: BTreeMap<usize, HeldShares<F>>,
}

impl<F: Field> SecAggClient<F> {
    /// Create the client for user `id` in round `round`, generating its
    /// DH key pair and self-mask seed.
    ///
    /// # Errors
    ///
    /// Returns [`BaselineError::InvalidConfig`] if `id` is out of range.
    pub fn new<R: Rng + ?Sized>(
        id: usize,
        cfg: SecAggConfig,
        round: u64,
        rng: &mut R,
    ) -> Result<Self, BaselineError> {
        if id >= cfg.n() {
            return Err(BaselineError::InvalidConfig(format!(
                "client id {id} out of range for N={}",
                cfg.n()
            )));
        }
        Ok(Self {
            id,
            cfg,
            round,
            keypair: KeyPair::generate(rng),
            b_seed: Seed::random(rng),
            directory: BTreeMap::new(),
            held: BTreeMap::new(),
        })
    }

    /// This client's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Round 0: advertise the public key.
    pub fn advertise(&self) -> KeyAdvertisement {
        KeyAdvertisement {
            from: self.id,
            public_key: self.keypair.public_key(),
        }
    }

    /// Install the public-key directory collected by the server.
    pub fn install_directory(&mut self, ads: &[KeyAdvertisement]) {
        for ad in ads {
            self.directory.insert(ad.from, ad.public_key);
        }
    }

    /// Round 1: Shamir-share `b_i` and `sk_i` among the holders — the
    /// neighbours *plus the owner itself* (the paper's Figure 2 uses a
    /// 2-out-of-3 sharing across all 3 users). Returns the messages for
    /// the neighbours; the own share is stored directly.
    ///
    /// # Errors
    ///
    /// Returns [`BaselineError::Coding`] if the holder set is too small
    /// for the threshold.
    pub fn share_secrets<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
    ) -> Result<Vec<SecretShares<F>>, BaselineError> {
        let holders = holders_of(self.cfg.graph(), self.id);
        let scheme = ShamirScheme::<F>::new(holders.len(), self.cfg.threshold())?;
        let b_limbs = limbs::bytes_to_limbs::<F>(&self.b_seed.0);
        let sk_limbs = limbs::u64_to_limbs::<F>(self.keypair.secret_key().expose());
        let b_holder = scheme.share_vector(&b_limbs, rng);
        let sk_holder = scheme.share_vector(&sk_limbs, rng);
        let mut out = Vec::with_capacity(holders.len() - 1);
        for (pos, &to) in holders.iter().enumerate() {
            if to == self.id {
                self.held
                    .insert(self.id, (b_holder[pos].clone(), sk_holder[pos].clone()));
            } else {
                out.push(SecretShares {
                    from: self.id,
                    to,
                    b_share: b_holder[pos].clone(),
                    sk_share: sk_holder[pos].clone(),
                });
            }
        }
        Ok(out)
    }

    /// Round 1 receive: store a neighbour's shares.
    ///
    /// # Errors
    ///
    /// * [`BaselineError::MisroutedShare`] if not addressed to this user;
    /// * [`BaselineError::NotNeighbors`] if the sender is not adjacent;
    /// * [`BaselineError::DuplicateMessage`] on re-delivery.
    pub fn receive_shares(&mut self, msg: SecretShares<F>) -> Result<(), BaselineError> {
        if msg.to != self.id {
            return Err(BaselineError::MisroutedShare {
                expected: self.id,
                got: msg.to,
            });
        }
        if !self.cfg.graph().are_neighbors(msg.from, self.id) {
            return Err(BaselineError::NotNeighbors(msg.from, self.id));
        }
        if self.held.contains_key(&msg.from) {
            return Err(BaselineError::DuplicateMessage(msg.from));
        }
        self.held.insert(msg.from, (msg.b_share, msg.sk_share));
        Ok(())
    }

    /// Round 2: mask and "upload" the local model.
    ///
    /// # Errors
    ///
    /// * [`BaselineError::InvalidConfig`] on model length mismatch;
    /// * [`BaselineError::MissingKey`] if a neighbour's public key is
    ///   unknown.
    pub fn mask_model(&self, model: &[F]) -> Result<MaskedModel<F>, BaselineError> {
        if model.len() != self.cfg.d() {
            return Err(BaselineError::InvalidConfig(format!(
                "model length {} != d = {}",
                model.len(),
                self.cfg.d()
            )));
        }
        let mut payload = model.to_vec();
        // self mask n_i = PRG(b_i)
        FieldPrg::new(self.b_seed.derive(self.round)).add_into(&mut payload);
        // pairwise masks with neighbours
        for j in self.cfg.graph().neighbors(self.id) {
            let pk = self.directory.get(&j).ok_or(BaselineError::MissingKey(j))?;
            let mut pairwise = FieldPrg::new(self.keypair.agree(pk).derive(self.round));
            if self.id < j {
                pairwise.add_into(&mut payload);
            } else {
                pairwise.sub_into(&mut payload);
            }
        }
        Ok(MaskedModel {
            from: self.id,
            group: 0,
            round: self.round,
            payload,
        })
    }

    /// Round 3: reveal recovery shares for the sets the server announced.
    ///
    /// Owners appearing in both sets are rejected (a malicious server
    /// could otherwise unmask an individual model).
    ///
    /// # Errors
    ///
    /// Returns [`BaselineError::BothSharesRequested`] on overlap.
    pub fn recovery_shares(
        &self,
        included: &[usize],
        dropped: &[usize],
    ) -> Result<RecoveryShares<F>, BaselineError> {
        if let Some(&who) = included.iter().find(|i| dropped.contains(i)) {
            return Err(BaselineError::BothSharesRequested(who));
        }
        let mut b_shares = Vec::new();
        let mut sk_shares = Vec::new();
        for (&owner, (b, sk)) in &self.held {
            if included.contains(&owner) {
                b_shares.push((owner, b.clone()));
            } else if dropped.contains(&owner) {
                sk_shares.push((owner, sk.clone()));
            }
        }
        Ok(RecoveryShares {
            from: self.id,
            b_shares,
            sk_shares,
        })
    }
}

/// Counters for the server's recovery work — the quantities Table 1 and
/// Table 4 of the paper compare across protocols.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Number of length-`d` PRG expansions performed.
    pub prg_expansions: usize,
    /// Number of Shamir secrets reconstructed.
    pub secrets_reconstructed: usize,
}

/// Output of a SecAgg round.
#[derive(Debug, Clone)]
pub struct SecAggRoundOutput<F> {
    /// The aggregate `Σ_{i∈included} x_i`.
    pub aggregate: Vec<F>,
    /// Users whose models are included.
    pub included: Vec<usize>,
    /// Users treated as dropped.
    pub dropped: Vec<usize>,
    /// Server-side recovery work.
    pub stats: RecoveryStats,
}

/// The SecAgg server's recovery computation (Eq. 1).
///
/// `masked` maps included users to their uploads; `recovery` holds the
/// surviving helpers' revealed shares; `ads` is the key directory.
///
/// # Errors
///
/// Returns [`BaselineError::Coding`] when too few shares survive to
/// reconstruct some needed secret, and [`BaselineError::InvalidConfig`]
/// when no upload arrived or the uploads are not `d` long.
pub fn server_recover<F: Field>(
    cfg: &SecAggConfig,
    round: u64,
    masked: &BTreeMap<usize, Vec<F>>,
    dropped: &[usize],
    recovery: &[RecoveryShares<F>],
    ads: &[KeyAdvertisement],
) -> Result<SecAggRoundOutput<F>, BaselineError> {
    let included: Vec<usize> = masked.keys().copied().collect();
    let mut stats = RecoveryStats::default();
    let directory: BTreeMap<usize, PublicKey> =
        ads.iter().map(|a| (a.from, a.public_key)).collect();

    // Σ ~x_i
    let mut aggregate = lsa_field::ops::sum_vectors(masked.values().map(Vec::as_slice))
        .ok_or_else(|| BaselineError::InvalidConfig("no masked models".into()))?;
    // the masks below are drawn at the aggregate's length
    if aggregate.len() != cfg.d() {
        return Err(BaselineError::InvalidConfig(format!(
            "masked model length {} != d = {}",
            aggregate.len(),
            cfg.d()
        )));
    }

    // Index recovery shares: owner -> collected limb shares.
    let mut b_collected: BTreeMap<usize, Vec<Vec<Share<F>>>> = BTreeMap::new();
    let mut sk_collected: BTreeMap<usize, Vec<Vec<Share<F>>>> = BTreeMap::new();
    for r in recovery {
        for (owner, shares) in &r.b_shares {
            b_collected.entry(*owner).or_default().push(shares.clone());
        }
        for (owner, shares) in &r.sk_shares {
            sk_collected.entry(*owner).or_default().push(shares.clone());
        }
    }

    // (a) subtract PRG(b_i) for every included user.
    for &i in &included {
        let collected = b_collected
            .get(&i)
            .ok_or(lsa_coding::CodingError::NotEnoughShares {
                got: 0,
                need: cfg.threshold() + 1,
            })?;
        let seed = reconstruct_seed(cfg, i, collected)?;
        stats.secrets_reconstructed += 1;
        FieldPrg::new(seed.derive(round)).sub_into(&mut aggregate);
        stats.prg_expansions += 1;
    }

    // (b) cancel orphaned pairwise masks of every dropped user (Eq. 1).
    for &j in dropped {
        let collected = sk_collected
            .get(&j)
            .ok_or(lsa_coding::CodingError::NotEnoughShares {
                got: 0,
                need: cfg.threshold() + 1,
            })?;
        let sk = reconstruct_secret_key(cfg, j, collected)?;
        stats.secrets_reconstructed += 1;
        for &k in &cfg.graph().neighbors(j) {
            if !included.contains(&k) {
                continue;
            }
            let pk = directory.get(&k).ok_or(BaselineError::MissingKey(k))?;
            let mut pairwise = FieldPrg::new(dh::agree(&sk, pk).derive(round));
            stats.prg_expansions += 1;
            if j < k {
                // k's model contains −PRG(a_{j,k}) → add it back
                pairwise.add_into(&mut aggregate);
            } else {
                // k's model contains +PRG(a_{k,j}) → subtract
                pairwise.sub_into(&mut aggregate);
            }
        }
    }

    Ok(SecAggRoundOutput {
        aggregate,
        included,
        dropped: dropped.to_vec(),
        stats,
    })
}

/// The holder list of a user's secrets: its neighbours plus itself,
/// sorted (so share indices are consistent between sharing and
/// reconstruction).
fn holders_of(graph: &crate::graph::CommunicationGraph, owner: usize) -> Vec<usize> {
    let mut holders = graph.neighbors(owner);
    holders.push(owner);
    holders.sort_unstable();
    holders
}

fn reconstruct_limbs<F: Field>(
    cfg: &SecAggConfig,
    owner: usize,
    collected: &[Vec<Share<F>>],
    limb_count: usize,
) -> Result<Vec<F>, BaselineError> {
    let holders = holders_of(cfg.graph(), owner);
    let scheme = ShamirScheme::<F>::new(holders.len(), cfg.threshold())?;
    let mut limbs = Vec::with_capacity(limb_count);
    for limb_idx in 0..limb_count {
        let shares: Vec<Share<F>> = collected
            .iter()
            .filter_map(|holder| holder.get(limb_idx).copied())
            .collect();
        limbs.push(scheme.reconstruct(&shares)?);
    }
    Ok(limbs)
}

fn reconstruct_seed<F: Field>(
    cfg: &SecAggConfig,
    owner: usize,
    collected: &[Vec<Share<F>>],
) -> Result<Seed, BaselineError> {
    let limbs = reconstruct_limbs(cfg, owner, collected, 16)?;
    let bytes = limbs::limbs_to_bytes(&limbs, 32);
    Ok(Seed(bytes.try_into().expect("32 bytes")))
}

fn reconstruct_secret_key<F: Field>(
    cfg: &SecAggConfig,
    owner: usize,
    collected: &[Vec<Share<F>>],
) -> Result<SecretKey, BaselineError> {
    let limbs = reconstruct_limbs(cfg, owner, collected, 4)?;
    Ok(SecretKey::from_raw(limbs::limbs_to_u64(&limbs)))
}

/// Reference driver: one full SecAgg/SecAgg+ round in memory.
///
/// Users in `dropouts.before_upload` never upload; users in
/// `dropouts.after_upload` upload but are *treated as dropped* (their
/// model is discarded and their pairwise masks reconstructed) — this is
/// the worst case of §7.1 that maximises server work.
///
/// # Errors
///
/// Propagates any sub-protocol failure; notably
/// [`BaselineError::Coding`] when dropouts leave fewer than `t+1`
/// surviving neighbours for some needed secret.
pub fn run_secagg_round<F: Field, R: Rng + ?Sized>(
    cfg: &SecAggConfig,
    models: &[Vec<F>],
    dropouts: &lsa_protocol::DropoutSchedule,
    rng: &mut R,
) -> Result<SecAggRoundOutput<F>, BaselineError> {
    assert_eq!(models.len(), cfg.n(), "one model per user");
    let round = 0u64;

    // Round 0: keys.
    let mut clients: Vec<SecAggClient<F>> = (0..cfg.n())
        .map(|id| SecAggClient::new(id, cfg.clone(), round, rng))
        .collect::<Result<_, _>>()?;
    let ads: Vec<KeyAdvertisement> = clients.iter().map(SecAggClient::advertise).collect();
    for c in clients.iter_mut() {
        c.install_directory(&ads);
    }

    // Round 1: secret sharing.
    let mut all_shares = Vec::new();
    for c in clients.iter_mut() {
        all_shares.extend(c.share_secrets(rng)?);
    }
    for msg in all_shares {
        clients[msg.to].receive_shares(msg)?;
    }

    // Round 2: masking and upload.
    let mut masked: BTreeMap<usize, Vec<F>> = BTreeMap::new();
    for (id, c) in clients.iter().enumerate() {
        if dropouts.before_upload.contains(&id) {
            continue;
        }
        if dropouts.after_upload.contains(&id) {
            // uploads, but the server will treat it as dropped; discard.
            let _ = c.mask_model(&models[id])?;
            continue;
        }
        masked.insert(id, c.mask_model(&models[id])?.payload);
    }

    let dropped: Vec<usize> = (0..cfg.n()).filter(|i| !masked.contains_key(i)).collect();
    let included: Vec<usize> = masked.keys().copied().collect();

    // Round 3: surviving helpers reveal shares.
    let helpers: Vec<usize> = included.clone();
    let recovery: Vec<RecoveryShares<F>> = helpers
        .iter()
        .map(|&id| clients[id].recovery_shares(&included, &dropped))
        .collect::<Result<_, _>>()?;

    server_recover(cfg, round, &masked, &dropped, &recovery, &ads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_field::Fp61;
    use lsa_protocol::DropoutSchedule;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn models(n: usize, d: usize, seed: u64) -> Vec<Vec<Fp61>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| lsa_field::ops::random_vector(d, &mut rng))
            .collect()
    }

    fn expected_sum(models: &[Vec<Fp61>], who: &[usize]) -> Vec<Fp61> {
        let mut acc = vec![Fp61::ZERO; models[0].len()];
        for &i in who {
            lsa_field::ops::add_assign(&mut acc, &models[i]);
        }
        acc
    }

    #[test]
    fn no_dropout_masks_cancel() {
        let cfg = SecAggConfig::secagg(5, 2, 8).unwrap();
        let ms = models(5, 8, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let out = run_secagg_round(&cfg, &ms, &DropoutSchedule::none(), &mut rng).unwrap();
        assert_eq!(out.aggregate, expected_sum(&ms, &[0, 1, 2, 3, 4]));
        // no dropouts: N seed reconstructions + N PRG expansions
        assert_eq!(out.stats.secrets_reconstructed, 5);
        assert_eq!(out.stats.prg_expansions, 5);
    }

    #[test]
    fn dropout_before_upload_recovered() {
        let cfg = SecAggConfig::secagg(5, 1, 8).unwrap();
        let ms = models(5, 8, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let out = run_secagg_round(
            &cfg,
            &ms,
            &DropoutSchedule::before_upload(vec![1]),
            &mut rng,
        )
        .unwrap();
        assert_eq!(out.included, vec![0, 2, 3, 4]);
        assert_eq!(out.aggregate, expected_sum(&ms, &[0, 2, 3, 4]));
        // 4 self-seed + 1 sk reconstructions; 4 self PRG + 4 pairwise PRG
        assert_eq!(out.stats.secrets_reconstructed, 5);
        assert_eq!(out.stats.prg_expansions, 8);
    }

    #[test]
    fn dropout_after_upload_treated_as_dropped() {
        // the §7.1 worst case: model discarded, pairwise masks rebuilt
        let cfg = SecAggConfig::secagg(6, 2, 10).unwrap();
        let ms = models(6, 10, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let out = run_secagg_round(
            &cfg,
            &ms,
            &DropoutSchedule::after_upload(vec![0, 3]),
            &mut rng,
        )
        .unwrap();
        assert_eq!(out.included, vec![1, 2, 4, 5]);
        assert_eq!(out.aggregate, expected_sum(&ms, &[1, 2, 4, 5]));
        // 4 b + 2 sk reconstructions; 4 self + 2×4 pairwise PRG
        assert_eq!(out.stats.secrets_reconstructed, 6);
        assert_eq!(out.stats.prg_expansions, 12);
    }

    #[test]
    fn secagg_plus_sparse_graph_round() {
        let cfg = SecAggConfig::secagg_plus(16, 6).unwrap();
        assert!(cfg.graph().degree() < 15);
        let ms = models(16, 6, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let out = run_secagg_round(
            &cfg,
            &ms,
            &DropoutSchedule::after_upload(vec![2, 9]),
            &mut rng,
        )
        .unwrap();
        let included: Vec<usize> = (0..16).filter(|i| *i != 2 && *i != 9).collect();
        assert_eq!(out.aggregate, expected_sum(&ms, &included));
        // pairwise reconstructions bounded by degree, not N
        assert!(out.stats.prg_expansions <= 14 + 2 * cfg.graph().degree());
    }

    #[test]
    fn too_many_dropouts_fail() {
        // threshold 2 needs 3 surviving neighbours per dropped user
        let cfg = SecAggConfig::secagg(4, 2, 4).unwrap();
        let ms = models(4, 4, 9);
        let mut rng = StdRng::seed_from_u64(10);
        let res = run_secagg_round(
            &cfg,
            &ms,
            &DropoutSchedule::before_upload(vec![0, 1]),
            &mut rng,
        );
        assert!(res.is_err());
    }

    #[test]
    fn both_shares_request_rejected() {
        let cfg = SecAggConfig::secagg(3, 1, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let c = SecAggClient::<Fp61>::new(0, cfg, 0, &mut rng).unwrap();
        assert!(matches!(
            c.recovery_shares(&[1, 2], &[2]),
            Err(BaselineError::BothSharesRequested(2))
        ));
    }
}
