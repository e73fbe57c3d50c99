//! The aggregator tree: hierarchical secure aggregation for
//! `N = 10⁴+` cohorts.
//!
//! The flat protocol's offline phase exchanges coded mask segments
//! all-to-all, so a cohort of `N` clients moves `N·(N−1)` offline
//! messages per round — the wall between the current benches and a
//! "millions of users" deployment. LightSecAgg's aggregate-then-decode
//! structure *composes*: a group's decoded aggregate is just another
//! model update, so the fix is to partition the cohort into leaf
//! groups (cf. Turbo-Aggregate's multi-group rings and SwiftAgg+'s
//! network-aware sharing), run the unchanged protocol independently
//! within each group, and sum.
//!
//! * [`TopologyNode`] — the shape: a **leaf** is one [`LsaConfig`]
//!   running the flat protocol; an **internal node** groups its
//!   children. Trees nest to any depth, but the nesting is a
//!   namespace only.
//! * [`GroupTopology`] — the flattened view of a tree: per-leaf
//!   configurations, the global-id ↔ `(leaf, local)` mapping (with a
//!   reseatable permutation for cross-round reassignment), the
//!   root→leaf paths, and the **tree-namespaced wire ids** every
//!   envelope carries.
//! * [`GroupedFederation`] — the runtime: one node holding every leaf
//!   group's [`BoxedAggregator`] directly. One leaf is one recovery
//!   domain, and addition in `F_q` ignores grouping, so levels above
//!   the leaves would only decide which decoded sums get added
//!   together. `finish_round` finishes the leaves one after another on
//!   the caller's thread and folds their aggregates in depth-first
//!   order.
//!
//! # Id spaces
//!
//! Three id spaces coexist and must never be confused:
//!
//! * **global ids** `0..N` — what drivers speak ([`crate::RoundPlan`]
//!   cohorts, `submit`). Stable client identities across rounds.
//! * **slots** `0..N` — depth-first-contiguous positions in the tree:
//!   leaf `g` owns slots `starts[g] .. starts[g] + n_g`. The
//!   global↔slot permutation ([`GroupTopology::reassign`]) is the
//!   cross-round group-reassignment hook: re-seating it moves clients
//!   between leaf groups without touching any protocol state.
//! * **wire ids** — the `u32` group word of every envelope
//!   ([`crate::wire::Envelope::group`]), allocated densely across the
//!   whole tree in depth-first leaf order, with the top bit carrying
//!   the Wire-v2 version stamp
//!   ([`crate::wire::GROUP_VERSION_BIT`]). A share stamped with a
//!   stale mapping's wire id is rejected as
//!   [`ProtocolError::WrongGroup`] by the leaf now serving that
//!   client.
//!
//! # Privacy model
//!
//! `T`-privacy holds **per leaf group**: leaf `g` tolerates up to
//! `t_g` colluders among its own members (plus the server). Colluders
//! elsewhere in the tree never receive its mask shares and learn
//! nothing. Internal nodes add no cryptography — they only ever see
//! per-subtree *aggregates*, each of which already covers ≥ `u_g`
//! clients. The trade-off for the ~`N/n_g`× smaller offline cost is
//! that the collusion bound is per leaf (`t_g < n_g`), not global;
//! [`GroupTopology::reassign`] additionally rotates membership so a
//! slowly-built intra-group coalition is dissolved every round.
//!
//! # Example: 8 clients, two groups, one `Federation` loop
//!
//! ```
//! use lsa_protocol::federation::{Federation, RoundPlan};
//! use lsa_protocol::topology::{GroupTopology, GroupedFederation};
//! use lsa_protocol::transport::MemTransport;
//! use lsa_field::{Field, Fp61};
//!
//! let topo = GroupTopology::uniform(8, 2, 0.25, 0.75, 3).unwrap();
//! let grouped = GroupedFederation::new(topo, MemTransport::new(), 7).unwrap();
//! let mut fed = Federation::new(Box::new(grouped));
//! let out = fed
//!     .run_round(&RoundPlan::full(8).with_uniform_updates(vec![Fp61::ONE; 3]))
//!     .unwrap();
//! assert_eq!(out.aggregate, vec![Fp61::from_u64(8); 3]);
//! ```
//!
//! Two-level at scale: `GroupTopology::hierarchical(16384, &[64, 16],
//! 0.25, 0.9, d)` names 64 super-groups of 16 leaf groups of 16
//! clients; its `GroupedFederation` holds the 1024 leaves, and no
//! protocol loop touches all 16384 clients.

use crate::config::LsaConfig;
use crate::federation::{
    claim_prepared, ensure_unprepared, BoxedAggregator, OpenRound, RoundOutcome, SecureAggregator,
    SyncFederation,
};
use crate::ratchet::{CohortFingerprint, RatchetPolicy};
use crate::telemetry::RoundReport;
use crate::transport::Transport;
use crate::wire::MAX_GROUP_ID;
use crate::ProtocolError;
use lsa_field::Field;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// One node of an aggregator tree.
///
/// A leaf runs the flat LightSecAgg protocol with its own
/// configuration (own evaluation points, own dropout budget); an
/// internal node groups its children in the id namespace. Because a
/// decoded aggregate is just another update vector, nesting changes
/// only the id bookkeeping: [`GroupedFederation`] sums every leaf at
/// one node whatever the depth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyNode {
    /// A flat protocol instance over `cfg.n()` clients.
    Leaf(LsaConfig),
    /// An aggregation point summing its children.
    Internal(Vec<TopologyNode>),
}

impl TopologyNode {
    /// Edge-depth of the subtree (0 for a bare leaf).
    pub(crate) fn depth(&self) -> usize {
        match self {
            TopologyNode::Leaf(_) => 0,
            TopologyNode::Internal(kids) => {
                1 + kids.iter().map(TopologyNode::depth).max().unwrap_or(0)
            }
        }
    }
}

/// The flattened view of an aggregator tree: per-leaf configurations in
/// depth-first order, the global↔`(leaf, local)` id mapping, root→leaf
/// paths, and the tree-namespaced wire ids.
///
/// Wire ids are allocated densely over the leaves in depth-first order
/// (`wire_id(g) = wire_offset + g`); a root topology has
/// `wire_offset = 0`. Slots are depth-first contiguous: leaf `g` owns
/// slots `starts[g] .. starts[g] + n_g`. Global ids map to slots
/// through a permutation that starts as the identity and is re-seated
/// by [`GroupTopology::reassign`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupTopology {
    root: TopologyNode,
    /// Per-leaf configurations, depth-first.
    configs: Vec<LsaConfig>,
    /// `starts[g]` — first slot of leaf `g`.
    starts: Vec<usize>,
    /// Root→leaf child-index paths, depth-first (lexicographic).
    paths: Vec<Vec<usize>>,
    /// First wire id of this (sub)tree; leaf `g` is `wire_offset + g`.
    wire_offset: u32,
    n: usize,
    d: usize,
    /// Flat summary of the whole deployment (see
    /// [`GroupTopology::aggregate_view`]).
    view: LsaConfig,
    /// `perm[global] = slot`.
    perm: Vec<usize>,
    /// `inv[slot] = global`.
    inv: Vec<usize>,
}

impl GroupTopology {
    /// The trivial topology: one leaf containing everyone — byte-for-
    /// byte the flat protocol (a depth-0 tree).
    pub fn flat(cfg: LsaConfig) -> Self {
        Self::from_tree(TopologyNode::Leaf(cfg)).expect("a single valid config is a valid tree")
    }

    /// A depth-1 tree from explicit per-group configurations (groups
    /// may be heterogeneous in size and thresholds, e.g. a high-trust
    /// group with small `t` next to a large open group).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidConfig`] if no groups are given
    /// or the groups disagree on the model dimension `d`.
    pub(crate) fn from_configs(configs: Vec<LsaConfig>) -> Result<Self, ProtocolError> {
        Self::from_tree(TopologyNode::Internal(
            configs.into_iter().map(TopologyNode::Leaf).collect(),
        ))
    }

    /// Flatten an arbitrary aggregator tree.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidConfig`] if the tree has no
    /// leaves, an internal node is empty, the leaves disagree on the
    /// model dimension, or the leaf count overflows the wire-id
    /// namespace (`> MAX_GROUP_ID + 1`).
    pub fn from_tree(root: TopologyNode) -> Result<Self, ProtocolError> {
        Self::from_tree_at(root, 0)
    }

    fn from_tree_at(root: TopologyNode, wire_offset: u32) -> Result<Self, ProtocolError> {
        let mut configs = Vec::new();
        let mut paths = Vec::new();
        let mut path = Vec::new();
        collect_leaves(&root, &mut path, &mut configs, &mut paths)?;
        let Some(first) = configs.first() else {
            return Err(ProtocolError::InvalidConfig(
                "topology needs at least one group".into(),
            ));
        };
        let d = first.d();
        if let Some(bad) = configs.iter().find(|c| c.d() != d) {
            return Err(ProtocolError::InvalidConfig(format!(
                "all groups must share the model dimension (got {} and {})",
                d,
                bad.d()
            )));
        }
        let leaves = configs.len() as u64 + wire_offset as u64;
        if leaves > MAX_GROUP_ID as u64 + 1 {
            return Err(ProtocolError::InvalidConfig(format!(
                "{leaves} leaves overflow the wire group-id namespace (max {})",
                MAX_GROUP_ID as u64 + 1
            )));
        }
        let mut starts = Vec::with_capacity(configs.len());
        let mut n = 0usize;
        for cfg in &configs {
            starts.push(n);
            n += cfg.n();
        }
        // The flat summary: privacy holds against min t_g colluders
        // (within any one leaf), and a full round needs every leaf's
        // U_g survivors — Σ U_g in total.
        let t_min = configs.iter().map(LsaConfig::t).min().unwrap_or(0);
        let u_sum = configs.iter().map(LsaConfig::u).sum::<usize>().min(n);
        let view = LsaConfig::new(n, t_min, u_sum, d)?.with_ratchet(first.ratchet());
        Ok(Self {
            root,
            configs,
            starts,
            paths,
            wire_offset,
            n,
            d,
            view,
            perm: (0..n).collect(),
            inv: (0..n).collect(),
        })
    }

    /// Partition `n` clients into `groups` near-equal leaf groups
    /// (sizes differ by at most one) under one root — a depth-1 tree —
    /// deriving each leaf's thresholds from the fractions:
    /// `t_g = ⌊n_g·t_frac⌋` colluders tolerated and
    /// `u_g = max(t_g + 1, ⌈n_g·u_frac⌉)` survivors required.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidConfig`] if `groups == 0`, any
    /// group would have fewer than 2 members (`n < 2·groups`), the
    /// fractions are out of range (`0 ≤ t_frac < u_frac ≤ 1`), or a
    /// derived per-group configuration is invalid.
    pub fn uniform(
        n: usize,
        groups: usize,
        t_frac: f64,
        u_frac: f64,
        d: usize,
    ) -> Result<Self, ProtocolError> {
        Self::hierarchical(n, &[groups], t_frac, u_frac, d)
    }

    /// A uniform multi-level tree: `branching[0]` children at the root,
    /// each with `branching[1]` children, and so on; leaves sit at
    /// depth `branching.len()` and split the `n` clients near-equally.
    /// Leaf thresholds derive from the fractions as in
    /// [`GroupTopology::uniform`] (which is `branching = [groups]`).
    ///
    /// `hierarchical(16384, &[64, 16], ..)` is the largest tested
    /// two-level shape: 64 super-groups × 16 leaf groups × 16 clients.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidConfig`] if `branching` is empty
    /// or contains a zero, `n < 2 · Π branching` (a leaf would drop
    /// below 2 members), or the fractions are out of range.
    pub fn hierarchical(
        n: usize,
        branching: &[usize],
        t_frac: f64,
        u_frac: f64,
        d: usize,
    ) -> Result<Self, ProtocolError> {
        if branching.is_empty() || branching.contains(&0) {
            return Err(ProtocolError::InvalidConfig(format!(
                "branching factors must be positive and non-empty (got {branching:?})"
            )));
        }
        let leaf_count: usize = branching.iter().product();
        if n < 2 * leaf_count {
            return Err(ProtocolError::InvalidConfig(format!(
                "{n} clients cannot fill {leaf_count} leaf groups of at least 2"
            )));
        }
        if !(0.0..1.0).contains(&t_frac) || !(0.0..=1.0).contains(&u_frac) || t_frac >= u_frac {
            return Err(ProtocolError::InvalidConfig(format!(
                "need 0 <= t_frac < u_frac <= 1 (got t_frac={t_frac}, u_frac={u_frac})"
            )));
        }
        fn build(
            n: usize,
            branching: &[usize],
            t_frac: f64,
            u_frac: f64,
            d: usize,
        ) -> Result<TopologyNode, ProtocolError> {
            let Some((&fanout, rest)) = branching.split_first() else {
                let t = ((n as f64 * t_frac).floor() as usize).min(n.saturating_sub(2));
                let u = ((n as f64 * u_frac).ceil() as usize).clamp(t + 1, n);
                return Ok(TopologyNode::Leaf(LsaConfig::new(n, t, u, d)?));
            };
            let base = n / fanout;
            let extra = n % fanout;
            let kids = (0..fanout)
                .map(|c| build(base + usize::from(c < extra), rest, t_frac, u_frac, d))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(TopologyNode::Internal(kids))
        }
        Self::from_tree(build(n, branching, t_frac, u_frac, d)?)
    }

    /// The supported two-level shape: `supers` super-groups of
    /// `groups_per_super` leaf groups each — shorthand for
    /// [`GroupTopology::hierarchical`] with `&[supers,
    /// groups_per_super]`.
    ///
    /// # Errors
    ///
    /// As [`GroupTopology::hierarchical`].
    pub fn two_level(
        n: usize,
        supers: usize,
        groups_per_super: usize,
        t_frac: f64,
        u_frac: f64,
        d: usize,
    ) -> Result<Self, ProtocolError> {
        Self::hierarchical(n, &[supers, groups_per_super], t_frac, u_frac, d)
    }

    /// The same tree with every leaf under `policy`.
    #[must_use]
    pub fn with_ratchet(mut self, policy: RatchetPolicy) -> Self {
        fn set(node: &mut TopologyNode, policy: RatchetPolicy) {
            match node {
                TopologyNode::Leaf(cfg) => *cfg = cfg.with_ratchet(policy),
                TopologyNode::Internal(kids) => kids.iter_mut().for_each(|kid| set(kid, policy)),
            }
        }
        set(&mut self.root, policy);
        for cfg in self.configs.iter_mut().chain([&mut self.view]) {
            *cfg = cfg.with_ratchet(policy);
        }
        self
    }

    /// The tree this topology flattens.
    pub fn root(&self) -> &TopologyNode {
        &self.root
    }

    /// Number of leaf groups across the whole tree.
    pub fn num_groups(&self) -> usize {
        self.configs.len()
    }

    /// Total clients `N` across all leaves.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The (shared) model dimension `d`.
    pub(crate) fn d(&self) -> usize {
        self.d
    }

    /// Edge-depth of the tree (0 = flat, 1 = grouped, 2 = two-level).
    pub fn depth(&self) -> usize {
        self.root.depth()
    }

    /// Leaf `g`'s own protocol configuration.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn group_config(&self, g: usize) -> LsaConfig {
        self.configs[g]
    }

    /// All per-leaf configurations, depth-first.
    pub fn configs(&self) -> &[LsaConfig] {
        &self.configs
    }

    /// The **slot** range owned by leaf `g` (equal to the global-id
    /// range while the mapping is the identity; after
    /// [`GroupTopology::reassign`] use [`GroupTopology::members_of`]
    /// for the global ids).
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub(crate) fn group_members(&self, g: usize) -> core::ops::Range<usize> {
        self.starts[g]..self.starts[g] + self.configs[g].n()
    }

    /// The global client ids currently seated in leaf `g`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn members_of(&self, g: usize) -> Vec<usize> {
        let mut ids: Vec<usize> = self.group_members(g).map(|s| self.inv[s]).collect();
        ids.sort_unstable();
        ids
    }

    /// Map a global client id to its current slot.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::UnknownUser`] for an out-of-range id.
    pub(crate) fn slot_of(&self, global: usize) -> Result<usize, ProtocolError> {
        self.perm
            .get(global)
            .copied()
            .ok_or(ProtocolError::UnknownUser(global))
    }

    /// Map a global client id to its current `(leaf, local index)`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::UnknownUser`] for an out-of-range id.
    pub fn locate(&self, global: usize) -> Result<(usize, usize), ProtocolError> {
        let slot = self.slot_of(global)?;
        let g = match self.starts.binary_search(&slot) {
            Ok(exact) => exact,
            Err(insert) => insert - 1,
        };
        Ok((g, slot - self.starts[g]))
    }

    /// Map a `(leaf, local index)` back to the global client id seated
    /// there.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range (a local index out of range yields
    /// an id seated in a later leaf; callers validate against the leaf
    /// config).
    pub fn global_id(&self, g: usize, local: usize) -> usize {
        self.inv[self.starts[g] + local]
    }

    /// The tree-namespaced wire id leaf `g` stamps its envelopes with.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn wire_id(&self, g: usize) -> u32 {
        assert!(g < self.configs.len(), "leaf {g} out of range");
        self.wire_offset + g as u32
    }

    /// Map a wire id back to the leaf index it names.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::UnknownGroup`] for a wire id outside
    /// this (sub)tree's namespace.
    pub fn leaf_of_wire(&self, wire: usize) -> Result<usize, ProtocolError> {
        let lo = self.wire_offset as usize;
        if (lo..lo + self.configs.len()).contains(&wire) {
            Ok(wire - lo)
        } else {
            Err(ProtocolError::UnknownGroup {
                got: wire,
                groups: self.configs.len(),
            })
        }
    }

    /// The root→leaf child-index path of leaf `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn path(&self, g: usize) -> &[usize] {
        &self.paths[g]
    }

    /// The leaf index at a root→leaf path, if the path names a leaf.
    pub fn leaf_at_path(&self, path: &[usize]) -> Option<usize> {
        // paths are depth-first, i.e. lexicographically sorted
        self.paths.binary_search_by(|p| p.as_slice().cmp(path)).ok()
    }

    /// The flat single-[`LsaConfig`] summary of this deployment, used
    /// where an aggregate view is needed (e.g.
    /// [`SecureAggregator::config`]): `N` total clients, privacy
    /// against `min_g t_g` colluders within any one leaf, and
    /// `Σ_g u_g` survivors required in total.
    pub(crate) fn aggregate_view(&self) -> LsaConfig {
        self.view
    }

    /// Re-seat the global↔slot permutation from `seed` (Fisher–Yates
    /// over a dedicated `StdRng`): clients move between leaf groups, so
    /// an intra-group coalition accumulated over past rounds faces
    /// fresh peers. Deterministic in `seed`; the identity of every
    /// client (its global id) is untouched.
    pub fn reassign(&mut self, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..self.n).rev() {
            // modulo bias is irrelevant for shuffling quality here
            let j = (rng.gen::<u64>() % (i as u64 + 1)) as usize;
            self.perm.swap(i, j);
        }
        for (global, &slot) in self.perm.iter().enumerate() {
            self.inv[slot] = global;
        }
    }

    /// One sub-[`GroupTopology`] per child of the root, each carrying
    /// its absolute wire-id range and an identity permutation (only the
    /// root of a tree permutes — children see already-mapped slots). A
    /// leaf root yields a single-leaf clone of itself. This is how a
    /// deployment splits one tree across processes (one subtree each).
    pub fn child_topologies(&self) -> Vec<GroupTopology> {
        match &self.root {
            TopologyNode::Leaf(_) => {
                let mut sub = self.clone();
                sub.perm = (0..sub.n).collect();
                sub.inv = (0..sub.n).collect();
                vec![sub]
            }
            TopologyNode::Internal(kids) => {
                let mut offset = self.wire_offset;
                kids.iter()
                    .map(|kid| {
                        let sub = Self::from_tree_at(kid.clone(), offset)
                            .expect("subtree of a valid tree is valid");
                        offset += sub.configs.len() as u32;
                        sub
                    })
                    .collect()
            }
        }
    }
}

/// Depth-first leaf collection; rejects empty internal nodes.
fn collect_leaves(
    node: &TopologyNode,
    path: &mut Vec<usize>,
    configs: &mut Vec<LsaConfig>,
    paths: &mut Vec<Vec<usize>>,
) -> Result<(), ProtocolError> {
    match node {
        TopologyNode::Leaf(cfg) => {
            configs.push(*cfg);
            paths.push(path.clone());
        }
        TopologyNode::Internal(kids) => {
            if kids.is_empty() {
                return Err(ProtocolError::InvalidConfig(
                    "topology needs at least one group".into(),
                ));
            }
            for (i, kid) in kids.iter().enumerate() {
                path.push(i);
                collect_leaves(kid, path, configs, paths)?;
                path.pop();
            }
        }
    }
    Ok(())
}

/// The aggregator tree's runtime: one root holding one
/// [`BoxedAggregator`] per leaf group, behind the same
/// [`SecureAggregator`] trait as its leaves, so the existing
/// [`crate::federation::Federation`] loop drives it unchanged.
///
/// The [`GroupTopology`] may nest to any depth, but that tree is only
/// a namespace (wire ids, paths, per-leaf configurations): addition in
/// `F_q` ignores grouping, so this one node holds every leaf directly.
/// The driver-facing lifecycle (`open_round → submit* → finish_round`)
/// is identical to the flat [`SyncFederation`]. Every call splits by
/// the global↔slot mapping and delegates to the leaf owning the slot;
/// `finish_round` finishes the participating leaves in depth-first
/// order and folds their aggregates in that order. Each leaf owns its
/// own transport (its own aggregator link, Turbo-Aggregate style), so
/// one stalled leaf never blocks another's decode.
pub struct GroupedFederation<F: Field> {
    topology: GroupTopology,
    /// One recovery domain per leaf group, depth-first.
    leaves: Vec<BoxedAggregator<F>>,
    next_round: u64,
    open: Option<OpenRound>,
    /// Leaf indices opened for the current round, ascending.
    participating: Vec<usize>,
    /// Rounds whose offline exchange already ran, with their cohorts.
    prepared: BTreeMap<u64, BTreeSet<usize>>,
    /// When set, a leaf that cannot decode is skipped and its
    /// submitted updates re-queued into the next round.
    partial_recovery: bool,
    /// Leaf wire ids skipped by the last `finish_round` in partial mode.
    stalled: Vec<usize>,
    /// This round's effective submissions (partial mode only):
    /// global id → (update incl. merged carryover, weight).
    round_updates: BTreeMap<usize, (Vec<F>, u64)>,
    /// Updates from stalled leaves awaiting re-submission:
    /// global id → (buffered update, weight). Merged into the owner's
    /// next submission, exactly once.
    carryover: BTreeMap<usize, (Vec<F>, u64)>,
    /// Carryover consumed by this round's submissions, retained until
    /// the round resolves: global id → (carried update, carried
    /// weight). On success the weight folds into `total_weight`; on
    /// [`SecureAggregator::abort_round`] the entry is restored to
    /// `carryover`, so a cancelled round never destroys a deferred
    /// update that still owes its exactly-once landing.
    merged: BTreeMap<usize, (Vec<F>, u64)>,
    /// Telemetry of the most recent finished round: the
    /// [`RoundReport::merge`] of the participating leaves' reports
    /// (the root's critical path) plus this node's own requeue events.
    last_report: Option<RoundReport>,
}

impl<F: Field> GroupedFederation<F> {
    /// Build one [`SyncFederation`] leaf per leaf group of `topology`,
    /// depth-first, each over its own clone of `transport` (its own
    /// aggregator link) and stamped with its tree-namespaced wire id;
    /// all entropy for the whole run derives from `seed`.
    ///
    /// # Errors
    ///
    /// Propagates invalid configuration.
    pub fn new<T>(topology: GroupTopology, transport: T, seed: u64) -> Result<Self, ProtocolError>
    where
        T: Transport<F> + Clone + 'static,
    {
        let mut master = StdRng::seed_from_u64(seed);
        let leaves = (0..topology.num_groups())
            .map(|g| -> Result<BoxedAggregator<F>, ProtocolError> {
                Ok(Box::new(SyncFederation::in_group(
                    topology.wire_id(g) as usize,
                    topology.group_config(g),
                    transport.clone(),
                    master.gen(),
                )?))
            })
            .collect::<Result<_, _>>()?;
        Ok(Self::with_leaves(topology, leaves))
    }

    /// Compose pre-built leaf aggregators directly: leaf `i` serves the
    /// next `leaves[i].config().n()` global ids and is reported as wire
    /// id `i`. Each child must be a leaf recovery domain (a
    /// [`SyncFederation`] or [`crate::federation::BufferedFederation`]):
    /// a `GroupedFederation` child with partial recovery on would buffer
    /// its stalled updates itself while this node re-queues them too, so
    /// they would land twice. Wire-id namespacing across hand-built
    /// leaves is the caller's responsibility — prefer
    /// [`GroupedFederation::new`] with a [`GroupTopology`], which
    /// allocates the namespace for the whole tree.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidConfig`] if no leaves are given
    /// or they disagree on the model dimension.
    pub fn from_children(leaves: Vec<BoxedAggregator<F>>) -> Result<Self, ProtocolError> {
        let topology = GroupTopology::from_configs(leaves.iter().map(|c| c.config()).collect())?;
        Ok(Self::with_leaves(topology, leaves))
    }

    /// The one constructor: `leaves[g]` serves `topology`'s leaf `g`.
    fn with_leaves(topology: GroupTopology, leaves: Vec<BoxedAggregator<F>>) -> Self {
        Self {
            topology,
            leaves,
            next_round: 0,
            open: None,
            participating: Vec::new(),
            prepared: BTreeMap::new(),
            partial_recovery: false,
            stalled: Vec::new(),
            round_updates: BTreeMap::new(),
            carryover: BTreeMap::new(),
            merged: BTreeMap::new(),
            last_report: None,
        }
    }

    /// Skip leaves that cannot decode (because dropouts exceeded
    /// *their* budget) instead of failing the round: the surviving
    /// leaves' sum is still emitted, the stalled leaves' submitted
    /// updates are **re-queued** by global id into the next round (each
    /// lands in a later aggregate exactly once), and
    /// [`SecureAggregator::stalled_leaves`] reports who was left out.
    /// Off by default — deferring a whole leaf's updates silently is a
    /// policy decision, not a default.
    #[must_use]
    pub fn with_partial_recovery(mut self) -> Self {
        self.partial_recovery = true;
        self
    }

    /// Updates currently buffered for re-queue (global ids, ascending).
    #[cfg(test)]
    pub(crate) fn requeued_clients(&self) -> Vec<usize> {
        self.carryover.keys().copied().collect()
    }

    /// Split a global cohort into per-leaf local cohorts (leaf-local
    /// ids, ascending), indexed by leaf.
    fn split_cohort(&self, cohort: &BTreeSet<usize>) -> Result<Vec<Vec<usize>>, ProtocolError> {
        let mut per_leaf = vec![Vec::new(); self.leaves.len()];
        for &id in cohort {
            let (leaf, local) = self.topology.locate(id)?;
            per_leaf[leaf].push(local);
        }
        for local in &mut per_leaf {
            local.sort_unstable();
        }
        Ok(per_leaf)
    }

    /// Validate a global cohort: unique in-range ids, and every leaf
    /// with members present must field at least its own `U_g` (a leaf
    /// below threshold could never decode). Returns the cohort set and
    /// the participating leaf indices, ascending.
    fn validate_cohort(
        &self,
        cohort: &[usize],
    ) -> Result<(BTreeSet<usize>, Vec<usize>), ProtocolError> {
        let set: BTreeSet<usize> = cohort.iter().copied().collect();
        if set.len() != cohort.len() {
            return Err(ProtocolError::InvalidConfig(
                "cohort contains duplicate ids".into(),
            ));
        }
        let mut leaf_present = vec![0usize; self.topology.num_groups()];
        for &id in &set {
            let (leaf, _) = self.topology.locate(id)?;
            leaf_present[leaf] += 1;
        }
        let mut participating = Vec::new();
        for (leaf, &present) in leaf_present.iter().enumerate() {
            if present == 0 {
                continue;
            }
            let need = self.topology.group_config(leaf).u();
            if present < need {
                return Err(ProtocolError::NotEnoughSurvivors { got: present, need });
            }
            participating.push(leaf);
        }
        if participating.is_empty() {
            return Err(ProtocolError::NotEnoughSurvivors {
                got: 0,
                need: self.topology.aggregate_view().u(),
            });
        }
        Ok((set, participating))
    }
}

impl<F: Field> core::fmt::Debug for GroupedFederation<F> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("GroupedFederation")
            .field("leaves", &self.leaves.len())
            .field("n", &self.topology.n())
            .field("next_round", &self.next_round)
            .finish_non_exhaustive()
    }
}

impl<F: Field> SecureAggregator<F> for GroupedFederation<F> {
    fn config(&self) -> LsaConfig {
        self.topology.aggregate_view()
    }

    fn round(&self) -> u64 {
        self.open.as_ref().map_or(self.next_round, |o| o.round)
    }

    fn open_round(&mut self, cohort: &[usize]) -> Result<u64, ProtocolError> {
        if self.open.is_some() {
            return Err(ProtocolError::WrongPhase);
        }
        let (cohort, participating) = self.validate_cohort(cohort)?;
        let round = self.next_round;
        // The root's prepared-round bookkeeping mirrors the leaves': a
        // cohort mismatch errors here, before any leaf is touched,
        // leaving every preparation intact for a retry.
        let _ = claim_prepared(&mut self.prepared, round, &cohort)?;
        let per_leaf = self.split_cohort(&cohort)?;
        let mut opened: Vec<usize> = Vec::with_capacity(participating.len());
        for &g in &participating {
            match self.leaves[g].open_round(&per_leaf[g]) {
                Ok(_) => opened.push(g),
                Err(e) => {
                    // leave no leaf half-open behind a failed open
                    for &o in &opened {
                        self.leaves[o].abort_round();
                    }
                    return Err(e);
                }
            }
        }
        self.next_round = round + 1;
        self.participating = participating;
        self.open = Some(OpenRound::new(round, cohort));
        Ok(round)
    }

    fn prepare_next(&mut self, cohort: &[usize]) -> Result<(), ProtocolError> {
        let round = self.next_round;
        ensure_unprepared(&self.prepared, round)?;
        let (cohort, participating) = self.validate_cohort(cohort)?;
        let per_leaf = self.split_cohort(&cohort)?;
        for &g in &participating {
            self.leaves[g].prepare_next(&per_leaf[g])?;
        }
        self.prepared.insert(round, cohort);
        Ok(())
    }

    fn submit(&mut self, id: usize, update: &[F]) -> Result<(), ProtocolError> {
        let open = self.open.as_ref().ok_or(ProtocolError::WrongPhase)?;
        open.require_member(id)?;
        if open.submitted.contains(&id) {
            return Err(ProtocolError::DuplicateMessage(id));
        }
        if update.len() != self.topology.d() {
            return Err(ProtocolError::InvalidConfig(format!(
                "update length {} != model dimension {}",
                update.len(),
                self.topology.d()
            )));
        }
        let (g, local) = self.topology.locate(id)?;
        if let Some((carried, w)) = self.carryover.get(&id) {
            // Merge the re-queued update from a previously stalled leaf
            // into this submission — through the same mask, so the
            // server still only ever sees the (deferred + fresh) sum.
            let weight = w + 1;
            let mut effective = carried.clone();
            lsa_field::ops::add_assign(&mut effective, update);
            self.leaves[g].submit(local, &effective)?;
            // the carryover is consumed only once the leaf accepted it
            // — and retained in `merged` until the round resolves, so
            // an aborted round can hand it back
            let entry = self.carryover.remove(&id).expect("carryover was just read");
            self.merged.insert(id, entry);
            if self.partial_recovery {
                self.round_updates.insert(id, (effective, weight));
            }
        } else {
            // nothing to merge: the update passes through unboxed (no
            // copy on the hot path)
            self.leaves[g].submit(local, update)?;
            if self.partial_recovery {
                self.round_updates.insert(id, (update.to_vec(), 1));
            }
        }
        self.open
            .as_mut()
            .expect("round is open")
            .submitted
            .insert(id);
        Ok(())
    }

    fn mark_dropped(&mut self, id: usize) -> Result<(), ProtocolError> {
        let open = self.open.as_mut().ok_or(ProtocolError::WrongPhase)?;
        open.mark_dropped(id)?;
        let (g, local) = self.topology.locate(id)?;
        self.leaves[g].mark_dropped(local)
    }

    fn finish_round(&mut self) -> Result<RoundOutcome<F>, ProtocolError> {
        let open = self.open.clone().ok_or(ProtocolError::WrongPhase)?;

        // Finish every participating leaf (upload delivery, survivor
        // announcement, recovery, one-shot decode) before folding any:
        // the leaves share no state.
        let results: Vec<(usize, Result<RoundOutcome<F>, ProtocolError>)> = self
            .participating
            .iter()
            .map(|&g| (g, self.leaves[g].finish_round()))
            .collect();

        // Fold in leaf order.
        let mut aggregate = vec![F::ZERO; self.topology.d()];
        let mut contributors: Vec<usize> = Vec::new();
        let mut total_weight = 0u64;
        let mut stalled: Vec<usize> = Vec::new();
        let mut first_error = None;
        let mut requeued = 0usize;
        let mut leaf_reports: Vec<RoundReport> = Vec::new();
        for (g, outcome) in results {
            match outcome {
                Ok(out) => {
                    lsa_field::ops::add_assign(&mut aggregate, &out.aggregate);
                    contributors.extend(
                        out.contributors
                            .iter()
                            .map(|&local| self.topology.global_id(g, local)),
                    );
                    total_weight += out.total_weight;
                    // the leaf's finish_round just succeeded, so its
                    // report is fresh (its local round number may lag
                    // the root's when it skipped empty-cohort rounds)
                    leaf_reports.extend(self.leaves[g].round_report());
                }
                Err(e) => {
                    if !self.partial_recovery {
                        return Err(e);
                    }
                    first_error.get_or_insert(e);
                    // retire the stalled leaf's round so the next one
                    // can open, and re-queue what it had been submitted
                    self.leaves[g].abort_round();
                    stalled.push(self.topology.wire_id(g) as usize);
                    let seats = self.topology.group_members(g);
                    let requeue: Vec<usize> = self
                        .round_updates
                        .keys()
                        .copied()
                        .filter(|&id| {
                            self.topology
                                .slot_of(id)
                                .is_ok_and(|slot| seats.contains(&slot))
                        })
                        .collect();
                    for id in requeue {
                        let entry = self.round_updates.remove(&id).expect("key just listed");
                        self.carryover.insert(id, entry);
                        requeued += 1;
                    }
                }
            }
        }

        // Carryover merged into a leaf that then stalled went back to
        // the buffer above (inside the effective update); carryover
        // merged into a surviving leaf is consumed now and adds its
        // weight.
        for (&id, (_, extra)) in &self.merged {
            if !self.carryover.contains_key(&id) {
                total_weight += extra;
            }
        }

        // Root telemetry: merge the succeeded leaves' reports into the
        // root's critical path, and fold in this node's own requeue
        // events. Dropout/ratchet events live in the leaf reports and
        // sum through the merge. The report is cut even when every
        // leaf stalled — the all-requeued round is exactly the one an
        // operator wants telemetry for.
        let mut report = RoundReport::merge(open.round, &leaf_reports);
        report.events.requeues += requeued;
        self.last_report = Some(report);

        self.merged.clear();
        self.round_updates.clear();
        self.stalled = stalled;
        self.open = None;
        self.participating = Vec::new();
        if contributors.is_empty() {
            // every leaf stalled: the round is retired (its updates are
            // all re-queued), and the caller learns why
            return Err(first_error.unwrap_or(ProtocolError::NotEnoughSurvivors {
                got: 0,
                need: self.topology.aggregate_view().u(),
            }));
        }
        contributors.sort_unstable();
        Ok(RoundOutcome {
            round: open.round,
            aggregate,
            total_weight,
            contributors,
        })
    }

    fn abort_round(&mut self) {
        if self.open.take().is_some() {
            for &g in &self.participating {
                self.leaves[g].abort_round();
            }
            self.participating = Vec::new();
            // an externally cancelled round drops its *fresh*
            // submissions, but any carryover they had consumed is
            // restored — the deferred update still owes its
            // exactly-once landing in a later aggregate
            for (id, entry) in std::mem::take(&mut self.merged) {
                self.carryover.insert(id, entry);
            }
            self.round_updates.clear();
        }
    }

    fn reassign(&mut self, seed: u64) -> Result<(), ProtocolError> {
        if self.open.is_some() {
            return Err(ProtocolError::WrongPhase);
        }
        if !self.prepared.is_empty() {
            return Err(ProtocolError::InvalidConfig(
                "cannot reassign the group mapping while a prepared round is pending".into(),
            ));
        }
        // re-queued updates are keyed by global id and follow their
        // client to its new leaf
        self.topology.reassign(seed);
        // a leaf sees only local seat indices, which look identical
        // across a reassignment even though different clients now sit in
        // them — freshen the pad-seed epoch under the retained bases so
        // the ratchet stretches across the permute instead of re-keying
        self.reseat_ratchet(seed);
        Ok(())
    }

    fn clear_ratchet(&mut self) {
        for leaf in &mut self.leaves {
            leaf.clear_ratchet();
        }
    }

    fn reseat_ratchet(&mut self, seed: u64) {
        for leaf in &mut self.leaves {
            leaf.reseat_ratchet(seed);
        }
    }

    fn cohort_fingerprint(&self, cohort: &[usize]) -> Option<CohortFingerprint> {
        let mut members = Vec::with_capacity(cohort.len());
        for &id in cohort {
            let slot = self.topology.slot_of(id).ok()?;
            let (leaf, _) = self.topology.locate(id).ok()?;
            members.push((
                self.topology.wire_id(leaf) as usize,
                self.topology.group_config(leaf),
                id,
                slot,
            ));
        }
        Some(CohortFingerprint::of_members(members))
    }

    fn stalled_leaves(&self) -> Vec<usize> {
        self.stalled.clone()
    }

    fn bytes_sent(&self) -> usize {
        self.leaves.iter().map(|leaf| leaf.bytes_sent()).sum()
    }

    fn round_report(&self) -> Option<RoundReport> {
        self.last_report.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::FederationClient;
    use crate::federation::{Federation, RoundPlan};
    use crate::ratchet::policies;
    use crate::session::Session;
    use crate::transport::MemTransport;
    use crate::wire::{CodedMaskShare, Envelope};
    use lsa_field::Fp61;

    fn topo_2x4(d: usize) -> GroupTopology {
        // two groups of 4: t=1, u=3 each
        GroupTopology::uniform(8, 2, 0.25, 0.75, d).unwrap()
    }

    fn updates(ids: &[usize], d: usize) -> Vec<(usize, Vec<Fp61>)> {
        ids.iter()
            .map(|&i| (i, vec![Fp61::from_u64(i as u64 + 1); d]))
            .collect()
    }

    fn expected(ids: &[usize], d: usize) -> Vec<Fp61> {
        let total: u64 = ids.iter().map(|&i| i as u64 + 1).sum();
        vec![Fp61::from_u64(total); d]
    }

    #[test]
    fn uniform_topology_partitions_contiguously() {
        let topo = GroupTopology::uniform(10, 3, 0.25, 0.8, 5).unwrap();
        assert_eq!(topo.num_groups(), 3);
        assert_eq!(topo.n(), 10);
        assert_eq!(topo.depth(), 1);
        // 10 = 4 + 3 + 3
        assert_eq!(topo.group_members(0), 0..4);
        assert_eq!(topo.group_members(1), 4..7);
        assert_eq!(topo.group_members(2), 7..10);
        for global in 0..10 {
            let (g, local) = topo.locate(global).unwrap();
            assert!(topo.group_members(g).contains(&global));
            assert_eq!(topo.global_id(g, local), global);
        }
        assert!(matches!(
            topo.locate(10),
            Err(ProtocolError::UnknownUser(10))
        ));
    }

    #[test]
    fn invalid_topologies_rejected() {
        assert!(GroupTopology::uniform(8, 0, 0.2, 0.8, 4).is_err()); // no groups
        assert!(GroupTopology::uniform(5, 3, 0.2, 0.8, 4).is_err()); // group of 1
        assert!(GroupTopology::uniform(8, 2, 0.8, 0.5, 4).is_err()); // t >= u
                                                                     // mixed dimensions
        let a = LsaConfig::new(4, 1, 3, 6).unwrap();
        let b = LsaConfig::new(4, 1, 3, 7).unwrap();
        assert!(GroupTopology::from_configs(vec![a, b]).is_err());
        assert!(GroupTopology::from_configs(Vec::new()).is_err());
        // empty internal node anywhere in the tree
        assert!(GroupTopology::from_tree(TopologyNode::Internal(vec![
            TopologyNode::Leaf(a),
            TopologyNode::Internal(Vec::new()),
        ]))
        .is_err());
        // zero branching factor
        assert!(GroupTopology::hierarchical(16, &[2, 0], 0.25, 0.75, 4).is_err());
    }

    #[test]
    fn hierarchical_tree_namespace_is_dense_depth_first() {
        // 2 super-groups x 2 leaf groups x 4 clients
        let topo = GroupTopology::hierarchical(16, &[2, 2], 0.25, 0.75, 3).unwrap();
        assert_eq!(topo.depth(), 2);
        assert_eq!(topo.num_groups(), 4);
        for g in 0..4 {
            assert_eq!(topo.wire_id(g) as usize, g);
            assert_eq!(topo.leaf_of_wire(g).unwrap(), g);
            assert_eq!(topo.leaf_at_path(topo.path(g)), Some(g));
        }
        assert_eq!(topo.path(0), &[0, 0]);
        assert_eq!(topo.path(1), &[0, 1]);
        assert_eq!(topo.path(2), &[1, 0]);
        assert_eq!(topo.path(3), &[1, 1]);
        assert_eq!(topo.leaf_at_path(&[0]), None);
        assert!(matches!(
            topo.leaf_of_wire(4),
            Err(ProtocolError::UnknownGroup { got: 4, groups: 4 })
        ));
    }

    #[test]
    fn grouped_rounds_match_flat_aggregate() {
        for policy in policies() {
            let d = 4;
            let grouped =
                GroupedFederation::new(topo_2x4(d).with_ratchet(policy), MemTransport::new(), 1)
                    .unwrap();
            let mut fed: Federation<Fp61> = Federation::new(Box::new(grouped));
            let all: Vec<usize> = (0..8).collect();
            for round in 0..3u64 {
                let mut plan = RoundPlan::new(all.clone());
                plan.updates = updates(&all, d);
                let out = fed.run_round(&plan).unwrap();
                assert_eq!(out.round, round);
                assert_eq!(out.aggregate, expected(&all, d));
                assert_eq!(out.contributors, all);
                assert_eq!(out.total_weight, 8);
            }
        }
    }

    #[test]
    fn two_level_hierarchy_matches_flat_and_depth_one() {
        let d = 5;
        let all: Vec<usize> = (0..16).collect();
        let mut plan = RoundPlan::new(all.clone());
        plan.updates = updates(&all, d);

        let flat_cfg = LsaConfig::new(16, 4, 12, d).unwrap();
        let flat = SyncFederation::new(flat_cfg, MemTransport::new(), 3).unwrap();
        let mut flat_fed: Federation<Fp61> = Federation::new(Box::new(flat));
        let flat_out = flat_fed.run_round(&plan).unwrap();

        let depth1 = GroupedFederation::new(
            GroupTopology::uniform(16, 4, 0.25, 0.75, d).unwrap(),
            MemTransport::new(),
            4,
        )
        .unwrap();
        let mut depth1_fed: Federation<Fp61> = Federation::new(Box::new(depth1));
        let depth1_out = depth1_fed.run_round(&plan).unwrap();

        let two_level = GroupedFederation::new(
            GroupTopology::two_level(16, 2, 2, 0.25, 0.75, d).unwrap(),
            MemTransport::new(),
            5,
        )
        .unwrap();
        let mut two_fed: Federation<Fp61> = Federation::new(Box::new(two_level));
        let two_out = two_fed.run_round(&plan).unwrap();

        assert_eq!(flat_out.aggregate, depth1_out.aggregate);
        assert_eq!(flat_out.aggregate, two_out.aggregate);
        assert_eq!(two_out.contributors, all);
        assert_eq!(two_out.total_weight, 16);
    }

    #[test]
    fn per_group_dropout_budgets_are_independent() {
        // each group of 4 (u=3) tolerates one missing upload; one
        // missing member per group must not starve the other group
        let d = 3;
        let grouped = GroupedFederation::new(topo_2x4(d), MemTransport::new(), 5).unwrap();
        let mut fed: Federation<Fp61> = Federation::new(Box::new(grouped));
        let cohort: Vec<usize> = (0..8).collect();
        let present: Vec<usize> = vec![0, 1, 2, 4, 5, 7]; // 3 & 6 never upload
        let mut plan = RoundPlan::new(cohort);
        plan.updates = updates(&present, d);
        let out = fed.run_round(&plan).unwrap();
        assert_eq!(out.contributors, present);
        assert_eq!(out.aggregate, expected(&present, d));
    }

    #[test]
    fn after_upload_drops_within_group_budget_recover() {
        let d = 3;
        let grouped = GroupedFederation::new(topo_2x4(d), MemTransport::new(), 6).unwrap();
        let mut fed: Federation<Fp61> = Federation::new(Box::new(grouped));
        let all: Vec<usize> = (0..8).collect();
        let mut plan = RoundPlan::new(all.clone());
        plan.updates = updates(&all, d);
        plan.drop_after_upload = vec![1, 6]; // one per group — within budget
        let out = fed.run_round(&plan).unwrap();
        // uploaded-then-vanished clients stay in the aggregate
        assert_eq!(out.aggregate, expected(&all, d));
    }

    #[test]
    fn stalled_group_fails_strict_but_requeues_partial() {
        for policy in policies() {
            let d = 3;
            let all: Vec<usize> = (0..8).collect();
            // group 1 loses 2 of 4 after upload: only 2 < u=3 recovery
            // helpers remain, so its decode stalls
            let mut plan = RoundPlan::new(all.clone());
            plan.updates = updates(&all, d);
            plan.drop_after_upload = vec![5, 6];

            let strict =
                GroupedFederation::new(topo_2x4(d).with_ratchet(policy), MemTransport::new(), 7)
                    .unwrap();
            let mut fed: Federation<Fp61> = Federation::new(Box::new(strict));
            assert!(matches!(
                fed.run_round(&plan),
                Err(ProtocolError::NotEnoughSurvivors { .. })
            ));

            let partial =
                GroupedFederation::new(topo_2x4(d).with_ratchet(policy), MemTransport::new(), 7)
                    .unwrap()
                    .with_partial_recovery();
            let mut fed: Federation<Fp61> = Federation::new(Box::new(partial));
            let out = fed.run_round(&plan).unwrap();
            // group 0 (clients 0..4) decoded alone — group 1 is deferred
            assert_eq!(out.contributors, vec![0, 1, 2, 3]);
            assert_eq!(out.aggregate, expected(&[0, 1, 2, 3], d));
            assert_eq!(out.total_weight, 4);
            assert_eq!(fed.aggregator().stalled_leaves(), vec![1]);
            // round 1: group 1's round-0 updates ride along, exactly once
            let mut next = RoundPlan::new(all.clone());
            next.updates = updates(&all, d);
            let out = fed.run_round(&next).unwrap();
            assert_eq!(out.round, 1);
            let mut want = expected(&all, d);
            lsa_field::ops::add_assign(&mut want, &expected(&[4, 5, 6, 7], d));
            assert_eq!(out.aggregate, want);
            assert_eq!(out.total_weight, 8 + 4);
            assert!(fed.aggregator().stalled_leaves().is_empty());
            // round 2: nothing re-queued is left over
            let mut last = RoundPlan::new(all.clone());
            last.updates = updates(&all, d);
            let out = fed.run_round(&last).unwrap();
            assert_eq!(out.aggregate, expected(&all, d));
            assert_eq!(out.total_weight, 8);
        }
    }

    #[test]
    fn nested_stall_requeues_at_the_owning_subtree() {
        for policy in policies() {
            // two-level: 2 super-groups x 2 leaf groups x 4 clients, t=1,u=3
            let d = 3;
            let all: Vec<usize> = (0..16).collect();
            let topo = GroupTopology::two_level(16, 2, 2, 0.25, 0.75, d)
                .unwrap()
                .with_ratchet(policy);
            let grouped = GroupedFederation::new(topo, MemTransport::new(), 11)
                .unwrap()
                .with_partial_recovery();
            let mut fed: Federation<Fp61> = Federation::new(Box::new(grouped));
            // leaf 0 (clients 0..4) loses 2 after upload and stalls; its
            // sibling leaf 1 and the whole second super-group keep decoding
            let mut plan = RoundPlan::new(all.clone());
            plan.updates = updates(&all, d);
            plan.drop_after_upload = vec![0, 1];
            let out = fed.run_round(&plan).unwrap();
            assert_eq!(out.contributors, (4..16).collect::<Vec<_>>());
            assert_eq!(out.aggregate, expected(&(4..16).collect::<Vec<_>>(), d));
            assert_eq!(fed.aggregator().stalled_leaves(), vec![0]);
            // next round: leaf 0's deferred updates land exactly once
            let mut next = RoundPlan::new(all.clone());
            next.updates = updates(&all, d);
            let out = fed.run_round(&next).unwrap();
            let mut want = expected(&all, d);
            lsa_field::ops::add_assign(&mut want, &expected(&[0, 1, 2, 3], d));
            assert_eq!(out.aggregate, want);
            assert_eq!(out.total_weight, 16 + 4);
            // and exactly once means gone afterwards
            let mut last = RoundPlan::new(all.clone());
            last.updates = updates(&all, d);
            let out = fed.run_round(&last).unwrap();
            assert_eq!(out.aggregate, expected(&all, d));
            assert_eq!(out.total_weight, 16);
        }
    }

    #[test]
    fn aborted_round_restores_merged_carryover() {
        for policy in policies() {
            // carryover consumed by a round that is then cancelled must go
            // back to the buffer: the deferred update still lands exactly
            // once in the next completed round
            let d = 3;
            let all: Vec<usize> = (0..8).collect();
            let mut grouped = GroupedFederation::<Fp61>::new(
                topo_2x4(d).with_ratchet(policy),
                MemTransport::new(),
                16,
            )
            .unwrap()
            .with_partial_recovery();
            // round 0: group 1 stalls, its updates are buffered
            grouped.open_round(&all).unwrap();
            for (id, u) in updates(&all, d) {
                grouped.submit(id, &u).unwrap();
            }
            for id in [5, 6] {
                grouped.mark_dropped(id).unwrap();
            }
            grouped.finish_round().unwrap();
            assert_eq!(grouped.requeued_clients(), vec![4, 5, 6, 7]);
            // round 1: submissions merge the carryover — then the round is
            // cancelled
            grouped.open_round(&all).unwrap();
            for (id, u) in updates(&all, d) {
                grouped.submit(id, &u).unwrap();
            }
            assert!(grouped.requeued_clients().is_empty());
            grouped.abort_round();
            assert_eq!(
                grouped.requeued_clients(),
                vec![4, 5, 6, 7],
                "abort must hand consumed carryover back"
            );
            // round 2 completes: deferred updates land exactly once
            grouped.open_round(&all).unwrap();
            for (id, u) in updates(&all, d) {
                grouped.submit(id, &u).unwrap();
            }
            let out = grouped.finish_round().unwrap();
            let mut want = expected(&all, d);
            lsa_field::ops::add_assign(&mut want, &expected(&[4, 5, 6, 7], d));
            assert_eq!(out.aggregate, want);
            assert_eq!(out.total_weight, 8 + 4);
            assert!(grouped.requeued_clients().is_empty());
        }
    }

    #[test]
    fn carried_weight_survives_failure_of_a_self_requeuing_child() {
        for policy in policies() {
            // Mixed tree: root = [Leaf(4), Internal[Leaf(4)]], held as
            // two leaves. Round 0 stalls leaf 0 (the root buffers its
            // updates by global id); a reassignment then moves some of
            // those clients into the nested leaf; round 1 merges their
            // carryover there and that leaf stalls too, so the root
            // re-buffers the merged values *with* their carried weights.
            // By round 2 everything has landed: across the three rounds
            // both total value and total weight are conserved — 24
            // unit-weight submissions in, 24 weight out.
            let d = 3;
            let cfg = LsaConfig::new(4, 1, 3, d).unwrap().with_ratchet(policy);
            let topo = GroupTopology::from_tree(TopologyNode::Internal(vec![
                TopologyNode::Leaf(cfg),
                TopologyNode::Internal(vec![TopologyNode::Leaf(cfg)]),
            ]))
            .unwrap();
            // a seed that provably moves one of round 0's buffered clients
            // (ids 0..4) into the nested leaf's slot range (4..8)
            let seed = (0..100u64)
                .find(|&s| {
                    let mut t = topo.clone();
                    t.reassign(s);
                    (0..4).any(|id| t.slot_of(id).unwrap() >= 4)
                })
                .expect("some seed moves a buffered client");
            let all: Vec<usize> = (0..8).collect();
            let mut grouped = GroupedFederation::<Fp61>::new(topo, MemTransport::new(), 18)
                .unwrap()
                .with_partial_recovery();
            let mut total_value = vec![Fp61::ZERO; d];
            let mut total_weight = 0u64;
            // round 0: the direct leaf (clients 0..4) stalls
            grouped.open_round(&all).unwrap();
            for (id, u) in updates(&all, d) {
                grouped.submit(id, &u).unwrap();
            }
            for id in [0, 1] {
                grouped.mark_dropped(id).unwrap();
            }
            let out = grouped.finish_round().unwrap();
            lsa_field::ops::add_assign(&mut total_value, &out.aggregate);
            total_weight += out.total_weight;
            assert_eq!(grouped.requeued_clients(), vec![0, 1, 2, 3]);
            // between rounds: re-seat the mapping (root-level carryover is
            // keyed by identity, so this is allowed)
            grouped.reassign(seed).unwrap();
            // round 1: the nested leaf stalls after merging the
            // moved clients' carryover
            let nested_members = grouped.topology.members_of(1);
            grouped.open_round(&all).unwrap();
            for (id, u) in updates(&all, d) {
                grouped.submit(id, &u).unwrap();
            }
            for &id in &nested_members[..2] {
                grouped.mark_dropped(id).unwrap();
            }
            let out = grouped.finish_round().unwrap();
            lsa_field::ops::add_assign(&mut total_value, &out.aggregate);
            total_weight += out.total_weight;
            // round 2: everything lands
            grouped.open_round(&all).unwrap();
            for (id, u) in updates(&all, d) {
                grouped.submit(id, &u).unwrap();
            }
            let out = grouped.finish_round().unwrap();
            lsa_field::ops::add_assign(&mut total_value, &out.aggregate);
            total_weight += out.total_weight;
            assert!(grouped.requeued_clients().is_empty());
            // conservation: 3 full submission waves, nothing lost, nothing
            // double-counted — in value or in weight
            let want: Vec<Fp61> = expected(&all, d)
                .into_iter()
                .map(|x| x * Fp61::from_u64(3))
                .collect();
            assert_eq!(total_value, want, "every update lands exactly once");
            assert_eq!(total_weight, 24, "every unit weight lands exactly once");
        }
    }

    #[test]
    fn reassignment_with_requeued_updates_lands_them_exactly_once() {
        for policy in policies() {
            // re-queued updates are keyed by global id, so re-seating the
            // mapping while they wait moves them with their clients: the
            // deferred updates still land exactly once
            let d = 3;
            let all: Vec<usize> = (0..16).collect();
            let topo = GroupTopology::two_level(16, 2, 2, 0.25, 0.75, d)
                .unwrap()
                .with_ratchet(policy);
            let mut grouped = GroupedFederation::<Fp61>::new(topo, MemTransport::new(), 17)
                .unwrap()
                .with_partial_recovery();
            grouped.open_round(&all).unwrap();
            for (id, u) in updates(&all, d) {
                grouped.submit(id, &u).unwrap();
            }
            for id in [0, 1] {
                grouped.mark_dropped(id).unwrap(); // leaf 0 stalls
            }
            grouped.finish_round().unwrap();
            assert_eq!(grouped.stalled_leaves(), vec![0]);
            assert!(!grouped.requeued_clients().is_empty());
            grouped.reassign(5).unwrap();
            grouped.open_round(&all).unwrap();
            for (id, u) in updates(&all, d) {
                grouped.submit(id, &u).unwrap();
            }
            let out = grouped.finish_round().unwrap();
            let mut want = expected(&all, d);
            lsa_field::ops::add_assign(&mut want, &expected(&[0, 1, 2, 3], d));
            assert_eq!(out.aggregate, want);
            assert_eq!(out.total_weight, 16 + 4);
            assert!(grouped.requeued_clients().is_empty());
        }
    }

    #[test]
    fn group_sitting_out_does_not_block_round() {
        // only group 0's members in the cohort: group 1 sits out
        let d = 3;
        let grouped = GroupedFederation::new(topo_2x4(d), MemTransport::new(), 8).unwrap();
        let mut fed: Federation<Fp61> = Federation::new(Box::new(grouped));
        let cohort: Vec<usize> = vec![0, 1, 2, 3];
        let mut plan = RoundPlan::new(cohort.clone());
        plan.updates = updates(&cohort, d);
        let out = fed.run_round(&plan).unwrap();
        assert_eq!(out.contributors, cohort);
    }

    #[test]
    fn undersized_group_cohort_rejected() {
        let d = 3;
        let grouped = GroupedFederation::<Fp61>::new(topo_2x4(d), MemTransport::new(), 9).unwrap();
        let mut fed = Federation::new(Box::new(grouped));
        // group 1 fields only 2 members < u=3
        let err = fed
            .run_round(&RoundPlan::new(vec![0, 1, 2, 3, 4, 5]))
            .unwrap_err();
        assert!(matches!(
            err,
            ProtocolError::NotEnoughSurvivors { got: 2, need: 3 }
        ));
    }

    #[test]
    fn overlapped_preparation_reused_by_next_round() {
        for policy in policies() {
            let d = 4;
            let grouped =
                GroupedFederation::new(topo_2x4(d).with_ratchet(policy), MemTransport::new(), 10)
                    .unwrap();
            let mut fed: Federation<Fp61> = Federation::new(Box::new(grouped));
            let all: Vec<usize> = (0..8).collect();
            let mut p0 = RoundPlan::new(all.clone()).with_prepare_next(all.clone());
            p0.updates = updates(&all, d);
            let out0 = fed.run_round(&p0).unwrap();
            let mut p1 = RoundPlan::new(all.clone());
            p1.updates = updates(&all, d);
            let out1 = fed.run_round(&p1).unwrap();
            assert_eq!(out0.aggregate, out1.aggregate);
            assert_eq!(out1.round, 1);
        }
    }

    #[test]
    fn cross_group_mask_share_rejected_with_typed_error() {
        // a share stamped for group 1 delivered to a group-0 client must
        // surface as WrongGroup — never as a routable same-round share
        let cfg = LsaConfig::new(4, 1, 3, 6).unwrap();
        let mut client =
            FederationClient::<Fp61>::in_group(0, 1, cfg, rand::SeedableRng::seed_from_u64(11))
                .unwrap();
        client.prepare(0).unwrap();
        let foreign = Envelope::CodedMaskShare(CodedMaskShare {
            from: 0,
            to: 1,
            group: 1,
            round: 0,
            payload: vec![Fp61::ZERO; cfg.segment_len()],
        });
        assert!(matches!(
            client.handle(foreign),
            Err(ProtocolError::WrongGroup {
                got: 1,
                expected: 0
            })
        ));
    }

    #[test]
    fn reassignment_moves_clients_and_keeps_sums_exact() {
        for policy in policies() {
            let d = 4;
            let all: Vec<usize> = (0..8).collect();
            let grouped =
                GroupedFederation::new(topo_2x4(d).with_ratchet(policy), MemTransport::new(), 12)
                    .unwrap();
            let mut fed: Federation<Fp61> = Federation::new(Box::new(grouped));
            let mut p0 = RoundPlan::new(all.clone());
            p0.updates = updates(&all, d);
            let out0 = fed.run_round(&p0).unwrap();
            assert_eq!(out0.aggregate, expected(&all, d));
            // round 1 under a reseated mapping: same clients, fresh peers
            fed.aggregator_mut().reassign(99).unwrap();
            let mut p1 = RoundPlan::new(all.clone());
            p1.updates = updates(&all, d);
            let out1 = fed.run_round(&p1).unwrap();
            assert_eq!(out1.aggregate, expected(&all, d));
            assert_eq!(out1.contributors, all);
        }
    }

    #[test]
    fn reassignment_permutes_the_mapping_deterministically() {
        let mut a = topo_2x4(3);
        let identity = a.clone();
        a.reassign(42);
        let mut b = topo_2x4(3);
        b.reassign(42);
        assert_eq!(a, b, "same seed, same permutation");
        assert_ne!(a, identity, "seed 42 must actually move someone");
        // the permutation is a bijection: every global id seats exactly once
        let mut seen = [false; 8];
        for g in 0..2 {
            for id in a.members_of(g) {
                assert!(!seen[id]);
                seen[id] = true;
                let (leaf, local) = a.locate(id).unwrap();
                assert_eq!(leaf, g);
                assert_eq!(a.global_id(leaf, local), id);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn stale_mapping_share_rejected_as_wrong_group() {
        // a share stamped under the pre-reassignment mapping must be
        // rejected by the leaf now serving the moved client
        let mut topo = topo_2x4(6);
        let stale = topo.clone();
        topo.reassign(42);
        let moved = (0..8)
            .find(|&id| topo.locate(id).unwrap().0 != stale.locate(id).unwrap().0)
            .expect("seed 42 moves at least one client across groups");
        let (new_leaf, new_local) = topo.locate(moved).unwrap();
        let (old_leaf, _) = stale.locate(moved).unwrap();
        let cfg = topo.group_config(new_leaf);
        let mut endpoint = FederationClient::<Fp61>::in_group(
            topo.wire_id(new_leaf) as usize,
            new_local,
            cfg,
            rand::SeedableRng::seed_from_u64(13),
        )
        .unwrap();
        endpoint.prepare(0).unwrap();
        let stale_share = Envelope::CodedMaskShare(CodedMaskShare {
            from: 0,
            to: new_local,
            group: stale.wire_id(old_leaf) as usize,
            round: 0,
            payload: vec![Fp61::ZERO; cfg.segment_len()],
        });
        let err = endpoint.handle(stale_share).unwrap_err();
        assert!(
            matches!(err, ProtocolError::WrongGroup { got, expected }
                if got == stale.wire_id(old_leaf) as usize
                && expected == topo.wire_id(new_leaf) as usize),
            "{err:?}"
        );
    }

    #[test]
    fn reassignment_rejected_mid_round_or_prepared() {
        let d = 3;
        let all: Vec<usize> = (0..8).collect();
        let mut grouped =
            GroupedFederation::<Fp61>::new(topo_2x4(d), MemTransport::new(), 14).unwrap();
        grouped.open_round(&all).unwrap();
        assert!(matches!(
            grouped.reassign(1),
            Err(ProtocolError::WrongPhase)
        ));
        grouped.abort_round();
        grouped.prepare_next(&all).unwrap();
        assert!(matches!(
            grouped.reassign(1),
            Err(ProtocolError::InvalidConfig(_))
        ));
    }

    #[test]
    fn from_children_composes_prebuilt_aggregators() {
        let d = 4;
        let cfg = LsaConfig::new(4, 1, 3, d).unwrap();
        let children: Vec<BoxedAggregator<Fp61>> = vec![
            Box::new(SyncFederation::in_group(0, cfg, MemTransport::new(), 20).unwrap()),
            Box::new(SyncFederation::in_group(1, cfg, MemTransport::new(), 21).unwrap()),
        ];
        let grouped = GroupedFederation::from_children(children).unwrap();
        let mut fed: Federation<Fp61> = Federation::new(Box::new(grouped));
        let all: Vec<usize> = (0..8).collect();
        let mut plan = RoundPlan::new(all.clone());
        plan.updates = updates(&all, d);
        let out = fed.run_round(&plan).unwrap();
        assert_eq!(out.aggregate, expected(&all, d));
        assert_eq!(out.contributors, all);
    }

    #[test]
    fn flat_topology_is_the_single_group_special_case() {
        let cfg = LsaConfig::new(5, 1, 4, 4).unwrap();
        let topo = GroupTopology::flat(cfg);
        assert_eq!(topo.num_groups(), 1);
        assert_eq!(topo.depth(), 0);
        assert_eq!(topo.aggregate_view(), cfg);
        let grouped = GroupedFederation::new(topo, MemTransport::new(), 13).unwrap();
        let mut fed: Federation<Fp61> = Federation::new(Box::new(grouped));
        let all: Vec<usize> = (0..5).collect();
        let mut plan = RoundPlan::new(all.clone());
        plan.updates = updates(&all, 4);
        let out = fed.run_round(&plan).unwrap();
        assert_eq!(out.aggregate, expected(&all, 4));
    }

    #[test]
    fn bytes_accounting_survives_composition() {
        let d = 16;
        let share_len = |cfg: LsaConfig| {
            Envelope::<Fp61>::CodedMaskShare(CodedMaskShare {
                from: 0,
                to: 1,
                group: 0,
                round: 0,
                payload: vec![Fp61::ZERO; cfg.segment_len()],
            })
            .wire_len()
        };
        // One offline exchange over the whole tree. Each leaf of n_g
        // clients moves n_g·(n_g − 1) coded shares, so every client sends
        // (n_g − 1) shares whatever sits above its leaf; returns the bytes
        // one client sends.
        let per_client = |topology: GroupTopology| {
            let n = topology.n();
            let mut grouped =
                GroupedFederation::<Fp61>::new(topology.clone(), MemTransport::new(), 15).unwrap();
            assert_eq!(grouped.bytes_sent(), 0);
            grouped.prepare_next(&(0..n).collect::<Vec<_>>()).unwrap();
            for (g, leaf) in grouped.leaves.iter().enumerate() {
                let cfg = topology.group_config(g);
                assert_eq!(leaf.bytes_sent(), cfg.n() * (cfg.n() - 1) * share_len(cfg));
            }
            let cfg = topology.group_config(0);
            assert!(topology.configs().iter().all(|c| c.n() == cfg.n()));
            assert_eq!(grouped.bytes_sent(), n * (cfg.n() - 1) * share_len(cfg));
            grouped.bytes_sent() / n
        };
        let topo = topo_2x4(d);
        assert_eq!(
            per_client(topo.clone()),
            3 * share_len(topo.group_config(0))
        );

        // Leaf size 16 at every N: per-client offline bytes stay flat from
        // N = 1024 to N = 16384, one and two levels deep.
        let leaf16 =
            [(1024, &[64][..]), (4096, &[16, 16]), (16384, &[64, 16])].map(|(n, branching)| {
                per_client(GroupTopology::hierarchical(n, branching, 0.25, 0.9, d).unwrap())
            });
        assert!(leaf16.iter().all(|&bytes| bytes == leaf16[0]), "{leaf16:?}");

        // At N = 1024, G = 16 sits at least 4× below flat. The flat figure
        // is computed: a real flat exchange of 1024 clients is too slow
        // for a unit test.
        let grouped = per_client(GroupTopology::uniform(1024, 16, 0.25, 0.9, d).unwrap());
        let flat_cfg = GroupTopology::uniform(1024, 1, 0.25, 0.9, d)
            .unwrap()
            .group_config(0);
        let flat = 1023 * share_len(flat_cfg);
        assert!(4 * grouped <= flat, "G = 16: {grouped} B, flat: {flat} B");
    }
}
