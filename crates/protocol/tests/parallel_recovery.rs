//! Grouped recovery is exact.
//!
//! `GroupedFederation::finish_round` decodes its `G` independent groups
//! (each with a straggler that vanished after upload, so the full
//! recovery path runs) and folds them in group order. These tests pin
//! that the aggregate is the plaintext sum of every submitted update,
//! flat (`N = 256`, `G = 4`) and two-level (`[4, 4]`), on both fields.

use lsa_field::{ops, Field, Fp32, Fp61};
use lsa_protocol::federation::{Federation, RoundOutcome, RoundPlan};
use lsa_protocol::topology::{GroupTopology, GroupedFederation};
use lsa_protocol::transport::MemTransport;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 256;
const G: usize = 4;
const D: usize = 64;

/// Run one round of `topo` with a random update from every client and
/// one straggler per leaf group (`leaves` of them) vanishing after
/// upload, so the recovery path (announcement + aggregated shares +
/// per-group decode) really runs; assert the aggregate is the plaintext
/// sum of all `N` updates.
fn assert_recovers_plaintext_sum<F: Field>(topo: GroupTopology, leaves: usize, seed: u64) {
    let grouped = GroupedFederation::<F>::new(topo, MemTransport::new(), seed).unwrap();
    let mut fed = Federation::new(Box::new(grouped));
    let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
    let cohort: Vec<usize> = (0..N).collect();
    let mut plan = RoundPlan::new(cohort.clone());
    plan.updates = cohort
        .iter()
        .map(|&i| (i, ops::random_vector(D, &mut rng)))
        .collect();
    plan.drop_after_upload = (0..leaves).map(|g| g * (N / leaves)).collect();
    let out: RoundOutcome<F> = fed.run_round(&plan).unwrap();
    let plaintext = ops::sum_vectors(plan.updates.iter().map(|(_, u)| u.as_slice())).unwrap();
    assert_eq!(out.aggregate, plaintext);
    assert_eq!(out.contributors, cohort);
    assert_eq!(out.total_weight, N as u64);
}

#[test]
fn parallel_recovery_bit_identical_n256_g4_fp61() {
    let topo = GroupTopology::uniform(N, G, 0.25, 0.9, D).unwrap();
    assert_recovers_plaintext_sum::<Fp61>(topo, G, 7);
}

#[test]
fn parallel_recovery_bit_identical_n256_g4_fp32() {
    let topo = GroupTopology::uniform(N, G, 0.25, 0.9, D).unwrap();
    assert_recovers_plaintext_sum::<Fp32>(topo, G, 7);
}

/// Known uniform updates give a closed-form aggregate.
#[test]
fn parallel_recovery_is_exact() {
    let topo = GroupTopology::uniform(N, G, 0.25, 0.9, D).unwrap();
    let grouped = GroupedFederation::<Fp61>::new(topo, MemTransport::new(), 3).unwrap();
    let mut fed = Federation::new(Box::new(grouped));
    let cohort: Vec<usize> = (0..N).collect();
    let out = fed
        .run_round(&RoundPlan::new(cohort.clone()).with_uniform_updates(vec![Fp61::ONE; D]))
        .unwrap();
    assert_eq!(out.aggregate, vec![Fp61::from_u64(N as u64); D]);
    assert_eq!(out.total_weight, N as u64);
}

/// 4 super-groups × 4 leaf groups × 16 clients.
fn two_level() -> GroupTopology {
    let topo = GroupTopology::hierarchical(N, &[4, 4], 0.25, 0.9, D).unwrap();
    assert_eq!(topo.depth(), 2);
    topo
}

#[test]
fn tree_parallel_recovery_bit_identical_two_level_fp61() {
    assert_recovers_plaintext_sum::<Fp61>(two_level(), 16, 9);
}

#[test]
fn tree_parallel_recovery_bit_identical_two_level_fp32() {
    assert_recovers_plaintext_sum::<Fp32>(two_level(), 16, 10);
}

/// Hierarchy is sum-preserving: the two-level aggregate equals the
/// depth-1 aggregate over the same updates (masks differ, sums agree).
#[test]
fn two_level_matches_depth_one_aggregate() {
    let mut rng = StdRng::seed_from_u64(31);
    let cohort: Vec<usize> = (0..N).collect();
    let updates: Vec<(usize, Vec<Fp61>)> = cohort
        .iter()
        .map(|&i| (i, ops::random_vector(D, &mut rng)))
        .collect();
    let mut outs = Vec::new();
    for topo in [
        GroupTopology::uniform(N, 16, 0.25, 0.9, D).unwrap(),
        GroupTopology::hierarchical(N, &[4, 4], 0.25, 0.9, D).unwrap(),
    ] {
        let grouped = GroupedFederation::<Fp61>::new(topo, MemTransport::new(), 5).unwrap();
        let mut fed = Federation::new(Box::new(grouped));
        let mut plan = RoundPlan::new(cohort.clone());
        plan.updates = updates.clone();
        outs.push(fed.run_round(&plan).unwrap());
    }
    assert_eq!(outs[0].aggregate, outs[1].aggregate);
    assert_eq!(outs[0].contributors, outs[1].contributors);
}
