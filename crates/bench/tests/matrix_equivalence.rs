//! ISSUE 8 satellite: no telemetry-refactor drift. Every scenario-matrix
//! cell's per-round aggregates must be bit-identical to a federation
//! that is constructed *directly* (spelled out below, not through
//! `scenario::build_aggregator`) for the same mode, seed and workload.
//! If a telemetry or harness change ever perturbs the protocol's
//! arithmetic or its entropy consumption, the two sides diverge and
//! this test names the cell.
//!
//! All 49 cells (48 cross-product + the log-topology cell) are covered.

use lsa_bench::scenario::{
    build_aggregator, run_cell_typed, workload, FieldKind, MatrixParams, Mode, Topo, Variant,
    BRANCHING, GROUPS, T_FRAC, U_FRAC,
};
use lsa_field::{Field, Fp32, Fp61};
use lsa_net::{Duplex, NetworkConfig};
use lsa_protocol::federation::{
    BoxedAggregator, BufferedFederation, Federation, RoundPlan, SyncFederation,
};
use lsa_protocol::topology::{GroupTopology, GroupedFederation, TopologyNode};
use lsa_protocol::transport::MemTransport;
use lsa_protocol::{LsaConfig, PadTopology, ProtocolError, RatchetPolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The direct side: the same federation shape as the harness, but
/// constructed longhand. Intentionally duplicates the routing in
/// `scenario::build_aggregator` — sharing it would make the test a
/// tautology.
fn direct_federation<F: Field>(
    mode: &Mode,
    p: &MatrixParams,
    seed: u64,
) -> Result<Federation<F>, ProtocolError> {
    let net = NetworkConfig::paper_default(p.n);
    let t = ((p.n as f64) * T_FRAC).round() as usize;
    let u = ((p.n as f64) * U_FRAC).round() as usize;
    let (pads, window) = if mode.log_pads {
        (PadTopology::Hypercube, 8)
    } else {
        (PadTopology::Clique, 1)
    };
    let policy = RatchetPolicy::new(mode.ratchet, pads, window);
    let flat = LsaConfig::new(p.n, t, u, p.d)?.with_ratchet(policy);
    let topology = |topo: Topo| -> Result<GroupTopology, ProtocolError> {
        let shape = match topo {
            Topo::Flat => GroupTopology::flat(flat),
            Topo::Grouped => GroupTopology::uniform(p.n, GROUPS, T_FRAC, U_FRAC, p.d)?,
            Topo::Hierarchical => {
                GroupTopology::hierarchical(p.n, &BRANCHING, T_FRAC, U_FRAC, p.d)?
            }
        };
        Ok(shape.with_ratchet(policy))
    };
    fn buffered<F: Field>(
        topo: &GroupTopology,
        net: NetworkConfig,
        master: &mut StdRng,
    ) -> Result<GroupedFederation<F>, ProtocolError> {
        let mut children: Vec<BoxedAggregator<F>> = Vec::new();
        for sub in topo.child_topologies() {
            children.push(match sub.root() {
                TopologyNode::Leaf(cfg) => Box::new(BufferedFederation::unit_weight(
                    *cfg,
                    MemTransport::timed(net, Duplex::Full),
                    master.gen(),
                )?),
                TopologyNode::Internal(_) => Box::new(buffered(&sub, net, master)?),
            });
        }
        GroupedFederation::from_children(children)
    }
    let agg: BoxedAggregator<F> = match (mode.variant, mode.topo) {
        (Variant::Sync, Topo::Flat) => Box::new(SyncFederation::new(
            flat,
            MemTransport::timed(net, Duplex::Full),
            seed,
        )?),
        (Variant::Sync, topo) => {
            let grouped = GroupedFederation::new(
                topology(topo)?,
                MemTransport::timed(net, Duplex::Full),
                seed,
            )?;
            if mode.partial {
                Box::new(grouped.with_partial_recovery())
            } else {
                Box::new(grouped)
            }
        }
        (Variant::Buffered, Topo::Flat) => Box::new(BufferedFederation::unit_weight(
            flat,
            MemTransport::timed(net, Duplex::Full),
            seed,
        )?),
        (Variant::Buffered, topo) => {
            let mut master = StdRng::seed_from_u64(seed);
            let grouped = buffered::<F>(&topology(topo)?, net, &mut master)?;
            if mode.partial {
                Box::new(grouped.with_partial_recovery())
            } else {
                Box::new(grouped)
            }
        }
    };
    Ok(Federation::new(agg))
}

fn check_cell<F: Field>(mode: &Mode, p: &MatrixParams) {
    let name = mode.name();
    let seed = mode.seed(0);
    let harness = run_cell_typed::<F>(mode, p, seed)
        .unwrap_or_else(|e| panic!("{name}: harness run failed: {e}"));
    let mut direct = direct_federation::<F>(mode, p, seed)
        .unwrap_or_else(|e| panic!("{name}: direct construction failed: {e}"));
    let plans = workload::<F>(p, seed ^ 0x00D1_CE00);
    assert_eq!(harness.aggregates.len(), plans.len(), "{name}");
    for (r, plan) in plans.iter().enumerate() {
        let out = direct
            .run_round(plan)
            .unwrap_or_else(|e| panic!("{name}: direct round {r} failed: {e}"));
        assert_eq!(
            harness.aggregates[r], out.aggregate,
            "{name}: round {r} aggregate drifted from the direct construction"
        );
    }
}

#[test]
fn every_matrix_cell_matches_a_directly_constructed_federation() {
    let p = MatrixParams {
        n: 16,
        d: 16,
        rounds: 2,
        reps: 1,
    };
    for mode in Mode::all() {
        match mode.field {
            FieldKind::Fp32 => check_cell::<Fp32>(&mode, &p),
            FieldKind::Fp61 => check_cell::<Fp61>(&mode, &p),
        }
    }
}

/// A stalled leaf of the two-level cells is reported under its
/// tree-wide wire id by both variants: leaf 2 (clients 8..12) loses two
/// of its four members after upload, falls below `u = 3` recovery
/// helpers, and is skipped while the other three leaves decode.
#[test]
fn hierarchical_partial_cells_name_the_stalled_leaf_by_its_tree_id() {
    let p = MatrixParams {
        n: 16,
        d: 4,
        rounds: 1,
        reps: 1,
    };
    let survivors: Vec<usize> = (0..8).chain(12..16).collect();
    for variant in [Variant::Sync, Variant::Buffered] {
        for ratchet in [false, true] {
            let mode = Mode {
                variant,
                topo: Topo::Hierarchical,
                ratchet,
                partial: true,
                field: FieldKind::Fp61,
                log_pads: false,
            };
            let name = mode.name();
            let mut fed = build_aggregator::<Fp61>(&mode, &p, mode.seed(0)).unwrap();
            let updates: Vec<Vec<Fp61>> = (0..p.n)
                .map(|i| vec![Fp61::from_u64(i as u64 + 1); p.d])
                .collect();
            let mut plan = RoundPlan::full(p.n).with_updates(updates);
            plan.drop_after_upload = vec![8, 9];
            let out = fed
                .run_round(&plan)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(out.contributors, survivors, "{name}");
            let want: u64 = survivors.iter().map(|&i| i as u64 + 1).sum();
            assert_eq!(out.aggregate, vec![Fp61::from_u64(want); p.d], "{name}");
            assert_eq!(
                fed.aggregator().round_report().unwrap().stalled,
                vec![2],
                "{name}"
            );
        }
    }
}
