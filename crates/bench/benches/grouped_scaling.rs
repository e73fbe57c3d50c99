//! Scaling of the aggregator-tree topology versus the flat protocol.
//!
//! Two sweeps:
//!
//! * **Depth-1** (the PR-3 grid, kept for continuity): N ∈ {64, 256,
//!   1024} cohorts split into G ∈ {1, 4, 16} groups (G = 1 *is* the
//!   flat topology).
//! * **Hierarchy** (the N = 10⁴ rung): fixed leaf-group size 16, shapes
//!   `N=1024: 64 leaves`, `N=4096: 16×16`, `N=16384: 64×16` — two-level
//!   trees at the larger points. The bench target from the ROADMAP:
//!   **per-client offline bytes stay flat as N grows** (each client
//!   only ever talks to its 15 leaf peers), and each leaf decode is
//!   O(16³) regardless of N. `finish_round` runs the per-subtree
//!   decodes one after another, so the root's decode time grows with
//!   the leaf count alone.
//!
//! Measurements per point:
//!
//! * `offline_bytes_per_client/...` — the offline mask exchange (via
//!   `prepare_next`, i.e. exactly what §4.1 overlaps with local
//!   training) over per-leaf `MemTransport`s; the Throughput records
//!   the **measured serialized offline bytes each client sends**.
//! * `round_critical_path/...` — one full secure-aggregation round end
//!   to end (open, submit, recover) at the sizes where iterating it
//!   stays cheap enough for CI.
//!
//! Run with `LSA_BENCH_JSON=...` for the JSON-lines artifact; every
//! line also records `available_parallelism` and the resolved
//! `simd_backend`. Acceptance: the N=16384 hierarchy point's
//! `bytes_per_iter` must match the N=1024 point within noise (flat
//! per-client offline cost), and at N=1024 G=16 must sit ≥4× below
//! G=1.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lsa_field::Fp61;
use lsa_protocol::federation::{RoundPlan, SecureAggregator};
use lsa_protocol::topology::{GroupTopology, GroupedFederation};
use lsa_protocol::transport::MemTransport;
use lsa_protocol::Federation;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

const D: usize = 256;
/// Per-group collusion tolerance: t_g = n_g/4.
const T_FRAC: f64 = 0.25;
/// Per-group survivor requirement: u_g = ⌈0.9·n_g⌉ (10% dropout budget).
const U_FRAC: f64 = 0.9;

const COHORTS: [usize; 3] = [64, 256, 1024];
const GROUPS: [usize; 3] = [1, 4, 16];

/// The hierarchy rung: (N, branching) at fixed leaf size 16. The first
/// point is the single-level baseline the flat-bytes claim is judged
/// against; the later points are two-level trees.
const HIERARCHY: [(usize, &[usize]); 3] = [(1024, &[64]), (4096, &[16, 16]), (16384, &[64, 16])];

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(400))
}

fn topo(n: usize, g: usize) -> GroupTopology {
    GroupTopology::uniform(n, g, T_FRAC, U_FRAC, D).expect("valid sweep point")
}

/// One offline mask exchange (the §4.1 overlapped phase) over
/// in-memory transports; returns total serialized bytes moved across
/// the whole tree.
fn run_offline(topology: &GroupTopology) -> usize {
    let mut fed = GroupedFederation::<Fp61>::new(topology.clone(), MemTransport::new(), 7).unwrap();
    let cohort: Vec<usize> = (0..topology.n()).collect();
    fed.prepare_next(&cohort).unwrap();
    fed.bytes_sent()
}

fn bench_offline_bytes(c: &mut Criterion) {
    let mut group = c.benchmark_group("grouped_scaling");
    for n in COHORTS {
        for g in GROUPS {
            let topology = topo(n, g);
            let per_client = (run_offline(&topology) / n) as u64;
            group.throughput(Throughput::Bytes(per_client));
            group.bench_with_input(
                BenchmarkId::new("offline_bytes_per_client", format!("N{n}xG{g}")),
                &topology,
                |b, topology| b.iter(|| black_box(run_offline(black_box(topology)))),
            );
        }
    }
    group.finish();
}

/// The N = 10⁴ rung: per-client offline bytes must stay flat from
/// N = 1024 to N = 16384 because the leaf-group size (16) is fixed —
/// the whole point of the recursive topology.
fn bench_hierarchy_offline_bytes(c: &mut Criterion) {
    let mut group = c.benchmark_group("grouped_scaling");
    for (n, branching) in HIERARCHY {
        let topology = GroupTopology::hierarchical(n, branching, T_FRAC, U_FRAC, D)
            .expect("valid hierarchy point");
        let per_client = (run_offline(&topology) / n) as u64;
        group.throughput(Throughput::Bytes(per_client));
        let label = branching
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join("x");
        group.bench_with_input(
            BenchmarkId::new("hier_offline_bytes_per_client", format!("N{n}_L{label}")),
            &topology,
            |b, topology| b.iter(|| black_box(run_offline(black_box(topology)))),
        );
    }
    group.finish();
}

fn run_full_round(topology: &GroupTopology, updates: &[Vec<Fp61>]) -> usize {
    let grouped =
        GroupedFederation::new(topology.clone(), MemTransport::new(), 2).expect("valid federation");
    let mut fed: Federation<Fp61> = Federation::new(Box::new(grouped));
    let cohort: Vec<usize> = (0..topology.n()).collect();
    let mut plan = RoundPlan::new(cohort.clone());
    plan.updates = cohort.iter().map(|&i| (i, updates[i].clone())).collect();
    let out = fed.run_round(black_box(&plan)).expect("round completes");
    out.aggregate.len()
}

fn bench_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("grouped_scaling");
    // flat decode is O(U³): keep full-round timing to the sizes where
    // iterating it stays cheap; the 1024-cohort story is told by the
    // offline sweep above
    for n in [64usize, 256] {
        for g in GROUPS {
            let topology = topo(n, g);
            let mut rng = StdRng::seed_from_u64(1);
            let updates: Vec<Vec<Fp61>> = (0..n)
                .map(|_| lsa_field::ops::random_vector(D, &mut rng))
                .collect();
            group.throughput(Throughput::Elements(n as u64));
            group.bench_with_input(
                BenchmarkId::new("round_critical_path", format!("N{n}xG{g}")),
                &topology,
                |b, topology| b.iter(|| black_box(run_full_round(topology, &updates))),
            );
        }
    }
    group.finish();
}

/// Full hierarchical rounds: every leaf decode is O(16³) no matter how
/// large N grows, so the root's wall-clock grows with the *leaf count*,
/// not with N². Kept to N ≤ 4096 so CI can iterate it; the N = 16384 point
/// is covered by the offline sweep.
fn bench_hierarchy_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("grouped_scaling");
    for (n, branching) in [(1024usize, &[64usize][..]), (4096, &[16, 16][..])] {
        let topology = GroupTopology::hierarchical(n, branching, T_FRAC, U_FRAC, D)
            .expect("valid hierarchy point");
        let mut rng = StdRng::seed_from_u64(3);
        let updates: Vec<Vec<Fp61>> = (0..n)
            .map(|_| lsa_field::ops::random_vector(D, &mut rng))
            .collect();
        let label = branching
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join("x");
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(
            BenchmarkId::new("hier_round_critical_path", format!("N{n}_L{label}")),
            &topology,
            |b, topology| b.iter(|| black_box(run_full_round(topology, &updates))),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_offline_bytes, bench_hierarchy_offline_bytes, bench_round, bench_hierarchy_round
}
criterion_main!(benches);
