//! The MDS half of Theorem 1's privacy argument, checked on the
//! generator matrix `W` itself rather than on the reasoning about it.
//!
//! Eq. (5) encodes `U` segments (`U − T` mask pieces, `T` noise pieces)
//! with the columns of `W`; for every code shape the repository ships,
//! and exhaustively for small ones, this suite checks:
//!
//! * the evaluation points `β_j` (row 1 of `W`) are distinct and
//!   non-zero — in a coefficient-form code that is what "evaluation
//!   points disjoint from the interpolation points" comes down to;
//! * every `U`-column submatrix of `W` has rank `U`: any `U` coded
//!   segments decode (dropout resilience, MDS);
//! * every `T`-column submatrix of the bottom `T` rows (the rows that
//!   multiply the noise) has rank `T`: any `T` coded segments are
//!   jointly uniform while the noise is (`T`-privacy, Lemma 1).
//!
//! Shapes with at most [`EXHAUSTIVE`] subsets of a kind are checked on
//! every subset; larger ones on [`SAMPLES`] distinct random subsets.
//! The paper's `N = 200` cohort is checked in `Fp61` only, the field
//! every `N = 200` run here uses: its 1000 rank computations of up to
//! `140 × 140` are most of this suite's run time.

use lsa_coding::{Matrix, VandermondeCode};
use lsa_field::{Field, Fp32, Fp61};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Subset counts up to this are enumerated in full.
const EXHAUSTIVE: u64 = 2000;

/// Random subsets drawn per kind when there are more than
/// [`EXHAUSTIVE`].
const SAMPLES: usize = 500;

/// `(N, U, T)` of every leaf code the repository runs: the ledger's
/// flat workloads, `tree_buffered`'s and the runner's leaves, the
/// scenario matrix's quick and full cells, and the examples.
const SHIPPED: [(usize, usize, usize); 13] = [
    (64, 48, 16),
    (16, 12, 4),
    (16, 15, 4),
    (4, 3, 1),
    (32, 24, 8),
    (8, 6, 2),
    (8, 5, 3),
    (3, 2, 1),
    (10, 7, 4),
    (6, 4, 2),
    (16, 11, 8),
    (8, 7, 2),
    (32, 28, 8),
];

/// The paper's `N = 200` cohort as the system experiments run it
/// (`T = N/2`, `U = 0.7·N`).
const PAPER: (usize, usize, usize) = (200, 140, 100);

/// `C(n, k)`, saturating.
fn binomial(n: usize, k: usize) -> u64 {
    (0..k.min(n - k)).fold(1u64, |acc, i| {
        acc.saturating_mul((n - i) as u64) / (i as u64 + 1)
    })
}

/// Every `k`-subset of `0..n` when there are at most [`EXHAUSTIVE`],
/// else [`SAMPLES`] distinct random ones.
fn subsets(n: usize, k: usize, rng: &mut StdRng) -> Vec<Vec<usize>> {
    if binomial(n, k) > EXHAUSTIVE {
        let mut drawn = BTreeSet::new();
        while drawn.len() < SAMPLES {
            // a partial Fisher–Yates shuffle picks k distinct columns
            let mut idx: Vec<usize> = (0..n).collect();
            for i in 0..k {
                let j = rng.gen_range(i..n);
                idx.swap(i, j);
            }
            let mut pick = idx[..k].to_vec();
            pick.sort_unstable();
            drawn.insert(pick);
        }
        return drawn.into_iter().collect();
    }
    let mut out = Vec::new();
    let mut pick: Vec<usize> = (0..k).collect();
    loop {
        out.push(pick.clone());
        // advance to the next combination in lexicographic order
        let Some(i) = (0..k).rev().find(|&i| pick[i] != i + n - k) else {
            return out;
        };
        pick[i] += 1;
        for j in i + 1..k {
            pick[j] = pick[j - 1] + 1;
        }
    }
}

/// Points distinct, non-zero, and row 1 of `W`.
fn check_points<F: Field>(code: &VandermondeCode<F>, w: &Matrix<F>, shape: &str) {
    let n = code.n();
    let points: Vec<F> = (0..n).map(|j| code.point(j)).collect();
    assert!(points.iter().all(|p| !p.is_zero()), "{shape}: zero point");
    let distinct: BTreeSet<u64> = points.iter().map(|p| p.residue()).collect();
    assert_eq!(distinct.len(), n, "{shape}: repeated point");
    if code.u() > 1 {
        assert_eq!(w.row(1), points, "{shape}: row 1 of W is not the points");
    }
}

/// Every (or every sampled) `U`-column submatrix of `W` has rank `U`.
fn check_mds<F: Field>(w: &Matrix<F>, shape: &str, rng: &mut StdRng) {
    let (u, n) = (w.rows(), w.cols());
    let rows: Vec<usize> = (0..u).collect();
    for cols in subsets(n, u, rng) {
        assert_eq!(
            w.submatrix(&rows, &cols).rank(),
            u,
            "{shape}: columns {cols:?} are not a basis (not MDS)"
        );
    }
}

/// Every (or every sampled) `T`-column submatrix of the bottom `T`
/// rows of `W` has rank `T`.
fn check_private<F: Field>(w: &Matrix<F>, t: usize, shape: &str, rng: &mut StdRng) {
    let (u, n) = (w.rows(), w.cols());
    let rows: Vec<usize> = (u - t..u).collect();
    for cols in subsets(n, t, rng) {
        assert_eq!(
            w.submatrix(&rows, &cols).rank(),
            t,
            "{shape}: noise block singular on columns {cols:?} (not {t}-private)"
        );
    }
}

/// The three checks of the module doc for one `(n, u, t)`.
fn check<F: Field>(n: usize, u: usize, t: usize, rng: &mut StdRng) {
    let shape = format!("(N, U, T) = ({n}, {u}, {t})");
    let code = VandermondeCode::<F>::new(n, u).unwrap();
    let w = code.generator_matrix();
    check_points(&code, &w, &shape);
    check_mds(&w, &shape, rng);
    check_private(&w, t, &shape, rng);
}

/// Every `1 ≤ T < U ≤ N ≤ 12`, every subset.
fn exhaustive_small_shapes<F: Field>() {
    let mut rng = StdRng::seed_from_u64(12);
    for n in 2..=12 {
        for u in 2..=n {
            for t in 1..u {
                check::<F>(n, u, t, &mut rng);
            }
        }
    }
}

fn shipped_shapes<F: Field>(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for (n, u, t) in SHIPPED {
        check::<F>(n, u, t, &mut rng);
    }
}

/// Points stay distinct and non-zero for every cohort size the
/// protocol is run at, up to the largest flat bench cohort and past it.
fn points_distinct_up_to<F: Field>(max_n: usize) {
    let code = VandermondeCode::<F>::new(max_n, 1).unwrap();
    let mut seen = BTreeSet::new();
    for j in 0..max_n {
        let p = code.point(j);
        assert!(!p.is_zero(), "user {j}: zero point");
        assert!(seen.insert(p.residue()), "user {j}: repeated point");
    }
}

#[test]
fn every_small_shape_is_mds_and_t_private_fp32() {
    exhaustive_small_shapes::<Fp32>();
}

#[test]
fn every_small_shape_is_mds_and_t_private_fp61() {
    exhaustive_small_shapes::<Fp61>();
}

#[test]
fn shipped_shapes_are_mds_and_t_private_fp32() {
    shipped_shapes::<Fp32>(32);
}

#[test]
fn shipped_shapes_are_mds_and_t_private_fp61() {
    shipped_shapes::<Fp61>(61);
}

/// `W` of [`PAPER`] and a label for it.
fn paper_code() -> (VandermondeCode<Fp61>, Matrix<Fp61>, String) {
    let (n, u, t) = PAPER;
    let code = VandermondeCode::<Fp61>::new(n, u).unwrap();
    let w = code.generator_matrix();
    (code, w, format!("(N, U, T) = ({n}, {u}, {t})"))
}

#[test]
fn paper_cohort_is_mds_fp61() {
    let (code, w, shape) = paper_code();
    check_points(&code, &w, &shape);
    check_mds(&w, &shape, &mut StdRng::seed_from_u64(200));
}

#[test]
fn paper_cohort_is_t_private_fp61() {
    let (_, w, shape) = paper_code();
    check_private(&w, PAPER.2, &shape, &mut StdRng::seed_from_u64(201));
}

#[test]
fn points_are_distinct_and_non_zero_at_every_cohort_size() {
    points_distinct_up_to::<Fp32>(2048);
    points_distinct_up_to::<Fp61>(2048);
}
