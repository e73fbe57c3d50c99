//! Equivalence of every delayed-reduction bulk kernel against the
//! one-reduction-per-op scalar reference, for both fields.
//!
//! The lazy kernels accumulate partially-folded terms in the widened
//! domain and reduce once per output element; these properties pin that
//! the optimisation never changes a single residue — including at the
//! all-`(q−1)` worst case that stresses the accumulator overflow
//! bounds, and on vectors long enough to span many cache blocks.
//!
//! Every oracle comparison runs once per compiled-in SIMD backend
//! (forced through [`simd::with_backend`]), so the scalar path and each
//! hand-written kernel are held to the identical-residue contract on
//! the same inputs. On hosts without AVX2 the sweep degenerates to the
//! scalar backend alone.
//!
//! The Vandermonde encode (`lsa_coding`) is the pair kernel's one
//! caller: it asks for `p(β)`, `p(−β)` or both at each `β`, and the
//! kernel splits the segments into even and odd halves, evaluates both
//! at `β²` and combines them into `p(±β)`. So the pair evaluation and
//! the encode are held to the per-point Horner reference here, at every
//! `±β`.

use lsa_coding::VandermondeCode;
use lsa_field::ops::Signs;
use lsa_field::{ops, simd, Field, Fp32, Fp61};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Run `f` once per backend this host can execute, pinned.
fn for_each_backend(mut f: impl FnMut(simd::Backend)) {
    for b in simd::available() {
        simd::with_backend(b, || f(b));
    }
}

fn fp32() -> impl Strategy<Value = Fp32> {
    any::<u64>().prop_map(Fp32::from_u64)
}

fn fp61() -> impl Strategy<Value = Fp61> {
    any::<u64>().prop_map(Fp61::from_u64)
}

fn vec32(len: core::ops::Range<usize>) -> impl Strategy<Value = Vec<Fp32>> {
    proptest::collection::vec(fp32(), len)
}

fn vec61(len: core::ops::Range<usize>) -> impl Strategy<Value = Vec<Fp61>> {
    proptest::collection::vec(fp61(), len)
}

/// `degree` coefficient segments derived from one base vector.
fn polynomial<F: Field>(base: &[F], degree: usize, mix: F) -> Vec<Vec<F>> {
    (0..degree)
        .map(|k| {
            base.iter()
                .map(|&v| v * F::from_u64(k as u64 + 1) + mix)
                .collect()
        })
        .collect()
}

/// First `β` the `Fp61` pair kernel does not take (`β²` reaches the
/// single-limb step's limit `2^20`).
const FAST_BETAS: u64 = 1 << 10;

fn views<F>(segs: &[Vec<F>]) -> Vec<&[F]> {
    segs.iter().map(Vec::as_slice).collect()
}

/// `ops::eval_pairs` equals `ops::reference::horner_eval` at every `±β`
/// asked for, under every backend.
fn assert_eval_pairs_match<F: Field>(segs: &[Vec<F>], pairs: &[(F, Signs)]) {
    let mut expect = Vec::new();
    for &(beta, signs) in pairs {
        if signs != Signs::Minus {
            expect.push(ops::reference::horner_eval(segs, beta));
        }
        if signs != Signs::Plus {
            expect.push(ops::reference::horner_eval(segs, -beta));
        }
    }
    for_each_backend(|b| {
        let got = ops::eval_pairs(&views(segs), pairs);
        assert_eq!(got, expect, "backend {}", b.name());
    });
}

/// `β = 1, 2, …` with the signs cycling through `Both`, `Plus`, `Minus`
/// (all `Both` with `both`).
fn pairs<F: Field>(betas: impl IntoIterator<Item = u64>, both: bool) -> Vec<(F, Signs)> {
    let cycle = [Signs::Both, Signs::Plus, Signs::Minus];
    betas
        .into_iter()
        .enumerate()
        .map(|(i, b)| {
            (
                F::from_u64(b),
                if both { Signs::Both } else { cycle[i % 3] },
            )
        })
        .collect()
}

/// The split encode of an `n`-user code over `segs` equals
/// `ops::reference::horner_eval` at every user's point `±β`, under
/// every backend; so does `encode_for`.
fn assert_encode_matches<F: Field>(n: usize, segs: &[Vec<F>]) {
    let code = VandermondeCode::<F>::new(n, segs.len()).unwrap();
    let expect: Vec<Vec<F>> = (0..n)
        .map(|j| ops::reference::horner_eval(segs, code.point(j)))
        .collect();
    for_each_backend(|b| {
        let got = code.encode_all(segs);
        assert_eq!(got, expect, "n {n}: backend {}", b.name());
        for j in [0, n / 2, n - 1] {
            assert_eq!(code.encode_for(segs, j), expect[j], "n {n}: user {j}");
        }
    });
}

macro_rules! kernel_equivalence {
    ($modname:ident, $scalar:ident, $vector:ident, $F:ty) => {
        mod $modname {
            use super::*;

            proptest! {
                #[test]
                fn axpy_matches_reference(
                    acc in $vector(1..200),
                    c in $scalar(),
                ) {
                    let x: Vec<$F> = acc.iter().map(|&v| v + c).collect();
                    for_each_backend(|b| {
                        let mut lazy = acc.clone();
                        let mut expect = acc.clone();
                        ops::axpy(&mut lazy, c, &x);
                        ops::reference::axpy(&mut expect, c, &x);
                        assert_eq!(lazy, expect, "backend {}", b.name());
                    });
                }

                #[test]
                fn dot_matches_reference(x in $vector(1..200), seed in $scalar()) {
                    let y: Vec<$F> = x.iter().map(|&v| v * seed + seed).collect();
                    // reduced per term: the oracle for the delayed reduction
                    let expect: $F = x.iter().zip(&y).map(|(a, b)| *a * *b).sum();
                    assert_eq!(ops::dot(&x, &y), expect);
                }

                #[test]
                fn weighted_sum_matches_reference(
                    base in $vector(1..150),
                    coeffs in proptest::collection::vec($scalar(), 1..12),
                    mix in $scalar(),
                ) {
                    let inputs: Vec<Vec<$F>> = coeffs
                        .iter()
                        .enumerate()
                        .map(|(i, &c)| {
                            base.iter()
                                .map(|&v| v * c + mix * <$F>::from_u64(i as u64 + 1))
                                .collect()
                        })
                        .collect();
                    let refs: Vec<&[$F]> = inputs.iter().map(Vec::as_slice).collect();
                    let mut sweep = base.clone();
                    ops::reference::weighted_sum_into(&mut sweep, &coeffs, &refs);
                    for_each_backend(|b| {
                        let mut fused = base.clone();
                        ops::weighted_sum_into(&mut fused, &coeffs, &refs);
                        assert_eq!(fused, sweep, "backend {}", b.name());
                    });
                }

                #[test]
                fn sum_vectors_matches_reference(
                    base in $vector(1..150),
                    count in 1usize..10,
                    mix in $scalar(),
                ) {
                    let vecs: Vec<Vec<$F>> = (0..count)
                        .map(|i| {
                            base.iter()
                                .map(|&v| v + mix * <$F>::from_u64(i as u64))
                                .collect()
                        })
                        .collect();
                    let eager =
                        ops::reference::sum_vectors(vecs.iter().map(Vec::as_slice))
                            .unwrap();
                    for_each_backend(|b| {
                        let lazy =
                            ops::sum_vectors(vecs.iter().map(Vec::as_slice)).unwrap();
                        assert_eq!(lazy, eager, "backend {}", b.name());
                    });
                }

                #[test]
                fn horner_eval_matches_reference(
                    base in $vector(1..80),
                    degree in 1usize..10,
                    point in $scalar(),
                    mix in $scalar(),
                ) {
                    let segs = polynomial(&base, degree, mix);
                    let expect = ops::reference::horner_eval(&segs, point);
                    for_each_backend(|b| {
                        assert_eq!(
                            ops::horner_eval(&segs, point),
                            expect,
                            "backend {}",
                            b.name()
                        );
                    });
                }

                /// Pair evaluation against the per-point Horner
                /// reference: segment lengths around the 8- and
                /// 16-element strips (0, below 8, not a multiple of 8),
                /// `β` counts around the 4-point register block, and
                /// every mix of signs.
                #[test]
                fn eval_points_matches_reference(
                    base in $vector(0..40),
                    degree in 1usize..10,
                    count in 0u64..11,
                    both in any::<bool>(),
                    mix in $scalar(),
                ) {
                    let segs = polynomial(&base, degree, mix);
                    assert_eval_pairs_match(&segs, &pairs::<$F>(1..=count, both));
                }

                /// The split encode at every `±β`: odd and even `N`
                /// from `N = U` up, `N ∈ {1, 2}` among them, segment
                /// lengths around the 8-element strip.
                #[test]
                fn split_encode_matches_reference(
                    base in $vector(0..40),
                    degree in 1usize..10,
                    extra in 0usize..6,
                    mix in $scalar(),
                ) {
                    let segs = polynomial(&base, degree, mix);
                    assert_encode_matches(degree + extra, &segs);
                }

                #[test]
                fn wide_running_sum_matches_eager(
                    base in $vector(1..100),
                    count in 1usize..12,
                ) {
                    let vecs: Vec<Vec<$F>> = (0..count)
                        .map(|i| {
                            base.iter()
                                .map(|&v| v + <$F>::from_u64(i as u64))
                                .collect()
                        })
                        .collect();
                    let mut eager = vec![<$F>::ZERO; base.len()];
                    for v in &vecs {
                        for (a, b) in eager.iter_mut().zip(v) {
                            *a += *b;
                        }
                    }
                    for_each_backend(|b| {
                        let mut wide = ops::wide_zeros::<$F>(base.len());
                        for v in &vecs {
                            ops::wide_accumulate::<$F>(&mut wide, v);
                        }
                        assert_eq!(
                            ops::wide_collapse::<$F>(&wide),
                            eager,
                            "backend {}",
                            b.name()
                        );
                    });
                }
            }

            /// The all-`(q−1)` worst case: maximum-magnitude coefficients
            /// times maximum-magnitude inputs, enough terms to stress the
            /// partial-fold overflow bounds (each folded product attains
            /// its documented maximum).
            #[test]
            fn worst_case_all_q_minus_one() {
                let q1 = <$F>::from_u64(<$F>::MODULUS - 1);
                let len = 64usize;
                let terms = 257usize;
                let x = vec![q1; len];
                let coeffs = vec![q1; terms];
                let inputs: Vec<&[$F]> = (0..terms).map(|_| x.as_slice()).collect();
                for_each_backend(|b| {
                    let mut fused = vec![q1; len];
                    let mut sweep = vec![q1; len];
                    ops::weighted_sum_into(&mut fused, &coeffs, &inputs);
                    ops::reference::weighted_sum_into(&mut sweep, &coeffs, &inputs);
                    assert_eq!(fused, sweep, "backend {}", b.name());
                    // closed form: q−1 ≡ −1, so
                    // out = −1 + terms·(−1)(−1) = terms − 1
                    assert_eq!(fused[0], <$F>::from_u64(terms as u64 - 1));

                    // dot of all-(q−1) vectors: Σ (−1)(−1) = len
                    let y = vec![q1; len];
                    assert_eq!(ops::dot(&x, &y), <$F>::from_u64(len as u64));

                    // widened running sum of all-(q−1) uploads
                    let mut wide = ops::wide_zeros::<$F>(len);
                    let rounds = 513usize;
                    for _ in 0..rounds {
                        ops::wide_accumulate::<$F>(&mut wide, &x);
                    }
                    let collapsed = ops::wide_collapse::<$F>(&wide);
                    // Σ (−1) over `rounds` terms = −rounds
                    assert_eq!(collapsed[0], <$F>::from_i64(-(rounds as i64)));
                });
            }

            /// The no-fold Horner bound at its worst: every residue
            /// `q−1`, degrees past the paper's `U = 150`, and the
            /// largest `β` the pair kernel takes among the `β` (seven
            /// of them: one register block and a remainder of three;
            /// 33 elements: two 16-element strips and a one-element
            /// tail).
            #[test]
            fn eval_points_worst_case_all_q_minus_one() {
                let q1 = <$F>::from_u64(<$F>::MODULUS - 1);
                let betas = [1, 2, 3, 64, 200, FAST_BETAS - 2, FAST_BETAS - 1];
                for degree in [48usize, 150, 1000] {
                    let segs = vec![vec![q1; 33]; degree];
                    assert_eval_pairs_match(&segs, &pairs::<$F>(betas, true));
                    assert_eval_pairs_match(&segs, &pairs::<$F>(betas, false));
                    // closed form at β = ±1: Σ (−1) over `degree` terms,
                    // and the alternating sum of an even number of them
                    let at_one = ops::eval_pairs(&views(&segs), &pairs::<$F>([1], true));
                    assert_eq!(at_one[0][0], <$F>::from_i64(-(degree as i64)));
                    assert_eq!(at_one[1][0], <$F>::ZERO);
                }
            }

            /// The pair kernel at every edge of its shape: segment
            /// lengths around the 8- and 16-element strips (the `zmm`
            /// masked tails) and the 64-element panel, `β` counts that leave 0–3 after the
            /// 4-point blocks, `U ∈ {1, 2, 3}` (no odd half, a
            /// one-segment odd half) and a longer `U`, with each sign
            /// mix.
            #[test]
            fn eval_pairs_at_strip_and_block_edges() {
                let mut rng = StdRng::seed_from_u64(19);
                for len in [1, 7, 8, 15, 16, 17, 31, 33, 64, 65, 100] {
                    for u in [1, 2, 3, 9] {
                        let segs: Vec<Vec<$F>> =
                            (0..u).map(|_| ops::random_vector(len, &mut rng)).collect();
                        for count in 1..=7 {
                            for both in [true, false] {
                                assert_eval_pairs_match(&segs, &pairs::<$F>(1..=count, both));
                            }
                            let minus: Vec<($F, Signs)> = (1..=count)
                                .map(|b| (<$F>::from_u64(b), Signs::Minus))
                                .collect();
                            assert_eval_pairs_match(&segs, &minus);
                        }
                    }
                }
            }

            /// The split encode at its worst: every residue `q−1` at
            /// `U ∈ {48, 150, 1000}` with odd `N`, the smallest codes,
            /// and `N = 2045`, whose last square `1023²` is the largest
            /// the single-limb step takes.
            #[test]
            fn split_encode_worst_case_all_q_minus_one() {
                let q1 = <$F>::from_u64(<$F>::MODULUS - 1);
                for (n, u) in [
                    (1, 1),
                    (2, 1),
                    (2, 2),
                    (49, 48),
                    (151, 150),
                    (1001, 1000),
                    (2045, 48),
                ] {
                    let segs = vec![vec![q1; 11]; u];
                    assert_encode_matches(n, &segs);
                }
            }

            /// `2^10 − 1` is the last `β` the pair kernel takes and
            /// `2^10` the first that falls back: alone, together, and
            /// mixed with small `β`, the answer is the reference's. So
            /// is it at a `β` whose square is small but which is not
            /// (`q − 5`, `u64::MAX` reduced).
            #[test]
            fn eval_points_across_the_fast_point_limit() {
                let mut rng = StdRng::seed_from_u64(17);
                let segs: Vec<Vec<$F>> = (0..9).map(|_| ops::random_vector(21, &mut rng)).collect();
                for betas in [
                    vec![FAST_BETAS - 1],
                    vec![FAST_BETAS - 1, FAST_BETAS],
                    vec![FAST_BETAS - 1, 1, 2, 3, FAST_BETAS - 1],
                    vec![5, FAST_BETAS, 6, u64::MAX],
                    vec![<$F>::MODULUS - 5, 1],
                ] {
                    for both in [true, false] {
                        assert_eval_pairs_match(&segs, &pairs::<$F>(betas.clone(), both));
                    }
                }
            }

            /// Long segments (32 781 elements: many strips and a short
            /// tail) with a `β` count (9) that is not a whole number of
            /// 4-point register blocks.
            #[test]
            fn eval_points_long_segments_match_reference() {
                let mut rng = StdRng::seed_from_u64(18);
                let len = 32_781;
                let segs: Vec<Vec<$F>> =
                    (0..3).map(|_| ops::random_vector(len, &mut rng)).collect();
                assert_eval_pairs_match(&segs, &pairs::<$F>(1..=9, true));
                assert_eval_pairs_match(&segs, &pairs::<$F>(1..=9, false));
                assert_encode_matches(9, &segs);
            }

            /// Many max-magnitude terms through the fused kernel stay
            /// exact (the closed form makes wrap-around visible); on the
            /// SIMD path this crosses the lane re-fold cadence hundreds
            /// of times.
            #[test]
            fn many_max_terms_stay_exact() {
                let q1 = <$F>::from_u64(<$F>::MODULUS - 1);
                let x = vec![q1; 8];
                let terms = 1200usize;
                let coeffs = vec![q1; terms];
                let inputs: Vec<&[$F]> = (0..terms).map(|_| x.as_slice()).collect();
                for_each_backend(|b| {
                    let mut out = vec![<$F>::ZERO; 8];
                    ops::weighted_sum_into(&mut out, &coeffs, &inputs);
                    assert_eq!(out[0], <$F>::from_u64(terms as u64), "backend {}", b.name());
                });
            }

            /// The one-pass pad step at its borrow and carry edges: every
            /// pairing of a residue and a keystream word from
            /// `{0, 1, 2, (q−1)/2, q−2, q−1}`, the words carrying set bits
            /// above `BITS` for the kernel to mask off. Each backend with
            /// a kernel adds a non-empty prefix and leaves the rest alone.
            #[test]
            fn add_words_match_field_ops_at_the_edges() {
                let q = <$F>::MODULUS;
                let nbytes = <$F>::BITS.div_ceil(8) as usize;
                let above_bits = !(u64::MAX >> (64 - <$F>::BITS));
                let edges = [0, 1, 2, (q - 1) / 2, q - 2, q - 1];
                let pairs: Vec<($F, u64)> = edges
                    .iter()
                    .flat_map(|&a| edges.map(|w| (<$F>::from_u64(a), w)))
                    .collect();
                let acc: Vec<$F> = pairs.iter().map(|&(a, _)| a).collect();
                let words: Vec<u8> = pairs
                    .iter()
                    .flat_map(|&(_, w)| (w | above_bits).to_le_bytes()[..nbytes].to_vec())
                    .collect();
                for subtract in [false, true] {
                    for_each_backend(|b| {
                        let mut got = acc.clone();
                        let n = <$F>::simd_add_words(b, &mut got, &words, subtract);
                        assert!(n <= acc.len());
                        assert_eq!(n > 0, b != simd::Backend::Scalar, "backend {}", b.name());
                        for (k, (&(a, w), &g)) in pairs.iter().zip(&got).enumerate() {
                            let w = <$F>::from_u64(w);
                            let want = match (k < n, subtract) {
                                (false, _) => a,
                                (true, false) => a + w,
                                (true, true) => a - w,
                            };
                            assert_eq!(g, want, "backend {} word {k}", b.name());
                        }
                    });
                }
            }
        }
    };
}

/// A saturated `u64` accumulator still reduces correctly, and the
/// documented capacity times the worst-case folded-product magnitude
/// provably fits the accumulator — the static overflow bound behind
/// `Fp32::WIDE_CAPACITY`.
#[test]
fn fp32_accumulator_bounds_hold_at_extremes() {
    assert_eq!(
        Fp32::wide_reduce(u64::MAX).residue(),
        u64::MAX % Fp32::MODULUS
    );
    let q1 = Fp32::MODULUS - 1;
    let t = u128::from(q1) * u128::from(q1);
    let max_term = (t >> 32) * 5 + (t & 0xFFFF_FFFF);
    assert!(u128::from(Fp32::WIDE_CAPACITY) * max_term <= u128::from(u64::MAX));
}

/// As above for `Fp61`: a saturated `u128` accumulator reduces
/// correctly, and `WIDE_CAPACITY` unfolded worst-case products
/// (`(q−1)² < 2^122` each) cannot overflow a `u128`.
#[test]
fn fp61_accumulator_bounds_hold_at_extremes() {
    assert_eq!(
        u128::from(Fp61::wide_reduce(u128::MAX).residue()),
        u128::MAX % u128::from(Fp61::MODULUS)
    );
    let q1 = u128::from(Fp61::MODULUS - 1);
    let max_term = q1 * q1;
    assert!(max_term
        .checked_mul(u128::from(Fp61::WIDE_CAPACITY))
        .is_some());
}

kernel_equivalence!(fp32_kernels, fp32, vec32, Fp32);
kernel_equivalence!(fp61_kernels, fp61, vec61, Fp61);

/// Every backend gives one answer on the fused decode-shaped workload
/// (16 coefficients over 32 775-element vectors: 32 whole cache blocks
/// and a ragged last one).
fn long_matrix_bit_identical<F: Field>(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let len = 32_775;
    let inputs: Vec<Vec<F>> = (0..16).map(|_| ops::random_vector(len, &mut rng)).collect();
    let coeffs: Vec<F> = (0..16).map(|_| F::random(&mut rng)).collect();
    let refs: Vec<&[F]> = inputs.iter().map(Vec::as_slice).collect();

    let mut baseline: Option<Vec<F>> = None;
    for_each_backend(|b| {
        let mut out = vec![F::ZERO; len];
        ops::weighted_sum_into(&mut out, &coeffs, &refs);
        match &baseline {
            None => baseline = Some(out),
            Some(base) => assert_eq!(&out, base, "backend {}", b.name()),
        }
    });
}

#[test]
fn long_weighted_sum_bit_identical_across_backends_fp32() {
    long_matrix_bit_identical::<Fp32>(98);
}

#[test]
fn long_weighted_sum_bit_identical_across_backends_fp61() {
    long_matrix_bit_identical::<Fp61>(99);
}
