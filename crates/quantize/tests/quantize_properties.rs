//! Property-based tests of quantization invariants (Lemma 2 of the
//! paper: unbiasedness and bounded variance, plus exact linearity of the
//! field embedding).

use lsa_field::{simd, Field, Fp32, Fp61};
use lsa_quantize::{
    stochastic_round, try_stochastic_round, QuantizeError, StalenessFn, VectorQuantizer,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Quantize `clients` copies of bounded vectors, sum them in the field,
/// and check the sum dequantizes *exactly* to the integer-grid sum —
/// valid whenever `N·(c·max|x| + 1) ≤ (q−1)/2` (the documented
/// wrap-around bound, inclusive at the boundary per Eq. 36).
fn exact_aggregation_roundtrip<F: Field>(clients: usize, xs: &[f64], c: u64, seed: u64) {
    let q = VectorQuantizer::new(c);
    let mut rng = StdRng::seed_from_u64(seed);
    let bound = xs.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    assert!(
        (clients as f64) * (bound * c as f64 + 1.0) <= ((F::MODULUS - 1) / 2) as f64,
        "test parameters must respect the wrap-around bound"
    );
    let mut field_sum = vec![F::ZERO; xs.len()];
    let mut int_sum = vec![0i64; xs.len()];
    for _ in 0..clients {
        let vs: Vec<F> = q.quantize(xs, &mut rng);
        for (k, v) in vs.iter().enumerate() {
            // each summand is small, so its signed demapping is exact
            int_sum[k] += v.to_signed();
        }
        field_sum = lsa_field::ops::add(&field_sum, &vs);
    }
    let back = q.dequantize_sum(&field_sum, 1);
    for k in 0..xs.len() {
        assert_eq!(field_sum[k].to_signed(), int_sum[k], "coordinate {k}");
        assert_eq!(back[k], int_sum[k] as f64 / c as f64, "coordinate {k}");
    }
}

/// The vector loop against the scalar oracle it replaced — one
/// [`try_stochastic_round`] and one `from_i64` per coordinate — on
/// generators seeded alike: the same field elements or the same typed
/// error, and the same generator position afterwards either way.
fn quantize_matches_scalar_oracle<F: Field>(xs: &[f64], c: u64, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut oracle_rng = rng.clone();
    let got = VectorQuantizer::new(c).try_quantize::<F, _>(xs, &mut rng);
    let want: Result<Vec<F>, QuantizeError> = xs
        .iter()
        .enumerate()
        .map(|(index, &x)| {
            try_stochastic_round(x, c, &mut oracle_rng)
                .map(F::from_i64)
                .map_err(|_| QuantizeError::NonFinite { index, value: x })
        })
        .collect();
    match (got, want) {
        (Ok(got), Ok(want)) => assert_eq!(got, want),
        // by bit pattern: a NaN value is not equal to itself
        (
            Err(QuantizeError::NonFinite { index, value }),
            Err(QuantizeError::NonFinite {
                index: want_index,
                value: want_value,
            }),
        ) => assert_eq!((index, value.to_bits()), (want_index, want_value.to_bits())),
        (got, want) => panic!("loop {got:?}, oracle {want:?}"),
    }
    assert_eq!(
        rng.gen::<u64>(),
        oracle_rng.gen::<u64>(),
        "generators left at different positions"
    );
}

/// [`quantize_matches_scalar_oracle`] in both fields under every
/// backend this host runs: the portable body under each of them, and
/// the vector body under `avx512` where the CPU has it.
fn matches_scalar_oracle_on_every_backend(xs: &[f64], c: u64, seed: u64) {
    for backend in simd::available() {
        simd::with_backend(backend, || {
            quantize_matches_scalar_oracle::<Fp32>(xs, c, seed);
            quantize_matches_scalar_oracle::<Fp61>(xs, c, seed);
        });
    }
}

/// Coordinates per block of `try_quantize`.
const BLOCK: usize = 64;

/// Largest `f64` below `2^62`, the edge of the integer grid.
const UNDER_GRID_LIMIT: f64 = ((1u64 << 62) - (1 << 9)) as f64;

/// An in-range coordinate of one of the shapes the floor-by-cast and
/// the select-not-branch rewrites could get wrong: signed zeros, values
/// that scale below one grid step, exact grid points (fractional part
/// zero), and the largest magnitudes the grid takes.
fn coordinate(kind: u8, x: f64, c: u64) -> f64 {
    match kind {
        0 => 0.0f64.copysign(x),
        1 => 1e-300f64.copysign(x),
        2 => (x * c as f64).round() / c as f64,
        3 => UNDER_GRID_LIMIT.copysign(x) / c as f64,
        _ => x,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `try_quantize` is the scalar oracle, coordinate for coordinate.
    #[test]
    fn vector_loop_matches_scalar_oracle(
        coords in proptest::collection::vec((0u8..8, -100.0f64..100.0), 1..48),
        c_bits in 0u32..21,
        odd in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // powers of two (the protocol's levels) and their upper neighbours
        let c = (1u64 << c_bits) + u64::from(odd);
        let xs: Vec<f64> = coords.iter().map(|&(kind, x)| coordinate(kind, x, c)).collect();
        quantize_matches_scalar_oracle::<Fp32>(&xs, c, seed);
        quantize_matches_scalar_oracle::<Fp61>(&xs, c, seed);
    }

    /// A NaN, ±∞ or over-range coordinate anywhere in the vector: the
    /// same error index and value, and the generator stopped where the
    /// oracle's stopped (one draw per accepted coordinate before it,
    /// none for it).
    #[test]
    fn rejected_coordinate_matches_scalar_oracle(
        coords in proptest::collection::vec((0u8..8, -100.0f64..100.0), 1..48),
        poison in 0u8..5,
        at in any::<usize>(),
        c_bits in 0u32..21,
        seed in any::<u64>(),
    ) {
        let c = 1u64 << c_bits;
        let mut xs: Vec<f64> = coords.iter().map(|&(kind, x)| coordinate(kind, x, c)).collect();
        let at = at % xs.len();
        xs[at] = match poison {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            // first magnitudes past the grid
            3 => (1u64 << 62) as f64 / c as f64,
            _ => -((1u64 << 62) as f64) / c as f64,
        };
        let q = VectorQuantizer::new(c);
        let mut rng = StdRng::seed_from_u64(seed);
        let rejected = q.try_quantize::<Fp61, _>(&xs, &mut rng);
        prop_assert!(
            matches!(rejected, Err(QuantizeError::NonFinite { index, .. }) if index == at)
        );
        quantize_matches_scalar_oracle::<Fp32>(&xs, c, seed);
        quantize_matches_scalar_oracle::<Fp61>(&xs, c, seed);
    }

    /// Three to five whole blocks and a ragged tail (or none): every
    /// block boundary lands where the oracle keeps counting.
    #[test]
    fn blocked_loop_matches_scalar_oracle_on_every_backend(
        coords in proptest::collection::vec((0u8..8, -100.0f64..100.0), 6 * BLOCK),
        whole in 3usize..6,
        tail in 0usize..BLOCK,
        c_bits in 0u32..21,
        odd in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let c = (1u64 << c_bits) + u64::from(odd);
        let xs: Vec<f64> = coords[..whole * BLOCK + tail]
            .iter()
            .map(|&(kind, x)| coordinate(kind, x, c))
            .collect();
        matches_scalar_oracle_on_every_backend(&xs, c, seed);
    }

    /// One off-grid coordinate in the first block, in a middle block
    /// and in the ragged tail, in turn: the same error and the same
    /// generator position as the oracle, under every backend.
    #[test]
    fn rejected_coordinate_in_any_block_matches_scalar_oracle(
        coords in proptest::collection::vec((0u8..8, -100.0f64..100.0), 6 * BLOCK),
        whole in 3usize..6,
        tail in 1usize..BLOCK,
        poison in 0u8..5,
        offsets in (any::<usize>(), any::<usize>(), any::<usize>(), any::<usize>()),
        c_bits in 0u32..21,
        seed in any::<u64>(),
    ) {
        let c = 1u64 << c_bits;
        let xs: Vec<f64> = coords[..whole * BLOCK + tail]
            .iter()
            .map(|&(kind, x)| coordinate(kind, x, c))
            .collect();
        let bad = match poison {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => (1u64 << 62) as f64 / c as f64,
            _ => -((1u64 << 62) as f64) / c as f64,
        };
        let (first, middle_block, middle, last) = offsets;
        for at in [
            first % BLOCK,
            (1 + middle_block % (whole - 1)) * BLOCK + middle % BLOCK,
            whole * BLOCK + last % tail,
        ] {
            let mut poisoned = xs.clone();
            poisoned[at] = bad;
            for backend in simd::available() {
                let rejected = simd::with_backend(backend, || {
                    VectorQuantizer::new(c)
                        .try_quantize::<Fp61, _>(&poisoned, &mut StdRng::seed_from_u64(seed))
                });
                prop_assert!(
                    matches!(rejected, Err(QuantizeError::NonFinite { index, .. }) if index == at),
                    "{backend:?} at {at}: {rejected:?}"
                );
            }
            matches_scalar_oracle_on_every_backend(&poisoned, c, seed);
        }
    }

    /// Q_c lands on one of the two neighbouring grid points.
    #[test]
    fn rounding_lands_on_adjacent_grid(
        x in -1e6f64..1e6,
        c_bits in 0u32..20,
        seed in any::<u64>(),
    ) {
        let c = 1u64 << c_bits;
        let mut rng = StdRng::seed_from_u64(seed);
        let r = stochastic_round(x, c, &mut rng);
        let scaled = x * c as f64;
        prop_assert!(r as f64 >= scaled.floor() - 0.5);
        prop_assert!(r as f64 <= scaled.floor() + 1.5);
    }

    /// Dequantize(quantize(x)) is within one grid step of x.
    #[test]
    fn roundtrip_error_within_grid(
        xs in proptest::collection::vec(-100.0f64..100.0, 1..32),
        c_bits in 4u32..24,
        seed in any::<u64>(),
    ) {
        let q = VectorQuantizer::new(1u64 << c_bits);
        let mut rng = StdRng::seed_from_u64(seed);
        let vs: Vec<Fp61> = q.quantize(&xs, &mut rng);
        let back = q.dequantize(&vs);
        let step = 1.0 / (1u64 << c_bits) as f64;
        for (x, y) in xs.iter().zip(&back) {
            prop_assert!((x - y).abs() <= step + 1e-12);
        }
    }

    /// Field-sum of quantized vectors dequantizes to ≈ the real sum
    /// (the property secure aggregation transports).
    #[test]
    fn field_sum_matches_real_sum(
        a in proptest::collection::vec(-10.0f64..10.0, 1..16),
        b in proptest::collection::vec(-10.0f64..10.0, 1..16),
        seed in any::<u64>(),
    ) {
        let n = a.len().min(b.len());
        let q = VectorQuantizer::new(1 << 16);
        let mut rng = StdRng::seed_from_u64(seed);
        let fa: Vec<Fp61> = q.quantize(&a[..n], &mut rng);
        let fb: Vec<Fp61> = q.quantize(&b[..n], &mut rng);
        let sum = lsa_field::ops::add(&fa, &fb);
        let back = q.dequantize(&sum);
        for k in 0..n {
            prop_assert!((back[k] - (a[k] + b[k])).abs() < 2.0 / 65536.0 + 1e-9);
        }
    }

    /// N-client aggregation round-trips exactly (not merely within
    /// grid error) while `N·c·max|x|` stays below `(q−1)/2` — the
    /// invariant both the `to_signed` boundary fix and the non-finite
    /// rejection protect under aggregation.
    #[test]
    fn n_client_field_sum_dequantizes_exactly(
        xs in proptest::collection::vec(-10.0f64..10.0, 1..24),
        clients in 2usize..12,
        c_bits in 4u32..17,
        seed in any::<u64>(),
    ) {
        exact_aggregation_roundtrip::<Fp61>(clients, &xs, 1u64 << c_bits, seed);
    }

    /// The same exactness holds in the small 32-bit field as long as the
    /// bound is respected (c capped so 12·(2^14·10 + 1) ≪ (q−1)/2).
    #[test]
    fn n_client_field_sum_dequantizes_exactly_fp32(
        xs in proptest::collection::vec(-10.0f64..10.0, 1..24),
        clients in 2usize..12,
        c_bits in 4u32..15,
        seed in any::<u64>(),
    ) {
        exact_aggregation_roundtrip::<Fp32>(clients, &xs, 1u64 << c_bits, seed);
    }

    /// All staleness functions stay in (0, 1] and equal 1 at τ = 0.
    #[test]
    fn staleness_range(tau in 0u64..1000, alpha in 0.1f64..4.0, a in 0.1f64..4.0, b in 0u64..20) {
        for f in [
            StalenessFn::Constant,
            StalenessFn::Poly { alpha },
            StalenessFn::Hinge { a, b },
        ] {
            let v = f.evaluate(tau);
            prop_assert!(v > 0.0 && v <= 1.0, "{f:?}({tau}) = {v}");
            prop_assert_eq!(f.evaluate(0), 1.0);
        }
    }

    /// Integer staleness weights are within one unit of c_g·s(τ).
    #[test]
    fn quantized_staleness_close(tau in 0u64..100, cg_bits in 0u32..12, seed in any::<u64>()) {
        use lsa_quantize::QuantizedStaleness;
        let cg = 1u64 << cg_bits;
        let qs = QuantizedStaleness::new(StalenessFn::Poly { alpha: 1.0 }, cg);
        let mut rng = StdRng::seed_from_u64(seed);
        let w = qs.integer_weight(tau, &mut rng) as f64;
        let exact = cg as f64 * (1.0 / (1.0 + tau as f64));
        prop_assert!((w - exact).abs() <= 1.0);
    }
}

/// The wrap-around bound is *tight*: an aggregate landing exactly on the
/// residue `(q−1)/2` is still the legal maximum positive value (the
/// `to_signed` boundary fix), and one unit more wraps negative.
fn wraparound_bound_is_tight<F: Field>() {
    let half = (F::MODULUS - 1) / 2;
    let q = VectorQuantizer::new(1);
    // sum of positive quantized contributions reaching exactly (q−1)/2
    let at_bound = F::from_u64(half - 1) + F::ONE;
    assert_eq!(at_bound.to_signed(), half as i64);
    assert_eq!(q.dequantize(&[at_bound])[0], half as f64);
    // one more unit crosses q/2 and must wrap to the negatives
    let over = at_bound + F::ONE;
    assert_eq!(over.to_signed(), -(half as i64));
    assert!(q.dequantize(&[over])[0] < 0.0);
}

#[test]
fn wraparound_bound_tight_fp32() {
    wraparound_bound_is_tight::<Fp32>();
}

#[test]
fn wraparound_bound_tight_fp61() {
    wraparound_bound_is_tight::<Fp61>();
}
