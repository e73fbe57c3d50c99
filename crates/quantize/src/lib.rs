//! Quantization between real-valued model updates and the finite field.
//!
//! Secure aggregation operates in `F_q`, but model updates live in `R^d`.
//! Appendix F.3.2 of the LightSecAgg paper bridges the two with
//!
//! 1. a **stochastic rounding** function `Q_c` (Eq. 29) — unbiased,
//!    variance `≤ 1/(4c²)` per coordinate (Lemma 2);
//! 2. a **two's-complement mapping** `φ : R → F_q` (Eq. 31) embedding
//!    negative integers as `q + x`, inverted by `φ⁻¹` (Eq. 36);
//! 3. a **quantized staleness function** `s_{c_g}(τ) = c_g·Q_{c_g}(s(τ))`
//!    (Eq. 34) so the server can weight buffered async updates inside the
//!    field.
//!
//! # Example
//!
//! ```
//! use lsa_quantize::{StalenessFn, VectorQuantizer};
//! use lsa_field::Fp61;
//! use rand::SeedableRng;
//!
//! let quantizer = VectorQuantizer::new(1 << 16);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(3);
//! let update = vec![0.25f64, -1.5, 0.0, 3.125];
//! let field: Vec<Fp61> = quantizer.quantize(&update, &mut rng);
//! let back = quantizer.dequantize(&field);
//! for (orig, rec) in update.iter().zip(&back) {
//!     assert!((orig - rec).abs() < 1e-4);
//! }
//! let weight = StalenessFn::Poly { alpha: 1.0 }.evaluate(4);
//! assert!((weight - 0.2).abs() < 1e-12);
//! ```

pub mod staleness;

pub use staleness::{QuantizedStaleness, StalenessFn};

use core::fmt;
use lsa_field::Field;
use rand::Rng;

/// Errors produced by the quantization layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QuantizeError {
    /// A gradient coordinate was NaN, ±∞, or so large that `c·x`
    /// overflows the integer grid. None of these may reach the field
    /// embedding: the saturating `as i64` cast would map them to
    /// `i64::MIN`/`i64::MAX`/0 and silently poison the masked sum —
    /// undetectable once aggregated under the mask. (The grid bound is
    /// checked on the *scaled* value `c·x`: `x` itself being finite is
    /// not enough, since the product can still overflow.)
    NonFinite {
        /// Index of the offending coordinate within its vector (0 for a
        /// scalar rounding).
        index: usize,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for QuantizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantizeError::NonFinite { index, value } => {
                write!(f, "non-finite gradient coordinate {value} at index {index}")
            }
        }
    }
}

impl std::error::Error for QuantizeError {}

/// Scaled values `c·x` must stay below this magnitude: up to `2^62` the
/// float-to-integer cast is exact, beyond it there is no grid neighbour.
const GRID_LIMIT: f64 = (1i64 << 62) as f64;

/// Coordinates per block of [`VectorQuantizer::try_quantize`].
const BLOCK: usize = 64;

/// `φ` without asking for the sign: a grid integer lifted by `2^62`
/// is non-negative, embeds with `from_u64`, and the lift comes off in
/// the field.
const LIFT: u64 = 1 << 62;

/// Whether [`VectorQuantizer::try_quantize`] may take its AVX-512
/// body: the `avx512` backend is selected and the CPU also converts
/// `f64` lanes to `i64` (`avx512dq`; the backend only implies
/// `avx512f`).
fn has_avx512_body() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        lsa_field::simd::backend() == lsa_field::simd::Backend::Avx512
            && is_x86_feature_detected!("avx512dq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// Round and embed one on-grid coordinate (`|c·x| < 2^62`) with its
/// draw: `φ(⌊c·x⌋ + [draw < frac])`.
#[inline(always)]
fn round_one<F: Field>(x: f64, draw: f64, c: f64, lift: F) -> F {
    let scaled = x * c;
    // below 2^62 the cast is exact truncation towards zero: the floor
    // without a call into `libm`
    let toward_zero = scaled as i64;
    let floor = toward_zero - i64::from(toward_zero as f64 > scaled);
    let frac = scaled - floor as f64;
    let rounded = floor + i64::from(draw < frac);
    F::from_u64((rounded as u64).wrapping_add(LIFT)) - lift
}

/// [`round_one`] for one block of at most [`BLOCK`] coordinates, its
/// draws taken first and the block then rounded in vector registers by
/// [`round_block_avx512`] (a ragged tail zero-padded), appended to
/// `out`.
///
/// # Safety
///
/// As [`round_block_avx512`]: the CPU supports `avx512f` and
/// `avx512dq`, and every `c·x` is on the grid.
#[cfg(target_arch = "x86_64")]
unsafe fn round_avx512<F: Field, R: Rng + ?Sized>(
    xs: &[f64],
    rng: &mut R,
    c: f64,
    lift: F,
    out: &mut Vec<F>,
) {
    let mut draws = [0.0f64; BLOCK];
    for draw in &mut draws[..xs.len()] {
        *draw = rng.gen();
    }
    let mut padded = [0.0f64; BLOCK];
    let whole = xs.try_into().unwrap_or_else(|_| {
        padded[..xs.len()].copy_from_slice(xs);
        &padded
    });
    let mut embedded = [F::ZERO; BLOCK];
    // SAFETY: the caller's contract; zero is on the grid
    unsafe { round_block_avx512(whole, &draws, c, lift, &mut embedded) };
    out.extend_from_slice(&embedded[..xs.len()]);
}

/// The rounding of [`round_one`] over a whole block of drawn
/// coordinates, branch-free: `floor` is one instruction here, and the
/// conversion need not saturate (the saturating `as i64` cast keeps a
/// loop scalar), so every step runs eight lanes at a time.
///
/// # Safety
///
/// The CPU must support `avx512f` and `avx512dq`, and every `c·x` must
/// be on the grid (`|c·x| < 2^62`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn round_block_avx512<F: Field>(
    xs: &[f64; BLOCK],
    draws: &[f64; BLOCK],
    c: f64,
    lift: F,
    out: &mut [F; BLOCK],
) {
    for k in 0..BLOCK {
        let scaled = xs[k] * c;
        let floor = scaled.floor();
        let frac = scaled - floor;
        // SAFETY: the floor of an on-grid value is an integer below
        // 2^62 in magnitude
        let rounded = unsafe { floor.to_int_unchecked::<i64>() } + i64::from(draws[k] < frac);
        out[k] = F::from_u64((rounded as u64).wrapping_add(LIFT)) - lift;
    }
}

/// Stochastic rounding `Q_c` of Eq. (29): rounds `x` to the grid `Z/c`,
/// choosing the upper neighbour with probability equal to the fractional
/// part, so that `E[Q_c(x)] = x`.
///
/// Returns the *integer* `c·Q_c(x)` (i.e. `⌊cx⌋` or `⌊cx⌋+1`), which is
/// what gets embedded into the field.
///
/// # Errors
///
/// Returns [`QuantizeError::NonFinite`] for NaN or ±∞ inputs — and for
/// finite inputs whose *scaled* value `c·x` leaves the exactly-castable
/// `i64` range (`|c·x| ≥ 2^62`): either way there is no grid neighbour,
/// and the previous behaviour (a saturating float-to-int cast) embedded
/// garbage into the field undetectably.
pub fn try_stochastic_round<R: Rng + ?Sized>(
    x: f64,
    c: u64,
    rng: &mut R,
) -> Result<i64, QuantizeError> {
    let scaled = x * c as f64;
    // the product is what gets cast: x alone being finite is not enough
    // (x = 1e308, c = 2^16 scales to +inf; x = 1e30 saturates the cast)
    if !scaled.is_finite() || scaled.abs() >= GRID_LIMIT {
        return Err(QuantizeError::NonFinite { index: 0, value: x });
    }
    let floor = scaled.floor();
    let frac = scaled - floor;
    let base = floor as i64;
    if rng.gen::<f64>() < frac {
        Ok(base + 1)
    } else {
        Ok(base)
    }
}

/// Infallible façade over [`try_stochastic_round`] for trusted inputs.
///
/// # Panics
///
/// Panics on NaN or ±∞ — a poisoned gradient is a training bug, and
/// failing loudly here beats corrupting the secure aggregate (use
/// [`try_stochastic_round`] to handle it as a typed error instead).
pub fn stochastic_round<R: Rng + ?Sized>(x: f64, c: u64, rng: &mut R) -> i64 {
    try_stochastic_round(x, c, rng).expect("finite gradient coordinate")
}

/// A quantizer with fixed scaling level `c` (the paper's `c_l`).
///
/// Larger `c` means finer grids (rounding variance `d/(4c²)` over a
/// `d`-dimensional vector) but a larger magnitude in the field, i.e. a
/// higher risk of wrap-around when many updates are summed — the trade-off
/// shown in Figure 12 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VectorQuantizer {
    c: u64,
}

impl VectorQuantizer {
    /// Create a quantizer with level `c ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics if `c == 0`.
    pub fn new(c: u64) -> Self {
        assert!(c >= 1, "quantization level must be at least 1");
        Self { c }
    }

    /// Quantize a real vector into the field: `φ(c·Q_c(x_k))` per
    /// coordinate, rejecting non-finite coordinates with a typed error.
    ///
    /// Coordinate for coordinate this is [`try_stochastic_round`] then
    /// [`Field::from_i64`] — same values, same one draw per accepted
    /// coordinate, in the same order — worked in blocks of 64
    /// coordinates, each checked against the grid before any of its
    /// draws. The round-up and the sign are selected, not jumped on
    /// (both are coin flips to a branch predictor). The body is chosen
    /// once per call: the portable one floors by the truncating cast
    /// instead of a call into `libm`; on an AVX-512 host (`avx512f` and
    /// `avx512dq`, under [`lsa_field::simd`]'s `avx512` backend) a
    /// block's draws are taken into an array and the block is rounded
    /// and embedded in vector registers.
    ///
    /// # Errors
    ///
    /// Returns [`QuantizeError::NonFinite`] (with the coordinate index)
    /// if any input is NaN or ±∞, or scales past the integer grid
    /// (`|c·x| ≥ 2^62`); no draw is made for the rejected coordinate or
    /// any after it.
    pub fn try_quantize<F: Field, R: Rng + ?Sized>(
        &self,
        xs: &[f64],
        rng: &mut R,
    ) -> Result<Vec<F>, QuantizeError> {
        let c = self.c as f64;
        let lift = F::from_u64(LIFT);
        // NaN is not on the grid either: it compares false
        let on_grid = |x: f64| (x * c).abs() < GRID_LIMIT;
        let wide = has_avx512_body();
        let mut out = Vec::with_capacity(xs.len());
        for (start, block) in (0..).step_by(BLOCK).zip(xs.chunks(BLOCK)) {
            if !block.iter().fold(true, |all, &x| all & on_grid(x)) {
                let k = block.iter().position(|&x| !on_grid(x)).expect("off grid");
                // the draws of the accepted coordinates before it
                for _ in 0..k {
                    rng.gen::<f64>();
                }
                return Err(QuantizeError::NonFinite {
                    index: start + k,
                    value: block[k],
                });
            }
            if wide {
                // SAFETY: `has_avx512_body` saw avx512f (through the
                // backend) and avx512dq; the block was checked above
                #[cfg(target_arch = "x86_64")]
                unsafe {
                    round_avx512(block, rng, c, lift, &mut out)
                };
            } else {
                // drawing as it rounds hides the generator's latency
                // behind the arithmetic; without a vector `f64 → i64`
                // conversion a block drawn ahead gains nothing
                out.extend(block.iter().map(|&x| round_one(x, rng.gen(), c, lift)));
            }
        }
        Ok(out)
    }

    /// Infallible façade over [`Self::try_quantize`] for trusted inputs.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is NaN or ±∞ (see [`stochastic_round`]).
    pub fn quantize<F: Field, R: Rng + ?Sized>(&self, xs: &[f64], rng: &mut R) -> Vec<F> {
        self.try_quantize(xs, rng).expect("finite gradient vector")
    }

    /// Dequantize a field vector produced by [`Self::quantize`]:
    /// `φ⁻¹(v_k)/c` per coordinate.
    pub fn dequantize<F: Field>(&self, vs: &[F]) -> Vec<f64> {
        self.dequantize_sum(vs, 1)
    }

    /// Dequantize an *aggregate* of `count` quantized vectors (optionally
    /// staleness-weighted): `φ⁻¹(v_k) / (c · divisor)`.
    ///
    /// `divisor` absorbs extra integer scaling such as the `c_g` staleness
    /// factor of Eq. (35); pass `1` when none applies.
    pub fn dequantize_sum<F: Field>(&self, vs: &[F], divisor: u64) -> Vec<f64> {
        let scale = (self.c as f64) * (divisor as f64);
        vs.iter().map(|v| v.to_signed() as f64 / scale).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_field::{Fp32, Fp61};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exact_grid_points_round_exactly() {
        let mut rng = StdRng::seed_from_u64(1);
        // 0.5 with c=2 is exactly on the grid: c*x = 1
        for _ in 0..100 {
            assert_eq!(stochastic_round(0.5, 2, &mut rng), 1);
            assert_eq!(stochastic_round(-0.5, 2, &mut rng), -1);
            assert_eq!(stochastic_round(3.0, 4, &mut rng), 12);
        }
    }

    #[test]
    fn rounding_is_unbiased_empirically() {
        let mut rng = StdRng::seed_from_u64(2);
        let x = 0.3;
        let c = 1;
        let n = 200_000;
        let sum: i64 = (0..n).map(|_| stochastic_round(x, c, &mut rng)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 0.3).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn negative_values_embed_correctly() {
        let mut rng = StdRng::seed_from_u64(3);
        let q = VectorQuantizer::new(4);
        let vs: Vec<Fp32> = q.quantize(&[-1.0], &mut rng);
        // −1.0 * 4 = −4 exactly
        assert_eq!(vs[0].to_signed(), -4);
        assert_eq!(q.dequantize(&vs)[0], -1.0);
    }

    #[test]
    fn quantize_dequantize_error_bound() {
        let mut rng = StdRng::seed_from_u64(4);
        let q = VectorQuantizer::new(1 << 12);
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64 - 500.0) / 77.0).collect();
        let vs: Vec<Fp61> = q.quantize(&xs, &mut rng);
        let back = q.dequantize(&vs);
        for (x, y) in xs.iter().zip(&back) {
            assert!((x - y).abs() <= 1.0 / (1 << 12) as f64 + 1e-12);
        }
    }

    #[test]
    fn aggregate_of_quantized_updates_dequantizes_to_sum() {
        // The end-to-end property secure aggregation relies on: sum in the
        // field ≈ sum of the reals.
        let mut rng = StdRng::seed_from_u64(5);
        let q = VectorQuantizer::new(1 << 16);
        let a = vec![0.7, -2.3, 1.1];
        let b = vec![-0.4, 0.9, 2.2];
        let fa: Vec<Fp61> = q.quantize(&a, &mut rng);
        let fb: Vec<Fp61> = q.quantize(&b, &mut rng);
        let sum: Vec<Fp61> = lsa_field::ops::add(&fa, &fb);
        let back = q.dequantize(&sum);
        for ((x, y), s) in a.iter().zip(&b).zip(&back) {
            assert!((x + y - s).abs() < 1e-3);
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_level_panics() {
        let _ = VectorQuantizer::new(0);
    }

    #[test]
    fn non_finite_inputs_rejected_with_typed_error() {
        let mut rng = StdRng::seed_from_u64(6);
        // 1e308 is finite but 1e308·2^16 overflows to +∞; 1e30·2^16 is
        // finite yet saturates the i64 cast — both must be rejected, not
        // silently embedded as i64::MAX
        for bad in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e308,
            1e30,
            -1e30,
        ] {
            let err = try_stochastic_round(bad, 1 << 16, &mut rng).unwrap_err();
            assert!(matches!(err, QuantizeError::NonFinite { index: 0, .. }));
        }
        // the vector path reports the offending coordinate
        let q = VectorQuantizer::new(1 << 16);
        let err = q
            .try_quantize::<Fp61, _>(&[0.5, f64::NAN, 1.0], &mut rng)
            .unwrap_err();
        assert!(matches!(err, QuantizeError::NonFinite { index: 1, .. }));
        // finite inputs still round-trip through the fallible path
        let ok = q.try_quantize::<Fp61, _>(&[0.5, -0.25], &mut rng).unwrap();
        assert_eq!(q.dequantize(&ok), vec![0.5, -0.25]);
    }

    #[test]
    #[should_panic(expected = "finite gradient")]
    fn infallible_quantize_panics_on_nan_instead_of_poisoning() {
        let mut rng = StdRng::seed_from_u64(7);
        let q = VectorQuantizer::new(1 << 16);
        let _ = q.quantize::<Fp61, _>(&[f64::NAN], &mut rng);
    }
}
