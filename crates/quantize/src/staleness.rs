//! Staleness-compensation functions for buffered asynchronous FL.
//!
//! In asynchronous FL the server down-weights stale updates by `s(τ)`
//! where `τ = t − t_i` is the staleness (Eq. 26 of the paper). For secure
//! aggregation the weighting must happen *inside the field*, so Eq. (34)
//! quantizes `s(τ)` to the integer `s_{c_g}(τ) = c_g·Q_{c_g}(s(τ))`.

use crate::stochastic_round;
use lsa_field::Field;
use rand::Rng;

/// The staleness weighting strategies evaluated in the paper
/// (Figures 7 and 11).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StalenessFn {
    /// `s(τ) = 1` — no compensation ("Constant" in Fig. 7).
    Constant,
    /// `s_α(τ) = (1 + τ)^{−α}` — polynomial decay ("Poly", α = 1 in the
    /// paper's experiments).
    Poly {
        /// Decay exponent `α > 0`.
        alpha: f64,
    },
    /// Hinge: `1` for `τ ≤ b`, else `1/(a(τ−b)+1)` (Xie et al. 2019).
    Hinge {
        /// Slope parameter `a > 0`.
        a: f64,
        /// Grace period `b ≥ 0`.
        b: u64,
    },
}

impl StalenessFn {
    /// Evaluate `s(τ)` in the reals.
    ///
    /// All variants satisfy `s(0) = 1` and are monotone non-increasing.
    pub fn evaluate(&self, tau: u64) -> f64 {
        match *self {
            StalenessFn::Constant => 1.0,
            StalenessFn::Poly { alpha } => (1.0 + tau as f64).powf(-alpha),
            StalenessFn::Hinge { a, b } => {
                if tau <= b {
                    1.0
                } else {
                    1.0 / (a * (tau - b) as f64 + 1.0)
                }
            }
        }
    }
}

/// The field-quantized staleness function of Eq. (34).
///
/// Produces integers `s_{c_g}(τ) = c_g·Q_{c_g}(s(τ))` embedded in the
/// field, plus the real-domain normalizer `Σ Q_{c_g}(s(τ_i))` needed by
/// the global update rule (Eq. 37).
#[derive(Debug, Clone, Copy)]
pub struct QuantizedStaleness {
    function: StalenessFn,
    cg: u64,
}

impl QuantizedStaleness {
    /// Create with quantization level `c_g ≥ 1` (the paper uses `c_g = 2^6`).
    ///
    /// # Panics
    ///
    /// Panics if `cg == 0`.
    pub fn new(function: StalenessFn, cg: u64) -> Self {
        assert!(cg >= 1, "staleness quantization level must be at least 1");
        Self { function, cg }
    }

    /// The integer weight `c_g·Q_{c_g}(s(τ))`.
    ///
    /// `s(τ) ∈ (0, 1]` so the result is in `[0, c_g]`; stochastic rounding
    /// keeps it unbiased.
    pub fn integer_weight<R: Rng + ?Sized>(&self, tau: u64, rng: &mut R) -> u64 {
        let w = stochastic_round(self.function.evaluate(tau), self.cg, rng);
        debug_assert!(w >= 0);
        w as u64
    }

    /// The weight as a field element.
    pub fn field_weight<F: Field, R: Rng + ?Sized>(&self, tau: u64, rng: &mut R) -> F {
        F::from_u64(self.integer_weight(tau, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_field::Fp61;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn all_variants_are_one_at_zero() {
        for f in [
            StalenessFn::Constant,
            StalenessFn::Poly { alpha: 1.0 },
            StalenessFn::Hinge { a: 0.5, b: 3 },
        ] {
            assert_eq!(f.evaluate(0), 1.0);
        }
    }

    #[test]
    fn poly_matches_paper_formula() {
        let f = StalenessFn::Poly { alpha: 1.0 };
        for tau in 0..20u64 {
            assert!((f.evaluate(tau) - 1.0 / (1.0 + tau as f64)).abs() < 1e-15);
        }
    }

    #[test]
    fn monotone_non_increasing() {
        for f in [
            StalenessFn::Constant,
            StalenessFn::Poly { alpha: 0.5 },
            StalenessFn::Poly { alpha: 2.0 },
            StalenessFn::Hinge { a: 1.0, b: 2 },
        ] {
            let mut prev = f.evaluate(0);
            for tau in 1..30 {
                let cur = f.evaluate(tau);
                assert!(cur <= prev + 1e-15, "{f:?} at {tau}");
                prev = cur;
            }
        }
    }

    #[test]
    fn integer_weight_bounded_by_cg() {
        let mut rng = StdRng::seed_from_u64(1);
        let qs = QuantizedStaleness::new(StalenessFn::Poly { alpha: 1.0 }, 64);
        for tau in 0..50 {
            let w = qs.integer_weight(tau, &mut rng);
            assert!(w <= 64);
        }
    }

    #[test]
    fn quantized_weight_unbiased() {
        let mut rng = StdRng::seed_from_u64(2);
        let qs = QuantizedStaleness::new(StalenessFn::Poly { alpha: 1.0 }, 64);
        let tau = 3u64; // s = 0.25 → c_g·s = 16 exactly representable
        for _ in 0..50 {
            assert_eq!(qs.integer_weight(tau, &mut rng), 16);
        }
        // non-representable value: average ≈ c_g·s
        let tau = 2u64; // s = 1/3, c_g·s = 21.33
        let n = 30_000;
        let sum: u64 = (0..n).map(|_| qs.integer_weight(tau, &mut rng)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 64.0 / 3.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn field_weight_matches_integer() {
        let mut rng1 = StdRng::seed_from_u64(3);
        let mut rng2 = StdRng::seed_from_u64(3);
        let qs = QuantizedStaleness::new(StalenessFn::Constant, 8);
        let fi: Fp61 = qs.field_weight(5, &mut rng1);
        let ii = qs.integer_weight(5, &mut rng2);
        assert_eq!(fi.residue(), ii);
    }
}
