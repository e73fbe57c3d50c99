//! Prime-field arithmetic for the LightSecAgg reproduction.
//!
//! All secure-aggregation operations in the paper are carried out over a
//! finite field `F_q`. The reference implementation uses `q = 2^32 − 5`
//! (the largest 32-bit prime; see Appendix F.5 of the paper), which is
//! provided here as [`Fp32`]. A second, larger field [`Fp61`]
//! (`q = 2^61 − 1`, a Mersenne prime) is provided both to test genericity of
//! the coding layer and to offer head-room against wrap-around when
//! aggregating many quantized updates.
//!
//! The [`Field`] trait abstracts over both so the MDS coding, secret-sharing
//! and protocol layers are field-agnostic.
//!
//! # Example
//!
//! ```
//! use lsa_field::{Field, Fp32};
//!
//! let a = Fp32::from_u64(7);
//! let b = Fp32::from_u64(11);
//! assert_eq!((a * b).residue(), 77);
//! // Every non-zero element is invertible.
//! let inv = a.inv().expect("non-zero");
//! assert_eq!(a * inv, Fp32::ONE);
//! ```

mod fp32;
mod fp61;
pub mod ops;
pub mod simd;

pub use fp32::Fp32;
pub use fp61::Fp61;

use core::fmt::{Debug, Display};
use core::hash::Hash;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use rand::Rng;

/// A prime field element.
///
/// Implementors are `Copy` value types storing a canonical residue in
/// `[0, MODULUS)`. All arithmetic is constant modular arithmetic; `inv`
/// uses Fermat's little theorem (`a^(q-2)`), so it is `O(log q)`
/// multiplications.
///
/// The trait is sealed in spirit (only the two in-crate fields implement
/// it); downstream code should be generic over `F: Field`.
pub trait Field:
    Copy
    + Clone
    + Debug
    + Display
    + Default
    + Eq
    + PartialEq
    + Hash
    + Send
    + Sync
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + Sum
    + Product
    + 'static
{
    /// The field modulus `q`.
    const MODULUS: u64;

    /// Additive identity.
    const ZERO: Self;

    /// Multiplicative identity.
    const ONE: Self;

    /// Number of bits needed to store a canonical residue.
    const BITS: u32;

    /// Widened unreduced accumulator for delayed-reduction kernels
    /// (`u64` for [`Fp32`], `u128` for [`Fp61`]).
    ///
    /// The bulk kernels in [`ops`] accumulate many `c·x` terms into a
    /// `Wide` and reduce **once per output element** instead of once per
    /// operation. Each term is only *partially* folded (cheap shifts and
    /// adds, no division), so up to [`Field::WIDE_CAPACITY`] terms fit
    /// before [`Field::wide_reduce`] (or a re-fold via
    /// `wide_reduce(..).to_wide()`) must run.
    type Wide: Copy + Clone + Debug + Default + Send + Sync + 'static;

    /// Maximum number of terms — partially-folded products from
    /// [`Field::wide_mul_add`] or residues from [`Field::wide_add`] —
    /// that one `Wide` accumulator can absorb without overflow.
    ///
    /// The bound is conservative: it assumes every term attains the
    /// product-fold worst case.
    const WIDE_CAPACITY: u64;

    /// Lift a canonical residue into the widened accumulator domain.
    fn to_wide(self) -> Self::Wide;

    /// `acc + self` without reduction (one term against
    /// [`Field::WIDE_CAPACITY`]).
    fn wide_add(acc: Self::Wide, x: Self) -> Self::Wide;

    /// `acc + c·x` with the double-width product partially folded so
    /// that [`Field::WIDE_CAPACITY`] such terms fit without overflow —
    /// the inner step of every fused multi-axpy kernel.
    fn wide_mul_add(acc: Self::Wide, c: Self, x: Self) -> Self::Wide;

    /// Collapse an accumulator to its canonical residue (the one full
    /// reduction per output element).
    fn wide_reduce(acc: Self::Wide) -> Self;

    /// SIMD implementation of the fused weighted-sum kernel over one
    /// cache block:
    /// `block[k] = reduce(block[k] + Σ_i coeffs[i] · inputs[i][offset + k])`,
    /// with the same zero/one-coefficient fast paths as the scalar path
    /// in [`ops::weighted_sum_into`]. `block.len()` is at most
    /// `ops::BLOCK` (1024) and each `inputs[i]` extends at least
    /// `offset + block.len()` elements.
    ///
    /// Returns `false` when this field has no kernel for `backend` (the
    /// caller then runs the portable scalar path). Implementations are
    /// free to pick their own internal accumulator representation and
    /// re-fold cadence, but the output residues must be **bit-identical**
    /// to the scalar path on every input — field arithmetic is exact,
    /// so any representation that is exact mod `q` and reduces to the
    /// canonical residue qualifies.
    fn simd_weighted_block(
        backend: simd::Backend,
        block: &mut [Self],
        coeffs: &[Self],
        inputs: &[&[Self]],
        offset: usize,
    ) -> bool {
        let _ = (backend, block, coeffs, inputs, offset);
        false
    }

    /// SIMD multi-point evaluation of the vector polynomial
    /// `Σ_k segs[k]·β^k` ([`ops::eval_points`]): one output per point,
    /// `out[j][i] = Σ_k segs[k][i] · points[j]^k`. `segs` is non-empty
    /// and its segments have one common length.
    ///
    /// Returns `None` when this field has no kernel for `backend` *or
    /// for these points* (a kernel may take only small multipliers);
    /// the caller then evaluates point by point through
    /// [`ops::horner_eval`]. Same bit-identical contract as
    /// [`Field::simd_weighted_block`].
    fn simd_eval_points(
        backend: simd::Backend,
        segs: &[&[Self]],
        points: &[Self],
    ) -> Option<Vec<Vec<Self>>> {
        let _ = (backend, segs, points);
        None
    }

    /// SIMD inner product `Σ x[k]·y[k]`, or `None` when this field has
    /// no kernel for `backend`. Same bit-identical contract as
    /// [`Field::simd_weighted_block`].
    fn simd_dot(backend: simd::Backend, x: &[Self], y: &[Self]) -> Option<Self> {
        let _ = (backend, x, y);
        None
    }

    /// SIMD one-pass pad step: `acc[k] += w_k` (`-=` with `subtract`)
    /// for the keystream words `w_k` of `words` — consecutive
    /// `⌈BITS/8⌉`-byte little-endian words masked to `BITS` bits, one per
    /// element of `acc`, the element stream of `lsa_crypto::FieldPrg`.
    ///
    /// Works from the front in groups of the kernel's width and stops
    /// before the first group holding a word `≥ MODULUS`, or before a
    /// tail too short for a group; returns how many leading words it
    /// added. The caller decodes the rest (compacting any rejected
    /// word), so `0` — what a field without a kernel for `backend`
    /// returns — is always correct. Same bit-identical contract as
    /// [`Field::simd_weighted_block`].
    ///
    /// # Panics
    ///
    /// A kernel panics unless `words` holds exactly one word per element
    /// of `acc`.
    fn simd_add_words(
        backend: simd::Backend,
        acc: &mut [Self],
        words: &[u8],
        subtract: bool,
    ) -> usize {
        let _ = (backend, acc, words, subtract);
        0
    }

    /// Construct an element from an unsigned integer, reducing mod `q`.
    fn from_u64(value: u64) -> Self;

    /// Construct an element from a signed integer: negative values map to
    /// `q - |value| mod q`, i.e. the standard embedding of small signed
    /// integers used by the two's-complement mapping `φ` of the paper
    /// (Appendix F.3.2).
    fn from_i64(value: i64) -> Self {
        if value >= 0 {
            Self::from_u64(value as u64)
        } else {
            let mag = Self::from_u64(value.unsigned_abs());
            -mag
        }
    }

    /// The canonical residue in `[0, q)`.
    fn residue(self) -> u64;

    /// Multiplicative inverse, or `None` for zero.
    fn inv(self) -> Option<Self>;

    /// Modular exponentiation by squaring.
    fn pow(self, mut exp: u64) -> Self {
        let mut base = self;
        let mut acc = Self::ONE;
        while exp != 0 {
            if exp & 1 == 1 {
                acc *= base;
            }
            base *= base;
            exp >>= 1;
        }
        acc
    }

    /// Uniformly random field element (rejection sampling, unbiased).
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self;

    /// `true` iff this is the additive identity.
    fn is_zero(self) -> bool {
        self == Self::ZERO
    }

    /// Interpret the residue as a signed integer in
    /// `[-(q-1)/2, (q-1)/2]` — the demapping `φ⁻¹` of the paper
    /// (Eq. 36): residues up to `(q-1)/2` (i.e. `x < q/2`) are positive,
    /// everything above wraps to the negatives. The boundary residue
    /// `(q-1)/2` itself is a *legal positive* value — excluding it would
    /// corrupt the maximum-magnitude aggregate to `-(q+1)/2`.
    fn to_signed(self) -> i64 {
        let r = self.residue();
        let half = (Self::MODULUS - 1) / 2;
        if r <= half {
            r as i64
        } else {
            r as i64 - Self::MODULUS as i64
        }
    }
}

/// Deterministically derives `count` distinct non-zero evaluation points.
///
/// Vandermonde-based MDS matrices require pairwise-distinct, non-zero
/// points; `1, 2, …, count` are guaranteed distinct whenever
/// `count < q`, which always holds for the protocol sizes of interest
/// (`count ≤ N ≪ q`).
///
/// # Panics
///
/// Panics if `count >= F::MODULUS` (cannot produce that many distinct
/// non-zero points).
pub fn evaluation_points<F: Field>(count: usize) -> Vec<F> {
    assert!(
        (count as u64) < F::MODULUS,
        "cannot derive {count} distinct points in a field of size {}",
        F::MODULUS
    );
    (1..=count as u64).map(F::from_u64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluation_points_are_distinct_and_nonzero() {
        let pts = evaluation_points::<Fp32>(64);
        assert_eq!(pts.len(), 64);
        for (i, p) in pts.iter().enumerate() {
            assert!(!p.is_zero());
            for q in &pts[i + 1..] {
                assert_ne!(p, q);
            }
        }
    }

    #[test]
    fn signed_roundtrip() {
        for v in [-5i64, -1, 0, 1, 5, 1000, -1000] {
            assert_eq!(Fp32::from_i64(v).to_signed(), v);
            assert_eq!(Fp61::from_i64(v).to_signed(), v);
        }
    }

    /// Eq. (36) boundary regression: the residue `(q−1)/2` satisfies
    /// `x < q/2` and must decode as the maximum *positive* value, not
    /// wrap to `−(q+1)/2`; `(q+1)/2` is the first negative residue and
    /// `q−1` is `−1`.
    fn signed_boundary<F: Field>() {
        let half = (F::MODULUS - 1) / 2;
        assert_eq!(F::from_u64(half).to_signed(), half as i64);
        assert_eq!(F::from_u64(half + 1).to_signed(), -(half as i64));
        assert_eq!(F::from_u64(F::MODULUS - 1).to_signed(), -1);
        // and both extremes round-trip through from_i64
        assert_eq!(F::from_i64(half as i64).to_signed(), half as i64);
        assert_eq!(F::from_i64(-(half as i64)).to_signed(), -(half as i64));
    }

    #[test]
    fn signed_boundary_fp32() {
        signed_boundary::<Fp32>();
    }

    #[test]
    fn signed_boundary_fp61() {
        signed_boundary::<Fp61>();
    }
}
