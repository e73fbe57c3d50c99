//! `GF(2^32 − 5)` — the field used by the LightSecAgg paper
//! (`q = 4294967291`, the largest prime below `2^32`; Appendix F.5).

use crate::Field;
use core::fmt;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use rand::Rng;

/// The modulus `q = 2^32 − 5`.
pub(crate) const P32: u64 = 4_294_967_291;

/// An element of `GF(2^32 − 5)` stored as its canonical residue.
///
/// Products are computed in `u64`, so no intermediate overflow is possible.
///
/// # Example
///
/// ```
/// use lsa_field::{Field, Fp32};
/// let x = Fp32::from_u64(Fp32::MODULUS - 1); // −1
/// assert_eq!(x + Fp32::ONE, Fp32::ZERO);
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct Fp32(u32);

impl Field for Fp32 {
    const MODULUS: u64 = P32;
    const ZERO: Self = Self(0);
    const ONE: Self = Self(1);
    const BITS: u32 = 32;

    type Wide = u64;
    /// Each partially-folded product is `< 6·2^32` (see
    /// [`Field::wide_mul_add`]), so `⌊(2^64−1)/(6·2^32)⌋ > 2^29` terms
    /// fit in a `u64`.
    const WIDE_CAPACITY: u64 = 1 << 29;

    #[inline]
    fn to_wide(self) -> u64 {
        self.0 as u64
    }

    #[inline]
    fn wide_add(acc: u64, x: Self) -> u64 {
        acc + x.0 as u64
    }

    #[inline]
    fn wide_mul_add(acc: u64, c: Self, x: Self) -> u64 {
        // 2^32 ≡ 5 (mod q): one fold brings the u64 product under
        // 5·(2^32−1) + 2^32 < 6·2^32, with no division anywhere.
        let t = c.0 as u64 * x.0 as u64;
        acc + (t >> 32) * 5 + (t & 0xFFFF_FFFF)
    }

    #[inline]
    fn wide_reduce(acc: u64) -> Self {
        // Two folds bring any u64 under 2^32 + 40; one conditional
        // subtraction finishes.
        let v = (acc >> 32) * 5 + (acc & 0xFFFF_FFFF); // < 5·2^32 + 2^32
        let mut w = (v >> 32) * 5 + (v & 0xFFFF_FFFF); // < 2^32 + 40
        if w >= P32 {
            w -= P32;
        }
        Self(w as u32)
    }

    #[inline]
    fn from_u64(value: u64) -> Self {
        Self((value % P32) as u32)
    }

    #[inline]
    fn residue(self) -> u64 {
        self.0 as u64
    }

    fn inv(self) -> Option<Self> {
        if self.0 == 0 {
            None
        } else {
            Some(self.pow(P32 - 2))
        }
    }

    #[inline]
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // Rejection sampling over u32: only 5 values out of 2^32 rejected.
        loop {
            let v = rng.gen::<u32>();
            if (v as u64) < P32 {
                return Self(v);
            }
        }
    }

    fn simd_weighted_block(
        backend: crate::simd::Backend,
        block: &mut [Self],
        coeffs: &[Self],
        inputs: &[&[Self]],
        offset: usize,
    ) -> bool {
        #[cfg(target_arch = "x86_64")]
        if backend.has_avx2() {
            // SAFETY: `crate::simd` only produces a SIMD backend after
            // `is_x86_feature_detected!("avx2")`.
            unsafe { avx2::weighted_block(block, coeffs, inputs, offset) };
            return true;
        }
        let _ = (backend, block, coeffs, inputs, offset);
        false
    }

    fn simd_dot(backend: crate::simd::Backend, x: &[Self], y: &[Self]) -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        if backend.has_avx2() {
            // SAFETY: as in `simd_weighted_block`.
            return Some(unsafe { avx2::dot(x, y) });
        }
        let _ = (backend, x, y);
        None
    }

    fn simd_add_words(
        backend: crate::simd::Backend,
        acc: &mut [Self],
        words: &[u8],
        subtract: bool,
    ) -> usize {
        #[cfg(target_arch = "x86_64")]
        if backend.has_avx2() {
            // SAFETY: as in `simd_weighted_block`.
            return unsafe {
                if subtract {
                    avx2::add_words::<true>(acc, words)
                } else {
                    avx2::add_words::<false>(acc, words)
                }
            };
        }
        let _ = (backend, acc, words, subtract);
        0
    }
}

/// AVX2 kernels: four `u64` accumulator lanes per instruction, using the
/// **same** partial-fold arithmetic (`acc += (t >> 32)·5 + (t & 2³²−1)`)
/// and the same [`Field::WIDE_CAPACITY`] re-fold cadence as the scalar
/// `wide_*` primitives — so the accumulator contents, not just the
/// reduced outputs, match the scalar path exactly. The pad step
/// (`add_words`) only adds, so it stays in eight `u32` lanes.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Fp32, P32};
    use crate::ops::BLOCK;
    use crate::Field;
    use core::arch::x86_64::*;

    /// One partial fold: `(t >> 32)·5 + (t & 2³²−1)`, lanewise.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn fold(t: __m256i, mask32: __m256i) -> __m256i {
        let hi = _mm256_srli_epi64::<32>(t);
        let hi5 = _mm256_add_epi64(hi, _mm256_slli_epi64::<2>(hi));
        _mm256_add_epi64(hi5, _mm256_and_si256(t, mask32))
    }

    /// Canonical lanewise reduction: two folds, then one conditional
    /// subtraction (values stay far below `2^63`, so the signed compare
    /// is exact). Lanes keep their `u64` width.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn reduce_vec(acc: __m256i, mask32: __m256i, p: __m256i) -> __m256i {
        let v = fold(acc, mask32); // < 6·2^32
        let w = fold(v, mask32); // < 2^32 + 25
        let lt = _mm256_cmpgt_epi64(p, w);
        let sub = _mm256_andnot_si256(lt, p); // p where w >= p
        _mm256_sub_epi64(w, sub)
    }

    /// The fused weighted-sum block kernel
    /// (see [`Field::simd_weighted_block`] for the contract).
    ///
    /// Strip-major: each 16-element strip keeps its accumulators in four
    /// registers across *all* terms, so the only per-term memory traffic
    /// is the input load — the scalar path's widened scratch (and its
    /// per-term load/store of the accumulator) disappears entirely.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn weighted_block(
        block: &mut [Fp32],
        coeffs: &[Fp32],
        inputs: &[&[Fp32]],
        offset: usize,
    ) {
        let n = block.len();
        debug_assert!(n <= BLOCK);
        let mask32 = _mm256_set1_epi64x(0xFFFF_FFFF);
        let p = _mm256_set1_epi64x(P32 as i64);
        let idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
        let mut k = 0;
        while k + 16 <= n {
            let base = block.as_ptr().add(k);
            let mut a0 = _mm256_cvtepu32_epi64(_mm_loadu_si128(base as *const __m128i));
            let mut a1 = _mm256_cvtepu32_epi64(_mm_loadu_si128(base.add(4) as *const __m128i));
            let mut a2 = _mm256_cvtepu32_epi64(_mm_loadu_si128(base.add(8) as *const __m128i));
            let mut a3 = _mm256_cvtepu32_epi64(_mm_loadu_si128(base.add(12) as *const __m128i));
            // seed residue counts as one absorbed term
            let mut terms: u64 = 1;
            for (&c, v) in coeffs.iter().zip(inputs) {
                if c == Fp32::ZERO {
                    continue;
                }
                if terms == Fp32::WIDE_CAPACITY {
                    a0 = reduce_vec(a0, mask32, p);
                    a1 = reduce_vec(a1, mask32, p);
                    a2 = reduce_vec(a2, mask32, p);
                    a3 = reduce_vec(a3, mask32, p);
                    terms = 1;
                }
                let src = v.as_ptr().add(offset + k);
                let x0 = _mm256_cvtepu32_epi64(_mm_loadu_si128(src as *const __m128i));
                let x1 = _mm256_cvtepu32_epi64(_mm_loadu_si128(src.add(4) as *const __m128i));
                let x2 = _mm256_cvtepu32_epi64(_mm_loadu_si128(src.add(8) as *const __m128i));
                let x3 = _mm256_cvtepu32_epi64(_mm_loadu_si128(src.add(12) as *const __m128i));
                if c == Fp32::ONE {
                    a0 = _mm256_add_epi64(a0, x0);
                    a1 = _mm256_add_epi64(a1, x1);
                    a2 = _mm256_add_epi64(a2, x2);
                    a3 = _mm256_add_epi64(a3, x3);
                } else {
                    // lanes hold zero-extended u32s, so mul_epu32's
                    // low-32 × low-32 semantics give the exact product
                    let cs = _mm256_set1_epi64x(c.0 as i64);
                    a0 = _mm256_add_epi64(a0, fold(_mm256_mul_epu32(x0, cs), mask32));
                    a1 = _mm256_add_epi64(a1, fold(_mm256_mul_epu32(x1, cs), mask32));
                    a2 = _mm256_add_epi64(a2, fold(_mm256_mul_epu32(x2, cs), mask32));
                    a3 = _mm256_add_epi64(a3, fold(_mm256_mul_epu32(x3, cs), mask32));
                }
                terms += 1;
            }
            // reduce and narrow all four quarters, then two 8×u32 stores
            let w0 = _mm256_permutevar8x32_epi32(reduce_vec(a0, mask32, p), idx);
            let w1 = _mm256_permutevar8x32_epi32(reduce_vec(a1, mask32, p), idx);
            let w2 = _mm256_permutevar8x32_epi32(reduce_vec(a2, mask32, p), idx);
            let w3 = _mm256_permutevar8x32_epi32(reduce_vec(a3, mask32, p), idx);
            let lo = _mm256_inserti128_si256::<1>(w0, _mm256_castsi256_si128(w1));
            let hi = _mm256_inserti128_si256::<1>(w2, _mm256_castsi256_si128(w3));
            _mm256_storeu_si256(block.as_mut_ptr().add(k) as *mut __m256i, lo);
            _mm256_storeu_si256(block.as_mut_ptr().add(k + 8) as *mut __m256i, hi);
            k += 16;
        }
        // scalar tail (< 16 elements) on the `Wide` oracle path
        while k < n {
            let mut acc = block[k].to_wide();
            let mut terms: u64 = 1;
            for (&c, v) in coeffs.iter().zip(inputs) {
                if c == Fp32::ZERO {
                    continue;
                }
                if terms == Fp32::WIDE_CAPACITY {
                    acc = Fp32::wide_reduce(acc).to_wide();
                    terms = 1;
                }
                let x = v[offset + k];
                acc = if c == Fp32::ONE {
                    Fp32::wide_add(acc, x)
                } else {
                    Fp32::wide_mul_add(acc, c, x)
                };
                terms += 1;
            }
            block[k] = Fp32::wide_reduce(acc);
            k += 1;
        }
    }

    /// Inner product: four parallel lane accumulators with the scalar
    /// re-fold cadence per lane, collapsed exactly at the end.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn dot(x: &[Fp32], y: &[Fp32]) -> Fp32 {
        debug_assert_eq!(x.len(), y.len());
        let n = x.len();
        let mask32 = _mm256_set1_epi64x(0xFFFF_FFFF);
        let mut acc = _mm256_setzero_si256();
        let mut terms: u64 = 0;
        let mut k = 0;
        while k + 4 <= n {
            if terms == Fp32::WIDE_CAPACITY {
                // lanewise canonical re-fold, mirroring the scalar kernel
                let mut lanes = [0u64; 4];
                _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
                for l in lanes.iter_mut() {
                    *l = Fp32::wide_reduce(*l).to_wide();
                }
                acc = _mm256_loadu_si256(lanes.as_ptr() as *const __m256i);
                terms = 1;
            }
            let xs = _mm256_cvtepu32_epi64(_mm_loadu_si128(x.as_ptr().add(k) as *const __m128i));
            let ys = _mm256_cvtepu32_epi64(_mm_loadu_si128(y.as_ptr().add(k) as *const __m128i));
            let t = _mm256_mul_epu32(xs, ys);
            acc = _mm256_add_epi64(acc, fold(t, mask32));
            terms += 1;
            k += 4;
        }
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
        // canonical per-lane residues sum to < 4·2^32; tail terms are
        // each < 6·2^32, so the u64 accumulator has ample headroom
        let mut wide: u64 = lanes.iter().map(|&l| Fp32::wide_reduce(l).residue()).sum();
        while k < n {
            wide = Fp32::wide_mul_add(wide, x[k], y[k]);
            k += 1;
        }
        Fp32::wide_reduce(wide)
    }

    /// The one-pass pad step (see [`Field::simd_add_words`] for the
    /// contract), sixteen words a group in `u32` lanes: stop at a group
    /// holding a word `≥ q`, and add into the mask as `a − (q − w)`,
    /// adding `q` back on a borrow (`SUB` subtracts `w` the same way).
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    ///
    /// # Panics
    ///
    /// Panics unless `words` holds one 4-byte word per element of `acc`.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn add_words<const SUB: bool>(acc: &mut [Fp32], words: &[u8]) -> usize {
        assert_eq!(words.len(), 4 * acc.len(), "one 4-byte word per element");
        let p = _mm256_set1_epi32(P32 as u32 as i32);
        let mut k = 0;
        while k + 16 <= acc.len() {
            // in bounds: 16 words from word `k` end within `words` (the
            // length assert) and 16 elements from `k` within `acc`
            let src = words.as_ptr().add(4 * k) as *const __m256i;
            let (w0, w1) = (_mm256_loadu_si256(src), _mm256_loadu_si256(src.add(1)));
            let rejected = _mm256_or_si256(at_least(w0, p), at_least(w1, p));
            if _mm256_testz_si256(rejected, rejected) == 0 {
                break;
            }
            let (x0, x1) = if SUB {
                (w0, w1)
            } else {
                (_mm256_sub_epi32(p, w0), _mm256_sub_epi32(p, w1))
            };
            let dst = acc.as_mut_ptr().add(k) as *mut __m256i;
            _mm256_storeu_si256(dst, sub_mod(_mm256_loadu_si256(dst), x0, p));
            _mm256_storeu_si256(dst.add(1), sub_mod(_mm256_loadu_si256(dst.add(1)), x1, p));
            k += 16;
        }
        k
    }

    /// All-ones in each `u32` lane where `a ≥ b` (unsigned).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn at_least(a: __m256i, b: __m256i) -> __m256i {
        _mm256_cmpeq_epi32(_mm256_max_epu32(a, b), a)
    }

    /// Lanewise `a − x mod q` in `u32` lanes for canonical `a` and
    /// `x ≤ q`: the wrapped difference, plus `q` where `a < x`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sub_mod(a: __m256i, x: __m256i, p: __m256i) -> __m256i {
        let d = _mm256_sub_epi32(a, x);
        _mm256_add_epi32(d, _mm256_andnot_si256(at_least(a, x), p))
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::simd::detected;

        fn worst() -> Fp32 {
            Fp32(P32 as u32 - 1)
        }

        #[test]
        fn weighted_block_worst_case_matches_scalar() {
            if !detected().has_avx2() {
                return;
            }
            // all-(q−1) coefficients and inputs with a non-multiple-of-4
            // block length, so both the lane loop and the tail run
            let terms = 24;
            let len = 19;
            let coeffs = vec![worst(); terms];
            let owned: Vec<Vec<Fp32>> = vec![vec![worst(); len]; terms];
            let inputs: Vec<&[Fp32]> = owned.iter().map(Vec::as_slice).collect();
            let mut simd_out = vec![worst(); len];
            let mut scalar_out = simd_out.clone();
            // SAFETY: detection checked above.
            unsafe { weighted_block(&mut simd_out, &coeffs, &inputs, 0) };
            crate::ops::reference::weighted_sum_into(&mut scalar_out, &coeffs, &inputs);
            assert_eq!(simd_out, scalar_out);
        }

        #[test]
        fn dot_worst_case_matches_scalar() {
            if !detected().has_avx2() {
                return;
            }
            // 4·k + 3 so a 3-element scalar tail follows the lane loop
            let len = 4 * 25 + 3;
            let x = vec![worst(); len];
            let y = vec![worst(); len];
            // SAFETY: detection checked above.
            let got = unsafe { dot(&x, &y) };
            assert_eq!(got, crate::ops::reference::dot(&x, &y));
        }
    }
}

impl Add for Fp32 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        let s = self.0 as u64 + rhs.0 as u64;
        Self(if s >= P32 { (s - P32) as u32 } else { s as u32 })
    }
}

impl Sub for Fp32 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        let (d, borrow) = self.0.overflowing_sub(rhs.0);
        Self(if borrow {
            (d as u64).wrapping_add(P32) as u32
        } else {
            d
        })
    }
}

impl Mul for Fp32 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self(((self.0 as u64 * rhs.0 as u64) % P32) as u32)
    }
}

impl Neg for Fp32 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        if self.0 == 0 {
            self
        } else {
            Self((P32 - self.0 as u64) as u32)
        }
    }
}

impl AddAssign for Fp32 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl SubAssign for Fp32 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl MulAssign for Fp32 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Sum for Fp32 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

impl Product for Fp32 {
    fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ONE, |a, b| a * b)
    }
}

impl fmt::Debug for Fp32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fp32({})", self.0)
    }
}

impl fmt::Display for Fp32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for Fp32 {
    fn from(value: u32) -> Self {
        Self::from_u64(value as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modulus_is_prime_by_trial_division() {
        // One-off sanity check of the constant (sqrt(q) ≈ 65536).
        let q = P32;
        assert!(q % 2 == 1);
        let mut d = 3u64;
        while d * d <= q {
            assert_ne!(q % d, 0, "divisor {d}");
            d += 2;
        }
    }

    #[test]
    fn add_wraps() {
        let a = Fp32::from_u64(P32 - 1);
        assert_eq!((a + Fp32::ONE).residue(), 0);
        assert_eq!((a + a).residue(), P32 - 2);
    }

    #[test]
    fn sub_wraps() {
        let a = Fp32::ZERO;
        assert_eq!((a - Fp32::ONE).residue(), P32 - 1);
    }

    #[test]
    fn neg_zero_is_zero() {
        assert_eq!(-Fp32::ZERO, Fp32::ZERO);
    }

    #[test]
    fn inv_of_zero_is_none() {
        assert!(Fp32::ZERO.inv().is_none());
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let x = Fp32::from_u64(12345);
        let mut acc = Fp32::ONE;
        for e in 0..20u64 {
            assert_eq!(x.pow(e), acc);
            acc *= x;
        }
    }
}
