//! `GF(2^61 − 1)` — a Mersenne-prime field with fast reduction.
//!
//! Used to validate that the coding and protocol layers are field-generic,
//! and as a larger field when aggregating many quantized updates would risk
//! wrap-around in `GF(2^32 − 5)`.

use crate::Field;
use core::fmt;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use rand::Rng;

/// The modulus `q = 2^61 − 1` (a Mersenne prime).
pub(crate) const P61: u64 = (1u64 << 61) - 1;

/// An element of `GF(2^61 − 1)` stored as its canonical residue.
///
/// Multiplication uses `u128` intermediates with Mersenne folding
/// (`hi*2^61 + lo ≡ hi + lo (mod 2^61 − 1)`), which is branch-light and
/// noticeably faster than a generic `%`.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct Fp61(u64);

#[inline]
fn reduce128(x: u128) -> u64 {
    // Fold twice: after one fold the value is < 2^62, after the second
    // it is < 2^61 + 1, so a single conditional subtraction finishes.
    let lo = (x as u64) & P61;
    let hi = (x >> 61) as u64;
    let mut s = lo + hi;
    if s >= P61 {
        s -= P61;
    }
    s
}

impl Field for Fp61 {
    const MODULUS: u64 = P61;
    const ZERO: Self = Self(0);
    const ONE: Self = Self(1);
    const BITS: u32 = 61;

    type Wide = u128;
    /// Products are accumulated **unfolded** (see
    /// [`Field::wide_mul_add`]): each term is `< 2^122`, so 63 of them
    /// fit in a `u128` (`63·2^122 < 2^128`). The bulk kernels re-fold
    /// automatically past this bound.
    const WIDE_CAPACITY: u64 = 63;

    #[inline]
    fn to_wide(self) -> u128 {
        self.0 as u128
    }

    #[inline]
    fn wide_add(acc: u128, x: Self) -> u128 {
        acc + x.0 as u128
    }

    #[inline]
    fn wide_mul_add(acc: u128, c: Self, x: Self) -> u128 {
        // No per-term folding at all — the 122-bit product rides in the
        // u128 accumulator as-is (the kernel re-folds every
        // `WIDE_CAPACITY` terms), so the inner loop is one widening
        // multiply and one add.
        acc + c.0 as u128 * x.0 as u128
    }

    #[inline]
    fn wide_reduce(acc: u128) -> Self {
        // acc < 2^128 ⇒ first fold < 2^67 + 2^61 ⇒ second fold fits u64
        // and sits below 2^61 + 64; one conditional subtraction finishes.
        let s = (acc >> 61) + (acc & P61 as u128);
        let mut t = ((s >> 61) + (s & P61 as u128)) as u64;
        if t >= P61 {
            t -= P61;
        }
        Self(t)
    }

    #[inline]
    fn from_u64(value: u64) -> Self {
        // value < 2^64 = 8·(2^61) so two folds suffice.
        let mut v = (value & P61) + (value >> 61);
        if v >= P61 {
            v -= P61;
        }
        Self(v)
    }

    #[inline]
    fn residue(self) -> u64 {
        self.0
    }

    fn inv(self) -> Option<Self> {
        if self.0 == 0 {
            None
        } else {
            Some(self.pow(P61 - 2))
        }
    }

    #[inline]
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        loop {
            let v = rng.gen::<u64>() >> 3; // 61 random bits
            if v < P61 {
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

    fn simd_eval_points(
        backend: crate::simd::Backend,
        segs: &[&[Self]],
        points: &[Self],
    ) -> Option<Vec<Vec<Self>>> {
        #[cfg(target_arch = "x86_64")]
        if backend.has_avx2() {
            // SAFETY: as in `simd_weighted_block`.
            return unsafe { avx2::eval_points(segs, points) };
        }
        let _ = (backend, segs, points);
        None
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

/// AVX2 kernels over four `u64` lanes.
///
/// The scalar path accumulates **unfolded 122-bit products** in a
/// `u128` — a representation with no 4-lane AVX2 analogue. The SIMD
/// path therefore uses its own exact-mod-`q` representation (the
/// [`Field::simd_weighted_block`] contract demands bit-identical
/// *outputs*, not matching accumulators): each `c·x` product is built
/// from 32-bit limbs and folded to `< 2^61 + 4` immediately, and a
/// `u64` lane absorbs [`LANE_CAPACITY`] such terms between re-folds.
///
/// With `c = c₀ + c₁·2^32`, `x = x₀ + x₁·2^32` (`c₀,x₀ < 2^32`;
/// `c₁,x₁ < 2^29`):
///
/// * `p₀₀ = c₀·x₀ < 2^64` folds as `(p₀₀ >> 61) + (p₀₀ & q)`;
/// * `pₘ = c₀·x₁ + c₁·x₀ < 2^62` carries a `2^32` factor, and since
///   `v·2^32 ≡ (v mod 2^29)·2^32 + (v >> 29) (mod q)` it folds as
///   `((pₘ & (2^29−1)) << 32) + (pₘ >> 29) < 2^61 + 2^33`;
/// * `p₁₁ = c₁·x₁ < 2^58` carries `2^64 ≡ 2^3`, i.e. `p₁₁ << 3 < 2^61`.
///
/// Their sum is `< 3·2^61 + 2^34 < 2^63`, and one more fold brings the
/// finished term below `2^61 + 4`.
///
/// That is the price of a full-width coefficient. The Vandermonde
/// encode multiplies by a square `β²` below `2^20`, and
/// [`eval_points`](avx2::eval_points) keeps only what such a
/// multiplier needs: the `p₀₀` and `pₘ` limbs, unfolded, in a Horner
/// recurrence whose accumulator provably stays in its lane
/// (`horner_step`).
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Fp61, P61};
    use crate::ops::BLOCK;
    use crate::Field;
    use core::arch::x86_64::*;

    /// Terms of size `< 2^61 + 8` a `u64` lane absorbs before a re-fold
    /// (`7·(2^61 + 8) < 2^64`; an eighth term could overflow).
    const LANE_CAPACITY: u64 = 7;

    // Pin the bound proofs the kernels rely on.
    #[allow(clippy::assertions_on_constants)]
    const _: () = {
        // product-term fold output and re-folded lane both fit the
        // "< 2^61 + 8" budget LANE_CAPACITY assumes
        assert!((LANE_CAPACITY as u128) * ((1u128 << 61) + 8) < (1u128 << 64));
        // the three folded limb contributions sum below 2^63, so the
        // final per-term fold's shift sees no truncated bits
        assert!((1u128 << 61) + 8 + (1u128 << 61) + (1u128 << 33) + (1u128 << 61) < (1u128 << 63));
    };

    /// One Mersenne fold `(t >> 61) + (t & q)`, lanewise.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn fold(t: __m256i, p: __m256i) -> __m256i {
        _mm256_add_epi64(_mm256_srli_epi64::<61>(t), _mm256_and_si256(t, p))
    }

    /// Lanewise `c·x mod`-folded term, `< 2^61 + 4`, via the limb
    /// decomposition described on the module.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mul_term(c: __m256i, c_hi: __m256i, x: __m256i, p: __m256i) -> __m256i {
        let x_hi = _mm256_srli_epi64::<32>(x);
        let p00 = _mm256_mul_epu32(c, x); // c0·x0, exact
        let pm = _mm256_add_epi64(_mm256_mul_epu32(c, x_hi), _mm256_mul_epu32(c_hi, x));
        let p11 = _mm256_mul_epu32(c_hi, x_hi);
        let mask29 = _mm256_set1_epi64x((1 << 29) - 1);
        let f00 = fold(p00, p);
        let fm = _mm256_add_epi64(
            _mm256_slli_epi64::<32>(_mm256_and_si256(pm, mask29)),
            _mm256_srli_epi64::<29>(pm),
        );
        let f11 = _mm256_slli_epi64::<3>(p11);
        let term = _mm256_add_epi64(f00, _mm256_add_epi64(fm, f11));
        fold(term, p)
    }

    /// Re-fold every lane of a scratch back under `2^61 + 8` (each
    /// folded lane thereafter counts as one absorbed term).
    #[inline]
    fn refold(wide: &mut [u64]) {
        for w in wide.iter_mut() {
            *w = (*w >> 61) + (*w & P61);
        }
    }

    /// Collapse a lane accumulator to its canonical residue.
    #[inline]
    fn lane_reduce(acc: u64) -> u64 {
        let s = (acc >> 61) + (acc & P61);
        let mut t = (s >> 61) + (s & P61);
        if t >= P61 {
            t -= P61;
        }
        t
    }

    /// Canonical lanewise reduction: two folds, then one conditional
    /// subtraction (values stay far below `2^63`, so the signed compare
    /// is exact).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn reduce_vec(acc: __m256i, p: __m256i) -> __m256i {
        let v = fold(acc, p); // < 2^61 + 8
        let w = fold(v, p); // <= 2^61
        let lt = _mm256_cmpgt_epi64(p, w);
        let sub = _mm256_andnot_si256(lt, p); // p where w >= p
        _mm256_sub_epi64(w, sub)
    }

    /// Scalar replica of [`mul_term`] for loop tails — same limb
    /// decomposition, same `< 2^61 + 4` output bound.
    #[inline]
    fn scalar_term(c: u64, x: u64) -> u64 {
        let (c0, c1) = (c & 0xFFFF_FFFF, c >> 32);
        let (x0, x1) = (x & 0xFFFF_FFFF, x >> 32);
        let p00 = c0 * x0;
        let pm = c0 * x1 + c1 * x0;
        let p11 = c1 * x1;
        let f00 = (p00 >> 61) + (p00 & P61);
        let fm = ((pm & ((1 << 29) - 1)) << 32) + (pm >> 29);
        let f11 = p11 << 3;
        let term = f00 + fm + f11;
        (term >> 61) + (term & P61)
    }

    /// The fused weighted-sum block kernel
    /// (see [`Field::simd_weighted_block`] for the contract).
    ///
    /// Strip-major: each 8-element strip keeps its accumulators in two
    /// registers across *all* terms, so the only per-term memory traffic
    /// is the input load — the scalar path's widened scratch (and its
    /// per-term load/store of the accumulator) disappears entirely.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn weighted_block(
        block: &mut [Fp61],
        coeffs: &[Fp61],
        inputs: &[&[Fp61]],
        offset: usize,
    ) {
        let n = block.len();
        debug_assert!(n <= BLOCK);
        let p = _mm256_set1_epi64x(P61 as i64);
        let mut k = 0;
        while k + 8 <= n {
            let base = block.as_ptr().add(k);
            let mut a0 = _mm256_loadu_si256(base as *const __m256i);
            let mut a1 = _mm256_loadu_si256(base.add(4) as *const __m256i);
            // the seed residue counts as one absorbed term
            let mut terms: u64 = 1;
            for (&c, v) in coeffs.iter().zip(inputs) {
                if c == Fp61::ZERO {
                    continue;
                }
                if terms == LANE_CAPACITY {
                    a0 = fold(a0, p);
                    a1 = fold(a1, p);
                    terms = 1;
                }
                let src = v.as_ptr().add(offset + k);
                let x0 = _mm256_loadu_si256(src as *const __m256i);
                let x1 = _mm256_loadu_si256(src.add(4) as *const __m256i);
                if c == Fp61::ONE {
                    a0 = _mm256_add_epi64(a0, x0);
                    a1 = _mm256_add_epi64(a1, x1);
                } else {
                    let cs = _mm256_set1_epi64x(c.0 as i64);
                    let cs_hi = _mm256_srli_epi64::<32>(cs);
                    a0 = _mm256_add_epi64(a0, mul_term(cs, cs_hi, x0, p));
                    a1 = _mm256_add_epi64(a1, mul_term(cs, cs_hi, x1, p));
                }
                terms += 1;
            }
            _mm256_storeu_si256(block.as_mut_ptr().add(k) as *mut __m256i, reduce_vec(a0, p));
            _mm256_storeu_si256(
                block.as_mut_ptr().add(k + 4) as *mut __m256i,
                reduce_vec(a1, p),
            );
            k += 8;
        }
        // scalar tail (< 8 elements) on the same lane representation
        while k < n {
            let mut acc = block[k].0;
            let mut terms: u64 = 1;
            for (&c, v) in coeffs.iter().zip(inputs) {
                if c == Fp61::ZERO {
                    continue;
                }
                if terms == LANE_CAPACITY {
                    acc = (acc >> 61) + (acc & P61);
                    terms = 1;
                }
                let x = v[offset + k].0;
                acc += if c == Fp61::ONE {
                    x
                } else {
                    scalar_term(c.0, x)
                };
                terms += 1;
            }
            block[k] = Fp61(lane_reduce(acc));
            k += 1;
        }
    }

    /// Inner product: four parallel lane accumulators on the
    /// [`LANE_CAPACITY`] cadence, collapsed exactly at the end.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn dot(x: &[Fp61], y: &[Fp61]) -> Fp61 {
        debug_assert_eq!(x.len(), y.len());
        let n = x.len();
        let p = _mm256_set1_epi64x(P61 as i64);
        let mut acc = _mm256_setzero_si256();
        let mut terms: u64 = 0;
        let mut k = 0;
        while k + 4 <= n {
            if terms == LANE_CAPACITY {
                let mut lanes = [0u64; 4];
                _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
                refold(&mut lanes);
                acc = _mm256_loadu_si256(lanes.as_ptr() as *const __m256i);
                terms = 1;
            }
            let xs = _mm256_loadu_si256(x.as_ptr().add(k) as *const __m256i);
            let xs_hi = _mm256_srli_epi64::<32>(xs);
            let ys = _mm256_loadu_si256(y.as_ptr().add(k) as *const __m256i);
            acc = _mm256_add_epi64(acc, mul_term(xs, xs_hi, ys, p));
            terms += 1;
            k += 4;
        }
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
        // canonical lane residues sum below 2^63; tail products ride the
        // scalar unfolded-u128 path, which has capacity to spare
        let mut wide: u128 = lanes.iter().map(|&l| lane_reduce(l) as u128).sum();
        while k < n {
            wide = Fp61::wide_mul_add(wide, x[k], y[k]);
            k += 1;
        }
        Fp61::wide_reduce(wide)
    }

    /// The one-pass pad step (see [`Field::simd_add_words`] for the
    /// contract), eight words a group: mask each 8-byte word to 61 bits,
    /// stop at a group holding `q` itself (the one rejected value), and
    /// add into the mask as `a − (q − w)`, adding `q` back on a borrow
    /// (`SUB` subtracts `w` the same way).
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    ///
    /// # Panics
    ///
    /// Panics unless `words` holds one 8-byte word per element of `acc`.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn add_words<const SUB: bool>(acc: &mut [Fp61], words: &[u8]) -> usize {
        assert_eq!(words.len(), 8 * acc.len(), "one 8-byte word per element");
        let p = _mm256_set1_epi64x(P61 as i64);
        let mut k = 0;
        while k + 8 <= acc.len() {
            // in bounds: 8 words from word `k` end within `words` (the
            // length assert) and 8 elements from `k` within `acc`
            let src = words.as_ptr().add(8 * k) as *const __m256i;
            let w0 = _mm256_and_si256(_mm256_loadu_si256(src), p);
            let w1 = _mm256_and_si256(_mm256_loadu_si256(src.add(1)), p);
            let rejected = _mm256_or_si256(_mm256_cmpeq_epi64(w0, p), _mm256_cmpeq_epi64(w1, p));
            if _mm256_testz_si256(rejected, rejected) == 0 {
                break;
            }
            let (x0, x1) = if SUB {
                (w0, w1)
            } else {
                (_mm256_sub_epi64(p, w0), _mm256_sub_epi64(p, w1))
            };
            let dst = acc.as_mut_ptr().add(k) as *mut __m256i;
            _mm256_storeu_si256(dst, sub_mod(_mm256_loadu_si256(dst), x0, p));
            _mm256_storeu_si256(dst.add(1), sub_mod(_mm256_loadu_si256(dst.add(1)), x1, p));
            k += 8;
        }
        k
    }

    /// Lanewise `a − x mod q` for canonical `a` and `x ≤ q`: the
    /// difference is exact in a signed lane and negative exactly on a
    /// borrow, where `q` is added back.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sub_mod(a: __m256i, x: __m256i, p: __m256i) -> __m256i {
        let d = _mm256_sub_epi64(a, x);
        let borrow = _mm256_cmpgt_epi64(_mm256_setzero_si256(), d);
        _mm256_add_epi64(d, _mm256_and_si256(borrow, p))
    }

    /// Evaluation points below this take the single-limb Horner step
    /// of [`eval_points`]: the multiplier fits one 32-bit limb with 12
    /// bits to spare, which is what keeps the accumulator bounded
    /// without a fold. The Vandermonde encode evaluates at `β²` for
    /// `β ≤ ⌈N/2⌉`, so every cohort up to `N = 2046` takes it.
    const POINT_LIMIT: u64 = 1 << 20;

    /// Exclusive bound the Horner accumulator stays under at every step.
    const HORNER_BOUND: u64 = (1 << 62) + (1 << 53);

    const LIMB: u64 = 0xFFFF_FFFF;

    // Pin the Horner bound: from the largest accumulator, the largest
    // point and the largest residue, one step lands under the bound
    // again (a canonical top segment starts under it).
    #[allow(clippy::assertions_on_constants)]
    const _: () = {
        let beta = (POINT_LIMIT - 1) as u128;
        let hi = ((HORNER_BOUND - 1) >> 32) as u128;
        // the high limb and `8β` are valid 32-bit multiplicands
        assert!(hi < 1 << 32 && 8 * beta < 1 << 32);
        let low = LIMB as u128 * beta;
        let wrapped = ((LIMB as u128) << 29) + ((hi * 8 * beta) >> 32);
        assert!(low + wrapped + (P61 as u128 - 1) < HORNER_BOUND as u128);
        // `reduce_vec` / `lane_reduce` take lanes whose first fold lands
        // under 2^61 + 8
        assert!(HORNER_BOUND >> 61 < 8);
    };

    /// One Horner step `acc·β + s (mod q)` for `β <` [`POINT_LIMIT`]
    /// and `acc <` [`HORNER_BOUND`], unreduced but under the bound
    /// again. With `acc = lo + hi·2^32` the low product `lo·β < 2^52`
    /// is exact, and the high product `v = hi·β` carries `2^32`, which
    /// wraps as in the module's `pₘ` fold: `(v mod 2^29)·2^32 + (v >>
    /// 29)`. Taken on `w = 8v = hi·8β` that is `(w mod 2^32)·2^29 +
    /// (w >> 32)`, whose mask-and-shift is a one-limb multiply too.
    /// The SIMD twin is [`horner_step_vec`]; this one serves the loop
    /// tail in checked `u64` arithmetic.
    #[inline]
    fn horner_step(acc: u64, beta: u64, s: u64) -> u64 {
        let w = (acc >> 32) * (8 * beta);
        (acc & LIMB) * beta + ((w & LIMB) << 29) + (w >> 32) + s
    }

    /// `vpmuludq` itself: the product of the low 32 bits of each lane.
    /// `_mm256_mul_epu32` reaches LLVM as a generic 64-bit multiply of
    /// masked operands; with the point fixed across the row loop its
    /// mask is hoisted out, the loop body no longer shows that the
    /// operand is one limb wide, and every product comes back as two
    /// multiplies, a shift and an add (and a product by `2^29` as the
    /// mask and shift it stands in for).
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mul_lo32(a: __m256i, b: __m256i) -> __m256i {
        let r: __m256i;
        core::arch::asm!(
            "vpmuludq {r}, {a}, {b}",
            r = lateout(ymm_reg) r,
            a = in(ymm_reg) a,
            b = in(ymm_reg) b,
            options(pure, nomem, nostack, preserves_flags),
        );
        r
    }

    /// Lanewise [`horner_step`] with `betas = (β, 8β)`: three
    /// `vpmuludq` (which reads only the low 32 bits of each lane, so
    /// `acc` is its own low limb and `w` its own `w mod 2^32`), a
    /// shuffle, a shift and three adds — no fold.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn horner_step_vec(
        acc: __m256i,
        betas: (__m256i, __m256i),
        s: __m256i,
        two29: __m256i,
    ) -> __m256i {
        // each lane's high dword, copied over its low one
        let hi = _mm256_shuffle_epi32::<0xF5>(acc);
        let w = mul_lo32(hi, betas.1);
        let low = mul_lo32(acc, betas.0);
        let wrapped = _mm256_add_epi64(mul_lo32(w, two29), _mm256_srli_epi64::<32>(w));
        _mm256_add_epi64(_mm256_add_epi64(low, s), wrapped)
    }

    /// `P` points × the 8-element strip at `k`, whose segment rows
    /// arrive packed in `rows` (8 elements each, lowest degree first):
    /// `2·P` independent Horner chains down the rows, which is what
    /// hides the multiply latency.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available. (Every 256-bit load and
    /// store below goes through a bounds-checked 4-element slice of the
    /// `repr(transparent)` `Fp61`, exactly the 32 bytes it touches, so
    /// a short `outs`, `points` or `rows` panics instead.)
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn horner_strip<const P: usize>(
        outs: &mut [Vec<Fp61>],
        points: &[Fp61],
        rows: &[Fp61],
        k: usize,
    ) {
        let load = |row: &[Fp61]| {
            (
                _mm256_loadu_si256(row[..4].as_ptr() as *const __m256i),
                _mm256_loadu_si256(row[4..8].as_ptr() as *const __m256i),
            )
        };
        let two29 = _mm256_set1_epi64x(1 << 29);
        let betas: [_; P] = core::array::from_fn(|i| {
            let beta = points[i].0 as i64;
            (_mm256_set1_epi64x(beta), _mm256_set1_epi64x(8 * beta))
        });
        let mut rows = rows.chunks_exact(8).rev();
        let (s0, s1) = load(rows.next().expect("at least one segment"));
        let (mut a0, mut a1) = ([s0; P], [s1; P]);
        for row in rows {
            let (s0, s1) = load(row);
            for i in 0..P {
                a0[i] = horner_step_vec(a0[i], betas[i], s0, two29);
                a1[i] = horner_step_vec(a1[i], betas[i], s1, two29);
            }
        }
        let p = _mm256_set1_epi64x(P61 as i64);
        for i in 0..P {
            let dst = &mut outs[i][k..k + 8];
            _mm256_storeu_si256(dst[..4].as_mut_ptr() as *mut __m256i, reduce_vec(a0[i], p));
            _mm256_storeu_si256(dst[4..].as_mut_ptr() as *mut __m256i, reduce_vec(a1[i], p));
        }
    }

    /// All the evaluations `Σ_k segs[k]·β^k`, `β` over `points` (see
    /// [`Field::simd_eval_points`] for the contract), as true Horner
    /// recurrences on the single-limb step.
    ///
    /// Strip-major, four points to a register block: the rows of one
    /// 8-element strip are gathered from the segments once and then
    /// read from L1 for every block of points, instead of streaming
    /// every segment once per point.
    ///
    /// `None`, with nothing computed, if a point is not below
    /// [`POINT_LIMIT`]: the bound proof does not cover it.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    ///
    /// # Panics
    ///
    /// Panics if `segs` is empty or ragged.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn eval_points(segs: &[&[Fp61]], points: &[Fp61]) -> Option<Vec<Vec<Fp61>>> {
        if points.iter().any(|p| p.0 >= POINT_LIMIT) {
            return None;
        }
        let (top, rest) = segs.split_last().expect("at least one segment");
        let len = top.len();
        let mut outs = vec![vec![Fp61::ZERO; len]; points.len()];
        let mut rows = vec![Fp61::ZERO; 8 * segs.len()];
        let blocks = points.len() / 4 * 4;
        let mut k = 0;
        while k + 8 <= len {
            for (row, seg) in rows.chunks_exact_mut(8).zip(segs) {
                row.copy_from_slice(&seg[k..k + 8]);
            }
            for j in (0..blocks).step_by(4) {
                horner_strip::<4>(&mut outs[j..], &points[j..], &rows, k);
            }
            let (outs, points) = (&mut outs[blocks..], &points[blocks..]);
            match points.len() {
                1 => horner_strip::<1>(outs, points, &rows, k),
                2 => horner_strip::<2>(outs, points, &rows, k),
                3 => horner_strip::<3>(outs, points, &rows, k),
                _ => {}
            }
            k += 8;
        }
        // scalar tail (< 8 elements) on the same recurrence
        for (out, beta) in outs.iter_mut().zip(points) {
            for k in k..len {
                let acc = rest
                    .iter()
                    .rev()
                    .fold(top[k].0, |acc, seg| horner_step(acc, beta.0, seg[k].0));
                out[k] = Fp61(lane_reduce(acc));
            }
        }
        Some(outs)
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::simd::detected;

        fn worst() -> Fp61 {
            Fp61(P61 - 1)
        }

        #[test]
        fn scalar_term_is_exact_mod_q() {
            for (c, x) in [
                (P61 - 1, P61 - 1),
                (P61 - 1, 1),
                (0xFFFF_FFFF, P61 - 1),
                (1 << 60, 1 << 60),
                (123_456_789_012_345, 987_654_321_098_765),
            ] {
                let term = scalar_term(c, x);
                assert!(term < (1 << 61) + 8, "fold bound violated");
                assert_eq!(
                    Fp61::from_u64(lane_reduce(term)),
                    Fp61(c % P61) * Fp61(x % P61)
                );
            }
        }

        #[test]
        fn weighted_block_worst_case_matches_scalar() {
            if !detected().has_avx2() {
                return;
            }
            // 2·LANE_CAPACITY + 3 all-(q−1) terms: crosses the re-fold
            // cadence twice, with a non-multiple-of-4 block length
            let terms = (2 * LANE_CAPACITY + 3) as usize;
            let len = 19;
            let coeffs = vec![worst(); terms];
            let owned: Vec<Vec<Fp61>> = vec![vec![worst(); len]; terms];
            let inputs: Vec<&[Fp61]> = owned.iter().map(Vec::as_slice).collect();
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
            // long enough to re-fold, with a 3-element scalar tail
            let len = 4 * (LANE_CAPACITY as usize) * 3 + 3;
            let x = vec![worst(); len];
            let y = vec![worst(); len];
            // SAFETY: detection checked above.
            let got = unsafe { dot(&x, &y) };
            assert_eq!(got, crate::ops::reference::dot(&x, &y));
        }

        #[test]
        fn horner_step_is_exact_and_stays_under_its_bound() {
            for acc in [0, 1, LIMB, LIMB + 1, P61 - 1, HORNER_BOUND - 1] {
                for beta in [0, 1, 2, 200, POINT_LIMIT - 1] {
                    for s in [0, 1, P61 - 1] {
                        let next = horner_step(acc, beta, s);
                        assert!(next < HORNER_BOUND, "bound violated");
                        assert_eq!(
                            Fp61(lane_reduce(next)),
                            Fp61::from_u64(acc) * Fp61(beta) + Fp61(s)
                        );
                    }
                }
            }
        }
    }
}

impl Add for Fp61 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        let mut s = self.0 + rhs.0; // < 2^62, no overflow
        if s >= P61 {
            s -= P61;
        }
        Self(s)
    }
}

impl Sub for Fp61 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        let (d, borrow) = self.0.overflowing_sub(rhs.0);
        Self(if borrow { d.wrapping_add(P61) } else { d })
    }
}

impl Mul for Fp61 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self(reduce128(self.0 as u128 * rhs.0 as u128))
    }
}

impl Neg for Fp61 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        if self.0 == 0 {
            self
        } else {
            Self(P61 - self.0)
        }
    }
}

impl AddAssign for Fp61 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl SubAssign for Fp61 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl MulAssign for Fp61 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Sum for Fp61 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

impl Product for Fp61 {
    fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ONE, |a, b| a * b)
    }
}

impl fmt::Debug for Fp61 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fp61({})", self.0)
    }
}

impl fmt::Display for Fp61 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for Fp61 {
    fn from(value: u64) -> Self {
        Self::from_u64(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce128_handles_extremes() {
        assert_eq!(reduce128(0), 0);
        assert_eq!(reduce128(P61 as u128), 0);
        assert_eq!(reduce128((P61 as u128) * (P61 as u128)), 0);
        assert_eq!(reduce128(u128::from(u64::MAX)), u64::MAX % P61);
    }

    #[test]
    fn square_of_modulus_is_zero() {
        let q = Fp61::from_u64(P61);
        assert_eq!(q, Fp61::ZERO);
        assert_eq!(q * q, Fp61::ZERO);
    }

    #[test]
    fn minus_one_squared() {
        let m1 = -Fp61::ONE;
        assert_eq!(m1 * m1, Fp61::ONE);
    }

    #[test]
    fn from_u64_reduces_max() {
        let x = Fp61::from_u64(u64::MAX);
        assert!(x.residue() < P61);
        assert_eq!(x.residue(), u64::MAX % P61);
    }

    #[test]
    fn fermat_inverse() {
        let x = Fp61::from_u64(987654321);
        assert_eq!(x * x.inv().unwrap(), Fp61::ONE);
    }
}
