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

    fn simd_eval_pairs(
        backend: crate::simd::Backend,
        segs: &[&[Self]],
        pairs: &[(Self, crate::ops::Signs)],
    ) -> Option<Vec<Vec<Self>>> {
        #[cfg(target_arch = "x86_64")]
        match backend {
            // SAFETY: `crate::simd` only produces `Avx512` after
            // detecting avx512f (and avx2), `Avx2` after detecting avx2.
            crate::simd::Backend::Avx512 => return unsafe { avx2::eval_pairs_zmm(segs, pairs) },
            crate::simd::Backend::Avx2 => return unsafe { avx2::eval_pairs_ymm(segs, pairs) },
            crate::simd::Backend::Scalar => {}
        }
        let _ = (backend, segs, pairs);
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

/// x86 kernels: AVX2 over four `u64` lanes, and the `±β` pair kernel
/// over four (AVX2) or eight (AVX-512F) through the [`Lane`](avx2::Lane)
/// trait.
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
/// encode multiplies by a square `β²` below `2^20` and then by `β`, and
/// the pair kernel ([`eval_pairs`](avx2::eval_pairs)) keeps only what
/// such a multiplier needs: the `p₀₀` and `pₘ` limbs, unfolded, in a
/// Horner recurrence whose accumulator provably stays in its lane
/// ([`horner_step_vec`](avx2::horner_step_vec)).
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Fp61, P61};
    use crate::ops::{Signs, BLOCK};
    use crate::Field;
    use core::arch::x86_64::*;
    use core::mem::MaybeUninit;

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
    ///
    /// # Safety
    ///
    /// The CPU must have `L`'s feature.
    #[inline(always)]
    unsafe fn fold<L: Lane>(t: L, p: L) -> L {
        t.shr61().add(t.and(p))
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

    /// Canonical lanewise reduction of any `u64` lanes: one fold lands
    /// under `2^61 + 8 < 2q`, and one conditional subtraction of `q`
    /// finishes.
    ///
    /// # Safety
    ///
    /// The CPU must have `L`'s feature.
    #[inline(always)]
    unsafe fn reduce<L: Lane>(acc: L, p: L) -> L {
        fold(acc, p).csub(p)
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
            _mm256_storeu_si256(block.as_mut_ptr().add(k) as *mut __m256i, reduce(a0, p));
            _mm256_storeu_si256(block.as_mut_ptr().add(k + 4) as *mut __m256i, reduce(a1, p));
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

    /// One register of `u64` lanes: the folds and the pair kernel
    /// ([`eval_pairs`]) are written once over it, for `ymm` (AVX2, four
    /// lanes) and `zmm` (AVX-512F, eight lanes).
    ///
    /// # Safety
    ///
    /// Every method requires the CPU feature its impl enables.
    trait Lane: Copy {
        const WIDTH: usize;
        unsafe fn splat(x: u64) -> Self;
        /// The first `WIDTH` elements of `src`.
        unsafe fn load(src: &[Fp61]) -> Self;
        /// The first `min(dst.len(), WIDTH)` lanes, masked when short.
        unsafe fn store(self, dst: &mut [MaybeUninit<Fp61>]);
        unsafe fn add(self, b: Self) -> Self;
        unsafe fn sub(self, b: Self) -> Self;
        unsafe fn and(self, b: Self) -> Self;
        unsafe fn shr32(self) -> Self;
        unsafe fn shr61(self) -> Self;
        /// Each lane's high dword, copied over its low one.
        unsafe fn hi_dwords(self) -> Self;
        /// `vpmuludq` itself, through `asm!`: LLVM sees the `mul_epu32`
        /// intrinsics as 64-bit multiplies of masked operands, and once
        /// a loop hoists the mask out each costs two multiplies, a shift
        /// and an add.
        unsafe fn mul_lo32(self, b: Self) -> Self;
        /// `self − q` where `self ≥ q`, for `self < 2q` (`p` holds `q`).
        unsafe fn csub(self, p: Self) -> Self;
    }

    /// `impl Lane` for a register type: each method, one or two
    /// instructions that need `$feature`, and `mul_lo32` on the register
    /// class `$reg`.
    macro_rules! lane {
        ($ty:ty, $width:literal, $feature:literal, $reg:ident;
         $(fn $name:ident($($arg:tt)*) $(-> $ret:ty)? $body:block)*) => {
            impl Lane for $ty {
                const WIDTH: usize = $width;
                $(
                    #[inline]
                    #[target_feature(enable = $feature)]
                    unsafe fn $name($($arg)*) $(-> $ret)? $body
                )*
                #[inline]
                #[target_feature(enable = $feature)]
                unsafe fn mul_lo32(self, b: Self) -> Self {
                    let r: Self;
                    core::arch::asm!(
                        "vpmuludq {r}, {a}, {b}",
                        r = lateout($reg) r,
                        a = in($reg) self,
                        b = in($reg) b,
                        options(pure, nomem, nostack, preserves_flags),
                    );
                    r
                }
            }
        };
    }

    lane! { __m256i, 4, "avx2", ymm_reg;
        fn splat(x: u64) -> Self { _mm256_set1_epi64x(x as i64) }
        fn load(src: &[Fp61]) -> Self { _mm256_loadu_si256(src[..4].as_ptr() as *const _) }
        fn store(self, dst: &mut [MaybeUninit<Fp61>]) {
            if dst.len() >= 4 {
                _mm256_storeu_si256(dst[..4].as_mut_ptr() as *mut _, self);
            } else {
                let lanes = _mm256_setr_epi64x(0, 1, 2, 3);
                let mask = _mm256_cmpgt_epi64(_mm256_set1_epi64x(dst.len() as i64), lanes);
                _mm256_maskstore_epi64(dst.as_mut_ptr() as *mut i64, mask, self);
            }
        }
        fn add(self, b: Self) -> Self { _mm256_add_epi64(self, b) }
        fn sub(self, b: Self) -> Self { _mm256_sub_epi64(self, b) }
        fn and(self, b: Self) -> Self { _mm256_and_si256(self, b) }
        fn shr32(self) -> Self { _mm256_srli_epi64::<32>(self) }
        fn shr61(self) -> Self { _mm256_srli_epi64::<61>(self) }
        fn hi_dwords(self) -> Self { _mm256_shuffle_epi32::<0xF5>(self) }
        fn csub(self, p: Self) -> Self { sub_mod(self, p, p) }
    }

    lane! { __m512i, 8, "avx512f", zmm_reg;
        fn splat(x: u64) -> Self { _mm512_set1_epi64(x as i64) }
        fn load(src: &[Fp61]) -> Self { _mm512_loadu_si512(src[..8].as_ptr() as *const _) }
        fn store(self, dst: &mut [MaybeUninit<Fp61>]) {
            if dst.len() >= 8 {
                _mm512_storeu_si512(dst[..8].as_mut_ptr() as *mut _, self);
            } else {
                let mask = ((1u16 << dst.len()) - 1) as __mmask8;
                _mm512_mask_storeu_epi64(dst.as_mut_ptr() as *mut i64, mask, self);
            }
        }
        fn add(self, b: Self) -> Self { _mm512_add_epi64(self, b) }
        fn sub(self, b: Self) -> Self { _mm512_sub_epi64(self, b) }
        fn and(self, b: Self) -> Self { _mm512_and_si512(self, b) }
        fn shr32(self) -> Self { _mm512_srli_epi64::<32>(self) }
        fn shr61(self) -> Self { _mm512_srli_epi64::<61>(self) }
        fn hi_dwords(self) -> Self { _mm512_shuffle_epi32::<_MM_PERM_DDBB>(self) }
        // below `q` the difference wraps past every residue
        fn csub(self, p: Self) -> Self { _mm512_min_epu64(self, _mm512_sub_epi64(self, p)) }
    }

    /// Multipliers below this take the single-limb Horner step
    /// ([`horner_step_vec`]): the multiplier fits one 32-bit limb with
    /// 12 bits to spare, which is what keeps the accumulator bounded
    /// without a fold.
    const POINT_LIMIT: u64 = 1 << 20;

    /// `β` below this take the pair kernel: both its multipliers, `β²`
    /// and `β`, are below [`POINT_LIMIT`]. The Vandermonde encode's `β`
    /// run to `⌈N/2⌉`, so every cohort up to `N = 2046` takes it.
    const PAIR_LIMIT: u64 = 1 << 10;

    /// Exclusive bound the Horner accumulator stays under at every step.
    const HORNER_BOUND: u64 = (1 << 62) + (1 << 53);

    const LIMB: u64 = 0xFFFF_FFFF;

    // Pin the Horner bound: from the largest accumulator, the largest
    // multiplier and the largest residue, one step lands under the bound
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
        // `reduce` / `lane_reduce` take lanes whose first fold lands
        // under 2^61 + 8
        assert!(HORNER_BOUND >> 61 < 8);
        // a panel is whole strips of either width
        assert!(PANEL.is_multiple_of(16));
        // a pair's multipliers `β²` and `β` are both single-limb ones
        assert!((PAIR_LIMIT - 1) * (PAIR_LIMIT - 1) < POINT_LIMIT);
        // `E + t` and `E + (3q − t)` for `E, t` under the bound fit a
        // lane, and `3q − t` does not wrap
        assert!(2 * (HORNER_BOUND as u128) < 1 << 64);
        assert!(HORNER_BOUND <= 3 * P61);
        assert!(HORNER_BOUND as u128 + 3 * P61 as u128 <= 1 << 64);
    };

    /// One Horner step `acc·β + s (mod q)` lanewise, with
    /// `betas = (β, 8β)`, for `β <` [`POINT_LIMIT`], `acc <`
    /// [`HORNER_BOUND`] and a canonical `s`: unreduced, but under the
    /// bound again. With `acc = lo + hi·2^32` the low product
    /// `lo·β < 2^52` is exact, and the high product `v = hi·β` carries
    /// `2^32`, which wraps as in the module's `pₘ` fold:
    /// `(v mod 2^29)·2^32 + (v >> 29)`. Taken on `w = 8v = hi·8β` that
    /// is `(w mod 2^32)·2^29 + (w >> 32)`, whose mask-and-shift is a
    /// one-limb multiply too. So a step is three `vpmuludq` (which reads
    /// only the low 32 bits of each lane, so `acc` is its own low limb
    /// and `w` its own `w mod 2^32`), a shuffle, a shift and three adds
    /// — no fold.
    ///
    /// # Safety
    ///
    /// The CPU must have `L`'s feature.
    #[inline(always)]
    unsafe fn horner_step_vec<L: Lane>(acc: L, betas: (L, L), s: L, two29: L) -> L {
        let w = acc.hi_dwords().mul_lo32(betas.1);
        let low = acc.mul_lo32(betas.0);
        let wrapped = w.mul_lo32(two29).add(w.shr32());
        low.add(s).add(wrapped)
    }

    /// `P` Horner recurrences down the strip rows `rows` (`2·WIDTH`
    /// elements each, lowest degree first), one per multiplier pair in
    /// `squares`: `2·P` independent chains, which is what hides the
    /// multiply latency.
    ///
    /// # Safety
    ///
    /// The CPU must have `L`'s feature.
    #[inline(always)]
    unsafe fn chains<L: Lane, const P: usize>(
        rows: &[Fp61],
        squares: &[(L, L); P],
        two29: L,
    ) -> [[L; 2]; P] {
        let load = |row: &[Fp61]| [L::load(row), L::load(&row[L::WIDTH..])];
        let mut rows = rows.chunks_exact(2 * L::WIDTH).rev();
        let top = load(rows.next().expect("a non-empty half"));
        let mut acc = [top; P];
        for row in rows {
            let s = load(row);
            for (a, &m) in acc.iter_mut().zip(squares) {
                a[0] = horner_step_vec(a[0], m, s[0], two29);
                a[1] = horner_step_vec(a[1], m, s[1], two29);
            }
        }
        acc
    }

    /// The `P` pairs of `pairs` over one strip, whose first `n` elements
    /// land at `k` of `outs` (one per sign asked for, in order): the even
    /// and odd chains at `β²` (`odd` is empty for one segment), then
    /// `t = β·O` as one more step, and `p(β) = E + t`,
    /// `p(−β) = E + (3q − t)`, each reduced once and stored once.
    ///
    /// # Safety
    ///
    /// The CPU must have `L`'s feature.
    #[inline(always)]
    unsafe fn pair_strip<L: Lane, const P: usize>(
        outs: &mut [Vec<Fp61>],
        pairs: &[(Fp61, Signs)],
        (even, odd): (&[Fp61], &[Fp61]),
        k: usize,
        n: usize,
    ) {
        let (p, two29, zero) = (L::splat(P61), L::splat(1 << 29), L::splat(0));
        let three_q = L::splat(3 * P61);
        let multipliers = |x: u64| (L::splat(x), L::splat(8 * x));
        let squares: [_; P] = core::array::from_fn(|i| multipliers(pairs[i].0 .0 * pairs[i].0 .0));
        let e = chains(even, &squares, two29);
        let o = (!odd.is_empty()).then(|| chains(odd, &squares, two29));
        let mut outs = outs.iter_mut();
        for (i, &(beta, signs)) in pairs[..P].iter().enumerate() {
            let beta = multipliers(beta.0);
            let mut plus = signs
                .plus()
                .then(|| outs.next().expect("an output per sign"));
            let mut minus = signs
                .minus()
                .then(|| outs.next().expect("an output per sign"));
            for h in 0..2 {
                let (lo, hi) = (h * L::WIDTH, n.min((h + 1) * L::WIDTH));
                if lo >= hi {
                    break;
                }
                let t = match &o {
                    Some(o) => horner_step_vec(o[i][h], beta, zero, two29),
                    None => zero,
                };
                if let Some(out) = plus.as_mut() {
                    let sum = reduce(e[i][h].add(t), p);
                    sum.store(&mut out.spare_capacity_mut()[k + lo..k + hi]);
                }
                if let Some(out) = minus.as_mut() {
                    let difference = reduce(e[i][h].add(three_q.sub(t)), p);
                    difference.store(&mut out.spare_capacity_mut()[k + lo..k + hi]);
                }
            }
        }
    }

    /// Elements of every segment the pair kernel gathers at once. A block
    /// of four `β` runs over the whole panel before the next, so outputs
    /// are written in runs of a panel: a strip at a time across all the
    /// outputs measured 1.3× slower at `N = 64, U = 48` (2-vCPU Xeon,
    /// AVX-512F).
    const PANEL: usize = 64;

    /// How many outputs `pairs` asks for.
    fn outputs(pairs: &[(Fp61, Signs)]) -> usize {
        pairs
            .iter()
            .map(|&(_, s)| s.plus() as usize + s.minus() as usize)
            .sum()
    }

    /// The pair kernel (see [`Field::simd_eval_pairs`] for the
    /// contract) on `L` registers: with `p(x) = E(x²) + x·O(x²)`, `E`
    /// and `O` are Horner recurrences at `β²` on the single-limb step,
    /// and `p(±β)` is formed in registers ([`pair_strip`]).
    ///
    /// Panel-major, four `β` to a register block, `2·WIDTH` elements a
    /// strip: [`PANEL`] elements of every segment are gathered once,
    /// strip by strip (even rows, then odd), and read from L1 by every
    /// block. Each result is stored once into its final `Vec`, with no
    /// zero-fill; a short last strip through masked stores.
    ///
    /// `None`, with nothing computed, if a `β` is not below
    /// [`PAIR_LIMIT`]: the bound proof does not cover it.
    ///
    /// # Safety
    ///
    /// The CPU must have `L`'s feature.
    ///
    /// # Panics
    ///
    /// Panics if `segs` is empty or ragged.
    #[inline(always)]
    unsafe fn eval_pairs<L: Lane>(
        segs: &[&[Fp61]],
        pairs: &[(Fp61, Signs)],
    ) -> Option<Vec<Vec<Fp61>>> {
        if pairs.iter().any(|(beta, _)| beta.0 >= PAIR_LIMIT) {
            return None;
        }
        let width = 2 * L::WIDTH;
        let len = segs[0].len();
        let mut outs: Vec<Vec<Fp61>> = (0..outputs(pairs))
            .map(|_| Vec::with_capacity(len))
            .collect();
        let (evens, strip) = (segs.len().div_ceil(2), width * segs.len());
        let mut rows = vec![Fp61::ZERO; PANEL / width * strip];
        // counted once: counting in the panel loop measured 1.4× slower
        // on the same host
        let counts: Vec<usize> = pairs.chunks(4).map(outputs).collect();
        for base in (0..len).step_by(PANEL) {
            let n = PANEL.min(len - base);
            for (at, strip_rows) in (0..n).step_by(width).zip(rows.chunks_exact_mut(strip)) {
                let m = width.min(n - at);
                for (i, seg) in segs.iter().enumerate() {
                    let row = (i / 2 + i % 2 * evens) * width;
                    strip_rows[row..row + m].copy_from_slice(&seg[base + at..][..m]);
                }
            }
            let mut rest = &mut outs[..];
            for (block, &count) in pairs.chunks(4).zip(&counts) {
                let (outs, after) = rest.split_at_mut(count);
                for (at, strip_rows) in (0..n).step_by(width).zip(rows.chunks_exact(strip)) {
                    let halves = strip_rows.split_at(evens * width);
                    let (k, m) = (base + at, width.min(n - at));
                    match block.len() {
                        4 => pair_strip::<L, 4>(outs, block, halves, k, m),
                        3 => pair_strip::<L, 3>(outs, block, halves, k, m),
                        2 => pair_strip::<L, 2>(outs, block, halves, k, m),
                        _ => pair_strip::<L, 1>(outs, block, halves, k, m),
                    }
                }
                rest = after;
            }
        }
        for out in &mut outs {
            // SAFETY: the strips cover `0..len`, and each stored its
            // elements of every output.
            out.set_len(len);
        }
        Some(outs)
    }

    /// [`eval_pairs`] on `ymm` registers.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn eval_pairs_ymm(
        segs: &[&[Fp61]],
        pairs: &[(Fp61, Signs)],
    ) -> Option<Vec<Vec<Fp61>>> {
        eval_pairs::<__m256i>(segs, pairs)
    }

    /// [`eval_pairs`] on `zmm` registers.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX-512F is available.
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn eval_pairs_zmm(
        segs: &[&[Fp61]],
        pairs: &[(Fp61, Signs)],
    ) -> Option<Vec<Vec<Fp61>>> {
        eval_pairs::<__m512i>(segs, pairs)
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

        /// Every lane of [`horner_step_vec`] from splats of `acc`, `β`
        /// and `s`, on each register width the host runs.
        fn horner_step_lanes(acc: u64, beta: u64, s: u64) -> Vec<u64> {
            unsafe fn step<L: Lane>(acc: u64, beta: u64, s: u64) -> Vec<u64> {
                let betas = (L::splat(beta), L::splat(8 * beta));
                let next = horner_step_vec(L::splat(acc), betas, L::splat(s), L::splat(1 << 29));
                let mut out = vec![MaybeUninit::<Fp61>::uninit(); L::WIDTH];
                next.store(&mut out);
                out.iter().map(|lane| lane.assume_init().0).collect()
            }
            let mut lanes = Vec::new();
            // SAFETY: each width runs only where its feature was detected
            // (`Avx512` implies avx512f).
            unsafe {
                if detected().has_avx2() {
                    lanes.extend(step::<__m256i>(acc, beta, s));
                }
                if detected() == crate::simd::Backend::Avx512 {
                    lanes.extend(step::<__m512i>(acc, beta, s));
                }
            }
            lanes
        }

        #[test]
        fn horner_step_is_exact_and_stays_under_its_bound() {
            for acc in [0, 1, LIMB, LIMB + 1, P61 - 1, HORNER_BOUND - 1] {
                for beta in [0, 1, 2, 200, POINT_LIMIT - 1] {
                    for s in [0, 1, P61 - 1] {
                        for next in horner_step_lanes(acc, beta, s) {
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
