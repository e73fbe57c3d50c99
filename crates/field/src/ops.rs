//! Vector kernels over field elements.
//!
//! The protocol layers manipulate large vectors (`d` up to millions of
//! elements), so the hot loops live here as free functions over slices.
//! All functions panic on length mismatch — the callers own shape
//! invariants and a silent truncation would be a correctness bug in a
//! secure-aggregation context.
//!
//! # Kernel design: delayed reduction in cache-sized blocks
//!
//! The multiply-accumulate kernels ([`axpy`], [`weighted_sum_into`],
//! [`horner_eval`], [`dot`], [`sum_vectors`]) do **not** reduce after
//! every operation. They accumulate partially-folded terms in the
//! field's widened accumulator ([`Field::Wide`]: `u64` for `Fp32`,
//! `u128` for `Fp61`) and collapse to a canonical residue **once per
//! output element** — turning `U` modular reductions per element into
//! one. [`Field::WIDE_CAPACITY`] bounds how many terms fit before an
//! intermediate re-fold; the kernels re-fold automatically, so callers
//! may pass any number of terms.
//!
//! Long vectors are processed in cache-sized blocks, one pass on the
//! caller's thread, with a fixed term order per output element.
//!
//! # Small multipliers: the multi-point evaluator
//!
//! The fused kernels take arbitrary coefficients. The Vandermonde
//! encode does not need that: it evaluates its even and odd
//! coefficient halves at the small squares `β²` (`lsa_coding`'s
//! points are `±β`), and [`eval_points`] — many evaluations of one
//! vector polynomial in one call — hands them to
//! [`Field::simd_eval_points`], where a field may run a true Horner
//! recurrence with the point itself as a single-limb multiplier
//! (`Fp61` under AVX2 does: no powers, no fold per step, every segment
//! read once per strip for all the points). Without such a kernel it
//! is [`horner_eval`] per point over the fused pass above. Decode
//! stays on [`weighted_sum_into`]: Lagrange coefficients are
//! full-width.
//!
//! The pre-refactor one-reduction-per-op loops survive in
//! [`reference`](mod@reference) as the oracle for equivalence tests and the baseline
//! for the `field_kernels` bench.

use crate::{simd, Field};
use rand::Rng;

/// Elements per cache-sized block inside the fused kernels: the widened
/// scratch buffer stays within L1 (8–16 KiB) while amortising the outer
/// per-input-vector loop. This is also the maximum block length handed
/// to [`Field::simd_weighted_block`], so SIMD kernels can size their
/// stack scratch statically.
pub(crate) const BLOCK: usize = 1024;

/// `acc[k] += x[k]` for all `k`.
///
/// A single addition per element is already one reduction.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn add_assign<F: Field>(acc: &mut [F], x: &[F]) {
    assert_eq!(acc.len(), x.len(), "vector length mismatch");
    for (a, b) in acc.iter_mut().zip(x) {
        *a += *b;
    }
}

/// `acc[k] -= x[k]` for all `k`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sub_assign<F: Field>(acc: &mut [F], x: &[F]) {
    assert_eq!(acc.len(), x.len(), "vector length mismatch");
    for (a, b) in acc.iter_mut().zip(x) {
        *a -= *b;
    }
}

/// `acc[k] += c * x[k]` for all `k` (multiply-accumulate).
///
/// A *single* axpy already reduces once per element, and LLVM's
/// strength-reduced constant modulo beats the widening tricks for one
/// product — so this stays the plain loop. The lazy-reduction win lives
/// in [`weighted_sum_into`], which fuses *many* axpy sweeps into one
/// widened pass; prefer it whenever more than one term is accumulated.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy<F: Field>(acc: &mut [F], c: F, x: &[F]) {
    assert_eq!(acc.len(), x.len(), "vector length mismatch");
    if c == F::ZERO {
        return;
    }
    for (a, &b) in acc.iter_mut().zip(x) {
        *a += c * b;
    }
}

/// Element-wise sum of two vectors.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn add<F: Field>(x: &[F], y: &[F]) -> Vec<F> {
    assert_eq!(x.len(), y.len(), "vector length mismatch");
    x.iter().zip(y).map(|(a, b)| *a + *b).collect()
}

/// Scale a vector by a constant, in place.
pub fn scale_assign<F: Field>(x: &mut [F], c: F) {
    for a in x.iter_mut() {
        *a *= c;
    }
}

/// Inner product `Σ x[k]·y[k]`.
///
/// Accumulates partially-folded products in the widened domain and
/// reduces once (re-folding every [`Field::WIDE_CAPACITY`] terms).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot<F: Field>(x: &[F], y: &[F]) -> F {
    assert_eq!(x.len(), y.len(), "vector length mismatch");
    // one dispatch per bulk call, never per element
    let backend = simd::backend();
    if backend != simd::Backend::Scalar {
        if let Some(r) = F::simd_dot(backend, x, y) {
            return r;
        }
    }
    let mut acc = F::ZERO.to_wide();
    let mut terms: u64 = 0;
    for (&a, &b) in x.iter().zip(y) {
        if terms == F::WIDE_CAPACITY {
            acc = F::wide_reduce(acc).to_wide();
            terms = 1;
        }
        acc = F::wide_mul_add(acc, a, b);
        terms += 1;
    }
    F::wide_reduce(acc)
}

/// The fused multi-axpy at the heart of MDS decode and encode:
/// `out[k] += Σ_i coeffs[i] · inputs[i][k]`, accumulated in the widened
/// domain and reduced **once per element**.
///
/// Zero coefficients are skipped; unit coefficients take the cheaper
/// add-only path (this makes [`sum_vectors`] the same kernel). Blocked
/// over `out` with a fixed term order per element.
///
/// # Panics
///
/// Panics if `coeffs` and `inputs` differ in length, or any input's
/// length differs from `out`'s.
pub fn weighted_sum_into<F: Field>(out: &mut [F], coeffs: &[F], inputs: &[&[F]]) {
    assert_eq!(coeffs.len(), inputs.len(), "one coefficient per input");
    for v in inputs {
        assert_eq!(v.len(), out.len(), "vector length mismatch");
    }
    if inputs.is_empty() {
        return;
    }
    // one dispatch per bulk call: the chosen backend is captured here
    // and threaded through every cache block
    let backend = simd::backend();
    // grown on the first scalar-path block; stays empty when the SIMD
    // kernel (with its own stack scratch) handles every block
    let mut wide: Vec<F::Wide> = Vec::new();
    let mut start = 0;
    while start < out.len() {
        let end = (start + BLOCK).min(out.len());
        let block = &mut out[start..end];
        if backend != simd::Backend::Scalar
            && F::simd_weighted_block(backend, block, coeffs, inputs, start)
        {
            start = end;
            continue;
        }
        wide.clear();
        wide.extend(block.iter().map(|x| x.to_wide()));
        // terms already absorbed per accumulator (the seed residue
        // counts as one)
        let mut terms: u64 = 1;
        for (&c, v) in coeffs.iter().zip(inputs) {
            if c == F::ZERO {
                continue;
            }
            if terms == F::WIDE_CAPACITY {
                for w in wide.iter_mut() {
                    *w = F::wide_reduce(*w).to_wide();
                }
                terms = 1;
            }
            let src = &v[start..end];
            if c == F::ONE {
                for (w, &x) in wide.iter_mut().zip(src) {
                    *w = F::wide_add(*w, x);
                }
            } else {
                for (w, &x) in wide.iter_mut().zip(src) {
                    *w = F::wide_mul_add(*w, c, x);
                }
            }
            terms += 1;
        }
        for (o, &w) in block.iter_mut().zip(wide.iter()) {
            *o = F::wide_reduce(w);
        }
        start = end;
    }
}

/// Sum a collection of equal-length vectors into a fresh vector.
///
/// Returns `None` when the iterator is empty. All tail vectors are
/// folded through the widened accumulator in one chunked pass — one
/// reduction per element, however many vectors are summed.
///
/// # Panics
///
/// Panics if the vectors differ in length.
pub fn sum_vectors<'a, F: Field>(mut vecs: impl Iterator<Item = &'a [F]>) -> Option<Vec<F>> {
    let first = vecs.next()?;
    let mut acc = first.to_vec();
    let rest: Vec<&[F]> = vecs.collect();
    if !rest.is_empty() {
        let ones = vec![F::ONE; rest.len()];
        weighted_sum_into(&mut acc, &ones, &rest);
    }
    Some(acc)
}

/// Fill a vector with uniformly random field elements.
pub fn random_vector<F: Field, R: Rng + ?Sized>(len: usize, rng: &mut R) -> Vec<F> {
    (0..len).map(|_| F::random(rng)).collect()
}

/// Batch inversion via Montgomery's trick: inverts `n` elements with one
/// field inversion and `3(n−1)` multiplications.
///
/// Used by the Lagrange decoders, where per-element `inv()` (a full
/// `O(log q)` exponentiation) would dominate the `O(U²)` basis setup.
///
/// Returns `None` if any input is zero (callers treat a zero denominator
/// as a duplicate-point bug, so no partial output is produced).
pub fn batch_invert<F: Field>(xs: &[F]) -> Option<Vec<F>> {
    if xs.is_empty() {
        return Some(Vec::new());
    }
    // prefix products
    let mut prefix = Vec::with_capacity(xs.len());
    let mut acc = F::ONE;
    for &x in xs {
        if x.is_zero() {
            return None;
        }
        acc *= x;
        prefix.push(acc);
    }
    // single inversion of the total product
    let mut inv_acc = prefix.last().copied()?.inv()?;
    let mut out = vec![F::ZERO; xs.len()];
    for k in (0..xs.len()).rev() {
        let before = if k == 0 { F::ONE } else { prefix[k - 1] };
        out[k] = inv_acc * before;
        inv_acc *= xs[k];
    }
    Some(out)
}

/// Evaluate the "vector polynomial" `Σ_k segs[k] · point^k`.
///
/// Each `segs[k]` is a vector coefficient; the result has the common
/// segment length. This is exactly one column of the Vandermonde MDS
/// encoding in Eq. (5) of the paper.
///
/// Instead of a Horner sweep (one reduced multiply-add per segment per
/// element), the powers `point^k` are computed once (`U` scalar
/// multiplies) and the segments folded through the fused
/// [`weighted_sum_into`] — one reduction per output element. Field
/// arithmetic is exact, so the result is identical to the Horner form.
///
/// # Panics
///
/// Panics if `segs` is empty or the segments have different lengths.
pub fn horner_eval<F: Field, S: AsRef<[F]>>(segs: &[S], point: F) -> Vec<F> {
    assert!(!segs.is_empty(), "no segments to evaluate");
    let len = segs[0].as_ref().len();
    for seg in segs {
        assert_eq!(seg.as_ref().len(), len, "segment length mismatch");
    }
    let mut coeffs = Vec::with_capacity(segs.len());
    let mut p = F::ONE;
    for _ in 0..segs.len() {
        coeffs.push(p);
        p *= point;
    }
    let inputs: Vec<&[F]> = segs.iter().map(AsRef::as_ref).collect();
    let mut out = vec![F::ZERO; len];
    weighted_sum_into(&mut out, &coeffs, &inputs);
    out
}

/// Evaluate the vector polynomial `Σ_k segs[k] · β^k` at every `β` in
/// `points`, `out[j]` for `points[j]`. The segments are borrowed views,
/// so a caller can pass every other coefficient of a longer polynomial
/// without copying it (the Vandermonde encode evaluates its even and
/// odd halves this way).
///
/// Where the field has a multi-point kernel for the active backend
/// ([`Field::simd_eval_points`]) the segments are read once per strip
/// for all the points; otherwise — the scalar backend, `Fp32`, points
/// the kernel does not take — this is [`horner_eval`] per point, and
/// the result is the same either way.
///
/// # Panics
///
/// Panics if `segs` is empty or the segments have different lengths.
pub fn eval_points<F: Field>(segs: &[&[F]], points: &[F]) -> Vec<Vec<F>> {
    assert!(!segs.is_empty(), "no segments to evaluate");
    let len = segs[0].len();
    for seg in segs {
        assert_eq!(seg.len(), len, "segment length mismatch");
    }
    let backend = simd::backend();
    if backend != simd::Backend::Scalar {
        if let Some(out) = F::simd_eval_points(backend, segs, points) {
            return out;
        }
    }
    points.iter().map(|&p| horner_eval(segs, p)).collect()
}

// ---------------------------------------------------------------------
// Widened-vector helpers (running sums that stay unreduced across calls)
// ---------------------------------------------------------------------

/// A fresh all-zero widened accumulator vector.
pub fn wide_zeros<F: Field>(len: usize) -> Vec<F::Wide> {
    vec![F::ZERO.to_wide(); len]
}

/// `acc[k] += x[k]` in the widened domain — no reduction at all. The
/// caller tracks the term count against [`Field::WIDE_CAPACITY`] and
/// calls [`wide_normalize`] before it overflows.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn wide_accumulate<F: Field>(acc: &mut [F::Wide], x: &[F]) {
    assert_eq!(acc.len(), x.len(), "vector length mismatch");
    for (a, &b) in acc.iter_mut().zip(x) {
        *a = F::wide_add(*a, b);
    }
}

/// Re-fold every accumulator to a canonical residue in place, resetting
/// the term count to one.
pub fn wide_normalize<F: Field>(acc: &mut [F::Wide]) {
    for a in acc.iter_mut() {
        *a = F::wide_reduce(*a).to_wide();
    }
}

/// Collapse a widened accumulator vector to canonical residues (the one
/// full reduction per element).
pub fn wide_collapse<F: Field>(acc: &[F::Wide]) -> Vec<F> {
    acc.iter().map(|&w| F::wide_reduce(w)).collect()
}

// ---------------------------------------------------------------------
// Scalar reference kernels
// ---------------------------------------------------------------------

/// The pre-refactor one-reduction-per-operation loops, kept as the
/// oracle for the lazy kernels: property tests assert element-for-element
/// equality against these, and the `field_kernels` bench uses them as
/// the baseline the delayed-reduction kernels must beat.
pub mod reference {
    use crate::Field;

    /// Scalar `acc[k] += c·x[k]` with a full reduction per element.
    pub fn axpy<F: Field>(acc: &mut [F], c: F, x: &[F]) {
        assert_eq!(acc.len(), x.len(), "vector length mismatch");
        if c == F::ZERO {
            return;
        }
        for (a, b) in acc.iter_mut().zip(x) {
            *a += c * *b;
        }
    }

    /// Scalar inner product, reduced per term.
    pub fn dot<F: Field>(x: &[F], y: &[F]) -> F {
        assert_eq!(x.len(), y.len(), "vector length mismatch");
        x.iter().zip(y).map(|(a, b)| *a * *b).sum()
    }

    /// Scalar multi-axpy: one reduced axpy sweep per input.
    pub fn weighted_sum_into<F: Field>(out: &mut [F], coeffs: &[F], inputs: &[&[F]]) {
        assert_eq!(coeffs.len(), inputs.len(), "one coefficient per input");
        for (&c, v) in coeffs.iter().zip(inputs) {
            axpy(out, c, v);
        }
    }

    /// Scalar vector sum: one reduced add sweep per vector.
    pub fn sum_vectors<'a, F: Field>(mut vecs: impl Iterator<Item = &'a [F]>) -> Option<Vec<F>> {
        let first = vecs.next()?;
        let mut acc = first.to_vec();
        for v in vecs {
            assert_eq!(acc.len(), v.len(), "vector length mismatch");
            for (a, b) in acc.iter_mut().zip(v) {
                *a += *b;
            }
        }
        Some(acc)
    }

    /// Horner-form vector polynomial evaluation (one reduced
    /// multiply-add per segment per element).
    pub fn horner_eval<F: Field>(segs: &[Vec<F>], point: F) -> Vec<F> {
        assert!(!segs.is_empty(), "no segments to evaluate");
        let len = segs[0].len();
        let mut acc = vec![F::ZERO; len];
        for seg in segs.iter().rev() {
            assert_eq!(seg.len(), len, "segment length mismatch");
            for (a, s) in acc.iter_mut().zip(seg) {
                *a = *a * point + *s;
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fp32, Fp61};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn v32(xs: &[u64]) -> Vec<Fp32> {
        xs.iter().map(|&x| Fp32::from_u64(x)).collect()
    }

    #[test]
    fn add_sub_roundtrip() {
        let x = v32(&[1, 2, 3, 4]);
        let y = v32(&[10, 20, 30, 40]);
        let mut back = add(&x, &y);
        sub_assign(&mut back, &y);
        assert_eq!(back, x);
    }

    #[test]
    fn axpy_matches_manual() {
        let mut acc = v32(&[1, 1, 1]);
        let x = v32(&[2, 3, 4]);
        axpy(&mut acc, Fp32::from_u64(5), &x);
        assert_eq!(acc, v32(&[11, 16, 21]));
    }

    #[test]
    fn axpy_zero_coefficient_is_noop() {
        let mut acc = v32(&[7, 8]);
        let before = acc.clone();
        axpy(&mut acc, Fp32::ZERO, &v32(&[100, 200]));
        assert_eq!(acc, before);
    }

    #[test]
    fn dot_small() {
        let x = v32(&[1, 2, 3]);
        let y = v32(&[4, 5, 6]);
        assert_eq!(dot(&x, &y).residue(), 32);
    }

    #[test]
    fn sum_vectors_empty_is_none() {
        let empty: Vec<&[Fp32]> = vec![];
        assert!(sum_vectors::<Fp32>(empty.into_iter()).is_none());
    }

    #[test]
    fn sum_vectors_three() {
        let a = v32(&[1, 2]);
        let b = v32(&[3, 4]);
        let c = v32(&[5, 6]);
        let s = sum_vectors([a.as_slice(), b.as_slice(), c.as_slice()].into_iter()).unwrap();
        assert_eq!(s, v32(&[9, 12]));
    }

    #[test]
    fn weighted_sum_matches_axpy_sweeps() {
        let mut rng = StdRng::seed_from_u64(11);
        let inputs: Vec<Vec<Fp32>> = (0..5).map(|_| random_vector(40, &mut rng)).collect();
        let coeffs: Vec<Fp32> = (0..5).map(|_| Fp32::random(&mut rng)).collect();
        let refs: Vec<&[Fp32]> = inputs.iter().map(Vec::as_slice).collect();
        let mut fused = random_vector::<Fp32, _>(40, &mut rng);
        let mut sweep = fused.clone();
        weighted_sum_into(&mut fused, &coeffs, &refs);
        reference::weighted_sum_into(&mut sweep, &coeffs, &refs);
        assert_eq!(fused, sweep);
    }

    #[test]
    fn weighted_sum_refolds_past_capacity() {
        // More terms than a tiny capacity would allow is exercised for
        // real in the kernel-equivalence suite; here, pin the worst-case
        // magnitudes: q−1 coefficients times q−1 inputs, many times.
        let terms = 64usize;
        let x = vec![Fp61::from_u64(Fp61::MODULUS - 1); 8];
        let coeffs = vec![Fp61::from_u64(Fp61::MODULUS - 1); terms];
        let inputs: Vec<&[Fp61]> = (0..terms).map(|_| x.as_slice()).collect();
        let mut out = vec![Fp61::ZERO; 8];
        let mut expect = vec![Fp61::ZERO; 8];
        weighted_sum_into(&mut out, &coeffs, &inputs);
        reference::weighted_sum_into(&mut expect, &coeffs, &inputs);
        assert_eq!(out, expect);
    }

    #[test]
    fn horner_eval_linear() {
        // segs = [c0, c1]; eval at point p gives c0 + c1*p.
        let c0 = v32(&[1, 2]);
        let c1 = v32(&[3, 4]);
        let out = horner_eval(&[c0, c1], Fp32::from_u64(10));
        assert_eq!(out, v32(&[31, 42]));
    }

    #[test]
    fn horner_eval_fp61() {
        let c0: Vec<Fp61> = vec![Fp61::from_u64(5)];
        let c1: Vec<Fp61> = vec![Fp61::from_u64(7)];
        let c2: Vec<Fp61> = vec![Fp61::from_u64(11)];
        let out = horner_eval(&[c0, c1, c2], Fp61::from_u64(2));
        // 5 + 7*2 + 11*4 = 63
        assert_eq!(out[0].residue(), 63);
    }

    #[test]
    fn horner_eval_at_zero_returns_first_segment() {
        let c0 = v32(&[9, 8]);
        let c1 = v32(&[7, 6]);
        let out = horner_eval(&[c0.clone(), c1], Fp32::ZERO);
        assert_eq!(out, c0);
    }

    #[test]
    fn wide_running_sum_matches_eager_adds() {
        let mut rng = StdRng::seed_from_u64(12);
        let vecs: Vec<Vec<Fp32>> = (0..9).map(|_| random_vector(33, &mut rng)).collect();
        let mut wide = wide_zeros::<Fp32>(33);
        let mut eager = vec![Fp32::ZERO; 33];
        for v in &vecs {
            wide_accumulate(&mut wide, v);
            add_assign(&mut eager, v);
        }
        wide_normalize::<Fp32>(&mut wide);
        assert_eq!(wide_collapse::<Fp32>(&wide), eager);
    }

    #[test]
    fn random_vector_is_seed_deterministic() {
        let mut r1 = StdRng::seed_from_u64(42);
        let mut r2 = StdRng::seed_from_u64(42);
        let a = random_vector::<Fp32, _>(100, &mut r1);
        let b = random_vector::<Fp32, _>(100, &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "vector length mismatch")]
    fn add_assign_length_mismatch_panics() {
        let mut a = v32(&[1]);
        add_assign(&mut a, &v32(&[1, 2]));
    }

    #[test]
    fn batch_invert_matches_individual() {
        let xs = v32(&[2, 3, 5, 7, 11, 4294967290]);
        let got = batch_invert(&xs).unwrap();
        for (x, inv) in xs.iter().zip(&got) {
            assert_eq!(*x * *inv, Fp32::ONE);
        }
    }

    #[test]
    fn batch_invert_rejects_zero() {
        let xs = v32(&[2, 0, 5]);
        assert!(batch_invert(&xs).is_none());
    }

    #[test]
    fn batch_invert_empty_and_singleton() {
        assert_eq!(batch_invert::<Fp32>(&[]).unwrap(), vec![]);
        let one = batch_invert(&v32(&[7])).unwrap();
        assert_eq!(one[0] * Fp32::from_u64(7), Fp32::ONE);
    }
}
