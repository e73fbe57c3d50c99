//! Polynomial interpolation over a prime field.
//!
//! Two users: the Vandermonde MDS decoder (recovering polynomial
//! *coefficients* from evaluations) and Shamir reconstruction (evaluating
//! the interpolant at a single point, usually zero).

use crate::CodingError;
use lsa_field::Field;

/// Lagrange evaluation weights for interpolating through `(xs[i], ·)` and
/// evaluating at `target`.
///
/// Returns `w` such that `p(target) = Σ w[i]·y[i]` for any values `y`.
///
/// # Errors
///
/// Returns [`CodingError::DuplicateShareIndex`] if two `xs` coincide.
pub(crate) fn lagrange_weights_at<F: Field>(xs: &[F], target: F) -> Result<Vec<F>, CodingError> {
    let n = xs.len();
    let mut weights = vec![F::ONE; n];
    for i in 0..n {
        let mut num = F::ONE;
        let mut den = F::ONE;
        for j in 0..n {
            if i == j {
                continue;
            }
            if xs[i] == xs[j] {
                return Err(CodingError::DuplicateShareIndex(j));
            }
            num *= target - xs[j];
            den *= xs[i] - xs[j];
        }
        weights[i] = num
            * den
                .inv()
                .expect("distinct points give non-zero denominator");
    }
    Ok(weights)
}

/// Coefficients (low-to-high degree) of the unique polynomial of degree
/// `< xs.len()` passing through `(xs[i], ys[i])`.
///
/// Uses the master-polynomial + synthetic-division formulation:
/// `M(x) = Π (x − x_i)`, `L_i(x) = M(x)/(x − x_i) · w_i`, so the whole
/// routine is `O(n²)` field operations.
///
/// # Errors
///
/// Returns [`CodingError::LengthMismatch`] if `xs` and `ys` differ in
/// length, or [`CodingError::DuplicateShareIndex`] on duplicate points.
pub fn interpolate_coefficients<F: Field>(xs: &[F], ys: &[F]) -> Result<Vec<F>, CodingError> {
    if xs.len() != ys.len() {
        return Err(CodingError::LengthMismatch {
            expected: xs.len(),
            got: ys.len(),
        });
    }
    let basis = lagrange_basis_coefficients(xs)?;
    let n = xs.len();
    let mut coeffs = vec![F::ZERO; n];
    let rows: Vec<&[F]> = basis.iter().map(Vec::as_slice).collect();
    lsa_field::ops::weighted_sum_into(&mut coeffs, ys, &rows);
    Ok(coeffs)
}

/// The coefficient vectors of all Lagrange basis polynomials `L_i` for the
/// point set `xs` (each of length `xs.len()`, low-to-high degree).
///
/// This is the decoding matrix of the Vandermonde code: stacking the
/// results as columns gives `V^{-1}` for `V[i][k] = xs[i]^k`.
///
/// # Errors
///
/// Returns [`CodingError::DuplicateShareIndex`] on duplicate points.
pub(crate) fn lagrange_basis_coefficients<F: Field>(xs: &[F]) -> Result<Vec<Vec<F>>, CodingError> {
    let n = xs.len();
    for i in 0..n {
        for j in i + 1..n {
            if xs[i] == xs[j] {
                return Err(CodingError::DuplicateShareIndex(j));
            }
        }
    }
    // Master polynomial M(x) = Π (x − x_i), coefficients low-to-high.
    let mut master = vec![F::ZERO; n + 1];
    master[0] = F::ONE;
    for (k, &x) in xs.iter().enumerate() {
        let mut next = vec![F::ZERO; n + 1];
        for j in 0..=k {
            next[j + 1] += master[j];
            next[j] -= x * master[j];
        }
        master = next;
    }
    // Barycentric weights w_i = 1 / Π_{j≠i} (x_i − x_j), inverted in one
    // batch (Montgomery's trick) instead of n full exponentiations.
    let dens: Vec<F> = (0..n)
        .map(|i| {
            let mut den = F::ONE;
            for j in 0..n {
                if j != i {
                    den *= xs[i] - xs[j];
                }
            }
            den
        })
        .collect();
    let weights =
        lsa_field::ops::batch_invert(&dens).expect("distinct points give non-zero denominators");

    let mut basis = Vec::with_capacity(n);
    for (i, &w) in weights.iter().enumerate() {
        // Synthetic division q(x) = M(x)/(x − x_i), degree n−1.
        let mut q = vec![F::ZERO; n];
        q[n - 1] = master[n];
        for j in (1..n).rev() {
            q[j - 1] = master[j] + xs[i] * q[j];
        }
        basis.push(q.into_iter().map(|c| c * w).collect());
    }
    Ok(basis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_field::{Fp32, Fp61};

    fn f(v: u64) -> Fp32 {
        Fp32::from_u64(v)
    }

    #[test]
    fn weights_reconstruct_constant() {
        let xs = vec![f(1), f(2), f(3)];
        let w = lagrange_weights_at(&xs, Fp32::ZERO).unwrap();
        // constant polynomial: all ys equal c => p(0) = c
        let p0: Fp32 = w.iter().map(|&wi| wi * f(42)).sum();
        assert_eq!(p0, f(42));
    }

    #[test]
    fn duplicate_points_rejected() {
        let xs = vec![f(1), f(1)];
        assert!(matches!(
            lagrange_weights_at(&xs, Fp32::ZERO),
            Err(CodingError::DuplicateShareIndex(_))
        ));
    }

    #[test]
    fn interpolate_quadratic() {
        // p(x) = 3 + 2x + x², sample at 1,2,3
        let coeffs = [f(3), f(2), f(1)];
        let eval = |x: Fp32| coeffs[0] + coeffs[1] * x + coeffs[2] * x * x;
        let xs = vec![f(1), f(2), f(3)];
        let ys: Vec<Fp32> = xs.iter().map(|&x| eval(x)).collect();
        let got = interpolate_coefficients(&xs, &ys).unwrap();
        assert_eq!(got, coeffs.to_vec());
    }

    #[test]
    fn interpolate_fp61() {
        let c = [Fp61::from_u64(9), Fp61::from_u64(1_000_000_007)];
        let xs = vec![Fp61::from_u64(5), Fp61::from_u64(6)];
        let ys: Vec<Fp61> = xs.iter().map(|&x| c[0] + c[1] * x).collect();
        let got = interpolate_coefficients(&xs, &ys).unwrap();
        assert_eq!(got, c.to_vec());
    }
}
