//! Dense matrices over a prime field with Gaussian elimination.
//!
//! Used for decoding verification, MDS-property checking in tests, and as
//! the generic (if slower) fallback decoder. The hot decoding path of the
//! protocol uses [`crate::vandermonde`] instead.

use crate::CodingError;
use lsa_field::Field;

/// A dense row-major matrix over field `F`.
///
/// # Example
///
/// ```
/// use lsa_coding::Matrix;
/// use lsa_field::{Field, Fp32};
///
/// let m = Matrix::<Fp32>::identity(3);
/// assert_eq!(m.rank(), 3);
/// assert_eq!(m.inverse().unwrap(), m);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matrix<F> {
    rows: usize,
    cols: usize,
    data: Vec<F>,
}

impl<F: Field> Matrix<F> {
    /// Create a matrix filled with zeros.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![F::ZERO; rows * cols],
        }
    }

    /// Create the `n×n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = F::ONE;
        }
        m
    }

    /// Build from a generator function `f(row, col)`.
    pub(crate) fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> F) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> &[F] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix–vector product `self · x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn mul_vec(&self, x: &[F]) -> Vec<F> {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        (0..self.rows)
            .map(|i| lsa_field::ops::dot(self.row(i), x))
            .collect()
    }

    /// Matrix product `self · other`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    #[cfg(test)]
    pub(crate) fn mul(&self, other: &Self) -> Self {
        assert_eq!(self.cols, other.rows, "dimension mismatch");
        let mut out = Self::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == F::ZERO {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        out
    }

    /// The transpose.
    pub fn transpose(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Extract the submatrix given by `row_idx × col_idx` (with repetition
    /// allowed, though the MDS checks never use it).
    pub fn submatrix(&self, row_idx: &[usize], col_idx: &[usize]) -> Self {
        Self::from_fn(row_idx.len(), col_idx.len(), |i, j| {
            self[(row_idx[i], col_idx[j])]
        })
    }

    /// Rank via Gaussian elimination to row-echelon form (destructive
    /// on a copy): only the rows below each pivot are cleared.
    pub fn rank(&self) -> usize {
        let mut m = self.clone();
        let cols = m.cols;
        let mut rank = 0;
        for col in 0..cols {
            if rank == m.rows {
                break;
            }
            let Some(p) = (rank..m.rows).find(|&r| m[(r, col)] != F::ZERO) else {
                continue;
            };
            m.swap_rows(rank, p);
            let inv = m[(rank, col)].inv().expect("pivot non-zero");
            let (top, below) = m.data.split_at_mut((rank + 1) * cols);
            let pivot = &top[rank * cols + col..];
            for row in below.chunks_exact_mut(cols) {
                let factor = row[col] * inv;
                if factor != F::ZERO {
                    for (a, &b) in row[col..].iter_mut().zip(pivot) {
                        *a -= factor * b;
                    }
                }
            }
            rank += 1;
        }
        rank
    }

    /// Invert a square matrix by Gauss–Jordan elimination.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::SingularMatrix`] if not invertible, and
    /// [`CodingError::InvalidParameters`] if not square.
    pub fn inverse(&self) -> Result<Self, CodingError> {
        if self.rows != self.cols {
            return Err(CodingError::InvalidParameters(format!(
                "cannot invert {}x{} matrix",
                self.rows, self.cols
            )));
        }
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = Self::identity(n);
        for col in 0..n {
            let pivot = (col..n)
                .find(|&r| a[(r, col)] != F::ZERO)
                .ok_or(CodingError::SingularMatrix)?;
            a.swap_rows(col, pivot);
            inv.swap_rows(col, pivot);
            let scale = a[(col, col)].inv().expect("pivot non-zero");
            for j in 0..n {
                a[(col, j)] *= scale;
                inv[(col, j)] *= scale;
            }
            for r in 0..n {
                if r != col && a[(r, col)] != F::ZERO {
                    let factor = a[(r, col)];
                    for j in 0..n {
                        let av = a[(col, j)];
                        let iv = inv[(col, j)];
                        a[(r, j)] -= factor * av;
                        inv[(r, j)] -= factor * iv;
                    }
                }
            }
        }
        Ok(inv)
    }

    /// Check the MDS property by brute force: every maximal square
    /// submatrix is non-singular. Exponential in size — test helper only.
    #[cfg(test)]
    pub(crate) fn is_mds(&self) -> bool {
        let (k, n) = (self.rows.min(self.cols), self.cols.max(self.rows));
        let wide = if self.rows <= self.cols {
            self.clone()
        } else {
            self.transpose()
        };
        // iterate over all k-subsets of n columns
        let mut subset: Vec<usize> = (0..k).collect();
        loop {
            let rows: Vec<usize> = (0..k).collect();
            let sub = wide.submatrix(&rows, &subset);
            if sub.rank() != k {
                return false;
            }
            // next combination
            let mut i = k;
            loop {
                if i == 0 {
                    return true;
                }
                i -= 1;
                if subset[i] != i + n - k {
                    subset[i] += 1;
                    for j in i + 1..k {
                        subset[j] = subset[j - 1] + 1;
                    }
                    break;
                }
            }
        }
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for j in 0..self.cols {
            self.data.swap(a * self.cols + j, b * self.cols + j);
        }
    }
}

impl<F: Field> core::ops::Index<(usize, usize)> for Matrix<F> {
    type Output = F;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &F {
        &self.data[i * self.cols + j]
    }
}

impl<F: Field> core::ops::IndexMut<(usize, usize)> for Matrix<F> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut F {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_field::Fp32;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<Fp32> {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(rows, cols, |_, _| Fp32::random(&mut rng))
    }

    #[test]
    fn identity_inverse_is_identity() {
        let id = Matrix::<Fp32>::identity(4);
        assert_eq!(id.inverse().unwrap(), id);
    }

    #[test]
    fn inverse_times_self_is_identity() {
        let m = random_matrix(6, 6, 1);
        let inv = m.inverse().unwrap();
        assert_eq!(m.mul(&inv), Matrix::identity(6));
        assert_eq!(inv.mul(&m), Matrix::identity(6));
    }

    #[test]
    fn singular_matrix_detected() {
        let mut m = random_matrix(4, 4, 2);
        // make row 3 = row 0 + row 1
        for j in 0..4 {
            let v = m[(0, j)] + m[(1, j)];
            m[(3, j)] = v;
        }
        assert_eq!(m.inverse(), Err(CodingError::SingularMatrix));
        assert_eq!(m.rank(), 3);
    }

    #[test]
    fn transpose_involution() {
        let m = random_matrix(3, 7, 5);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn mul_associative_small() {
        let a = random_matrix(3, 4, 6);
        let b = random_matrix(4, 2, 7);
        let c = random_matrix(2, 5, 8);
        assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
    }

    #[test]
    fn vandermonde_is_mds_brute_force() {
        // 3×6 Vandermonde over distinct points is MDS.
        let pts: Vec<Fp32> = lsa_field::evaluation_points(6);
        let m = Matrix::from_fn(3, 6, |i, j| pts[j].pow(i as u64));
        assert!(m.is_mds());
    }

    #[test]
    fn repeated_points_not_mds() {
        let mut pts: Vec<Fp32> = lsa_field::evaluation_points(6);
        pts[3] = pts[0]; // duplicate point => some submatrix singular
        let m = Matrix::from_fn(3, 6, |i, j| pts[j].pow(i as u64));
        assert!(!m.is_mds());
    }

    #[test]
    fn rank_of_wide_matrix() {
        let m = random_matrix(3, 10, 11);
        assert_eq!(m.rank(), 3);
    }
}
