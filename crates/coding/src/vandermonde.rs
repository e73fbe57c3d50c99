//! The `T`-private `U×N` MDS code of LightSecAgg, realised as a
//! Vandermonde code.
//!
//! Eq. (5) of the paper encodes the `U` segments
//! `([z]_1, …, [z]_{U−T}, [n]_{U−T+1}, …, [n]_U)` with the `j`-th column of
//! a `T`-private MDS matrix `W ∈ F_q^{U×N}`. With
//! `W[k][j] = β_j^k` for distinct non-zero points `β_j`:
//!
//! * any `U×U` column-submatrix is Vandermonde ⇒ non-singular ⇒ **MDS**,
//!   giving dropout-resilience (any `U` coded segments decode);
//! * the bottom `T` rows are `β_j^{U−T+k} = β_j^{U−T}·β_j^k`, i.e. a
//!   Vandermonde matrix with columns rescaled by non-zero constants, so any
//!   `T×T` submatrix of them is non-singular too ⇒ **`T`-private**
//!   (Lemma 1 of the paper: `T` coded segments are jointly uniform when the
//!   `T` noise segments are).
//!
//! # The points: `±β`
//!
//! User `j` gets `β_j = +(⌊j/2⌋ + 1)` when `j` is even and
//! `−(⌊j/2⌋ + 1)` when `j` is odd: `+1, −1, +2, −2, …`. These are
//! distinct and non-zero (as long as `N + 1 < q`), which is all both
//! arguments above use — `tests/mds_privacy.rs` checks them on `W`
//! itself.
//!
//! Symmetric points halve the encode. Split `p(x) = Σ_k segments[k]·x^k`
//! into its even and odd coefficients, `p(x) = E(x²) + x·O(x²)`; then
//! `p(β) = E(β²) + β·O(β²)` and `p(−β) = E(β²) − β·O(β²)`. So all `N`
//! coded segments come from evaluating the two half-degree polynomials
//! at the `⌈N/2⌉` squares `β²` — half the Horner steps of evaluating
//! `p` at `N` points. The pair evaluation
//! ([`lsa_field::ops::eval_pairs`]) reads the caller's segments in
//! place, never copies them into halves, and where the field has the
//! kernel it multiplies by `β²` and `β` themselves — one 32-bit limb —
//! instead of by full-width powers, forms `E ± β·O` in registers and
//! stores each coded segment once, only for the signs a caller asked
//! for. The decoder cannot: Lagrange
//! coefficients are arbitrary residues, so it stays on the fused
//! [`lsa_field::ops::weighted_sum_into`], `O(U²)` scalar operations for
//! the basis plus `O(k·U·m)` multiply-accumulates for the first `k`
//! segments of length `m`.

use crate::{interpolation, CodingError};
use lsa_field::ops::Signs;
use lsa_field::Field;

/// A systematic-free Vandermonde MDS code of length `n` and dimension `u`.
///
/// # Example
///
/// ```
/// use lsa_coding::VandermondeCode;
/// use lsa_field::Fp32;
///
/// let code = VandermondeCode::<Fp32>::new(4, 2).unwrap();
/// let segs = vec![
///     vec![Fp32::from(1u32), Fp32::from(2u32)],
///     vec![Fp32::from(3u32), Fp32::from(4u32)],
/// ];
/// let coded = code.encode_all(&segs);
/// let recovered = code
///     .decode_prefix(&[(1, coded[1].clone()), (3, coded[3].clone())], 2)
///     .unwrap();
/// assert_eq!(recovered, segs);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VandermondeCode<F> {
    n: usize,
    u: usize,
    points: Vec<F>,
}

impl<F: Field> VandermondeCode<F> {
    /// Create a code of length `n` (number of users) and dimension `u`
    /// (number of segments, the paper's `U`).
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::InvalidParameters`] unless `0 < u ≤ n`
    /// and the field has `n` distinct points `±β`.
    pub fn new(n: usize, u: usize) -> Result<Self, CodingError> {
        if u == 0 || u > n || n as u64 + 1 >= F::MODULUS {
            return Err(CodingError::InvalidParameters(format!(
                "need 0 < u <= n < q - 1, got u={u}, n={n}"
            )));
        }
        let points = (0..n as u64)
            .map(|j| {
                let beta = F::from_u64(j / 2 + 1);
                if j % 2 == 0 {
                    beta
                } else {
                    -beta
                }
            })
            .collect();
        Ok(Self { n, u, points })
    }

    /// Code length `n` (one coded segment per user).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Code dimension `u`.
    pub fn u(&self) -> usize {
        self.u
    }

    /// The evaluation point assigned to user `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= n`.
    pub fn point(&self, j: usize) -> F {
        self.points[j]
    }

    /// Encode the coded segment destined to user `j`:
    /// `Σ_k segments[k] · β_j^k` (one Vandermonde column) — the
    /// single-user case of [`Self::encode_at`], same kernel.
    ///
    /// # Panics
    ///
    /// Panics if `segments.len() != u`, the segments are ragged, or
    /// `j >= n`.
    pub fn encode_for<S: AsRef<[F]>>(&self, segments: &[S], j: usize) -> Vec<F> {
        self.encode_at(segments, &[j]).swap_remove(0)
    }

    /// Encode the coded segments destined to each of `users`, in that
    /// order. Two users that share a `±β` pair cost one evaluation of
    /// the coefficient halves at `β²`, and a lone user of a pair costs
    /// the same halves and one combine, storing only its own sign (see
    /// [`lsa_field::ops::eval_pairs`]). The segments are borrowed views
    /// (any `AsRef<[F]>`), so a caller can encode straight from chunks
    /// of a longer vector without copying them.
    ///
    /// # Panics
    ///
    /// Panics if `segments.len() != u`, the segments are ragged, a user
    /// is listed twice, or a user is `>= n`.
    pub fn encode_at<S: AsRef<[F]>>(&self, segments: &[S], users: &[usize]) -> Vec<Vec<F>> {
        let mut sorted = users.to_vec();
        sorted.sort_unstable();
        assert!(
            sorted.windows(2).all(|w| w[0] < w[1]),
            "each user is listed once"
        );
        assert!(
            sorted.last().is_none_or(|&j| j < self.n),
            "user out of range"
        );
        // user 2i is `+β_i` and user 2i + 1 is `−β_i`: sorted users
        // group into pairs whose outputs come back in sorted order
        let mut pairs: Vec<(F, Signs)> = Vec::new();
        for &j in &sorted {
            let beta = self.points[j - j % 2];
            let sign = if j % 2 == 0 {
                Signs::Plus
            } else {
                Signs::Minus
            };
            match pairs.last_mut() {
                Some((b, signs)) if *b == beta => *signs = Signs::Both,
                _ => pairs.push((beta, sign)),
            }
        }
        let mut coded = self.eval_pairs(segments, &pairs);
        users
            .iter()
            .map(|j| {
                let at = sorted.binary_search(j).expect("every user was encoded");
                std::mem::take(&mut coded[at])
            })
            .collect()
    }

    /// Encode all `n` coded segments from one evaluation of each
    /// coefficient half at the `⌈n/2⌉` squares `β²` (see the module
    /// doc): the segments are read once for all the points, not once
    /// per user.
    ///
    /// # Panics
    ///
    /// Panics if `segments.len() != u` or the segments are ragged.
    pub fn encode_all<S: AsRef<[F]>>(&self, segments: &[S]) -> Vec<Vec<F>> {
        // the points are `+β, −β` pairs; for odd n the last `+β` is alone
        let pairs: Vec<(F, Signs)> = self
            .points
            .chunks(2)
            .map(|pair| match pair {
                [beta, _] => (*beta, Signs::Both),
                _ => (pair[0], Signs::Plus),
            })
            .collect();
        self.eval_pairs(segments, &pairs)
    }

    /// `p(±β)` for each `(β, signs)` of `pairs`, in order
    /// ([`lsa_field::ops::eval_pairs`] over views of the segments).
    fn eval_pairs<S: AsRef<[F]>>(&self, segments: &[S], pairs: &[(F, Signs)]) -> Vec<Vec<F>> {
        assert_eq!(segments.len(), self.u, "expected u segments");
        let views: Vec<&[F]> = segments.iter().map(AsRef::as_ref).collect();
        lsa_field::ops::eval_pairs(&views, pairs)
    }

    /// Decode the first `prefix` original segments from at least `u` coded
    /// segments `(user_index, payload)`.
    ///
    /// Only the first `u` supplied shares are used (the paper's server
    /// starts decoding as soon as any `U` messages arrive).
    ///
    /// # Errors
    ///
    /// * [`CodingError::NotEnoughShares`] with fewer than `u` shares,
    /// * [`CodingError::ShareIndexOutOfRange`] / [`CodingError::DuplicateShareIndex`]
    ///   for malformed indices,
    /// * [`CodingError::LengthMismatch`] for ragged payloads,
    /// * [`CodingError::InvalidParameters`] if `prefix > u`.
    pub fn decode_prefix(
        &self,
        shares: &[(usize, Vec<F>)],
        prefix: usize,
    ) -> Result<Vec<Vec<F>>, CodingError> {
        if prefix > self.u {
            return Err(CodingError::InvalidParameters(format!(
                "prefix {prefix} exceeds code dimension {}",
                self.u
            )));
        }
        if shares.len() < self.u {
            return Err(CodingError::NotEnoughShares {
                got: shares.len(),
                need: self.u,
            });
        }
        let used = &shares[..self.u];
        let mut xs = Vec::with_capacity(self.u);
        let seg_len = used[0].1.len();
        // Duplicate user indices are detected up front so the error
        // names the offending *user id* — not the position a later
        // basis-setup routine happened to trip over.
        let mut seen = std::collections::BTreeSet::new();
        for (idx, payload) in used {
            if *idx >= self.n {
                return Err(CodingError::ShareIndexOutOfRange {
                    index: *idx,
                    n: self.n,
                });
            }
            if !seen.insert(*idx) {
                return Err(CodingError::DuplicateShareIndex(*idx));
            }
            if payload.len() != seg_len {
                return Err(CodingError::LengthMismatch {
                    expected: seg_len,
                    got: payload.len(),
                });
            }
            xs.push(self.points[*idx]);
        }
        // Lagrange basis over the observed points; basis[i][k] is the
        // degree-k coefficient of L_i, so
        //   coeff_k = Σ_i basis[i][k] · payload_i.
        let basis = interpolation::lagrange_basis_coefficients(&xs)?;
        // Fused multi-axpy per output segment: coeff_k accumulates all
        // U payload terms in one widened pass, reduced once per element.
        let payloads: Vec<&[F]> = used.iter().map(|(_, p)| p.as_slice()).collect();
        let mut out = vec![vec![F::ZERO; seg_len]; prefix];
        for (k, out_k) in out.iter_mut().enumerate() {
            let coeffs: Vec<F> = basis.iter().map(|row| row[k]).collect();
            lsa_field::ops::weighted_sum_into(out_k, &coeffs, &payloads);
        }
        Ok(out)
    }

    /// Decode **all** `u` original segments (data + noise).
    ///
    /// # Errors
    ///
    /// Same as [`Self::decode_prefix`].
    pub fn decode_all(&self, shares: &[(usize, Vec<F>)]) -> Result<Vec<Vec<F>>, CodingError> {
        self.decode_prefix(shares, self.u)
    }

    /// Materialise the generator matrix `W` (`u×n`, `W[k][j] = β_j^k`).
    ///
    /// Intended for verification and tests; the encoder never builds it.
    pub fn generator_matrix(&self) -> crate::Matrix<F> {
        crate::Matrix::from_fn(self.u, self.n, |k, j| self.points[j].pow(k as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_field::{Fp32, Fp61};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_segments<F: Field>(u: usize, m: usize, seed: u64) -> Vec<Vec<F>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..u)
            .map(|_| lsa_field::ops::random_vector(m, &mut rng))
            .collect()
    }

    #[test]
    fn roundtrip_any_subset() {
        let code = VandermondeCode::<Fp32>::new(7, 4).unwrap();
        let segs = random_segments::<Fp32>(4, 9, 1);
        let coded = code.encode_all(&segs);
        // try several 4-subsets
        for subset in [[0, 1, 2, 3], [3, 4, 5, 6], [6, 0, 2, 5]] {
            let shares: Vec<_> = subset.iter().map(|&j| (j, coded[j].clone())).collect();
            let dec = code.decode_all(&shares).unwrap();
            assert_eq!(dec, segs);
        }
    }

    #[test]
    fn decode_prefix_only_returns_prefix() {
        let code = VandermondeCode::<Fp32>::new(5, 3).unwrap();
        let segs = random_segments::<Fp32>(3, 4, 2);
        let coded = code.encode_all(&segs);
        let shares: Vec<_> = [1usize, 2, 4]
            .iter()
            .map(|&j| (j, coded[j].clone()))
            .collect();
        let dec = code.decode_prefix(&shares, 2).unwrap();
        assert_eq!(dec.len(), 2);
        assert_eq!(dec, segs[..2].to_vec());
    }

    #[test]
    fn linearity_of_encoding() {
        // encode(a) + encode(b) == encode(a+b): the property behind the
        // one-shot aggregate-mask recovery (Eq. (6) of the paper).
        let code = VandermondeCode::<Fp32>::new(6, 3).unwrap();
        let a = random_segments::<Fp32>(3, 5, 3);
        let b = random_segments::<Fp32>(3, 5, 4);
        let sum: Vec<Vec<Fp32>> = a
            .iter()
            .zip(&b)
            .map(|(x, y)| lsa_field::ops::add(x, y))
            .collect();
        for j in 0..6 {
            let ea = code.encode_for(&a, j);
            let eb = code.encode_for(&b, j);
            let esum = code.encode_for(&sum, j);
            assert_eq!(lsa_field::ops::add(&ea, &eb), esum);
        }
    }

    #[test]
    fn encode_at_is_encode_all_for_the_listed_users() {
        // unsorted, both members of a pair, and a lone odd user, over
        // borrowed views of one flat vector
        let code = VandermondeCode::<Fp32>::new(7, 3).unwrap();
        let flat = random_segments::<Fp32>(1, 12, 10).swap_remove(0);
        let views: Vec<&[Fp32]> = flat.chunks_exact(4).collect();
        let all = code.encode_all(&views);
        let users = [5, 0, 6, 1, 3];
        let picked = code.encode_at(&views, &users);
        for (&j, got) in users.iter().zip(&picked) {
            assert_eq!(got, &all[j], "user {j}");
        }
    }

    /// A lone odd user, and lists of odd users only, take the `−β` sign
    /// alone: each column equals `encode_all`'s, on both fields, under
    /// every backend, with segments that leave the strips a tail.
    fn lone_and_odd_users_match_encode_all<F: Field>() {
        let code = VandermondeCode::<F>::new(15, 5).unwrap();
        let segs = random_segments::<F>(5, 33, 11);
        for backend in lsa_field::simd::available() {
            lsa_field::simd::with_backend(backend, || {
                let all = code.encode_all(&segs);
                let odd: Vec<usize> = (1..15).step_by(2).collect();
                for users in [
                    vec![1],
                    vec![13],
                    vec![9, 3],
                    odd.clone(),
                    odd[..5].to_vec(),
                ] {
                    let picked = code.encode_at(&segs, &users);
                    for (&j, got) in users.iter().zip(&picked) {
                        assert_eq!(got, &all[j], "user {j}, backend {}", backend.name());
                    }
                }
            });
        }
    }

    #[test]
    fn encode_at_lone_and_odd_users_match_encode_all() {
        lone_and_odd_users_match_encode_all::<Fp32>();
        lone_and_odd_users_match_encode_all::<Fp61>();
    }

    #[test]
    fn not_enough_shares_is_error() {
        let code = VandermondeCode::<Fp32>::new(5, 3).unwrap();
        let segs = random_segments::<Fp32>(3, 2, 5);
        let coded = code.encode_all(&segs);
        let shares = vec![(0, coded[0].clone()), (1, coded[1].clone())];
        assert_eq!(
            code.decode_all(&shares),
            Err(CodingError::NotEnoughShares { got: 2, need: 3 })
        );
    }

    #[test]
    fn duplicate_share_index_is_error() {
        let code = VandermondeCode::<Fp32>::new(5, 3).unwrap();
        let segs = random_segments::<Fp32>(3, 2, 6);
        let coded = code.encode_all(&segs);
        let shares = vec![
            (0, coded[0].clone()),
            (2, coded[2].clone()),
            (2, coded[2].clone()),
        ];
        // the error names the duplicated *user id*, not a basis position
        assert_eq!(
            code.decode_all(&shares),
            Err(CodingError::DuplicateShareIndex(2))
        );
    }

    #[test]
    fn out_of_range_index_is_error() {
        let code = VandermondeCode::<Fp32>::new(4, 2).unwrap();
        let segs = random_segments::<Fp32>(2, 2, 7);
        let coded = code.encode_all(&segs);
        let shares = vec![(0, coded[0].clone()), (9, coded[1].clone())];
        assert!(matches!(
            code.decode_all(&shares),
            Err(CodingError::ShareIndexOutOfRange { index: 9, n: 4 })
        ));
    }

    #[test]
    fn generator_matrix_matches_encoder() {
        let code = VandermondeCode::<Fp32>::new(5, 3).unwrap();
        let w = code.generator_matrix();
        // encode unit segments => columns of W
        for k in 0..3 {
            let mut segs = vec![vec![Fp32::ZERO; 1]; 3];
            segs[k][0] = Fp32::ONE;
            let coded = code.encode_all(&segs);
            for j in 0..5 {
                assert_eq!(coded[j][0], w[(k, j)]);
            }
        }
    }

    #[test]
    fn generator_is_t_private_mds() {
        // U = 4, T = 2: bottom-T-rows submatrix must itself be MDS
        // (definition of T-private in §4.1 of the paper).
        let code = VandermondeCode::<Fp32>::new(6, 4).unwrap();
        let w = code.generator_matrix();
        assert!(w.is_mds());
        let bottom = w.submatrix(&[2, 3], &(0..6).collect::<Vec<_>>());
        assert!(bottom.is_mds());
    }

    #[test]
    fn works_over_fp61() {
        let code = VandermondeCode::<Fp61>::new(8, 5).unwrap();
        let segs = random_segments::<Fp61>(5, 6, 9);
        let coded = code.encode_all(&segs);
        let shares: Vec<_> = [7usize, 5, 3, 1, 0]
            .iter()
            .map(|&j| (j, coded[j].clone()))
            .collect();
        assert_eq!(code.decode_all(&shares).unwrap(), segs);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(VandermondeCode::<Fp32>::new(3, 0).is_err());
        assert!(VandermondeCode::<Fp32>::new(3, 4).is_err());
    }
}
