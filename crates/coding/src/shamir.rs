//! Shamir `t`-out-of-`n` secret sharing (Shamir 1979).
//!
//! Used by the SecAgg and SecAgg+ baselines: every user Shamir-shares its
//! private PRG seed `b_i` and its secret key `sk_i` so the server can
//! reconstruct exactly one of them per user during dropout recovery
//! (Bonawitz et al. 2017, §3 of the LightSecAgg paper).
//!
//! A secret `s ∈ F` is hidden in the constant term of a uniformly random
//! polynomial `f` of degree `t`; share `j` is `f(α_j)` for a fixed public
//! point `α_j ≠ 0`. Any `t+1` shares reconstruct `f(0) = s` by Lagrange
//! interpolation; any `t` shares are statistically independent of `s`.

use crate::{interpolation, CodingError};
use lsa_field::{evaluation_points, Field};
use rand::Rng;

/// One Shamir share: the evaluation of the sharing polynomial at the
/// holder's public point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Share<F> {
    /// Index of the holder (0-based; the evaluation point is `index + 1`).
    pub index: usize,
    /// The share value `f(α_index)`.
    pub value: F,
}

/// A `t`-out-of-`n` Shamir sharing scheme over field `F`.
///
/// `threshold` is the paper's `T`: up to `threshold` colluding holders
/// learn nothing; `threshold + 1` shares reconstruct.
///
/// # Example
///
/// ```
/// use lsa_coding::ShamirScheme;
/// use lsa_field::Fp32;
/// use rand::SeedableRng;
///
/// let scheme = ShamirScheme::<Fp32>::new(5, 2).unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let secret = Fp32::from(123u32);
/// let shares = scheme.share(secret, &mut rng);
/// let rec = scheme.reconstruct(&shares[1..4]).unwrap();
/// assert_eq!(rec, secret);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShamirScheme<F> {
    n: usize,
    threshold: usize,
    points: Vec<F>,
}

impl<F: Field> ShamirScheme<F> {
    /// Create a scheme distributing `n` shares with privacy threshold
    /// `threshold` (degree of the sharing polynomial).
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::InvalidParameters`] unless
    /// `threshold < n` and `n ≥ 1`.
    pub fn new(n: usize, threshold: usize) -> Result<Self, CodingError> {
        if n == 0 || threshold >= n {
            return Err(CodingError::InvalidParameters(format!(
                "need threshold < n and n >= 1, got threshold={threshold}, n={n}"
            )));
        }
        Ok(Self {
            n,
            threshold,
            points: evaluation_points(n),
        })
    }

    /// Share a single secret.
    pub fn share<R: Rng + ?Sized>(&self, secret: F, rng: &mut R) -> Vec<Share<F>> {
        // f(x) = secret + c_1 x + … + c_t x^t with uniform c_k.
        let mut coeffs = Vec::with_capacity(self.threshold + 1);
        coeffs.push(secret);
        for _ in 0..self.threshold {
            coeffs.push(F::random(rng));
        }
        self.points
            .iter()
            .enumerate()
            .map(|(index, &x)| {
                // Horner evaluation of f at x.
                let mut acc = F::ZERO;
                for &c in coeffs.iter().rev() {
                    acc = acc * x + c;
                }
                Share { index, value: acc }
            })
            .collect()
    }

    /// Share a vector of secrets element-wise (independent polynomials, the
    /// same holder points). Share `j` of the result holds the `j`-th
    /// evaluation of every element polynomial.
    pub fn share_vector<R: Rng + ?Sized>(&self, secrets: &[F], rng: &mut R) -> Vec<Vec<Share<F>>> {
        let mut per_holder: Vec<Vec<Share<F>>> = (0..self.n)
            .map(|_| Vec::with_capacity(secrets.len()))
            .collect();
        for &s in secrets {
            for sh in self.share(s, rng) {
                per_holder[sh.index].push(sh);
            }
        }
        per_holder
    }

    /// Reconstruct the secret from at least `threshold + 1` shares.
    ///
    /// Only the first `threshold + 1` shares are used.
    ///
    /// # Errors
    ///
    /// * [`CodingError::NotEnoughShares`] with fewer than `t+1` shares,
    /// * [`CodingError::ShareIndexOutOfRange`] / [`CodingError::DuplicateShareIndex`]
    ///   for malformed share indices.
    pub fn reconstruct(&self, shares: &[Share<F>]) -> Result<F, CodingError> {
        let need = self.threshold + 1;
        if shares.len() < need {
            return Err(CodingError::NotEnoughShares {
                got: shares.len(),
                need,
            });
        }
        let used = &shares[..need];
        let mut xs = Vec::with_capacity(need);
        for sh in used {
            if sh.index >= self.n {
                return Err(CodingError::ShareIndexOutOfRange {
                    index: sh.index,
                    n: self.n,
                });
            }
            xs.push(self.points[sh.index]);
        }
        let weights = interpolation::lagrange_weights_at(&xs, F::ZERO)?;
        Ok(used.iter().zip(&weights).map(|(sh, &w)| sh.value * w).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_field::{Fp32, Fp61};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn share_reconstruct_roundtrip() {
        let scheme = ShamirScheme::<Fp32>::new(7, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let secret = Fp32::from_u64(987654);
        let shares = scheme.share(secret, &mut rng);
        assert_eq!(shares.len(), 7);
        // any 4 shares reconstruct
        for subset in [[0usize, 1, 2, 3], [3, 4, 5, 6], [6, 4, 2, 0]] {
            let sel: Vec<_> = subset.iter().map(|&i| shares[i]).collect();
            assert_eq!(scheme.reconstruct(&sel).unwrap(), secret);
        }
    }

    #[test]
    fn too_few_shares_fail() {
        let scheme = ShamirScheme::<Fp32>::new(5, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let shares = scheme.share(Fp32::ONE, &mut rng);
        assert!(matches!(
            scheme.reconstruct(&shares[..2]),
            Err(CodingError::NotEnoughShares { got: 2, need: 3 })
        ));
    }

    #[test]
    fn t_shares_leak_nothing_statistically() {
        // With threshold t, the joint distribution of any t shares is
        // independent of the secret. Empirically: share two different
        // secrets with the same RNG stream consumed independently and
        // check a chi-square-ish invariance of a single share's residue
        // distribution. We use a cheap proxy: over many trials the
        // distribution of (share value mod 16) should be near-uniform for
        // both secrets.
        let scheme = ShamirScheme::<Fp32>::new(4, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut buckets = [[0u32; 16]; 2];
        for trial in 0..4000 {
            for (s_idx, secret) in [Fp32::ZERO, Fp32::from_u64(u32::MAX as u64)]
                .into_iter()
                .enumerate()
            {
                let shares = scheme.share(secret, &mut rng);
                let v = shares[trial % 4].value.residue() % 16;
                buckets[s_idx][v as usize] += 1;
            }
        }
        for b in buckets {
            for count in b {
                // expectation 250; allow generous slack
                assert!((150..350).contains(&count), "bucket count {count}");
            }
        }
    }

    #[test]
    fn share_vector_reconstructs_elementwise() {
        let scheme = ShamirScheme::<Fp61>::new(6, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let secrets: Vec<Fp61> = lsa_field::ops::random_vector(5, &mut rng);
        let per_holder = scheme.share_vector(&secrets, &mut rng);
        assert_eq!(per_holder.len(), 6);
        // reconstruct element k from holders {1, 3, 5}
        for k in 0..5 {
            let sel = [per_holder[1][k], per_holder[3][k], per_holder[5][k]];
            assert_eq!(scheme.reconstruct(&sel).unwrap(), secrets[k]);
        }
    }

    #[test]
    fn invalid_parameters() {
        assert!(ShamirScheme::<Fp32>::new(0, 0).is_err());
        assert!(ShamirScheme::<Fp32>::new(3, 3).is_err());
    }

    #[test]
    fn duplicate_share_rejected() {
        let scheme = ShamirScheme::<Fp32>::new(4, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let shares = scheme.share(Fp32::ONE, &mut rng);
        let dup = [shares[0], shares[0]];
        assert!(matches!(
            scheme.reconstruct(&dup),
            Err(CodingError::DuplicateShareIndex(_))
        ));
    }
}
