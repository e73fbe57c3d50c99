//! Synthetic classification datasets and federated partitioners.
//!
//! Substitutes for MNIST/FEMNIST/CIFAR-10/GLD-23K: Gaussian class
//! clusters with controllable dimension, class count and separation.
//! What the reproduced experiments measure — the *relative* accuracy of
//! float FedBuff vs quantized LightSecAgg, and the effect of staleness
//! and quantization levels — depends on having a learnable task, not on
//! which learnable task, so deterministic synthetic data keeps the whole
//! pipeline reproducible and offline.

use rand::Rng;

/// Standard-normal sample via the Box–Muller transform (the `rand_distr`
/// crate is not in the approved dependency list, and this is all we need
/// from it).
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A labelled dataset with `f32` features.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Feature vectors, all of length [`Dataset::dim`].
    pub(crate) xs: Vec<Vec<f32>>,
    /// Class labels in `[0, classes)`.
    pub(crate) ys: Vec<usize>,
    /// Feature dimension.
    pub dim: usize,
    /// Number of classes.
    pub classes: usize,
}

impl Dataset {
    /// Number of samples.
    pub(crate) fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the dataset is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Generate a Gaussian-blob classification task.
    ///
    /// Each class `c` gets a mean vector with entries `±separation`
    /// (sign pattern derived from `c`), and samples are the mean plus
    /// unit-variance noise. `separation ≈ 1.5` gives a task where
    /// logistic regression reaches ≳90% accuracy — comparable headroom to
    /// the paper's MNIST/CIFAR tasks.
    pub fn synthetic<R: Rng + ?Sized>(
        samples: usize,
        dim: usize,
        classes: usize,
        separation: f64,
        rng: &mut R,
    ) -> Self {
        assert!(classes >= 2, "need at least two classes");
        assert!(dim >= 1, "need at least one feature");
        // class means: deterministic ± pattern scaled by separation
        let means: Vec<Vec<f64>> = (0..classes)
            .map(|c| {
                (0..dim)
                    .map(|k| {
                        let bit = (c >> (k % (usize::BITS as usize - 1))) & 1;
                        let sign = if (k + bit).is_multiple_of(2) {
                            1.0
                        } else {
                            -1.0
                        };
                        // vary magnitude with a per-class phase so means differ
                        sign * separation * (1.0 + 0.3 * ((c * 7 + k * 3) % 5) as f64 / 5.0)
                    })
                    .collect()
            })
            .collect();
        let mut xs = Vec::with_capacity(samples);
        let mut ys = Vec::with_capacity(samples);
        for i in 0..samples {
            let c = i % classes;
            let x: Vec<f32> = means[c]
                .iter()
                .map(|&m| (m + standard_normal(rng)) as f32)
                .collect();
            xs.push(x);
            ys.push(c);
        }
        Self {
            xs,
            ys,
            dim,
            classes,
        }
    }

    /// Split off a held-out test set (the last `fraction` of samples).
    pub fn split_test(mut self, fraction: f64) -> (Dataset, Dataset) {
        let test_len = ((self.len() as f64) * fraction).round() as usize;
        let cut = self.len() - test_len.min(self.len());
        let test_xs = self.xs.split_off(cut);
        let test_ys = self.ys.split_off(cut);
        let test = Dataset {
            xs: test_xs,
            ys: test_ys,
            dim: self.dim,
            classes: self.classes,
        };
        (self, test)
    }

    /// IID partition into `k` equal shards (round-robin).
    pub fn iid_partition(&self, k: usize) -> Vec<Dataset> {
        assert!(k >= 1);
        let mut shards: Vec<Dataset> = (0..k)
            .map(|_| Dataset {
                xs: Vec::new(),
                ys: Vec::new(),
                dim: self.dim,
                classes: self.classes,
            })
            .collect();
        for (i, (x, y)) in self.xs.iter().zip(&self.ys).enumerate() {
            shards[i % k].xs.push(x.clone());
            shards[i % k].ys.push(*y);
        }
        shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn synthetic_is_deterministic_per_seed() {
        let a = Dataset::synthetic(100, 5, 3, 1.5, &mut StdRng::seed_from_u64(1));
        let b = Dataset::synthetic(100, 5, 3, 1.5, &mut StdRng::seed_from_u64(1));
        assert_eq!(a, b);
        let c = Dataset::synthetic(100, 5, 3, 1.5, &mut StdRng::seed_from_u64(2));
        assert_ne!(a, c);
    }

    #[test]
    fn labels_are_balanced() {
        let d = Dataset::synthetic(300, 4, 3, 1.0, &mut StdRng::seed_from_u64(3));
        for c in 0..3 {
            assert_eq!(d.ys.iter().filter(|&&y| y == c).count(), 100);
        }
    }

    #[test]
    fn iid_partition_covers_everything() {
        let d = Dataset::synthetic(100, 4, 2, 1.0, &mut StdRng::seed_from_u64(4));
        let shards = d.iid_partition(7);
        assert_eq!(shards.iter().map(Dataset::len).sum::<usize>(), 100);
        // each shard has both classes (round-robin guarantees near-balance)
        for s in &shards {
            assert!(s.ys.contains(&0));
            assert!(s.ys.contains(&1));
        }
    }

    #[test]
    fn split_test_fraction() {
        let d = Dataset::synthetic(200, 3, 2, 1.0, &mut StdRng::seed_from_u64(7));
        let (train, test) = d.split_test(0.25);
        assert_eq!(train.len(), 150);
        assert_eq!(test.len(), 50);
    }

    #[test]
    fn split_test_extremes() {
        let d = Dataset::synthetic(50, 3, 2, 1.0, &mut StdRng::seed_from_u64(11));
        let (train, test) = d.clone().split_test(0.0);
        assert_eq!(train.len(), 50);
        assert!(test.is_empty());
        let (train, test) = d.split_test(1.0);
        assert!(train.is_empty());
        assert_eq!(test.len(), 50);
    }
}
