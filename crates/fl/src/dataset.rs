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

    /// Split off a held-out test set (the last `fraction` of samples,
    /// after a seeded shuffle performed by the caller if desired).
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

    /// Shuffle samples in place.
    pub fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            let j = rng.gen_range(0..=i);
            self.xs.swap(i, j);
            self.ys.swap(i, j);
        }
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

    /// Non-IID partition: each client's class mix is drawn from a
    /// symmetric Dirichlet with concentration `alpha` (small `alpha` =
    /// more skew), the standard federated-benchmark construction.
    pub fn dirichlet_partition<R: Rng + ?Sized>(
        &self,
        k: usize,
        alpha: f64,
        rng: &mut R,
    ) -> Vec<Dataset> {
        assert!(k >= 1);
        assert!(alpha > 0.0);
        // group sample indices by class
        let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); self.classes];
        for (i, &y) in self.ys.iter().enumerate() {
            by_class[y].push(i);
        }
        let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); k];
        for idxs in by_class {
            // Dirichlet via normalized Gamma(alpha, 1); for alpha ≤ 1 use
            // the Ahrens-Dieter boost: Gamma(a) = Gamma(a+1)·U^(1/a).
            let props: Vec<f64> = (0..k).map(|_| gamma_sample(alpha, rng)).collect();
            let total: f64 = props.iter().sum();
            let mut cursor = 0usize;
            for (c, p) in props.iter().enumerate() {
                let take = if c + 1 == k {
                    idxs.len() - cursor
                } else {
                    ((p / total) * idxs.len() as f64).floor() as usize
                };
                let take = take.min(idxs.len() - cursor);
                assignment[c].extend(&idxs[cursor..cursor + take]);
                cursor += take;
            }
        }
        assignment
            .into_iter()
            .map(|idxs| Dataset {
                xs: idxs.iter().map(|&i| self.xs[i].clone()).collect(),
                ys: idxs.iter().map(|&i| self.ys[i]).collect(),
                dim: self.dim,
                classes: self.classes,
            })
            .collect()
    }
}

/// Sample `Gamma(shape, 1)` (Marsaglia–Tsang, with the small-shape boost).
fn gamma_sample<R: Rng + ?Sized>(shape: f64, rng: &mut R) -> f64 {
    if shape < 1.0 {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        return gamma_sample(shape + 1.0, rng) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x: f64 = standard_normal(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
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
    fn dirichlet_partition_covers_everything_and_skews() {
        let d = Dataset::synthetic(1000, 4, 5, 1.0, &mut StdRng::seed_from_u64(5));
        let mut rng = StdRng::seed_from_u64(6);
        let shards = d.dirichlet_partition(10, 0.1, &mut rng);
        assert_eq!(shards.iter().map(Dataset::len).sum::<usize>(), 1000);
        // with alpha = 0.1 at least one shard should be visibly skewed:
        // its majority class holds > 50% of its samples
        let skewed = shards.iter().filter(|s| !s.is_empty()).any(|s| {
            let mut counts = [0usize; 5];
            for &y in &s.ys {
                counts[y] += 1;
            }
            let max = *counts.iter().max().unwrap();
            max * 2 > s.len()
        });
        assert!(skewed);
    }

    #[test]
    fn split_test_fraction() {
        let d = Dataset::synthetic(200, 3, 2, 1.0, &mut StdRng::seed_from_u64(7));
        let (train, test) = d.split_test(0.25);
        assert_eq!(train.len(), 150);
        assert_eq!(test.len(), 50);
    }

    #[test]
    fn shuffle_permutes_but_preserves_pairs() {
        let d = Dataset::synthetic(100, 4, 2, 1.0, &mut StdRng::seed_from_u64(9));
        let mut shuffled = d.clone();
        shuffled.shuffle(&mut StdRng::seed_from_u64(10));
        assert_ne!(shuffled.xs, d.xs, "shuffle should move samples");
        // every (x, y) pair still present exactly once
        for (x, y) in d.xs.iter().zip(&d.ys) {
            let count = shuffled
                .xs
                .iter()
                .zip(&shuffled.ys)
                .filter(|(sx, sy)| *sx == x && *sy == y)
                .count();
            assert_eq!(count, 1);
        }
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

    #[test]
    fn dirichlet_large_alpha_near_uniform() {
        let d = Dataset::synthetic(1000, 4, 4, 1.0, &mut StdRng::seed_from_u64(12));
        let mut rng = StdRng::seed_from_u64(13);
        let shards = d.dirichlet_partition(5, 100.0, &mut rng);
        // with alpha = 100 every shard should get 100..300 of the 1000
        for s in &shards {
            assert!((100..=300).contains(&s.len()), "shard size {}", s.len());
        }
    }

    #[test]
    fn gamma_sampler_mean_close_to_shape() {
        let mut rng = StdRng::seed_from_u64(8);
        for shape in [0.3f64, 1.0, 4.0] {
            let n = 20_000;
            let sum: f64 = (0..n).map(|_| gamma_sample(shape, &mut rng)).sum();
            let mean = sum / n as f64;
            assert!(
                (mean - shape).abs() < 0.1 * shape.max(0.5),
                "shape {shape}: mean {mean}"
            );
        }
    }
}
