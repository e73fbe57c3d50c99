//! A pure-Rust trainable model with a flat parameter vector.
//!
//! The protocols mask *flattened* parameter vectors, so the model
//! exposes its parameters as a `Vec<f32>` (the paper's `x_i ∈ R^d`).
//! Multinomial logistic regression is the paper's MNIST task; training
//! compute is an input of the timing model, so parameter count, not
//! architecture, is what matters for the protocol comparison.

use crate::dataset::Dataset;

fn softmax(logits: &mut [f64]) {
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for l in logits.iter_mut() {
        *l = (*l - max).exp();
        sum += *l;
    }
    for l in logits.iter_mut() {
        *l /= sum;
    }
}

/// Multinomial logistic regression (`classes × dim` weights + biases).
///
/// # Example
///
/// ```
/// use lsa_fl::{Dataset, LogisticRegression};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let data = Dataset::synthetic(200, 6, 3, 2.0, &mut rng);
/// let model = LogisticRegression::new(6, 3);
/// assert_eq!(model.num_params(), 6 * 3 + 3);
/// let (loss, grad) = model.loss_grad(&data, &[0, 1, 2, 3]);
/// assert!(loss > 0.0);
/// assert_eq!(grad.len(), model.num_params());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticRegression {
    dim: usize,
    classes: usize,
    /// Row-major `classes × dim` weight matrix followed by `classes`
    /// biases.
    theta: Vec<f32>,
}

impl LogisticRegression {
    /// Zero-initialised model.
    pub fn new(dim: usize, classes: usize) -> Self {
        assert!(classes >= 2 && dim >= 1);
        Self {
            dim,
            classes,
            theta: vec![0.0; classes * dim + classes],
        }
    }

    fn logits(&self, x: &[f32]) -> Vec<f64> {
        (0..self.classes)
            .map(|c| {
                let row = &self.theta[c * self.dim..(c + 1) * self.dim];
                let bias = self.theta[self.classes * self.dim + c];
                row.iter()
                    .zip(x)
                    .map(|(&w, &xi)| w as f64 * xi as f64)
                    .sum::<f64>()
                    + bias as f64
            })
            .collect()
    }

    /// Number of parameters `d`.
    pub fn num_params(&self) -> usize {
        self.theta.len()
    }

    /// Copy of the flattened parameters.
    pub fn params(&self) -> Vec<f32> {
        self.theta.clone()
    }

    /// Overwrite parameters from a flat slice.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != self.num_params()`.
    pub fn set_params(&mut self, params: &[f32]) {
        assert_eq!(params.len(), self.theta.len(), "parameter length mismatch");
        self.theta.copy_from_slice(params);
    }

    /// Mean cross-entropy loss and gradient on a batch (indices into the
    /// dataset).
    pub fn loss_grad(&self, data: &Dataset, batch: &[usize]) -> (f64, Vec<f32>) {
        assert!(!batch.is_empty(), "empty batch");
        let mut grad = vec![0.0f32; self.theta.len()];
        let mut loss = 0.0f64;
        let scale = 1.0 / batch.len() as f64;
        for &i in batch {
            let x = &data.xs[i];
            let y = data.ys[i];
            let mut p = self.logits(x);
            softmax(&mut p);
            loss -= p[y].max(1e-12).ln() * scale;
            for c in 0..self.classes {
                let err = (p[c] - if c == y { 1.0 } else { 0.0 }) * scale;
                let row = &mut grad[c * self.dim..(c + 1) * self.dim];
                for (g, &xi) in row.iter_mut().zip(x) {
                    *g += (err * xi as f64) as f32;
                }
                grad[self.classes * self.dim + c] += err as f32;
            }
        }
        (loss, grad)
    }

    /// Predicted class for one feature vector.
    pub(crate) fn predict(&self, x: &[f32]) -> usize {
        let logits = self.logits(x);
        logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(c, _)| c)
            .expect("at least one class")
    }

    /// Mean cross-entropy loss over a full dataset — the convergence
    /// metric secure-vs-plaintext training comparisons pin. A
    /// forward-only pass: it equals [`LogisticRegression::loss_grad`]'s
    /// loss over every index without building the gradient.
    pub(crate) fn loss(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let scale = 1.0 / data.len() as f64;
        data.xs
            .iter()
            .zip(&data.ys)
            .map(|(x, &y)| {
                let mut p = self.logits(x);
                softmax(&mut p);
                -p[y].max(1e-12).ln() * scale
            })
            .sum()
    }

    /// Accuracy on a dataset.
    pub(crate) fn accuracy(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let correct = data
            .xs
            .iter()
            .zip(&data.ys)
            .filter(|(x, &y)| self.predict(x) == y)
            .count();
        correct as f64 / data.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_data(seed: u64) -> Dataset {
        Dataset::synthetic(240, 6, 3, 2.0, &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn logreg_gradient_matches_finite_difference() {
        let data = toy_data(1);
        let mut model = LogisticRegression::new(6, 3);
        // nudge params off zero so the gradient is non-trivial
        let mut p = model.params();
        for (i, v) in p.iter_mut().enumerate() {
            *v = ((i % 7) as f32 - 3.0) * 0.05;
        }
        model.set_params(&p);
        let batch: Vec<usize> = (0..16).collect();
        let (_, grad) = model.loss_grad(&data, &batch);
        let eps = 1e-3f32;
        for idx in [0usize, 5, 10, 20] {
            let mut plus = p.clone();
            plus[idx] += eps;
            let mut m2 = model.clone();
            m2.set_params(&plus);
            let (l_plus, _) = m2.loss_grad(&data, &batch);
            let mut minus = p.clone();
            minus[idx] -= eps;
            m2.set_params(&minus);
            let (l_minus, _) = m2.loss_grad(&data, &batch);
            let fd = (l_plus - l_minus) / (2.0 * eps as f64);
            assert!(
                (fd - grad[idx] as f64).abs() < 1e-3,
                "param {idx}: fd {fd} vs grad {}",
                grad[idx]
            );
        }
    }

    #[test]
    fn gradient_descent_reduces_loss_and_learns() {
        let data = toy_data(3);
        let mut model = LogisticRegression::new(6, 3);
        let batch: Vec<usize> = (0..data.len()).collect();
        let (loss0, _) = model.loss_grad(&data, &batch);
        for _ in 0..200 {
            let (_, g) = model.loss_grad(&data, &batch);
            let mut p = model.params();
            for (pv, gv) in p.iter_mut().zip(&g) {
                *pv -= 0.5 * gv;
            }
            model.set_params(&p);
        }
        let (loss1, _) = model.loss_grad(&data, &batch);
        assert!(loss1 < loss0 * 0.5, "loss {loss0} -> {loss1}");
        assert!(
            model.accuracy(&data) > 0.85,
            "acc {}",
            model.accuracy(&data)
        );
    }

    #[test]
    fn forward_only_loss_matches_loss_grad() {
        let data = toy_data(5);
        let batch: Vec<usize> = (0..data.len()).collect();
        let mut lr = LogisticRegression::new(6, 3);
        let mut p = lr.params();
        for (i, v) in p.iter_mut().enumerate() {
            *v = ((i % 5) as f32 - 2.0) * 0.1;
        }
        lr.set_params(&p);
        assert!((lr.loss(&data) - lr.loss_grad(&data, &batch).0).abs() < 1e-9);
    }

    #[test]
    fn params_roundtrip() {
        let mut m = LogisticRegression::new(4, 3);
        let p: Vec<f32> = (0..m.num_params()).map(|i| i as f32 * 0.25 - 1.0).collect();
        m.set_params(&p);
        assert_eq!(m.params(), p);
    }

    #[test]
    #[should_panic(expected = "parameter length mismatch")]
    fn wrong_param_length_panics() {
        let mut m = LogisticRegression::new(4, 2);
        m.set_params(&[0.0; 3]);
    }

    #[test]
    fn accuracy_on_empty_dataset_is_zero() {
        let empty = Dataset {
            xs: vec![],
            ys: vec![],
            dim: 4,
            classes: 2,
        };
        assert_eq!(LogisticRegression::new(4, 2).accuracy(&empty), 0.0);
    }

    #[test]
    fn zero_init_logreg_predicts_one_class_consistently() {
        // with all-zero weights every logit ties; prediction must be
        // deterministic (argmax picks a fixed index), not random
        let m = LogisticRegression::new(4, 3);
        let p1 = m.predict(&[1.0, 2.0, 3.0, 4.0]);
        let p2 = m.predict(&[-1.0, 5.0, 0.0, 2.0]);
        assert_eq!(p1, p2);
    }
}
