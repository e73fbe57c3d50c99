//! Local SGD and the FL local-update rule.

use crate::dataset::Dataset;
use crate::model::Model;
use rand::Rng;

/// Local training hyper-parameters (the paper trains with `E = 5` local
/// epochs in all timing experiments, Appendix D).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalTraining {
    /// Local epochs `E`.
    pub(crate) epochs: usize,
    /// Mini-batch size.
    pub(crate) batch_size: usize,
    /// Local learning rate `η_l`.
    pub(crate) lr: f32,
}

impl Default for LocalTraining {
    fn default() -> Self {
        Self {
            epochs: 5,
            batch_size: 32,
            lr: 0.1,
        }
    }
}

/// Run local SGD from `global_params` on `shard` and return the paper's
/// local update `Δ_i = x(t_i) − x_i^{(E;t_i)}` (Eq. 24) — i.e. the
/// *descent direction*, so the server applies `x ← x − η_g·avg(Δ)`.
///
/// Returns the zero vector when the shard is empty (a silent no-op would
/// skew weighted averages; zero contributes nothing).
pub fn local_update<M: Model, R: Rng + ?Sized>(
    template: &M,
    global_params: &[f32],
    shard: &Dataset,
    cfg: &LocalTraining,
    rng: &mut R,
) -> Vec<f32> {
    if shard.is_empty() {
        return vec![0.0; global_params.len()];
    }
    let mut model = template.clone();
    model.set_params(global_params);
    let mut params = global_params.to_vec();
    let mut order: Vec<usize> = (0..shard.len()).collect();
    for _ in 0..cfg.epochs {
        // reshuffle each epoch
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        for batch in order.chunks(cfg.batch_size.max(1)) {
            let (_, grad) = model.loss_grad(shard, batch);
            for (p, g) in params.iter_mut().zip(&grad) {
                *p -= cfg.lr * g;
            }
            model.set_params(&params);
        }
    }
    global_params
        .iter()
        .zip(&params)
        .map(|(&g, &p)| g - p)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LogisticRegression;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn local_update_is_descent_direction() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = Dataset::synthetic(200, 5, 2, 2.0, &mut rng);
        let model = LogisticRegression::new(5, 2);
        let global = model.params();
        let delta = local_update(&model, &global, &data, &LocalTraining::default(), &mut rng);
        // applying x − 1.0·Δ (i.e. the trained params) lowers the loss
        let batch: Vec<usize> = (0..data.len()).collect();
        let (loss0, _) = model.loss_grad(&data, &batch);
        let mut trained = model.clone();
        let new_params: Vec<f32> = global.iter().zip(&delta).map(|(&g, &d)| g - d).collect();
        trained.set_params(&new_params);
        let (loss1, _) = trained.loss_grad(&data, &batch);
        assert!(loss1 < loss0, "{loss0} -> {loss1}");
    }

    #[test]
    fn empty_shard_gives_zero_update() {
        let mut rng = StdRng::seed_from_u64(2);
        let empty = Dataset {
            xs: vec![],
            ys: vec![],
            dim: 5,
            classes: 2,
        };
        let model = LogisticRegression::new(5, 2);
        let delta = local_update(
            &model,
            &model.params(),
            &empty,
            &LocalTraining::default(),
            &mut rng,
        );
        assert!(delta.iter().all(|&d| d == 0.0));
    }

    #[test]
    fn deterministic_given_seed() {
        let data = Dataset::synthetic(100, 4, 2, 1.5, &mut StdRng::seed_from_u64(3));
        let model = LogisticRegression::new(4, 2);
        let d1 = local_update(
            &model,
            &model.params(),
            &data,
            &LocalTraining::default(),
            &mut StdRng::seed_from_u64(7),
        );
        let d2 = local_update(
            &model,
            &model.params(),
            &data,
            &LocalTraining::default(),
            &mut StdRng::seed_from_u64(7),
        );
        assert_eq!(d1, d2);
    }
}
