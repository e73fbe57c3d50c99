//! Federated-learning training substrate for the LightSecAgg
//! reproduction.
//!
//! Replaces the paper's PyTorch + real-dataset stack with
//! a small, fully deterministic pure-Rust pipeline:
//!
//! * [`Dataset`] — synthetic Gaussian-blob classification with an IID
//!   federated partitioner;
//! * [`LogisticRegression`] — the flat-parameter classifier;
//! * [`LocalTraining`] — local SGD producing the FL local-update rule
//!   `Δ_i = x(t_i) − x_i^{(E)}` (Eq. 24 of the paper);
//! * [`run_fedavg`] — synchronous FedAvg with a pluggable aggregation
//!   seam (where secure aggregation plugs in);
//! * [`run_fedbuff`] — buffered asynchronous FL (FedBuff-style), the
//!   baseline of Figures 7/11/12, with the [`BufferAggregator`] seam for
//!   the secure quantized variant.
//!
//! # Example: train a model with FedAvg
//!
//! ```
//! use lsa_fl::{mean_aggregate, run_fedavg, Dataset, FedAvgConfig,
//!              LogisticRegression};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let (train, test) = Dataset::synthetic(600, 6, 3, 2.0, &mut rng).split_test(0.2);
//! let shards = train.iid_partition(4);
//! let mut model = LogisticRegression::new(6, 3);
//! let cfg = FedAvgConfig { rounds: 5, ..FedAvgConfig::default() };
//! let metrics = run_fedavg(&mut model, &shards, &test, &cfg, mean_aggregate, &mut rng);
//! assert_eq!(metrics.len(), 5);
//! ```

pub mod dataset;
pub mod fedavg;
pub mod fedbuff;
pub mod model;
pub mod sgd;

pub use dataset::Dataset;
pub use fedavg::{mean_aggregate, run_fedavg, FedAvgConfig, RoundMetrics};
pub use fedbuff::{
    run_fedbuff, BufferAggregator, BufferedContribution, FedBuffConfig, PlainFedBuff,
};
pub use model::LogisticRegression;
pub use sgd::LocalTraining;

/// Parameter counts of the paper's four evaluated models (Table 2); used
/// by the timing experiments so message sizes match the paper exactly.
pub mod model_sizes {
    /// Logistic regression on MNIST.
    pub const LOGISTIC_MNIST: usize = 7_850;
    /// CNN (McMahan et al. 2017) on FEMNIST.
    pub const CNN_FEMNIST: usize = 1_206_590;
    /// MobileNetV3 on CIFAR-10.
    pub const MOBILENETV3_CIFAR10: usize = 3_111_462;
    /// EfficientNet-B0 on GLD-23K.
    pub const EFFICIENTNET_GLD23K: usize = 5_288_548;
}
