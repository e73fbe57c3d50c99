//! End-to-end secure FedAvg across a long stable-cohort stretch: the
//! run must be **bit-identical** under every ratchet policy, the
//! always-rekey one included (masks cancel exactly in the field, so the
//! fast path may not change a single aggregate), survive one churn
//! fallback and one mid-round dropout, ratchet at least 10 of its
//! rounds, and land within 5% of the plaintext-FedAvg loss.

use lsa_field::Fp61;
use lsa_fl::{mean_aggregate, run_fedavg, Dataset, FedAvgConfig, LogisticRegression, RoundMetrics};
use lsa_protocol::federation::{SecureAggregator, SyncFederation};
use lsa_protocol::ratchet::policies;
use lsa_protocol::transport::MemTransport;
use lsa_protocol::wire::EnvelopeKind;
use lsa_protocol::{LsaConfig, RatchetPolicy};
use lsa_quantize::VectorQuantizer;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 8;
const DIM: usize = 8;
const CLASSES: usize = 4;
const ROUNDS: usize = 14;
/// Round whose cohort shrinks to 7 members — a churn fallback.
const CHURN_ROUND: usize = 3;
/// Round where member 4 drops *after* uploading — recovery mid-ratchet.
const DROPOUT_ROUND: usize = 8;

/// The secure aggregation seam for `run_fedavg`: quantize, run one
/// federated round, dequantize — with the round's scripted churn and
/// dropout injected, and ratcheted rounds counted by the absence of
/// coded-share traffic.
struct SecureSeam {
    fed: SyncFederation<Fp61, MemTransport>,
    quantizer: VectorQuantizer,
    qrng: StdRng,
    round_idx: usize,
    ratcheted_rounds: usize,
}

impl SecureSeam {
    fn new(d: usize, policy: RatchetPolicy) -> Self {
        let cfg = LsaConfig::new(N, 2, 6, d).unwrap().with_ratchet(policy);
        Self {
            fed: SyncFederation::new(cfg, MemTransport::new(), 77).unwrap(),
            quantizer: VectorQuantizer::new(1 << 16),
            qrng: StdRng::seed_from_u64(4242),
            round_idx: 0,
            ratcheted_rounds: 0,
        }
    }

    fn aggregate(&mut self, updates: &[Vec<f32>]) -> Vec<f32> {
        let r = self.round_idx;
        self.round_idx += 1;
        let cohort: Vec<usize> = if r == CHURN_ROUND {
            (0..N - 1).collect()
        } else {
            (0..N).collect()
        };
        // quantize only the participating cohort, in cohort order, so
        // every policy's run consumes an identical rng stream
        let quantized: Vec<(usize, Vec<Fp61>)> = cohort
            .iter()
            .map(|&i| {
                let reals: Vec<f64> = updates[i].iter().map(|&v| f64::from(v)).collect();
                (i, self.quantizer.quantize(&reals, &mut self.qrng))
            })
            .collect();
        let shares_before = self
            .fed
            .transport()
            .kind_count(EnvelopeKind::CodedMaskShare);
        self.fed.open_round(&cohort).unwrap();
        for (i, q) in &quantized {
            self.fed.submit(*i, q).unwrap();
        }
        if r == DROPOUT_ROUND {
            // after-upload dropout: the update stays in, recovery
            // reconstructs Σz from the surviving members' shares
            self.fed.mark_dropped(4).unwrap();
        }
        let out = self.fed.finish_round().unwrap();
        if self
            .fed
            .transport()
            .kind_count(EnvelopeKind::CodedMaskShare)
            == shares_before
        {
            self.ratcheted_rounds += 1;
        }
        self.quantizer
            .dequantize_sum(&out.aggregate, out.total_weight)
            .into_iter()
            .map(|v| v as f32)
            .collect()
    }
}

fn train(seam: Option<&mut SecureSeam>) -> Vec<RoundMetrics> {
    let mut rng = StdRng::seed_from_u64(1);
    let data = Dataset::synthetic(1200, DIM, CLASSES, 2.0, &mut rng);
    let (train, test) = data.split_test(0.2);
    let shards = train.iid_partition(N);
    let mut model = LogisticRegression::new(DIM, CLASSES);
    let cfg = FedAvgConfig {
        rounds: ROUNDS,
        ..FedAvgConfig::default()
    };
    match seam {
        Some(seam) => run_fedavg(
            &mut model,
            &shards,
            &test,
            &cfg,
            |u| seam.aggregate(u),
            &mut rng,
        ),
        None => run_fedavg(&mut model, &shards, &test, &cfg, mean_aggregate, &mut rng),
    }
}

#[test]
fn secure_training_over_ratcheted_stretch_matches_rekey_and_plaintext() {
    let d = LogisticRegression::new(DIM, CLASSES).params().len();

    let plain = train(None);

    let runs = policies().map(|policy| {
        let mut seam = SecureSeam::new(d, policy);
        let metrics = train(Some(&mut seam));
        (policy, metrics, seam.ratcheted_rounds)
    });
    let fast_metrics = &runs[0].1;
    for (policy, metrics, ratcheted_rounds) in &runs {
        // masks cancel exactly in the field: a ratcheted round and a
        // re-keyed round of the same inputs decode the same aggregate,
        // so every secure trajectory must be bit-identical
        assert_eq!(
            metrics, fast_metrics,
            "training under {policy:?} diverged from the default policy"
        );
        if policy.enabled() {
            // base round + churn round + post-churn re-key pay the full
            // exchange; every other round — the dropout one included —
            // rides the ratchet
            assert!(
                *ratcheted_rounds >= 10,
                "expected a 10+ round ratcheted stretch under {policy:?}, got {ratcheted_rounds}"
            );
        } else {
            assert_eq!(*ratcheted_rounds, 0, "{policy:?} must re-key every round");
        }
    }

    // quantization noise and the scripted churn round are the only
    // differences from plaintext FedAvg: the final loss stays within 5%
    let secure_loss = fast_metrics.last().unwrap().loss;
    let plain_loss = plain.last().unwrap().loss;
    assert!(
        (secure_loss - plain_loss).abs() <= 0.05 * plain_loss,
        "secure loss {secure_loss} vs plaintext {plain_loss}"
    );
    assert!(
        fast_metrics.last().unwrap().accuracy > 0.8,
        "secure training failed to learn"
    );
}
