//! Multi-round secure federated training — the canonical `Federation`
//! walkthrough.
//!
//! FedAvg over synthetic data where every round's averaging runs through
//! the persistent secure federation: quantize → one federated round
//! (offline mask sharing for round `t+1` overlapped with round `t`,
//! §4.1) → one-shot recovery → dequantize. The **same loop** drives both
//! protocol variants through a `Box<dyn SecureAggregator>` — the
//! synchronous §4.1 pair and the buffered-asynchronous §4.2 pair are
//! picked by value, not by code path — and both are compared against
//! insecure plaintext averaging on the identical client-sampling stream.
//!
//! Run with: `cargo run --release --example secure_federated_training`

use lightsecagg::field::Fp61;
use lightsecagg::fl::{
    mean_aggregate, run_fedavg, Dataset, FedAvgConfig, LogisticRegression, RoundMetrics,
};
use lightsecagg::protocol::federation::{BufferedFederation, Federation, SyncFederation};
use lightsecagg::protocol::transport::MemTransport;
use lightsecagg::protocol::LsaConfig;
use lightsecagg::quantize::VectorQuantizer;
use lightsecagg::sim::SecureFedAvg;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N_CLIENTS: usize = 10;
const TRAIN_SEED: u64 = 6;

fn train(
    shards: &[Dataset],
    test: &Dataset,
    cfg: &FedAvgConfig,
    mut aggregate: impl FnMut(&[Vec<f32>]) -> Vec<f32>,
) -> Vec<RoundMetrics> {
    let mut model = LogisticRegression::new(10, 4);
    run_fedavg(
        &mut model,
        shards,
        test,
        cfg,
        &mut aggregate,
        &mut StdRng::seed_from_u64(TRAIN_SEED),
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(5);
    let (train_set, test) = Dataset::synthetic(2000, 10, 4, 2.0, &mut rng).split_test(0.2);
    let shards = train_set.iid_partition(N_CLIENTS);
    let cfg = FedAvgConfig {
        rounds: 10,
        ..FedAvgConfig::default()
    };

    // --- insecure baseline ---
    let plain = train(&shards, &test, &cfg, mean_aggregate);

    // --- secure: the same Federation loop over BOTH variants ---
    // privacy against T = 4 colluders, tolerate D = 3 dropouts per round
    let d = LogisticRegression::new(10, 4).num_params();
    let lsa_cfg = LsaConfig::new(N_CLIENTS, 4, 7, d)?;
    let quantizer = VectorQuantizer::new(1 << 16);
    let variants: Vec<(&str, Federation<Fp61>)> = vec![
        (
            "sync",
            Federation::new(Box::new(SyncFederation::new(
                lsa_cfg,
                MemTransport::new(),
                7,
            )?)),
        ),
        (
            "buffered-async",
            Federation::new(Box::new(BufferedFederation::unit_weight(
                lsa_cfg,
                MemTransport::new(),
                8,
            )?)),
        ),
    ];

    let mut secure_runs = Vec::new();
    for (name, federation) in variants {
        // one SecureFedAvg per variant: the federation was chosen by
        // value above; the training loop below is identical
        let mut secure =
            SecureFedAvg::new(federation, quantizer, 9).with_horizon(cfg.rounds as u64);
        let metrics = train(&shards, &test, &cfg, |updates| secure.aggregate(updates));
        secure_runs.push((name, metrics));
    }

    println!("round  plaintext-loss  sync-loss  buffered-loss");
    for (i, p) in plain.iter().enumerate() {
        println!(
            "{:>5}  {:>14.4}  {:>9.4}  {:>13.4}",
            p.round, p.loss, secure_runs[0].1[i].loss, secure_runs[1].1[i].loss
        );
    }

    let plain_final = plain.last().unwrap();
    println!(
        "\nplaintext final: loss {:.4}, accuracy {:.4}",
        plain_final.loss, plain_final.accuracy
    );
    for (name, metrics) in &secure_runs {
        let last = metrics.last().unwrap();
        println!(
            "{name:>14} final: loss {:.4}, accuracy {:.4}",
            last.loss, last.accuracy
        );
        assert!(
            (last.loss - plain_final.loss).abs() <= 0.05 * plain_final.loss,
            "{name} diverged from plaintext"
        );
        assert!(last.accuracy > 0.7, "{name} failed to learn");
    }
    println!("\nOK: both SecureAggregator variants preserve training quality");
    println!("    (losses within 5% of plaintext FedAvg, same sampling stream)");
    Ok(())
}
