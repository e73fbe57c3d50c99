//! End-to-end integration: federated training whose aggregation runs
//! through the real protocols, compared against insecure training on
//! identical streams.

use lightsecagg::field::Fp61;
use lightsecagg::fl::{
    mean_aggregate, run_fedavg, run_fedbuff, Dataset, FedAvgConfig, FedBuffConfig,
    LogisticRegression, PlainFedBuff,
};
use lightsecagg::net::{Duplex, NetworkConfig};
use lightsecagg::protocol::topology::GroupTopology;
use lightsecagg::protocol::transport::MemTransport;
use lightsecagg::protocol::{DropoutSchedule, Federation, LsaConfig, RoundPlan, SyncFederation};
use lightsecagg::quantize::{StalenessFn, VectorQuantizer};
use lightsecagg::sim::{LsaBufferAggregator, SecureFedAvg};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn data() -> (Dataset, Dataset) {
    let mut rng = StdRng::seed_from_u64(1);
    Dataset::synthetic(1600, 8, 4, 2.0, &mut rng).split_test(0.25)
}

#[test]
fn fedavg_through_lightsecagg_matches_plain_training() {
    let (train, test) = data();
    let n_clients = 8;
    let shards = train.iid_partition(n_clients);
    let cfg = FedAvgConfig {
        rounds: 8,
        ..FedAvgConfig::default()
    };

    let mut plain_model = LogisticRegression::new(8, 4);
    let plain = run_fedavg(
        &mut plain_model,
        &shards,
        &test,
        &cfg,
        mean_aggregate,
        &mut StdRng::seed_from_u64(2),
    );

    let quantizer = VectorQuantizer::new(1 << 16);
    let mut secure_model = LogisticRegression::new(8, 4);
    let d = secure_model.num_params();
    let lsa_cfg = LsaConfig::new(n_clients, 3, 6, d).unwrap();
    let mut agg_rng = StdRng::seed_from_u64(3);
    let secure = run_fedavg(
        &mut secure_model,
        &shards,
        &test,
        &cfg,
        |updates: &[Vec<f32>]| {
            let field_models: Vec<Vec<Fp61>> = updates
                .iter()
                .map(|u| {
                    let reals: Vec<f64> = u.iter().map(|&v| v as f64).collect();
                    quantizer.quantize(&reals, &mut agg_rng)
                })
                .collect();
            // a fresh federation per aggregation: one §4.1 round, no ratchet
            let sync = SyncFederation::new(lsa_cfg, MemTransport::new(), agg_rng.gen()).unwrap();
            let sched = DropoutSchedule::after_upload(vec![1, 6]);
            let out = Federation::new(Box::new(sync))
                .run_round(&RoundPlan::from_schedule(&field_models, &sched))
                .unwrap();
            quantizer
                .dequantize(&out.aggregate)
                .into_iter()
                .map(|v| (v / out.contributors.len() as f64) as f32)
                .collect()
        },
        &mut StdRng::seed_from_u64(2),
    );

    // identical client sampling stream + near-exact aggregation ⇒ the
    // two accuracy trajectories coincide within quantization noise
    for (p, s) in plain.iter().zip(&secure) {
        assert!(
            (p.accuracy - s.accuracy).abs() < 0.08,
            "round {}: plain {} vs secure {}",
            p.round,
            p.accuracy,
            s.accuracy
        );
    }
    assert!(secure.last().unwrap().accuracy > 0.8);
}

#[test]
fn fedavg_through_federation_over_simtransport_converges() {
    // The acceptance bar for the multi-round API: `run_fedavg` backed by
    // the persistent secure federation over a *simulated network* (every
    // envelope pays bandwidth/latency as real serialized bytes), with
    // §4.1's overlapped next-round mask sharing, lands within 5% of the
    // plaintext FedAvg loss on the identical client-sampling stream.
    let (train, test) = data();
    let n_clients = 8;
    let shards = train.iid_partition(n_clients);
    let cfg = FedAvgConfig {
        rounds: 8,
        ..FedAvgConfig::default()
    };

    let mut plain_model = LogisticRegression::new(8, 4);
    let plain = run_fedavg(
        &mut plain_model,
        &shards,
        &test,
        &cfg,
        mean_aggregate,
        &mut StdRng::seed_from_u64(7),
    );

    let mut secure_model = LogisticRegression::new(8, 4);
    let d = secure_model.num_params();
    let lsa_cfg = LsaConfig::new(n_clients, 3, 6, d).unwrap();
    let mut secure_agg = SecureFedAvg::<Fp61>::sync_sim(
        lsa_cfg,
        VectorQuantizer::new(1 << 16),
        NetworkConfig::paper_default(n_clients),
        Duplex::Full,
        8,
    )
    .unwrap()
    .with_horizon(cfg.rounds as u64);
    let secure = run_fedavg(
        &mut secure_model,
        &shards,
        &test,
        &cfg,
        |updates: &[Vec<f32>]| secure_agg.aggregate(updates),
        &mut StdRng::seed_from_u64(7),
    );

    let plain_loss = plain.last().unwrap().loss;
    let secure_loss = secure.last().unwrap().loss;
    assert!(
        (plain_loss - secure_loss).abs() <= 0.05 * plain_loss,
        "secure loss {secure_loss} diverged from plaintext loss {plain_loss}"
    );
    assert!(secure.last().unwrap().accuracy > 0.8);
}

#[test]
fn fedavg_through_grouped_federation_over_simtransport_converges() {
    // The grouped-topology acceptance bar: secure FedAvg through a
    // GroupedFederation (two groups of four, each with its own masks,
    // thresholds and evaluation points) over a simulated network lands
    // within 5% of the plaintext FedAvg loss on the identical
    // client-sampling stream.
    let (train, test) = data();
    let n_clients = 8;
    let shards = train.iid_partition(n_clients);
    let cfg = FedAvgConfig {
        rounds: 8,
        ..FedAvgConfig::default()
    };

    let mut plain_model = LogisticRegression::new(8, 4);
    let plain = run_fedavg(
        &mut plain_model,
        &shards,
        &test,
        &cfg,
        mean_aggregate,
        &mut StdRng::seed_from_u64(21),
    );

    let mut secure_model = LogisticRegression::new(8, 4);
    let d = secure_model.num_params();
    // two groups of 4: t=1 colluders tolerated per group, u=3 survivors
    let topo = GroupTopology::uniform(n_clients, 2, 0.25, 0.75, d).unwrap();
    let mut secure_agg = SecureFedAvg::<Fp61>::grouped_sim(
        topo,
        VectorQuantizer::new(1 << 16),
        NetworkConfig::paper_default(n_clients),
        Duplex::Full,
        22,
    )
    .unwrap()
    .with_horizon(cfg.rounds as u64);
    let secure = run_fedavg(
        &mut secure_model,
        &shards,
        &test,
        &cfg,
        |updates: &[Vec<f32>]| secure_agg.aggregate(updates),
        &mut StdRng::seed_from_u64(21),
    );

    let plain_loss = plain.last().unwrap().loss;
    let secure_loss = secure.last().unwrap().loss;
    assert!(
        (plain_loss - secure_loss).abs() <= 0.05 * plain_loss,
        "grouped secure loss {secure_loss} diverged from plaintext loss {plain_loss}"
    );
    assert!(secure.last().unwrap().accuracy > 0.8);
}

#[test]
fn fedavg_through_two_level_hierarchy_at_n4096_converges() {
    // The aggregator-tree acceptance bar (ISSUE 5): a two-level
    // hierarchical secure-FedAvg run at N = 4096 (16 super-groups x 16
    // leaf groups x 16 clients) over a timed MemTransport — every leaf group on
    // its own simulated link — lands within 5% of the plaintext FedAvg
    // loss on the identical client-sampling stream. No loop anywhere
    // touches all 4096 clients: the root folds 16 child aggregates,
    // each child folds 16 leaf aggregates of 16 clients.
    let n_clients = 4096;
    let mut rng = StdRng::seed_from_u64(31);
    let (train, test) = Dataset::synthetic(8192, 8, 2, 2.0, &mut rng).split_test(0.25);
    let shards = train.iid_partition(n_clients);
    let cfg = FedAvgConfig {
        rounds: 3,
        ..FedAvgConfig::default()
    };

    let mut plain_model = LogisticRegression::new(8, 2);
    let plain = run_fedavg(
        &mut plain_model,
        &shards,
        &test,
        &cfg,
        mean_aggregate,
        &mut StdRng::seed_from_u64(32),
    );

    let mut secure_model = LogisticRegression::new(8, 2);
    let d = secure_model.num_params();
    // leaf groups of 16: t=4 colluders tolerated, u=15 survivors; the
    // network only needs a channel per leaf-local client
    let topology = GroupTopology::two_level(n_clients, 16, 16, 0.25, 0.9, d).unwrap();
    let mut secure_agg = SecureFedAvg::<Fp61>::grouped_sim(
        topology,
        VectorQuantizer::new(1 << 16),
        NetworkConfig::paper_default(16),
        Duplex::Full,
        33,
    )
    .unwrap()
    .with_horizon(cfg.rounds as u64);
    let secure = run_fedavg(
        &mut secure_model,
        &shards,
        &test,
        &cfg,
        |updates: &[Vec<f32>]| secure_agg.aggregate(updates),
        &mut StdRng::seed_from_u64(32),
    );

    let plain_loss = plain.last().unwrap().loss;
    let secure_loss = secure.last().unwrap().loss;
    assert!(
        (plain_loss - secure_loss).abs() <= 0.05 * plain_loss,
        "hierarchical secure loss {secure_loss} diverged from plaintext loss {plain_loss}"
    );
    // the trajectory must match round-for-round, not just at the end
    for (p, s) in plain.iter().zip(&secure) {
        assert!(
            (p.loss - s.loss).abs() <= 0.05 * p.loss,
            "round {}: plain loss {} vs secure loss {}",
            p.round,
            p.loss,
            s.loss
        );
    }
}

#[test]
fn fedavg_through_buffered_federation_matches_sync_variant() {
    // Same loop, other SecureAggregator variant: the buffered-async
    // federation behind the identical `run_fedavg` seam.
    let (train, test) = data();
    let n_clients = 6;
    let shards = train.iid_partition(n_clients);
    let cfg = FedAvgConfig {
        rounds: 6,
        ..FedAvgConfig::default()
    };

    let mut plain_model = LogisticRegression::new(8, 4);
    let plain = run_fedavg(
        &mut plain_model,
        &shards,
        &test,
        &cfg,
        mean_aggregate,
        &mut StdRng::seed_from_u64(9),
    );

    let mut secure_model = LogisticRegression::new(8, 4);
    let d = secure_model.num_params();
    let lsa_cfg = LsaConfig::new(n_clients, 2, 4, d).unwrap();
    let mut secure_agg =
        SecureFedAvg::<Fp61>::buffered_mem(lsa_cfg, VectorQuantizer::new(1 << 16), 10)
            .unwrap()
            .with_horizon(cfg.rounds as u64);
    let secure = run_fedavg(
        &mut secure_model,
        &shards,
        &test,
        &cfg,
        |updates: &[Vec<f32>]| secure_agg.aggregate(updates),
        &mut StdRng::seed_from_u64(9),
    );

    let plain_loss = plain.last().unwrap().loss;
    let secure_loss = secure.last().unwrap().loss;
    assert!(
        (plain_loss - secure_loss).abs() <= 0.05 * plain_loss,
        "buffered secure loss {secure_loss} vs plaintext {plain_loss}"
    );
}

#[test]
fn fedbuff_through_async_lightsecagg_tracks_plain() {
    let (train, test) = data();
    let shards = train.iid_partition(40);
    let cfg = FedBuffConfig {
        rounds: 12,
        buffer_k: 8,
        tau_max: 6,
        ..FedBuffConfig::default()
    };

    let mut plain_model = LogisticRegression::new(8, 4);
    let mut plain_agg = PlainFedBuff {
        staleness: StalenessFn::Poly { alpha: 1.0 },
    };
    let plain = run_fedbuff(
        &mut plain_model,
        &shards,
        &test,
        &cfg,
        &mut plain_agg,
        &mut StdRng::seed_from_u64(4),
    );

    let mut secure_model = LogisticRegression::new(8, 4);
    let mut secure_agg =
        LsaBufferAggregator::<Fp61>::paper_default(StalenessFn::Poly { alpha: 1.0 });
    let secure = run_fedbuff(
        &mut secure_model,
        &shards,
        &test,
        &cfg,
        &mut secure_agg,
        &mut StdRng::seed_from_u64(4),
    );

    let pa = plain.last().unwrap().accuracy;
    let sa = secure.last().unwrap().accuracy;
    assert!(
        (pa - sa).abs() < 0.08,
        "final accuracies diverged: plain {pa} vs secure {sa}"
    );
    assert!(sa > 0.7, "secure async training should learn ({sa})");
}
