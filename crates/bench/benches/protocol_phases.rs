//! End-to-end protocol-phase benchmarks at small scale: the *real*
//! LightSecAgg, SecAgg and SecAgg+ rounds executed in memory — the
//! LightSecAgg one on the deployed path, a fresh `SyncFederation` per
//! round. This is the measured counterpart of the simulator's op-count
//! model (a validation test cross-checks the ordering).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use lsa_baselines::{run_secagg_round, SecAggConfig};
use lsa_field::Fp32;
use lsa_protocol::transport::MemTransport;
use lsa_protocol::{
    DropoutSchedule, Federation, LsaConfig, RoundOutcome, RoundPlan, SyncFederation,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1))
}

const N: usize = 20;
const D: usize = 4096;

fn models(seed: u64) -> Vec<Vec<Fp32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..N)
        .map(|_| lsa_field::ops::random_vector(D, &mut rng))
        .collect()
}

fn dropouts(p: f64) -> DropoutSchedule {
    let k = (N as f64 * p) as usize;
    DropoutSchedule::after_upload((0..k).collect())
}

fn lightsecagg_round(
    cfg: LsaConfig,
    ms: &[Vec<Fp32>],
    sched: &DropoutSchedule,
    seed: u64,
) -> RoundOutcome<Fp32> {
    let sync = SyncFederation::new(cfg, MemTransport::new(), seed).unwrap();
    Federation::new(Box::new(sync))
        .run_round(&RoundPlan::from_schedule(ms, sched))
        .unwrap()
}

fn bench_rounds(c: &mut Criterion) {
    let ms = models(1);

    let mut group = c.benchmark_group("full_round");
    for p in [0.1f64, 0.3] {
        let sched = dropouts(p);
        // LightSecAgg with the paper's U = ⌊0.7N⌋ rule
        let cfg = LsaConfig::new(N, N / 2, (7 * N / 10).max(N / 2 + 1), D).unwrap();
        group.bench_with_input(
            BenchmarkId::new("lightsecagg", format!("p{p}")),
            &p,
            |b, _| b.iter(|| black_box(lightsecagg_round(cfg, &ms, &sched, 2))),
        );

        let sa_cfg = SecAggConfig::secagg(N, N / 2 - 1, D).unwrap();
        group.bench_with_input(BenchmarkId::new("secagg", format!("p{p}")), &p, |b, _| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(2);
                black_box(run_secagg_round(&sa_cfg, &ms, &sched, &mut rng).unwrap())
            })
        });

        let sap_cfg = SecAggConfig::secagg_plus(N, D).unwrap();
        group.bench_with_input(
            BenchmarkId::new("secagg_plus", format!("p{p}")),
            &p,
            |b, _| {
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(2);
                    black_box(run_secagg_round(&sap_cfg, &ms, &sched, &mut rng).unwrap())
                })
            },
        );
    }
    group.finish();

    // U-ablation on the LightSecAgg round
    let mut group = c.benchmark_group("lightsecagg_u_ablation");
    for u in [11usize, 14, 18] {
        let cfg = LsaConfig::new(N, N / 2, u, D).unwrap();
        let sched = dropouts(0.1);
        group.bench_with_input(BenchmarkId::new("u", u), &u, |b, _| {
            b.iter(|| black_box(lightsecagg_round(cfg, &ms, &sched, 3)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_rounds
}
criterion_main!(benches);
