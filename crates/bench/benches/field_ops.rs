//! Micro-benchmarks of the field kernels (the constants behind
//! `KernelCosts`), including the GF(2^32−5) vs GF(2^61−1) ablation.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use lsa_field::{Field, Fp32, Fp61};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(150))
        .measurement_time(Duration::from_millis(600))
}

fn bench_field_ops(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let len = 1 << 14;

    let mut group = c.benchmark_group("vector_axpy");
    {
        let x: Vec<Fp32> = lsa_field::ops::random_vector(len, &mut rng);
        let mut acc = vec![Fp32::ZERO; len];
        let coef = Fp32::from_u64(12345);
        group.bench_with_input(BenchmarkId::new("fp32", len), &len, |b, _| {
            b.iter(|| lsa_field::ops::axpy(black_box(&mut acc), black_box(coef), black_box(&x)))
        });
    }
    {
        let x: Vec<Fp61> = lsa_field::ops::random_vector(len, &mut rng);
        let mut acc = vec![Fp61::ZERO; len];
        let coef = Fp61::from_u64(12345);
        group.bench_with_input(BenchmarkId::new("fp61", len), &len, |b, _| {
            b.iter(|| lsa_field::ops::axpy(black_box(&mut acc), black_box(coef), black_box(&x)))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("vector_add");
    {
        let x: Vec<Fp32> = lsa_field::ops::random_vector(len, &mut rng);
        let mut acc = vec![Fp32::ZERO; len];
        group.bench_function("fp32", |b| {
            b.iter(|| lsa_field::ops::add_assign(black_box(&mut acc), black_box(&x)))
        });
    }
    {
        let x: Vec<Fp61> = lsa_field::ops::random_vector(len, &mut rng);
        let mut acc = vec![Fp61::ZERO; len];
        group.bench_function("fp61", |b| {
            b.iter(|| lsa_field::ops::add_assign(black_box(&mut acc), black_box(&x)))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("scalar_inverse");
    group.bench_function("fp32", |b| {
        let x = Fp32::from_u64(987654321);
        b.iter(|| black_box(x).inv())
    });
    group.bench_function("fp61", |b| {
        let x = Fp61::from_u64(987654321);
        b.iter(|| black_box(x).inv())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_field_ops
}
criterion_main!(benches);
