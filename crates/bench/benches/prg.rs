//! PRG expansion benchmarks — the server-side bottleneck of
//! SecAgg/SecAgg+ (Table 1's `O(dN²)` / `O(dN log N)` rows is this
//! kernel times the pair count).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use lsa_crypto::{chacha::ChaCha20, sha256, FieldPrg, Seed};
use lsa_field::simd::{available, with_backend};
use lsa_field::{Field, Fp32, Fp61};
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(150))
        .measurement_time(Duration::from_millis(700))
}

fn bench_prg(c: &mut Criterion) {
    let mut group = c.benchmark_group("prg_expand");
    for log_d in [12u32, 16] {
        let d = 1usize << log_d;
        group.bench_with_input(BenchmarkId::new("fp32", d), &d, |b, &d| {
            b.iter(|| {
                let mut prg = FieldPrg::new(Seed::from_label(b"bench"));
                black_box(prg.expand::<Fp32>(d))
            })
        });
        group.bench_with_input(BenchmarkId::new("fp61", d), &d, |b, &d| {
            b.iter(|| {
                let mut prg = FieldPrg::new(Seed::from_label(b"bench"));
                black_box(prg.expand::<Fp61>(d))
            })
        });
    }
    group.finish();

    // One ratchet pad at the flat benchmark shape (d = 32768), per SIMD
    // backend: materialised (`expand`) and fused into the mask
    // (`add_into` / `sub_into`, what the ratchet's pad loop runs).
    let mut group = c.benchmark_group("prg_pad_d32768");
    for backend in available() {
        with_backend(backend, || {
            // the raw keystream under an Fp61 pad (8 bytes per element)
            group.bench_function(BenchmarkId::new("keystream_256KiB", backend.name()), |b| {
                let mut out = vec![0u8; 8 * 32768];
                b.iter(|| ChaCha20::new(&[7u8; 32], &[0u8; 12]).fill(black_box(&mut out[..])))
            });
            pad_rows::<Fp32>(&mut group, "fp32", backend.name(), 32768);
            pad_rows::<Fp61>(&mut group, "fp61", backend.name(), 32768);
        });
    }
    group.finish();

    // Edge-secret material of one pad at that shape: two coded shares
    // of 1024 `u64` residues.
    c.bench_function("sha256/16KiB", |b| {
        let data = vec![0x5au8; 16 * 1024];
        b.iter(|| black_box(sha256::digest(black_box(&data))))
    });

    c.bench_function("sha256_seed_derive", |b| {
        let seed = Seed::from_label(b"root");
        b.iter(|| black_box(seed.derive(black_box(42))))
    });
}

fn pad_rows<F: Field>(
    group: &mut criterion::BenchmarkGroup<'_>,
    field: &str,
    backend: &str,
    d: usize,
) {
    group.bench_function(BenchmarkId::new(format!("expand/{field}"), backend), |b| {
        b.iter(|| black_box(FieldPrg::new(Seed::from_label(b"bench")).expand::<F>(d)))
    });
    let mut mask = vec![F::ONE; d];
    group.bench_function(
        BenchmarkId::new(format!("add_into/{field}"), backend),
        |b| b.iter(|| FieldPrg::new(Seed::from_label(b"bench")).add_into(black_box(&mut mask[..]))),
    );
    // half of every pad edge is the subtraction
    group.bench_function(
        BenchmarkId::new(format!("sub_into/{field}"), backend),
        |b| b.iter(|| FieldPrg::new(Seed::from_label(b"bench")).sub_into(black_box(&mut mask[..]))),
    );
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_prg
}
criterion_main!(benches);
