//! Lazy-reduction bulk kernels vs the one-reduction-per-op scalar
//! reference, and the grouped-decode critical path.
//!
//! Three sweeps, all emitted to `LSA_BENCH_JSON` when set:
//!
//! * `field_kernels/{fused_multi_axpy,axpy_sweeps,sum_vectors_{lazy,sweeps}}
//!   /{fp32,fp61}/d{D}[/{backend}]` over `d ∈ {2¹⁴, 2¹⁸, 2²⁰}` × the
//!   compiled-in SIMD backends — the acceptance gates are
//!   `fused_multi_axpy` (the delayed-reduction kernel behind MDS
//!   decode/encode and the weighted-buffer folds) beating `axpy_sweeps`
//!   (the pre-refactor per-element-reduction decode loop) at `d = 2²⁰`
//!   on both fields, and the SIMD backend rows beating their `scalar`
//!   twins at `d = 2²⁰` on an AVX2 host (≥1.5× measured on the
//!   reference machine).
//! * `field_kernels/grouped_decode/N1024xG16/{backend}` — the decode
//!   critical path of a grouped round: 16 independent per-group
//!   one-shot recoveries (`n_g = 64`) one after another, per backend.
//! * `field_kernels/encode_all/fp61/{N64_U48,N200_U150}_m1024/{backend}`
//!   — one member's offline encode (`VandermondeCode::encode_all`) at
//!   the round ledger's `flat_churn` leaf and at the paper's `N = 200`,
//!   per backend. The encode splits the segments into even and odd
//!   coefficient halves, evaluates each at the `⌈N/2⌉` squares `β²`
//!   and combines them into `p(±β)`; the backend decides whether the
//!   halves go through the multi-point Horner kernel or the per-point
//!   scalar path. On a SIMD host the bench asserts the detected backend
//!   is ≥ 1.5× the forced-scalar run at `N = 64` (best of 20 calls
//!   each; skipped, with a stderr note, on scalar-only hosts).
//! * `field_kernels/encode_at/{fp32,fp61}/{N16_U12_m32,N64_U48_m1024}`
//!   — what a fresh ratchet base pays to re-encode the shares it sent
//!   to its hypercube pad partners (`VandermondeCode::encode_at` over
//!   views of the draw), at the ledger's tree leaf and flat shapes. One
//!   iteration is every member of the cohort's re-encode, so the time
//!   per element is the time per member.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lsa_coding::VandermondeCode;
use lsa_field::{ops, simd, Field, Fp32, Fp61};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

const SIZES: [usize; 3] = [1 << 14, 1 << 18, 1 << 20];
/// Terms in the fused multi-axpy — the shape of a per-group decode at
/// `n_g ≈ 16` survivors.
const TERMS: usize = 16;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(500))
}

fn bench_kernels_for<F: Field>(c: &mut Criterion, field: &str) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut group = c.benchmark_group("field_kernels");
    for d in SIZES {
        let x: Vec<F> = ops::random_vector(d, &mut rng);
        let coef = F::random(&mut rng);
        let inputs: Vec<Vec<F>> = (0..TERMS)
            .map(|_| ops::random_vector(d, &mut rng))
            .collect();
        let coeffs: Vec<F> = (0..TERMS).map(|_| F::random(&mut rng)).collect();
        let refs: Vec<&[F]> = inputs.iter().map(Vec::as_slice).collect();
        let mut acc: Vec<F> = ops::random_vector(d, &mut rng);

        group.throughput(Throughput::Elements(d as u64));
        for backend in simd::available() {
            group.bench_with_input(
                BenchmarkId::new(
                    format!("fused_multi_axpy/{field}"),
                    format!("d{d}/{}", backend.name()),
                ),
                &d,
                |b, _| {
                    simd::with_backend(backend, || {
                        b.iter(|| {
                            ops::weighted_sum_into(
                                black_box(&mut acc),
                                black_box(&coeffs),
                                black_box(&refs),
                            )
                        })
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(
                    format!("sum_vectors_lazy/{field}"),
                    format!("d{d}/{}", backend.name()),
                ),
                &d,
                |b, _| {
                    simd::with_backend(backend, || {
                        b.iter(|| {
                            black_box(ops::sum_vectors(black_box(&refs).iter().copied()).unwrap())
                                .len()
                        })
                    })
                },
            );
        }
        // per-element-reduction baselines
        group.bench_with_input(
            BenchmarkId::new(format!("axpy_sweeps/{field}"), format!("d{d}")),
            &d,
            |b, _| {
                b.iter(|| {
                    ops::reference::weighted_sum_into(
                        black_box(&mut acc),
                        black_box(&coeffs),
                        black_box(&refs),
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new(format!("sum_vectors_sweeps/{field}"), format!("d{d}")),
            &d,
            |b, _| {
                b.iter(|| {
                    black_box(
                        ops::reference::sum_vectors(black_box(&refs).iter().copied()).unwrap(),
                    )
                    .len()
                })
            },
        );
        // single-axpy context row: one term is one reduction either way
        group.bench_with_input(
            BenchmarkId::new(format!("axpy_single/{field}"), format!("d{d}")),
            &d,
            |b, _| b.iter(|| ops::axpy(black_box(&mut acc), black_box(coef), black_box(&x))),
        );
    }
    group.finish();
}

fn bench_field_kernels(c: &mut Criterion) {
    bench_kernels_for::<Fp32>(c, "fp32");
    bench_kernels_for::<Fp61>(c, "fp61");
}

/// One group's decode inputs at the N=1024, G=16 leaf of
/// `GroupTopology::uniform(1024, 16, 0.25, 0.9, ..)` (n_g = 64,
/// t_g = 16, u_g = 58), with a model large enough that the fused
/// multi-axpy carries real weight next to the O(u²) basis setup.
struct DecodeTask<F> {
    code: VandermondeCode<F>,
    shares: Vec<(usize, Vec<F>)>,
    prefix: usize,
}

fn decode_tasks(groups: usize, seed: u64) -> Vec<DecodeTask<Fp61>> {
    let n_g = 64;
    let t_g = 16;
    let u_g = 58; // ⌈0.9·64⌉ = 58
    let d = 4096usize;
    let data_segments = u_g - t_g;
    let seg_len = d.div_ceil(data_segments);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..groups)
        .map(|_| {
            let code = VandermondeCode::<Fp61>::new(n_g, u_g).unwrap();
            let segments: Vec<Vec<Fp61>> = (0..u_g)
                .map(|_| ops::random_vector(seg_len, &mut rng))
                .collect();
            let shares: Vec<(usize, Vec<Fp61>)> = (0..u_g)
                .map(|j| (j, code.encode_for(&segments, j)))
                .collect();
            DecodeTask {
                code,
                shares,
                prefix: data_segments,
            }
        })
        .collect()
}

fn run_decodes(tasks: &[DecodeTask<Fp61>]) -> usize {
    tasks
        .iter()
        .map(|task| {
            task.code
                .decode_prefix(&task.shares, task.prefix)
                .expect("decodes")
                .len()
        })
        .sum()
}

fn bench_grouped_decode(c: &mut Criterion) {
    let tasks = decode_tasks(16, 2);
    let mut group = c.benchmark_group("field_kernels");
    group.throughput(Throughput::Elements(16));
    for backend in simd::available() {
        group.bench_function(
            BenchmarkId::new("grouped_decode/N1024xG16", backend.name()),
            |b| simd::with_backend(backend, || b.iter(|| black_box(run_decodes(&tasks)))),
        );
    }
    group.finish();
}

/// `(N, U)` of the encode rows: the ledger's `flat_churn` leaf and the
/// paper's headline cohort, both at a 1024-element segment.
const ENCODE_SHAPES: [(usize, usize); 2] = [(64, 48), (200, 150)];
const ENCODE_SEGMENT: usize = 1024;

fn bench_encode_all(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let mut group = c.benchmark_group("field_kernels");
    for (n, u) in ENCODE_SHAPES {
        let code = VandermondeCode::<Fp61>::new(n, u).unwrap();
        let segments: Vec<Vec<Fp61>> = (0..u)
            .map(|_| ops::random_vector(ENCODE_SEGMENT, &mut rng))
            .collect();
        group.throughput(Throughput::Elements((n * u * ENCODE_SEGMENT) as u64));
        for backend in simd::available() {
            group.bench_function(
                BenchmarkId::new(
                    "encode_all/fp61",
                    format!("N{n}_U{u}_m{ENCODE_SEGMENT}/{}", backend.name()),
                ),
                |b| {
                    simd::with_backend(backend, || {
                        b.iter(|| black_box(code.encode_all(black_box(&segments))))
                    })
                },
            );
        }
        if n == 64 {
            assert_encode_simd_speedup(&code, &segments);
        }
    }
    group.finish();
}

/// Best wall-clock of 20 `encode_all` calls under `backend` (the
/// minimum is robust against scheduler noise on shared CI hosts).
fn best_encode(
    code: &VandermondeCode<Fp61>,
    segments: &[Vec<Fp61>],
    backend: simd::Backend,
) -> Duration {
    simd::with_backend(backend, || {
        (0..20)
            .map(|_| {
                let start = Instant::now();
                black_box(code.encode_all(black_box(segments)));
                start.elapsed()
            })
            .min()
            .expect("20 > 0")
    })
}

/// The multi-point Horner kernel must earn its keep: ≥ 1.5× the
/// per-point scalar encode at the ledger's shape. Guarded as
/// `mask_ratchet`'s wall-clock assert is — on a scalar-only host there
/// is nothing to compare.
fn assert_encode_simd_speedup(code: &VandermondeCode<Fp61>, segments: &[Vec<Fp61>]) {
    match simd::detected() {
        simd::Backend::Scalar => eprintln!(
            "field_kernels/encode_all: no SIMD backend detected on this host; \
             skipping the SIMD-vs-scalar wall-clock assert"
        ),
        simd_backend => {
            let scalar = best_encode(code, segments, simd::Backend::Scalar);
            let vectored = best_encode(code, segments, simd_backend);
            eprintln!(
                "field_kernels/encode_all/N64_U48: {vectored:?} ({}) vs {scalar:?} (scalar)",
                simd_backend.name(),
            );
            assert!(
                vectored.mul_f64(1.5) <= scalar,
                "encode_all at N=64 must be at least 1.5x faster under the detected {} \
                 backend than forced-scalar (got {vectored:?} vs {scalar:?})",
                simd_backend.name(),
            );
        }
    }
}

/// `(N, U, segment length)` of the re-encode rows: the ledger's tree
/// leaf and its flat cohort.
const REENCODE_SHAPES: [(usize, usize, usize); 2] = [(16, 12, 32), (64, 48, 1024)];

/// The hypercube pad partners of `rank` in a full cohort of `n`.
fn hypercube_partners(n: usize, rank: usize) -> Vec<usize> {
    (0..)
        .map(|k| 1usize << k)
        .take_while(|&bit| bit < n)
        .map(|bit| rank ^ bit)
        .filter(|&peer| peer < n)
        .collect()
}

fn bench_reencode<F: Field>(c: &mut Criterion, field: &str) {
    let mut rng = StdRng::seed_from_u64(4);
    let mut group = c.benchmark_group("field_kernels");
    for (n, u, m) in REENCODE_SHAPES {
        let code = VandermondeCode::<F>::new(n, u).unwrap();
        let draw: Vec<F> = ops::random_vector(u * m, &mut rng);
        let views: Vec<&[F]> = draw.chunks_exact(m).collect();
        let partners: Vec<Vec<usize>> = (0..n).map(|r| hypercube_partners(n, r)).collect();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_function(
            BenchmarkId::new(format!("encode_at/{field}"), format!("N{n}_U{u}_m{m}")),
            |b| {
                b.iter(|| {
                    for users in &partners {
                        black_box(code.encode_at(black_box(&views), users));
                    }
                })
            },
        );
    }
    group.finish();
}

fn bench_encode_at(c: &mut Criterion) {
    bench_reencode::<Fp32>(c, "fp32");
    bench_reencode::<Fp61>(c, "fp61");
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_field_kernels, bench_grouped_decode, bench_encode_all, bench_encode_at
}
criterion_main!(benches);
