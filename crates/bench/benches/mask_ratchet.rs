//! Stable-cohort mask ratchet: steady-state cost with and without the
//! fast path.
//!
//! Sweep: N ∈ {256, 1024} cohorts in leaf-16 grouped topologies, R = 20
//! steady-state rounds per point, under both modes:
//!
//! * `rekey` — `RatchetPolicy::off()`: every round runs the full
//!   offline coded-mask exchange (the pre-ratchet behaviour).
//! * `ratchet` — per-round commits (`W = 1`) over the default pad
//!   graph: round 0 pays the full exchange, every later
//!   round of the unchanged cohort re-derives its masks locally and the
//!   only offline traffic is the 33-byte `RatchetAnnouncement`
//!   commit/ack handshake.
//!
//! Each benchmark times one steady-state round end to end (open,
//! submit, recover) on a persistent federation, so 1/ns_per_iter is the
//! steady-state rounds/sec. The recorded `Throughput::Bytes` is the
//! **measured per-round offline bytes** averaged over the R = 20
//! stretch (byte counts are deterministic), which is where the
//! ROADMAP acceptance lives: the `ratchet` row at N = 1024 must sit
//! ≥ 5× below the `rekey` row. The stderr summary also prints total
//! per-round bytes (offline + masked uploads + recovery) and the
//! reduction ratio.
//!
//! The ratcheted round's bytes are tiny but its CPU is PRG-bound: each
//! member expands one full-length ChaCha20 pad per pad-topology edge
//! locally — `n_g − 1` under the clique, at most `⌈log₂ n_g⌉` under
//! the hypercube (exactly 4 at leaf-16). The `ratchet` rows therefore
//! carry a SIMD-backend axis (`steady_round/ratchet_N{n}/{backend}`)
//! plus a pad-topology × commit-window axis
//! (`steady_round/ratchet_N{n}/{topology}/W{w}`), and on capable hosts
//! the bench asserts both CPU sides:
//!
//! * the ratcheted round's wall-clock at N = 1024 must fall with every
//!   wider backend: scalar, then the 8-block AVX2 keystream, then the
//!   16-block AVX-512 one (a backend the host lacks is skipped, with a
//!   stderr note), and
//! * the hypercube windowed round at N = 1024 leaf-16 must be ≥ 2×
//!   faster than the full-clique baseline on the same backend (4 pads
//!   vs 15 per member).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lsa_field::{simd, Fp61};
use lsa_protocol::federation::SecureAggregator;
use lsa_protocol::topology::{GroupTopology, GroupedFederation};
use lsa_protocol::transport::MemTransport;
use lsa_protocol::{PadTopology, RatchetPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

const D: usize = 256;
const T_FRAC: f64 = 0.25;
const U_FRAC: f64 = 0.9;
const LEAF: usize = 16;
/// Steady-state rounds averaged for the per-round byte measurement.
const ROUNDS: usize = 20;
const COHORTS: [usize; 2] = [256, 1024];

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(400))
}

/// A federation past its base round, ready to run steady-state rounds
/// of an unchanged cohort (which ratchet iff its policy allows).
struct SteadyFed {
    fed: GroupedFederation<Fp61>,
    cohort: Vec<usize>,
    updates: Vec<Vec<Fp61>>,
}

impl SteadyFed {
    fn new(topology: &GroupTopology, policy: RatchetPolicy, seed: u64) -> Self {
        let leaves = topology.clone().with_ratchet(policy);
        let fed =
            GroupedFederation::new(leaves, MemTransport::new(), seed).expect("valid sweep point");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5aa5);
        let updates = (0..topology.n())
            .map(|_| lsa_field::ops::random_vector(D, &mut rng))
            .collect();
        let mut steady = Self {
            fed,
            cohort: (0..topology.n()).collect(),
            updates,
        };
        // base round: always a full exchange, whatever the mode
        steady.round();
        steady
    }

    /// One full round; returns (offline bytes, total bytes) it moved.
    fn round(&mut self) -> (usize, usize) {
        let before = self.fed.bytes_sent();
        self.fed.open_round(&self.cohort).expect("round opens");
        let offline = self.fed.bytes_sent() - before;
        for &id in &self.cohort {
            self.fed
                .submit(id, &self.updates[id])
                .expect("update accepted");
        }
        self.fed.finish_round().expect("round decodes");
        (offline, self.fed.bytes_sent() - before)
    }
}

/// Average (offline, total) bytes per round over a steady stretch.
fn stretch_bytes(topology: &GroupTopology, policy: RatchetPolicy) -> (usize, usize) {
    let mut steady = SteadyFed::new(topology, policy, 11);
    let (mut offline, mut total) = (0usize, 0usize);
    for _ in 0..ROUNDS {
        let (o, t) = steady.round();
        offline += o;
        total += t;
    }
    (offline / ROUNDS, total / ROUNDS)
}

fn bench_steady_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("mask_ratchet");
    for n in COHORTS {
        let topology =
            GroupTopology::uniform(n, n / LEAF, T_FRAC, U_FRAC, D).expect("valid sweep point");
        let mut offline_by_mode = [0usize; 2];
        let modes = [("rekey", RatchetPolicy::off()), ("ratchet", per_round())];
        for (slot, (mode, policy)) in modes.into_iter().enumerate() {
            let (offline, total) = stretch_bytes(&topology, policy);
            offline_by_mode[slot] = offline;
            eprintln!(
                "mask_ratchet/{mode}/N{n}: {offline} offline B/round, \
                 {total} total B/round over {ROUNDS} steady rounds"
            );
            group.throughput(Throughput::Bytes(offline as u64));
            if mode == "rekey" {
                let mut steady = SteadyFed::new(&topology, policy, 5);
                group.bench_function(
                    BenchmarkId::new("steady_round", format!("{mode}_N{n}")),
                    |b| b.iter(|| black_box(steady.round())),
                );
            } else {
                // The ratcheted round is PRG-bound, so it gets the
                // backend axis. PRG streams capture their backend at
                // construction: the federation must be built inside
                // the pin, not just iterated there.
                for backend in simd::available() {
                    simd::with_backend(backend, || {
                        let mut steady = SteadyFed::new(&topology, policy, 5);
                        group.bench_function(
                            BenchmarkId::new(
                                "steady_round",
                                format!("{mode}_N{n}/{}", backend.name()),
                            ),
                            |b| b.iter(|| black_box(steady.round())),
                        );
                    });
                }
                // Pad-topology × commit-window axis under the default
                // backend: the clique expands n_g − 1 pads per member
                // per round, the hypercube ≤ ⌈log₂ n_g⌉; W amortizes the
                // commit/ack handshake.
                for (pad, w) in [
                    (PadTopology::Clique, 1),
                    (PadTopology::Clique, 8),
                    (PadTopology::Hypercube, 1),
                    (PadTopology::Hypercube, 8),
                ] {
                    let policy = RatchetPolicy::new(true, pad, w);
                    let mut steady = SteadyFed::new(&topology, policy, 5);
                    group.bench_function(
                        BenchmarkId::new(
                            "steady_round",
                            format!("{mode}_N{n}/{}/W{w}", pad.name()),
                        ),
                        |b| b.iter(|| black_box(steady.round())),
                    );
                }
            }
        }
        let ratio = offline_by_mode[0] as f64 / offline_by_mode[1].max(1) as f64;
        eprintln!("mask_ratchet/N{n}: offline-byte reduction {ratio:.1}x (target >= 5x)");
        assert!(
            offline_by_mode[1] * 5 <= offline_by_mode[0],
            "ratchet rounds at N={n} must move at least 5x fewer offline bytes \
             than always-rekey (got {} vs {})",
            offline_by_mode[1],
            offline_by_mode[0],
        );
        if n == 1024 {
            assert_wider_backends_win(&topology, n);
            assert_hypercube_beats_clique(&topology, n);
        }
    }
    group.finish();
}

/// The `ratchet` rows' policy: per-round commits over the default pad
/// graph.
fn per_round() -> RatchetPolicy {
    RatchetPolicy::new(true, PadTopology::default(), 1)
}

/// Best per-round wall-clock of a steady ratcheted stretch under the
/// given backend (minimum over `ROUNDS` rounds — robust against
/// scheduler noise on shared CI hosts).
fn best_ratchet_round(topology: &GroupTopology, backend: simd::Backend) -> Duration {
    simd::with_backend(backend, || {
        best_steady_round(SteadyFed::new(topology, per_round(), 7))
    })
}

fn best_steady_round(mut steady: SteadyFed) -> Duration {
    (0..ROUNDS)
        .map(|_| {
            let start = Instant::now();
            black_box(steady.round());
            start.elapsed()
        })
        .min()
        .expect("ROUNDS > 0")
}

/// The CPU side of the ratchet acceptance: the PRG-bound ratcheted
/// round must get faster with each wider backend in the chain scalar →
/// AVX2 → AVX-512, each judged against the next narrower one the host
/// has. A backend the host lacks is skipped with a stderr note.
fn assert_wider_backends_win(topology: &GroupTopology, n: usize) {
    let available = simd::available();
    for missing in [simd::Backend::Avx2, simd::Backend::Avx512]
        .into_iter()
        .filter(|b| !available.contains(b))
    {
        eprintln!(
            "mask_ratchet/N{n}: no {} backend on this host; \
             skipping its wall-clock assert",
            missing.name()
        );
    }
    let rounds: Vec<(simd::Backend, Duration)> = available
        .into_iter()
        .map(|b| (b, best_ratchet_round(topology, b)))
        .collect();
    for pair in rounds.windows(2) {
        let ((narrow, slow), (wide, fast)) = (pair[0], pair[1]);
        eprintln!(
            "mask_ratchet/N{n}: ratcheted round wall-clock {fast:?} ({}) \
             vs {slow:?} ({})",
            wide.name(),
            narrow.name(),
        );
        assert!(
            fast < slow,
            "the PRG-bound ratcheted round at N={n} must be faster under the \
             {} backend than under {} (got {fast:?} vs {slow:?})",
            wide.name(),
            narrow.name(),
        );
    }
}

/// The tentpole acceptance: the ratcheted round's PRG work drops from
/// `n_g − 1` pads per member (clique) to `⌈log₂ n_g⌉` (hypercube), so
/// at N = 1024 leaf-16 the hypercube windowed round must be ≥ 2×
/// faster wall-clock than the full-clique baseline on the same
/// backend.
fn assert_hypercube_beats_clique(topology: &GroupTopology, n: usize) {
    let best = |pad, w| {
        best_steady_round(SteadyFed::new(
            topology,
            RatchetPolicy::new(true, pad, w),
            7,
        ))
    };
    let clique = best(PadTopology::Clique, 1);
    let hypercube = best(PadTopology::Hypercube, 8);
    eprintln!(
        "mask_ratchet/N{n}: ratcheted round wall-clock {hypercube:?} \
         (hypercube, W=8) vs {clique:?} (clique, W=1)"
    );
    assert!(
        hypercube * 2 <= clique,
        "the hypercube windowed round at N={n} must be at least 2x faster than \
         the full-clique baseline (got {hypercube:?} vs {clique:?})"
    );
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_steady_rounds
}
criterion_main!(benches);
