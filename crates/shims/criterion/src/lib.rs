//! Offline stand-in for the `criterion` benchmark harness.
//!
//! Provides the subset of the criterion 0.5 API the workspace's benches
//! use: [`Criterion`], [`BenchmarkGroup`], [`BenchmarkId`],
//! [`Throughput`], [`black_box`], [`criterion_group!`] and
//! [`criterion_main!`].
//!
//! Measurement is a deliberately simple two-pass scheme (calibration
//! pass to pick an iteration count, then timed batches reporting the
//! median), printing `ns/iter` — adequate for relative comparisons and
//! regression spotting, without the statistical machinery (bootstrap,
//! outlier classification, HTML reports) of the real crate. When passed
//! `--test` (as `cargo test --benches` does) each benchmark body runs
//! exactly once so benches double as smoke tests. With `--quick` the
//! calibration threshold and batch count shrink — real timings, fraction
//! of the wall clock — which is what CI's bench-smoke job uses.
//!
//! When the `LSA_BENCH_JSON` environment variable names a file, every
//! measurement is also appended there as one JSON object per line
//! (`{"name": ..., "ns_per_iter": ..., "elements_per_iter": ...,
//! "bytes_per_iter": ..., "available_parallelism": ...,
//! "simd_backend": ...}`), so CI can upload a machine-readable perf
//! artifact and the trajectory accumulates across commits. The last two
//! fields record the host's core count and the process-level `LSA_SIMD`
//! resolution.

use std::io::Write as _;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Identifies one benchmark within a group (`name/parameter`).
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id rendered as `name/parameter`.
    pub fn new(name: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        Self {
            id: format!("{name}/{parameter}"),
        }
    }
}

/// Units processed per iteration; reported as a rate.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements per iteration.
    Elements(u64),
    /// Bytes per iteration.
    Bytes(u64),
}

/// Runs closures and measures their time.
#[derive(Debug)]
pub struct Bencher {
    iters_hint: u64,
    test_mode: bool,
    quick_mode: bool,
    /// Median nanoseconds per iteration of the last `iter` call.
    pub(crate) last_ns_per_iter: f64,
}

impl Bencher {
    /// Measure `f`, storing the median ns/iter.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        if self.test_mode {
            black_box(f());
            self.last_ns_per_iter = 0.0;
            return;
        }
        // quick mode: one calibration + 3 batches over a shorter floor
        let (floor, batches) = if self.quick_mode {
            (Duration::from_micros(200), 3)
        } else {
            (Duration::from_millis(1), 7)
        };
        // calibration: find an iteration count that runs ≥ the floor
        let mut iters = 1u64;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= floor || iters >= self.iters_hint {
                break;
            }
            iters = (iters * 4).min(self.iters_hint);
        }
        // measurement: several batches, report the median
        let mut samples = Vec::with_capacity(batches);
        for _ in 0..batches {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            samples.push(start.elapsed().as_nanos() as f64 / iters as f64);
        }
        samples.sort_by(f64::total_cmp);
        self.last_ns_per_iter = samples[samples.len() / 2];
    }
}

/// A named set of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Declare the per-iteration workload for rate reporting.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Benchmark `f` under `id`.
    pub fn bench_function<F>(&mut self, id: BenchmarkId, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.id);
        let throughput = self.throughput;
        self.criterion.run_one(&full, throughput, f);
        self
    }

    /// Benchmark `f` with an input value under `id`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.id);
        let throughput = self.throughput;
        self.criterion.run_one(&full, throughput, |b| f(b, input));
        self
    }

    /// End the group (no-op; matches the real API).
    pub fn finish(&mut self) {}
}

/// Benchmark driver.
#[derive(Debug)]
pub struct Criterion {
    test_mode: bool,
    quick_mode: bool,
    json_path: Option<std::path::PathBuf>,
}

impl Default for Criterion {
    fn default() -> Self {
        let test_mode = std::env::args().any(|a| a == "--test");
        let quick_mode = std::env::args().any(|a| a == "--quick");
        let json_path = std::env::var_os("LSA_BENCH_JSON").map(std::path::PathBuf::from);
        Self {
            test_mode,
            quick_mode,
            json_path,
        }
    }
}

impl Criterion {
    /// Set the sample count (accepted for API compatibility).
    pub fn sample_size(self, _n: usize) -> Self {
        self
    }

    /// Set the warm-up duration (accepted for API compatibility).
    pub fn warm_up_time(self, _d: Duration) -> Self {
        self
    }

    /// Set the measurement duration (accepted for API compatibility).
    pub fn measurement_time(self, _d: Duration) -> Self {
        self
    }

    /// Open a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
        }
    }

    fn run_one<F>(&mut self, name: &str, throughput: Option<Throughput>, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher {
            iters_hint: 1_000_000,
            test_mode: self.test_mode,
            quick_mode: self.quick_mode,
            last_ns_per_iter: 0.0,
        };
        f(&mut bencher);
        if self.test_mode {
            println!("test {name} ... ok (bench smoke)");
            return;
        }
        let ns = bencher.last_ns_per_iter;
        match throughput {
            Some(Throughput::Elements(n)) if ns > 0.0 => {
                let rate = n as f64 * 1e9 / ns;
                println!("{name:<50} {ns:>12.1} ns/iter {rate:>14.0} elem/s");
            }
            Some(Throughput::Bytes(n)) if ns > 0.0 => {
                let rate = n as f64 * 1e9 / ns / (1024.0 * 1024.0);
                println!("{name:<50} {ns:>12.1} ns/iter {rate:>11.1} MiB/s");
            }
            _ => println!("{name:<50} {ns:>12.1} ns/iter"),
        }
        self.append_json(name, ns, throughput);
    }

    /// Append one JSON-lines record to `LSA_BENCH_JSON` (best effort —
    /// an unwritable path must never fail a benchmark run).
    fn append_json(&self, name: &str, ns: f64, throughput: Option<Throughput>) {
        let Some(path) = &self.json_path else {
            return;
        };
        let (elements, bytes) = match throughput {
            Some(Throughput::Elements(n)) => (n.to_string(), "null".into()),
            Some(Throughput::Bytes(n)) => ("null".into(), n.to_string()),
            None => ("null".into(), String::from("null")),
        };
        // Execution-environment metadata: what hardware and which
        // knob-level SIMD backend backed the run.
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let simd_backend = resolved_simd_backend();
        let line = format!(
            "{{\"name\":\"{name}\",\"ns_per_iter\":{ns:.1},\"elements_per_iter\":{elements},\"bytes_per_iter\":{bytes},\"available_parallelism\":{cores},\"simd_backend\":\"{simd_backend}\"}}\n",
        );
        if let Ok(mut file) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            let _ = file.write_all(line.as_bytes());
        }
    }
}

/// The process-level SIMD backend resolution, duplicated from
/// `lsa_field::simd` so the shim stays dependency-free: `LSA_SIMD` wins
/// when set, else the best feature the CPU reports. Scoped
/// `with_backend` overrides are per-row and live in the benchmark
/// *name*; this field says what the knob-level default was.
fn resolved_simd_backend() -> &'static str {
    let mut available = vec!["scalar"];
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        available.push("avx2");
        if std::arch::is_x86_feature_detected!("avx512f") {
            available.push("avx512");
        }
    }
    let detected = available[available.len() - 1];
    match std::env::var("LSA_SIMD").ok().as_deref().map(str::trim) {
        None | Some("auto") | Some("") => detected,
        Some(name) => available
            .into_iter()
            .find(|&b| b == name)
            .unwrap_or("scalar"),
    }
}

/// Define a benchmark group in criterion's
/// `name = ..; config = ..; targets = ..` form.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $($target(&mut criterion);)+
        }
    };
}

/// Define the bench entry point.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
