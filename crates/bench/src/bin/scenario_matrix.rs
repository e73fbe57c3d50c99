//! The scenario-matrix runner: every cell of the {sync, buffered} ×
//! {flat, grouped, hierarchical} × {ratchet on/off} × {partial
//! recovery on/off} × {Fp32, Fp61} cross-product, plus the SecAgg
//! baseline, each driving the identical workload and emitting one
//! JSON-lines record (printed to stdout and, when `LSA_BENCH_JSON`
//! names a file, appended there — the file `lsa-bench`'s three benches
//! append their `ns_per_iter` lines to).
//!
//! `--quick` shrinks the workload to CI size. The process exits
//! non-zero if any cell errors or emits a malformed record, so a CI
//! lane can gate on it directly.

use lsa_bench::scenario::{run_cell, run_secagg_baseline, validate_json_line, MatrixParams, Mode};
use std::io::Write;

/// SIMD-relevant CPU features this host reports, for the `matrix/host`
/// record — so a flat SIMD-vs-scalar row from a host without the
/// feature is readable as "not supported here" rather than a
/// regression.
fn cpu_features() -> Vec<&'static str> {
    #[allow(unused_mut)]
    let mut feats: Vec<&'static str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        macro_rules! probe {
            ($($f:tt),+ $(,)?) => {
                $(if std::arch::is_x86_feature_detected!($f) { feats.push($f); })+
            };
        }
        probe!(
            "sse2",
            "ssse3",
            "sse4.1",
            "avx",
            "avx2",
            "avx512f",
            "avx512vl",
            "avx512ifma",
        );
    }
    feats
}

/// The execution-environment record emitted before the matrix cells:
/// core count, the `LSA_SIMD` resolution, and detected CPU features.
fn host_record() -> String {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let feats: Vec<String> = cpu_features().iter().map(|f| format!("\"{f}\"")).collect();
    format!(
        "{{\"name\":\"matrix/host\",\"available_parallelism\":{cores},\
         \"simd_backend\":\"{}\",\"cpu_features\":[{}]}}",
        lsa_field::simd::backend().name(),
        feats.join(","),
    )
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let params = if quick {
        MatrixParams::quick()
    } else {
        MatrixParams::full()
    };
    eprintln!(
        "scenario_matrix: N={} d={} rounds={} reps={} ({} cells + baseline)",
        params.n,
        params.d,
        params.rounds,
        params.reps,
        Mode::all().len(),
    );

    let mut sink = std::env::var_os("LSA_BENCH_JSON").map(|path| {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .unwrap_or_else(|e| panic!("open {}: {e}", std::path::Path::new(&path).display()))
    });
    // Execution-environment header: one host record ahead of the cells
    // (same stdout + LSA_BENCH_JSON routing, different schema).
    let host = host_record();
    println!("{host}");
    if let Some(f) = &mut sink {
        writeln!(f, "{host}").expect("append LSA_BENCH_JSON");
    }

    let mut failures = 0usize;
    let mut emit = |name: &str, outcome: Result<String, String>| match outcome {
        Ok(json) => match validate_json_line(&json) {
            Ok(()) => {
                println!("{json}");
                if let Some(f) = &mut sink {
                    writeln!(f, "{json}").expect("append LSA_BENCH_JSON");
                }
            }
            Err(why) => {
                eprintln!("scenario_matrix: {name}: malformed record: {why}");
                failures += 1;
            }
        },
        Err(why) => {
            eprintln!("scenario_matrix: {name}: {why}");
            failures += 1;
        }
    };

    for mode in Mode::all() {
        let name = mode.name();
        let outcome = run_cell(&mode, &params)
            .map(|cell| cell.json)
            .map_err(|e| e.to_string());
        emit(&name, outcome);
    }
    let baseline = run_secagg_baseline(&params).map(|cell| cell.json);
    emit("matrix/baseline/secagg/fp61", baseline);

    if failures > 0 {
        eprintln!("scenario_matrix: {failures} cell(s) failed");
        std::process::exit(1);
    }
}
