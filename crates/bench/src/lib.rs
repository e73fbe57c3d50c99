//! Shared helpers for the table/figure binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper (README.md, "Benches and paper figures") and writes a TSV copy
//! under `results/`.

use std::path::PathBuf;

pub mod scenario;

/// Directory where binaries drop their TSV outputs (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("LSA_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"));
    std::fs::create_dir_all(&dir).expect("create results directory");
    dir
}

/// Number of users for the headline experiments; override with
/// `LSA_N=...` for quick runs.
pub fn n_users() -> usize {
    std::env::var("LSA_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200)
}

/// Convergence-round count; override with `LSA_ROUNDS=...`.
pub fn convergence_rounds() -> usize {
    std::env::var("LSA_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(30)
}

/// Whether to spend ~100 ms calibrating kernel costs instead of using
/// the nominal constants (`LSA_CALIBRATE=1`).
pub fn kernel_costs() -> lsa_sim::KernelCosts {
    if std::env::var("LSA_CALIBRATE").as_deref() == Ok("1") {
        lsa_sim::KernelCosts::calibrate()
    } else {
        lsa_sim::KernelCosts::nominal()
    }
}

/// Shared driver for the running-time figures (6, 8, 9, 10): sweep `N`,
/// write the full series to `results/<name>.tsv`, print a digest at the
/// largest `N`.
pub fn run_running_time_figure(name: &str, d: usize, task: &str) {
    use lsa_sim::experiments::{default_n_sweep, running_time_curve};
    use lsa_sim::report;

    let ns = default_n_sweep();
    let costs = kernel_costs();
    let header = ["mode", "protocol", "dropout", "N", "total (s)"];
    let mut rows = Vec::new();
    for overlap in [false, true] {
        let pts = running_time_curve(d, overlap, &ns, costs);
        for p in pts {
            rows.push(vec![
                if overlap {
                    "overlapped"
                } else {
                    "non-overlapped"
                }
                .to_string(),
                p.protocol.name().to_string(),
                format!("{:.0}%", p.dropout_rate * 100.0),
                p.n.to_string(),
                format!("{:.2}", p.total),
            ]);
        }
    }
    let biggest = ns.last().copied().unwrap_or(0).to_string();
    let digest: Vec<Vec<String>> = rows.iter().filter(|r| r[3] == biggest).cloned().collect();
    print!(
        "{}",
        report::render_table(
            &format!("{name}: total running time, {task} (showing N={biggest}; full sweep in TSV)"),
            &header,
            &digest
        )
    );
    let path = results_dir().join(format!("{name}.tsv"));
    report::write_tsv(&path, &header, &rows).expect("write TSV");
    println!("wrote {}", path.display());
}

/// Shared driver for the convergence figures (7, 11): run the async
/// comparison on a dataset kind and dump accuracy-vs-round series.
pub fn run_convergence_figure(name: &str, kinds: &[&str]) {
    use lsa_sim::experiments::async_convergence;
    use lsa_sim::report;

    let rounds = convergence_rounds();
    let header = ["dataset", "series", "round", "accuracy"];
    let mut rows = Vec::new();
    let mut digest = Vec::new();
    for kind in kinds {
        let series = async_convergence(kind, rounds, 42);
        for s in &series {
            for m in &s.metrics {
                rows.push(vec![
                    kind.to_string(),
                    s.label.clone(),
                    m.round.to_string(),
                    format!("{:.4}", m.accuracy),
                ]);
            }
            let last = s.metrics.last().expect("at least one round");
            digest.push(vec![
                kind.to_string(),
                s.label.clone(),
                last.round.to_string(),
                format!("{:.4}", last.accuracy),
            ]);
        }
    }
    print!(
        "{}",
        report::render_table(
            &format!("{name}: async convergence after {rounds} rounds (final accuracies)"),
            &header,
            &digest
        )
    );
    let path = results_dir().join(format!("{name}.tsv"));
    report::write_tsv(&path, &header, &rows).expect("write TSV");
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_without_env() {
        // guard against env leakage in CI: only assert types/ranges
        assert!(n_users() >= 2);
        assert!(convergence_rounds() >= 1);
    }
}
