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
///
/// # Panics
///
/// Panics if `LSA_N` is set to anything but a positive integer.
pub fn n_users() -> usize {
    parse_count("LSA_N", std::env::var("LSA_N").ok().as_deref(), 200)
}

/// Convergence-round count; override with `LSA_ROUNDS=...`.
///
/// # Panics
///
/// Panics if `LSA_ROUNDS` is set to anything but a positive integer.
pub fn convergence_rounds() -> usize {
    parse_count(
        "LSA_ROUNDS",
        std::env::var("LSA_ROUNDS").ok().as_deref(),
        30,
    )
}

/// The count the variable `name` asks for, given its `value`: `default`
/// when unset. A typo must not quietly run the default-size sweep, so a
/// value that is not a positive integer panics, naming the variable and
/// what it held.
fn parse_count(name: &str, value: Option<&str>, default: usize) -> usize {
    let Some(raw) = value else {
        return default;
    };
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => n,
        _ => panic!("{name} must be a positive integer, got {raw:?}"),
    }
}

/// Shared driver for the running-time figures (6, 8, 9, 10): sweep `N`,
/// write the full series to `results/<name>.tsv`, print a digest at the
/// largest `N`.
pub fn run_running_time_figure(name: &str, d: usize, task: &str) {
    use lsa_sim::experiments::{default_n_sweep, running_time_curve};
    use lsa_sim::{report, KernelCosts};

    let ns = default_n_sweep();
    let header = ["mode", "protocol", "dropout", "N", "total (s)"];
    let mut rows = Vec::new();
    for overlap in [false, true] {
        let pts = running_time_curve(d, overlap, &ns, KernelCosts::nominal());
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
        // the parse itself is pure: unset keeps the default, a typo or
        // a zero panics with the variable and the value it got
        assert_eq!(parse_count("LSA_N", None, 200), 200);
        assert_eq!(parse_count("LSA_N", Some("16"), 200), 16);
        for bad in ["1O", "0", "", "-3"] {
            let err = std::panic::catch_unwind(|| parse_count("LSA_ROUNDS", Some(bad), 30))
                .expect_err(bad);
            let msg = err.downcast_ref::<String>().expect("a formatted message");
            assert!(msg.contains("LSA_ROUNDS") && msg.contains(&format!("{bad:?}")));
        }
    }
}
