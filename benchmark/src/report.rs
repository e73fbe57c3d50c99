//! `all`: every workload in round-robin passes, each run a fresh
//! process, folded into one result file. `compare`: two result files
//! judged against the bounds — how "two sets of runs agree" is shown.

use crate::json::Json;
use crate::metrics::{self, Better, MetricDef};
use crate::schedule::Workload;
use crate::stats::{iqr_share, median};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Untraced passes of a full set, and the seconds each run measures:
/// 5 × 7 s ≈ 35 s of measured rounds per workload (≈ 5 × 24 rounds on
/// the flat workloads, ≈ 5 × 160 on `tree_buffered`). Fixed, so that
/// any two full sets are taken the same way.
const FULL: (u64, u64) = (5, 7);
/// `--quick`: one pass of one schedule period.
const QUICK: (u64, u64) = (1, 1);

/// What `all` was asked to do.
pub struct Plan {
    pub seed: u64,
    /// Smoke mode: the output is flagged non-comparable.
    pub quick: bool,
    pub out: PathBuf,
}

/// One child run's parsed result line.
struct ChildResult {
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64)>,
}

/// Run this executable again for one `(workload, seed, trace)` and
/// parse the JSON result on its last line of standard output.
fn child_run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a {} run: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    // pass the run's remarks (sample counts, accounting identity) on
    for note in stdout.lines().filter(|l| l.starts_with("note ")) {
        println!("  {} {note}", workload.name());
    }
    let last = stdout.lines().last().unwrap_or_default();
    let doc = Json::parse(last).map_err(|e| {
        format!(
            "the {} run ({}) printed no result: {e}\n{stdout}",
            workload.name(),
            output.status
        )
    })?;
    let number = |key: &str| doc.get(key).and_then(Json::as_f64);
    let mut metrics: Vec<(String, f64)> = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("the result has no metrics")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    let attempted = number("attempted").ok_or("the result has no attempted")?;
    let failed = number("failed").ok_or("the result has no failed")?;
    if !trace {
        // the result line carries it as these two fields
        metrics.push((
            metrics::FAILED_ROUND_SHARE.into(),
            failed / attempted.max(1.0),
        ));
    }
    Ok(ChildResult {
        attempted,
        failed,
        metrics,
    })
}

/// Run every workload: `passes` untraced passes round-robin over the
/// workloads (so a noisy minute on a shared host is spread over all of
/// them), then one traced pass each. Pass `p` uses `seed + p`.
pub fn run_all(plan: &Plan) -> Result<bool, String> {
    let (passes, seconds) = if plan.quick { QUICK } else { FULL };
    println!("{}", crate::host_record(plan.seed, passes));
    if plan.quick {
        println!("QUICK MODE: a smoke run; its numbers are not comparable with a full run");
    }
    let workloads = Workload::ALL;
    // values[w][m]: one value per pass
    let mut values = vec![vec![Vec::new(); metrics::END_TO_END.len()]; workloads.len()];
    let mut attempted = vec![0.0; workloads.len()];
    let mut failed = vec![0.0; workloads.len()];
    for pass in 0..passes {
        for (w, &workload) in workloads.iter().enumerate() {
            let run = child_run(workload, plan.seed + pass, seconds, false)?;
            attempted[w] += run.attempted;
            failed[w] += run.failed;
            for (m, def) in metrics::END_TO_END.iter().enumerate() {
                let value = lookup(&run.metrics, def.name)?;
                values[w][m].push(value);
            }
            println!(
                "pass {pass} {:<14} round_s {:.6} s, {} of {} rounds failed",
                workload.name(),
                lookup(&run.metrics, "round_s")?,
                run.failed,
                run.attempted
            );
        }
    }
    let mut layers = Vec::with_capacity(workloads.len());
    for (w, &workload) in workloads.iter().enumerate() {
        let run = child_run(workload, plan.seed, seconds, true)?;
        attempted[w] += run.attempted;
        failed[w] += run.failed;
        println!(
            "traced {:<14} {} of {} rounds failed",
            workload.name(),
            run.failed,
            run.attempted
        );
        layers.push(run.metrics);
    }

    let mut records = Vec::with_capacity(workloads.len());
    for (w, &workload) in workloads.iter().enumerate() {
        println!(
            "\n== {} — failed_round_share {} ({} of {} rounds) ==",
            workload.name(),
            failed[w] / attempted[w].max(1.0),
            failed[w],
            attempted[w]
        );
        let mut end_to_end = Vec::new();
        for (def, samples) in metrics::END_TO_END.iter().zip(&values[w]) {
            let (mid, n) = median(samples).ok_or("no passes ran")?;
            println!(
                "{:<40} {mid:>18.9} {:<8} median of {n} passes, bound {} %",
                def.name,
                def.unit,
                def.bound.unwrap_or(0.0) * 100.0
            );
            end_to_end.push(Json::obj([
                ("name", Json::Str(def.name.into())),
                ("unit", Json::Str(def.unit.into())),
                ("median", Json::Num(mid)),
                ("n", Json::Num(n as f64)),
                (
                    "values",
                    Json::Arr(samples.iter().map(|&v| Json::Num(v)).collect()),
                ),
            ]));
        }
        let mut per_layer = Vec::new();
        for def in metrics::PER_LAYER {
            let value = lookup(&layers[w], def.name)?;
            println!("{:<40} {value:>18.9} {}", def.name, def.unit);
            per_layer.push(Json::obj([
                ("name", Json::Str(def.name.into())),
                ("unit", Json::Str(def.unit.into())),
                ("value", Json::Num(value)),
            ]));
        }
        records.push(Json::obj([
            ("name", Json::Str(workload.name().into())),
            ("attempted", Json::Num(attempted[w])),
            ("failed", Json::Num(failed[w])),
            ("end_to_end", Json::Arr(end_to_end)),
            ("per_layer", Json::Arr(per_layer)),
        ]));
    }
    let doc = Json::obj([
        ("comparable", Json::Bool(!plan.quick)),
        ("host", crate::host_record(plan.seed, passes)),
        ("seed", Json::Num(plan.seed as f64)),
        ("passes", Json::Num(passes as f64)),
        ("seconds", Json::Num(seconds as f64)),
        ("workloads", Json::Arr(records)),
    ]);
    if let Some(dir) = plan.out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    // four levels: document, workloads, one workload, its metric lists
    std::fs::write(&plan.out, format!("{}\n", doc.pretty(4)))
        .map_err(|e| format!("writing {}: {e}", plan.out.display()))?;
    println!("\nresults written to {}", plan.out.display());
    Ok(failed.iter().all(|&f| f == 0.0))
}

fn lookup(metrics: &[(String, f64)], name: &str) -> Result<f64, String> {
    metrics
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .ok_or_else(|| format!("a run reported no {name}"))
}

// ---------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------

fn load(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The entry named `name` of a workload's `end_to_end` or `per_layer`
/// list.
fn entry<'a>(workload: &'a Json, list: &str, name: &str) -> Option<&'a Json> {
    workload
        .get(list)?
        .as_arr()?
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
}

/// How much worse `b` is than `a`, as a share of `a` (negative when
/// `b` is better). From a baseline of 0 — `failed_round_share` — any
/// worsening is infinite, which makes a bound of 0 an absolute one.
pub fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    if a == b {
        return 0.0;
    }
    match def.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Compare result file `b` against `a`: per workload × end-to-end
/// metric both medians, the relative difference and the bound; exact
/// metrics (counts and `wire_bytes_per_client_round`) must be identical
/// when both files used the same seed. `Ok(false)` when anything is
/// outside its bound.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut ok = true;
    for (doc, path) in [(&a, a_path), (&b, b_path)] {
        if doc.get("comparable").and_then(Json::as_bool) != Some(true) {
            println!("NOT COMPARABLE: {} is a --quick run", path.display());
            ok = false;
        }
    }
    let number = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_f64);
    for key in ["passes", "seconds"] {
        if number(&a, key) != number(&b, key) {
            println!(
                "NOT COMPARABLE: the files differ in {key} ({:?} vs {:?})",
                number(&a, key),
                number(&b, key)
            );
            ok = false;
        }
    }
    let same_seed = number(&a, "seed").is_some() && number(&a, "seed") == number(&b, "seed");
    if !same_seed {
        println!("the files used different seeds: exact metrics are shown, not gated");
    }
    let workloads = |doc: &'_ Json| -> Vec<Json> {
        doc.get("workloads")
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .to_vec()
    };
    let b_workloads = workloads(&b);
    println!(
        "{:<14} {:<30} {:>16} {:>16} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "a median", "b median", "worse %", "bound %", "b iqr %"
    );
    for wa in workloads(&a) {
        let name = wa
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let Some(wb) = b_workloads
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(&name))
        else {
            println!("{name:<14} MISSING from {}", b_path.display());
            ok = false;
            continue;
        };
        for (label, doc) in [("a", &wa), ("b", wb)] {
            if doc.get("failed").and_then(Json::as_f64) != Some(0.0) {
                println!("{name:<14} FAILED rounds in {label}");
                ok = false;
            }
        }
        for def in metrics::END_TO_END {
            let median_of = |w: &Json| entry(w, "end_to_end", def.name)?.get("median")?.as_f64();
            let (Some(ma), Some(mb)) = (median_of(&wa), median_of(wb)) else {
                println!("{name:<14} {:<30} MISSING", def.name);
                ok = false;
                continue;
            };
            let worse = worsening(def, ma, mb);
            let bound = def.bound.unwrap_or(0.0);
            let spread = entry(wb, "end_to_end", def.name)
                .and_then(|m| m.get("values")?.as_arr())
                .map(|vs| vs.iter().filter_map(Json::as_f64).collect::<Vec<_>>())
                .and_then(|vs| iqr_share(&vs));
            let verdict = if def.exact && same_seed {
                if ma == mb {
                    "identical"
                } else {
                    ok = false;
                    "DIFFERS (must be identical)"
                }
            } else if worse > bound {
                ok = false;
                "REGRESSION"
            } else if spread.is_some_and(|s| s > bound) {
                // choosing-metrics §6.5: not shown unchanged
                "unresolved (b's passes spread wider than the bound)"
            } else {
                "within bound"
            };
            println!(
                "{name:<14} {:<30} {ma:>16.9} {mb:>16.9} {:>9.2} {:>7.1} {:>8}  {verdict}",
                def.name,
                worse * 100.0,
                bound * 100.0,
                spread.map_or("-".into(), |s| format!("{:.2}", s * 100.0)),
            );
        }
        for def in metrics::PER_LAYER.iter().filter(|d| d.exact) {
            let value_of = |w: &Json| entry(w, "per_layer", def.name)?.get("value")?.as_f64();
            let (va, vb) = (value_of(&wa), value_of(wb));
            if va != vb || va.is_none() {
                println!(
                    "{name:<14} {:<30} {va:?} vs {vb:?}  {}",
                    def.name,
                    if same_seed {
                        "DIFFERS (must be identical)"
                    } else {
                        "differs"
                    }
                );
                ok &= !same_seed;
            }
        }
    }
    println!(
        "{}",
        if ok {
            "AGREE: every metric within its bound, exact metrics identical"
        } else {
            "DISAGREE: see the rows above"
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What a one-workload (`flat_churn`) result file holds.
    #[derive(Clone, Copy)]
    struct Sample {
        round_s: f64,
        wire: f64,
        fallbacks: f64,
        /// Failed rounds of 100 attempted.
        failed: f64,
        seconds: u64,
    }

    const BASE: Sample = Sample {
        round_s: 0.270,
        wire: 33000.0,
        fallbacks: 0.125,
        failed: 0.0,
        seconds: FULL.1,
    };

    fn result_file(dir: &Path, name: &str, sample: Sample) -> PathBuf {
        let e2e: Vec<Json> = metrics::END_TO_END
            .iter()
            .map(|def| {
                let value = match def.name {
                    "round_s" => sample.round_s,
                    "wire_bytes_per_client_round" => sample.wire,
                    metrics::FAILED_ROUND_SHARE => sample.failed / 100.0,
                    _ => 1.0,
                };
                Json::obj([
                    ("name", Json::Str(def.name.into())),
                    ("median", Json::Num(value)),
                    ("values", Json::Arr(vec![Json::Num(value); 3])),
                ])
            })
            .collect();
        let layers: Vec<Json> = metrics::PER_LAYER
            .iter()
            .map(|def| {
                let value = if def.name == "federation.fallbacks" {
                    sample.fallbacks
                } else {
                    0.5
                };
                Json::obj([
                    ("name", Json::Str(def.name.into())),
                    ("value", Json::Num(value)),
                ])
            })
            .collect();
        let doc = Json::obj([
            ("comparable", Json::Bool(true)),
            ("seed", Json::Num(11.0)),
            ("passes", Json::Num(FULL.0 as f64)),
            ("seconds", Json::Num(sample.seconds as f64)),
            (
                "workloads",
                Json::Arr(vec![Json::obj([
                    ("name", Json::Str("flat_churn".into())),
                    ("failed", Json::Num(sample.failed)),
                    ("end_to_end", Json::Arr(e2e)),
                    ("per_layer", Json::Arr(layers)),
                ])]),
            ),
        ]);
        let path = dir.join(name);
        std::fs::write(&path, doc.pretty(4)).unwrap();
        path
    }

    #[test]
    fn compare_gates_bounds_and_exact_metrics() {
        let dir = crate::runner::out_dir().join("test-compare");
        std::fs::create_dir_all(&dir).unwrap();
        let bound = metrics::find("round_s").unwrap().bound.unwrap();
        let file = |name: &str, sample: Sample| result_file(&dir, name, sample);
        let base = file("base.json", BASE);
        let same = file(
            "same.json",
            Sample {
                round_s: BASE.round_s * (1.0 + bound / 2.0),
                ..BASE
            },
        );
        let slow = file(
            "slow.json",
            Sample {
                round_s: BASE.round_s * (1.02 + bound),
                ..BASE
            },
        );
        let bytes = file(
            "bytes.json",
            Sample {
                wire: BASE.wire + 1.0,
                ..BASE
            },
        );
        let count = file(
            "count.json",
            Sample {
                fallbacks: 0.25,
                ..BASE
            },
        );
        let longer = file(
            "longer.json",
            Sample {
                seconds: 20,
                ..BASE
            },
        );
        let failing = file(
            "failing.json",
            Sample {
                failed: 1.0,
                ..BASE
            },
        );
        assert_eq!(compare(&base, &same), Ok(true));
        assert_eq!(
            compare(&base, &slow),
            Ok(false),
            "slower than the bound allows"
        );
        assert_eq!(compare(&slow, &base), Ok(true), "faster is not");
        assert_eq!(
            compare(&base, &bytes),
            Ok(false),
            "wire bytes must be identical"
        );
        assert_eq!(
            compare(&base, &count),
            Ok(false),
            "counts must be identical"
        );
        assert_eq!(
            compare(&base, &longer),
            Ok(false),
            "sets of different run length are not comparable"
        );
        assert_eq!(
            compare(&base, &failing),
            Ok(false),
            "failed_round_share has an absolute bound of 0"
        );
        assert!(compare(&base, &dir.join("absent.json")).is_err());
    }

    #[test]
    fn worsening_follows_the_better_direction() {
        let lower = metrics::find("round_s").unwrap();
        let higher = metrics::find("agg_melem_per_s").unwrap();
        assert!((worsening(lower, 1.0, 1.1) - 0.1).abs() < 1e-12);
        assert!((worsening(higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worsening(higher, 10.0, 11.0) < 0.0);
        let failed = metrics::find(metrics::FAILED_ROUND_SHARE).unwrap();
        assert_eq!(worsening(failed, 0.0, 0.0), 0.0);
        assert!(worsening(failed, 0.0, 0.01) > failed.bound.unwrap());
    }
}
