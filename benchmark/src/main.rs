//! `lsa-benchmark`: the repo's end-to-end benchmark with per-layer
//! attribution. See README.md next to this package.
//!
//! ```text
//! lsa-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! lsa-benchmark all [--seed 11] [--quick] [--out <file>]
//! lsa-benchmark compare <a.json> <b.json>
//! ```
//!
//! The first form is one run of one workload in this process; its last
//! line of standard output is the JSON result. `all` runs every
//! workload in passes (each run a fresh process) and writes a result
//! file; `compare` judges two result files against the bounds.

mod affinity;
mod drive;
mod json;
mod metrics;
mod procfs;
mod report;
mod runner;
mod schedule;
mod stats;
mod sut;
mod trace;

use json::Json;
use schedule::Workload;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// The default workload seed; pass `p` of `all` uses `seed + p`.
const DEFAULT_SEED: u64 = 11;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

/// `Ok(true)` when everything ran and every check passed.
fn dispatch(args: &[String]) -> Result<bool, String> {
    // the benchmark measures the defaults users get
    let set = runner::lsa_variables();
    if !set.is_empty() {
        return Err(format!(
            "refusing to run with {set:?} set: the benchmark measures the library's defaults"
        ));
    }
    match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => report::compare(a.as_ref(), b.as_ref()),
            _ => Err("usage: lsa-benchmark compare <a.json> <b.json>".into()),
        },
        Some("all") => {
            let flags = Flags::parse(&args[1..], &["seed", "out"], &["quick"])?;
            let plan = report::Plan {
                seed: flags.number("seed", DEFAULT_SEED)?,
                quick: flags.switch("quick"),
                out: flags
                    .value("out")
                    .map_or_else(|| runner::out_dir().join("results.json"), Into::into),
            };
            report::run_all(&plan)
        }
        _ => {
            let flags = Flags::parse(args, &["workload", "seed", "seconds", "trace"], &[])?;
            let name = flags.value("workload").ok_or(
                "usage: lsa-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                 | all | compare",
            )?;
            let workload = Workload::from_name(name).ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload {name:?}; the workloads are {names:?}")
            })?;
            let seed = flags.number("seed", DEFAULT_SEED)?;
            let seconds: u64 = flags.number("seconds", 28)?;
            let trace = match flags.number::<u8>("trace", 0)? {
                0 => false,
                1 => true,
                other => return Err(format!("--trace is 0 or 1, not {other}")),
            };
            single_run(workload, seed, seconds, trace)
        }
    }
}

/// `--key value` pairs and bare `--switch`es.
struct Flags {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
}

impl Flags {
    /// `valued` names the `--key value` flags the subcommand takes,
    /// `switches` its bare ones.
    fn parse(args: &[String], valued: &[&str], switches: &[&str]) -> Result<Flags, String> {
        let mut flags = Flags {
            values: BTreeMap::new(),
            switches: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {arg:?}"))?;
            if switches.contains(&name) {
                flags.switches.push(name.into());
            } else if valued.contains(&name) {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                flags.values.insert(name.into(), value.clone());
            } else {
                return Err(format!("unknown flag --{name}"));
            }
        }
        Ok(flags)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("--{name}: cannot parse {raw:?}")),
        }
    }
}

/// The host record printed before anything is measured.
fn host_record(seed: u64, passes: u64) -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let (cpu_model, avx2) = procfs::parse_cpuinfo(&cpuinfo);
    let first_line = |program: &str, args: &[&str]| -> String {
        Command::new(program)
            .args(args)
            .current_dir(runner::repo_root())
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .and_then(|text| text.lines().next().map(str::to_string))
            .unwrap_or_else(|| "unknown".into())
    };
    Json::obj([
        ("record", Json::Str("host".into())),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, usize::from) as f64),
        ),
        ("cpu_model", Json::Str(cpu_model)),
        ("avx2", Json::Bool(avx2)),
        ("rustc", Json::Str(first_line("rustc", &["-V"]))),
        // "unknown" outside a git checkout
        (
            "git_commit",
            Json::Str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(seed as f64)),
        ("passes", Json::Num(passes as f64)),
    ])
}

/// One run of one workload in this process. Prints the host record,
/// every metric by name with its unit, and — as the last line — the
/// JSON result.
fn single_run(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Result<bool, String> {
    println!("{}", host_record(seed, 1));
    let result = drive::run(workload, seed, seconds as f64, trace)?;
    let table = if trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    for note in &result.notes {
        println!("note  {note}");
    }
    println!(
        "check {} rounds attempted, {} failed",
        result.attempted, result.failed
    );
    let mut reported = Vec::with_capacity(table.len());
    for def in table {
        let value = *result
            .metrics
            .get(def.name)
            .ok_or_else(|| format!("{} reported no {}", workload.name(), def.name))?;
        if !value.is_finite() {
            return Err(format!("{} is {value}", def.name));
        }
        println!("metric {:<40} {value:>18.9} {}", def.name, def.unit);
        if metrics::declared(def) {
            reported.push((
                def.name,
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(def.unit.into())),
                ]),
            ));
        }
    }
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(result.failed == 0)),
            ("attempted", Json::Num(result.attempted as f64)),
            ("failed", Json::Num(result.failed as f64)),
            ("metrics", Json::obj(reported)),
        ])
    );
    Ok(result.failed == 0)
}
