//! Process-per-subtree distributed runner.
//!
//! Executes a two-level aggregator tree as real OS processes: `G`
//! mid-level aggregator processes each own one subtree of the client
//! population (running the full LightSecAgg offline/online/recovery
//! pipeline in-process over `MemTransport`), and a root process owns
//! nothing but a listening socket — per round it receives exactly one
//! Wire-v2 [`Envelope::MaskedModel`] frame from each child carrying the
//! subtree's recovered aggregate, and sums the `G` vectors. Secure
//! aggregation is exact in the field, so the root's sum is bit-identical
//! to a single-process `GroupedFederation` run over the same cohort and
//! updates — `local` mode asserts exactly that.
//!
//! Modes:
//!
//! ```text
//! lsa-runner root  --listen 127.0.0.1:4700 --children 4 --rounds 2 --d 32
//! lsa-runner child --index 1 --connect 127.0.0.1:4700 \
//!                  --n 256 --branch 4,4 --rounds 2 --d 32 --seed 7
//! lsa-runner local --n 256 --branch 4,4 --rounds 2 --d 32 --seed 7
//! ```
//!
//! `local` spawns the `G = branch[0]` children itself (re-invoking the
//! current executable), plays the root on an OS-assigned loopback port,
//! runs the in-memory reference federation, and exits non-zero on any
//! byte of disagreement.

use lsa_field::{Field, Fp61};
use lsa_net::{NodeId, TcpTransport, FRAME_OVERHEAD};
use lsa_protocol::telemetry::RoundReport;
use lsa_protocol::topology::{GroupTopology, GroupedFederation};
use lsa_protocol::transport::PhaseTiming;
use lsa_protocol::{
    Envelope, MaskedModel, MemTransport, ProtocolError, Recipient, SecureAggregator, Transport,
};
use std::collections::BTreeMap;
use std::io::Write;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Threshold/survivor fractions for every leaf: tolerate `n_g/4`
/// colluders, require 90% survivors (the paper's robust operating
/// point; exactness does not depend on them with a full cohort).
const T_FRAC: f64 = 0.25;
const U_FRAC: f64 = 0.9;

/// How long the root waits for the next child frame before giving up.
const ROUND_TIMEOUT: Duration = Duration::from_secs(120);

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(mode) = argv.first().map(String::as_str) else {
        eprintln!("usage: lsa-runner <root|child|local> [--key value ...]");
        return ExitCode::FAILURE;
    };
    // each mode with the flags it reads; anything else is a typo
    type Run = fn(&Opts) -> Result<(), String>;
    let (run, flags): (Run, &[&str]) = match mode {
        "root" => (run_root, &["listen", "children", "rounds", "d"]),
        "child" => (
            run_child,
            &["index", "connect", "n", "branch", "rounds", "d", "seed"],
        ),
        "local" => (run_local, &["n", "branch", "rounds", "d", "seed"]),
        other => {
            eprintln!("error: unknown mode {other:?}");
            return ExitCode::FAILURE;
        }
    };
    match Opts::parse(&argv[1..], flags).and_then(|opts| run(&opts)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------
// CLI
// ---------------------------------------------------------------------

struct Opts {
    map: BTreeMap<String, String>,
}

impl Opts {
    /// Parse `--key value` pairs, accepting only the mode's own
    /// `flags`, each at most once.
    fn parse(args: &[String], flags: &[&str]) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("expected --flag, got {key:?}"));
            };
            if !flags.contains(&name) {
                return Err(format!(
                    "unknown flag --{name} (this mode takes --{})",
                    flags.join(", --")
                ));
            }
            let Some(value) = it.next() else {
                return Err(format!("--{name} needs a value"));
            };
            if map.insert(name.to_string(), value.clone()).is_some() {
                return Err(format!("--{name} given more than once"));
            }
        }
        Ok(Self { map })
    }

    fn get(&self, name: &str) -> Result<&str, String> {
        self.map
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{name}"))
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: Option<T>) -> Result<T, String> {
        match self.map.get(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse {v:?}")),
            None => default.ok_or_else(|| format!("missing --{name}")),
        }
    }

    fn branch(&self) -> Result<Vec<usize>, String> {
        let raw = self.map.get("branch").map(String::as_str).unwrap_or("4");
        let levels: Result<Vec<usize>, _> = raw.split(',').map(str::parse).collect();
        let levels = levels.map_err(|_| format!("--branch: cannot parse {raw:?}"))?;
        if levels.is_empty() || levels.contains(&0) {
            return Err(format!("--branch: need non-zero levels, got {raw:?}"));
        }
        Ok(levels)
    }
}

// ---------------------------------------------------------------------
// Deterministic workload
// ---------------------------------------------------------------------

/// splitmix64 — the deterministic per-(client, round, coordinate)
/// update generator every process agrees on.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Client `global_id`'s quantized update for round `round`.
fn update(seed: u64, global_id: usize, round: u64, d: usize) -> Vec<Fp61> {
    (0..d)
        .map(|k| {
            let mix = splitmix64(
                seed ^ (global_id as u64).wrapping_mul(0x517c_c1b7_2722_0a95)
                    ^ round.wrapping_mul(0x2545_f491_4f6c_dd1d)
                    ^ k as u64,
            );
            Fp61::from_u64(mix % Fp61::MODULUS)
        })
        .collect()
}

/// FNV-1a over the canonical residues — the digest the root prints so
/// shell harnesses can compare runs without parsing vectors.
fn digest(aggregate: &[Fp61]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in aggregate {
        for b in x.residue().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

// ---------------------------------------------------------------------
// Child: one subtree, full protocol in-process, aggregate up over TCP
// ---------------------------------------------------------------------

/// Run subtree `index`'s federation for all rounds and push each
/// round's recovered aggregate to the root.
fn run_child(opts: &Opts) -> Result<(), String> {
    let index: usize = opts.num("index", None)?;
    let connect = opts.get("connect")?.to_string();
    let n: usize = opts.num("n", None)?;
    let branch = opts.branch()?;
    let rounds: u64 = opts.num("rounds", Some(1))?;
    let d: usize = opts.num("d", Some(32))?;
    let seed: u64 = opts.num("seed", Some(7))?;

    let (sub, offset) = subtree(n, &branch, d, index)?;
    let n_sub = sub.n();
    let mut fed = GroupedFederation::<Fp61>::new(sub, MemTransport::new(), seed ^ index as u64)
        .map_err(|e| format!("child {index}: building federation: {e}"))?;

    let mut tcp = TcpTransport::new(NodeId::Client(index));
    tcp.dial_retry(NodeId::Server, connect.as_str(), Duration::from_secs(30))
        .map_err(|e| format!("child {index}: dialing root at {connect}: {e}"))?;

    let cohort: Vec<usize> = (0..n_sub).collect();
    for t in 0..rounds {
        let outcome = run_subtree_round(&mut fed, &cohort, seed, offset, t, d)
            .map_err(|e| format!("child {index}: round {t}: {e}"))?;
        let envelope: Envelope<Fp61> = Envelope::MaskedModel(MaskedModel {
            from: index,
            group: index,
            round: t,
            payload: outcome,
        });
        Transport::<Fp61>::send(
            &mut tcp,
            Recipient::Client(index),
            Recipient::Server,
            &envelope,
        )
        .map_err(|e| format!("child {index}: uploading round {t}: {e}"))?;
        tcp.flush_phase("subtree-upload");
    }
    eprintln!(
        "child {index}: {rounds} round(s) done, {} clients, {} bytes up",
        n_sub,
        TcpTransport::bytes_sent(&tcp)
    );
    Ok(())
}

/// One full LightSecAgg round on a subtree federation; returns the
/// recovered aggregate.
fn run_subtree_round(
    fed: &mut GroupedFederation<Fp61>,
    cohort: &[usize],
    seed: u64,
    offset: usize,
    round: u64,
    d: usize,
) -> Result<Vec<Fp61>, ProtocolError> {
    fed.open_round(cohort)?;
    for &j in cohort {
        fed.submit(j, &update(seed, offset + j, round, d))?;
    }
    Ok(fed.finish_round()?.aggregate)
}

/// The `index`-th top-level subtree of the shared tree, plus the global
/// client id where its local namespace starts.
fn subtree(
    n: usize,
    branch: &[usize],
    d: usize,
    index: usize,
) -> Result<(GroupTopology, usize), String> {
    let topo = GroupTopology::hierarchical(n, branch, T_FRAC, U_FRAC, d)
        .map_err(|e| format!("building topology: {e}"))?;
    let subs = topo.child_topologies();
    if index >= subs.len() {
        return Err(format!(
            "--index {index} out of range: the tree has {} top-level subtrees",
            subs.len()
        ));
    }
    let offset = subs[..index].iter().map(GroupTopology::n).sum();
    Ok((subs[index].clone(), offset))
}

// ---------------------------------------------------------------------
// Root: collect G aggregates per round, sum, report
// ---------------------------------------------------------------------

/// One round's in-flight state at the root: the running sum plus the
/// traffic the root's [`RoundReport`] is cut from.
struct RoundCollect {
    sum: Vec<Fp61>,
    seen: usize,
    bytes: usize,
    arrivals: Vec<f64>,
}

/// Per-round sums collected by the root, in round order, each paired
/// with the root's telemetry for that round: the payload bytes and
/// frame count the children uploaded, TCP framing overhead reported
/// separately (one header per frame), and a `"collect"` phase spanning
/// the wall-clock window from the round's first child arrival to its
/// last.
fn collect_root(
    tcp: &mut TcpTransport,
    children: usize,
    rounds: u64,
    d: usize,
) -> Result<Vec<(Vec<Fp61>, RoundReport)>, String> {
    let clock = Instant::now();
    let mut slots: BTreeMap<u64, RoundCollect> = BTreeMap::new();
    let mut done = 0u64;
    while done < rounds {
        let delivery = tcp
            .recv_bytes_timeout(ROUND_TIMEOUT)
            .map_err(|e| format!("root: receive failed: {e}"))?
            .ok_or_else(|| format!("root: timed out with {done}/{rounds} rounds complete"))?;
        let arrived = clock.elapsed().as_secs_f64();
        let frame_bytes = delivery.payload.len();
        let envelope = Envelope::<Fp61>::from_bytes(&delivery.payload)
            .map_err(|e| format!("root: undecodable frame from {:?}: {e}", delivery.from))?;
        let Envelope::MaskedModel(m) = envelope else {
            return Err(format!(
                "root: unexpected {} envelope from {:?}",
                envelope.kind(),
                delivery.from
            ));
        };
        if m.round >= rounds {
            return Err(format!(
                "root: child {} sent round {} >= {rounds}",
                m.from, m.round
            ));
        }
        if m.payload.len() != d {
            return Err(format!(
                "root: child {} sent {} elements, expected {d}",
                m.from,
                m.payload.len()
            ));
        }
        let slot = slots.entry(m.round).or_insert_with(|| RoundCollect {
            sum: vec![Fp61::ZERO; d],
            seen: 0,
            bytes: 0,
            arrivals: Vec::new(),
        });
        for (acc, x) in slot.sum.iter_mut().zip(&m.payload) {
            *acc += *x;
        }
        slot.seen += 1;
        slot.bytes += frame_bytes;
        slot.arrivals.push(arrived);
        if slot.seen == children {
            done += 1;
        }
    }
    Ok(slots
        .into_iter()
        .map(|(round, slot)| {
            let phase = PhaseTiming {
                label: "collect",
                start: slot.arrivals.first().copied().unwrap_or(0.0),
                end: slot.arrivals.last().copied().unwrap_or(0.0),
                messages: slot.seen,
                bytes: slot.bytes,
                arrivals: slot.arrivals,
            };
            let report = RoundReport {
                round,
                phases: vec![phase],
                payload_bytes: slot.bytes,
                framing_bytes: slot.seen * FRAME_OVERHEAD,
                envelopes: slot.seen,
                ..RoundReport::default()
            };
            (slot.sum, report)
        })
        .collect())
}

/// Print each collected round: the shell-comparable digest line plus
/// the same one-line `RoundReport` JSON record the `scenario_matrix`
/// bench emits, appended to `LSA_BENCH_JSON` when set so distributed
/// runs land in the same artifact as in-memory benches.
fn report_rounds(collected: &[(Vec<Fp61>, RoundReport)]) -> Result<(), String> {
    let mut sink = match std::env::var_os("LSA_BENCH_JSON") {
        Some(path) => Some(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .map_err(|e| format!("root: opening LSA_BENCH_JSON: {e}"))?,
        ),
        None => None,
    };
    for (t, (sum, report)) in collected.iter().enumerate() {
        println!("round={t} digest={:#018x}", digest(sum));
        let json = report.to_json("runner/root", 1);
        println!("{json}");
        if let Some(f) = &mut sink {
            writeln!(f, "{json}").map_err(|e| format!("root: appending LSA_BENCH_JSON: {e}"))?;
        }
    }
    Ok(())
}

fn run_root(opts: &Opts) -> Result<(), String> {
    let listen = opts.get("listen")?;
    let children: usize = opts.num("children", None)?;
    let rounds: u64 = opts.num("rounds", Some(1))?;
    let d: usize = opts.num("d", Some(32))?;
    let mut tcp = TcpTransport::bind(NodeId::Server, listen)
        .map_err(|e| format!("root: binding {listen}: {e}"))?;
    let collected = collect_root(&mut tcp, children, rounds, d)?;
    report_rounds(&collected)
}

// ---------------------------------------------------------------------
// Local: spawn children, play root, check against the in-memory run
// ---------------------------------------------------------------------

fn run_local(opts: &Opts) -> Result<(), String> {
    let n: usize = opts.num("n", Some(256))?;
    let branch = opts.branch()?;
    let rounds: u64 = opts.num("rounds", Some(2))?;
    let d: usize = opts.num("d", Some(32))?;
    let seed: u64 = opts.num("seed", Some(7))?;
    let children = branch[0];
    let branch_arg = branch
        .iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(",");

    // the root's listener, on an OS-assigned loopback port
    let mut tcp = TcpTransport::bind(NodeId::Server, "127.0.0.1:0")
        .map_err(|e| format!("local: binding loopback: {e}"))?;
    let addr = tcp.local_addr().expect("bound transport has an address");

    let exe = std::env::current_exe().map_err(|e| format!("local: current_exe: {e}"))?;
    let mut procs = Vec::with_capacity(children);
    for g in 0..children {
        let child = std::process::Command::new(&exe)
            .args([
                "child",
                "--index",
                &g.to_string(),
                "--connect",
                &addr.to_string(),
                "--n",
                &n.to_string(),
                "--branch",
                &branch_arg,
                "--rounds",
                &rounds.to_string(),
                "--d",
                &d.to_string(),
                "--seed",
                &seed.to_string(),
            ])
            .spawn()
            .map_err(|e| format!("local: spawning child {g}: {e}"))?;
        procs.push(child);
    }

    let distributed = collect_root(&mut tcp, children, rounds, d);
    // reap before judging, so failures report the child's exit too
    let mut child_failures = Vec::new();
    for (g, mut p) in procs.into_iter().enumerate() {
        match p.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => child_failures.push(format!("child {g} exited with {status}")),
            Err(e) => child_failures.push(format!("child {g} unreaped: {e}")),
        }
    }
    if !child_failures.is_empty() {
        return Err(child_failures.join("; "));
    }
    let distributed = distributed?;

    let reference = reference_run(n, &branch, rounds, d, seed)?;
    for t in 0..rounds as usize {
        if distributed[t].0 != reference[t] {
            return Err(format!(
                "round {t}: distributed aggregate diverges from the in-memory run \
                 (digest {:#018x} vs {:#018x})",
                digest(&distributed[t].0),
                digest(&reference[t])
            ));
        }
        println!(
            "round={t} digest={:#018x} children={children} MATCH",
            digest(&distributed[t].0)
        );
        println!("{}", distributed[t].1.to_json("runner/root", 1));
    }
    Ok(())
}

/// The single-process run the distributed one must reproduce exactly:
/// one `GroupedFederation` over the whole tree, same cohort, same
/// updates.
fn reference_run(
    n: usize,
    branch: &[usize],
    rounds: u64,
    d: usize,
    seed: u64,
) -> Result<Vec<Vec<Fp61>>, String> {
    let topo = GroupTopology::hierarchical(n, branch, T_FRAC, U_FRAC, d)
        .map_err(|e| format!("reference: topology: {e}"))?;
    let mut fed = GroupedFederation::<Fp61>::new(topo, MemTransport::new(), seed)
        .map_err(|e| format!("reference: federation: {e}"))?;
    let cohort: Vec<usize> = (0..n).collect();
    let mut out = Vec::with_capacity(rounds as usize);
    for t in 0..rounds {
        fed.open_round(&cohort)
            .map_err(|e| format!("reference: open {t}: {e}"))?;
        for &i in &cohort {
            fed.submit(i, &update(seed, i, t, d))
                .map_err(|e| format!("reference: submit {i}@{t}: {e}"))?;
        }
        out.push(
            fed.finish_round()
                .map_err(|e| format!("reference: finish {t}: {e}"))?
                .aggregate,
        );
    }
    Ok(out)
}
