//! The scenario-matrix harness: one `Mode` cell per point of the
//! protocol's evaluation cross-product, every cell driving an
//! *identical* workload through [`lsa_protocol::Federation`] and
//! emitting one JSON-lines record built from the round's
//! [`RoundReport`] telemetry.
//!
//! The matrix covers {sync, buffered} × {flat, grouped, hierarchical}
//! × {ratchet on/off} × {partial recovery on/off} × {Fp32, Fp61} — 48
//! cells — plus one log-topology cell (the hypercube pad graph with an
//! 8-round commit window over the grouped sync shape) and the
//! `lsa-baselines` SecAgg reference. The 48 cross-product cells pin
//! the clique pad topology at `W = 1` so their records stay
//! PR-over-PR comparable; the log cell is where the hypercube numbers
//! land. Axes that do not apply to a cell (partial recovery needs a
//! tree; a flat cohort has no subtree to skip) still run: the cell is
//! then behaviourally identical to its `partial=off` twin, which keeps
//! the matrix a full cross-product a reviewer can diff PR-over-PR
//! without holes.
//!
//! Rounds run over a timed [`MemTransport`], so per-phase wall clock is priced
//! from the actual serialized envelope bytes crossing the
//! discrete-event network, and byte columns match what a distributed
//! run moves (minus TCP framing, reported separately — see
//! `RoundReport::framing_bytes`).

use lsa_field::{Field, Fp32, Fp61};
use lsa_net::{Duplex, NetworkConfig};
use lsa_protocol::federation::{
    BoxedAggregator, BufferedFederation, Federation, RoundPlan, SyncFederation,
};
use lsa_protocol::telemetry::RoundReport;
use lsa_protocol::topology::{GroupTopology, GroupedFederation};
use lsa_protocol::transport::MemTransport;
use lsa_protocol::{DropoutSchedule, LsaConfig, PadTopology, ProtocolError, RatchetPolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Protocol variant axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// §4.1 synchronous rounds.
    Sync,
    /// §4.2 buffered-asynchronous rounds (unit staleness weights).
    Buffered,
}

/// Aggregation-topology axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topo {
    /// One flat cohort (the paper's headline setting).
    Flat,
    /// One level of [`GROUPS`] uniform groups.
    Grouped,
    /// A two-level tree with branching [`BRANCHING`].
    Hierarchical,
}

/// Field-arithmetic axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldKind {
    /// The 32-bit Mersenne-like prime field.
    Fp32,
    /// The 61-bit prime field.
    Fp61,
}

/// Groups in the `Topo::Grouped` cells.
pub const GROUPS: usize = 4;
/// Branching factors (top to bottom) in the `Topo::Hierarchical` cells.
pub const BRANCHING: [usize; 2] = [2, 2];
/// Privacy fraction `T/N` shared by every cell.
pub const T_FRAC: f64 = 0.25;
/// Recovery fraction `U/N` shared by every cell.
pub const U_FRAC: f64 = 0.75;

/// One cell of the scenario matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mode {
    /// Protocol variant.
    pub variant: Variant,
    /// Aggregation topology.
    pub topo: Topo,
    /// Stable-cohort mask ratchet enabled.
    pub ratchet: bool,
    /// Partial recovery enabled on the tree root (no-op on flat).
    pub partial: bool,
    /// Field arithmetic.
    pub field: FieldKind,
    /// Logarithmic pad topology: the hypercube edge graph with an
    /// 8-round commit window. The cross-product cells pin the clique
    /// at `W = 1`.
    pub log_pads: bool,
}

impl Mode {
    /// Every cell of the cross-product, in a fixed canonical order,
    /// plus the appended log-topology cell.
    pub fn all() -> Vec<Mode> {
        let mut out = Vec::with_capacity(49);
        for variant in [Variant::Sync, Variant::Buffered] {
            for topo in [Topo::Flat, Topo::Grouped, Topo::Hierarchical] {
                for ratchet in [true, false] {
                    for partial in [false, true] {
                        for field in [FieldKind::Fp32, FieldKind::Fp61] {
                            out.push(Mode {
                                variant,
                                topo,
                                ratchet,
                                partial,
                                field,
                                log_pads: false,
                            });
                        }
                    }
                }
            }
        }
        // the hypercube + windowed-commit showcase: grouped sync,
        // ratchet on, where the leaf cohorts are big enough for the
        // edge graphs to differ
        out.push(Mode {
            variant: Variant::Sync,
            topo: Topo::Grouped,
            ratchet: true,
            partial: false,
            field: FieldKind::Fp61,
            log_pads: true,
        });
        out
    }

    /// Canonical cell name, used as the JSON record's `name` field.
    pub fn name(&self) -> String {
        let mut name = format!(
            "matrix/{}/{}/{}/ratchet={}/partial={}",
            match self.variant {
                Variant::Sync => "sync",
                Variant::Buffered => "buffered",
            },
            match self.topo {
                Topo::Flat => "flat",
                Topo::Grouped => "grouped",
                Topo::Hierarchical => "hierarchical",
            },
            match self.field {
                FieldKind::Fp32 => "fp32",
                FieldKind::Fp61 => "fp61",
            },
            if self.ratchet { "on" } else { "off" },
            if self.partial { "on" } else { "off" },
        );
        if self.log_pads {
            name.push_str("/pads=log");
        }
        name
    }

    /// The ratchet policy every leaf of this cell is built under.
    pub fn policy(&self) -> RatchetPolicy {
        if self.log_pads {
            RatchetPolicy::new(self.ratchet, PadTopology::Hypercube, 8)
        } else {
            RatchetPolicy::new(self.ratchet, PadTopology::Clique, 1)
        }
    }

    /// Deterministic construction seed for repetition `rep` of this
    /// cell: a stable function of the cell's canonical index so every
    /// run (and the equivalence test) derives the same entropy.
    pub fn seed(&self, rep: usize) -> u64 {
        let index = Mode::all()
            .iter()
            .position(|m| m == self)
            .expect("every mode is in the cross-product") as u64;
        0x5CA1_AB1E ^ (index * 1031 + rep as u64 * 7919)
    }
}

/// Shared workload parameters for one matrix run.
#[derive(Debug, Clone, Copy)]
pub struct MatrixParams {
    /// Cohort size (must be divisible by the group counts).
    pub n: usize,
    /// Model dimension.
    pub d: usize,
    /// Rounds per repetition.
    pub rounds: usize,
    /// Repetitions averaged into the emitted record.
    pub reps: usize,
}

impl MatrixParams {
    /// CI-sized run: small cohort, a couple of rounds, one rep.
    pub fn quick() -> Self {
        MatrixParams {
            n: 16,
            d: 32,
            rounds: 2,
            reps: 1,
        }
    }

    /// Default run: big enough that phase times dominate setup noise.
    pub fn full() -> Self {
        MatrixParams {
            n: 32,
            d: 256,
            rounds: 5,
            reps: 3,
        }
    }

    fn flat_config(&self) -> Result<LsaConfig, ProtocolError> {
        let t = ((self.n as f64) * T_FRAC).round() as usize;
        let u = ((self.n as f64) * U_FRAC).round() as usize;
        LsaConfig::new(self.n, t, u, self.d)
    }

    fn topology(&self, topo: Topo) -> Result<GroupTopology, ProtocolError> {
        match topo {
            Topo::Flat => Ok(GroupTopology::flat(self.flat_config()?)),
            Topo::Grouped => GroupTopology::uniform(self.n, GROUPS, T_FRAC, U_FRAC, self.d),
            Topo::Hierarchical => {
                GroupTopology::hierarchical(self.n, &BRANCHING, T_FRAC, U_FRAC, self.d)
            }
        }
    }

    fn network(&self) -> NetworkConfig {
        NetworkConfig::paper_default(self.n)
    }
}

/// The identical per-round plans every cell drives: a full cohort,
/// per-client updates drawn from a seeded stream, and one after-upload
/// dropout (`round % n`) so the recovery path and the dropout counter
/// are exercised in every round while the cohort — and with it the
/// ratchet fast path — stays stable.
pub fn workload<F: Field>(p: &MatrixParams, seed: u64) -> Vec<RoundPlan<F>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..p.rounds)
        .map(|r| {
            let updates: Vec<Vec<F>> = (0..p.n)
                .map(|_| lsa_field::ops::random_vector(p.d, &mut rng))
                .collect();
            RoundPlan::full(p.n)
                .with_updates(updates)
                .with_drop_after_upload(r % p.n)
        })
        .collect()
}

/// Build the federation a cell runs: the mode's variant and topology
/// over a fresh timed [`MemTransport`] per aggregation domain.
///
/// # Errors
///
/// Propagates invalid configuration.
pub fn build_aggregator<F: Field>(
    mode: &Mode,
    p: &MatrixParams,
    seed: u64,
) -> Result<Federation<F>, ProtocolError> {
    let net = p.network();
    let policy = mode.policy();
    let agg: BoxedAggregator<F> = match (mode.variant, mode.topo) {
        (Variant::Sync, Topo::Flat) => Box::new(SyncFederation::new(
            p.flat_config()?.with_ratchet(policy),
            MemTransport::timed(net, Duplex::Full),
            seed,
        )?),
        (Variant::Sync, topo) => {
            let grouped = GroupedFederation::new(
                p.topology(topo)?.with_ratchet(policy),
                MemTransport::timed(net, Duplex::Full),
                seed,
            )?;
            if mode.partial {
                Box::new(grouped.with_partial_recovery())
            } else {
                Box::new(grouped)
            }
        }
        (Variant::Buffered, Topo::Flat) => Box::new(BufferedFederation::unit_weight(
            p.flat_config()?.with_ratchet(policy),
            MemTransport::timed(net, Duplex::Full),
            seed,
        )?),
        (Variant::Buffered, topo) => {
            let mut master = StdRng::seed_from_u64(seed);
            let topology = p.topology(topo)?.with_ratchet(policy);
            let grouped = buffered_tree(&topology, net, &mut master)?;
            if mode.partial {
                Box::new(grouped.with_partial_recovery())
            } else {
                Box::new(grouped)
            }
        }
    };
    Ok(Federation::new(agg))
}

/// Compose a buffered aggregator tree over `topology`'s leaves: one
/// [`BufferedFederation`] per leaf group, depth-first, under one
/// [`GroupedFederation::from_children`]. Each leaf gets its own
/// transport, so the composition is an independent recovery domain per
/// group exactly like the sync tree.
fn buffered_tree<F: Field>(
    topology: &GroupTopology,
    net: NetworkConfig,
    master: &mut StdRng,
) -> Result<GroupedFederation<F>, ProtocolError> {
    let leaves: Vec<BoxedAggregator<F>> = topology
        .configs()
        .iter()
        .map(|&cfg| -> Result<BoxedAggregator<F>, ProtocolError> {
            Ok(Box::new(BufferedFederation::unit_weight(
                cfg,
                MemTransport::timed(net, Duplex::Full),
                master.gen(),
            )?))
        })
        .collect::<Result<_, _>>()?;
    GroupedFederation::from_children(leaves)
}

/// One repetition of one cell: the per-round telemetry and aggregates.
#[derive(Debug, Clone)]
pub struct CellRun<F> {
    /// One report per completed round.
    pub reports: Vec<RoundReport>,
    /// One aggregate per completed round (the equivalence test's
    /// bit-identity subject).
    pub aggregates: Vec<Vec<F>>,
}

/// Drive one repetition of `mode`'s workload.
///
/// # Errors
///
/// Propagates any [`ProtocolError`] from construction or the rounds.
pub fn run_cell_typed<F: Field>(
    mode: &Mode,
    p: &MatrixParams,
    seed: u64,
) -> Result<CellRun<F>, ProtocolError> {
    let mut federation = build_aggregator::<F>(mode, p, seed)?;
    let mut reports = Vec::with_capacity(p.rounds);
    let mut aggregates = Vec::with_capacity(p.rounds);
    for plan in workload::<F>(p, seed ^ 0x00D1_CE00) {
        let out = federation.run_round(&plan)?;
        aggregates.push(out.aggregate);
        reports.push(federation.last_report().cloned().unwrap_or_default());
    }
    Ok(CellRun {
        reports,
        aggregates,
    })
}

/// The emitted summary of one cell (or the baseline).
#[derive(Debug, Clone)]
pub struct CellSummary {
    /// Canonical cell name.
    pub name: String,
    /// Averaged telemetry: per-phase means over every round of every
    /// repetition, event counters summed across the run.
    pub report: RoundReport,
    /// Rounds averaged into the report (rounds × reps).
    pub rounds: usize,
    /// The JSON-lines record ([`RoundReport::to_json`]).
    pub json: String,
}

/// Run every repetition of one cell and average the telemetry.
///
/// # Errors
///
/// Propagates any [`ProtocolError`] from the runs.
pub fn run_cell(mode: &Mode, p: &MatrixParams) -> Result<CellSummary, ProtocolError> {
    let mut reports = Vec::with_capacity(p.rounds * p.reps);
    for rep in 0..p.reps {
        let seed = mode.seed(rep);
        match mode.field {
            FieldKind::Fp32 => {
                reports.extend(run_cell_typed::<Fp32>(mode, p, seed)?.reports);
            }
            FieldKind::Fp61 => {
                reports.extend(run_cell_typed::<Fp61>(mode, p, seed)?.reports);
            }
        }
    }
    let name = mode.name();
    let report = RoundReport::average(&reports);
    let json = report.to_json(&name, reports.len());
    Ok(CellSummary {
        name,
        report,
        rounds: reports.len(),
        json,
    })
}

/// Run the SecAgg baseline over the same workload shape (full cohort,
/// one after-upload dropout per round) and emit it in the same record
/// format. The baseline driver is not transport-based, so its report
/// carries wall-clock only: one `"round"` phase per round, zero bytes.
///
/// # Errors
///
/// Returns the baseline error rendered as a string.
pub fn run_secagg_baseline(p: &MatrixParams) -> Result<CellSummary, String> {
    use lsa_baselines::secagg::{run_secagg_round, SecAggConfig};

    let t = ((p.n as f64) * T_FRAC).round() as usize;
    let cfg = SecAggConfig::secagg(p.n, t, p.d).map_err(|e| e.to_string())?;
    let mut reports = Vec::with_capacity(p.rounds * p.reps);
    for rep in 0..p.reps {
        let seed = 0xBA5E ^ (rep as u64 * 7919);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model_rng = StdRng::seed_from_u64(seed ^ 0x00D1_CE00);
        for r in 0..p.rounds {
            let models: Vec<Vec<Fp61>> = (0..p.n)
                .map(|_| lsa_field::ops::random_vector(p.d, &mut model_rng))
                .collect();
            let dropouts = DropoutSchedule::after_upload(vec![r % p.n]);
            let started = Instant::now();
            run_secagg_round(&cfg, &models, &dropouts, &mut rng).map_err(|e| e.to_string())?;
            let elapsed = started.elapsed().as_secs_f64();
            let mut report = RoundReport::new(r as u64);
            report.phases.push(lsa_net::PhaseTiming {
                label: "round",
                start: 0.0,
                end: elapsed,
                messages: 0,
                bytes: 0,
                arrivals: Vec::new(),
            });
            report.events.dropouts = 1;
            reports.push(report);
        }
    }
    let name = String::from("matrix/baseline/secagg/fp61");
    let report = RoundReport::average(&reports);
    let json = report.to_json(&name, reports.len());
    Ok(CellSummary {
        name,
        report,
        rounds: reports.len(),
        json,
    })
}

/// Validate one emitted record: a single-line, brace-balanced JSON
/// object carrying every required key. Not a full JSON parser — a
/// structural tripwire that catches truncation, stray newlines and
/// schema drift in CI without a serde dependency.
///
/// # Errors
///
/// Returns a description of the first malformation found.
pub fn validate_json_line(line: &str) -> Result<(), String> {
    if line.contains('\n') {
        return Err("record spans multiple lines".into());
    }
    let trimmed = line.trim();
    if !trimmed.starts_with('{') || !trimmed.ends_with('}') {
        return Err("record is not a JSON object".into());
    }
    let mut depth = 0i64;
    let mut in_string = false;
    let mut escaped = false;
    for c in trimmed.chars() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                if depth < 0 {
                    return Err("unbalanced braces".into());
                }
            }
            _ => {}
        }
    }
    if in_string {
        return Err("unterminated string".into());
    }
    if depth != 0 {
        return Err("unbalanced braces".into());
    }
    for key in [
        "\"name\":",
        "\"round\":",
        "\"rounds\":",
        "\"phases\":",
        "\"payload_bytes\":",
        "\"framing_bytes\":",
        "\"envelopes\":",
        "\"events\":",
        "\"dropouts\":",
        "\"windowed_ratchets\":",
        "\"quarantined\":",
        "\"available_parallelism\":",
        "\"simd_backend\":\"",
        "\"pad_topology\":\"",
        "\"commit_window\":",
    ] {
        if !trimmed.contains(key) {
            return Err(format!("missing key {key}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_matrix_is_the_full_cross_product() {
        let all = Mode::all();
        assert_eq!(all.len(), 49, "48 cross-product cells + the log cell");
        let mut names: Vec<String> = all.iter().map(Mode::name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 49, "cell names must be unique");
        assert_eq!(all.iter().filter(|m| m.log_pads).count(), 1);
        assert!(all.last().unwrap().name().ends_with("/pads=log"));
    }

    #[test]
    fn workloads_are_deterministic() {
        let p = MatrixParams::quick();
        let a = workload::<Fp61>(&p, 7);
        let b = workload::<Fp61>(&p, 7);
        assert_eq!(a.len(), p.rounds);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.updates, y.updates);
            assert_eq!(x.cohort, y.cohort);
            assert_eq!(x.drop_after_upload, y.drop_after_upload);
        }
    }

    #[test]
    fn validator_accepts_real_records_and_rejects_garbage() {
        let report = RoundReport::new(3);
        let line = report.to_json("matrix/test", 4);
        validate_json_line(&line).expect("real record validates");
        assert!(validate_json_line("{\"name\":\"x\"").is_err());
        assert!(validate_json_line("not json").is_err());
        assert!(
            validate_json_line("{\"name\":\"x\"}").is_err(),
            "missing keys"
        );
    }

    #[test]
    fn baseline_emits_a_valid_record() {
        let p = MatrixParams {
            n: 8,
            d: 8,
            rounds: 1,
            reps: 1,
        };
        let cell = run_secagg_baseline(&p).expect("baseline runs");
        validate_json_line(&cell.json).expect("baseline record validates");
        assert!(cell.report.phase("round").is_some());
    }
}
