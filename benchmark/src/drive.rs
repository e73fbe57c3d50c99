//! One benchmark run of one workload: set-up, the closed measurement
//! loop, the output checks, and — in a traced run — spans, transport
//! counters and kernel probes.
//!
//! Load shape: closed loop, one driver thread, rounds back to back (a
//! server opens round r+1 only after round r decodes), the whole run
//! pinned to one CPU (`affinity.rs` says why), on which the library's
//! fork-join resolves to its serial path by its own default. A measured
//! round is quantize → run the round → dequantize; inputs are generated
//! before the timed span and outputs checked after it.

use crate::affinity;
use crate::metrics;
use crate::procfs;
use crate::runner;
use crate::schedule::{fill_update, round_spec, InProcess, RoundSpec, Workload, PERIOD};
use crate::stats::{median, percentile};
use crate::sut::{self, Events, Shape, Subject, SutError, TransportStats};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Rounds discarded after building a federation: the base exchange and
/// one more, so lazy set-up is done before timing.
const WARM_UP_ROUNDS: u64 = 2;

/// The set-up is repeated in every run and `setup_s` is the median: at
/// least `MIN_SETUPS` times, and for set-ups that take a fraction of a
/// second (whose timings scatter most) until `SETUP_BUDGET_S` is spent.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 2.0;

/// Call `set_up` repeatedly under the rule above; returns the last
/// set-up's product and every set-up's seconds.
fn repeat_set_up<T>(mut set_up: impl FnMut() -> T) -> (T, Vec<f64>) {
    let started = Instant::now();
    let mut seconds = Vec::new();
    loop {
        let t0 = Instant::now();
        let product = set_up();
        seconds.push(t0.elapsed().as_secs_f64());
        let spent = started.elapsed().as_secs_f64();
        if seconds.len() >= MAX_SETUPS || (seconds.len() >= MIN_SETUPS && spent >= SETUP_BUDGET_S) {
            return (product, seconds);
        }
        // the previous product is dropped before the next set-up: two
        // federations at once would double the peak RSS
        drop(product);
    }
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Rounds whose output was checked (warm-up rounds included).
    pub attempted: u64,
    /// Rounds that errored or failed a check.
    pub failed: u64,
    /// `name → value`, for every metric of the requested kind.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable remarks: sample counts, the first failure, the
    /// accounting identity.
    pub notes: Vec<String>,
}

/// Rounds attempted and failed, with the first failure's reason.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Tally {
    fn fail(&mut self, rounds: u64, why: String) {
        self.failed += rounds;
        self.first_failure.get_or_insert(why);
    }

    fn absorb(&mut self, later: Tally) {
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.first_failure = self.first_failure.take().or(later.first_failure);
    }

    fn into_result(self) -> RunResult {
        RunResult {
            attempted: self.attempted,
            failed: self.failed,
            metrics: BTreeMap::new(),
            notes: Vec::from_iter(self.first_failure.map(|f| format!("FIRST FAILURE: {f}"))),
        }
    }
}

/// Run `workload` once. With `trace` the result holds the per-layer
/// metrics, otherwise the end-to-end ones.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    // cargo may use every CPU; everything measured runs after the pin
    let runner = match workload {
        Workload::TreeTcp => Some(runner::build_runner()?),
        Workload::InProcess(_) => None,
    };
    let (cpu, allowed) = affinity::pin_to_one_cpu()?;
    let mut result = match (workload, trace) {
        (Workload::InProcess(workload), false) => in_process_end_to_end(workload, seed, seconds),
        (Workload::InProcess(workload), true) => in_process_per_layer(workload, seed, seconds)?,
        (Workload::TreeTcp, trace) => {
            let binary = runner.expect("built above");
            if trace {
                tcp_per_layer(&binary, seed, seconds)?
            } else {
                tcp_end_to_end(&binary, seed, seconds)?
            }
        }
    };
    result.notes.insert(
        0,
        format!("pinned to CPU {cpu}, one of the {allowed} this process may use"),
    );
    if !trace {
        result.metrics.insert(
            metrics::FAILED_ROUND_SHARE,
            result.failed as f64 / result.attempted.max(1) as f64,
        );
    }
    Ok(result)
}

/// A layer that is not on a workload's path reports 0 there.
fn off_path(metrics: &mut BTreeMap<&'static str, f64>, layers: &[&str]) {
    for def in metrics::PER_LAYER {
        let layer = def.name.split('.').next().unwrap_or_default();
        if layers.contains(&layer) {
            metrics.insert(def.name, 0.0);
        }
    }
}

// ---------------------------------------------------------------------
// In-process rounds
// ---------------------------------------------------------------------

/// What one timed round yields.
struct RoundSample {
    wall_s: f64,
    cpu_s: f64,
    /// Submitters × d: the elements the round aggregated.
    elements: f64,
    cohort: usize,
    /// Events of the finished round (none when it failed).
    events: Events,
    fallbacks: u64,
}

/// Drives one in-process workload: generates each round's inputs, times
/// the round from outside, and checks its outputs.
struct Driver {
    workload: InProcess,
    seed: u64,
    shape: Shape,
    /// Reused input buffers, one per possible submitter.
    reals: Vec<Vec<f64>>,
    tally: Tally,
}

/// The traced pass's recorders.
struct Recorders<'a> {
    tracer: &'a mut Tracer,
    stats: &'a TransportStats,
}

impl Driver {
    fn new(workload: InProcess, seed: u64) -> Self {
        let shape = sut::shape(workload);
        Driver {
            workload,
            seed,
            shape,
            reals: vec![vec![0.0; shape.d]; shape.members],
            tally: Tally::default(),
        }
    }

    /// Build the federation and run the warm-up rounds.
    fn set_up(&mut self, stats: Option<Arc<TransportStats>>) -> Box<dyn Subject> {
        let mut subject = sut::subject(self.workload, self.seed, stats);
        for round in 0..WARM_UP_ROUNDS {
            self.round(subject.as_mut(), round, None);
        }
        subject
    }

    /// One round: inputs, the timed span, the output check.
    fn round(
        &mut self,
        subject: &mut dyn Subject,
        round: u64,
        recorders: Option<&mut Recorders<'_>>,
    ) -> RoundSample {
        let spec = round_spec(self.workload, self.shape.population(), self.seed, round);
        for (index, buffer) in self.reals[..spec.submitters.len()].iter_mut().enumerate() {
            fill_update(self.seed, round, index, buffer);
        }
        let reals = &self.reals[..spec.submitters.len()];

        let cpu_before = procfs::self_cpu().own_s;
        let started = Instant::now();
        let outcome = match recorders {
            None => untraced_round(subject, &spec, reals),
            Some(recorders) => traced_round(subject, &spec, reals, round, recorders),
        };
        let wall_s = started.elapsed().as_secs_f64();
        let cpu_s = procfs::self_cpu().own_s - cpu_before;

        self.tally.attempted += 1;
        let mut sample = RoundSample {
            wall_s,
            cpu_s,
            elements: (spec.submitters.len() * self.shape.d) as f64,
            cohort: spec.cohort.len(),
            events: Events::default(),
            fallbacks: 0,
        };
        let verdict = outcome
            .map_err(|e| format!("the round returned an error: {e}"))
            .and_then(|(mean, fallbacks)| {
                sample.fallbacks = fallbacks;
                sample.events = subject.events();
                check_round(&self.shape, &spec, reals, subject, &mean)
            });
        if let Err(why) = verdict {
            self.tally.fail(1, format!("round {round}: {why}"));
        }
        sample
    }
}

/// quantize → `Federation::run_round` → dequantize. Returns the
/// dequantized mean; fallbacks are invisible from here.
fn untraced_round(
    subject: &mut dyn Subject,
    spec: &RoundSpec,
    reals: &[Vec<f64>],
) -> Result<(Vec<f64>, u64), SutError> {
    subject.quantize(spec, reals);
    subject.run_round()?;
    Ok((subject.dequantize(), 0))
}

/// Records one span per public call, with the transport time the call
/// caused folded in as two child spans.
struct Spans<'a, 'r> {
    recorders: &'a mut Recorders<'r>,
    root: usize,
    round: u64,
}

impl Spans<'_, '_> {
    fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Recorders { tracer, stats } = &mut *self.recorders;
        let before = stats.snapshot();
        let span = tracer.begin(name, Some(self.root), self.round);
        let result = f();
        tracer.end(span);
        let moved = stats.snapshot().since(&before);
        tracer.folded_child("transport.send", span, moved.send_s, moved.sends);
        tracer.folded_child("transport.recv", span, moved.recv_s, moved.recvs);
        result
    }

    /// One pass through the `SecureAggregator` lifecycle.
    fn attempt(&mut self, subject: &mut dyn Subject) -> Result<(), SutError> {
        self.call("federation.open_round", || subject.open_round())?;
        self.call("federation.submit", || subject.submit())?;
        self.call("federation.finish_round", || subject.finish_round())
    }
}

/// The same round with a span around each public call. The lifecycle is
/// driven by hand, mirroring `Federation::run_round`: on a typed
/// ratchet mismatch, reset and replay the plan once.
fn traced_round(
    subject: &mut dyn Subject,
    spec: &RoundSpec,
    reals: &[Vec<f64>],
    round: u64,
    recorders: &mut Recorders<'_>,
) -> Result<(Vec<f64>, u64), SutError> {
    let root = recorders.tracer.begin("round", None, round);
    let mut spans = Spans {
        recorders,
        root,
        round,
    };
    spans.call("quantize.quantize", || subject.quantize(spec, reals));
    let mut fallbacks = 0;
    if let Err(e) = spans.attempt(subject) {
        if e != SutError::RatchetMismatch {
            return Err(e);
        }
        fallbacks = 1;
        // billed to the recovery phase, whose failure it repairs
        spans.call("federation.finish_round", || subject.reset_after_mismatch());
        spans.attempt(subject)?;
    }
    let mean = spans.call("quantize.dequantize", || subject.dequantize());
    spans.recorders.tracer.end(root);
    Ok((mean, fallbacks))
}

/// The output check of one finished round, outside every timed span:
/// the field aggregate equals the plaintext field sum of exactly the
/// submitted updates, the contributors are exactly the submitters, and
/// the dequantized mean is within the quantizer's bound of the true
/// mean (stochastic rounding moves each coordinate by less than `1/c`,
/// so the mean moves by less than `1/c`).
fn check_round(
    shape: &Shape,
    spec: &RoundSpec,
    reals: &[Vec<f64>],
    subject: &dyn Subject,
    mean: &[f64],
) -> Result<(), String> {
    let check = subject.check_data();
    if check.aggregate != check.expected {
        let differing = check
            .aggregate
            .iter()
            .zip(&check.expected)
            .filter(|(a, b)| a != b)
            .count();
        return Err(format!(
            "aggregate differs from the plaintext field sum in {differing} of {} coordinates",
            check.expected.len()
        ));
    }
    if check.contributors != spec.submitters {
        return Err(format!(
            "{} contributors reported, {} members submitted",
            check.contributors.len(),
            spec.submitters.len()
        ));
    }
    if check.total_weight != spec.submitters.len() as u64 {
        return Err(format!(
            "total weight {} for {} unit-weight submitters",
            check.total_weight,
            spec.submitters.len()
        ));
    }
    if mean.len() != shape.d {
        return Err(format!(
            "mean has {} coordinates, d = {}",
            mean.len(),
            shape.d
        ));
    }
    let mut truth = vec![0.0f64; shape.d];
    for update in reals {
        for (acc, x) in truth.iter_mut().zip(update) {
            *acc += x;
        }
    }
    let count = reals.len() as f64;
    let tolerance = 1.0 / shape.quantizer_level as f64 + 1e-9;
    let worst = truth
        .iter()
        .zip(mean)
        .map(|(sum, got)| (sum / count - got).abs())
        .fold(0.0, f64::max);
    if worst > tolerance {
        return Err(format!(
            "dequantized mean is off by {worst:e}, the quantizer's bound is {tolerance:e}"
        ));
    }
    Ok(())
}

/// Samples of one measurement window.
#[derive(Default)]
struct Window {
    samples: Vec<RoundSample>,
    wire_bytes: u64,
}

impl Window {
    fn rounds(&self) -> f64 {
        self.samples.len() as f64
    }

    fn walls(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.wall_s).collect()
    }

    fn median_wall(&self) -> f64 {
        median(&self.walls()).map_or(f64::NAN, |(m, _)| m)
    }
}

/// Run whole schedule periods back to back until `seconds` have
/// passed, starting at schedule round `first`.
fn measure(
    driver: &mut Driver,
    subject: &mut dyn Subject,
    first: u64,
    seconds: f64,
    mut recorders: Option<Recorders<'_>>,
) -> Window {
    let mut window = Window::default();
    let bytes_before = subject.bytes_sent();
    let started = Instant::now();
    let mut round = first;
    loop {
        for _ in 0..PERIOD {
            window
                .samples
                .push(driver.round(subject, round, recorders.as_mut()));
            round += 1;
        }
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    window.wire_bytes = subject.bytes_sent() - bytes_before;
    window
}

fn in_process_end_to_end(workload: InProcess, seed: u64, seconds: f64) -> RunResult {
    let mut driver = Driver::new(workload, seed);
    let (mut subject, setups) = repeat_set_up(|| driver.set_up(None));
    let window = measure(&mut driver, subject.as_mut(), WARM_UP_ROUNDS, seconds, None);

    let rates: Vec<f64> = window
        .samples
        .iter()
        .map(|s| s.elements / s.wall_s / 1e6)
        .collect();
    let cpu_s: f64 = window.samples.iter().map(|s| s.cpu_s).sum();
    let member_rounds: usize = window.samples.iter().map(|s| s.cohort).sum();
    let mut result = driver.tally.into_result();
    result.metrics.extend([
        ("setup_s", median(&setups).expect("set up at least once").0),
        ("round_s", window.median_wall()),
        ("round_cpu_s", cpu_s / window.rounds()),
        (
            "agg_melem_per_s",
            median(&rates).expect("measured rounds").0,
        ),
        (
            "wire_bytes_per_client_round",
            window.wire_bytes as f64 / member_rounds as f64,
        ),
        (
            "peak_rss_mb",
            procfs::vm_hwm_mib(std::process::id()).expect("own status is readable"),
        ),
    ]);
    result.notes.push(format!(
        "round_s, agg_melem_per_s: medians of {} rounds; setup_s: median of {} set-ups",
        window.samples.len(),
        setups.len()
    ));
    if let Some((p90, beyond)) = percentile(&window.walls(), 90.0) {
        result.notes.push(format!(
            "round tail (not gated): p90 {p90:.6} s with {beyond} samples beyond it"
        ));
    }
    result
}

/// Shares of an in-process traced run's `--seconds`: the untraced
/// window (the denominator of `trace.overhead_ratio`), the traced
/// window, and the four kernel probes together.
const REFERENCE_SHARE: f64 = 0.2;
const TRACED_SHARE: f64 = 0.5;
const PROBES_SHARE: f64 = 0.2;

/// The traced run of an in-process workload.
///
/// * `quantize.*`, `federation.*`, `transport.*`, `trace.*`: spans and
///   transport counters around the workload's own rounds.
/// * `coding.*`, `crypto.*`, `field.*`, `wire.*`: kernel probes at the
///   workload's shapes.
/// * `net.*`, `runner.*`: not on an in-process round's path.
fn in_process_per_layer(workload: InProcess, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let mut driver = Driver::new(workload, seed);
    let shape = driver.shape;

    let reference = {
        let mut subject = driver.set_up(None);
        measure(
            &mut driver,
            subject.as_mut(),
            WARM_UP_ROUNDS,
            seconds * REFERENCE_SHARE,
            None,
        )
        .median_wall()
    };

    let stats = Arc::new(TransportStats::default());
    let mut tracer = Tracer::new();
    let mut subject = driver.set_up(Some(Arc::clone(&stats)));
    let before = stats.snapshot();
    let window = measure(
        &mut driver,
        subject.as_mut(),
        WARM_UP_ROUNDS,
        seconds * TRACED_SHARE,
        Some(Recorders {
            tracer: &mut tracer,
            stats: &stats,
        }),
    );
    let moved = stats.snapshot().since(&before);
    drop(subject);
    let trace_path = runner::out_dir().join(format!(
        "trace-{}.jsonl",
        Workload::InProcess(workload).name()
    ));
    tracer
        .write_jsonl(&trace_path)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;

    let rounds = window.rounds();
    let own = tracer.self_seconds();
    let per_round = |name: &str| -> f64 {
        let total: f64 = tracer
            .spans()
            .iter()
            .zip(&own)
            .filter(|(span, _)| span.name == name)
            .map(|(_, own)| own)
            .sum();
        total / rounds
    };
    let mut m = BTreeMap::new();
    // the spans that tile a round, and the metric each one's self time is
    let mut accounted = 0.0;
    for (span, metric) in [
        ("quantize.quantize", "quantize.quantize_s"),
        ("quantize.dequantize", "quantize.dequantize_s"),
        ("federation.open_round", "federation.open_round_s"),
        ("federation.submit", "federation.submit_s"),
        ("federation.finish_round", "federation.finish_round_s"),
        ("transport.send", "transport.send_s"),
        ("transport.recv", "transport.recv_s"),
    ] {
        let busy_s = per_round(span);
        accounted += busy_s;
        m.insert(metric, busy_s);
    }
    let elements: f64 = window.samples.iter().map(|s| s.elements).sum();
    m.insert(
        "quantize.melem_per_s",
        elements / (m["quantize.quantize_s"] * rounds) / 1e6,
    );
    let walls = window.walls();
    let (p90, beyond) = percentile(&walls, 90.0).expect("measured rounds");
    m.insert("federation.round_p90_s", p90);

    // counts, per round; they repeat exactly for a seed because the
    // window is a whole number of schedule periods
    let mut events = Events::default();
    let mut fallbacks = 0;
    for sample in &window.samples {
        events += sample.events;
        fallbacks += sample.fallbacks;
    }
    let leaf_rounds = shape.leaves as f64 * rounds;
    let ratcheted = (events.ratchets + events.windowed_ratchets) as f64;
    m.extend([
        (
            "federation.rekey_rounds",
            (leaf_rounds - ratcheted) / rounds,
        ),
        ("federation.ratchets", events.ratchets as f64 / rounds),
        (
            "federation.windowed_ratchets",
            events.windowed_ratchets as f64 / rounds,
        ),
        ("federation.fallbacks", fallbacks as f64 / rounds),
        ("federation.dropouts", events.dropouts as f64 / rounds),
        ("federation.requeues", events.requeues as f64 / rounds),
        ("federation.rejections", events.rejections as f64 / rounds),
        ("federation.ratchet_hit_ratio", ratcheted / leaf_rounds),
        ("transport.envelopes_per_round", moved.sends as f64 / rounds),
        (
            "transport.offline_bytes_per_round",
            moved.phase_bytes[0] as f64 / rounds,
        ),
        (
            "transport.upload_bytes_per_round",
            moved.phase_bytes[1] as f64 / rounds,
        ),
        (
            "transport.recovery_bytes_per_round",
            moved.phase_bytes[2] as f64 / rounds,
        ),
        ("trace.overhead_ratio", window.median_wall() / reference),
    ]);

    // probes: the kernels at this workload's shapes
    let probe_s = seconds * PROBES_SHARE / 4.0;
    let mean_round_s = walls.iter().sum::<f64>() / rounds;
    let (encode_all_s, decode_prefix_s) = sut::probe_coding(&shape, probe_s);
    let encode_calls = moved.mask_encoders as f64 / rounds;
    let prg_rate = sut::probe_prg(&shape, probe_s);
    let pad_expansions = ratcheted * (shape.leaf_n * shape.pad_degree) as f64 / rounds;
    let (wire_encode, wire_decode) =
        sut::probe_wire(&shape, &sut::recorded_envelopes(&stats), probe_s);
    m.extend([
        ("coding.encode_all_s", encode_all_s),
        ("coding.decode_prefix_s", decode_prefix_s),
        ("coding.encode_calls_per_round", encode_calls),
        (
            "coding.est_round_share",
            (encode_calls * encode_all_s + shape.leaves as f64 * decode_prefix_s) / mean_round_s,
        ),
        ("crypto.prg_melem_per_s", prg_rate),
        ("crypto.pad_expansions_per_round", pad_expansions),
        (
            "crypto.est_round_share",
            pad_expansions * shape.padded_len as f64 / (prg_rate * 1e6) / mean_round_s,
        ),
        (
            "field.weighted_sum_melem_per_s",
            sut::probe_weighted_sum(&shape, probe_s),
        ),
        ("wire.encode_mb_per_s", wire_encode),
        ("wire.decode_mb_per_s", wire_decode),
    ]);
    off_path(&mut m, &["net", "runner"]);

    let mut result = driver.tally.into_result();
    result.metrics = m;
    result.notes.push(format!(
        "traced pass: {} rounds, mean round {mean_round_s:.6} s; quantize + federation + \
         transport account for {:.1} % of it{}",
        window.samples.len(),
        100.0 * accounted / mean_round_s,
        if (accounted / mean_round_s - 1.0).abs() > 0.05 {
            " — OUTSIDE the 5 % the layers should account for"
        } else {
            ""
        }
    ));
    result.notes.push(format!(
        "federation.round_p90_s has {beyond} samples beyond it (not gated); spans in {}",
        trace_path.display()
    ));
    Ok(result)
}

// ---------------------------------------------------------------------
// tree_tcp: the lsa-runner process path
// ---------------------------------------------------------------------

/// Invocations of one `tree_tcp` window, each of `TCP_ROUNDS` rounds.
#[derive(Default)]
struct TcpWindow {
    /// Per invocation: wall-clock and CPU seconds ÷ rounds.
    round_s: Vec<f64>,
    round_cpu_s: Vec<f64>,
    peak_rss_mib: f64,
    records: Vec<sut::RootRecord>,
    tally: Tally,
}

/// Run `lsa-runner local --rounds rounds` once and check it: exit code
/// 0 and one `MATCH` line and one root record per round. A failed
/// invocation fails all its rounds.
fn tcp_invocation(
    window: &mut TcpWindow,
    binary: &Path,
    rounds: u64,
    seed: u64,
) -> Result<(), String> {
    let run = runner::invoke(binary, &sut::runner_args(rounds, seed))
        .map_err(|e| format!("running {}: {e}", binary.display()))?;
    let output = sut::parse_runner_output(&run.stdout);
    window.tally.attempted += rounds;
    let verdict = if !run.success {
        Err(format!("the runner exited non-zero: {}", run.stderr.trim()))
    } else if output.matches != rounds || output.records.len() as u64 != rounds {
        Err(format!(
            "{} MATCH lines and {} root records for {rounds} rounds",
            output.matches,
            output.records.len()
        ))
    } else {
        Ok(())
    };
    if let Err(why) = verdict {
        window.tally.fail(rounds, why);
    }
    window.round_s.push(run.wall_s / rounds as f64);
    window.round_cpu_s.push(run.cpu_s / rounds as f64);
    window.peak_rss_mib = run.peak_rss_mib;
    window.records.extend(output.records);
    Ok(())
}

/// Back-to-back invocations until `seconds` have passed; a sample is
/// one invocation ÷ its rounds.
fn tcp_measure(binary: &Path, seed: u64, seconds: f64) -> Result<TcpWindow, String> {
    let mut window = TcpWindow::default();
    let started = Instant::now();
    loop {
        tcp_invocation(&mut window, binary, sut::TCP_ROUNDS, seed)?;
        if started.elapsed().as_secs_f64() >= seconds {
            return Ok(window);
        }
    }
}

impl TcpWindow {
    /// Mean of a per-round field of the root records.
    fn record_mean(&self, field: impl Fn(&sut::RootRecord) -> f64) -> f64 {
        self.records.iter().map(field).sum::<f64>() / self.records.len().max(1) as f64
    }
}

fn tcp_end_to_end(binary: &Path, seed: u64, seconds: f64) -> Result<RunResult, String> {
    // set-up: spawn, dial, base round and teardown, as one 1-round run
    let mut warm = TcpWindow::default();
    let mut spawn_error = None;
    let ((), setups) = repeat_set_up(|| {
        if let Err(e) = tcp_invocation(&mut warm, binary, 1, seed) {
            spawn_error.get_or_insert(e);
        }
    });
    if let Some(e) = spawn_error {
        return Err(e);
    }
    let window = tcp_measure(binary, seed, seconds)?;

    let round_s = median(&window.round_s).expect("at least one invocation").0;
    let round_cpu_s = median(&window.round_cpu_s).expect("as many").0;
    let elements = (sut::TCP_MEMBERS * sut::TCP_D) as f64;
    let ingress = window.record_mean(|r| (r.payload_bytes + r.framing_bytes) as f64);
    warm.tally.absorb(window.tally);
    let mut result = warm.tally.into_result();
    result.metrics.extend([
        ("setup_s", median(&setups).expect("set up at least once").0),
        ("round_s", round_s),
        ("round_cpu_s", round_cpu_s),
        // every round aggregates the same N × d, so the median rate is
        // the rate at the median round time
        ("agg_melem_per_s", elements / round_s / 1e6),
        (
            "wire_bytes_per_client_round",
            ingress / sut::TCP_MEMBERS as f64,
        ),
        ("peak_rss_mb", window.peak_rss_mib),
    ]);
    result.notes.push(format!(
        "round_s, round_cpu_s: medians of {} invocations of {} rounds (÷ rounds, the runner's \
         in-process reference run included); setup_s: median of {} one-round runs",
        window.round_s.len(),
        sut::TCP_ROUNDS,
        setups.len()
    ));
    Ok(result)
}

/// Share of a `tree_tcp` traced run's `--seconds` spent on runner
/// invocations; the loopback probe gets the rest.
const RUNNER_SHARE: f64 = 0.8;

/// The traced run of `tree_tcp`. Nothing inside the runner's processes
/// can be wrapped from outside, so only the layers the harness can see
/// report:
///
/// * `runner.*`: parsed from the `runner/root` records of the same
///   invocations the end-to-end run makes;
/// * `net.*`: a loopback `TcpTransport` pair at the root frame size.
fn tcp_per_layer(binary: &Path, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let runs = tcp_measure(binary, seed, seconds * RUNNER_SHARE)?;
    let (frame_rate, small_frame_s) =
        sut::probe_net(&sut::root_frame(), seconds * (1.0 - RUNNER_SHARE))
            .map_err(|e| format!("loopback TCP probe: {e}"))?;
    let mut m = BTreeMap::from([
        ("runner.collect_window_s", runs.record_mean(|r| r.collect_s)),
        (
            "runner.root_payload_bytes_per_round",
            runs.record_mean(|r| r.payload_bytes as f64),
        ),
        (
            "runner.framing_bytes_per_round",
            runs.record_mean(|r| r.framing_bytes as f64),
        ),
        ("net.tcp_frame_mb_per_s", frame_rate),
        ("net.tcp_small_frame_s", small_frame_s),
    ]);
    off_path(
        &mut m,
        &[
            "quantize",
            "federation",
            "transport",
            "wire",
            "coding",
            "crypto",
            "field",
            "trace",
        ],
    );
    let records = runs.records.len();
    let mut result = runs.tally.into_result();
    result.metrics = m;
    result.notes.push(format!(
        "traced pass: runner.* are means over {records} root records; the in-process layers \
         cannot be observed from outside the runner and report 0"
    ));
    Ok(result)
}
