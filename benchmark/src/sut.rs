//! The adapter to the system under test. **Every** call into the repo's
//! crates and every fact about the `lsa-runner` command line lives in
//! this file, so an API change in the program re-points the benchmark
//! here and nowhere else. The rest of the harness sees only the
//! field-erased [`Subject`] trait, plain numbers, and bytes.
//!
//! The program is measured from outside: this file wraps public items
//! and adds no instrumentation inside them. README.md lists the public
//! items it depends on.

use crate::json::Json;
use crate::schedule::{InProcess, Population, RoundSpec};
use crate::stats::time_calls;
use lsa_coding::VandermondeCode;
use lsa_crypto::{FieldPrg, Seed};
use lsa_field::{Field, Fp32, Fp61};
use lsa_net::{NodeId, TcpTransport};
use lsa_protocol::federation::{
    BoxedAggregator, BufferedFederation, Federation, RoundOutcome, RoundPlan, SyncFederation,
};
use lsa_protocol::topology::{GroupTopology, GroupedFederation, TopologyNode};
use lsa_protocol::transport::{Delivery, MemTransport, Transport};
use lsa_protocol::wire::{Envelope, EnvelopeKind};
use lsa_protocol::{LsaConfig, MaskedModel, PadTopology, ProtocolError, Recipient};
use lsa_quantize::VectorQuantizer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Shapes
// ---------------------------------------------------------------------

/// Quantization level of every in-process workload.
const QUANTIZER_LEVEL: u64 = 1 << 16;

/// `flat_*`: the paper's headline setting, `N = 64, T = 16, U = 48`.
const FLAT: (usize, usize, usize, usize) = (64, 16, 48, 32768);

/// `tree_buffered`: 1024 members in 64 leaves of 16, `d = 256`.
const TREE: (usize, usize, f64, f64, usize) = (1024, 64, 0.25, 0.75, 256);

/// `tree_tcp`: what `lsa-runner local` is asked to run — `--n`,
/// `--branch` and `--d`. The runner picks its own thresholds.
pub const TCP_MEMBERS: usize = 1024;
const TCP_BRANCH: [usize; 2] = [2, 32];
pub const TCP_D: usize = 256;

/// Rounds per measured `lsa-runner local` invocation: short enough
/// that a run's median is taken over some twenty invocations, long
/// enough that spawn, dial and the base round stay a twentieth of one.
pub const TCP_ROUNDS: u64 = 20;

/// The cargo package that builds the runner binary, and the binary.
pub const RUNNER_PACKAGE: &str = "lsa-runner";
pub const RUNNER_BINARY: &str = "lsa-runner";

/// The exact sizes a workload pushes through each layer — what the
/// kernel probes replay and the per-round denominators use.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Bits of the field modulus (61 or 32).
    pub field_bits: u32,
    /// Total members `N`.
    pub members: usize,
    /// Leaf groups (1 for a flat federation).
    pub leaves: usize,
    /// Per-leaf `n` and `U`.
    pub leaf_n: usize,
    pub leaf_u: usize,
    /// Model dimension `d`.
    pub d: usize,
    /// Per-leaf coding shape: `U − T` data segments of `segment_len`.
    pub data_segments: usize,
    pub segment_len: usize,
    pub padded_len: usize,
    /// Pads one member expands in a ratcheted round (default topology).
    pub pad_degree: usize,
    /// Quantization level `c`.
    pub quantizer_level: u64,
}

impl Shape {
    pub fn population(&self) -> Population {
        Population {
            members: self.members,
            leaf_size: self.leaf_n,
        }
    }

    fn of(field_bits: u32, members: usize, leaves: usize, leaf: LsaConfig) -> Shape {
        Shape {
            field_bits,
            members,
            leaves,
            leaf_n: leaf.n(),
            leaf_u: leaf.u(),
            d: leaf.d(),
            data_segments: leaf.data_segments(),
            segment_len: leaf.segment_len(),
            padded_len: leaf.padded_len(),
            // the harness sets no knob, so the library default is in force
            pad_degree: PadTopology::default().max_degree(leaf.n()),
            quantizer_level: QUANTIZER_LEVEL,
        }
    }
}

fn flat_config() -> LsaConfig {
    let (n, t, u, d) = FLAT;
    LsaConfig::new(n, t, u, d).expect("the flat workload's configuration is valid")
}

fn tree_topology() -> GroupTopology {
    let (n, groups, t_frac, u_frac, d) = TREE;
    GroupTopology::uniform(n, groups, t_frac, u_frac, d)
        .expect("the tree workload's topology is valid")
}

/// The shape of `workload`.
pub fn shape(workload: InProcess) -> Shape {
    match workload {
        InProcess::FlatChurn | InProcess::FlatStable => Shape::of(61, FLAT.0, 1, flat_config()),
        InProcess::TreeBuffered => {
            let topo = tree_topology();
            Shape::of(32, topo.n(), topo.num_groups(), topo.group_config(0))
        }
    }
}

// ---------------------------------------------------------------------
// The field-erased subject
// ---------------------------------------------------------------------

/// A failed call into the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SutError {
    /// The typed ratchet divergence `Federation::run_round` recovers
    /// from by replaying the plan over a full exchange.
    RatchetMismatch,
    Other(String),
}

impl From<ProtocolError> for SutError {
    fn from(e: ProtocolError) -> Self {
        match e {
            ProtocolError::RatchetMismatch => SutError::RatchetMismatch,
            other => SutError::Other(other.to_string()),
        }
    }
}

impl std::fmt::Display for SutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SutError::RatchetMismatch => f.write_str("ratchet mismatch"),
            SutError::Other(msg) => f.write_str(msg),
        }
    }
}

/// Event counts of one finished round (`RoundReport.events`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Events {
    pub dropouts: u64,
    pub requeues: u64,
    pub ratchets: u64,
    pub windowed_ratchets: u64,
    pub rejections: u64,
}

impl std::ops::AddAssign for Events {
    fn add_assign(&mut self, e: Events) {
        self.dropouts += e.dropouts;
        self.requeues += e.requeues;
        self.ratchets += e.ratchets;
        self.windowed_ratchets += e.windowed_ratchets;
        self.rejections += e.rejections;
    }
}

/// What the output check compares, as plain integers: the check itself
/// is the harness's, not the program's.
#[derive(Debug, Clone)]
pub struct CheckData {
    /// Plaintext sum of exactly the submitted quantized updates, mod
    /// `q`, accumulated in `u128` from canonical residues.
    pub expected: Vec<u64>,
    /// Canonical residues of the aggregate the round returned.
    pub aggregate: Vec<u64>,
    pub contributors: Vec<usize>,
    pub total_weight: u64,
}

/// One in-process workload behind a field-erased interface. A round is
/// `quantize` → (`run_round` | `open_round`, `submit`, `finish_round`)
/// → `dequantize`; the caller times each call from outside.
pub trait Subject {
    /// `VectorQuantizer::quantize` for every submitter, into the
    /// round's `RoundPlan`.
    fn quantize(&mut self, spec: &RoundSpec, reals: &[Vec<f64>]);

    /// `Federation::run_round` on the quantized plan.
    fn run_round(&mut self) -> Result<(), SutError>;

    /// The `SecureAggregator` lifecycle by hand, for the traced pass:
    /// the same calls `run_round` makes, one phase at a time.
    fn open_round(&mut self) -> Result<(), SutError>;
    /// `submit*` then `mark_dropped*`.
    fn submit(&mut self) -> Result<(), SutError>;
    fn finish_round(&mut self) -> Result<(), SutError>;
    /// What `run_round` does between a `RatchetMismatch` and its
    /// replay: `clear_ratchet` + `abort_round`.
    fn reset_after_mismatch(&mut self);

    /// `VectorQuantizer::dequantize_sum` of the round's aggregate.
    fn dequantize(&mut self) -> Vec<f64>;

    /// The finished round's outputs, for the check.
    fn check_data(&self) -> CheckData;

    /// The aggregator's `round_report().events` of the finished round.
    fn events(&self) -> Events;

    /// Payload bytes the aggregator's transports ever carried.
    fn bytes_sent(&self) -> u64;
}

/// A federation with the benchmark's quantizer in front.
struct Quantized<F: Field> {
    quantizer: VectorQuantizer,
    /// Entropy for the quantizer's stochastic rounding.
    rounding: StdRng,
    federation: Federation<F>,
    plan: Option<RoundPlan<F>>,
    outcome: Option<RoundOutcome<F>>,
}

impl<F: Field> Quantized<F> {
    fn new(federation: Federation<F>, seed: u64) -> Self {
        Quantized {
            quantizer: VectorQuantizer::new(QUANTIZER_LEVEL),
            rounding: StdRng::seed_from_u64(seed ^ 0x5eed_0f0a),
            federation,
            plan: None,
            outcome: None,
        }
    }

    fn plan(&self) -> &RoundPlan<F> {
        self.plan.as_ref().expect("quantize runs before the round")
    }

    fn outcome(&self) -> &RoundOutcome<F> {
        self.outcome.as_ref().expect("the round finished")
    }
}

impl<F: Field> Subject for Quantized<F> {
    fn quantize(&mut self, spec: &RoundSpec, reals: &[Vec<f64>]) {
        let mut plan = RoundPlan::new(spec.cohort.clone());
        for (&id, xs) in spec.submitters.iter().zip(reals) {
            plan = plan.with_update(id, self.quantizer.quantize(xs, &mut self.rounding));
        }
        plan.drop_after_upload = spec.drop_after_upload.clone();
        self.plan = Some(plan);
        self.outcome = None;
    }

    fn run_round(&mut self) -> Result<(), SutError> {
        let plan = self.plan.as_ref().expect("quantize runs before the round");
        self.outcome = Some(self.federation.run_round(plan)?);
        Ok(())
    }

    fn open_round(&mut self) -> Result<(), SutError> {
        let plan = self.plan.as_ref().expect("quantize runs before the round");
        self.federation.aggregator_mut().open_round(&plan.cohort)?;
        Ok(())
    }

    fn submit(&mut self) -> Result<(), SutError> {
        let plan = self.plan.as_ref().expect("quantize runs before the round");
        let aggregator = self.federation.aggregator_mut();
        for (id, update) in &plan.updates {
            aggregator.submit(*id, update)?;
        }
        for &id in &plan.drop_after_upload {
            aggregator.mark_dropped(id)?;
        }
        Ok(())
    }

    fn finish_round(&mut self) -> Result<(), SutError> {
        self.outcome = Some(self.federation.aggregator_mut().finish_round()?);
        Ok(())
    }

    fn reset_after_mismatch(&mut self) {
        let aggregator = self.federation.aggregator_mut();
        aggregator.clear_ratchet();
        aggregator.abort_round();
    }

    fn dequantize(&mut self) -> Vec<f64> {
        let outcome = self.outcome();
        self.quantizer
            .dequantize_sum(&outcome.aggregate, outcome.total_weight)
    }

    fn check_data(&self) -> CheckData {
        let outcome = self.outcome();
        let mut sums = vec![0u128; outcome.aggregate.len()];
        for (_, update) in &self.plan().updates {
            for (acc, x) in sums.iter_mut().zip(update) {
                *acc += u128::from(x.residue());
            }
        }
        CheckData {
            expected: sums
                .into_iter()
                .map(|s| (s % u128::from(F::MODULUS)) as u64)
                .collect(),
            aggregate: outcome.aggregate.iter().map(|x| x.residue()).collect(),
            contributors: outcome.contributors.clone(),
            total_weight: outcome.total_weight,
        }
    }

    fn events(&self) -> Events {
        let report = self.federation.aggregator().round_report();
        let e = report.map(|r| r.events).unwrap_or_default();
        Events {
            dropouts: e.dropouts as u64,
            requeues: e.requeues as u64,
            ratchets: e.ratchets as u64,
            windowed_ratchets: e.windowed_ratchets as u64,
            rejections: e.rejections as u64,
        }
    }

    fn bytes_sent(&self) -> u64 {
        self.federation.aggregator().bytes_sent() as u64
    }
}

fn flat_federation<T>(transport: T, seed: u64) -> Federation<Fp61>
where
    T: Transport<Fp61> + 'static,
{
    let sync =
        SyncFederation::new(flat_config(), transport, seed).expect("the flat federation builds");
    Federation::new(Box::new(sync))
}

/// `GroupedFederation::from_children` over one `BufferedFederation` per
/// leaf, each on its own clone of `transport`.
fn tree_federation<T>(transport: T, seed: u64) -> Federation<Fp32>
where
    T: Transport<Fp32> + Clone + Send + 'static,
{
    let mut master = StdRng::seed_from_u64(seed);
    let children: Vec<BoxedAggregator<Fp32>> = tree_topology()
        .child_topologies()
        .iter()
        .map(|sub| -> BoxedAggregator<Fp32> {
            let TopologyNode::Leaf(cfg) = sub.root() else {
                unreachable!("a uniform topology has depth 1");
            };
            Box::new(
                BufferedFederation::unit_weight(*cfg, transport.clone(), master.gen())
                    .expect("a leaf federation builds"),
            )
        })
        .collect();
    let grouped = GroupedFederation::from_children(children).expect("the tree composes");
    Federation::new(Box::new(grouped))
}

/// Build `workload`'s federation. With `stats`, every leaf transport is
/// wrapped in a [`TracedTransport`] feeding the shared counters.
pub fn subject(
    workload: InProcess,
    seed: u64,
    stats: Option<Arc<TransportStats>>,
) -> Box<dyn Subject> {
    let mem = MemTransport::new();
    match stats {
        None => subject_over(workload, seed, mem),
        Some(stats) => subject_over(workload, seed, TracedTransport::new(mem, stats)),
    }
}

fn subject_over<T>(workload: InProcess, seed: u64, transport: T) -> Box<dyn Subject>
where
    T: Transport<Fp61> + Transport<Fp32> + Clone + Send + 'static,
{
    match workload {
        InProcess::FlatChurn | InProcess::FlatStable => {
            Box::new(Quantized::new(flat_federation(transport, seed), seed))
        }
        InProcess::TreeBuffered => Box::new(Quantized::new(tree_federation(transport, seed), seed)),
    }
}

// ---------------------------------------------------------------------
// The traced transport
// ---------------------------------------------------------------------

const KINDS: usize = EnvelopeKind::ALL.len();

/// Which of the paper's three phases an envelope kind belongs to.
fn phase_of(kind: EnvelopeKind) -> usize {
    match kind {
        EnvelopeKind::CodedMaskShare
        | EnvelopeKind::TimestampedShare
        | EnvelopeKind::RatchetAnnouncement
        | EnvelopeKind::RatchetWindowCommit => 0,
        EnvelopeKind::MaskedModel | EnvelopeKind::TimestampedUpdate => 1,
        EnvelopeKind::SurvivorAnnouncement
        | EnvelopeKind::AggregatedShare
        | EnvelopeKind::BufferAnnouncement => 2,
    }
}

fn is_mask_share(kind: EnvelopeKind) -> bool {
    matches!(
        kind,
        EnvelopeKind::CodedMaskShare | EnvelopeKind::TimestampedShare
    )
}

fn kind_index(kind: EnvelopeKind) -> usize {
    usize::from(kind.tag() - 1)
}

/// Counters shared by every clone of a [`TracedTransport`] (a grouped
/// federation clones its transport per leaf). All are statistics that
/// publish no other data, hence `Relaxed`.
#[derive(Debug, Default)]
pub struct TransportStats {
    send_ns: AtomicU64,
    recv_ns: AtomicU64,
    sends: AtomicU64,
    recvs: AtomicU64,
    bytes_by_kind: [AtomicU64; KINDS],
    /// `(round, member)` pairs that sent at least one coded mask share:
    /// each is one offline `encode_all`.
    mask_encoders: AtomicU64,
    largest_len: [AtomicUsize; KINDS],
    /// Serialized bytes of the largest envelope seen per kind, for the
    /// wire probe.
    largest: Mutex<[Vec<u8>; KINDS]>,
}

/// A reading of [`TransportStats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct TransportSnapshot {
    pub send_s: f64,
    pub recv_s: f64,
    pub sends: u64,
    pub recvs: u64,
    /// Payload bytes sent, by phase: offline, upload, recovery.
    pub phase_bytes: [u64; 3],
    /// Members that re-keyed: each ran one offline `encode_all` and sent
    /// its coded mask shares.
    pub mask_encoders: u64,
}

impl TransportSnapshot {
    /// Field-wise `self − earlier`.
    pub fn since(&self, earlier: &TransportSnapshot) -> TransportSnapshot {
        TransportSnapshot {
            send_s: self.send_s - earlier.send_s,
            recv_s: self.recv_s - earlier.recv_s,
            sends: self.sends - earlier.sends,
            recvs: self.recvs - earlier.recvs,
            phase_bytes: std::array::from_fn(|i| self.phase_bytes[i] - earlier.phase_bytes[i]),
            mask_encoders: self.mask_encoders - earlier.mask_encoders,
        }
    }
}

impl TransportStats {
    pub fn snapshot(&self) -> TransportSnapshot {
        let mut snap = TransportSnapshot {
            send_s: self.send_ns.load(Relaxed) as f64 * 1e-9,
            recv_s: self.recv_ns.load(Relaxed) as f64 * 1e-9,
            sends: self.sends.load(Relaxed),
            recvs: self.recvs.load(Relaxed),
            phase_bytes: [0; 3],
            mask_encoders: self.mask_encoders.load(Relaxed),
        };
        for kind in EnvelopeKind::ALL {
            snap.phase_bytes[phase_of(kind)] += self.bytes_by_kind[kind_index(kind)].load(Relaxed);
        }
        snap
    }

    fn note<F: Field>(&self, envelope: &Envelope<F>) {
        let i = kind_index(envelope.kind());
        let len = envelope.wire_len();
        self.bytes_by_kind[i].fetch_add(len as u64, Relaxed);
        if len > self.largest_len[i].load(Relaxed) {
            let mut largest = self.largest.lock().expect("no holder panics");
            if len > largest[i].len() {
                largest[i] = envelope.to_bytes();
                self.largest_len[i].store(len, Relaxed);
            }
        }
    }

    /// The largest serialized envelope recorded per kind (kinds never
    /// seen are omitted).
    fn largest_envelopes(&self) -> Vec<Vec<u8>> {
        let largest = self.largest.lock().expect("no holder panics");
        largest.iter().filter(|b| !b.is_empty()).cloned().collect()
    }
}

/// A [`Transport`] wrapper that times every `send`/`recv` of the
/// transport it wraps and counts envelopes and bytes by kind. The
/// wrapped `MemTransport` serialises on send and decodes on recv, so
/// the timed calls are wire encode/decode plus queueing.
#[derive(Debug, Clone)]
pub struct TracedTransport<T> {
    inner: T,
    stats: Arc<TransportStats>,
    /// `(round, member)` pairs whose mask shares this clone has carried
    /// (a leaf's traffic all goes through one clone).
    encoders_seen: BTreeSet<(u64, usize)>,
}

impl<T> TracedTransport<T> {
    fn new(inner: T, stats: Arc<TransportStats>) -> Self {
        TracedTransport {
            inner,
            stats,
            encoders_seen: BTreeSet::new(),
        }
    }

    /// Count a mask share's sender once per round.
    fn note_encoder(&mut self, round: u64, member: usize) {
        // rounds older than the overlap window can no longer send shares
        if self.encoders_seen.len() >= 4096 {
            self.encoders_seen.retain(|&(r, _)| r + 2 > round);
        }
        if self.encoders_seen.insert((round, member)) {
            self.stats.mask_encoders.fetch_add(1, Relaxed);
        }
    }
}

impl<F: Field, T: Transport<F>> Transport<F> for TracedTransport<T> {
    fn send(
        &mut self,
        from: Recipient,
        to: Recipient,
        envelope: &Envelope<F>,
    ) -> Result<(), ProtocolError> {
        let started = Instant::now();
        let sent = self.inner.send(from, to, envelope);
        let ns = started.elapsed().as_nanos() as u64;
        self.stats.send_ns.fetch_add(ns, Relaxed);
        self.stats.sends.fetch_add(1, Relaxed);
        self.stats.note(envelope);
        if let (true, Some(member)) = (is_mask_share(envelope.kind()), envelope.sender()) {
            self.note_encoder(envelope.round(), member);
        }
        sent
    }

    fn recv(&mut self) -> Result<Option<Delivery<F>>, ProtocolError> {
        let started = Instant::now();
        let delivery = self.inner.recv();
        let ns = started.elapsed().as_nanos() as u64;
        self.stats.recv_ns.fetch_add(ns, Relaxed);
        if matches!(delivery, Ok(Some(_))) {
            self.stats.recvs.fetch_add(1, Relaxed);
        }
        delivery
    }

    fn flush(&mut self, label: &'static str) {
        self.inner.flush(label);
    }

    fn bytes_sent(&self) -> usize {
        self.inner.bytes_sent()
    }

    fn messages_sent(&self) -> usize {
        self.inner.messages_sent()
    }

    fn framing_bytes(&self) -> usize {
        self.inner.framing_bytes()
    }

    fn timings(&self) -> &[lsa_protocol::transport::PhaseTiming] {
        self.inner.timings()
    }

    fn elapsed(&self) -> f64 {
        self.inner.elapsed()
    }
}

// ---------------------------------------------------------------------
// Kernel probes: the workload's exact shapes through the kernels'
// public functions
// ---------------------------------------------------------------------

/// Dispatch a generic probe on the workload's field.
macro_rules! in_field {
    ($shape:expr, $probe:ident($($arg:expr),*)) => {
        match $shape.field_bits {
            61 => $probe::<Fp61>($($arg),*),
            32 => $probe::<Fp32>($($arg),*),
            bits => unreachable!("no {bits}-bit field in the workloads"),
        }
    };
}

fn random_vectors<F: Field>(count: usize, len: usize, rng: &mut StdRng) -> Vec<Vec<F>> {
    (0..count)
        .map(|_| lsa_field::ops::random_vector(len, rng))
        .collect()
}

/// Seconds per `VandermondeCode::encode_all` (one member's offline
/// encode) and per `decode_prefix` (one leaf's one-shot recovery).
pub fn probe_coding(shape: &Shape, budget_s: f64) -> (f64, f64) {
    in_field!(shape, coding_in(shape, budget_s))
}

fn coding_in<F: Field>(shape: &Shape, budget_s: f64) -> (f64, f64) {
    let code = VandermondeCode::<F>::new(shape.leaf_n, shape.leaf_u)
        .expect("the leaf's code parameters are valid");
    let mut rng = StdRng::seed_from_u64(1);
    let segments = random_vectors::<F>(shape.leaf_u, shape.segment_len, &mut rng);
    let (encode_all_s, _) = time_calls(budget_s / 2.0, || {
        black_box(code.encode_all(black_box(&segments)));
    });
    let shares: Vec<(usize, Vec<F>)> = code
        .encode_all(&segments)
        .into_iter()
        .enumerate()
        .take(shape.leaf_u)
        .collect();
    let (decode_prefix_s, _) = time_calls(budget_s / 2.0, || {
        let decoded = code.decode_prefix(black_box(&shares), shape.data_segments);
        black_box(decoded.expect("U distinct shares decode"));
    });
    (encode_all_s, decode_prefix_s)
}

/// `FieldPrg::expand` throughput at one pad's length, in 10⁶ elem/s.
pub fn probe_prg(shape: &Shape, budget_s: f64) -> f64 {
    in_field!(shape, prg_in(shape, budget_s))
}

fn prg_in<F: Field>(shape: &Shape, budget_s: f64) -> f64 {
    let seed = Seed::from_label(b"lsa-benchmark pad probe");
    let (expand_s, _) = time_calls(budget_s, || {
        black_box(FieldPrg::new(black_box(seed)).expand::<F>(shape.padded_len));
    });
    shape.padded_len as f64 / expand_s / 1e6
}

/// `ops::weighted_sum_into` at `(terms = U, len = segment_len)`, in
/// 10⁶ term-elements/s.
pub fn probe_weighted_sum(shape: &Shape, budget_s: f64) -> f64 {
    in_field!(shape, weighted_sum_in(shape, budget_s))
}

fn weighted_sum_in<F: Field>(shape: &Shape, budget_s: f64) -> f64 {
    let mut rng = StdRng::seed_from_u64(2);
    let inputs = random_vectors::<F>(shape.leaf_u, shape.segment_len, &mut rng);
    let coeffs: Vec<F> = lsa_field::ops::random_vector(shape.leaf_u, &mut rng);
    let views: Vec<&[F]> = inputs.iter().map(Vec::as_slice).collect();
    let mut out = vec![F::ZERO; shape.segment_len];
    let (call_s, _) = time_calls(budget_s, || {
        lsa_field::ops::weighted_sum_into(black_box(&mut out), &coeffs, &views);
    });
    (shape.leaf_u * shape.segment_len) as f64 / call_s / 1e6
}

/// The frame a `tree_tcp` child uploads to the root each round: one
/// `MaskedModel` of `d` elements.
pub fn root_frame() -> Vec<u8> {
    Envelope::<Fp61>::MaskedModel(MaskedModel {
        from: 0,
        group: 0,
        round: 0,
        payload: vec![Fp61::ONE; TCP_D],
    })
    .to_bytes()
}

/// `Envelope::to_bytes` / `from_bytes` throughput in MB/s over
/// `envelopes` (serialized): the largest envelope of each kind the
/// traced transport recorded.
pub fn probe_wire(shape: &Shape, envelopes: &[Vec<u8>], budget_s: f64) -> (f64, f64) {
    in_field!(shape, wire_in(envelopes, budget_s))
}

fn wire_in<F: Field>(envelopes: &[Vec<u8>], budget_s: f64) -> (f64, f64) {
    let decoded: Vec<Envelope<F>> = envelopes
        .iter()
        .map(|bytes| Envelope::from_bytes(bytes).expect("a recorded envelope decodes"))
        .collect();
    let megabytes = envelopes.iter().map(Vec::len).sum::<usize>() as f64 / 1e6;
    let (encode_s, _) = time_calls(budget_s / 2.0, || {
        for envelope in &decoded {
            black_box(black_box(envelope).to_bytes());
        }
    });
    let (decode_s, _) = time_calls(budget_s / 2.0, || {
        for bytes in envelopes {
            black_box(Envelope::<F>::from_bytes(black_box(bytes)).expect("decodes"));
        }
    });
    (megabytes / encode_s, megabytes / decode_s)
}

/// What the traced transport recorded for the wire probe.
pub fn recorded_envelopes(stats: &TransportStats) -> Vec<Vec<u8>> {
    stats.largest_envelopes()
}

/// A loopback `TcpTransport` pair: one-way throughput in MB/s for
/// `frame`-sized payloads, and seconds for one 33-byte frame to arrive.
///
/// # Errors
///
/// Propagates bind/dial failures.
pub fn probe_net(frame: &[u8], budget_s: f64) -> std::io::Result<(f64, f64)> {
    const BATCH: usize = 64;
    const PATIENCE: Duration = Duration::from_secs(10);
    let mut server = TcpTransport::bind(NodeId::Server, "127.0.0.1:0")?;
    let addr = server
        .local_addr()
        .expect("a bound transport has an address");
    let mut client = TcpTransport::new(NodeId::Client(0));
    client.dial_retry(NodeId::Server, addr, PATIENCE)?;
    let mut one_way = |payload: &[u8], count: usize| {
        for _ in 0..count {
            client
                .send_bytes(NodeId::Client(0), NodeId::Server, payload)
                .expect("loopback send succeeds");
        }
        for _ in 0..count {
            let arrived = server.recv_bytes_timeout(PATIENCE);
            black_box(arrived.expect("loopback stays up").expect("frame arrives"));
        }
    };
    let (batch_s, _) = time_calls(budget_s / 2.0, || one_way(frame, BATCH));
    let (small_s, _) = time_calls(budget_s / 2.0, || one_way(&[0u8; 33], 1));
    Ok(((BATCH * frame.len()) as f64 / batch_s / 1e6, small_s))
}

// ---------------------------------------------------------------------
// The lsa-runner command line
// ---------------------------------------------------------------------

/// Arguments of the `tree_tcp` invocation: `lsa-runner local` at
/// `N = 1024`, branch `2,32`, `d = 256` — two child processes over
/// loopback TCP, a stable cohort, and the runner's own in-process
/// reference run with its bit-identity check.
pub fn runner_args(rounds: u64, seed: u64) -> Vec<String> {
    [
        "local".to_string(),
        "--n".into(),
        TCP_MEMBERS.to_string(),
        "--branch".into(),
        format!("{},{}", TCP_BRANCH[0], TCP_BRANCH[1]),
        "--d".into(),
        TCP_D.to_string(),
        "--rounds".into(),
        rounds.to_string(),
        "--seed".into(),
        seed.to_string(),
    ]
    .into()
}

/// One `runner/root` record: the root's view of one round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RootRecord {
    /// First to last child arrival.
    pub collect_s: f64,
    pub payload_bytes: u64,
    pub framing_bytes: u64,
}

/// What `lsa-runner local` printed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunnerOutput {
    /// Rounds the runner verified bit-identical to its reference run.
    pub matches: u64,
    pub records: Vec<RootRecord>,
}

/// Parse `lsa-runner local`'s standard output: one
/// `round=<t> digest=<hex> children=<g> MATCH` line and one
/// `runner/root` JSON record per verified round.
pub fn parse_runner_output(stdout: &str) -> RunnerOutput {
    let mut out = RunnerOutput::default();
    for line in stdout.lines() {
        if line.starts_with("round=") && line.ends_with(" MATCH") {
            out.matches += 1;
        } else if line.starts_with('{') {
            let Ok(record) = Json::parse(line) else {
                continue;
            };
            if record.get("name").and_then(Json::as_str) != Some("runner/root") {
                continue;
            }
            let num = |path: &[&str]| record.path(path).and_then(Json::as_f64);
            if let (Some(collect_s), Some(payload), Some(framing)) = (
                num(&["phases", "collect", "seconds"]),
                num(&["payload_bytes"]),
                num(&["framing_bytes"]),
            ) {
                out.records.push(RootRecord {
                    collect_s,
                    payload_bytes: payload as u64,
                    framing_bytes: framing as u64,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runner_output_is_parsed_line_by_line() {
        let stdout = concat!(
            "round=0 digest=0xa9781075320f6916 children=2 MATCH\n",
            r#"{"name":"runner/root","round":0,"rounds":1,"phases":{"collect":{"seconds":0.004,"bytes":4138,"messages":2}},"payload_bytes":4138,"framing_bytes":28,"envelopes":2}"#,
            "\n",
            "round=1 digest=0x1a83766dd2cedfc7 children=2 MATCH\n",
            r#"{"name":"runner/root","round":1,"rounds":1,"phases":{"collect":{"seconds":0.005,"bytes":4138,"messages":2}},"payload_bytes":4138,"framing_bytes":28,"envelopes":2}"#,
            "\n",
            "round=2 digest=0x0 children=2\n",
            "{\"name\":\"other\"}\n{broken\n",
        );
        let out = parse_runner_output(stdout);
        assert_eq!(out.matches, 2);
        assert_eq!(out.records.len(), 2);
        assert_eq!(
            out.records[1],
            RootRecord {
                collect_s: 0.005,
                payload_bytes: 4138,
                framing_bytes: 28
            }
        );
        assert_eq!(
            parse_runner_output("error: boom\n"),
            RunnerOutput::default()
        );
    }

    #[test]
    fn shapes_are_the_ones_the_workloads_name() {
        let flat = shape(InProcess::FlatChurn);
        assert_eq!((flat.leaf_n, flat.leaf_u, flat.d), (64, 48, 32768));
        assert_eq!(
            (flat.data_segments, flat.segment_len, flat.pad_degree),
            (32, 1024, 6)
        );
        let tree = shape(InProcess::TreeBuffered);
        assert_eq!(
            (tree.members, tree.leaves, tree.leaf_n, tree.d),
            (1024, 64, 16, 256)
        );
        assert_eq!((tree.leaf_u, tree.pad_degree), (12, 4));
        assert_eq!(root_frame().len(), 2069);
    }

    #[test]
    fn traced_transport_counts_what_it_carries() {
        let stats = Arc::new(TransportStats::default());
        let mut subject = subject(InProcess::TreeBuffered, 3, Some(Arc::clone(&stats)));
        let pop = shape(InProcess::TreeBuffered).population();
        let spec = crate::schedule::round_spec(InProcess::TreeBuffered, pop, 3, 0);
        let reals = vec![vec![0.25; 256]; spec.submitters.len()];
        subject.quantize(&spec, &reals);
        subject.run_round().unwrap();
        let snap = stats.snapshot();
        let carried: u64 = snap.phase_bytes.iter().sum();
        assert_eq!(carried, subject.bytes_sent());
        assert_eq!(snap.sends, snap.recvs);
        // a base round: every member encodes and shares its mask
        assert_eq!(snap.mask_encoders, 1024);
        let check = subject.check_data();
        assert_eq!(check.expected, check.aggregate);
        assert_eq!(check.total_weight, 1024);
        assert!(!recorded_envelopes(&stats).is_empty());
    }
}
