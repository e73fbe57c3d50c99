//! Transcript pins: the leaf federations' wire behaviour, frozen.
//!
//! Each pin is two SHA-256 digests over every envelope the transport
//! *delivered*, in delivery order, plus every round's aggregate, for
//! one fixed 10-round plan that walks the whole leaf lifecycle: full
//! exchange, ratchet handshake, churn out and back in, an after-upload
//! dropout, a before-upload dropout inside a ratcheted round (typed
//! mismatch → abort → replay with a full exchange), an overlapped
//! `prepare_next`, and a `reassign` mid-stretch.
//!
//! * The **value** digest hashes recipient + `to_bytes()`: a single
//!   reordered envelope, a changed recipient filter, one moved RNG draw
//!   or one changed share value fails it.
//! * The **shape** digest hashes only recipient, kind, sender, group,
//!   round and wire length: who sent what to whom, in which order, at
//!   what size. A change that moves share *values* on purpose (new
//!   evaluation points, say) re-captures the value digests and must
//!   leave every shape digest as it is — that is what makes such a
//!   re-capture auditable.
//!
//! Neither is a wire-format fixture (`wire_compat.rs` is): a change
//! that *means* to alter the transcript re-captures them with
//! `--nocapture` and says why in review.
//!
//! A second, unpinned check runs one round at a longer segment under
//! every SIMD backend and compares the transcripts with each other.

use lsa_crypto::sha256::Sha256;
use lsa_field::{simd, Field, Fp32, Fp61};
use lsa_protocol::federation::{
    BufferedFederation, Federation, RoundPlan, SecureAggregator, SyncFederation,
};
use lsa_protocol::transport::{MemTransport, Transcript};
use lsa_protocol::wire::Envelope;
use lsa_protocol::{LsaConfig, PadTopology, RatchetPolicy, Recipient};

const N: usize = 8;
const D: usize = 16;

/// The value and shape digests of one transcript, fed from the
/// transport's delivered frames.
struct Digests {
    transcript: Transcript,
    value: Sha256,
    shape: Sha256,
}

impl Digests {
    fn update(&mut self, bytes: &[u8]) {
        self.value.update(bytes);
        self.shape.update(bytes);
    }

    /// Hash every frame delivered since the last call.
    fn absorb<F: Field>(&mut self) {
        let frames = std::mem::take(&mut *self.transcript.lock().unwrap());
        for (_, to, bytes) in frames {
            let to = match to {
                Recipient::Client(i) => i as u64,
                Recipient::Server => u64::MAX,
            };
            self.update(&to.to_le_bytes());
            self.value.update(&bytes);
            let e = Envelope::<F>::from_bytes(&bytes).expect("a delivered frame decodes");
            let sender = e.sender().map_or(u64::MAX, |id| id as u64);
            for field in [sender, e.group() as u64, e.round(), bytes.len() as u64] {
                self.shape.update(&field.to_le_bytes());
            }
            self.shape.update(&[e.kind().tag()]);
        }
    }

    /// The `(value, shape)` digests, hex.
    fn finish(self) -> (String, String) {
        let hex = |h: Sha256| h.finalize().iter().map(|b| format!("{b:02x}")).collect();
        (hex(self.value), hex(self.shape))
    }
}

fn update<F: Field>(id: usize, step: u64) -> Vec<F> {
    (0..D as u64)
        .map(|k| F::from_u64((id as u64 + 1) * (step + 3) + 31 * k))
        .collect()
}

/// The fixed plan. `step` numbers the plan entries; the federation's
/// own round counter runs one ahead after the burned round of step 5.
fn plan<F: Field>(step: u64) -> RoundPlan<F> {
    let everyone: Vec<usize> = (0..N).collect();
    let with_updates = |cohort: Vec<usize>, skip: Option<usize>| {
        let mut plan = RoundPlan::new(cohort.clone());
        for id in cohort {
            if Some(id) != skip {
                plan = plan.with_update(id, update(id, step));
            }
        }
        plan
    };
    match step {
        // churn out, then back in
        2 => with_updates((0..N - 1).collect(), None),
        // member 3 drops before upload inside a ratcheted round
        5 => with_updates(everyone, Some(3)),
        6 => with_updates(everyone, None).with_drop_after_upload(2),
        8 => with_updates(everyone.clone(), None).with_prepare_next(everyone),
        _ => with_updates(everyone, None),
    }
}

/// A leaf federation over a recording [`MemTransport`], and the digests its
/// transcript feeds.
fn recorded<F: Field>(cfg: LsaConfig, buffered: bool) -> (Federation<F>, Digests) {
    let mut transport = MemTransport::new();
    let digests = Digests {
        transcript: transport.transcript(),
        value: Sha256::default(),
        shape: Sha256::default(),
    };
    let aggregator: Box<dyn SecureAggregator<F>> = if buffered {
        Box::new(BufferedFederation::unit_weight(cfg, transport, 0xB0FF).unwrap())
    } else {
        Box::new(SyncFederation::new(cfg, transport, 0x5EED).unwrap())
    };
    (Federation::new(aggregator), digests)
}

/// Run `plan`, check its aggregate against the plaintext sum of the
/// submitted updates, and add the round's frames, its number and its
/// aggregate to both digests.
fn run_checked<F: Field>(
    fed: &mut Federation<F>,
    digests: &mut Digests,
    plan: &RoundPlan<F>,
    step: u64,
) {
    let out = fed
        .run_round(plan)
        .unwrap_or_else(|e| panic!("step {step} failed: {e}"));
    // the pin is only worth keeping if the rounds are right
    let mut want = vec![F::ZERO; out.aggregate.len()];
    for (_, u) in &plan.updates {
        lsa_field::ops::add_assign(&mut want, u);
    }
    assert_eq!(out.aggregate, want, "step {step}: wrong aggregate");
    digests.absorb::<F>();
    digests.update(&out.round.to_le_bytes());
    for x in &out.aggregate {
        digests.update(&x.residue().to_le_bytes());
    }
}

fn transcript_digests<F: Field>(buffered: bool, policy: RatchetPolicy) -> (String, String) {
    let cfg = LsaConfig::new(N, 2, 6, D).unwrap().with_ratchet(policy);
    let (mut fed, mut digests) = recorded::<F>(cfg, buffered);
    let (mut fallbacks, mut ratcheted) = (0, 0);
    for step in 0..10u64 {
        if step == 7 {
            fed.aggregator_mut().reassign(0xA11CE).unwrap();
        }
        run_checked(&mut fed, &mut digests, &plan::<F>(step), step);
        let events = fed.last_report().expect("a finished round reports").events;
        fallbacks += events.fallbacks;
        ratcheted += events.ratchets + events.windowed_ratchets;
    }
    // ... and if the plan walked the paths it claims to walk (the
    // buffered variant re-keys after the reseat, the sync one ratchets
    // through it)
    assert_eq!(fallbacks, 1, "step 5 must abort and replay exactly once");
    assert_eq!(ratcheted, if buffered { 5 } else { 6 });
    digests.finish()
}

/// `(variant, field, topology/window, value digest)`. Re-captured when
/// the evaluation points became `±β` (every coded share changed value);
/// the shape digests in [`SHAPES`] were captured before that change and
/// held through it unedited.
const PINS: [(&str, &str, &str, &str); 8] = [
    (
        "sync",
        "fp32",
        "clique/W1",
        "9b4558013a8e5a843b03baf6a42ae98e63c94d4d0db22eccf49d4ccfa659cc57",
    ),
    (
        "sync",
        "fp32",
        "hypercube/W8",
        "e4518993565609f046c0e779f0f70a102a3cf574f2237894f13395d170d13735",
    ),
    (
        "sync",
        "fp61",
        "clique/W1",
        "b5ec5730e8170570b3aa8a3070bee23ffeef49d6540aec6323a38ee2f011a76a",
    ),
    (
        "sync",
        "fp61",
        "hypercube/W8",
        "b70f8aab4db37479820b0eda93fda0c1d6114b6eb416d4c24ce38c871f2a548f",
    ),
    (
        "buffered",
        "fp32",
        "clique/W1",
        "76102e26382a1ae6d0b479527c57dcf8151a6446145b09babede23c11c1b687c",
    ),
    (
        "buffered",
        "fp32",
        "hypercube/W8",
        "18f332c257eecdf18bdcbd2f65b6376470908abf70564049661c6a144d396405",
    ),
    (
        "buffered",
        "fp61",
        "clique/W1",
        "e948b3200f2b9e33447d02c5fb7fd464e2d549c541fad357a074212d57ac43ec",
    ),
    (
        "buffered",
        "fp61",
        "hypercube/W8",
        "ceb8740b027639c75035504faaa6c6bb47aca6643044fd903bbc7021f4930c05",
    ),
];

/// The shape digest of each [`PINS`] row, same order.
const SHAPES: [&str; 8] = [
    "de82c2b294774290d103a74c455a41b017dacaea646fcd3076bff1f0023148fd",
    "f4bd76c6df681beb80c424677e9d28b096fea25732efce309b19eb0b61ce9032",
    "16cc03399eaaceadbf61d97057ede0b2606202ad316face8c2839ee0f6dbca5c",
    "035db17cb2d6dc143a20a3e524a4f6d1a43a4481b07241549002663458be194b",
    "234edacc5df4dac215bc1105db52cd0e615ed480d45f47adfca811399c355841",
    "8d2ab387856ad67d1b61c08b61e7b98f749c995582c3961bb7c7a10c1c7910a6",
    "7a33a074c2000f3e3deb661d1bec6013de61d8ba05c146eabb3fcb9590db67a0",
    "fe63f68215203bfad78c81ee3096c13b7ce73d844010f37771f7b6d6688abb6e",
];

#[test]
fn leaf_transcripts_match_the_pinned_digests() {
    let mut drifted = Vec::new();
    for ((variant, field, pads, pinned), pinned_shape) in PINS.into_iter().zip(SHAPES) {
        let buffered = variant == "buffered";
        let policy = match pads {
            "clique/W1" => RatchetPolicy::new(true, PadTopology::Clique, 1),
            _ => RatchetPolicy::new(true, PadTopology::Hypercube, 8),
        };
        let (value, shape) = match field {
            "fp32" => transcript_digests::<Fp32>(buffered, policy),
            _ => transcript_digests::<Fp61>(buffered, policy),
        };
        println!("(\"{variant}\", \"{field}\", \"{pads}\", \"{value}\"), shape \"{shape}\"");
        if shape != pinned_shape {
            drifted.push(format!("{variant}/{field}/{pads}: shape"));
        }
        if value != pinned {
            drifted.push(format!("{variant}/{field}/{pads}: value"));
        }
    }
    assert!(
        drifted.is_empty(),
        "transcripts drifted from the pinned digests: {drifted:?}"
    );
}

/// The pins above run at segment length 4, where the multi-point
/// encode kernel is all scalar tail. One full-exchange round at
/// `(N, T, U, d) = (10, 2, 7, 65)` — coded segments of 13 elements,
/// one 8-element strip and an odd tail — must put the same bytes on
/// the wire under every SIMD backend this host has.
fn strip_round_digest(buffered: bool) -> String {
    let cfg = LsaConfig::new(10, 2, 7, 65).unwrap();
    let (mut fed, mut digests) = recorded::<Fp61>(cfg, buffered);
    let mut plan = RoundPlan::new((0..10).collect());
    for id in 0..10u64 {
        let update = (0..65)
            .map(|k| Fp61::from_u64((id + 1) << 40 | k))
            .collect();
        plan = plan.with_update(id as usize, update);
    }
    run_checked(&mut fed, &mut digests, &plan, 0);
    digests.finish().0
}

#[test]
fn coded_shares_are_the_same_bytes_under_every_backend() {
    for buffered in [false, true] {
        let digests: Vec<(&str, String)> = simd::available()
            .into_iter()
            .map(|b| {
                (
                    b.name(),
                    simd::with_backend(b, || strip_round_digest(buffered)),
                )
            })
            .collect();
        for (backend, digest) in &digests {
            assert_eq!(
                digest, &digests[0].1,
                "buffered={buffered}: {backend} delivered different bytes than {}",
                digests[0].0
            );
        }
    }
}
