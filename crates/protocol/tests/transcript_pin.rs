//! Transcript pins: the leaf federations' wire behaviour, frozen.
//!
//! Each pin is a SHA-256 over every envelope the transport *delivered*
//! (recipient + `to_bytes()`, in delivery order) plus every round's
//! aggregate, for one fixed 10-round plan that walks the whole leaf
//! lifecycle: full exchange, ratchet handshake, churn out and back in,
//! an after-upload dropout, a before-upload dropout inside a ratcheted
//! round (typed mismatch → abort → replay with a full exchange), an
//! overlapped `prepare_next`, and a `reseat_ratchet` mid-stretch.
//!
//! The digests below were captured on the tree *before* the two leaf
//! drivers and the four commit/ack copies were folded into one
//! (`LeafFederation` + `ratchet::{ClientRatchet, ServerRatchet}`), so a
//! single reordered envelope, a changed recipient filter or one moved
//! RNG draw fails here. They are not a wire-format fixture
//! (`wire_compat.rs` is): a change that *means* to alter the transcript
//! re-captures them with `--nocapture` and says why in review.
//!
//! A second, unpinned check runs one round at a longer segment under
//! every SIMD backend and compares the transcripts with each other.

use lsa_crypto::sha256::Sha256;
use lsa_field::{simd, Field, Fp32, Fp61};
use lsa_protocol::federation::{
    BufferedFederation, Federation, RoundPlan, SecureAggregator, SyncFederation,
};
use lsa_protocol::transport::{Delivery, MemTransport, PhaseTiming, Transport};
use lsa_protocol::wire::Envelope;
use lsa_protocol::{LsaConfig, PadTopology, ProtocolError, RatchetPolicy, Recipient};
use std::sync::{Arc, Mutex};

const N: usize = 8;
const D: usize = 16;

/// A [`MemTransport`] that hashes everything it delivers into a digest
/// shared with the test body.
#[derive(Clone)]
struct Recording {
    inner: MemTransport,
    transcript: Arc<Mutex<Sha256>>,
}

impl<F: Field> Transport<F> for Recording {
    fn send(
        &mut self,
        from: Recipient,
        to: Recipient,
        envelope: &Envelope<F>,
    ) -> Result<(), ProtocolError> {
        Transport::<F>::send(&mut self.inner, from, to, envelope)
    }

    fn recv(&mut self) -> Result<Option<Delivery<F>>, ProtocolError> {
        let delivery = Transport::<F>::recv(&mut self.inner)?;
        if let Some(d) = &delivery {
            let to = match d.to {
                Recipient::Client(i) => i as u64,
                Recipient::Server => u64::MAX,
            };
            let mut transcript = self.transcript.lock().expect("single-threaded test");
            transcript.update(&to.to_le_bytes());
            transcript.update(&d.envelope.to_bytes());
        }
        Ok(delivery)
    }

    fn flush(&mut self, label: &'static str) {
        Transport::<F>::flush(&mut self.inner, label);
    }

    fn bytes_sent(&self) -> usize {
        Transport::<F>::bytes_sent(&self.inner)
    }

    fn messages_sent(&self) -> usize {
        Transport::<F>::messages_sent(&self.inner)
    }

    fn framing_bytes(&self) -> usize {
        Transport::<F>::framing_bytes(&self.inner)
    }

    fn timings(&self) -> &[PhaseTiming] {
        Transport::<F>::timings(&self.inner)
    }

    fn elapsed(&self) -> f64 {
        Transport::<F>::elapsed(&self.inner)
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

/// A leaf federation over a [`Recording`] transport, and the digest
/// the transport writes into.
fn recorded<F: Field>(cfg: LsaConfig, buffered: bool) -> (Federation<F>, Arc<Mutex<Sha256>>) {
    let transcript = Arc::new(Mutex::new(Sha256::new()));
    let transport = Recording {
        inner: MemTransport::new(),
        transcript: Arc::clone(&transcript),
    };
    let aggregator: Box<dyn SecureAggregator<F>> = if buffered {
        Box::new(BufferedFederation::unit_weight(cfg, transport, 0xB0FF).unwrap())
    } else {
        Box::new(SyncFederation::new(cfg, transport, 0x5EED).unwrap())
    };
    (Federation::new(aggregator), transcript)
}

/// Run `plan`, check its aggregate against the plaintext sum of the
/// submitted updates, and add round number and aggregate to the digest.
fn run_checked<F: Field>(
    fed: &mut Federation<F>,
    transcript: &Mutex<Sha256>,
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
    let mut transcript = transcript.lock().unwrap();
    transcript.update(&out.round.to_le_bytes());
    for x in &out.aggregate {
        transcript.update(&x.residue().to_le_bytes());
    }
}

/// Drop the federation (the last other holder) and read the digest out.
fn finish<F: Field>(fed: Federation<F>, transcript: Arc<Mutex<Sha256>>) -> String {
    drop(fed);
    let digest = Arc::try_unwrap(transcript)
        .unwrap_or_else(|_| panic!("the federation still holds the transcript"))
        .into_inner()
        .unwrap()
        .finalize();
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

fn transcript_digest<F: Field>(buffered: bool, policy: RatchetPolicy) -> String {
    let cfg = LsaConfig::new(N, 2, 6, D).unwrap().with_ratchet(policy);
    let (mut fed, transcript) = recorded::<F>(cfg, buffered);
    let (mut fallbacks, mut ratcheted) = (0, 0);
    for step in 0..10u64 {
        if step == 7 {
            fed.aggregator_mut().reseat_ratchet(0xA11CE);
        }
        run_checked(&mut fed, &transcript, &plan::<F>(step), step);
        let events = fed.last_report().expect("a finished round reports").events;
        fallbacks += events.fallbacks;
        ratcheted += events.ratchets + events.windowed_ratchets;
    }
    // ... and if the plan walked the paths it claims to walk (the
    // buffered variant re-keys after the reseat, the sync one ratchets
    // through it)
    assert_eq!(fallbacks, 1, "step 5 must abort and replay exactly once");
    assert_eq!(ratcheted, if buffered { 5 } else { 6 });
    finish(fed, transcript)
}

/// `(variant, field, topology/window, digest)`, captured at the parent
/// commit of the driver unification.
const PINS: [(&str, &str, &str, &str); 8] = [
    (
        "sync",
        "fp32",
        "clique/W1",
        "71a392332e88c3f62a52d0d786209f7a3a73a55e49fc46f2642433128f59446d",
    ),
    (
        "sync",
        "fp32",
        "hypercube/W8",
        "acb4fef363f1c81651c8b0e05d8d00149e90f9d03e66ee6447c1998da2e2f84c",
    ),
    (
        "sync",
        "fp61",
        "clique/W1",
        "cff3420716a71789011f5ffbb806d4e41c0c99ef18e0acf5d5ea363fb1d53506",
    ),
    (
        "sync",
        "fp61",
        "hypercube/W8",
        "2c47b5954860180a57775cae0ebdde0064ff8bcfb8c1f5310289c850b7365e20",
    ),
    (
        "buffered",
        "fp32",
        "clique/W1",
        "8009dc5c3fe1491130117db5d42e71eb1b75370cb03ab57d6024ce0a94443105",
    ),
    (
        "buffered",
        "fp32",
        "hypercube/W8",
        "846a71818a927d6c45b36e68354ba79b2a83ea4b69f88f783635a80a356f34d9",
    ),
    (
        "buffered",
        "fp61",
        "clique/W1",
        "977a4f9794c8ec12d5e0fa57ca4306715cc8bd1c84962bbad4cf9298a8fba87c",
    ),
    (
        "buffered",
        "fp61",
        "hypercube/W8",
        "c5e7300c73d1c833ce9010b5673ab2d46b463946e899f1afca1d54e50284c5dd",
    ),
];

#[test]
fn leaf_transcripts_match_the_pinned_digests() {
    let mut drifted = Vec::new();
    for (variant, field, pads, pinned) in PINS {
        let buffered = variant == "buffered";
        let policy = match pads {
            "clique/W1" => RatchetPolicy::new(true, PadTopology::Clique, 1),
            _ => RatchetPolicy::new(true, PadTopology::Hypercube, 8),
        };
        let got = match field {
            "fp32" => transcript_digest::<Fp32>(buffered, policy),
            _ => transcript_digest::<Fp61>(buffered, policy),
        };
        println!("(\"{variant}\", \"{field}\", \"{pads}\", \"{got}\"),");
        if got != pinned {
            drifted.push(format!("{variant}/{field}/{pads}"));
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
    let (mut fed, transcript) = recorded::<Fp61>(cfg, buffered);
    let mut plan = RoundPlan::new((0..10).collect());
    for id in 0..10u64 {
        let update = (0..65)
            .map(|k| Fp61::from_u64((id + 1) << 40 | k))
            .collect();
        plan = plan.with_update(id as usize, update);
    }
    run_checked(&mut fed, &transcript, &plan, 0);
    finish(fed, transcript)
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
