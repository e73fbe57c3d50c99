//! The leaf round streams: on an immediate transport one sender's
//! envelopes are delivered before the next sender serialises its own,
//! and an upload reaches the server inside `submit`. What must *not*
//! move is pinned next to it: a phase-buffered transport sees the same
//! phases with the same message and byte counts as before the exchange
//! was streamed, and the same aggregate.

use lsa_field::{Field, Fp61};
use lsa_net::{Duplex, NetworkConfig};
use lsa_protocol::federation::{
    BufferedFederation, LeafFederation, RoundPlan, SecureAggregator, SyncFederation,
};
use lsa_protocol::transport::{Fault, MemTransport, PhaseTiming, Transport};
use lsa_protocol::wire::{Envelope, EnvelopeKind, WireError};
use lsa_protocol::{LsaConfig, MaskedModel, ProtocolError, Recipient};

const N: usize = 8;
const D: usize = 16;

fn cfg() -> LsaConfig {
    LsaConfig::new(N, 2, 6, D).unwrap()
}

fn update(id: usize, round: u64) -> Vec<Fp61> {
    (0..D as u64)
        .map(|k| Fp61::from_u64((id as u64 + 1) * (round + 3) + 31 * k))
        .collect()
}

fn sum(ids: impl IntoIterator<Item = usize>, round: u64) -> Vec<Fp61> {
    let mut want = vec![Fp61::ZERO; D];
    for id in ids {
        lsa_field::ops::add_assign(&mut want, &update(id, round));
    }
    want
}

/// Three rounds by hand — full exchange, ratchet handshake, windowed
/// join — checking the queue after every `submit`.
fn stream_three_rounds(name: &str, mut leaf: LeafFederation<Fp61, MemTransport>) {
    let everyone: Vec<usize> = (0..N).collect();
    for round in 0..3u64 {
        leaf.open_round(&everyone).unwrap();
        for id in 0..N {
            leaf.submit(id, &update(id, round)).unwrap();
            assert_eq!(
                leaf.transport().len(),
                0,
                "{name} round {round}: member {id}'s upload was left queued"
            );
        }
        let out = leaf.finish_round().unwrap();
        assert_eq!(out.aggregate, sum(0..N, round), "{name} round {round}");
        let events = leaf.round_report().unwrap().events;
        assert_eq!(
            (events.ratchets, events.windowed_ratchets),
            [(0, 0), (1, 0), (0, 1)][round as usize],
            "{name} round {round}: the plan meant to cover each offline path"
        );
    }
    let peak = leaf.transport().peak();
    // one sender's N − 1 shares, or the server's N announcements
    assert!(
        peak <= N,
        "{name}: {peak} envelopes in flight at once (a cohort-deep queue holds {})",
        N * (N - 1)
    );
    assert!(peak >= N - 1, "{name}: the counter saw the share exchange");
}

#[test]
fn envelopes_in_flight_never_exceed_one_senders_worth() {
    let wire = MemTransport::new;
    stream_three_rounds("sync", SyncFederation::new(cfg(), wire(), 11).unwrap());
    stream_three_rounds(
        "buffered",
        BufferedFederation::unit_weight(cfg(), wire(), 11).unwrap(),
    );
}

/// The plan of round `round` of four: full exchange, ratchet
/// handshake, churn with an after-upload dropout, and a round that
/// overlaps the next one's exchange.
fn plan(round: u64) -> RoundPlan<Fp61> {
    let members = if round == 2 { N - 1 } else { N };
    let mut plan = RoundPlan::new((0..members).collect());
    for id in 0..members {
        plan = plan.with_update(id, update(id, round));
    }
    match round {
        2 => plan.with_drop_after_upload(4),
        3 => plan.with_prepare_next((0..N).collect()),
        _ => plan,
    }
}

/// [`lsa_protocol::federation::Federation::run_round`]'s lifecycle on
/// a concrete leaf, so its transport stays readable; returns the four
/// aggregates, each checked against the plaintext sum.
fn run_plan<A: SecureAggregator<Fp61>>(leaf: &mut A) -> Vec<Vec<Fp61>> {
    (0..4u64)
        .map(|round| {
            let plan = plan(round);
            leaf.open_round(&plan.cohort).unwrap();
            if let Some(next) = &plan.prepare_next {
                leaf.prepare_next(next).unwrap();
            }
            for (id, update) in &plan.updates {
                leaf.submit(*id, update).unwrap();
            }
            for &id in &plan.drop_after_upload {
                leaf.mark_dropped(id).unwrap();
            }
            let out = leaf.finish_round().unwrap();
            assert_eq!(out.aggregate, sum(plan.cohort.iter().copied(), round));
            out.aggregate
        })
        .collect()
}

fn phases(timings: &[PhaseTiming]) -> Vec<(&'static str, usize, usize)> {
    timings
        .iter()
        .map(|t| (t.label, t.messages, t.bytes))
        .collect()
}

fn sim() -> MemTransport {
    MemTransport::timed(NetworkConfig::paper_default(N), Duplex::Full)
}

// `(label, messages, bytes)` per phase, recorded with this file's plan
// at the commit before the exchange was streamed (`a330899`).
const SYNC_PHASES: &[(&str, usize, usize)] = &[
    ("offline", 56, 3192),
    ("upload", 8, 1192),
    ("announce", 8, 392),
    ("recovery", 8, 424),
    ("offline", 8, 752),
    ("offline", 8, 240),
    ("upload", 8, 1192),
    ("announce", 8, 392),
    ("recovery", 8, 424),
    ("offline", 42, 2394),
    ("upload", 7, 1043),
    ("announce", 6, 270),
    ("recovery", 6, 318),
    ("offline", 56, 3192),
    ("offline-overlap", 56, 3192),
    ("upload", 8, 1192),
    ("announce", 8, 392),
    ("recovery", 8, 424),
];
const BUFFERED_PHASES: &[(&str, usize, usize)] = &[
    ("offline", 56, 3192),
    ("upload", 8, 1192),
    ("announce", 8, 1416),
    ("recovery", 8, 424),
    ("offline", 8, 752),
    ("offline", 8, 240),
    ("upload", 8, 1192),
    ("announce", 8, 1416),
    ("recovery", 8, 424),
    ("offline", 42, 2394),
    ("upload", 7, 1043),
    ("announce", 6, 942),
    ("recovery", 6, 318),
    ("offline", 56, 3192),
    ("offline-overlap", 56, 3192),
    ("upload", 8, 1192),
    ("announce", 8, 1416),
    ("recovery", 8, 424),
];

#[test]
fn a_phase_buffered_transport_sees_the_phases_it_always_saw() {
    let mut leaf = SyncFederation::new(cfg(), sim(), 23).unwrap();
    let mut mem = SyncFederation::new(cfg(), MemTransport::new(), 23).unwrap();
    assert_eq!(run_plan(&mut leaf), run_plan(&mut mem), "sync aggregates");
    assert_eq!(
        phases(Transport::<Fp61>::timings(leaf.transport())),
        SYNC_PHASES,
        "sync"
    );

    let mut leaf = BufferedFederation::unit_weight(cfg(), sim(), 23).unwrap();
    let mut mem = BufferedFederation::unit_weight(cfg(), MemTransport::new(), 23).unwrap();
    assert_eq!(
        run_plan(&mut leaf),
        run_plan(&mut mem),
        "buffered aggregates"
    );
    assert_eq!(
        phases(Transport::<Fp61>::timings(leaf.transport())),
        BUFFERED_PHASES,
        "buffered"
    );
}

/// A second upload in client 3's name, as a peer that raced it would
/// send: the server accepts the first and rejects client 3's own.
fn forged_upload() -> Envelope<Fp61> {
    Envelope::MaskedModel(MaskedModel {
        from: 3,
        group: 0,
        round: 0,
        payload: vec![Fp61::ZERO; cfg().padded_len()],
    })
}

#[test]
fn a_server_side_upload_rejection_surfaces_where_the_upload_is_delivered() {
    let everyone: Vec<usize> = (0..N).collect();
    let duplicate = |result: Result<(), ProtocolError>| {
        assert!(
            matches!(result, Err(ProtocolError::DuplicateMessage(3))),
            "{result:?}"
        );
    };

    // immediate transport: delivered, and so rejected, inside `submit`
    let mut leaf = SyncFederation::new(cfg(), MemTransport::new(), 5).unwrap();
    leaf.open_round(&everyone).unwrap();
    leaf.transport_mut()
        .send(Recipient::Client(3), Recipient::Server, &forged_upload())
        .unwrap();
    for id in 0..3 {
        leaf.submit(id, &update(id, 0)).unwrap();
    }
    duplicate(leaf.submit(3, &update(3, 0)));

    // phase-buffered transport: nothing is delivered before
    // `finish_round`'s "upload" flush, so every `submit` succeeds and the
    // rejection surfaces there
    let mut leaf = SyncFederation::new(cfg(), sim(), 5).unwrap();
    leaf.open_round(&everyone).unwrap();
    leaf.transport_mut()
        .send(Recipient::Client(3), Recipient::Server, &forged_upload())
        .unwrap();
    for id in 0..N {
        leaf.submit(id, &update(id, 0)).unwrap();
    }
    duplicate(leaf.finish_round().map(drop));
}

/// The phases of [`faults_on_a_timed_link_are_typed_and_priced`]: the
/// duplicate upload is a ninth frame in round 0's "upload" phase, priced
/// like the other eight; each aborted round ends in an empty "abort"
/// flush, and the round after it runs a full exchange, since an abort
/// forgets the ratchet base.
const FAULTED_PHASES: &[(&str, usize, usize)] = &[
    ("offline", 56, 3192),
    ("upload", 9, 1341),
    ("abort", 0, 0),
    ("offline", 56, 3192),
    ("upload", 8, 1192),
    ("announce", 8, 392),
    ("recovery", 8, 424),
    ("abort", 0, 0),
    ("offline", 56, 3192),
    ("upload", 8, 1192),
    ("announce", 8, 392),
    ("recovery", 8, 424),
];

/// Faults on a timed link: each fails its round with a typed error
/// where the frame is delivered, no round yields a wrong sum, and the
/// next round is exact.
#[test]
fn faults_on_a_timed_link_are_typed_and_priced() {
    let mut wire = sim();
    wire.inject(Fault::Duplicate, EnvelopeKind::MaskedModel, None, 0);
    let unknown_tag = Fault::Flip {
        byte: 0,
        mask: 0xFF,
    };
    wire.inject(unknown_tag, EnvelopeKind::AggregatedShare, None, 0);
    let mut leaf = SyncFederation::new(cfg(), wire, 23).unwrap();
    let everyone: Vec<usize> = (0..N).collect();
    let share_tag = EnvelopeKind::AggregatedShare.tag();
    let want = [
        Err(ProtocolError::DuplicateMessage(0)),
        Err(ProtocolError::Wire(WireError::UnknownTag(share_tag ^ 0xFF))),
        Ok(sum(0..N, 2)),
    ];
    for (round, want) in (0..3u64).zip(want) {
        leaf.open_round(&everyone).unwrap();
        for id in 0..N {
            // nothing is delivered before `finish_round`'s flushes
            leaf.submit(id, &update(id, round)).unwrap();
        }
        let out = leaf.finish_round().map(|out| out.aggregate);
        if out.is_err() {
            leaf.abort_round();
        }
        assert_eq!(out, want, "round {round}");
    }
    assert_eq!(
        phases(Transport::<Fp61>::timings(leaf.transport())),
        FAULTED_PHASES
    );
}
