//! A failed round must not wedge a leaf: after a `finish_round` that
//! fails *past* the upload pump (too many after-upload dropouts) and the
//! `abort_round` that retires it, the next rounds run and decode
//! exactly — for both leaf variants, standalone and as the stalled
//! subtree of a partial-recovery tree. `Federation::run_round` does
//! that abort itself when a plan fails, on a leaf and on a strict tree.
//! An undecodable frame fails its round typed and wedges nothing: not
//! inside a round, not inside an offline exchange.

use lsa_field::{Field, Fp61};
use lsa_protocol::federation::{
    BoxedAggregator, BufferedFederation, Federation, LeafFederation, RoundPlan, SecureAggregator,
    SyncFederation,
};
use lsa_protocol::ratchet::policies;
use lsa_protocol::topology::GroupedFederation;
use lsa_protocol::transport::{Fault, MemTransport, Transport};
use lsa_protocol::wire::{Envelope, EnvelopeKind};
use lsa_protocol::{AggregatedShare, LsaConfig, ProtocolError, Recipient};

const D: usize = 4;

/// Leaf `group` of each variant under each ratchet policy, by name,
/// each over its own `wire()`.
fn leaves<T: Transport<Fp61> + Send + 'static>(
    group: usize,
    wire: impl Fn() -> T,
) -> Vec<(String, BoxedAggregator<Fp61>)> {
    let seed = 40 + group as u64;
    let mut out: Vec<(String, BoxedAggregator<Fp61>)> = Vec::new();
    for policy in policies() {
        let cfg = LsaConfig::new(8, 2, 6, D).unwrap().with_ratchet(policy);
        let sync = SyncFederation::in_group(group, cfg, wire(), seed).unwrap();
        out.push((format!("sync/{policy:?}"), Box::new(sync)));
        let buffered = BufferedFederation::unit_weight(cfg, wire(), seed).unwrap();
        out.push((format!("buffered/{policy:?}"), Box::new(buffered)));
    }
    out
}

fn update(id: usize, round: u64) -> Vec<Fp61> {
    vec![Fp61::from_u64((id as u64 + 1) * (round + 2)); D]
}

fn sum(ids: impl IntoIterator<Item = usize>, round: u64) -> Vec<Fp61> {
    let mut want = vec![Fp61::ZERO; D];
    for id in ids {
        lsa_field::ops::add_assign(&mut want, &update(id, round));
    }
    want
}

fn plan(n: usize, round: u64, drop_after_upload: &[usize]) -> RoundPlan<Fp61> {
    let mut plan = RoundPlan::full(n);
    for id in 0..n {
        plan = plan.with_update(id, update(id, round));
    }
    plan.drop_after_upload = drop_after_upload.to_vec();
    plan
}

#[test]
fn a_leaf_recovers_after_a_failed_round_is_aborted() {
    for (name, mut leaf) in leaves(0, MemTransport::new) {
        // 3 of 8 vanish after upload: 5 < U = 6 recovery helpers remain
        leaf.open_round(&(0..8).collect::<Vec<_>>()).unwrap();
        for id in 0..8 {
            leaf.submit(id, &update(id, 0)).unwrap();
        }
        for id in [1, 4, 6] {
            leaf.mark_dropped(id).unwrap();
        }
        let err = leaf.finish_round().unwrap_err();
        assert!(
            matches!(err, ProtocolError::NotEnoughSurvivors { got: 5, need: 6 }),
            "{name}: {err}"
        );
        leaf.abort_round();
        // the failed round is burned; the next two run and decode exactly
        for round in 1..=2u64 {
            leaf.open_round(&(0..8).collect::<Vec<_>>())
                .unwrap_or_else(|e| panic!("{name} round {round} did not open: {e}"));
            for id in 0..8 {
                leaf.submit(id, &update(id, round)).unwrap();
            }
            let out = leaf
                .finish_round()
                .unwrap_or_else(|e| panic!("{name} round {round} failed: {e}"));
            assert_eq!(out.round, round, "{name}");
            assert_eq!(out.contributors, (0..8).collect::<Vec<_>>(), "{name}");
            assert_eq!(out.total_weight, 8, "{name}");
            assert_eq!(out.aggregate, sum(0..8, round), "{name} round {round}");
        }
    }
}

#[test]
fn a_stalled_subtree_unstalls_and_lands_its_requeue_exactly_once() {
    for ((name, left), (_, right)) in leaves(0, MemTransport::new)
        .into_iter()
        .zip(leaves(1, MemTransport::new))
    {
        let tree = GroupedFederation::from_children(vec![left, right])
            .unwrap()
            .with_partial_recovery();
        let mut fed: Federation<Fp61> = Federation::new(Box::new(tree));
        // round 0: the right leaf (clients 8..16) loses 3 recovery
        // helpers and stalls; the left leaf decodes alone
        let out = fed.run_round(&plan(16, 0, &[9, 12, 14])).unwrap();
        assert_eq!(out.total_weight, 8, "{name}");
        assert_eq!(out.aggregate, sum(0..8, 0), "{name}");
        assert_eq!(
            fed.aggregator().round_report().unwrap().stalled,
            vec![1],
            "{name}"
        );
        // round 1: the stalled leaf is back and its round-0 updates ride
        // along, once
        let out = fed
            .run_round(&plan(16, 1, &[]))
            .unwrap_or_else(|e| panic!("{name}: round after the stall failed: {e}"));
        assert!(
            fed.aggregator().round_report().unwrap().stalled.is_empty(),
            "{name}"
        );
        assert_eq!(out.total_weight, 16 + 8, "{name}");
        let mut want = sum(0..16, 1);
        lsa_field::ops::add_assign(&mut want, &sum(8..16, 0));
        assert_eq!(out.aggregate, want, "{name}");
        // round 2: nothing re-queued is left over
        let out = fed.run_round(&plan(16, 2, &[])).unwrap();
        assert!(
            fed.aggregator().round_report().unwrap().stalled.is_empty(),
            "{name}"
        );
        assert_eq!(out.total_weight, 16, "{name}");
        assert_eq!(out.aggregate, sum(0..16, 2), "{name}");
    }
}

/// The plans a cohort `first..first + 8` (`U = 6`) cannot finish, with
/// the share count the typed error reports: three members vanish after
/// upload (both variants), or only three upload at all (sync — the
/// buffered server's partial flush legitimately accepts three).
fn failing_plans(name: &str, n: usize, first: usize) -> Vec<(RoundPlan<Fp61>, usize)> {
    let mut failing = vec![(plan(n, 0, &[first + 1, first + 4, first + 6]), 5)];
    if name.starts_with("sync") {
        let mut few = plan(n, 0, &[]);
        few.updates.truncate(first + 3);
        failing.push((few, 3));
    }
    failing
}

/// Each failing plan returns its typed error and leaves `fed` able to
/// run the next two plans, which decode exactly.
fn fails_typed_then_recovers(
    name: &str,
    fed: &mut Federation<Fp61>,
    n: usize,
    failing: Vec<(RoundPlan<Fp61>, usize)>,
) {
    for (bad, got) in failing {
        let err = fed.run_round(&bad).unwrap_err();
        assert_eq!(
            err,
            ProtocolError::NotEnoughSurvivors { got, need: 6 },
            "{name}"
        );
        for _ in 0..2 {
            let round = fed.round();
            let out = fed
                .run_round(&plan(n, round, &[]))
                .unwrap_or_else(|e| panic!("{name}: round {round} after a failed plan: {e}"));
            assert_eq!(out.round, round, "{name}");
            assert_eq!(out.contributors, (0..n).collect::<Vec<_>>(), "{name}");
            assert_eq!(out.aggregate, sum(0..n, round), "{name} round {round}");
        }
    }
}

#[test]
fn a_failed_plan_does_not_wedge_run_round() {
    // `run_round` aborts the round a failed plan opened (burning its
    // number); sync's second failing plan meets an engaged ratchet, so
    // it also walks fallback → replay → fail → abort
    for (name, leaf) in leaves(0, MemTransport::new) {
        let mut fed: Federation<Fp61> = Federation::new(leaf);
        fails_typed_then_recovers(&name, &mut fed, 8, failing_plans(&name, 8, 0));
    }
    // a strict two-leaf tree: the right leaf (clients 8..16) fails, the
    // tree's round stays open behind the error, the abort reaches both
    for ((name, left), (_, right)) in leaves(0, MemTransport::new)
        .into_iter()
        .zip(leaves(1, MemTransport::new))
    {
        let tree = GroupedFederation::from_children(vec![left, right]).unwrap();
        let mut fed: Federation<Fp61> = Federation::new(Box::new(tree));
        fails_typed_then_recovers(&name, &mut fed, 16, failing_plans(&name, 16, 8));
    }
}

/// Toggling every bit of the tag byte makes any envelope undecodable.
const UNKNOWN_TAG: Fault = Fault::Flip {
    byte: 0,
    mask: 0xFF,
};

/// Three late frames are in flight when the round is aborted and the
/// middle one does not decode: the abort must drain all three, or the
/// third is delivered into the next round and fails its first pump.
fn abort_drains_past_an_undecodable_frame(
    name: &str,
    mut leaf: LeafFederation<Fp61, MemTransport>,
) {
    let everyone: Vec<usize> = (0..8).collect();
    leaf.open_round(&everyone).unwrap();
    for id in 0..4 {
        leaf.submit(id, &update(id, 0)).unwrap();
    }
    let late = Envelope::AggregatedShare(AggregatedShare {
        from: 1,
        group: 0,
        round: 0,
        payload: vec![Fp61::ZERO; leaf.config().segment_len()],
    });
    let wire = leaf.transport_mut();
    wire.inject(UNKNOWN_TAG, EnvelopeKind::AggregatedShare, None, 1);
    for _ in 0..3 {
        wire.send(Recipient::Client(1), Recipient::Server, &late)
            .unwrap();
    }
    leaf.abort_round();
    assert!(leaf.transport().is_empty(), "{name}");
    leaf.open_round(&everyone)
        .unwrap_or_else(|e| panic!("{name}: a frame outlived the abort: {e}"));
    for id in 0..8 {
        leaf.submit(id, &update(id, 1)).unwrap();
    }
    let out = leaf.finish_round().unwrap();
    assert_eq!(out.aggregate, sum(0..8, 1), "{name}");
}

#[test]
fn abort_discards_every_frame_in_flight_past_a_corrupt_one() {
    let cfg = LsaConfig::new(8, 2, 6, D).unwrap();
    let wire = MemTransport::new;
    abort_drains_past_an_undecodable_frame("sync", SyncFederation::new(cfg, wire(), 40).unwrap());
    abort_drains_past_an_undecodable_frame(
        "buffered",
        BufferedFederation::unit_weight(cfg, wire(), 40).unwrap(),
    );
}

/// One offline exchange of an 8-member cohort moves `8 × 7` coded
/// shares.
const EXCHANGE: usize = 56;

/// A coded share that does not decode fails the exchange it belongs to
/// — round 0's own, or round 1's overlapped with round 0 — with a typed
/// wire error, and the next `run_round` re-runs the exchange and
/// decodes exactly: the cohort's half-joined round does not outlive the
/// failure.
#[test]
fn an_undecodable_share_fails_its_exchange_without_wedging_the_leaf() {
    for (phase, nth) in [("offline", 20), ("overlap", EXCHANGE + 20)] {
        // one fault per variant's share kind: the other stays unarmed
        let wire = || {
            let mut wire = MemTransport::new();
            for kind in [EnvelopeKind::CodedMaskShare, EnvelopeKind::TimestampedShare] {
                wire.inject(UNKNOWN_TAG, kind, None, nth);
            }
            wire
        };
        for (name, leaf) in leaves(0, wire) {
            let mut fed: Federation<Fp61> = Federation::new(leaf);
            let first = plan(8, 0, &[]).with_prepare_next((0..8).collect());
            let err = fed.run_round(&first).unwrap_err();
            assert!(
                matches!(err, ProtocolError::Wire(_)),
                "{name} {phase}: {err}"
            );
            let round = fed.round();
            let out = fed
                .run_round(&plan(8, round, &[]))
                .unwrap_or_else(|e| panic!("{name} {phase}: round {round} after the fault: {e}"));
            assert_eq!(out.aggregate, sum(0..8, round), "{name} {phase}");
        }
    }
}
