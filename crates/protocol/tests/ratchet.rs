//! Failure-injection tests of the stable-cohort mask ratchet
//! ([`lsa_protocol::ratchet`]): steady stretches must move **zero**
//! coded-share envelopes, and every divergence — churn, corrupted
//! fingerprints, dropouts mid-ratchet, reassignment — must fall back to
//! the full offline exchange with the aggregate still exact.

use lsa_field::{Field, Fp61};
use lsa_protocol::federation::{
    BufferedFederation, RoundOutcome, RoundPlan, SecureAggregator, SyncFederation,
};
use lsa_protocol::telemetry::RoundReport;
use lsa_protocol::topology::{GroupTopology, GroupedFederation};
use lsa_protocol::transport::{Fault, MemTransport};
use lsa_protocol::wire::EnvelopeKind;
use lsa_protocol::{Federation, LsaConfig, PadTopology, ProtocolError, RatchetPolicy, Recipient};
use std::sync::Barrier;

fn cfg() -> LsaConfig {
    LsaConfig::new(8, 2, 6, 16).unwrap()
}

/// [`cfg`] ratcheting over `topology` with a `window`-round commit.
fn cfg_with(topology: PadTopology, window: usize) -> LsaConfig {
    cfg().with_ratchet(RatchetPolicy::new(true, topology, window))
}

/// Deterministic per-(member, round) update so every round's expected
/// aggregate is computable in closed form.
fn update(id: usize, round: u64) -> Vec<Fp61> {
    vec![Fp61::from_u64((id as u64 + 1) * (round + 3)); 16]
}

fn expected_sum(ids: &[usize], round: u64) -> Vec<Fp61> {
    let mut want = vec![Fp61::ZERO; 16];
    for &id in ids {
        lsa_field::ops::add_assign(&mut want, &update(id, round));
    }
    want
}

/// Drive one full round through the [`SecureAggregator`] trait.
fn run_round(
    fed: &mut dyn SecureAggregator<Fp61>,
    cohort: &[usize],
    drop_after: &[usize],
) -> Result<RoundOutcome<Fp61>, ProtocolError> {
    let round = fed.open_round(cohort)?;
    for &id in cohort {
        fed.submit(id, &update(id, round))?;
    }
    for &id in drop_after {
        fed.mark_dropped(id)?;
    }
    fed.finish_round()
}

fn coded_shares(fed: &SyncFederation<Fp61, MemTransport>) -> usize {
    fed.transport().kind_count(EnvelopeKind::CodedMaskShare)
}

fn announcements(fed: &SyncFederation<Fp61, MemTransport>) -> usize {
    fed.transport()
        .kind_count(EnvelopeKind::RatchetAnnouncement)
}

fn window_commits(fed: &SyncFederation<Fp61, MemTransport>) -> usize {
    fed.transport()
        .kind_count(EnvelopeKind::RatchetWindowCommit)
}

/// A 12-round stable stretch on the legacy per-round path (`W = 1`):
/// after the base round, not one more `CodedMaskShare` crosses the
/// wire, the only offline traffic is the commit/ack handshake, and
/// every aggregate is bit-identical to an always-rekey twin of the
/// same seed.
#[test]
fn stable_stretch_ratchets_with_zero_share_traffic() {
    let cfg = cfg_with(PadTopology::default(), 1);
    let mut fast = SyncFederation::<Fp61, _>::new(cfg, MemTransport::new(), 7).unwrap();
    let mut rekey = SyncFederation::<Fp61, _>::new(cfg, MemTransport::new(), 7).unwrap();
    let cohort: Vec<usize> = (0..8).collect();

    let base_fast = run_round(&mut fast, &cohort, &[]).unwrap();
    let base_rekey = run_round(&mut rekey, &cohort, &[]).unwrap();
    assert_eq!(base_fast.aggregate, base_rekey.aggregate);

    let shares_after_base = coded_shares(&fast);
    let ann_after_base = announcements(&fast);
    let rekey_shares_after_base = coded_shares(&rekey);

    for r in 1..=12u64 {
        rekey.clear_ratchet(); // the twin re-keys every round
        let a = run_round(&mut fast, &cohort, &[]).unwrap();
        let b = run_round(&mut rekey, &cohort, &[]).unwrap();
        assert_eq!(a.round, r);
        assert_eq!(a.aggregate, b.aggregate, "round {r} diverged from rekey");
        assert_eq!(a.aggregate, expected_sum(&cohort, r));
        assert_eq!(a.contributors, cohort);
    }

    assert_eq!(
        coded_shares(&fast),
        shares_after_base,
        "a ratcheted stretch must exchange zero coded mask shares"
    );
    // one commit + one ack per member per ratcheted round
    assert_eq!(announcements(&fast), ann_after_base + 12 * 2 * 8);
    assert_eq!(window_commits(&fast), 0, "W = 1 must use the legacy path");
    assert!(
        coded_shares(&rekey) >= rekey_shares_after_base + 12 * 8 * 7,
        "the rekey twin must have paid the full exchange every round"
    );
    assert_eq!(announcements(&rekey), 0);
}

/// The same 12-round stretch under the hypercube topology with an
/// 8-round commit window: aggregates stay bit-identical to an
/// always-rekey twin, the stretch still moves zero coded shares, and
/// the handshake collapses to ⌈12/8⌉ = 2 window commits — every other
/// round joins its pre-committed nonce with *zero* offline envelopes.
#[test]
fn windowed_hypercube_stretch_matches_rekey_twin() {
    let fast_cfg = cfg_with(PadTopology::Hypercube, 8);
    let mut fast = SyncFederation::<Fp61, _>::new(fast_cfg, MemTransport::new(), 7).unwrap();
    let mut rekey = SyncFederation::<Fp61, _>::new(cfg(), MemTransport::new(), 7).unwrap();
    let cohort: Vec<usize> = (0..8).collect();

    let base_fast = run_round(&mut fast, &cohort, &[]).unwrap();
    let base_rekey = run_round(&mut rekey, &cohort, &[]).unwrap();
    assert_eq!(base_fast.aggregate, base_rekey.aggregate);
    let shares_after_base = coded_shares(&fast);

    let mut joined = 0usize;
    for r in 1..=12u64 {
        rekey.clear_ratchet(); // the twin re-keys every round
        let bytes_before = fast.bytes_sent();
        let round = fast.open_round(&cohort).unwrap();
        let offline_bytes = fast.bytes_sent() - bytes_before;
        for &id in &cohort {
            fast.submit(id, &update(id, round)).unwrap();
        }
        let a = fast.finish_round().unwrap();
        let b = run_round(&mut rekey, &cohort, &[]).unwrap();
        assert_eq!(a.aggregate, b.aggregate, "round {r} diverged from rekey");
        assert_eq!(a.aggregate, expected_sum(&cohort, r));
        let report = fast.round_report().unwrap();
        if report.events.windowed_ratchets == 1 {
            joined += 1;
            assert_eq!(report.events.ratchets, 0);
            assert_eq!(
                offline_bytes, 0,
                "a window-joined round must move zero offline bytes"
            );
        } else {
            assert_eq!(report.events.ratchets, 1);
            assert!(offline_bytes > 0, "a window-opening round pays the commit");
        }
    }

    assert_eq!(
        coded_shares(&fast),
        shares_after_base,
        "a windowed stretch must exchange zero coded mask shares"
    );
    // rounds 1 and 9 open a window (commit + ack per member); the other
    // ten rounds join driver-locally
    assert_eq!(joined, 10);
    assert_eq!(window_commits(&fast), 2 * 2 * 8);
    assert_eq!(announcements(&fast), 0);
}

/// Cohort churn mid-stretch: the changed round silently falls back to a
/// full exchange, and the *new* cohort ratchets from then on.
#[test]
fn churn_mid_stretch_falls_back_then_ratchets_again() {
    let mut fed = SyncFederation::<Fp61, _>::new(cfg(), MemTransport::new(), 11).unwrap();
    let full: Vec<usize> = (0..8).collect();
    let reduced: Vec<usize> = (0..7).collect();

    run_round(&mut fed, &full, &[]).unwrap();
    let s0 = coded_shares(&fed);
    run_round(&mut fed, &full, &[]).unwrap();
    assert_eq!(coded_shares(&fed), s0, "stable round 1 must ratchet");

    // churn: member 7 gone — fingerprint mismatch, full exchange
    let out = run_round(&mut fed, &reduced, &[]).unwrap();
    assert!(coded_shares(&fed) > s0, "churned round must re-key");
    assert_eq!(out.aggregate, expected_sum(&reduced, 2));

    // the reduced cohort is the new stable cohort
    let s1 = coded_shares(&fed);
    let out = run_round(&mut fed, &reduced, &[]).unwrap();
    assert_eq!(
        coded_shares(&fed),
        s1,
        "post-churn stable round must ratchet"
    );
    assert_eq!(out.aggregate, expected_sum(&reduced, 3));

    // growing back to the full cohort is churn again
    let out = run_round(&mut fed, &full, &[]).unwrap();
    assert!(coded_shares(&fed) > s1);
    assert_eq!(out.aggregate, expected_sum(&full, 4));
}

/// A window commit that reaches client 2 with a fingerprint it does
/// not hold makes the handshake fail: the round silently re-keys
/// (correct aggregate, share traffic present) and the repaired state
/// ratchets again the round after.
#[test]
fn corrupted_fingerprint_falls_back_to_full_exchange() {
    let mut wire = MemTransport::new();
    // tag, group, sender and round fill bytes 0..17; the fingerprint
    // follows
    let corrupt = Fault::Flip {
        byte: 17,
        mask: 0xFF,
    };
    let commit = EnvelopeKind::RatchetWindowCommit;
    wire.inject(corrupt, commit, Some(Recipient::Client(2)), 0);
    let mut fed = SyncFederation::<Fp61, _>::new(cfg(), wire, 13).unwrap();
    let coded_shares = |fed: &SyncFederation<Fp61, MemTransport>| {
        fed.transport().kind_count(EnvelopeKind::CodedMaskShare)
    };
    let cohort: Vec<usize> = (0..8).collect();

    run_round(&mut fed, &cohort, &[]).unwrap();

    let s0 = coded_shares(&fed);
    let out = run_round(&mut fed, &cohort, &[]).unwrap();
    assert!(
        coded_shares(&fed) > s0,
        "a failed handshake must fall back to the full exchange"
    );
    assert_eq!(out.aggregate, expected_sum(&cohort, 1));

    let s1 = coded_shares(&fed);
    let out = run_round(&mut fed, &cohort, &[]).unwrap();
    assert_eq!(
        coded_shares(&fed),
        s1,
        "the re-keyed base must ratchet again"
    );
    assert_eq!(out.aggregate, expected_sum(&cohort, 2));
}

/// An after-upload dropout during a *ratcheted* round: recovery decodes
/// exactly from the retained base shares, still with zero share traffic.
#[test]
fn after_upload_dropout_in_ratcheted_round_decodes_exactly() {
    let mut fed = SyncFederation::<Fp61, _>::new(cfg(), MemTransport::new(), 17).unwrap();
    let cohort: Vec<usize> = (0..8).collect();

    run_round(&mut fed, &cohort, &[]).unwrap();
    let s0 = coded_shares(&fed);

    let out = run_round(&mut fed, &cohort, &[3]).unwrap();
    assert_eq!(coded_shares(&fed), s0, "the dropout round itself ratcheted");
    // the dropout uploaded before vanishing: its update is included and
    // the partial-recovery path reconstructed Σz without its help
    assert_eq!(out.contributors, cohort);
    assert_eq!(out.aggregate, expected_sum(&cohort, 1));
}

/// A *before*-upload dropout poisons a ratcheted round (the pairwise
/// pads no longer cancel): `Federation::run_round` gets the typed
/// mismatch, burns the round, and replays the plan over a full exchange.
#[test]
fn before_upload_dropout_falls_back_via_typed_mismatch() {
    // explicitly hypercube: the sparse edge set must fall back exactly
    // like the clique when a member vanishes before uploading
    let cfg = cfg_with(PadTopology::Hypercube, 8);
    let sync = SyncFederation::<Fp61, _>::new(cfg, MemTransport::new(), 19).unwrap();
    let mut fed = Federation::new(Box::new(sync));
    let cohort: Vec<usize> = (0..8).collect();

    let mut plan = RoundPlan::new(cohort.clone());
    for &id in &cohort {
        plan = plan.with_update(id, update(id, 0));
    }
    assert_eq!(fed.run_round(&plan).unwrap().round, 0);

    // round 1 would ratchet, but member 5 never uploads
    let submitters: Vec<usize> = cohort.iter().copied().filter(|&id| id != 5).collect();
    let mut plan = RoundPlan::new(cohort.clone());
    for &id in &submitters {
        plan = plan.with_update(id, update(id, 2));
    }
    let out = fed.run_round(&plan).unwrap();
    assert_eq!(out.round, 2, "the failed ratcheted round number is burned");
    assert_eq!(out.contributors, submitters);
    assert_eq!(out.aggregate, expected_sum(&submitters, 2));

    // and the federation keeps working afterwards
    let mut plan = RoundPlan::new(cohort.clone());
    for &id in &cohort {
        plan = plan.with_update(id, update(id, 3));
    }
    let out = fed.run_round(&plan).unwrap();
    assert_eq!(out.aggregate, expected_sum(&cohort, 3));
}

/// The buffered-asynchronous variant ratchets the same way: a stable
/// stretch moves no timestamped mask shares, only announcements.
#[test]
fn buffered_variant_ratchets_stable_stretch() {
    let cfg = cfg_with(PadTopology::default(), 1);
    let mut fast =
        BufferedFederation::<Fp61, _>::unit_weight(cfg, MemTransport::new(), 29).unwrap();
    let mut rekey =
        BufferedFederation::<Fp61, _>::unit_weight(cfg, MemTransport::new(), 29).unwrap();
    let cohort: Vec<usize> = (0..8).collect();

    let a = run_round(&mut fast, &cohort, &[]).unwrap();
    let b = run_round(&mut rekey, &cohort, &[]).unwrap();
    assert_eq!(a.aggregate, b.aggregate);
    let shares = fast.transport().kind_count(EnvelopeKind::TimestampedShare);

    for r in 1..=10u64 {
        rekey.clear_ratchet();
        let a = run_round(&mut fast, &cohort, &[]).unwrap();
        let b = run_round(&mut rekey, &cohort, &[]).unwrap();
        assert_eq!(a.aggregate, b.aggregate, "round {r} diverged from rekey");
        assert_eq!(a.aggregate, expected_sum(&cohort, r));
    }
    assert_eq!(
        fast.transport().kind_count(EnvelopeKind::TimestampedShare),
        shares,
        "ratcheted buffered rounds must move zero mask shares"
    );
    assert_eq!(
        fast.transport()
            .kind_count(EnvelopeKind::RatchetAnnouncement),
        10 * 2 * 8
    );
}

/// The buffered variant joins pre-committed windows too: with `W = 4`
/// a 10-round stretch pays ⌈10/4⌉ = 3 window commits and no legacy
/// announcements, with aggregates identical to the rekey twin.
#[test]
fn buffered_variant_joins_windows() {
    let fast_cfg = cfg_with(PadTopology::Hypercube, 4);
    let mut fast =
        BufferedFederation::<Fp61, _>::unit_weight(fast_cfg, MemTransport::new(), 29).unwrap();
    let mut rekey =
        BufferedFederation::<Fp61, _>::unit_weight(cfg(), MemTransport::new(), 29).unwrap();
    let cohort: Vec<usize> = (0..8).collect();

    let a = run_round(&mut fast, &cohort, &[]).unwrap();
    let b = run_round(&mut rekey, &cohort, &[]).unwrap();
    assert_eq!(a.aggregate, b.aggregate);
    let shares = fast.transport().kind_count(EnvelopeKind::TimestampedShare);

    let mut joined = 0usize;
    for r in 1..=10u64 {
        rekey.clear_ratchet();
        let a = run_round(&mut fast, &cohort, &[]).unwrap();
        let b = run_round(&mut rekey, &cohort, &[]).unwrap();
        assert_eq!(a.aggregate, b.aggregate, "round {r} diverged from rekey");
        assert_eq!(a.aggregate, expected_sum(&cohort, r));
        joined += fast.round_report().unwrap().events.windowed_ratchets;
    }
    assert_eq!(
        fast.transport().kind_count(EnvelopeKind::TimestampedShare),
        shares,
        "windowed buffered rounds must move zero mask shares"
    );
    // windows open at rounds 1, 5 and 9; the other seven rounds join
    assert_eq!(joined, 7);
    assert_eq!(
        fast.transport()
            .kind_count(EnvelopeKind::RatchetWindowCommit),
        3 * 2 * 8
    );
    assert_eq!(
        fast.transport()
            .kind_count(EnvelopeKind::RatchetAnnouncement),
        0
    );
}

/// Churn in the middle of a commit window: the banked nonces for the
/// old cohort must be purged — the churned round re-keys with a full
/// exchange, the reduced cohort opens a *fresh* window, and every
/// aggregate stays exact.
#[test]
fn churn_mid_window_purges_banked_nonces_and_rekeys() {
    let cfg = cfg_with(PadTopology::Hypercube, 6);
    let mut fed = SyncFederation::<Fp61, _>::new(cfg, MemTransport::new(), 43).unwrap();
    let full: Vec<usize> = (0..8).collect();
    let reduced: Vec<usize> = (0..7).collect();

    run_round(&mut fed, &full, &[]).unwrap();
    // round 1 opens a window banking nonces for rounds 2..=6
    run_round(&mut fed, &full, &[]).unwrap();
    assert_eq!(fed.round_report().unwrap().events.ratchets, 1);
    let s0 = coded_shares(&fed);

    // member 7 churns away mid-window: the banked nonces are dead
    let out = run_round(&mut fed, &reduced, &[]).unwrap();
    assert!(
        coded_shares(&fed) > s0,
        "a churned round inside a window must re-key with a full exchange"
    );
    let report = fed.round_report().unwrap();
    assert_eq!(report.events.ratchets + report.events.windowed_ratchets, 0);
    assert_eq!(out.aggregate, expected_sum(&reduced, 2));

    // the reduced cohort opens a fresh window...
    let commits_before = window_commits(&fed);
    let out = run_round(&mut fed, &reduced, &[]).unwrap();
    assert_eq!(fed.round_report().unwrap().events.ratchets, 1);
    assert_eq!(window_commits(&fed), commits_before + 2 * 7);
    assert_eq!(out.aggregate, expected_sum(&reduced, 3));

    // ...and the round after joins it with zero offline traffic
    let bytes_before = fed.bytes_sent();
    let round = fed.open_round(&reduced).unwrap();
    assert_eq!(fed.bytes_sent(), bytes_before, "window join is wire-silent");
    for &id in &reduced {
        fed.submit(id, &update(id, round)).unwrap();
    }
    let out = fed.finish_round().unwrap();
    assert_eq!(fed.round_report().unwrap().events.windowed_ratchets, 1);
    assert_eq!(out.aggregate, expected_sum(&reduced, 4));
}

/// In an aggregator tree, a stable subtree keeps ratcheting even while
/// a sibling leaf churns and re-keys.
#[test]
fn grouped_stable_subtree_ratchets_while_sibling_churns() {
    let topology = GroupTopology::uniform(16, 2, 0.25, 0.75, 16)
        .unwrap()
        .with_ratchet(RatchetPolicy::new(true, PadTopology::default(), 8));
    let mut fed = GroupedFederation::<Fp61>::new(topology, MemTransport::new(), 31).unwrap();
    let full: Vec<usize> = (0..16).collect();
    let reduced: Vec<usize> = (0..15).collect(); // drops one member of one leaf

    let offline = |fed: &mut GroupedFederation<Fp61>, cohort: &[usize]| {
        let before = fed.bytes_sent();
        let round = fed.open_round(cohort).unwrap();
        let offline = fed.bytes_sent() - before;
        for &id in cohort {
            fed.submit(id, &update(id, round)).unwrap();
        }
        let out = fed.finish_round().unwrap();
        assert_eq!(out.aggregate, expected_sum(cohort, round));
        offline
    };

    let b_full = offline(&mut fed, &full);
    // round 1 opens a window in both leaves: cheap, but not free
    let b_commit = offline(&mut fed, &full);
    assert!(
        0 < b_commit && b_commit * 2 < b_full,
        "a fully stable tree must ratchet everywhere ({b_commit} vs {b_full})"
    );
    // round 2 joins the banked window: completely wire-silent
    let b_join = offline(&mut fed, &full);
    assert_eq!(
        b_join, 0,
        "window-joined rounds must move zero offline bytes"
    );
    // churn confined to one leaf: only that leaf re-keys, the sibling
    // keeps joining its window
    let b_mixed = offline(&mut fed, &reduced);
    assert!(
        0 < b_mixed && b_mixed < b_full,
        "a lone churned leaf must re-key alone ({b_mixed} vs {b_full})"
    );
    // the churned leaf opens a fresh window on the reduced cohort
    let b_again = offline(&mut fed, &reduced);
    assert!(
        b_again * 3 < b_full,
        "post-churn cohort must ratchet ({b_again} vs {b_full})"
    );
}

/// Reassigning the tree's seating permutes local seat indices, but a
/// leaf's retained bases are seat-indexed and survive: the ratchet
/// *stretches across* the permute on a freshened pad-seed epoch. The
/// post-permute round pays only a new window commit — never a full
/// share exchange — and every aggregate stays exact.
#[test]
fn reassignment_mid_stretch_ratchets_through() {
    let topology = GroupTopology::uniform(16, 2, 0.25, 0.75, 16)
        .unwrap()
        .with_ratchet(RatchetPolicy::new(true, PadTopology::default(), 8));
    let mut fed = GroupedFederation::<Fp61>::new(topology, MemTransport::new(), 37).unwrap();
    let full: Vec<usize> = (0..16).collect();

    let offline = |fed: &mut GroupedFederation<Fp61>, cohort: &[usize]| {
        let before = fed.bytes_sent();
        let round = fed.open_round(cohort).unwrap();
        let offline = fed.bytes_sent() - before;
        for &id in cohort {
            fed.submit(id, &update(id, round)).unwrap();
        }
        let out = fed.finish_round().unwrap();
        assert_eq!(out.aggregate, expected_sum(cohort, round));
        offline
    };

    let b_full = offline(&mut fed, &full);
    let b_commit = offline(&mut fed, &full);
    assert!(0 < b_commit && b_commit * 2 < b_full);

    fed.reassign(99).unwrap();
    // the permute dropped the banked window (its nonces were derived
    // for the old seating) but kept the bases: the next round re-commits
    // a window over the new epoch instead of re-exchanging shares
    let b_permuted = offline(&mut fed, &full);
    assert!(
        0 < b_permuted && b_permuted * 2 < b_full,
        "a reassigned tree must ratchet through, not re-key \
         ({b_permuted} vs full {b_full})"
    );
    // and the round after joins the fresh window wire-silently
    let b_join = offline(&mut fed, &full);
    assert_eq!(b_join, 0, "post-permute window must bank as usual");

    // a second permute back-to-back behaves the same
    fed.reassign(123).unwrap();
    let b_again = offline(&mut fed, &full);
    assert!(0 < b_again && b_again * 2 < b_full);
}

/// The policy is a value, not process state: federations under
/// different policies run side by side, one per thread and in lockstep,
/// agree on every aggregate bit for bit, and each reports its own
/// policy and its own event profile.
#[test]
fn differing_policies_run_side_by_side_in_one_process() {
    const ROUNDS: usize = 6;
    let cohort: Vec<usize> = (0..8).collect();
    // one federation's run: per-round aggregates and reports
    let drive = |policy: RatchetPolicy, step: &Barrier| {
        let cfg = cfg().with_ratchet(policy);
        let mut fed = SyncFederation::<Fp61, _>::new(cfg, MemTransport::new(), 47).unwrap();
        (0..ROUNDS)
            .map(|_| {
                step.wait();
                let out = run_round(&mut fed, &cohort, &[]).unwrap();
                let report = fed.round_report().expect("a finished round reports");
                (out.aggregate, report)
            })
            .unzip::<_, _, Vec<_>, Vec<_>>()
    };
    let clique_w1 = RatchetPolicy::new(true, PadTopology::Clique, 1);
    let hypercube_w8 = RatchetPolicy::new(true, PadTopology::Hypercube, 8);
    // (policy, handshake-bearing ratchets, window joins) over ROUNDS
    // rounds, the first of which is always the full exchange
    let pairs = [
        [
            (RatchetPolicy::off(), 0, 0),
            (RatchetPolicy::default(), 1, 4),
        ],
        [(clique_w1, 5, 0), (hypercube_w8, 1, 4)],
    ];
    for [left, right] in pairs {
        let step = Barrier::new(2);
        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(|| drive(left.0, &step));
            let b = scope.spawn(|| drive(right.0, &step));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(a.0, b.0, "{:?} and {:?} disagree", left.0, right.0);
        for (round, aggregate) in a.0.iter().enumerate() {
            assert_eq!(aggregate, &expected_sum(&cohort, round as u64));
        }
        for ((_, reports), (policy, ratchets, windowed)) in [(a, left), (b, right)] {
            assert!(reports.iter().all(|r| r.ratchet == policy), "{policy:?}");
            let events = |pick: fn(&RoundReport) -> usize| reports.iter().map(pick).sum::<usize>();
            assert_eq!(events(|r| r.events.ratchets), ratchets, "{policy:?}");
            assert_eq!(
                events(|r| r.events.windowed_ratchets),
                windowed,
                "{policy:?}"
            );
        }
    }
}
