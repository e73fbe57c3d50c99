//! Property-based tests of Theorem 1's guarantees over random
//! configurations and dropout patterns, on the deployed round path: a
//! `SyncFederation` driven by `Federation::run_round`.

use lsa_field::{Field, Fp61};
use lsa_protocol::ratchet::policies;
use lsa_protocol::transport::MemTransport;
use lsa_protocol::{
    DropoutSchedule, Federation, LsaConfig, ProtocolError, RoundOutcome, RoundPlan, SyncFederation,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A valid `(N, T, U, d)` drawn from `seed`.
fn config(n: usize, seed: u64) -> LsaConfig {
    let t = seed as usize % (n - 1);
    let u = t + 1 + (seed as usize / 7) % (n - t);
    let d = 1 + (seed as usize % 20);
    LsaConfig::new(n, t, u, d).unwrap()
}

/// A random dropout set of size ≤ N − U, split across the two phases.
fn schedule(cfg: &LsaConfig, seed: u64) -> DropoutSchedule {
    let n = cfg.n();
    let drop_count = (seed as usize / 13) % (n - cfg.u() + 1);
    let mut ids: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (seed as usize).wrapping_mul(31).wrapping_add(i) % (i + 1);
        ids.swap(i, j);
    }
    let dropped = &ids[..drop_count];
    let split = drop_count / 2;
    DropoutSchedule {
        before_upload: dropped[..split].to_vec(),
        after_upload: dropped[split..].to_vec(),
    }
}

fn models(cfg: &LsaConfig, rng: &mut StdRng) -> Vec<Vec<Fp61>> {
    (0..cfg.n())
        .map(|_| lsa_field::ops::random_vector(cfg.d(), rng))
        .collect()
}

fn federation(cfg: LsaConfig, seed: u64) -> Federation<Fp61> {
    Federation::new(Box::new(
        SyncFederation::new(cfg, MemTransport::new(), seed).unwrap(),
    ))
}

/// Theorem 1 for one outcome: the contributors are exactly the users
/// that did not drop before upload, and the aggregate is their sum.
fn exact(
    out: &RoundOutcome<Fp61>,
    models: &[Vec<Fp61>],
    sched: &DropoutSchedule,
) -> Result<(), TestCaseError> {
    let uploaders: Vec<usize> = (0..models.len())
        .filter(|id| !sched.before_upload.contains(id))
        .collect();
    prop_assert_eq!(&out.contributors, &uploaders);
    let mut want = vec![Fp61::ZERO; models[0].len()];
    for &i in &out.contributors {
        lsa_field::ops::add_assign(&mut want, &models[i]);
    }
    prop_assert_eq!(&out.aggregate, &want);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dropout-resiliency: for any valid (N, T, U) and any dropout set of
    /// size ≤ N − U, the aggregate of survivors is recovered exactly.
    #[test]
    fn theorem1_dropout_resiliency(
        n in 3usize..10,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = config(n, seed);
        let ms = models(&cfg, &mut rng);
        let sched = schedule(&cfg, seed);
        let out = federation(cfg, rng.gen())
            .run_round(&RoundPlan::from_schedule(&ms, &sched))
            .unwrap();
        exact(&out, &ms, &sched)?;
    }

    /// The same property over **two consecutive rounds on one
    /// federation** under every ratchet policy, schedules drawn
    /// independently: round 2 rides the ratchet when nobody dropped
    /// before its upload and falls back to a full exchange (burning a
    /// round number) otherwise — exact both times either way.
    #[test]
    fn theorem1_holds_across_two_rounds_under_every_policy(
        n in 3usize..10,
        seed in any::<u64>(),
    ) {
        for policy in policies() {
            let mut rng = StdRng::seed_from_u64(seed);
            let cfg = config(n, seed).with_ratchet(policy);
            let mut fed = federation(cfg, rng.gen());
            let mut next_round = 0;
            for round_seed in [seed, seed.rotate_left(29) ^ 0x9E37_79B9_7F4A_7C15] {
                let ms = models(&cfg, &mut rng);
                let sched = schedule(&cfg, round_seed);
                let out = fed.run_round(&RoundPlan::from_schedule(&ms, &sched)).unwrap();
                exact(&out, &ms, &sched)?;

                let events = fed.last_report().unwrap().events;
                let stable = policy.enabled() && next_round > 0;
                let fell_back = stable && !sched.before_upload.is_empty();
                prop_assert_eq!(events.fallbacks, usize::from(fell_back), "{policy:?} {sched:?}");
                prop_assert_eq!(
                    events.ratchets + events.windowed_ratchets,
                    usize::from(stable && !fell_back),
                    "{policy:?} {sched:?}"
                );
                prop_assert_eq!(out.round, next_round + u64::from(fell_back));
                next_round = out.round + 1;
            }
        }
    }

    /// Exceeding the dropout budget before upload always fails with
    /// NotEnoughSurvivors — never a wrong aggregate — and the federation
    /// is left able to run the next round.
    #[test]
    fn over_budget_dropouts_fail_safely(
        n in 3usize..8,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = 1usize.min(n - 2);
        let u = n - 1; // tolerate exactly 1 dropout
        let cfg = LsaConfig::new(n, t, u, 4).unwrap();
        let ms = models(&cfg, &mut rng);
        let sched = DropoutSchedule::before_upload(vec![0, 1]); // 2 > budget
        let mut fed = federation(cfg, rng.gen());
        let err = fed.run_round(&RoundPlan::from_schedule(&ms, &sched)).unwrap_err();
        let expected = ProtocolError::NotEnoughSurvivors { got: n - 2, need: u };
        prop_assert_eq!(err, expected);
        let none = DropoutSchedule::none();
        let out = fed.run_round(&RoundPlan::from_schedule(&ms, &none)).unwrap();
        exact(&out, &ms, &none)?;
    }

    /// Privacy smoke property: two different models produce masked uploads
    /// that are themselves different pseudo-random vectors, and the XOR of
    /// residue parities across a batch of masked models is balanced (the
    /// mask dominates the payload).
    #[test]
    fn masked_models_look_random(seed in any::<u64>()) {
        use lsa_protocol::{FederationClient, Session};
        let cfg = LsaConfig::new(4, 1, 3, 64).unwrap();
        // the same entropy twice: one client, one mask, two models
        let upload = |model: &[Fp61]| {
            let entropy = StdRng::seed_from_u64(seed);
            let mut client = FederationClient::<Fp61>::new(0, cfg, entropy).unwrap();
            client.prepare(0).unwrap();
            client.upload(0, model).unwrap();
            match std::iter::from_fn(|| client.poll_output()).last() {
                Some((_, lsa_protocol::Envelope::MaskedModel(m))) => m.payload,
                other => panic!("the upload comes last, got {other:?}"),
            }
        };
        let zeros = vec![Fp61::ZERO; 64];
        let ones = vec![Fp61::ONE; 64];
        let m0 = upload(&zeros);
        let m1 = upload(&ones);
        // difference of the two uploads reveals exactly the model delta —
        // same-client masks cancel — but each individually is shifted by
        // the (uniform) mask:
        for k in 0..64 {
            prop_assert_eq!(m1[k] - m0[k], Fp61::ONE);
        }
        let parity_sum: u64 = m0.iter().map(|v| v.residue() & 1).sum();
        prop_assert!(parity_sum > 8 && parity_sum < 56, "parity {parity_sum}");
    }
}
