//! Cross-crate integration: all three protocols compute identical
//! aggregates on identical inputs, under matching dropout semantics.

use lightsecagg::baselines::{run_secagg_round, SecAggConfig};
use lightsecagg::field::{Field, Fp61};
use lightsecagg::protocol::transport::MemTransport;
use lightsecagg::protocol::{
    DropoutSchedule, Federation, LsaConfig, RoundOutcome, RoundPlan, SyncFederation,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 10;
const D: usize = 32;

fn models(seed: u64) -> Vec<Vec<Fp61>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..N)
        .map(|_| lsa_field::ops::random_vector(D, &mut rng))
        .collect()
}

fn sum_of(models: &[Vec<Fp61>], who: &[usize]) -> Vec<Fp61> {
    let mut acc = vec![Fp61::ZERO; D];
    for &i in who {
        lsa_field::ops::add_assign(&mut acc, &models[i]);
    }
    acc
}

/// One LightSecAgg round on the deployed path (a fresh federation), fed
/// the same schedule vocabulary as the baselines' driver.
fn lightsecagg_round(
    cfg: LsaConfig,
    models: &[Vec<Fp61>],
    sched: &DropoutSchedule,
    rng: &mut StdRng,
) -> RoundOutcome<Fp61> {
    let sync = SyncFederation::new(cfg, MemTransport::new(), rng.gen()).unwrap();
    Federation::new(Box::new(sync))
        .run_round(&RoundPlan::from_schedule(models, sched))
        .unwrap()
}

#[test]
fn all_protocols_agree_without_dropouts() {
    let ms = models(1);
    let all: Vec<usize> = (0..N).collect();
    let want = sum_of(&ms, &all);

    let mut rng = StdRng::seed_from_u64(2);
    let lsa = lightsecagg_round(
        LsaConfig::new(N, 4, 7, D).unwrap(),
        &ms,
        &DropoutSchedule::none(),
        &mut rng,
    );
    assert_eq!(lsa.aggregate, want);

    let sa = run_secagg_round(
        &SecAggConfig::secagg(N, 4, D).unwrap(),
        &ms,
        &DropoutSchedule::none(),
        &mut rng,
    )
    .unwrap();
    assert_eq!(sa.aggregate, want);

    let sap = run_secagg_round(
        &SecAggConfig::secagg_plus(N, D).unwrap(),
        &ms,
        &DropoutSchedule::none(),
        &mut rng,
    )
    .unwrap();
    assert_eq!(sap.aggregate, want);
}

#[test]
fn protocols_agree_on_before_upload_dropouts() {
    // users dropping before upload are excluded by every protocol
    let ms = models(3);
    let dropped = vec![2usize, 7];
    let included: Vec<usize> = (0..N).filter(|i| !dropped.contains(i)).collect();
    let want = sum_of(&ms, &included);
    let sched = DropoutSchedule::before_upload(dropped);

    let mut rng = StdRng::seed_from_u64(4);
    let lsa = lightsecagg_round(LsaConfig::new(N, 3, 6, D).unwrap(), &ms, &sched, &mut rng);
    assert_eq!(lsa.aggregate, want);
    assert_eq!(lsa.contributors, included);

    let sa = run_secagg_round(
        &SecAggConfig::secagg(N, 3, D).unwrap(),
        &ms,
        &sched,
        &mut rng,
    )
    .unwrap();
    assert_eq!(sa.aggregate, want);
    assert_eq!(sa.included, included);
}

#[test]
fn after_upload_semantics_differ_as_the_paper_argues() {
    // The paper's core asymmetry: users dropping AFTER upload are still
    // aggregated by LightSecAgg (survivor set fixed at upload close) but
    // must be discarded + reconstructed by SecAgg.
    let ms = models(5);
    let sched = DropoutSchedule::after_upload(vec![0, 5]);

    let mut rng = StdRng::seed_from_u64(6);
    let lsa = lightsecagg_round(LsaConfig::new(N, 3, 6, D).unwrap(), &ms, &sched, &mut rng);
    let everyone: Vec<usize> = (0..N).collect();
    assert_eq!(lsa.aggregate, sum_of(&ms, &everyone));

    let sa = run_secagg_round(
        &SecAggConfig::secagg(N, 3, D).unwrap(),
        &ms,
        &sched,
        &mut rng,
    )
    .unwrap();
    let included: Vec<usize> = (0..N).filter(|i| *i != 0 && *i != 5).collect();
    assert_eq!(sa.aggregate, sum_of(&ms, &included));
    // and SecAgg paid pairwise reconstructions for the two dropped users
    assert_eq!(sa.stats.prg_expansions, included.len() + 2 * included.len());
}

#[test]
fn server_recovery_work_scales_as_table1_predicts() {
    // measured stats: SecAgg's PRG expansions grow ~linearly in the
    // number of dropped users; LightSecAgg performs none.
    let ms = models(7);
    let mut rng = StdRng::seed_from_u64(8);
    let mut counts = Vec::new();
    for drops in [1usize, 2, 3] {
        let sched = DropoutSchedule::before_upload((0..drops).collect());
        let sa = run_secagg_round(
            &SecAggConfig::secagg(N, 3, D).unwrap(),
            &ms,
            &sched,
            &mut rng,
        )
        .unwrap();
        counts.push(sa.stats.prg_expansions);
    }
    // exact Eq. (1) accounting: |U₁| self-mask expansions plus
    // |D|·|U₁| pairwise expansions
    for (i, &drops) in [1usize, 2, 3].iter().enumerate() {
        let included = N - drops;
        assert_eq!(counts[i], included + drops * included, "{counts:?}");
    }
}
