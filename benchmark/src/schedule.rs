//! Seeded inputs: which members take part in each round, who drops
//! out, and every submitter's real-valued update. The same seed gives
//! the same inputs; the program under test only ever sees these.
//!
//! The generator is the harness's own (splitmix64), not the repo's
//! `rand` shim, so inputs stay fixed when the program changes.

/// The workloads whose federation runs in the harness's process, on
/// this file's schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InProcess {
    FlatChurn,
    FlatStable,
    TreeBuffered,
}

/// The four workloads, named as in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    InProcess(InProcess),
    /// `lsa-runner local`: the runner fixes its own participation (a
    /// stable full cohort) and generates its own inputs from the seed.
    TreeTcp,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::InProcess(InProcess::FlatChurn),
        Workload::InProcess(InProcess::FlatStable),
        Workload::InProcess(InProcess::TreeBuffered),
        Workload::TreeTcp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::InProcess(InProcess::FlatChurn) => "flat_churn",
            Workload::InProcess(InProcess::FlatStable) => "flat_stable",
            Workload::InProcess(InProcess::TreeBuffered) => "tree_buffered",
            Workload::TreeTcp => "tree_tcp",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Rounds per schedule period. Every in-process workload is measured in
/// whole periods so per-round counts and byte averages repeat exactly:
/// `tree_buffered`'s churn/fallback schedule has period 8, and so does
/// the library's default ratchet commit window.
pub const PERIOD: u64 = 8;

/// Members that drop after upload each round on the flat workloads
/// (the paper's worst case at p ≈ 0.1 of 63–64 members).
const FLAT_DROPS: usize = 6;

/// Members that submit nothing in a `tree_buffered` fallback round.
const TREE_SILENT: usize = 16;

/// One round's participation, in global client ids (ascending).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundSpec {
    /// Members the round opens with.
    pub cohort: Vec<usize>,
    /// Cohort members that submit an update.
    pub submitters: Vec<usize>,
    /// Submitters that vanish after their upload.
    pub drop_after_upload: Vec<usize>,
}

/// The population a schedule is drawn over.
#[derive(Debug, Clone, Copy)]
pub struct Population {
    /// Total members `N`.
    pub members: usize,
    /// Members per leaf group (`N` for a flat federation).
    pub leaf_size: usize,
}

/// splitmix64: a 64-bit state, one multiply-xorshift step per draw.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n` (the modulo bias at `n ≤ 1024` is below 2⁻⁵³).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[-1, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0
    }

    /// `k` distinct values from `0..n`, ascending.
    fn choose(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut pool: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below(n - i);
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool.sort_unstable();
        pool
    }
}

/// An independent generator for stream `stream` of round `round`.
fn stream(seed: u64, round: u64, stream: u64) -> SplitMix64 {
    let mut mix = SplitMix64::new(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
    let base = mix.next_u64();
    SplitMix64::new(base ^ round.wrapping_mul(0xe703_7ed1_a0b4_28db))
}

/// Round `round`'s participation.
///
/// * `flat_churn`: one member sits out, rotating, so consecutive cohorts
///   always differ; 6 of the 63 drop after upload.
/// * `flat_stable`: the full cohort every round; 6 of 64 drop after
///   upload (after-upload drops keep the cohort ratchet-stable).
/// * `tree_buffered`: period 8 — `round % 8 == 7` one member sits out
///   (its leaf re-keys), `round % 8 == 3` sixteen members in sixteen
///   distinct leaves submit nothing (a before-upload dropout, one per
///   leaf so every leaf keeps `U` submitters), otherwise stable.
pub fn round_spec(workload: InProcess, pop: Population, seed: u64, round: u64) -> RoundSpec {
    let all: Vec<usize> = (0..pop.members).collect();
    let without = |out: &[usize]| -> Vec<usize> {
        all.iter().copied().filter(|id| !out.contains(id)).collect()
    };
    let mut rng = stream(seed, round, 1);
    match workload {
        InProcess::FlatChurn => {
            let offset = stream(seed, 0, 2).below(pop.members);
            let sitter = (offset + round as usize) % pop.members;
            let cohort = without(&[sitter]);
            let drops = rng.choose(cohort.len(), FLAT_DROPS);
            RoundSpec {
                drop_after_upload: drops.into_iter().map(|i| cohort[i]).collect(),
                submitters: cohort.clone(),
                cohort,
            }
        }
        InProcess::FlatStable => RoundSpec {
            drop_after_upload: rng.choose(pop.members, FLAT_DROPS),
            submitters: all.clone(),
            cohort: all,
        },
        InProcess::TreeBuffered => match round % PERIOD {
            7 => {
                let cohort = without(&[rng.below(pop.members)]);
                RoundSpec {
                    submitters: cohort.clone(),
                    cohort,
                    drop_after_upload: Vec::new(),
                }
            }
            3 => {
                let leaves = pop.members / pop.leaf_size;
                let silent: Vec<usize> = rng
                    .choose(leaves, TREE_SILENT)
                    .into_iter()
                    .map(|leaf| leaf * pop.leaf_size + rng.below(pop.leaf_size))
                    .collect();
                RoundSpec {
                    submitters: without(&silent),
                    cohort: all,
                    drop_after_upload: Vec::new(),
                }
            }
            _ => RoundSpec {
                submitters: all.clone(),
                cohort: all,
                drop_after_upload: Vec::new(),
            },
        },
    }
}

/// Fill `out` with submitter `index`'s update for `round`: `d` reals
/// uniform in `[-1, 1)`.
pub fn fill_update(seed: u64, round: u64, index: usize, out: &mut [f64]) {
    let mut rng = stream(seed, round, 3 + index as u64);
    for x in out {
        *x = rng.unit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAT: Population = Population {
        members: 64,
        leaf_size: 64,
    };
    const TREE: Population = Population {
        members: 1024,
        leaf_size: 16,
    };

    #[test]
    fn schedules_are_deterministic_for_a_seed_and_differ_across_seeds() {
        for (workload, pop) in [
            (InProcess::FlatChurn, FLAT),
            (InProcess::FlatStable, FLAT),
            (InProcess::TreeBuffered, TREE),
        ] {
            let run = |seed| -> Vec<RoundSpec> {
                (0..24)
                    .map(|r| round_spec(workload, pop, seed, r))
                    .collect()
            };
            assert_eq!(run(11), run(11), "{workload:?}");
            assert_ne!(run(11), run(12), "{workload:?}");
        }
        let mut a = vec![0.0; 32];
        let mut b = vec![0.0; 32];
        fill_update(11, 5, 2, &mut a);
        fill_update(11, 5, 2, &mut b);
        assert_eq!(a, b);
        fill_update(11, 5, 3, &mut b);
        assert_ne!(a, b);
        assert!(a.iter().all(|x| (-1.0..1.0).contains(x)));
    }

    #[test]
    fn flat_churn_changes_the_cohort_every_round() {
        let mut previous = None;
        for r in 0..130 {
            let spec = round_spec(InProcess::FlatChurn, FLAT, 11, r);
            assert_eq!(spec.cohort.len(), 63);
            assert_eq!(spec.submitters, spec.cohort);
            assert_eq!(spec.drop_after_upload.len(), 6);
            assert!(spec
                .drop_after_upload
                .iter()
                .all(|d| spec.cohort.contains(d)));
            assert_ne!(previous.as_ref(), Some(&spec.cohort));
            previous = Some(spec.cohort);
        }
    }

    #[test]
    fn flat_stable_keeps_the_full_cohort() {
        for r in 0..16 {
            let spec = round_spec(InProcess::FlatStable, FLAT, 11, r);
            assert_eq!(spec.cohort, (0..64).collect::<Vec<_>>());
            assert_eq!(spec.submitters.len(), 64);
            let mut drops = spec.drop_after_upload.clone();
            drops.dedup();
            assert_eq!(drops.len(), 6);
        }
    }

    #[test]
    fn tree_buffered_follows_its_period() {
        for r in 0..32u64 {
            let spec = round_spec(InProcess::TreeBuffered, TREE, 11, r);
            match r % 8 {
                7 => {
                    assert_eq!(spec.cohort.len(), 1023);
                    assert_eq!(spec.submitters, spec.cohort);
                }
                3 => {
                    assert_eq!(spec.cohort.len(), 1024);
                    assert_eq!(spec.submitters.len(), 1024 - 16);
                    // one silent member per affected leaf
                    let mut per_leaf = [0usize; 64];
                    for id in 0..1024 {
                        if !spec.submitters.contains(&id) {
                            per_leaf[id / 16] += 1;
                        }
                    }
                    assert!(per_leaf.iter().all(|&c| c <= 1));
                }
                _ => {
                    assert_eq!(spec.cohort.len(), 1024);
                    assert_eq!(spec.submitters.len(), 1024);
                }
            }
            assert!(spec.drop_after_upload.is_empty());
        }
    }
}
