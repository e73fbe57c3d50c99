//! Property-based tests for the coding layer.

use lsa_coding::{ShamirScheme, VandermondeCode};
use lsa_field::{simd, Field, Fp32, Fp61};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any U-subset of coded segments decodes back to the original
    /// segments (the MDS property, exercised end-to-end).
    #[test]
    fn mds_decoding_from_random_subsets(
        n in 2usize..10,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let u = 1 + (seed as usize % n);
        let m = 1 + (seed as usize % 5);
        let code = VandermondeCode::<Fp32>::new(n, u).unwrap();
        let segs: Vec<Vec<Fp32>> = (0..u)
            .map(|_| lsa_field::ops::random_vector(m, &mut rng))
            .collect();
        let coded = code.encode_all(&segs);

        // choose a random u-subset via shuffling indices
        let mut idx: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (seed as usize).wrapping_mul(i + 17) % (i + 1);
            idx.swap(i, j);
        }
        let shares: Vec<_> = idx[..u].iter().map(|&j| (j, coded[j].clone())).collect();
        prop_assert_eq!(code.decode_all(&shares).unwrap(), segs);
    }

    /// Sum-then-encode equals encode-then-sum: the exact linearity used by
    /// the one-shot aggregate recovery (Eq. (6)).
    #[test]
    fn coding_commutes_with_addition(
        seed in any::<u64>(),
        n_users in 2usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let code = VandermondeCode::<Fp32>::new(5, 3).unwrap();
        let all: Vec<Vec<Vec<Fp32>>> = (0..n_users)
            .map(|_| (0..3).map(|_| lsa_field::ops::random_vector(4, &mut rng)).collect())
            .collect();

        // encode each user's segments, then sum coded segment j
        for j in 0..5 {
            let sum_of_coded = lsa_field::ops::sum_vectors(
                all.iter()
                    .map(|segs| code.encode_for(segs, j))
                    .collect::<Vec<_>>()
                    .iter()
                    .map(Vec::as_slice),
            )
            .unwrap();

            // sum segments first, then encode
            let mut summed_segs = all[0].clone();
            for segs in &all[1..] {
                for (acc, s) in summed_segs.iter_mut().zip(segs) {
                    lsa_field::ops::add_assign(acc, s);
                }
            }
            prop_assert_eq!(code.encode_for(&summed_segs, j), sum_of_coded);
        }
    }

    /// Shamir reconstruction succeeds from any (t+1)-subset and yields the
    /// shared secret.
    #[test]
    fn shamir_any_quorum(
        secret in any::<u64>(),
        seed in any::<u64>(),
        n in 2usize..8,
    ) {
        let t = (n - 1) / 2;
        let scheme = ShamirScheme::<Fp32>::new(n, t).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let s = Fp32::from_u64(secret);
        let shares = scheme.share(s, &mut rng);

        // rotate through contiguous quorums
        for start in 0..n {
            let quorum: Vec<_> = (0..=t).map(|k| shares[(start + k) % n]).collect();
            prop_assert_eq!(scheme.reconstruct(&quorum).unwrap(), s);
        }
    }

    /// Shamir shares are additively homomorphic: sharing s1 and s2 and
    /// adding shares pointwise reconstructs s1+s2. (SecAgg relies on the
    /// plain reconstruction only, but homomorphism is a useful invariant
    /// that catches evaluation-point mismatches.)
    #[test]
    fn shamir_additive_homomorphism(
        s1 in any::<u64>(),
        s2 in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let scheme = ShamirScheme::<Fp32>::new(5, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let sh1 = scheme.share(Fp32::from_u64(s1), &mut rng);
        let sh2 = scheme.share(Fp32::from_u64(s2), &mut rng);
        let sum_shares: Vec<_> = sh1
            .iter()
            .zip(&sh2)
            .map(|(a, b)| lsa_coding::Share { index: a.index, value: a.value + b.value })
            .collect();
        let rec = scheme.reconstruct(&sum_shares[1..4]).unwrap();
        prop_assert_eq!(rec, Fp32::from_u64(s1) + Fp32::from_u64(s2));
    }
}

/// At the ledger's and the paper's code shapes, the multi-point
/// `encode_all` is `encode_for` column by column, and any `u` of its
/// shares decode back — under every SIMD backend, with a segment
/// length (13) that leaves the 8-element strip a tail.
fn encode_all_is_per_column_and_decodes<F: Field>(n: usize, u: usize) {
    let mut rng = StdRng::seed_from_u64((n * 1000 + u) as u64);
    let code = VandermondeCode::<F>::new(n, u).unwrap();
    let segs: Vec<Vec<F>> = (0..u)
        .map(|_| lsa_field::ops::random_vector(13, &mut rng))
        .collect();
    let columns: Vec<Vec<F>> = (0..n).map(|j| code.encode_for(&segs, j)).collect();
    for backend in simd::available() {
        let coded = simd::with_backend(backend, || code.encode_all(&segs));
        assert_eq!(coded, columns, "backend {}", backend.name());
        // the last u shares: the largest evaluation points
        let shares: Vec<_> = coded.into_iter().enumerate().skip(n - u).collect();
        let prefix = u / 2;
        assert_eq!(
            simd::with_backend(backend, || code.decode_prefix(&shares, prefix)).unwrap(),
            segs[..prefix],
            "backend {}",
            backend.name()
        );
    }
}

#[test]
fn encode_all_matches_encode_for_and_roundtrips_fp61() {
    encode_all_is_per_column_and_decodes::<Fp61>(64, 48);
    encode_all_is_per_column_and_decodes::<Fp61>(200, 150);
}

#[test]
fn encode_all_matches_encode_for_and_roundtrips_fp32() {
    encode_all_is_per_column_and_decodes::<Fp32>(64, 48);
    encode_all_is_per_column_and_decodes::<Fp32>(200, 150);
}
