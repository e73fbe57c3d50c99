//! Decode-robustness fuzzing of `Envelope::from_bytes`: arbitrary,
//! truncated and bit-flipped byte streams must produce typed
//! [`WireError`]s — never a panic, and never an allocation beyond the
//! validated length prefix (a tiny buffer claiming 2³² elements fails
//! on the prefix check before `Vec::with_capacity` sees the claim).
//!
//! The property cases are deterministic (the proptest shim derives its
//! RNG stream from the test name), and a hand-seeded corpus pins the
//! historically interesting shapes: every possible tag byte, v1 group
//! words, maximal length claims, and the all-ones header.

use lsa_field::{Field, Fp32, Fp61};
use lsa_protocol::asynchronous::{BufferEntry, TimestampedShare, TimestampedUpdate};
use lsa_protocol::wire::{BufferAnnouncement, Envelope, SurvivorAnnouncement, WireError};
use lsa_protocol::{
    AggregatedShare, CodedMaskShare, MaskedModel, PadTopology, RatchetAnnouncement,
    RatchetWindowCommit, RATCHET_FROM_SERVER,
};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Deterministic field vector from a seed.
fn payload<F: Field>(seed: u64, len: usize) -> Vec<F> {
    let mut rng = StdRng::seed_from_u64(seed);
    lsa_field::ops::random_vector(len, &mut rng)
}

/// One envelope of every kind, from fuzzed scalars.
fn envelopes<F: Field>(group: usize, round: u64, seed: u64, len: usize) -> Vec<Envelope<F>> {
    vec![
        Envelope::CodedMaskShare(CodedMaskShare {
            from: 3,
            to: 1,
            group,
            round,
            payload: payload(seed, len),
        }),
        Envelope::MaskedModel(MaskedModel {
            from: 2,
            group,
            round,
            payload: payload(seed.wrapping_add(1), len),
        }),
        Envelope::SurvivorAnnouncement(SurvivorAnnouncement {
            group,
            round,
            survivors: vec![0, 2, 5],
        }),
        Envelope::AggregatedShare(AggregatedShare {
            from: 0,
            group,
            round,
            payload: payload(seed.wrapping_add(2), len),
        }),
        Envelope::TimestampedShare(TimestampedShare {
            from: 1,
            to: 4,
            group,
            round,
            payload: payload(seed.wrapping_add(3), len),
        }),
        Envelope::TimestampedUpdate(TimestampedUpdate {
            from: 5,
            group,
            round,
            payload: payload(seed.wrapping_add(4), len),
        }),
        Envelope::BufferAnnouncement(BufferAnnouncement {
            group,
            round,
            entries: vec![BufferEntry {
                who: 1,
                round: round.wrapping_sub(1),
                weight: 2,
            }],
        }),
        Envelope::RatchetAnnouncement(RatchetAnnouncement {
            from: RATCHET_FROM_SERVER,
            group,
            round,
            nonce: seed,
            fingerprint: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }),
        Envelope::RatchetWindowCommit(RatchetWindowCommit {
            from: RATCHET_FROM_SERVER,
            group,
            round,
            fingerprint: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            topology: if seed.is_multiple_of(2) {
                PadTopology::Clique
            } else {
                PadTopology::Hypercube
            },
            nonces: (0..(len as u64).min(4))
                .map(|i| seed.wrapping_add(i))
                .collect(),
        }),
    ]
}

/// Decode must return — `Ok` or a typed error — without panicking; on
/// `Ok`, re-encoding must reproduce the input bytes exactly (the
/// encoding is canonical, so decode admits no non-canonical synonyms).
fn assert_decode_total<F: Field>(bytes: &[u8]) {
    match Envelope::<F>::from_bytes(bytes) {
        Ok(e) => assert_eq!(
            e.to_bytes(),
            bytes,
            "decoder accepted a non-canonical encoding"
        ),
        Err(
            WireError::Truncated { .. }
            | WireError::UnknownTag(_)
            | WireError::NonCanonicalElement { .. }
            | WireError::TrailingBytes { .. }
            | WireError::ImplausibleLength { .. }
            | WireError::UnsupportedVersion { .. }
            | WireError::InvalidTopology(_),
        ) => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary byte soup decodes to a typed result in both fields.
    #[test]
    fn arbitrary_bytes_decode_totally(bytes in vec(any::<u8>(), 0..256)) {
        assert_decode_total::<Fp61>(&bytes);
        assert_decode_total::<Fp32>(&bytes);
    }

    /// Every truncation of every valid envelope is rejected with a
    /// typed error, and the full buffer still decodes.
    #[test]
    fn truncations_rejected_typed(
        group in 0usize..1024,
        round in any::<u64>(),
        seed in any::<u64>(),
        len in 0usize..24,
    ) {
        for e in envelopes::<Fp61>(group, round, seed, len) {
            let bytes = e.to_bytes();
            prop_assert_eq!(Envelope::<Fp61>::from_bytes(&bytes).unwrap(), e);
            for cut in 0..bytes.len() {
                prop_assert!(
                    Envelope::<Fp61>::from_bytes(&bytes[..cut]).is_err(),
                    "prefix of {} bytes decoded", cut
                );
                assert_decode_total::<Fp61>(&bytes[..cut]);
            }
        }
    }

    /// Single-bit corruption of a valid envelope never panics, and
    /// anything still accepted re-encodes canonically.
    #[test]
    fn bit_flips_decode_totally(
        group in 0usize..1024,
        round in any::<u64>(),
        seed in any::<u64>(),
        len in 0usize..12,
        kind in 0usize..9,
        flip_seed in any::<u64>(),
    ) {
        let e = envelopes::<Fp61>(group, round, seed, len).swap_remove(kind);
        let bytes = e.to_bytes();
        // every bit of the header, a sample of payload bits
        let mut targets: Vec<usize> = (0..bytes.len().min(24) * 8).collect();
        let mut rng = StdRng::seed_from_u64(flip_seed);
        for _ in 0..32 {
            targets.push(rand::Rng::gen::<u64>(&mut rng) as usize % (bytes.len() * 8));
        }
        for bit in targets {
            let mut mutated = bytes.clone();
            mutated[bit / 8] ^= 1 << (bit % 8);
            assert_decode_total::<Fp61>(&mutated);
        }
    }

    /// Random mutations of random *slices* (truncate + flip + extend)
    /// stay total.
    #[test]
    fn compound_mutations_decode_totally(
        seed in any::<u64>(),
        len in 0usize..12,
        extra in vec(any::<u8>(), 0..16),
        cut_frac in 0u32..100,
    ) {
        for e in envelopes::<Fp32>(7, 9, seed, len) {
            let mut bytes = e.to_bytes();
            let cut = (bytes.len() as u64 * u64::from(cut_frac) / 100) as usize;
            bytes.truncate(cut);
            bytes.extend_from_slice(&extra);
            assert_decode_total::<Fp32>(&bytes);
            assert_decode_total::<Fp61>(&bytes);
        }
    }
}

/// The hand-seeded corpus: shapes that historically distinguish
/// "rejected cheaply" from "allocated first, failed later".
#[test]
fn seeded_corpus_is_rejected_typed() {
    let mut corpus: Vec<Vec<u8>> = vec![
        vec![],
        vec![0x00],
        vec![0x01],
        vec![0xFF; 5],
        vec![0x00; 64],
        vec![0xFF; 64],
    ];
    // every tag byte over a valid v2 group word with no body
    for tag in 0..=255u8 {
        let mut b = vec![tag];
        b.extend_from_slice(&0x8000_0000u32.to_le_bytes());
        corpus.push(b);
    }
    // v1 group words under every real tag
    for tag in 1..=9u8 {
        let mut b = vec![tag];
        b.extend_from_slice(&0x0000_0007u32.to_le_bytes());
        corpus.push(b);
    }
    // maximal length claims on tiny buffers, all vector-bearing kinds
    for tag in [0x01u8, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x09] {
        for claim in [u32::MAX, 1 << 26, (1 << 26) + 1, 1 << 31] {
            let mut b = vec![tag];
            b.extend_from_slice(&0x8000_0000u32.to_le_bytes());
            // enough header zeros to reach any kind's length prefix
            b.extend_from_slice(&[0u8; 16]);
            b.extend_from_slice(&claim.to_le_bytes());
            corpus.push(b);
        }
    }
    // two non-residues in one payload, every payload-bearing kind: the
    // decoder must name one and stop, whatever follows it
    let mut kinds = envelopes::<Fp61>(3, 8, 0xC0DE, 9);
    for kind in [5, 4, 3, 1, 0] {
        // the payload is the tail of the encoding: residues 3 and 8 of 9
        let mut b = kinds.swap_remove(kind).to_bytes();
        let n = b.len();
        b[n - 6 * 8..n - 5 * 8].fill(0xFF);
        b[n - 8..].fill(0xFF);
        assert!(matches!(
            Envelope::<Fp61>::from_bytes(&b),
            Err(WireError::NonCanonicalElement {
                index: 3,
                value: u64::MAX
            })
        ));
        corpus.push(b);
    }
    for bytes in &corpus {
        assert!(
            Envelope::<Fp61>::from_bytes(bytes).is_err(),
            "corpus entry decoded: {bytes:?}"
        );
        assert_decode_total::<Fp61>(bytes);
        assert_decode_total::<Fp32>(bytes);
    }
}

/// A huge length claim must be refused before the decoder commits any
/// allocation of that size: a well-formed MaskedModel header claiming
/// `MAX_ELEMS` elements on a 25-byte buffer fails as `Truncated` with
/// the *claimed* byte count in the error, proving the check ran on the
/// prefix, not on an allocated buffer.
#[test]
fn length_prefix_checked_before_allocation() {
    let mut bytes = vec![0x02u8];
    bytes.extend_from_slice(&0x8000_0000u32.to_le_bytes()); // v2, group 0
    bytes.extend_from_slice(&0u32.to_le_bytes()); // from
    bytes.extend_from_slice(&0u64.to_le_bytes()); // round
    bytes.extend_from_slice(&((1u32 << 26) - 1).to_le_bytes()); // ~512 MB claim
    match Envelope::<Fp61>::from_bytes(&bytes) {
        Err(WireError::Truncated { needed, got }) => {
            assert_eq!(needed, ((1usize << 26) - 1) * 8);
            assert_eq!(got, 0);
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
    // one past the sanity limit is implausible outright
    let n = bytes.len();
    bytes[n - 4..].copy_from_slice(&((1u32 << 26) + 1).to_le_bytes());
    assert!(matches!(
        Envelope::<Fp61>::from_bytes(&bytes),
        Err(WireError::ImplausibleLength { claimed }) if claimed == (1 << 26) + 1
    ));
}
