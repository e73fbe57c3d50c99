//! Property tests of the canonical wire encoding: for every message
//! kind and both fields, `Envelope::from_bytes(e.to_bytes()) == e`, the
//! serialized length equals `wire_len()`, and corrupted buffers are
//! rejected with typed errors rather than mis-decoding.

use lsa_field::{Field, Fp32, Fp61};
use lsa_protocol::asynchronous::{BufferEntry, TimestampedShare, TimestampedUpdate};
use lsa_protocol::wire::{BufferAnnouncement, Envelope, SurvivorAnnouncement, WireError};
use lsa_protocol::{AggregatedShare, CodedMaskShare, MaskedModel};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Deterministic field vector from a seed.
fn payload<F: Field>(seed: u64, len: usize) -> Vec<F> {
    let mut rng = StdRng::seed_from_u64(seed);
    lsa_field::ops::random_vector(len, &mut rng)
}

/// Build one envelope of each kind from fuzzed scalars.
fn envelopes<F: Field>(
    from: usize,
    to: usize,
    group: usize,
    round: u64,
    seed: u64,
    len: usize,
    ids: &[usize],
) -> Vec<Envelope<F>> {
    vec![
        Envelope::CodedMaskShare(CodedMaskShare {
            from,
            to,
            group,
            round,
            payload: payload(seed, len),
        }),
        Envelope::MaskedModel(MaskedModel {
            from,
            group,
            round,
            payload: payload(seed.wrapping_add(1), len),
        }),
        Envelope::SurvivorAnnouncement(SurvivorAnnouncement {
            group,
            round,
            survivors: ids.to_vec(),
        }),
        Envelope::AggregatedShare(AggregatedShare {
            from,
            group,
            round,
            payload: payload(seed.wrapping_add(2), len),
        }),
        Envelope::TimestampedShare(TimestampedShare {
            from,
            to,
            group,
            round,
            payload: payload(seed.wrapping_add(3), len),
        }),
        Envelope::TimestampedUpdate(TimestampedUpdate {
            from,
            group,
            round,
            payload: payload(seed.wrapping_add(4), len),
        }),
        Envelope::BufferAnnouncement(BufferAnnouncement {
            group,
            round,
            entries: ids
                .iter()
                .enumerate()
                .map(|(i, &who)| BufferEntry {
                    who,
                    round: round.wrapping_add(i as u64),
                    weight: seed.wrapping_mul(i as u64 + 1),
                })
                .collect(),
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Round-trip identity over Fp61 for every message kind.
    #[test]
    fn roundtrip_fp61(
        from in 0usize..1024,
        to in 0usize..1024,
        group in 0usize..64,
        round in any::<u64>(),
        seed in any::<u64>(),
        len in 0usize..40,
        ids in vec(0usize..4096, 0..12),
    ) {
        for e in envelopes::<Fp61>(from, to, group, round, seed, len, &ids) {
            let bytes = e.to_bytes();
            prop_assert_eq!(bytes.len(), e.wire_len());
            let back = Envelope::<Fp61>::from_bytes(&bytes).unwrap();
            prop_assert_eq!(back, e);
        }
    }

    /// Round-trip identity over Fp32 for every message kind.
    #[test]
    fn roundtrip_fp32(
        from in 0usize..1024,
        to in 0usize..1024,
        group in 0usize..64,
        round in any::<u64>(),
        seed in any::<u64>(),
        len in 0usize..40,
        ids in vec(0usize..4096, 0..12),
    ) {
        for e in envelopes::<Fp32>(from, to, group, round, seed, len, &ids) {
            let bytes = e.to_bytes();
            prop_assert_eq!(bytes.len(), e.wire_len());
            let back = Envelope::<Fp32>::from_bytes(&bytes).unwrap();
            prop_assert_eq!(back, e);
        }
    }

    /// Any prefix truncation of any kind is detected, never mis-decoded.
    #[test]
    fn truncation_never_misdecodes(
        seed in any::<u64>(),
        len in 1usize..16,
        cut_frac in 0usize..100,
    ) {
        for e in envelopes::<Fp61>(1, 2, 3, 7, seed, len, &[0, 1, 2]) {
            let bytes = e.to_bytes();
            let cut = cut_frac * bytes.len() / 100;
            if cut < bytes.len() {
                let r = Envelope::<Fp61>::from_bytes(&bytes[..cut]);
                prop_assert!(
                    matches!(r, Err(WireError::Truncated { .. })),
                    "cut {cut} of {}: {r:?}", bytes.len()
                );
            }
        }
    }

    /// Appending garbage after a valid envelope is detected.
    #[test]
    fn trailing_bytes_never_ignored(seed in any::<u64>(), extra in 1usize..9) {
        for e in envelopes::<Fp32>(0, 1, 2, 3, seed, 5, &[4, 5]) {
            let mut bytes = e.to_bytes();
            bytes.extend(std::iter::repeat_n(0xAB, extra));
            let r = Envelope::<Fp32>::from_bytes(&bytes);
            prop_assert!(matches!(r, Err(WireError::TrailingBytes { .. })), "{r:?}");
        }
    }
}

// ---------------------------------------------------------------------
// The bulk residue codec against a per-element reference
// ---------------------------------------------------------------------

/// Bytes before a `MaskedModel`'s length prefix: tag, group word,
/// sender, round.
const HEADER: usize = 1 + 4 + 4 + 8;

fn masked<F: Field>(payload: Vec<F>) -> Envelope<F> {
    Envelope::MaskedModel(MaskedModel {
        from: 5,
        group: 2,
        round: 9,
        payload,
    })
}

/// The codec as it was first written — one element at a time — kept
/// here as the oracle for the bulk one.
fn reference_encode<F: Field>(payload: &[F]) -> Vec<u8> {
    let mut out = masked::<F>(Vec::new()).to_bytes();
    out.truncate(HEADER);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    for e in payload {
        out.extend_from_slice(&e.residue().to_le_bytes()[..Envelope::<F>::elem_bytes()]);
    }
    out
}

fn reference_decode<F: Field>(bytes: &[u8]) -> Result<Vec<F>, WireError> {
    let eb = Envelope::<F>::elem_bytes();
    let len = u32::from_le_bytes(bytes[HEADER..HEADER + 4].try_into().unwrap()) as usize;
    let mut pos = HEADER + 4;
    let mut out = Vec::new();
    for index in 0..len {
        let mut word = [0u8; 8];
        word[..eb].copy_from_slice(&bytes[pos..pos + eb]);
        pos += eb;
        let value = u64::from_le_bytes(word);
        if value >= F::MODULUS {
            return Err(WireError::NonCanonicalElement { index, value });
        }
        out.push(F::from_u64(value));
    }
    Ok(out)
}

fn decoded_payload<F: Field>(bytes: &[u8]) -> Result<Vec<F>, WireError> {
    match Envelope::<F>::from_bytes(bytes)? {
        Envelope::MaskedModel(m) => Ok(m.payload),
        other => panic!("decoded as {:?}", other.kind()),
    }
}

/// Overwrite residue `index` of an encoded `MaskedModel` with `value`.
fn poke<F: Field>(bytes: &mut [u8], index: usize, value: u64) {
    let eb = Envelope::<F>::elem_bytes();
    let at = HEADER + 4 + index * eb;
    bytes[at..at + eb].copy_from_slice(&value.to_le_bytes()[..eb]);
}

fn bulk_codec_matches_reference<F: Field>() {
    let largest = F::from_u64(F::MODULUS - 1);
    for len in (0..40).chain([1024]) {
        for payload in [payload::<F>(len as u64, len), vec![largest; len]] {
            let bytes = masked(payload.clone()).to_bytes();
            assert_eq!(bytes, reference_encode(&payload), "encode, len {len}");
            assert_eq!(reference_decode::<F>(&bytes).unwrap(), payload);
            assert_eq!(decoded_payload::<F>(&bytes).unwrap(), payload, "len {len}");
        }
    }
}

#[test]
fn bulk_codec_matches_the_per_element_reference() {
    bulk_codec_matches_reference::<Fp61>();
    bulk_codec_matches_reference::<Fp32>();
}

/// The largest raw word an element slot can hold (never a residue).
fn all_ones<F: Field>() -> u64 {
    u64::MAX >> (64 - 8 * Envelope::<F>::elem_bytes())
}

fn first_offender_is_named<F: Field>() {
    for len in [1, 7, 33, 1024] {
        let clean = masked(payload::<F>(3, len)).to_bytes();
        for index in 0..len {
            // one offender: the smallest non-residue, at every index
            let mut one = clean.clone();
            poke::<F>(&mut one, index, F::MODULUS);
            let want = WireError::NonCanonicalElement {
                index,
                value: F::MODULUS,
            };
            assert_eq!(decoded_payload::<F>(&one), Err(want.clone()));
            assert_eq!(reference_decode::<F>(&one), Err(want.clone()));
            // two at once: the error names the first, with *its* value
            let mut two = one;
            poke::<F>(&mut two, len - 1, all_ones::<F>());
            let want = if index == len - 1 {
                WireError::NonCanonicalElement {
                    index,
                    value: all_ones::<F>(),
                }
            } else {
                want
            };
            assert_eq!(decoded_payload::<F>(&two), Err(want.clone()));
            assert_eq!(reference_decode::<F>(&two), Err(want));
        }
    }
}

#[test]
fn a_non_canonical_residue_is_reported_at_its_first_index() {
    first_offender_is_named::<Fp61>();
    first_offender_is_named::<Fp32>();
}

fn mid_element_cut_is_truncation<F: Field>() {
    let eb = Envelope::<F>::elem_bytes();
    let len = 6;
    let bytes = masked(payload::<F>(4, len)).to_bytes();
    for element in 0..len {
        for within in 1..eb {
            let got = element * eb + within;
            // the whole payload is sized against the buffer up front
            assert_eq!(
                decoded_payload::<F>(&bytes[..HEADER + 4 + got]),
                Err(WireError::Truncated {
                    needed: len * eb,
                    got
                }),
                "cut {within} bytes into element {element}"
            );
        }
    }
}

#[test]
fn a_cut_inside_an_element_is_truncation_not_a_short_payload() {
    mid_element_cut_is_truncation::<Fp61>();
    mid_element_cut_is_truncation::<Fp32>();
}
