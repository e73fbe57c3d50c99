//! Cryptographic primitives for the LightSecAgg reproduction.
//!
//! The secure-aggregation protocols need three primitives:
//!
//! * a **PRG** expanding a short seed into `d` field elements — used by
//!   SecAgg/SecAgg+ for the pairwise masks `PRG(a_{i,j})` and self-masks
//!   `PRG(b_i)`, and by the mask ratchet for its pairwise pads; a
//!   from-scratch `chacha::ChaCha20` stream (eight blocks per AVX2
//!   refill, sixteen per AVX-512) feeding a bulk rejection sampler
//!   ([`FieldPrg`]) that can add a pad straight into a vector without
//!   materialising it;
//! * a **key agreement** so each user pair derives a common seed — the
//!   paper uses Diffie–Hellman; we implement classic DH over the
//!   multiplicative group of a 62-bit safe prime ([`dh`]). *Substitution
//!   note*: production systems use X25519; the group size here is a
//!   simulation-scale parameter and does not change protocol logic,
//!   message flow or asymptotics;
//! * a **KDF/hash** to turn group elements into PRG seeds and derive
//!   per-round seeds — [`sha256`], with a portable compressor and a
//!   SHA-NI one chosen at run time, both validated against the FIPS
//!   180-4 test vectors.
//!
//! # Example: two users derive the same pairwise mask
//!
//! ```
//! use lsa_crypto::{dh::KeyPair, FieldPrg, Seed};
//! use lsa_field::Fp32;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let alice = KeyPair::generate(&mut rng);
//! let bob = KeyPair::generate(&mut rng);
//!
//! let seed_a = alice.agree(&bob.public_key());
//! let seed_b = bob.agree(&alice.public_key());
//! assert_eq!(seed_a, seed_b);
//!
//! let mask_a: Vec<Fp32> = FieldPrg::new(seed_a).expand(16);
//! let mask_b: Vec<Fp32> = FieldPrg::new(seed_b).expand(16);
//! assert_eq!(mask_a, mask_b);
//! ```

pub mod chacha;
pub mod dh;
pub mod sha256;

use lsa_field::Field;

/// A 256-bit PRG seed.
///
/// Seeds come from key agreement ([`dh::KeyPair::agree`]), from fresh
/// randomness (`Seed::random`), or deterministically from a label for
/// tests (`Seed::from_label`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Seed(pub [u8; 32]);

impl Seed {
    /// Sample a fresh uniformly random seed.
    pub fn random<R: rand::Rng + ?Sized>(rng: &mut R) -> Self {
        let mut bytes = [0u8; 32];
        rng.fill_bytes(&mut bytes);
        Seed(bytes)
    }

    /// Deterministically derive a seed from a label (SHA-256 of the bytes).
    /// Useful for reproducible tests and examples.
    pub fn from_label(label: &[u8]) -> Self {
        Seed(sha256::digest(label))
    }

    /// Derive a sub-seed for a domain (e.g. a round number), so one shared
    /// secret can yield independent per-round masks.
    pub fn derive(&self, domain: u64) -> Self {
        let mut buf = [0u8; 40];
        buf[..32].copy_from_slice(&self.0);
        buf[32..].copy_from_slice(&domain.to_le_bytes());
        Seed(sha256::digest(&buf))
    }
}

/// A PRG expanding a [`Seed`] into uniformly random field elements.
///
/// Uses the ChaCha20 keystream with rejection sampling, so elements are
/// exactly uniform over `F_q` and two parties expanding the same seed get
/// identical vectors (the property SecAgg's pairwise cancellation rests
/// on).
///
/// [`FieldPrg::next_element`] defines the element stream: consecutive
/// `⌈BITS/8⌉`-byte little-endian keystream words, masked to `BITS` bits,
/// skipping words `≥ MODULUS`. The bulk forms produce exactly that
/// stream from exactly that keystream, so draws of any form and length
/// interleave.
#[derive(Debug, Clone)]
pub struct FieldPrg {
    stream: chacha::ChaCha20,
}

/// Elements decoded per bulk step: at most 4 KiB of keystream (whole
/// refills on every backend) and of elements, so a step stays in L1.
const CHUNK: usize = 512;

/// Decode `nbytes`-byte little-endian keystream words into `out` (one
/// slot per word), masking each to `mask` and keeping it iff it is
/// `< modulus`; returns how many were kept. The first pass assumes no
/// rejection (the real fields reject at most one word in 2³⁰) so it
/// vectorizes, and is redone compacting if one occurred. Inlined so
/// `nbytes` is a constant in every caller.
#[inline(always)]
fn accept_words<T>(
    bytes: &[u8],
    nbytes: usize,
    mask: u64,
    modulus: u64,
    out: &mut [T],
    make: impl Fn(u64) -> T,
) -> usize {
    let words = || {
        bytes.chunks_exact(nbytes).map(|w| {
            let mut le = [0u8; 8];
            le[..nbytes].copy_from_slice(w);
            u64::from_le_bytes(le) & mask
        })
    };
    let count = bytes.len() / nbytes;
    let mut rejected = false;
    for (slot, v) in out[..count].iter_mut().zip(words()) {
        rejected |= v >= modulus;
        *slot = make(v);
    }
    if !rejected {
        return count;
    }
    let mut kept = 0;
    for v in words().filter(|&v| v < modulus) {
        out[kept] = make(v);
        kept += 1;
    }
    kept
}

/// Keystream bytes per word of `F`'s element stream, `⌈BITS/8⌉`.
fn word_len<F: Field>() -> usize {
    F::BITS.div_ceil(8) as usize
}

/// [`accept_words`] for `F`'s word size, mask and modulus.
fn accept<F: Field>(words: &[u8], out: &mut [F]) -> usize {
    let mask = u64::MAX >> (64 - F::BITS);
    accept_words(words, word_len::<F>(), mask, F::MODULUS, out, F::from_u64)
}

/// Add (or subtract) the elements the keystream `words` decode to into
/// the front of `acc`, which has one slot per word; returns how many.
/// [`Field::simd_add_words`] takes the words up to the first SIMD group
/// holding a rejected one, and the rest take the compacting path
/// through `scratch`.
fn add_words<F: Field>(
    backend: lsa_field::simd::Backend,
    acc: &mut [F],
    words: &[u8],
    subtract: bool,
    scratch: &mut [F; CHUNK],
) -> usize {
    let fused = F::simd_add_words(backend, acc, words, subtract);
    if fused == acc.len() {
        return fused;
    }
    let kept = accept::<F>(&words[fused * word_len::<F>()..], scratch);
    let (acc, pad) = (&mut acc[fused..fused + kept], &scratch[..kept]);
    if subtract {
        lsa_field::ops::sub_assign(acc, pad);
    } else {
        lsa_field::ops::add_assign(acc, pad);
    }
    fused + kept
}

impl FieldPrg {
    /// Create a PRG from a seed (ChaCha20 keyed by the seed, zero nonce).
    pub fn new(seed: Seed) -> Self {
        Self {
            stream: chacha::ChaCha20::new(&seed.0, &[0u8; 12]),
        }
    }

    /// Generate `len` uniformly random field elements.
    pub fn expand<F: Field>(&mut self, len: usize) -> Vec<F> {
        let mut out = Vec::with_capacity(len);
        let mut elements = [F::ZERO; CHUNK];
        self.chunks::<F>(len, |_, words| {
            let kept = accept::<F>(words, &mut elements);
            out.extend_from_slice(&elements[..kept]);
            kept
        });
        out
    }

    /// `acc[k] += e_k` for the next `acc.len()` elements `e` of the
    /// stream — [`Self::expand`] then a vector add, without ever holding
    /// the expansion.
    pub fn add_into<F: Field>(&mut self, acc: &mut [F]) {
        self.pad_into(acc, false);
    }

    /// `acc[k] -= e_k`; the subtracting twin of [`Self::add_into`].
    pub fn sub_into<F: Field>(&mut self, acc: &mut [F]) {
        self.pad_into(acc, true);
    }

    /// [`Self::add_into`], or with `subtract` [`Self::sub_into`].
    fn pad_into<F: Field>(&mut self, acc: &mut [F], subtract: bool) {
        // one dispatch per pad, never per chunk
        let backend = lsa_field::simd::backend();
        let mut scratch = [F::ZERO; CHUNK];
        self.chunks::<F>(acc.len(), |at, words| {
            let acc = &mut acc[at..at + words.len() / word_len::<F>()];
            add_words(backend, acc, words, subtract, &mut scratch)
        });
    }

    /// Draw keystream for the next `len` elements of the stream and hand
    /// it to `step` as `(offset, words)` runs of at most [`CHUNK`] words;
    /// `step` returns how many elements the words decoded to.
    fn chunks<F: Field>(&mut self, len: usize, mut step: impl FnMut(usize, &[u8]) -> usize) {
        let nbytes = word_len::<F>();
        let mut bytes = [0u8; 8 * CHUNK];
        let mut done = 0;
        while done < len {
            // one word per element still missing and never more, so no
            // keystream is dropped between calls
            let bytes = &mut bytes[..nbytes * (len - done).min(CHUNK)];
            self.stream.fill(bytes);
            done += step(done, bytes);
        }
    }

    /// Generate the next single field element (the oracle the bulk forms
    /// are pinned against).
    pub fn next_element<F: Field>(&mut self) -> F {
        // Draw ceil(BITS/8)-byte words; reject values >= MODULUS.
        let nbytes = usize::max(1, F::BITS.div_ceil(8) as usize);
        loop {
            let v = self.stream.next_word_le(nbytes);
            // mask off excess bits to keep the rejection rate low
            let v = if F::BITS >= 64 {
                v
            } else {
                v & ((1u64 << F::BITS) - 1)
            };
            if v < F::MODULUS {
                return F::from_u64(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_field::{Fp32, Fp61};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn same_seed_same_expansion() {
        let seed = Seed::from_label(b"test");
        let a: Vec<Fp32> = FieldPrg::new(seed).expand(100);
        let b: Vec<Fp32> = FieldPrg::new(seed).expand(100);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<Fp32> = FieldPrg::new(Seed::from_label(b"a")).expand(32);
        let b: Vec<Fp32> = FieldPrg::new(Seed::from_label(b"b")).expand(32);
        assert_ne!(a, b);
    }

    #[test]
    fn derive_gives_independent_streams() {
        let root = Seed::from_label(b"root");
        let a: Vec<Fp32> = FieldPrg::new(root.derive(0)).expand(32);
        let b: Vec<Fp32> = FieldPrg::new(root.derive(1)).expand(32);
        assert_ne!(a, b);
        // deterministic
        let a2: Vec<Fp32> = FieldPrg::new(root.derive(0)).expand(32);
        assert_eq!(a, a2);
    }

    #[test]
    fn expansion_covers_field_roughly_uniformly() {
        let mut prg = FieldPrg::new(Seed::from_label(b"uniform"));
        let xs: Vec<Fp61> = prg.expand(20_000);
        let mut buckets = [0u32; 8];
        for x in &xs {
            buckets[(x.residue() >> 58) as usize] += 1; // top 3 bits
        }
        for b in buckets {
            assert!((2000..3000).contains(&b), "bucket {b}");
        }
    }

    /// The element stream as `next_element` defines it — the oracle.
    fn oracle<F: Field>(prg: &mut FieldPrg, len: usize) -> Vec<F> {
        (0..len).map(|_| prg.next_element()).collect()
    }

    fn bulk_matches_oracle<F: Field>() {
        let seed = Seed::from_label(b"bulk vs oracle");
        for b in lsa_field::simd::available() {
            lsa_field::simd::with_backend(b, || {
                for len in [0, 1, 7, 63, 64, 65, 127, 128, 129, 4097] {
                    let got: Vec<F> = FieldPrg::new(seed).expand(len);
                    let want = oracle::<F>(&mut FieldPrg::new(seed), len);
                    assert_eq!(got, want, "backend {} len {len}", b.name());
                }
            });
        }
    }

    #[test]
    fn bulk_expand_matches_next_element_fp32() {
        bulk_matches_oracle::<Fp32>();
    }

    #[test]
    fn bulk_expand_matches_next_element_fp61() {
        bulk_matches_oracle::<Fp61>();
    }

    /// Bulk, single-element and raw-byte draws of odd sizes interleave
    /// on one stream exactly as on the oracle's: no form drops or
    /// re-reads a keystream byte, whatever the buffer offset it finds.
    fn interleaved_draws_match_oracle<F: Field>() {
        let seed = Seed::from_label(b"interleaved");
        for b in lsa_field::simd::available() {
            lsa_field::simd::with_backend(b, || {
                let mut bulk = FieldPrg::new(seed);
                let mut scalar = FieldPrg::new(seed);
                for (round, len) in [3usize, 130, 1, 517, 64, 0, 1029].into_iter().enumerate() {
                    assert_eq!(bulk.expand::<F>(len), oracle::<F>(&mut scalar, len));
                    assert_eq!(bulk.next_element::<F>(), scalar.next_element::<F>());
                    // knock the stream off word alignment
                    let mut raw = vec![0u8; 1 + 2 * round];
                    let mut raw_scalar = raw.clone();
                    bulk.stream.fill(&mut raw);
                    for byte in raw_scalar.iter_mut() {
                        *byte = scalar.stream.next_byte();
                    }
                    assert_eq!(raw, raw_scalar, "backend {}", b.name());
                }
                // expand(n) then expand(m) is expand(n + m)
                let mut split = FieldPrg::new(seed);
                let mut joined: Vec<F> = split.expand(301);
                joined.extend(split.expand::<F>(700));
                assert_eq!(joined, FieldPrg::new(seed).expand::<F>(1001));
            });
        }
    }

    #[test]
    fn interleaved_draws_match_next_element_fp32() {
        interleaved_draws_match_oracle::<Fp32>();
    }

    #[test]
    fn interleaved_draws_match_next_element_fp61() {
        interleaved_draws_match_oracle::<Fp61>();
    }

    fn fused_matches_expand<F: Field>() {
        let seed = Seed::from_label(b"fused");
        for b in lsa_field::simd::available() {
            lsa_field::simd::with_backend(b, || {
                for len in [0, 1, 3, 4, 511, 512, 513, 4097] {
                    let base: Vec<F> = FieldPrg::new(Seed::from_label(b"acc")).expand(len);
                    let pad: Vec<F> = FieldPrg::new(seed).expand(len);
                    let (mut added, mut want) = (base.clone(), base.clone());
                    FieldPrg::new(seed).add_into(&mut added);
                    lsa_field::ops::add_assign(&mut want, &pad);
                    assert_eq!(added, want, "add, backend {} len {len}", b.name());
                    let (mut subbed, mut want) = (base.clone(), base);
                    FieldPrg::new(seed).sub_into(&mut subbed);
                    lsa_field::ops::sub_assign(&mut want, &pad);
                    assert_eq!(subbed, want, "sub, backend {} len {len}", b.name());
                }
            });
        }
    }

    #[test]
    fn fused_add_sub_match_expand_then_ops_fp32() {
        fused_matches_expand::<Fp32>();
    }

    #[test]
    fn fused_add_sub_match_expand_then_ops_fp61() {
        fused_matches_expand::<Fp61>();
    }

    /// Seeded streams almost never reject a word, so the pad step is
    /// handed crafted chunks: clean keystream with one word whose masked
    /// value is the modulus itself, at every position of a 45-word chunk
    /// (lane 0, middle and last lanes of every SIMD group, the tail past
    /// the last group) and of a full one. The result is the compacting
    /// path's: the rejected word skipped, the words after it shifted up.
    fn rejected_word_takes_the_compacting_path<F: Field>() {
        let nbytes = word_len::<F>();
        let modulus_word = F::MODULUS | !(u64::MAX >> (64 - F::BITS));
        let acc: Vec<F> = FieldPrg::new(Seed::from_label(b"acc")).expand(CHUNK);
        let mut clean = vec![0u8; nbytes * CHUNK];
        chacha::ChaCha20::new(&[3u8; 32], &[0u8; 12]).fill(&mut clean);
        let mut scratch = [F::ZERO; CHUNK];
        for len in [45, CHUNK] {
            for at in 0..len {
                let mut words = clean[..nbytes * len].to_vec();
                words[nbytes * at..nbytes * (at + 1)]
                    .copy_from_slice(&modulus_word.to_le_bytes()[..nbytes]);
                let kept = accept::<F>(&words, &mut scratch);
                assert_eq!(kept, len - 1, "exactly one word is rejected");
                for subtract in [false, true] {
                    let mut want = acc[..len].to_vec();
                    if subtract {
                        lsa_field::ops::sub_assign(&mut want[..kept], &scratch[..kept]);
                    } else {
                        lsa_field::ops::add_assign(&mut want[..kept], &scratch[..kept]);
                    }
                    for b in lsa_field::simd::available() {
                        let mut got = acc[..len].to_vec();
                        let mut fresh = [F::ZERO; CHUNK];
                        let added = add_words(b, &mut got, &words, subtract, &mut fresh);
                        let case = format!("backend {} len {len} at {at} sub {subtract}", b.name());
                        assert_eq!(added, kept, "{case}");
                        assert_eq!(got, want, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn rejected_word_takes_the_compacting_path_fp32() {
        rejected_word_takes_the_compacting_path::<Fp32>();
    }

    #[test]
    fn rejected_word_takes_the_compacting_path_fp61() {
        rejected_word_takes_the_compacting_path::<Fp61>();
    }

    /// The real fields reject at most one word in 2³⁰, so the compacting
    /// pass is driven here through a 1-byte word with modulus 200 (22 %
    /// rejected) and a 2-byte word masked to 9 bits with modulus 300.
    #[test]
    fn rejected_words_are_compacted_in_stream_order() {
        let mut bytes = vec![0u8; 600];
        chacha::ChaCha20::new(&[1u8; 32], &[0u8; 12]).fill(&mut bytes);
        for (nbytes, mask, modulus) in [(1usize, 0xffu64, 200u64), (2, 0x1ff, 300)] {
            let want: Vec<u64> = bytes
                .chunks_exact(nbytes)
                .map(|w| w.iter().rev().fold(0u64, |v, &b| v << 8 | b as u64) & mask)
                .filter(|&v| v < modulus)
                .collect();
            assert!(want.len() < bytes.len() / nbytes, "some word is rejected");
            let mut out = vec![u64::MAX; bytes.len() / nbytes];
            let kept = accept_words(&bytes, nbytes, mask, modulus, &mut out, |v| v);
            assert_eq!(&out[..kept], &want[..]);
            // a chunk without a rejection keeps every word
            let clean: Vec<u8> = want
                .iter()
                .flat_map(|v| v.to_le_bytes()[..nbytes].to_vec())
                .collect();
            let kept = accept_words(&clean, nbytes, mask, modulus, &mut out, |v| v);
            assert_eq!(&out[..kept], &want[..]);
        }
    }

    #[test]
    fn random_seed_uses_rng() {
        let mut rng = StdRng::seed_from_u64(7);
        let s1 = Seed::random(&mut rng);
        let s2 = Seed::random(&mut rng);
        assert_ne!(s1, s2);
    }
}
