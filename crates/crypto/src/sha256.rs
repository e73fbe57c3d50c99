//! SHA-256 (FIPS 180-4).
//!
//! Used as the KDF turning Diffie–Hellman group elements into PRG seeds,
//! and for deterministic seed derivation (the mask ratchet hashes one
//! seed per pad). Validated against the NIST test vectors in the unit
//! tests.
//!
//! # Two compressors, one padding
//!
//! * the portable compressor runs the 64 FIPS rounds on eight `u32`s,
//!   one block at a time: the path on hosts without the SHA extensions,
//!   and the oracle the other path must match;
//! * the SHA-NI compressor (`sha256rnds2`, two rounds per instruction)
//!   keeps the state in the `abef`/`cdgh` register pair the instruction
//!   works on across every whole block one call hands it, and schedules
//!   the message four words at a time (`sha256msg1`/`sha256msg2`).
//!
//! Which one runs is decided once per hasher, at construction: SHA-NI
//! when the CPU reports `sha` and `sse4.1` and
//! [`lsa_field::simd::backend`] is not `Scalar`, so `LSA_SIMD=scalar`
//! (or a scoped `with_backend(Backend::Scalar, ..)`) pins the portable
//! path. Both share [`Sha256::finalize`], which builds its one or two
//! padding blocks in place and compresses them in one call. The digests
//! are identical on both paths; `both_compressors_match_the_reference`
//! and the NIST vectors, run under each, pin this.

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buf_len: usize,
    total_len: u64,
    /// Whether blocks go to the SHA-NI compressor. Captured at
    /// construction, so a scoped backend override cannot switch paths
    /// mid-message.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    ni: bool,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

/// Whether a hasher built on this thread takes the SHA-NI compressor.
fn sha_ni() -> bool {
    #[cfg(target_arch = "x86_64")]
    if lsa_field::simd::backend() != lsa_field::simd::Backend::Scalar {
        return is_x86_feature_detected!("sha") && is_x86_feature_detected!("sse4.1");
    }
    false
}

impl Sha256 {
    /// Fresh hasher.
    pub fn new() -> Self {
        Self {
            state: H0,
            buffer: [0u8; 64],
            buf_len: 0,
            total_len: 0,
            ni: sha_ni(),
        }
    }

    /// Absorb bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = usize::min(64 - self.buf_len, data.len());
            self.buffer[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            let block = self.buffer;
            self.compress(&block);
            self.buf_len = 0;
        }
        // every whole block in one call, then buffer the tail
        let (blocks, tail) = data.split_at(data.len() & !63);
        self.compress(blocks);
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finish and produce the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        // buffered tail ‖ 0x80 ‖ zeros ‖ 64-bit big-endian bit length:
        // one block when the length fits behind a tail of ≤ 55 bytes,
        // two otherwise
        let mut pad = [0u8; 128];
        let tail = self.buf_len;
        pad[..tail].copy_from_slice(&self.buffer[..tail]);
        pad[tail] = 0x80;
        let end = if tail < 56 { 64 } else { 128 };
        pad[end - 8..end].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        self.compress(&pad[..end]);
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Run the compression function over whole 64-byte `blocks`.
    fn compress(&mut self, blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        if blocks.is_empty() {
            return;
        }
        #[cfg(target_arch = "x86_64")]
        if self.ni {
            // SAFETY: `ni` is only set where `sha_ni` detected the `sha`
            // and `sse4.1` extensions.
            unsafe { ni::compress(&mut self.state, blocks) };
            return;
        }
        for block in blocks.chunks_exact(64) {
            compress_portable(&mut self.state, block.try_into().expect("64-byte block"));
        }
    }
}

/// The portable compressor: one block, rounds as FIPS 180-4 writes them.
fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes(block[4 * i..4 * i + 4].try_into().unwrap());
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }
    for (word, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(v);
    }
}

/// The SHA-NI compressor. Vector names list lanes high to low, so
/// `abef` holds `a` in its top lane and `f` in lane 0.
#[cfg(target_arch = "x86_64")]
mod ni {
    use super::K;
    use core::arch::x86_64::*;

    /// The next four message words from the last sixteen, `w[0]` the
    /// oldest four: `sha256msg1` adds `σ0(W[t−15])` to `W[t−16]`, the
    /// byte align supplies `W[t−7]`, and `sha256msg2` adds
    /// `σ1(W[t−2])`.
    #[inline]
    #[target_feature(enable = "sha,sse4.1")]
    unsafe fn schedule(w: [__m128i; 4]) -> __m128i {
        let w7 = _mm_alignr_epi8::<4>(w[3], w[2]);
        _mm_sha256msg2_epu32(_mm_add_epi32(_mm_sha256msg1_epu32(w[0], w[1]), w7), w[3])
    }

    /// Compress whole 64-byte `blocks` into `state`, bit-identical to
    /// the portable compressor block by block.
    ///
    /// # Safety
    ///
    /// Caller must ensure the CPU supports `sha` and `sse4.1`.
    #[target_feature(enable = "sha,sse4.1")]
    pub unsafe fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        // reverses the bytes of every 32-bit lane: message words are
        // big-endian
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let dcba = _mm_loadu_si128(state.as_ptr().cast());
        let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast());
        let cdab = _mm_shuffle_epi32::<0xB1>(dcba);
        let efgh = _mm_shuffle_epi32::<0x1B>(hgfe);
        let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
        let mut cdgh = _mm_blend_epi16::<0xF0>(efgh, cdab);
        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let words = block.as_ptr().cast::<__m128i>();
            let mut w = [_mm_setzero_si128(); 4];
            for (i, w) in w.iter_mut().enumerate() {
                *w = _mm_shuffle_epi8(_mm_loadu_si128(words.add(i)), bswap);
            }
            for i in 0..16 {
                // four rounds: W + K, two rounds on the low half and two
                // on the high half; each `sha256rnds2` returns the new
                // `abef`, and the old one becomes `cdgh`
                let wk = _mm_add_epi32(w[0], _mm_loadu_si128(K.as_ptr().add(4 * i).cast()));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
                let next = if i < 12 { schedule(w) } else { w[0] };
                w = [w[1], w[2], w[3], next];
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        let feba = _mm_shuffle_epi32::<0x1B>(abef);
        let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
        let out = state.as_mut_ptr();
        _mm_storeu_si128(out.cast(), _mm_blend_epi16::<0xF0>(feba, dchg));
        _mm_storeu_si128(out.add(4).cast(), _mm_alignr_epi8::<8>(dchg, feba));
    }
}

/// One-shot digest of `data`.
pub fn digest(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_field::simd::{detected, with_backend, Backend};
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The backends that select each compressor on this host: `Scalar`
    /// (portable), then the widest SIMD backend when the CPU has the SHA
    /// extensions — otherwise a stderr note, and that half is skipped.
    fn paths() -> Vec<Backend> {
        assert!(with_backend(Backend::Scalar, || !Sha256::new().ni));
        if with_backend(detected(), || Sha256::new().ni) {
            vec![Backend::Scalar, detected()]
        } else {
            eprintln!("sha256: no SHA extensions on this host, only the portable path runs");
            vec![Backend::Scalar]
        }
    }

    /// `data`'s digest as FIPS 180-4 writes it: the whole message padded
    /// (0x80, zeros to 56 mod 64, the 64-bit bit length) and fed to the
    /// portable compressor block by block — no buffering, no in-place
    /// padding.
    fn reference(data: &[u8]) -> [u8; 32] {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&(8 * data.len() as u64).to_be_bytes());
        let mut state = H0;
        for block in msg.chunks_exact(64) {
            compress_portable(&mut state, block.try_into().unwrap());
        }
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// `data`'s NIST digest on every path.
    fn nist(data: &[u8], want: &str) {
        for b in paths() {
            with_backend(b, || {
                assert_eq!(hex(&digest(data)), want, "backend {}", b.name())
            });
        }
    }

    #[test]
    fn empty_string() {
        nist(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn abc() {
        nist(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn two_block_message() {
        nist(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn million_a() {
        nist(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let mut h = Sha256::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), digest(&data));
    }

    #[test]
    fn exact_block_boundary() {
        let data = vec![0x42u8; 64];
        let mut h = Sha256::new();
        h.update(&data);
        // compare with chunked update crossing the boundary
        let mut h2 = Sha256::new();
        h2.update(&data[..63]);
        h2.update(&data[63..]);
        assert_eq!(h.finalize(), h2.finalize());
    }

    #[test]
    fn length_55_56_57_padding_edges() {
        // one padding block up to 55 bytes of tail, two from 56, and the
        // same again one block further on
        for b in paths() {
            with_backend(b, || {
                for len in [55usize, 56, 57, 63, 64, 65, 119, 120] {
                    let data = vec![0xA5u8; len];
                    let d1 = digest(&data);
                    let mut h = Sha256::new();
                    for byte in &data {
                        h.update(&[*byte]);
                    }
                    assert_eq!(h.finalize(), d1, "len {len}");
                    assert_eq!(d1, reference(&data), "len {len}");
                }
            });
        }
    }

    /// The SHA-NI path, the portable path and the one-shot digest are one
    /// function: random contents of every length 0..=300 plus 16 KiB and
    /// 1 MiB, one-shot and fed at random split points, against the
    /// textbook [`reference`].
    #[test]
    fn both_compressors_match_the_reference() {
        let mut rng = StdRng::seed_from_u64(0x5a256);
        let paths = paths();
        for len in (0..=300).chain([16 << 10, 1 << 20]) {
            let mut data = vec![0u8; len];
            rng.fill_bytes(&mut data);
            let want = reference(&data);
            assert_eq!(digest(&data), want, "len {len}");
            for &b in &paths {
                with_backend(b, || {
                    assert_eq!(digest(&data), want, "backend {} len {len}", b.name());
                    let mut h = Sha256::new();
                    let mut rest = &data[..];
                    while !rest.is_empty() {
                        let (head, tail) = rest.split_at(rng.gen_range(0..=rest.len().min(200)));
                        h.update(head);
                        rest = tail;
                    }
                    assert_eq!(h.finalize(), want, "split, backend {} len {len}", b.name());
                });
            }
        }
    }
}
