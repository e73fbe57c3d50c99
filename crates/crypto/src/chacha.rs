//! ChaCha20 stream cipher (RFC 8439), implemented from scratch.
//!
//! Used as the protocol PRG. Only the keystream is needed (we never
//! encrypt), so the API exposes a byte stream.
//!
//! # Backends
//!
//! Three keystream generators share one state schedule:
//!
//! * the scalar path computes one 64-byte block per refill — the oracle
//!   every other path must match byte-for-byte;
//! * the AVX2 path computes **eight consecutive blocks per refill**,
//!   holding one `__m256i` per ChaCha state word with the eight block
//!   counters spread across its lanes, so every `add`/`xor`/`rotate` of
//!   the round function runs on all eight blocks at once; two 8×8 word
//!   transposes then serialize the blocks in counter order;
//! * the AVX-512F path does the same for **sixteen blocks** in one
//!   `__m512i` per state word, with native lane rotates (`vprold`)
//!   instead of AVX2's shift/shift/or and byte shuffles; an in-lane 4×4
//!   word transpose and a 4×4 transpose of 128-bit lanes serialize it.
//!
//! The backend is chosen through [`lsa_field::simd`] at construction
//! time. Blocks are emitted in counter order on every path, so the byte
//! streams are identical; `counter_boundary_equivalence` and the RFC
//! 8439 vector tests pin this. [`ChaCha20::fill`] writes whole refills
//! straight into the caller's slice, so a bulk draw never passes
//! through the internal buffer.

use lsa_field::simd::{self, Backend};

/// Keystream bytes buffered per refill on the widest path (sixteen
/// 64-byte blocks).
const BUF: usize = 1024;

/// ChaCha20 keystream generator.
#[derive(Debug, Clone)]
pub struct ChaCha20 {
    state: [u32; 16],
    buffer: [u8; BUF],
    /// Bytes one refill produces: 64 per block, one block on the scalar
    /// path, eight under AVX2, sixteen under AVX-512.
    buf_len: usize,
    /// Bytes of the buffered refill already handed out.
    offset: usize,
    counter: u32,
    /// Captured once at construction — a `ChaCha20` never re-dispatches
    /// mid-stream, so a scoped backend override cannot tear a stream.
    backend: Backend,
}

const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[inline]
fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// The 64-byte block of `state` at a given counter value (the scalar
/// oracle).
fn block(state: &[u32; 16], counter: u32) -> [u8; 64] {
    let mut working = *state;
    working[12] = counter;
    let mut s = working;
    for _ in 0..10 {
        // column rounds
        quarter_round(&mut s, 0, 4, 8, 12);
        quarter_round(&mut s, 1, 5, 9, 13);
        quarter_round(&mut s, 2, 6, 10, 14);
        quarter_round(&mut s, 3, 7, 11, 15);
        // diagonal rounds
        quarter_round(&mut s, 0, 5, 10, 15);
        quarter_round(&mut s, 1, 6, 11, 12);
        quarter_round(&mut s, 2, 7, 8, 13);
        quarter_round(&mut s, 3, 4, 9, 14);
    }
    let mut out = [0u8; 64];
    for i in 0..16 {
        let word = s[i].wrapping_add(working[i]);
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

impl ChaCha20 {
    /// Create a keystream from a 256-bit key and 96-bit nonce, starting at
    /// block counter 0.
    pub fn new(key: &[u8; 32], nonce: &[u8; 12]) -> Self {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&SIGMA);
        for i in 0..8 {
            state[4 + i] = u32::from_le_bytes(key[4 * i..4 * i + 4].try_into().unwrap());
        }
        state[12] = 0; // counter, patched per block
        for i in 0..3 {
            state[13 + i] = u32::from_le_bytes(nonce[4 * i..4 * i + 4].try_into().unwrap());
        }
        let backend = simd::backend();
        let buf_len = match backend {
            Backend::Scalar => 64,
            Backend::Avx2 => 512,
            Backend::Avx512 => BUF,
        };
        Self {
            state,
            buffer: [0u8; BUF],
            buf_len,
            offset: buf_len, // drained: the first draw refills
            counter: 0,
            backend,
        }
    }

    /// Write the next refill of keystream (`buf_len` bytes) to the front
    /// of `out` and advance `counter` past it.
    fn next_blocks(state: &[u32; 16], backend: Backend, counter: &mut u32, out: &mut [u8]) {
        const WHOLE: &str = "room for a whole refill";
        #[cfg(target_arch = "x86_64")]
        match backend {
            Backend::Avx512 => {
                // SAFETY: `lsa_field::simd` only produces `Avx512` after
                // detecting avx512f (and avx2).
                unsafe { x16::blocks16(state, *counter, out.first_chunk_mut().expect(WHOLE)) };
                *counter = counter.wrapping_add(16);
                return;
            }
            Backend::Avx2 => {
                // SAFETY: `lsa_field::simd` only produces `Avx2` after
                // detecting avx2.
                unsafe { x8::blocks8(state, *counter, out.first_chunk_mut().expect(WHOLE)) };
                *counter = counter.wrapping_add(8);
                return;
            }
            Backend::Scalar => {}
        }
        out[..64].copy_from_slice(&block(state, *counter));
        *counter = counter.wrapping_add(1);
    }

    /// Refill the (drained) keystream buffer.
    fn refill(&mut self) {
        let (state, backend) = (&self.state, self.backend);
        Self::next_blocks(state, backend, &mut self.counter, &mut self.buffer);
        self.offset = 0;
    }

    /// Next keystream byte.
    #[inline]
    pub fn next_byte(&mut self) -> u8 {
        if self.offset == self.buf_len {
            self.refill();
        }
        let b = self.buffer[self.offset];
        self.offset += 1;
        b
    }

    /// Next `nbytes ≤ 8` keystream bytes as a little-endian `u64` — the
    /// word-sized draw rejection sampling makes, pulled from the buffer
    /// in one copy instead of `nbytes` calls.
    #[inline]
    pub fn next_word_le(&mut self, nbytes: usize) -> u64 {
        debug_assert!(nbytes <= 8);
        let mut word = [0u8; 8];
        if self.buf_len - self.offset >= nbytes {
            word[..nbytes].copy_from_slice(&self.buffer[self.offset..self.offset + nbytes]);
            self.offset += nbytes;
        } else {
            for b in word.iter_mut().take(nbytes) {
                *b = self.next_byte();
            }
        }
        u64::from_le_bytes(word)
    }

    /// Fill a slice with keystream bytes: buffered bytes first, then
    /// whole refills generated in place, then a buffered tail.
    pub fn fill(&mut self, out: &mut [u8]) {
        let mut written = 0;
        while written < out.len() {
            if self.offset == self.buf_len {
                if out.len() - written >= self.buf_len {
                    let (state, backend) = (&self.state, self.backend);
                    Self::next_blocks(state, backend, &mut self.counter, &mut out[written..]);
                    written += self.buf_len;
                    continue;
                }
                self.refill();
            }
            let n = (out.len() - written).min(self.buf_len - self.offset);
            out[written..written + n].copy_from_slice(&self.buffer[self.offset..self.offset + n]);
            self.offset += n;
            written += n;
        }
    }
}

/// Eight-block AVX2 kernel: one `__m256i` per ChaCha state word, block
/// counters `ctr..ctr+7` spread across the lanes.
#[cfg(target_arch = "x86_64")]
mod x8 {
    use core::arch::x86_64::*;

    /// Lanewise 32-bit rotate-left by shift/shift/or (no variable
    /// rotate below AVX-512); the byte-aligned rotates use a shuffle.
    macro_rules! rotl {
        ($x:expr, $n:literal) => {{
            let x = $x;
            _mm256_or_si256(
                _mm256_slli_epi32::<$n>(x),
                _mm256_srli_epi32::<{ 32 - $n }>(x),
            )
        }};
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn qr(v: &mut [__m256i; 16], a: usize, b: usize, c: usize, d: usize) {
        // per-128-bit-lane byte shuffles rotating every u32 left by 16 / 8
        let rot16 = _mm256_setr_epi8(
            2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, 2, 3, 0, 1, 6, 7, 4, 5, 10, 11,
            8, 9, 14, 15, 12, 13,
        );
        let rot8 = _mm256_setr_epi8(
            3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, 3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9,
            10, 15, 12, 13, 14,
        );
        v[a] = _mm256_add_epi32(v[a], v[b]);
        v[d] = _mm256_shuffle_epi8(_mm256_xor_si256(v[d], v[a]), rot16);
        v[c] = _mm256_add_epi32(v[c], v[d]);
        v[b] = rotl!(_mm256_xor_si256(v[b], v[c]), 12);
        v[a] = _mm256_add_epi32(v[a], v[b]);
        v[d] = _mm256_shuffle_epi8(_mm256_xor_si256(v[d], v[a]), rot8);
        v[c] = _mm256_add_epi32(v[c], v[d]);
        v[b] = rotl!(_mm256_xor_si256(v[b], v[c]), 7);
    }

    /// Blocks `counter..counter+7` (wrapping), serialized in counter
    /// order — byte-identical to eight scalar `block` calls.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn blocks8(state: &[u32; 16], counter: u32, out: &mut [u8; 512]) {
        let mut v = [_mm256_setzero_si256(); 16];
        for (lane, &word) in v.iter_mut().zip(state.iter()) {
            *lane = _mm256_set1_epi32(word as i32);
        }
        v[12] = _mm256_add_epi32(
            _mm256_set1_epi32(counter as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        );
        let init = v;
        for _ in 0..10 {
            // column rounds
            qr(&mut v, 0, 4, 8, 12);
            qr(&mut v, 1, 5, 9, 13);
            qr(&mut v, 2, 6, 10, 14);
            qr(&mut v, 3, 7, 11, 15);
            // diagonal rounds
            qr(&mut v, 0, 5, 10, 15);
            qr(&mut v, 1, 6, 11, 12);
            qr(&mut v, 2, 7, 8, 13);
            qr(&mut v, 3, 4, 9, 14);
        }
        for (lane, seed) in v.iter_mut().zip(init.iter()) {
            *lane = _mm256_add_epi32(*lane, *seed);
        }
        // Row `w` holds word `w` of all eight blocks. Each group of four
        // rows transposes (32- then 64-bit interleaves) into 16-byte
        // runs: run `k` of `q[g]` is words 4g..4g+4 of block k in its
        // low lane and of block k+4 in its high lane. Pairing the lanes
        // of two groups then gives one 32-byte half-block per store.
        let mut q = [[_mm256_setzero_si256(); 4]; 4];
        for (g, q) in q.iter_mut().enumerate() {
            let t0 = _mm256_unpacklo_epi32(v[4 * g], v[4 * g + 1]);
            let t1 = _mm256_unpacklo_epi32(v[4 * g + 2], v[4 * g + 3]);
            let t2 = _mm256_unpackhi_epi32(v[4 * g], v[4 * g + 1]);
            let t3 = _mm256_unpackhi_epi32(v[4 * g + 2], v[4 * g + 3]);
            *q = [
                _mm256_unpacklo_epi64(t0, t1),
                _mm256_unpackhi_epi64(t0, t1),
                _mm256_unpacklo_epi64(t2, t3),
                _mm256_unpackhi_epi64(t2, t3),
            ];
        }
        for (half, pair) in q.chunks_exact(2).enumerate() {
            for (k, (&a, &b)) in pair[0].iter().zip(&pair[1]).enumerate() {
                let at = out.as_mut_ptr().add(32 * half + 64 * k);
                _mm256_storeu_si256(at as *mut __m256i, _mm256_permute2x128_si256::<0x20>(a, b));
                _mm256_storeu_si256(
                    at.add(256) as *mut __m256i,
                    _mm256_permute2x128_si256::<0x31>(a, b),
                );
            }
        }
    }
}

/// Sixteen-block AVX-512F kernel: one `__m512i` per ChaCha state word,
/// block counters `ctr..ctr+15` across the lanes. The sixteen state
/// vectors stay in registers for all twenty rounds.
#[cfg(target_arch = "x86_64")]
mod x16 {
    use core::arch::x86_64::*;

    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn qr(v: &mut [__m512i; 16], a: usize, b: usize, c: usize, d: usize) {
        v[a] = _mm512_add_epi32(v[a], v[b]);
        v[d] = _mm512_rol_epi32::<16>(_mm512_xor_si512(v[d], v[a]));
        v[c] = _mm512_add_epi32(v[c], v[d]);
        v[b] = _mm512_rol_epi32::<12>(_mm512_xor_si512(v[b], v[c]));
        v[a] = _mm512_add_epi32(v[a], v[b]);
        v[d] = _mm512_rol_epi32::<8>(_mm512_xor_si512(v[d], v[a]));
        v[c] = _mm512_add_epi32(v[c], v[d]);
        v[b] = _mm512_rol_epi32::<7>(_mm512_xor_si512(v[b], v[c]));
    }

    /// Blocks `counter..counter+15` (wrapping), serialized in counter
    /// order — byte-identical to sixteen scalar `block` calls.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX-512F is available.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn blocks16(state: &[u32; 16], counter: u32, out: &mut [u8; 1024]) {
        let mut v = [_mm512_setzero_si512(); 16];
        for (lane, &word) in v.iter_mut().zip(state.iter()) {
            *lane = _mm512_set1_epi32(word as i32);
        }
        v[12] = _mm512_add_epi32(
            _mm512_set1_epi32(counter as i32),
            _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
        );
        let init = v;
        for _ in 0..10 {
            // column rounds
            qr(&mut v, 0, 4, 8, 12);
            qr(&mut v, 1, 5, 9, 13);
            qr(&mut v, 2, 6, 10, 14);
            qr(&mut v, 3, 7, 11, 15);
            // diagonal rounds
            qr(&mut v, 0, 5, 10, 15);
            qr(&mut v, 1, 6, 11, 12);
            qr(&mut v, 2, 7, 8, 13);
            qr(&mut v, 3, 4, 9, 14);
        }
        for (lane, seed) in v.iter_mut().zip(init.iter()) {
            *lane = _mm512_add_epi32(*lane, *seed);
        }
        // Row `w` holds word `w` of all sixteen blocks. The same in-lane
        // transpose as `x8` leaves, in 128-bit lane `L` of `runs[k][g]`,
        // words 4g..4g+4 of block 4L+k. For each `k` a 4×4 transpose of
        // the lanes of runs[k] then gathers block 4L+k whole into one
        // vector.
        let mut runs = [[_mm512_setzero_si512(); 4]; 4];
        for (g, rows) in v.chunks_exact(4).enumerate() {
            let t0 = _mm512_unpacklo_epi32(rows[0], rows[1]);
            let t1 = _mm512_unpacklo_epi32(rows[2], rows[3]);
            let t2 = _mm512_unpackhi_epi32(rows[0], rows[1]);
            let t3 = _mm512_unpackhi_epi32(rows[2], rows[3]);
            let q = [
                _mm512_unpacklo_epi64(t0, t1),
                _mm512_unpackhi_epi64(t0, t1),
                _mm512_unpacklo_epi64(t2, t3),
                _mm512_unpackhi_epi64(t2, t3),
            ];
            for (k, run) in q.into_iter().enumerate() {
                runs[k][g] = run;
            }
        }
        for (k, [a, b, c, d]) in runs.into_iter().enumerate() {
            // lanes (a0 a1 b0 b1), (c0 c1 d0 d1), (a2 a3 b2 b3), (c2 c3 d2 d3)
            let ab_lo = _mm512_shuffle_i32x4::<0x44>(a, b);
            let cd_lo = _mm512_shuffle_i32x4::<0x44>(c, d);
            let ab_hi = _mm512_shuffle_i32x4::<0xEE>(a, b);
            let cd_hi = _mm512_shuffle_i32x4::<0xEE>(c, d);
            // block 4L+k is lanes (aL bL cL dL)
            let blocks = [
                _mm512_shuffle_i32x4::<0x88>(ab_lo, cd_lo),
                _mm512_shuffle_i32x4::<0xDD>(ab_lo, cd_lo),
                _mm512_shuffle_i32x4::<0x88>(ab_hi, cd_hi),
                _mm512_shuffle_i32x4::<0xDD>(ab_hi, cd_hi),
            ];
            for (lane, block) in blocks.into_iter().enumerate() {
                let at = out.as_mut_ptr().add(64 * (4 * lane + k));
                _mm512_storeu_si512(at as *mut __m512i, block);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_field::simd::{available, with_backend};

    fn test_key() -> ([u8; 32], [u8; 12]) {
        let mut key = [0u8; 32];
        for (i, k) in key.iter_mut().enumerate() {
            *k = i as u8;
        }
        let nonce = [
            0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00,
        ];
        (key, nonce)
    }

    const RFC8439_BLOCK1: [u8; 64] = [
        0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20, 0x71,
        0xc4, 0xc7, 0xd1, 0xf4, 0xc7, 0x33, 0xc0, 0x68, 0x03, 0x04, 0x22, 0xaa, 0x9a, 0xc3, 0xd4,
        0x6c, 0x4e, 0xd2, 0x82, 0x64, 0x46, 0x07, 0x9f, 0xaa, 0x09, 0x14, 0xc2, 0xd7, 0x05, 0xd9,
        0x8b, 0x02, 0xa2, 0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e, 0xb9, 0xcb, 0xd0, 0x83, 0xe8,
        0xa2, 0x50, 0x3c, 0x4e,
    ];

    /// RFC 8439 §2.3.2 test vector: key = 00..1f, nonce =
    /// 000000090000004a00000000, counter = 1.
    #[test]
    fn rfc8439_block_test_vector() {
        let (key, nonce) = test_key();
        let cipher = ChaCha20::new(&key, &nonce);
        assert_eq!(block(&cipher.state, 1), RFC8439_BLOCK1);
    }

    /// The same RFC vector through the public keystream (bytes 64..128
    /// are the counter-1 block), pinned on every compiled-in backend.
    #[test]
    fn rfc8439_vector_on_every_backend() {
        let (key, nonce) = test_key();
        for b in available() {
            with_backend(b, || {
                let mut cipher = ChaCha20::new(&key, &nonce);
                let mut stream = [0u8; 128];
                cipher.fill(&mut stream);
                assert_eq!(&stream[64..], &RFC8439_BLOCK1[..], "backend {}", b.name());
            });
        }
    }

    /// The 8- and 16-block kernels must be byte-identical to scalar
    /// block calls, whether a refill lands in the caller's slice or in
    /// the buffer.
    #[test]
    fn multi_block_keystream_matches_scalar() {
        let key = [0xabu8; 32];
        let nonce = [0x17u8; 12];
        // 4200 bytes: four whole 1024-byte refills written in place (or
        // eight 512-byte ones) and a buffered 104-byte tail that is
        // neither 64- nor refill-aligned
        let mut want = vec![0u8; 4200];
        with_backend(Backend::Scalar, || {
            ChaCha20::new(&key, &nonce).fill(&mut want);
        });
        for b in available() {
            with_backend(b, || {
                let mut got = vec![0u8; 4200];
                ChaCha20::new(&key, &nonce).fill(&mut got);
                assert_eq!(got, want, "backend {}", b.name());
                // the same bytes when a short draw comes first, so the
                // buffer drains unaligned and three in-place refills
                // land at an odd offset of the caller's slice
                let mut cipher = ChaCha20::new(&key, &nonce);
                cipher.fill(&mut got[..5]);
                cipher.fill(&mut got[5..]);
                assert_eq!(got, want, "backend {} after a short draw", b.name());
            });
        }
    }

    /// Odd-sized interleaved draws (bytes and words) see the same stream
    /// as one bulk fill, on every backend.
    #[test]
    fn counter_boundary_equivalence() {
        let key = [3u8; 32];
        let nonce = [5u8; 12];
        for b in available() {
            with_backend(b, || {
                let mut bulk = vec![0u8; 1400];
                ChaCha20::new(&key, &nonce).fill(&mut bulk);
                let mut piecemeal = Vec::with_capacity(1400);
                let mut cipher = ChaCha20::new(&key, &nonce);
                // 7-byte words + 13-byte fills + single bytes: straddles
                // every 64-byte block and 512- or 1024-byte refill
                // boundary unaligned
                while piecemeal.len() + 21 <= 1400 {
                    let w = cipher.next_word_le(7);
                    piecemeal.extend_from_slice(&w.to_le_bytes()[..7]);
                    let mut chunk = [0u8; 13];
                    cipher.fill(&mut chunk);
                    piecemeal.extend_from_slice(&chunk);
                    piecemeal.push(cipher.next_byte());
                }
                while piecemeal.len() < 1400 {
                    piecemeal.push(cipher.next_byte());
                }
                assert_eq!(piecemeal, bulk, "backend {}", b.name());
            });
        }
    }

    /// The 32-bit block counter wraps identically on every path (a SIMD
    /// refill spreads `ctr..ctr+7` or `ctr..ctr+15` with a wrapping lane
    /// add). Each start puts the wrap inside the first refill of one
    /// kernel: `MAX − 6` inside an 8-block refill, `MAX − 14` inside a
    /// 16-block one.
    #[test]
    fn counter_wrap_matches_scalar() {
        let key = [0x42u8; 32];
        let nonce = [9u8; 12];
        let stream = |backend, start| {
            with_backend(backend, || {
                let mut cipher = ChaCha20::new(&key, &nonce);
                cipher.counter = start;
                let mut out = vec![0u8; 2048 + 100];
                cipher.fill(&mut out);
                out
            })
        };
        for start in [u32::MAX - 6, u32::MAX - 14] {
            let want = stream(Backend::Scalar, start);
            for b in available().into_iter().filter(|&b| b != Backend::Scalar) {
                assert_eq!(stream(b, start), want, "backend {} start {start}", b.name());
            }
        }
    }

    /// RFC 8439 §2.4.2 ("sunscreen") keystream: key = 00..1f, nonce =
    /// 000000000000004a00000000, initial counter = 1 — so bytes 64.. of
    /// a stream that starts at counter 0. All 114 bytes the RFC prints
    /// (the counter-1 block and the head of counter 2), through the
    /// public `fill` on every compiled-in backend.
    #[test]
    fn rfc8439_sunscreen_keystream_on_every_backend() {
        const KEYSTREAM: [u8; 114] = [
            0x22, 0x4f, 0x51, 0xf3, 0x40, 0x1b, 0xd9, 0xe1, 0x2f, 0xde, 0x27, 0x6f, 0xb8, 0x63,
            0x1d, 0xed, 0x8c, 0x13, 0x1f, 0x82, 0x3d, 0x2c, 0x06, 0xe2, 0x7e, 0x4f, 0xca, 0xec,
            0x9e, 0xf3, 0xcf, 0x78, 0x8a, 0x3b, 0x0a, 0xa3, 0x72, 0x60, 0x0a, 0x92, 0xb5, 0x79,
            0x74, 0xcd, 0xed, 0x2b, 0x93, 0x34, 0x79, 0x4c, 0xba, 0x40, 0xc6, 0x3e, 0x34, 0xcd,
            0xea, 0x21, 0x2c, 0x4c, 0xf0, 0x7d, 0x41, 0xb7, 0x69, 0xa6, 0x74, 0x9f, 0x3f, 0x63,
            0x0f, 0x41, 0x22, 0xca, 0xfe, 0x28, 0xec, 0x4d, 0xc4, 0x7e, 0x26, 0xd4, 0x34, 0x6d,
            0x70, 0xb9, 0x8c, 0x73, 0xf3, 0xe9, 0xc5, 0x3a, 0xc4, 0x0c, 0x59, 0x45, 0x39, 0x8b,
            0x6e, 0xda, 0x1a, 0x83, 0x2c, 0x89, 0xc1, 0x67, 0xea, 0xcd, 0x90, 0x1d, 0x7e, 0x2b,
            0xf3, 0x63,
        ];
        let (key, _) = test_key();
        let nonce = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        for b in available() {
            with_backend(b, || {
                let mut stream = [0u8; 64 + 114];
                ChaCha20::new(&key, &nonce).fill(&mut stream);
                assert_eq!(&stream[64..], &KEYSTREAM[..], "backend {}", b.name());
            });
        }
    }

    /// Not an RFC vector: two streams under one key and nonce agree, and
    /// consecutive blocks differ.
    #[test]
    fn keystream_is_deterministic_and_nonrepeating() {
        let key = [7u8; 32];
        let nonce = [1u8; 12];
        let mut a = ChaCha20::new(&key, &nonce);
        let mut b = ChaCha20::new(&key, &nonce);
        let mut buf_a = [0u8; 200];
        let mut buf_b = [0u8; 200];
        a.fill(&mut buf_a);
        b.fill(&mut buf_b);
        assert_eq!(buf_a, buf_b);
        // successive output differs (crossing the 64-byte block boundary)
        assert_ne!(&buf_a[..64], &buf_a[64..128]);
    }

    #[test]
    fn different_nonce_different_stream() {
        let key = [9u8; 32];
        let mut a = ChaCha20::new(&key, &[0u8; 12]);
        let mut b = ChaCha20::new(&key, &[1u8; 12]);
        let mut buf_a = [0u8; 64];
        let mut buf_b = [0u8; 64];
        a.fill(&mut buf_a);
        b.fill(&mut buf_b);
        assert_ne!(buf_a, buf_b);
    }
}
