//! LightSecAgg-backed buffered-asynchronous aggregation.
//!
//! Implements [`lsa_fl::BufferAggregator`] by pushing every buffer flush
//! through the *actual* asynchronous LightSecAgg protocol: quantize each
//! contribution (Eq. 30), mask it with the round-stamped mask, let the
//! server recover the staleness-weighted aggregate in one shot, and
//! dequantize (Eq. 35). Figures 7, 11 and 12 compare this against the
//! plain float [`lsa_fl::PlainFedBuff`] on identical contribution
//! streams, so any accuracy difference is exactly the quantization +
//! field-arithmetic effect the paper measures.

use lsa_field::Field;
use lsa_fl::{BufferAggregator, BufferedContribution};
use lsa_protocol::asynchronous::{run_buffered_flush, FlushInput};
use lsa_protocol::transport::MemTransport;
use lsa_protocol::LsaConfig;
use lsa_quantize::{QuantizedStaleness, StalenessFn, VectorQuantizer};
use rand::Rng;
use std::marker::PhantomData;

/// Secure buffered aggregation through asynchronous LightSecAgg.
///
/// Each flush runs a self-contained protocol instance whose "users" are
/// the buffer slots (plus one helper when the buffer has a single entry);
/// this preserves the exact arithmetic (quantize → mask → weighted
/// field-sum → one-shot decode → dequantize) while keeping the
/// convergence experiments independent across flushes.
#[derive(Debug, Clone)]
pub struct LsaBufferAggregator<F> {
    quantizer: VectorQuantizer,
    staleness: QuantizedStaleness,
    _field: PhantomData<F>,
}

impl<F: Field> LsaBufferAggregator<F> {
    /// Create with a model quantizer (the paper's `c_l`, best at `2^16`)
    /// and a staleness function quantized at `c_g` (the paper uses
    /// `2^6`).
    pub fn new(quantizer: VectorQuantizer, staleness_fn: StalenessFn, cg: u64) -> Self {
        Self {
            quantizer,
            staleness: QuantizedStaleness::new(staleness_fn, cg),
            _field: PhantomData,
        }
    }

    /// The paper's default: `c_l = 2^16`, `c_g = 2^6`.
    pub fn paper_default(staleness_fn: StalenessFn) -> Self {
        Self::new(VectorQuantizer::new(1 << 16), staleness_fn, 1 << 6)
    }

    /// The model quantizer in use.
    pub fn quantizer(&self) -> &VectorQuantizer {
        &self.quantizer
    }
}

impl<F: Field> BufferAggregator for LsaBufferAggregator<F> {
    fn aggregate<R: Rng + ?Sized>(
        &mut self,
        buffer: &[BufferedContribution],
        rng: &mut R,
    ) -> Vec<f32> {
        assert!(!buffer.is_empty(), "empty buffer");
        let d = buffer[0].delta.len();
        // Protocol users = buffer slots (+ a helper if there is only one).
        let n = buffer.len().max(2);
        let t = (n - 1) / 2;
        let u = t + 1;
        let cfg = LsaConfig::new(n, t, u, d).expect("valid derived parameters");

        let now = buffer.iter().map(|c| c.staleness).max().unwrap_or(0);

        // Quantize each contribution and hand the flush to the sans-IO
        // session driver: every share, update, announcement and
        // aggregated share crosses a (serialized) MemTransport wire.
        let inputs: Vec<FlushInput<F>> = buffer
            .iter()
            .enumerate()
            .map(|(slot, contribution)| {
                let reals: Vec<f64> = contribution.delta.iter().map(|&v| v as f64).collect();
                FlushInput {
                    slot,
                    round: now - contribution.staleness,
                    update: self.quantizer.quantize(&reals, rng),
                }
            })
            .collect();
        let mut transport = MemTransport::new();
        let out = run_buffered_flush(cfg, &inputs, self.staleness, rng, &mut transport)
            .expect("one-shot recovery");
        self.quantizer
            .dequantize_sum(&out.aggregate, out.total_weight.max(1))
            .into_iter()
            .map(|v| v as f32)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_field::{Fp32, Fp61};
    use lsa_fl::PlainFedBuff;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn buffer(k: usize, d: usize, seed: u64) -> Vec<BufferedContribution> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..k)
            .map(|i| BufferedContribution {
                client: i,
                staleness: (i % 4) as u64,
                delta: (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
            })
            .collect()
    }

    #[test]
    fn secure_matches_plain_within_quantization_noise() {
        let buf = buffer(8, 24, 1);
        let mut rng1 = StdRng::seed_from_u64(2);
        let mut rng2 = StdRng::seed_from_u64(2);
        let mut plain = PlainFedBuff {
            staleness: StalenessFn::Constant,
        };
        let mut secure = LsaBufferAggregator::<Fp61>::paper_default(StalenessFn::Constant);
        let p = plain.aggregate(&buf, &mut rng1);
        let s = secure.aggregate(&buf, &mut rng2);
        for (a, b) in p.iter().zip(&s) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn poly_staleness_weighting_respected() {
        // one fresh (+1) and one very stale (−1) contribution; Poly must
        // lean toward the fresh one
        let buf = vec![
            BufferedContribution {
                client: 0,
                staleness: 0,
                delta: vec![1.0; 8],
            },
            BufferedContribution {
                client: 1,
                staleness: 9,
                delta: vec![-1.0; 8],
            },
        ];
        let mut rng = StdRng::seed_from_u64(3);
        let mut secure =
            LsaBufferAggregator::<Fp61>::paper_default(StalenessFn::Poly { alpha: 1.0 });
        let out = secure.aggregate(&buf, &mut rng);
        // plain expectation (1·1 + 0.1·(−1)) / 1.1 ≈ 0.818
        assert!((out[0] - 0.818).abs() < 0.02, "got {}", out[0]);
    }

    #[test]
    fn single_entry_buffer_works() {
        let buf = buffer(1, 6, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let mut secure = LsaBufferAggregator::<Fp61>::paper_default(StalenessFn::Constant);
        let out = secure.aggregate(&buf, &mut rng);
        for (a, b) in out.iter().zip(&buf[0].delta) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn coarse_quantizer_larger_error_fine_wraps() {
        // the two failure modes of Figure 12 on the 32-bit field
        let buf = buffer(10, 16, 6);
        let mut plain = PlainFedBuff {
            staleness: StalenessFn::Constant,
        };
        let reference = plain.aggregate(&buf, &mut StdRng::seed_from_u64(7));

        let err = |out: &[f32]| -> f64 {
            out.iter()
                .zip(&reference)
                .map(|(a, b)| ((a - b) as f64).powi(2))
                .sum::<f64>()
                .sqrt()
        };

        let mut coarse = LsaBufferAggregator::<Fp32>::new(
            VectorQuantizer::new(1 << 2),
            StalenessFn::Constant,
            1,
        );
        let mut good = LsaBufferAggregator::<Fp32>::new(
            VectorQuantizer::new(1 << 16),
            StalenessFn::Constant,
            1,
        );
        let e_coarse = err(&coarse.aggregate(&buf, &mut StdRng::seed_from_u64(8)));
        let e_good = err(&good.aggregate(&buf, &mut StdRng::seed_from_u64(9)));
        assert!(
            e_coarse > e_good * 5.0,
            "coarse {e_coarse} vs good {e_good}"
        );
    }
}
