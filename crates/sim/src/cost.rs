//! Calibrated per-operation costs.
//!
//! The timing simulator multiplies the exact operation counts of the
//! protocols by per-operation wall-clock costs measured on *this* machine
//! by running the real kernels ([`KernelCosts::calibrate`]). This is the
//! substitution strategy of this reproduction: the curve *shapes* come
//! from the op counts (which we reproduce exactly); the constants come
//! from real measured Rust kernels.

use lsa_crypto::{FieldPrg, Seed};
use lsa_field::{Field, Fp32};
use std::time::Instant;

/// Wall-clock cost of the primitive operations, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelCosts {
    /// One field multiply-accumulate inside a vector kernel
    /// (MDS encode/decode inner loops).
    pub field_mac_ns: f64,
    /// One field addition inside a vector kernel (mask application,
    /// aggregation).
    pub field_add_ns: f64,
    /// Producing one pseudo-random field element (ChaCha20 + rejection).
    pub prg_elem_ns: f64,
    /// One Shamir share evaluation/reconstruction step on seed-sized
    /// secrets (per limb-level multiply).
    pub shamir_op_ns: f64,
}

impl KernelCosts {
    /// Representative constants measured on a commodity x86-64 core
    /// (used when callers don't want the ~100 ms calibration run).
    pub fn nominal() -> Self {
        Self {
            field_mac_ns: 3.0,
            field_add_ns: 1.0,
            prg_elem_ns: 8.0,
            shamir_op_ns: 5.0,
        }
    }

    /// Measure the real kernels on this machine (takes ~100 ms).
    pub fn calibrate() -> Self {
        let mut mask = vec![Fp32::from_u64(3); 1 << 16];
        let coef = Fp32::from_u64(12345);
        let src: Vec<Fp32> = (0..1 << 16).map(|i| Fp32::from_u64(i as u64)).collect();

        // field MAC: axpy over 65536 elements, repeated
        let reps = 64;
        let start = Instant::now();
        for _ in 0..reps {
            lsa_field::ops::axpy(&mut mask, coef, &src);
        }
        let field_mac_ns = start.elapsed().as_nanos() as f64 / (reps * (1 << 16)) as f64;

        // field add
        let start = Instant::now();
        for _ in 0..reps {
            lsa_field::ops::add_assign(&mut mask, &src);
        }
        let field_add_ns = start.elapsed().as_nanos() as f64 / (reps * (1 << 16)) as f64;

        // PRG expansion
        let mut prg = FieldPrg::new(Seed::from_label(b"calibrate"));
        let start = Instant::now();
        let out: Vec<Fp32> = prg.expand(1 << 18);
        let prg_elem_ns = start.elapsed().as_nanos() as f64 / out.len() as f64;
        std::hint::black_box(&out);
        std::hint::black_box(&mask);

        Self {
            field_mac_ns: field_mac_ns.max(0.1),
            field_add_ns: field_add_ns.max(0.1),
            prg_elem_ns: prg_elem_ns.max(0.1),
            shamir_op_ns: (field_mac_ns * 1.5).max(0.1),
        }
    }
}

impl Default for KernelCosts {
    fn default() -> Self {
        Self::nominal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_produces_sane_magnitudes() {
        let c = KernelCosts::calibrate();
        // on any machine these kernels are between 0.1 ns and 1 µs per op
        for v in [
            c.field_mac_ns,
            c.field_add_ns,
            c.prg_elem_ns,
            c.shamir_op_ns,
        ] {
            assert!((0.1..1000.0).contains(&v), "cost {v} ns out of range");
        }
        // a MAC cannot be cheaper than an add by more than noise
        assert!(c.field_mac_ns >= c.field_add_ns * 0.5);
    }

    #[test]
    fn nominal_is_default() {
        assert_eq!(KernelCosts::default(), KernelCosts::nominal());
    }
}
