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
    ///
    /// Each kernel is timed as the best of [`PASSES`] passes, so a pass
    /// the scheduler interrupted does not skew the constant.
    pub fn calibrate() -> Self {
        let mut mask = vec![Fp32::from_u64(3); 1 << 16];
        let coef = Fp32::from_u64(12345);
        let src: Vec<Fp32> = (0..1 << 16).map(|i| Fp32::from_u64(i as u64)).collect();

        // field MAC: axpy over 65536 elements, repeated
        let reps = 16;
        let field_mac_ns = best_ns_per_elem(reps << 16, || {
            for _ in 0..reps {
                lsa_field::ops::axpy(&mut mask, coef, &src);
            }
        });

        // field add
        let field_add_ns = best_ns_per_elem(reps << 16, || {
            for _ in 0..reps {
                lsa_field::ops::add_assign(&mut mask, &src);
            }
        });

        // PRG expansion
        let mut prg = FieldPrg::new(Seed::from_label(b"calibrate"));
        let prg_elem_ns = best_ns_per_elem(1 << 16, || {
            let out: Vec<Fp32> = prg.expand(1 << 16);
            std::hint::black_box(&out);
        });
        std::hint::black_box(&mask);

        Self {
            field_mac_ns: field_mac_ns.max(0.1),
            field_add_ns: field_add_ns.max(0.1),
            prg_elem_ns: prg_elem_ns.max(0.1),
            shamir_op_ns: (field_mac_ns * 1.5).max(0.1),
        }
    }
}

/// Timed passes per kernel in [`KernelCosts::calibrate`].
const PASSES: usize = 4;

/// The fastest of [`PASSES`] runs of `kernel`, in nanoseconds per each
/// of the `elems` elements one run processes.
fn best_ns_per_elem(elems: usize, mut kernel: impl FnMut()) -> f64 {
    (0..PASSES)
        .map(|_| {
            let start = Instant::now();
            kernel();
            start.elapsed().as_nanos() as f64 / elems as f64
        })
        .fold(f64::INFINITY, f64::min)
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
        // a MAC cannot be cheaper than an add by more than noise (each
        // is its best pass, so one interrupted pass cannot flip this)
        assert!(c.field_mac_ns >= c.field_add_ns * 0.5);
    }

    #[test]
    fn nominal_is_default() {
        assert_eq!(KernelCosts::default(), KernelCosts::nominal());
    }
}
