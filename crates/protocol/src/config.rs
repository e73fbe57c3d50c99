//! Protocol configuration and parameter validation.

use crate::ratchet::RatchetPolicy;
use crate::ProtocolError;

/// Design parameters of a LightSecAgg deployment (§4.1 of the paper).
///
/// * `n` — total number of users `N`;
/// * `t` — privacy guarantee `T` (maximum colluding users);
/// * `u` — targeted number of surviving users `U`;
/// * `d` — model dimension (field elements per model).
///
/// Validity requires `N ≥ U > T ≥ 0`; the implied dropout-resiliency is
/// `D = N − U` and Theorem 1's condition `T + D < N` follows
/// automatically from `U > T`.
///
/// The configuration also carries the cohort's [`RatchetPolicy`]
/// (default: ratchet on, hypercube pads, 8-round commit window): every
/// endpoint and driver built from this value reads it at construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LsaConfig {
    n: usize,
    t: usize,
    u: usize,
    d: usize,
    ratchet: RatchetPolicy,
}

impl LsaConfig {
    /// Create a configuration, validating `N ≥ U > T ≥ 0`, `N ≥ 2`,
    /// `d ≥ 1`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidConfig`] when the constraints are
    /// violated.
    pub fn new(n: usize, t: usize, u: usize, d: usize) -> Result<Self, ProtocolError> {
        if n < 2 {
            return Err(ProtocolError::InvalidConfig(format!(
                "need at least 2 users, got {n}"
            )));
        }
        if d == 0 {
            return Err(ProtocolError::InvalidConfig(
                "model dimension must be positive".into(),
            ));
        }
        if !(t < u && u <= n) {
            return Err(ProtocolError::InvalidConfig(format!(
                "need N >= U > T (got N={n}, U={u}, T={t})"
            )));
        }
        Ok(Self {
            n,
            t,
            u,
            d,
            ratchet: RatchetPolicy::default(),
        })
    }

    /// The same parameters under another [`RatchetPolicy`].
    #[must_use]
    pub fn with_ratchet(self, ratchet: RatchetPolicy) -> Self {
        Self { ratchet, ..self }
    }

    /// How a cohort built from this configuration ratchets.
    pub(crate) fn ratchet(&self) -> RatchetPolicy {
        self.ratchet
    }

    /// Total number of users `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Privacy guarantee `T`.
    pub(crate) fn t(&self) -> usize {
        self.t
    }

    /// Targeted surviving users `U`.
    pub fn u(&self) -> usize {
        self.u
    }

    /// Model dimension `d` (before padding).
    pub fn d(&self) -> usize {
        self.d
    }

    /// Number of data sub-masks `U − T` each mask is partitioned into.
    pub fn data_segments(&self) -> usize {
        self.u - self.t
    }

    /// Length of each sub-mask: `⌈d / (U−T)⌉`.
    pub fn segment_len(&self) -> usize {
        self.d.div_ceil(self.data_segments())
    }

    /// Padded model length `segment_len · (U−T)` — models are zero-padded
    /// to this before masking so the mask partitions evenly.
    pub fn padded_len(&self) -> usize {
        self.segment_len() * self.data_segments()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_config() {
        let c = LsaConfig::new(10, 4, 7, 100).unwrap();
        assert_eq!(c.data_segments(), 3);
        assert_eq!(c.segment_len(), 34); // ceil(100/3)
        assert_eq!(c.padded_len(), 102);
    }

    #[test]
    fn theorem1_boundary() {
        // D = N − U dropouts: T + D = N is rejected, T + D = N − 1 accepted
        assert!(LsaConfig::new(10, 5, 10 - 5, 10).is_err());
        assert!(LsaConfig::new(10, 5, 10 - 4, 10).is_ok());
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(LsaConfig::new(1, 0, 1, 10).is_err()); // too few users
        assert!(LsaConfig::new(5, 3, 3, 10).is_err()); // U == T
        assert!(LsaConfig::new(5, 1, 6, 10).is_err()); // U > N
        assert!(LsaConfig::new(5, 1, 3, 0).is_err()); // d == 0
    }

    #[test]
    fn exact_division_needs_no_padding() {
        let c = LsaConfig::new(8, 2, 6, 100).unwrap();
        assert_eq!(c.data_segments(), 4);
        assert_eq!(c.padded_len(), 100);
    }
}
