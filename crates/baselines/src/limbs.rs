//! Encoding short secrets (PRG seeds, DH secret keys) as field-element
//! limbs so they can be Shamir-shared in any of the supported fields.
//!
//! 16-bit limbs are used because `2^16 < q` for every field in this
//! workspace, so each limb embeds losslessly.

use lsa_field::Field;

/// Encode bytes as little-endian 16-bit limbs (zero-padded to even
/// length).
pub(crate) fn bytes_to_limbs<F: Field>(bytes: &[u8]) -> Vec<F> {
    bytes
        .chunks(2)
        .map(|c| {
            let lo = c[0] as u64;
            let hi = c.get(1).copied().unwrap_or(0) as u64;
            F::from_u64(lo | (hi << 8))
        })
        .collect()
}

/// Decode 16-bit limbs back to `len` bytes.
///
/// # Panics
///
/// Panics if a limb exceeds 16 bits (corrupt reconstruction) or if the
/// limbs cannot cover `len` bytes.
pub(crate) fn limbs_to_bytes<F: Field>(limbs: &[F], len: usize) -> Vec<u8> {
    assert!(limbs.len() * 2 >= len, "not enough limbs for {len} bytes");
    let mut out = Vec::with_capacity(len);
    for limb in limbs {
        let v = limb.residue();
        assert!(v < (1 << 16), "limb out of 16-bit range: {v}");
        out.push((v & 0xff) as u8);
        out.push((v >> 8) as u8);
    }
    out.truncate(len);
    out
}

/// Encode a `u64` as four 16-bit limbs.
pub(crate) fn u64_to_limbs<F: Field>(value: u64) -> Vec<F> {
    bytes_to_limbs(&value.to_le_bytes())
}

/// Decode four 16-bit limbs back to a `u64`.
///
/// # Panics
///
/// Panics on corrupt limbs (see [`limbs_to_bytes`]).
pub(crate) fn limbs_to_u64<F: Field>(limbs: &[F]) -> u64 {
    let bytes = limbs_to_bytes(limbs, 8);
    u64::from_le_bytes(bytes.try_into().expect("exactly 8 bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_field::{Fp32, Fp61};

    #[test]
    fn bytes_roundtrip() {
        let data: Vec<u8> = (0..=31).collect();
        let limbs: Vec<Fp32> = bytes_to_limbs(&data);
        assert_eq!(limbs.len(), 16);
        assert_eq!(limbs_to_bytes(&limbs, 32), data);
    }

    #[test]
    fn odd_length_roundtrip() {
        let data = vec![1u8, 2, 3];
        let limbs: Vec<Fp61> = bytes_to_limbs(&data);
        assert_eq!(limbs_to_bytes(&limbs, 3), data);
    }

    #[test]
    fn u64_roundtrip() {
        for v in [0u64, 1, u64::MAX, 0xdead_beef_cafe_f00d] {
            let limbs: Vec<Fp32> = u64_to_limbs(v);
            assert_eq!(limbs_to_u64(&limbs), v, "value {v:#x}");
        }
    }

    #[test]
    #[should_panic(expected = "limb out of 16-bit range")]
    fn oversized_limb_detected() {
        let limbs = vec![Fp61::from_u64(1 << 20)];
        let _ = limbs_to_bytes(&limbs, 2);
    }
}
