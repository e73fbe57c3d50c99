//! Diffie–Hellman key agreement over a safe-prime group.
//!
//! SecAgg (Bonawitz et al. 2017) has every user pair agree on a pairwise
//! random seed `a_{i,j} = KeyAgree(sk_i, pk_j) = KeyAgree(sk_j, pk_i)`.
//! We implement classic DH in the quadratic-residue subgroup of
//! `Z_p^*` for the 62-bit safe prime
//! `p = 4611686018427377339 = 2q + 1` with generator `g = 4`.
//!
//! **Substitution note**: production deployments use
//! X25519 (~256-bit security). The 62-bit group keeps the simulation fast;
//! the protocol logic — who publishes what, which secrets are
//! Shamir-shared, how seeds feed the PRG — is identical, and none of the
//! reproduced performance results depend on the group size because key
//! agreement cost is `O(sN)` with `s ≪ d` in all compared protocols.

use crate::{sha256, Seed};
use rand::Rng;

/// The 62-bit safe prime `p = 2q + 1`.
pub const P: u64 = 4_611_686_018_427_377_339;
/// The group order `q = (p − 1)/2` (prime).
pub const Q: u64 = 2_305_843_009_213_688_669;
/// Generator of the order-`q` quadratic-residue subgroup.
pub(crate) const G: u64 = 4;

#[inline]
fn mul_mod(a: u64, b: u64) -> u64 {
    ((a as u128 * b as u128) % P as u128) as u64
}

/// `base^exp mod p` by square-and-multiply.
pub fn pow_mod(mut base: u64, mut exp: u64) -> u64 {
    let mut acc = 1u64;
    base %= P;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base);
        }
        base = mul_mod(base, base);
        exp >>= 1;
    }
    acc
}

/// A public DH key (`g^sk mod p`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PublicKey(pub u64);

/// A secret DH exponent. Kept separate from [`PublicKey`] so protocol code
/// cannot confuse the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SecretKey(u64);

impl SecretKey {
    /// The raw exponent — exposed because SecAgg Shamir-shares secret keys
    /// of dropped users so the server can finish the key agreement on
    /// their behalf.
    pub fn expose(&self) -> u64 {
        self.0
    }

    /// Rebuild a secret key from a raw exponent (e.g. after Shamir
    /// reconstruction at the server).
    pub fn from_raw(raw: u64) -> Self {
        SecretKey(raw % Q)
    }
}

/// A DH key pair.
#[derive(Debug, Clone, Copy)]
pub struct KeyPair {
    secret: SecretKey,
    public: PublicKey,
}

impl KeyPair {
    /// Generate a fresh key pair.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // sk uniform in [1, q)
        let sk = rng.gen_range(1..Q);
        Self::from_secret(SecretKey(sk))
    }

    /// Deterministically derive the key pair for a secret exponent.
    pub fn from_secret(secret: SecretKey) -> Self {
        let public = PublicKey(pow_mod(G, secret.0));
        Self { secret, public }
    }

    /// The public half.
    pub fn public_key(&self) -> PublicKey {
        self.public
    }

    /// The secret half.
    pub fn secret_key(&self) -> SecretKey {
        self.secret
    }

    /// Derive the shared seed with a peer: `SHA-256("lsa-dh" ‖ peer^sk)`.
    ///
    /// Symmetric: `a.agree(b.pk) == b.agree(a.pk)`.
    pub fn agree(&self, peer: &PublicKey) -> Seed {
        agree(&self.secret, peer)
    }
}

/// Key agreement from a raw secret key (used by the server after
/// reconstructing a dropped user's `sk` from Shamir shares).
pub fn agree(secret: &SecretKey, peer: &PublicKey) -> Seed {
    let shared = pow_mod(peer.0, secret.0);
    let mut buf = [0u8; 14 + 8];
    buf[..14].copy_from_slice(b"lsa-dh-shared\0");
    buf[14..].copy_from_slice(&shared.to_le_bytes());
    Seed(sha256::digest(&buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn group_constants_are_consistent() {
        assert_eq!(P, 2 * Q + 1);
        // g generates the order-q subgroup: g^q == 1, g != 1
        assert_eq!(pow_mod(G, Q), 1);
        assert_ne!(pow_mod(G, 1), 1);
    }

    #[test]
    fn agreement_is_symmetric() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let a = KeyPair::generate(&mut rng);
            let b = KeyPair::generate(&mut rng);
            assert_eq!(a.agree(&b.public_key()), b.agree(&a.public_key()));
        }
    }

    #[test]
    fn distinct_pairs_distinct_seeds() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = KeyPair::generate(&mut rng);
        let b = KeyPair::generate(&mut rng);
        let c = KeyPair::generate(&mut rng);
        assert_ne!(a.agree(&b.public_key()), a.agree(&c.public_key()));
    }

    #[test]
    fn reconstructed_secret_agrees() {
        // The SecAgg server path: reconstruct sk from its raw exponent and
        // complete the agreement for the dropped user.
        let mut rng = StdRng::seed_from_u64(3);
        let alice = KeyPair::generate(&mut rng);
        let bob = KeyPair::generate(&mut rng);
        let raw = alice.secret_key().expose();
        let rebuilt = SecretKey::from_raw(raw);
        assert_eq!(
            agree(&rebuilt, &bob.public_key()),
            bob.agree(&alice.public_key())
        );
    }

    #[test]
    fn pow_mod_edge_cases() {
        assert_eq!(pow_mod(G, 0), 1);
        assert_eq!(pow_mod(0, 5), 0);
        assert_eq!(pow_mod(P, 3), 0); // base reduced mod p
        assert_eq!(pow_mod(G, 1), G);
    }
}
