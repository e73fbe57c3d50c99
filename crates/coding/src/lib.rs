//! MDS coding, interpolation, matrix algebra and Shamir secret sharing.
//!
//! This crate provides the coding-theoretic substrate of the LightSecAgg
//! protocol (So et al., MLSys 2022) and its baselines:
//!
//! * [`Matrix`] — dense matrices over a prime field with Gaussian
//!   elimination (inversion, rank), used for verification and generic
//!   decoding.
//! * [`vandermonde`] — the `T`-private `U×N` MDS matrices of Eq. (5) of the
//!   paper, realised as Vandermonde matrices over distinct non-zero points,
//!   plus efficient encoding (Horner) and decoding
//!   (Lagrange-basis coefficient recovery).
//! * polynomial interpolation (crate-private), shared by the MDS decoder
//!   and Shamir reconstruction.
//! * [`shamir`] — `t`-out-of-`n` Shamir secret sharing used by the
//!   SecAgg/SecAgg+ baselines to share PRG seeds and secret keys.
//!
//! # Example: erasure-resilient, private mask coding
//!
//! ```
//! use lsa_coding::vandermonde::VandermondeCode;
//! use lsa_field::{Field, Fp32};
//! use rand::SeedableRng;
//!
//! // N = 5 users, code dimension U = 3.
//! let code = VandermondeCode::<Fp32>::new(5, 3).unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! // U segments of length 4 (first U−T are data, last T are noise).
//! let segments: Vec<Vec<Fp32>> = (0..3)
//!     .map(|_| lsa_field::ops::random_vector(4, &mut rng))
//!     .collect();
//! let coded = code.encode_all(&segments);
//! assert_eq!(coded.len(), 5);
//! // Any U = 3 coded segments recover all original segments.
//! let subset = vec![
//!     (4usize, coded[4].clone()),
//!     (0usize, coded[0].clone()),
//!     (2usize, coded[2].clone()),
//! ];
//! let decoded = code.decode_prefix(&subset, 3).unwrap();
//! assert_eq!(decoded, segments);
//! ```

mod interpolation;
pub mod matrix;
pub mod shamir;
pub mod vandermonde;

pub use matrix::Matrix;
pub use shamir::{ShamirScheme, Share};
pub use vandermonde::VandermondeCode;

use core::fmt;

/// Errors produced by the coding layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodingError {
    /// Fewer coded symbols supplied than the code dimension requires.
    NotEnoughShares {
        /// How many shares were supplied.
        got: usize,
        /// How many shares are required.
        need: usize,
    },
    /// Two shares carried the same evaluation index.
    DuplicateShareIndex(usize),
    /// A share index was out of range for the code length.
    ShareIndexOutOfRange {
        /// The offending index.
        index: usize,
        /// The code length `n`.
        n: usize,
    },
    /// Segment/share payloads had inconsistent lengths.
    LengthMismatch {
        /// Expected payload length.
        expected: usize,
        /// Observed payload length.
        got: usize,
    },
    /// The requested code parameters are invalid (e.g. `u > n` or `u == 0`).
    InvalidParameters(String),
    /// A matrix operation failed because the matrix is singular.
    SingularMatrix,
}

impl fmt::Display for CodingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodingError::NotEnoughShares { got, need } => {
                write!(f, "not enough shares: got {got}, need {need}")
            }
            CodingError::DuplicateShareIndex(i) => {
                write!(f, "duplicate share index {i}")
            }
            CodingError::ShareIndexOutOfRange { index, n } => {
                write!(f, "share index {index} out of range for code length {n}")
            }
            CodingError::LengthMismatch { expected, got } => {
                write!(f, "payload length mismatch: expected {expected}, got {got}")
            }
            CodingError::InvalidParameters(msg) => {
                write!(f, "invalid code parameters: {msg}")
            }
            CodingError::SingularMatrix => write!(f, "matrix is singular"),
        }
    }
}

impl std::error::Error for CodingError {}
