//! Baseline secure-aggregation protocols: SecAgg and SecAgg+.
//!
//! These are the two state-of-the-art protocols the LightSecAgg paper
//! compares against (§3):
//!
//! * **SecAgg** (Bonawitz et al., CCS 2017) — pairwise random masks from
//!   Diffie–Hellman seeds over the *complete* graph, plus a private
//!   self-mask; dropout recovery reconstructs seeds via Shamir shares and
//!   re-expands `O(N)` PRG masks per dropped user, for `O(N²·d)` server
//!   work in the worst case.
//! * **SecAgg+** (Bell et al., CCS 2020) — the same design over a sparse
//!   `k`-regular graph with `k = O(log N)`, reducing server work to
//!   `O(N·log N·d)`.
//!
//! Both are implemented by one engine ([`secagg`]) parameterised by a
//! [`CommunicationGraph`]. The server's recovery work is instrumented
//! ([`secagg::RecoveryStats`]) because that is precisely the bottleneck
//! LightSecAgg's one-shot reconstruction removes (Table 1, Table 4 of
//! the paper).
//!
//! # Example
//!
//! ```
//! use lsa_baselines::{run_secagg_round, SecAggConfig};
//! use lsa_field::{Field, Fp61};
//! use lsa_protocol::DropoutSchedule;
//! use rand::SeedableRng;
//!
//! let cfg = SecAggConfig::secagg(4, 1, 6).unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(5);
//! let models: Vec<Vec<Fp61>> = (0..4)
//!     .map(|i| (0..6).map(|k| Fp61::from_u64((i + k) as u64)).collect())
//!     .collect();
//! let out = run_secagg_round(&cfg, &models, &DropoutSchedule::none(), &mut rng)?;
//! assert_eq!(out.included.len(), 4);
//! # Ok::<(), lsa_baselines::BaselineError>(())
//! ```

pub mod graph;
pub mod limbs;
pub mod secagg;

pub use graph::CommunicationGraph;
pub use secagg::{run_secagg_round, SecAggConfig};

use core::fmt;

/// Errors produced by the baseline protocols.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaselineError {
    /// Invalid protocol parameters.
    InvalidConfig(String),
    /// A share was delivered to the wrong user.
    MisroutedShare {
        /// Intended recipient.
        expected: usize,
        /// Actual `to` field.
        got: usize,
    },
    /// A message was exchanged between non-adjacent users.
    NotNeighbors(usize, usize),
    /// The same message arrived twice.
    DuplicateMessage(usize),
    /// A required public key is missing from the directory.
    MissingKey(usize),
    /// The server asked one helper for both the `b` share and the `sk`
    /// share of the same owner — disallowed, as it would unmask a model.
    BothSharesRequested(usize),
    /// An underlying secret-sharing/coding failure.
    Coding(lsa_coding::CodingError),
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaselineError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            BaselineError::MisroutedShare { expected, got } => {
                write!(f, "share addressed to {got} delivered to {expected}")
            }
            BaselineError::NotNeighbors(a, b) => {
                write!(f, "users {a} and {b} are not neighbours in the graph")
            }
            BaselineError::DuplicateMessage(id) => write!(f, "duplicate message from {id}"),
            BaselineError::MissingKey(id) => write!(f, "missing public key for user {id}"),
            BaselineError::BothSharesRequested(id) => {
                write!(f, "refusing to reveal both b and sk shares for user {id}")
            }
            BaselineError::Coding(e) => write!(f, "coding error: {e}"),
        }
    }
}

impl std::error::Error for BaselineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BaselineError::Coding(e) => Some(e),
            _ => None,
        }
    }
}

impl From<lsa_coding::CodingError> for BaselineError {
    fn from(e: lsa_coding::CodingError) -> Self {
        BaselineError::Coding(e)
    }
}
