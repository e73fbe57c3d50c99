//! Communication graphs for pairwise masking.
//!
//! SecAgg uses the complete graph (every user pair agrees on a seed);
//! SecAgg+ replaces it with a sparse `k`-regular graph with
//! `k = O(log N)`, which cuts both the offline cost and the number of
//! pairwise masks the server must reconstruct per dropped user.
//!
//! We use the Harary construction `H_{k,n}` (each node connects to its
//! `⌈k/2⌉` nearest neighbours on each side of a ring), which is
//! deterministic, exactly `k`-regular for even `k`, and `k`-connected —
//! matching the connectivity requirement SecAgg+ needs for share
//! recovery. (Bell et al. sample a random regular graph; a deterministic
//! one with the same degree has identical cost structure, which is what
//! the reproduced experiments measure.)

/// A symmetric communication graph over `n` users.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommunicationGraph {
    /// Every pair communicates (SecAgg).
    Complete {
        /// Number of users.
        n: usize,
    },
    /// Harary ring `H_{k,n}`: neighbours at ring distance `≤ k/2`
    /// (SecAgg+).
    Harary {
        /// Number of users.
        n: usize,
        /// Even degree `k ≥ 2`.
        k: usize,
    },
}

impl CommunicationGraph {
    /// Complete graph on `n` users.
    pub(crate) fn complete(n: usize) -> Self {
        CommunicationGraph::Complete { n }
    }

    /// Harary graph with degree `k` (rounded up to even, capped at
    /// `n − 1`).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn harary(n: usize, k: usize) -> Self {
        assert!(n >= 2, "need at least 2 users");
        let k = k.max(2);
        let k = if k % 2 == 1 { k + 1 } else { k };
        if k >= n - 1 {
            // dense enough to be complete
            CommunicationGraph::Complete { n }
        } else {
            CommunicationGraph::Harary { n, k }
        }
    }

    /// The SecAgg+ default degree `k = O(log N)`: the smallest even
    /// integer `≥ c·log₂ N` (`c = 3` keeps small graphs connected under
    /// the dropout rates of the paper's experiments).
    pub fn secagg_plus_default(n: usize) -> Self {
        let k = (3.0 * (n.max(2) as f64).log2()).ceil() as usize;
        Self::harary(n, k)
    }

    /// Number of users.
    pub(crate) fn n(&self) -> usize {
        match *self {
            CommunicationGraph::Complete { n } | CommunicationGraph::Harary { n, .. } => n,
        }
    }

    /// Degree of each node.
    pub fn degree(&self) -> usize {
        match *self {
            CommunicationGraph::Complete { n } => n - 1,
            CommunicationGraph::Harary { k, .. } => k,
        }
    }

    /// Whether `i` and `j` are neighbours (irreflexive, symmetric).
    pub(crate) fn are_neighbors(&self, i: usize, j: usize) -> bool {
        if i == j {
            return false;
        }
        match *self {
            CommunicationGraph::Complete { n } => i < n && j < n,
            CommunicationGraph::Harary { n, k } => {
                let dist = {
                    let d = i.abs_diff(j);
                    d.min(n - d)
                };
                dist <= k / 2
            }
        }
    }

    /// The sorted neighbour list of `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    pub(crate) fn neighbors(&self, i: usize) -> Vec<usize> {
        let n = self.n();
        assert!(i < n, "node {i} out of range");
        (0..n).filter(|&j| self.are_neighbors(i, j)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_graph_degree() {
        let g = CommunicationGraph::complete(5);
        assert_eq!(g.degree(), 4);
        assert_eq!(g.neighbors(2), vec![0, 1, 3, 4]);
        assert!(!g.are_neighbors(2, 2));
    }

    #[test]
    fn harary_is_k_regular_and_symmetric() {
        let g = CommunicationGraph::harary(10, 4);
        for i in 0..10 {
            assert_eq!(g.neighbors(i).len(), 4, "node {i}");
            for j in g.neighbors(i) {
                assert!(g.are_neighbors(j, i), "asymmetric {i}-{j}");
            }
        }
    }

    #[test]
    fn harary_odd_degree_rounds_up() {
        let g = CommunicationGraph::harary(10, 3);
        assert_eq!(g.degree(), 4);
    }

    #[test]
    fn harary_degenerates_to_complete() {
        let g = CommunicationGraph::harary(4, 10);
        assert_eq!(g, CommunicationGraph::complete(4));
    }

    #[test]
    fn default_degree_is_logarithmic() {
        let g = CommunicationGraph::secagg_plus_default(200);
        // 3·log2(200) ≈ 22.9 → 24 (rounded to even)
        assert!(g.degree() >= 23 && g.degree() <= 24, "k = {}", g.degree());
        // and much smaller than N−1
        assert!(g.degree() < 199);
    }

    #[test]
    fn ring_distance_wraps() {
        let g = CommunicationGraph::harary(10, 2);
        assert!(g.are_neighbors(0, 9)); // wrap-around
        assert!(!g.are_neighbors(0, 5));
    }
}
