//! 1-interval-connected maximal-churn generator.

use crate::graph::{Graph, GraphBuilder, NodeId};
use crate::rng::{mix, stream_rng, Rng};
use crate::spanning::{random_attachment_tree, random_path_backbone};
use crate::trace::TopologyProvider;
use std::sync::Arc;

/// Generator for the weakest solvable dynamics: each round's snapshot is
/// connected, but the connecting subgraph is re-randomised *every round*,
/// so no edge is guaranteed to survive even one round boundary.
///
/// This is the adversary the 1-interval-connected baselines (and the paper's
/// Algorithm 2) are measured against. With `worst_case = true` the per-round
/// skeleton is a Hamiltonian path (diameter `n−1`), which maximises the
/// number of rounds flooding needs; otherwise a random attachment tree.
#[derive(Clone, Debug)]
pub struct OneIntervalGen {
    n: usize,
    seed: u64,
    worst_case: bool,
    noise_edges: usize,
}

impl OneIntervalGen {
    /// New generator over `n ≥ 1` nodes.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize, worst_case: bool, noise_edges: usize, seed: u64) -> Self {
        assert!(n > 0, "need at least one node");
        OneIntervalGen {
            n,
            seed,
            worst_case,
            noise_edges,
        }
    }
}

impl TopologyProvider for OneIntervalGen {
    fn n(&self) -> usize {
        self.n
    }

    fn graph_at(&mut self, round: usize) -> Arc<Graph> {
        let mut rng = stream_rng(self.seed, mix(0x51a1, round as u64));
        let skeleton = if self.worst_case {
            random_path_backbone(self.n, &mut rng)
        } else {
            random_attachment_tree(self.n, &mut rng)
        };
        let mut b = GraphBuilder::new(self.n);
        b.add_graph(&skeleton);
        if self.n >= 2 {
            for _ in 0..self.noise_edges {
                let u = rng.random_range(0..self.n);
                let mut v = rng.random_range(0..self.n - 1);
                if v >= u {
                    v += 1;
                }
                b.add_edge(NodeId::from_index(u), NodeId::from_index(v));
            }
        }
        Arc::new(b.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TvgTrace;
    use crate::verify::{is_always_connected, is_t_interval_connected};

    #[test]
    fn always_connected() {
        let mut g = OneIntervalGen::new(35, true, 8, 13);
        let trace = TvgTrace::capture(&mut g, 40);
        assert!(is_always_connected(&trace));
    }

    #[test]
    fn usually_not_2_interval_connected() {
        // With fresh random Hamiltonian paths each round and no noise the
        // intersection of consecutive rounds is almost surely disconnected.
        let mut g = OneIntervalGen::new(40, true, 0, 21);
        let trace = TvgTrace::capture(&mut g, 20);
        assert!(is_t_interval_connected(&trace, 1));
        assert!(!is_t_interval_connected(&trace, 2));
    }

    #[test]
    fn deterministic_replay() {
        let mut a = OneIntervalGen::new(12, false, 3, 5);
        let mut b = OneIntervalGen::new(12, false, 3, 5);
        for r in 0..10 {
            assert_eq!(*a.graph_at(r), *b.graph_at(r));
        }
    }

    #[test]
    fn rounds_differ() {
        let mut g = OneIntervalGen::new(30, true, 0, 2);
        assert_ne!(*g.graph_at(0), *g.graph_at(1));
    }

    #[test]
    fn single_node() {
        let mut g = OneIntervalGen::new(1, true, 2, 0);
        assert_eq!(g.graph_at(5).m(), 0);
    }
}
