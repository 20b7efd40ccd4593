//! Edge-Markovian dynamic graph generator (Clementi et al.).

use crate::graph::{Graph, GraphBuilder, NodeId};
use crate::rng::{stream_rng, Rng};
use crate::spanning::bfs_spanning_edges;
use crate::trace::TopologyProvider;
use std::sync::Arc;

/// Edge-Markovian dynamic graph (EMDG): every potential edge evolves as an
/// independent two-state Markov chain — an absent edge appears with *birth
/// rate* `p` and a present edge disappears with *death rate* `q`, per round.
///
/// This is the model from Clementi et al. (PODC 2008) that the paper's
/// related-work section cites, and the substrate for experiment E12
/// (the paper's future-work direction: clusters on other flat models).
///
/// With `ensure_connected = true`, each round is patched with a BFS spanning
/// forest-completion: a minimal set of extra edges connecting the components
/// (drawn deterministically), so dissemination remains solvable while the
/// Markovian churn statistics are preserved on the original edge set.
///
/// State evolves forward from round 0; only the last requested round's
/// snapshot is kept, and an earlier round is replayed from round 0, so
/// revisiting any round is exact.
#[derive(Clone, Debug)]
pub struct EdgeMarkovianGen {
    n: usize,
    p: f64,
    q: f64,
    initial_density: f64,
    seed: u64,
    ensure_connected: bool,
    /// Dense upper-triangular edge-presence state for the last computed round.
    state: Vec<bool>,
    last: Option<(usize, Arc<Graph>)>,
}

impl EdgeMarkovianGen {
    /// New EMDG over `n` nodes.
    ///
    /// * `p` — birth rate (absent → present per round), in `[0, 1]`.
    /// * `q` — death rate (present → absent per round), in `[0, 1]`.
    /// * `initial_density` — i.i.d. presence probability at round 0.
    ///
    /// # Panics
    /// Panics if `n == 0` or any rate is outside `[0, 1]`.
    pub fn new(
        n: usize,
        p: f64,
        q: f64,
        initial_density: f64,
        ensure_connected: bool,
        seed: u64,
    ) -> Self {
        assert!(n > 0, "need at least one node");
        for (name, v) in [("p", p), ("q", q), ("initial_density", initial_density)] {
            assert!((0.0..=1.0).contains(&v), "{name}={v} outside [0,1]");
        }
        EdgeMarkovianGen {
            n,
            p,
            q,
            initial_density,
            seed,
            ensure_connected,
            state: vec![false; n * (n - 1) / 2],
            last: None,
        }
    }

    /// Stationary edge density `p / (p + q)` of the per-edge chain (`None`
    /// when `p + q = 0`, i.e. the frozen chain).
    pub fn stationary_density(&self) -> Option<f64> {
        if self.p + self.q == 0.0 {
            None
        } else {
            Some(self.p / (self.p + self.q))
        }
    }

    #[inline]
    fn pair_index(n: usize, u: usize, v: usize) -> usize {
        debug_assert!(u < v && v < n);
        // Row-major upper triangle.
        u * n - u * (u + 1) / 2 + (v - u - 1)
    }

    fn snapshot_from_state(&self) -> Graph {
        let n = self.n;
        let mut b = GraphBuilder::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if self.state[Self::pair_index(n, u, v)] {
                    b.add_edge(NodeId::from_index(u), NodeId::from_index(v));
                }
            }
        }
        let g = b.build();
        if self.ensure_connected {
            super::connect_components(g)
        } else {
            g
        }
    }

    /// Evolve the edge state through round `r`, given it holds round `r − 1`.
    fn step_state(&mut self, r: usize) {
        let mut rng = stream_rng(self.seed, r as u64);
        if r == 0 {
            for s in self.state.iter_mut() {
                *s = rng.random_bool(self.initial_density);
            }
        } else {
            for s in self.state.iter_mut() {
                if *s {
                    if self.q > 0.0 && rng.random_bool(self.q) {
                        *s = false;
                    }
                } else if self.p > 0.0 && rng.random_bool(self.p) {
                    *s = true;
                }
            }
        }
    }

    /// The spanning-forest completion edges that would connect `g`'s
    /// components; exposed for tests.
    pub fn completion_edges(g: &Graph) -> usize {
        bfs_spanning_edges(g).map_or_else(
            || {
                let labels = crate::traversal::components(g);
                let mut reps = labels.clone();
                reps.sort_unstable();
                reps.dedup();
                reps.len() - 1
            },
            |_| 0,
        )
    }
}

impl TopologyProvider for EdgeMarkovianGen {
    fn n(&self) -> usize {
        self.n
    }

    fn graph_at(&mut self, round: usize) -> Arc<Graph> {
        let next = match &self.last {
            Some((r, g)) if *r == round => return Arc::clone(g),
            Some((r, _)) if *r < round => r + 1,
            _ => 0,
        };
        for r in next..=round {
            self.step_state(r);
        }
        let g = Arc::new(self.snapshot_from_state());
        self.last = Some((round, Arc::clone(&g)));
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TvgTrace;
    use crate::verify::is_always_connected;

    #[test]
    fn pair_index_bijective() {
        let n = 7;
        let mut seen = vec![false; n * (n - 1) / 2];
        for u in 0..n {
            for v in (u + 1)..n {
                let i = EdgeMarkovianGen::pair_index(n, u, v);
                assert!(!seen[i], "collision at ({u},{v})");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn frozen_chain_is_static() {
        let mut g = EdgeMarkovianGen::new(12, 0.0, 0.0, 0.4, false, 3);
        let g0 = g.graph_at(0);
        let g5 = g.graph_at(5);
        assert_eq!(*g0, *g5);
        assert!(g.stationary_density().is_none());
    }

    #[test]
    fn death_rate_one_empties_graph() {
        let mut g = EdgeMarkovianGen::new(10, 0.0, 1.0, 1.0, false, 4);
        assert_eq!(g.graph_at(0).m(), 45, "starts complete");
        assert_eq!(g.graph_at(1).m(), 0, "all edges die");
    }

    #[test]
    fn birth_rate_one_completes_graph() {
        let mut g = EdgeMarkovianGen::new(10, 1.0, 0.0, 0.0, false, 4);
        assert_eq!(g.graph_at(0).m(), 0);
        assert_eq!(g.graph_at(1).m(), 45);
    }

    #[test]
    fn density_approaches_stationary() {
        let mut g = EdgeMarkovianGen::new(40, 0.2, 0.2, 0.0, false, 9);
        let target = g.stationary_density().unwrap();
        let max_m = (40 * 39 / 2) as f64;
        // After enough rounds the density should hover near p/(p+q) = 0.5.
        let late = g.graph_at(60);
        let density = late.m() as f64 / max_m;
        assert!(
            (density - target).abs() < 0.1,
            "density {density} far from stationary {target}"
        );
    }

    #[test]
    fn patched_variant_always_connected() {
        let mut g = EdgeMarkovianGen::new(25, 0.01, 0.5, 0.02, true, 17);
        let trace = TvgTrace::capture(&mut g, 30);
        assert!(is_always_connected(&trace));
    }

    #[test]
    fn unpatched_sparse_variant_disconnects() {
        let mut g = EdgeMarkovianGen::new(25, 0.001, 0.9, 0.0, false, 17);
        let trace = TvgTrace::capture(&mut g, 10);
        assert!(!is_always_connected(&trace));
    }

    #[test]
    fn revisiting_rounds_is_exact() {
        let mut g = EdgeMarkovianGen::new(15, 0.3, 0.3, 0.5, false, 8);
        let g3 = g.graph_at(3);
        let _ = g.graph_at(20);
        assert_eq!(*g.graph_at(3), *g3);
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn rejects_bad_rates() {
        let _ = EdgeMarkovianGen::new(5, 1.5, 0.1, 0.1, false, 0);
    }
}
