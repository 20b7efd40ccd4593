//! Property verifiers for TVG traces.
//!
//! Generators *claim* model properties (1-interval connectivity, T-interval
//! connectivity); these passes re-check the claims on concrete traces. Every
//! generator test in this workspace runs its output through the matching
//! verifier, so a generator bug cannot silently invalidate an experiment.

use crate::trace::TvgTrace;

/// Whether every snapshot of the trace is connected (1-interval
/// connectivity, the weakest model in which dissemination is solvable —
/// O'Dell & Wattenhofer).
pub fn is_always_connected(trace: &TvgTrace) -> bool {
    trace.iter().all(|g| g.is_connected())
}

/// Whether the trace is T-interval connected (Kuhn–Lynch–Oshman): for every
/// window of `t` consecutive rounds there exists a connected spanning
/// subgraph present in all rounds of the window.
///
/// Equivalently (and this is what we check): the edge-intersection of each
/// window is itself connected — the intersection contains a connected
/// spanning subgraph iff it is connected as a graph on `V`.
///
/// Sliding windows are used (every offset), which is the strict reading of
/// the definition. `t = 1` degenerates to [`is_always_connected`].
///
/// # Panics
/// Panics if `t == 0` or `t` exceeds the trace length.
pub fn is_t_interval_connected(trace: &TvgTrace, t: usize) -> bool {
    assert!(t >= 1, "T must be positive");
    assert!(t <= trace.len(), "window longer than trace");
    for start in 0..=(trace.len() - t) {
        let inter = trace.window_intersection(start, t);
        if !inter.is_connected() {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use std::sync::Arc;

    fn arc(g: Graph) -> Arc<Graph> {
        Arc::new(g)
    }

    fn static_trace(g: Graph, len: usize) -> TvgTrace {
        let a = arc(g);
        TvgTrace::new((0..len).map(|_| Arc::clone(&a)).collect())
    }

    #[test]
    fn static_connected_trace_is_infinitely_interval_connected() {
        let t = static_trace(Graph::cycle(6), 5);
        assert!(is_always_connected(&t));
        assert!(is_t_interval_connected(&t, 5));
    }

    #[test]
    fn alternating_trees_are_only_1_interval_connected() {
        // Two edge-disjoint spanning trees: each round connected, but the
        // 2-window intersection is empty, so T=2 fails.
        let t1 = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
        let t2 = Graph::from_edges(5, [(0, 2), (2, 4), (4, 1), (1, 3)]);
        let trace = TvgTrace::new(vec![arc(t1), arc(t2)]);
        assert!(is_always_connected(&trace));
        assert!(is_t_interval_connected(&trace, 1));
        assert!(!is_t_interval_connected(&trace, 2));
    }

    #[test]
    fn disconnected_round_detected() {
        let good = Graph::cycle(4);
        let bad = Graph::from_edges(4, [(0, 1), (2, 3)]);
        let trace = TvgTrace::new(vec![arc(good.clone()), arc(bad), arc(good)]);
        assert!(!is_always_connected(&trace));
        assert!(!is_t_interval_connected(&trace, 1));
    }

    #[test]
    fn stable_backbone_plus_churn_yields_window_connectivity() {
        // Backbone path stable in all rounds; extra edges differ per round.
        let backbone = Graph::path(6);
        let mut rounds = Vec::new();
        for r in 0..6usize {
            let mut b = crate::graph::GraphBuilder::new(6);
            b.add_graph(&backbone);
            let extra = (r % 4, (r + 2) % 6);
            if extra.0 != extra.1 {
                b.add_edge(
                    crate::graph::NodeId::from_index(extra.0),
                    crate::graph::NodeId::from_index(extra.1),
                );
            }
            rounds.push(arc(b.build()));
        }
        let trace = TvgTrace::new(rounds);
        assert!(is_t_interval_connected(&trace, 6));
    }
}
