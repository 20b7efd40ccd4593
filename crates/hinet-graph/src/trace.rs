//! Time-varying graph traces and streaming topology providers.
//!
//! The paper's TVG is `G = (V, E, Γ, ρ, ζ)`; with the synchronous round model
//! (`ζ ≡ 1` round) the observable object is simply the sequence of per-round
//! snapshots `G_0, G_1, …` given by the presence function `ρ`. A
//! [`TvgTrace`] materialises a finite prefix of that sequence; a
//! [`TopologyProvider`] is the lazy/streaming form the simulator consumes, so
//! adversarial generators can react to unbounded round indices.

use crate::graph::Graph;
use std::sync::Arc;

/// Streaming source of per-round topology snapshots.
///
/// `graph_at(r)` must be **deterministic**: calling it twice for the same
/// round returns an equal snapshot. The simulator and the verifiers ask for
/// rounds in non-decreasing order, so a stateful generator keeps only the
/// last requested round: a later round steps its state forward, the same
/// round returns the kept snapshot, and an earlier round resets the state
/// and replays from round 0 (all generators in [`crate::generators`] derive
/// the round's randomness from `(seed, round)`). Memory is thus bounded by
/// one round, not by the horizon; a revisit costs a replay.
pub trait TopologyProvider {
    /// Number of nodes (constant over the lifetime — the paper's model has a
    /// fixed `V`; churn is in edges, not nodes).
    fn n(&self) -> usize;

    /// Topology snapshot for round `round`.
    fn graph_at(&mut self, round: usize) -> Arc<Graph>;
}

/// A finite, fully materialised TVG trace.
#[derive(Clone, Debug)]
pub struct TvgTrace {
    n: usize,
    rounds: Vec<Arc<Graph>>,
}

impl TvgTrace {
    /// Build a trace from snapshots; all must have the same node count.
    ///
    /// # Panics
    /// Panics if snapshots disagree on `n`, or if `rounds` is empty.
    pub fn new(rounds: Vec<Arc<Graph>>) -> Self {
        assert!(!rounds.is_empty(), "a trace needs at least one round");
        let n = rounds[0].n();
        assert!(
            rounds.iter().all(|g| g.n() == n),
            "all snapshots must share the node set"
        );
        TvgTrace { n, rounds }
    }

    /// Materialise the first `len` rounds of a provider.
    pub fn capture(provider: &mut dyn TopologyProvider, len: usize) -> Self {
        assert!(len > 0);
        let rounds = (0..len).map(|r| provider.graph_at(r)).collect();
        TvgTrace {
            n: provider.n(),
            rounds,
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of recorded rounds.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Whether the trace is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Snapshot at `round`.
    ///
    /// # Panics
    /// Panics if `round ≥ len()`.
    pub fn graph(&self, round: usize) -> &Arc<Graph> {
        &self.rounds[round]
    }

    /// Iterator over snapshots in round order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<Graph>> {
        self.rounds.iter()
    }

    /// Edge-intersection over the window `[start, start+len)` — the subgraph
    /// stable throughout the window.
    ///
    /// # Panics
    /// Panics if the window is empty or exceeds the trace.
    pub fn window_intersection(&self, start: usize, len: usize) -> Graph {
        assert!(len > 0, "empty window");
        assert!(start + len <= self.rounds.len(), "window exceeds trace");
        let mut acc: Graph = (*self.rounds[start]).clone();
        for g in &self.rounds[start + 1..start + len] {
            acc = acc.intersect(g);
        }
        acc
    }
}

/// Adapter: replay a materialised trace as a provider.
///
/// Rounds beyond the recorded length repeat the final snapshot, which models
/// "the network keeps its last topology" and keeps simulations that slightly
/// overshoot a trace well-defined.
#[derive(Clone, Debug)]
pub struct TraceProvider {
    trace: TvgTrace,
}

impl TraceProvider {
    /// Wrap a trace.
    pub fn new(trace: TvgTrace) -> Self {
        TraceProvider { trace }
    }

    /// The underlying trace.
    pub fn trace(&self) -> &TvgTrace {
        &self.trace
    }
}

impl TopologyProvider for TraceProvider {
    fn n(&self) -> usize {
        self.trace.n()
    }

    fn graph_at(&mut self, round: usize) -> Arc<Graph> {
        let idx = round.min(self.trace.len() - 1);
        Arc::clone(self.trace.graph(idx))
    }
}

/// Provider for a static (non-changing) topology — the degenerate
/// ∞-interval-connected case, useful as a baseline and in tests.
#[derive(Clone, Debug)]
pub struct StaticProvider {
    graph: Arc<Graph>,
}

impl StaticProvider {
    /// Wrap a single snapshot.
    pub fn new(graph: Graph) -> Self {
        StaticProvider {
            graph: Arc::new(graph),
        }
    }
}

impl TopologyProvider for StaticProvider {
    fn n(&self) -> usize {
        self.graph.n()
    }

    fn graph_at(&mut self, _round: usize) -> Arc<Graph> {
        Arc::clone(&self.graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeId;

    fn arc(g: Graph) -> Arc<Graph> {
        Arc::new(g)
    }

    #[test]
    fn trace_basic_accessors() {
        let t = TvgTrace::new(vec![arc(Graph::path(4)), arc(Graph::cycle(4))]);
        assert_eq!(t.n(), 4);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.graph(0).m(), 3);
        assert_eq!(t.graph(1).m(), 4);
    }

    #[test]
    #[should_panic(expected = "share the node set")]
    fn trace_rejects_mismatched_n() {
        let _ = TvgTrace::new(vec![arc(Graph::path(3)), arc(Graph::path(4))]);
    }

    #[test]
    fn window_intersection_is_stable_subgraph() {
        let g0 = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let g1 = Graph::from_edges(4, [(0, 1), (1, 2), (0, 3)]);
        let g2 = Graph::from_edges(4, [(0, 1), (2, 3), (1, 2)]);
        let t = TvgTrace::new(vec![arc(g0), arc(g1), arc(g2)]);
        let w = t.window_intersection(0, 3);
        assert_eq!(w.m(), 2);
        assert!(w.has_edge(NodeId(0), NodeId(1)));
        assert!(w.has_edge(NodeId(1), NodeId(2)));
        let w01 = t.window_intersection(0, 2);
        assert_eq!(w01.m(), 2);
        let single = t.window_intersection(2, 1);
        assert_eq!(single.m(), 3);
    }

    #[test]
    fn trace_provider_replays_and_clamps() {
        let t = TvgTrace::new(vec![arc(Graph::path(3)), arc(Graph::cycle(3))]);
        let mut p = TraceProvider::new(t);
        assert_eq!(p.n(), 3);
        assert_eq!(p.graph_at(0).m(), 2);
        assert_eq!(p.graph_at(1).m(), 3);
        assert_eq!(p.graph_at(99).m(), 3, "clamps to last snapshot");
    }

    #[test]
    fn static_provider_constant() {
        let mut p = StaticProvider::new(Graph::star(5));
        assert_eq!(p.n(), 5);
        assert!(Arc::ptr_eq(&p.graph_at(0), &p.graph_at(1000)));
    }

    #[test]
    fn capture_materialises_provider() {
        let mut p = StaticProvider::new(Graph::cycle(4));
        let t = TvgTrace::capture(&mut p, 5);
        assert_eq!(t.len(), 5);
        assert!(t.iter().all(|g| g.m() == 4));
    }
}
