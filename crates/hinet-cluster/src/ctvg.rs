//! Cluster-based time-varying graphs (CTVG, Definition 1).
//!
//! A CTVG couples the topology trace (`V, E, Γ, ρ`) with the per-round
//! hierarchy functions (`C`, `I`). [`HierarchyProvider`] is the streaming
//! form consumed by the simulator and the stability verifier; [`CtvgTrace`]
//! the materialised form, for experiments and tests that want every round
//! at once.

use crate::hierarchy::Hierarchy;
use hinet_graph::trace::{TopologyProvider, TvgTrace};
use hinet_graph::Graph;
use std::sync::Arc;

/// Streaming source of per-round `(topology, hierarchy)` pairs.
///
/// Like [`TopologyProvider`], `hierarchy_at` must be deterministic per round.
pub trait HierarchyProvider: TopologyProvider {
    /// Hierarchy in force during round `round`.
    fn hierarchy_at(&mut self, round: usize) -> Arc<Hierarchy>;
}

/// A finite, materialised CTVG trace.
#[derive(Clone, Debug)]
pub struct CtvgTrace {
    topology: TvgTrace,
    hierarchies: Vec<Arc<Hierarchy>>,
}

impl CtvgTrace {
    /// Couple a topology trace with per-round hierarchies.
    ///
    /// # Panics
    /// Panics if lengths differ or any hierarchy covers a different node
    /// count than the topology.
    pub fn new(topology: TvgTrace, hierarchies: Vec<Arc<Hierarchy>>) -> Self {
        assert_eq!(
            topology.len(),
            hierarchies.len(),
            "one hierarchy per round required"
        );
        assert!(
            hierarchies.iter().all(|h| h.n() == topology.n()),
            "hierarchy node count must match topology"
        );
        CtvgTrace {
            topology,
            hierarchies,
        }
    }

    /// Materialise the first `len` rounds of a provider.
    pub fn capture(provider: &mut dyn HierarchyProvider, len: usize) -> Self {
        assert!(len > 0);
        let mut graphs = Vec::with_capacity(len);
        let mut hierarchies = Vec::with_capacity(len);
        for r in 0..len {
            graphs.push(provider.graph_at(r));
            hierarchies.push(provider.hierarchy_at(r));
        }
        CtvgTrace {
            topology: TvgTrace::new(graphs),
            hierarchies,
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.topology.n()
    }

    /// Number of rounds.
    pub fn len(&self) -> usize {
        self.topology.len()
    }

    /// Whether the trace is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.topology.is_empty()
    }

    /// Underlying topology trace.
    pub fn topology(&self) -> &TvgTrace {
        &self.topology
    }

    /// Topology snapshot at `round`.
    pub fn graph(&self, round: usize) -> &Arc<Graph> {
        self.topology.graph(round)
    }

    /// Hierarchy at `round`.
    pub fn hierarchy(&self, round: usize) -> &Arc<Hierarchy> {
        &self.hierarchies[round]
    }

    /// Iterator over `(graph, hierarchy)` pairs in round order.
    pub fn iter(&self) -> impl Iterator<Item = (&Arc<Graph>, &Arc<Hierarchy>)> {
        self.topology.iter().zip(self.hierarchies.iter())
    }

    /// Validate every round's hierarchy against its graph.
    pub fn validate(&self) -> Result<(), (usize, crate::hierarchy::HierarchyError)> {
        for (r, (g, h)) in self.iter().enumerate() {
            h.validate(g).map_err(|e| (r, e))?;
        }
        Ok(())
    }
}

/// Replay a materialised CTVG trace as a provider (clamping past the end,
/// mirroring [`hinet_graph::trace::TraceProvider`]).
#[derive(Clone, Debug)]
pub struct CtvgTraceProvider {
    trace: CtvgTrace,
}

impl CtvgTraceProvider {
    /// Wrap a trace.
    pub fn new(trace: CtvgTrace) -> Self {
        CtvgTraceProvider { trace }
    }

    /// The underlying trace.
    pub fn trace(&self) -> &CtvgTrace {
        &self.trace
    }
}

impl TopologyProvider for CtvgTraceProvider {
    fn n(&self) -> usize {
        self.trace.n()
    }

    fn graph_at(&mut self, round: usize) -> Arc<Graph> {
        let idx = round.min(self.trace.len() - 1);
        Arc::clone(self.trace.graph(idx))
    }
}

impl HierarchyProvider for CtvgTraceProvider {
    fn hierarchy_at(&mut self, round: usize) -> Arc<Hierarchy> {
        let idx = round.min(self.trace.len() - 1);
        Arc::clone(self.trace.hierarchy(idx))
    }
}

/// Adapter giving any flat [`TopologyProvider`] a trivial hierarchy in
/// which **every node is its own cluster head**.
///
/// The flat baselines (Kuhn–Lynch–Oshman) predate clusters and ignore the
/// hierarchy entirely, but the engine's interface requires one; the
/// all-heads hierarchy is valid against every possible graph (it has no
/// member-adjacency obligations) and is role-neutral for protocols that
/// branch on roles, since `Head` is the broadcast-everything role in both
/// of the paper's algorithms.
#[derive(Clone, Debug)]
pub struct FlatProvider<P> {
    inner: P,
    hierarchy: Arc<Hierarchy>,
}

impl<P: TopologyProvider> FlatProvider<P> {
    /// Wrap a topology provider.
    pub fn new(inner: P) -> Self {
        use crate::hierarchy::{ClusterId, Role};
        use hinet_graph::graph::NodeId;
        let n = inner.n();
        let roles = vec![Role::Head; n];
        let cluster_of = (0..n)
            .map(|i| Some(ClusterId(NodeId::from_index(i))))
            .collect();
        FlatProvider {
            inner,
            hierarchy: Arc::new(Hierarchy::new(roles, cluster_of)),
        }
    }

    /// The wrapped provider.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: TopologyProvider> TopologyProvider for FlatProvider<P> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn graph_at(&mut self, round: usize) -> Arc<Graph> {
        self.inner.graph_at(round)
    }
}

impl<P: TopologyProvider> HierarchyProvider for FlatProvider<P> {
    fn hierarchy_at(&mut self, _round: usize) -> Arc<Hierarchy> {
        Arc::clone(&self.hierarchy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::single_cluster;
    use hinet_graph::graph::NodeId;

    fn star_trace(len: usize) -> CtvgTrace {
        let g = Arc::new(Graph::star(5));
        let h = Arc::new(single_cluster(5, NodeId(0)));
        let t = TvgTrace::new((0..len).map(|_| Arc::clone(&g)).collect());
        CtvgTrace::new(t, (0..len).map(|_| Arc::clone(&h)).collect())
    }

    #[test]
    fn accessors_and_validation() {
        let t = star_trace(4);
        assert_eq!(t.n(), 5);
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        assert_eq!(t.hierarchy(2).heads(), &[NodeId(0)]);
        assert_eq!(t.validate(), Ok(()));
    }

    #[test]
    fn validate_reports_round_of_failure() {
        let g_ok = Arc::new(Graph::star(4));
        let g_bad = Arc::new(Graph::path(4)); // node 3 not adjacent to 0
        let h = Arc::new(single_cluster(4, NodeId(0)));
        let t = TvgTrace::new(vec![Arc::clone(&g_ok), g_bad]);
        let trace = CtvgTrace::new(t, vec![Arc::clone(&h), h]);
        let err = trace.validate().unwrap_err();
        assert_eq!(err.0, 1, "failure should be attributed to round 1");
    }

    #[test]
    #[should_panic(expected = "one hierarchy per round")]
    fn new_rejects_length_mismatch() {
        let g = Arc::new(Graph::star(5));
        let h = Arc::new(single_cluster(5, NodeId(0)));
        let t = TvgTrace::new(vec![Arc::clone(&g), g]);
        let _ = CtvgTrace::new(t, vec![h]);
    }

    #[test]
    fn provider_clamps() {
        let mut p = CtvgTraceProvider::new(star_trace(2));
        assert_eq!(p.n(), 5);
        assert!(Arc::ptr_eq(&p.hierarchy_at(1), &p.hierarchy_at(50)));
        assert!(Arc::ptr_eq(&p.graph_at(1), &p.graph_at(50)));
    }

    #[test]
    fn capture_roundtrips() {
        let mut p = CtvgTraceProvider::new(star_trace(3));
        let t = CtvgTrace::capture(&mut p, 3);
        assert_eq!(t.len(), 3);
        assert_eq!(t.validate(), Ok(()));
    }

    #[test]
    fn flat_provider_all_heads_and_always_valid() {
        use hinet_graph::trace::StaticProvider;
        let mut p = FlatProvider::new(StaticProvider::new(Graph::path(4)));
        assert_eq!(p.n(), 4);
        let h = p.hierarchy_at(0);
        assert_eq!(h.heads().len(), 4);
        let trace = CtvgTrace::capture(&mut p, 3);
        assert_eq!(trace.validate(), Ok(()));
    }
}
