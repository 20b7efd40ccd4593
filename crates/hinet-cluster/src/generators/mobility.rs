//! Emergent hierarchy: clustering computed per round over any topology.

use crate::clustering::{cluster_scheme, ClusterScheme, ClusteringKind, GatewayPolicy};
use crate::ctvg::HierarchyProvider;
use crate::hierarchy::Hierarchy;
use hinet_graph::trace::TopologyProvider;
use hinet_graph::Graph;
use std::sync::Arc;

/// Wrap any [`TopologyProvider`] and derive the hierarchy each round with a
/// clustering algorithm.
///
/// Whereas [`super::HiNetGen`] *constructs* stability, here stability is
/// whatever the underlying dynamics allow — e.g. slow random-waypoint
/// mobility yields hierarchies that are stable for multiple rounds at a
/// stretch, and the stability verifiers can then measure the largest `T`
/// for which the trace happens to be a (T, L)-HiNet. This is the scenario
/// where the paper's assumption "a clustering protocol maintains the
/// hierarchy" is played out literally.
///
/// With `sticky = true` the previous round's clustering is kept whenever it
/// is still valid for the new snapshot (all members still adjacent to their
/// heads), modelling a maintenance protocol that only re-clusters on
/// violation — this dramatically increases hierarchy stability under mild
/// churn, which is exactly the effect cluster maintenance protocols exist
/// to produce.
///
/// Only the last requested round's hierarchy is kept. A later round steps
/// forward (through every intermediate round when sticky, since each
/// round's clustering depends on the previous one); an earlier round is
/// replayed from round 0.
pub struct ClusteredMobilityGen<P> {
    inner: P,
    scheme: ClusterScheme,
    sticky: bool,
    last: Option<(usize, Arc<Hierarchy>)>,
}

impl<P: TopologyProvider> ClusteredMobilityGen<P> {
    /// Wrap `inner`, clustering each round with the 1-hop algorithm `kind`
    /// under the default (minimal-pairwise) gateway policy.
    pub fn new(inner: P, kind: ClusteringKind, sticky: bool) -> Self {
        Self::with_scheme(
            inner,
            ClusterScheme::OneHop(kind, GatewayPolicy::default()),
            sticky,
        )
    }

    /// Wrap `inner` with an explicit clustering scheme (including d-hop
    /// clusters for the multi-hop experiments).
    pub fn with_scheme(inner: P, scheme: ClusterScheme, sticky: bool) -> Self {
        ClusteredMobilityGen {
            inner,
            scheme,
            sticky,
            last: None,
        }
    }

    /// The wrapped provider.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: TopologyProvider> TopologyProvider for ClusteredMobilityGen<P> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn graph_at(&mut self, round: usize) -> Arc<Graph> {
        self.inner.graph_at(round)
    }
}

impl<P: TopologyProvider> HierarchyProvider for ClusteredMobilityGen<P> {
    fn hierarchy_at(&mut self, round: usize) -> Arc<Hierarchy> {
        let next = match &self.last {
            Some((r, h)) if *r == round => return Arc::clone(h),
            Some((r, _)) if self.sticky && *r < round => r + 1,
            _ if self.sticky => 0,
            _ => round,
        };
        for r in next..=round {
            let g = self.inner.graph_at(r);
            // Sticky maintenance keeps the previous round's clustering
            // while it is still valid for the new snapshot.
            let h = match &self.last {
                Some((_, prev)) if self.sticky && r > 0 && prev.validate(&g).is_ok() => {
                    Arc::clone(prev)
                }
                _ => Arc::new(cluster_scheme(self.scheme, &g)),
            };
            self.last = Some((r, h));
        }
        let (_, h) = self.last.as_ref().expect("the loop ends at `round`");
        Arc::clone(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctvg::CtvgTrace;
    use crate::reaffiliation::churn_stats;
    use hinet_graph::generators::{RandomWaypointGen, WaypointConfig};
    use hinet_graph::trace::StaticProvider;

    fn slow_field() -> RandomWaypointGen {
        RandomWaypointGen::new(
            30,
            WaypointConfig {
                radius: 0.35,
                min_speed: 0.001,
                max_speed: 0.01,
                ensure_connected: true,
            },
            7,
        )
    }

    #[test]
    fn derived_hierarchy_validates_every_round() {
        let mut g = ClusteredMobilityGen::new(slow_field(), ClusteringKind::LowestId, false);
        let trace = CtvgTrace::capture(&mut g, 20);
        assert_eq!(trace.validate(), Ok(()));
    }

    #[test]
    fn static_topology_gives_static_hierarchy() {
        let inner = StaticProvider::new(hinet_graph::Graph::cycle(9));
        let mut g = ClusteredMobilityGen::new(inner, ClusteringKind::LowestId, false);
        let trace = CtvgTrace::capture(&mut g, 5);
        let s = churn_stats(&trace);
        assert_eq!(s.total_reaffiliations, 0);
        assert_eq!(s.head_set_changes, 0);
    }

    #[test]
    fn sticky_mode_reduces_churn() {
        let mut fresh =
            ClusteredMobilityGen::new(slow_field(), ClusteringKind::HighestDegree, false);
        let mut sticky =
            ClusteredMobilityGen::new(slow_field(), ClusteringKind::HighestDegree, true);
        let tf = CtvgTrace::capture(&mut fresh, 40);
        let ts = CtvgTrace::capture(&mut sticky, 40);
        let (sf, ss) = (churn_stats(&tf), churn_stats(&ts));
        assert!(
            ss.head_set_changes <= sf.head_set_changes,
            "sticky {} vs fresh {}",
            ss.head_set_changes,
            sf.head_set_changes
        );
        assert_eq!(ts.validate(), Ok(()));
    }

    #[test]
    fn deterministic_replay() {
        let mut a = ClusteredMobilityGen::new(slow_field(), ClusteringKind::LowestId, true);
        let mut b = ClusteredMobilityGen::new(slow_field(), ClusteringKind::LowestId, true);
        for r in 0..10 {
            assert_eq!(a.hierarchy_at(r).heads(), b.hierarchy_at(r).heads());
        }
    }
}
