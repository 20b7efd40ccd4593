//! Least-Cluster-Change (LCC) hierarchy maintenance.

use super::{assemble, GatewayPolicy};
use crate::hierarchy::Hierarchy;
use hinet_graph::graph::NodeId;
use hinet_graph::Graph;

/// Incremental cluster maintenance in the style of Chiang et al.'s
/// Least Cluster Change: instead of re-clustering from scratch each round
/// (which reshuffles heads globally on any perturbation), the hierarchy is
/// *repaired* locally:
///
/// 1. **Head clash** — when two heads become neighbors, the higher-id one
///    abdicates and joins the lower (lowest-ID semantics).
/// 2. **Orphan repair** — a non-head that lost adjacency to its head joins
///    the lowest-id adjacent head, or declares itself head if none is in
///    range (processing orphans in ascending id, so a later orphan can
///    join a head created moments earlier).
/// 3. **Gateway re-designation** — gateways are recomputed with the given
///    policy over the repaired assignment.
///
/// The payoff is exactly what the paper's stability model wants more of:
/// far fewer head-set changes and member re-affiliations per round than
/// fresh re-clustering, i.e. a larger effective `T` for the same physical
/// dynamics. Measured in the stability experiments and asserted in this
/// module's tests.
#[derive(Clone, Debug, Default)]
pub struct LccMaintainer {
    /// Head flags and assignment carried across rounds.
    state: Option<(Vec<bool>, Vec<NodeId>)>,
    policy: GatewayPolicy,
}

impl LccMaintainer {
    /// New maintainer with the given gateway policy.
    pub fn new(policy: GatewayPolicy) -> Self {
        LccMaintainer {
            state: None,
            policy,
        }
    }

    /// Advance to the next topology snapshot, returning the repaired
    /// hierarchy. The first call bootstraps with lowest-ID clustering.
    pub fn step(&mut self, g: &Graph) -> Hierarchy {
        let n = g.n();
        let (mut is_head, mut assignment) = match self.state.take() {
            Some((h, a)) if a.len() == n => (h, a),
            _ => {
                let (heads, assignment) = super::lowest_id(g);
                let mut is_head = vec![false; n];
                for &h in &heads {
                    is_head[h.index()] = true;
                }
                (is_head, assignment)
            }
        };

        // 1. Head clashes: ascending id; a head abdicates if a lower-id
        //    node that is still a head is now its neighbor.
        for u in g.nodes() {
            if !is_head[u.index()] {
                continue;
            }
            if let Some(&winner) = g
                .neighbors(u)
                .iter()
                .find(|v| v.index() < u.index() && is_head[v.index()])
            {
                is_head[u.index()] = false;
                assignment[u.index()] = winner;
            }
        }

        // 2. Orphan repair in ascending id.
        for u in g.nodes() {
            if is_head[u.index()] {
                assignment[u.index()] = u;
                continue;
            }
            let head = assignment[u.index()];
            let attached = is_head[head.index()] && g.has_edge(u, head);
            if attached {
                continue;
            }
            match g.neighbors(u).iter().copied().find(|v| is_head[v.index()]) {
                Some(h) => assignment[u.index()] = h,
                None => {
                    is_head[u.index()] = true;
                    assignment[u.index()] = u;
                }
            }
        }

        let heads: Vec<NodeId> = g.nodes().filter(|u| is_head[u.index()]).collect();
        let hierarchy = assemble(g, &heads, &assignment, self.policy);
        self.state = Some((is_head, assignment));
        hierarchy
    }
}

/// Repair a hierarchy after node crashes: given per-node `down` flags,
/// re-elect so that no *live* node depends on a crashed head.
///
/// This is the LCC orphan-repair pass specialised for the fault plane's
/// head-assassination scenarios:
///
/// * live heads keep their role; crashed heads are deposed;
/// * a live node whose head is crashed (or no longer adjacent) joins the
///   lowest-id adjacent live head, or promotes itself if none is in range
///   (ascending id, so later orphans can join heads created moments
///   earlier);
/// * crashed nodes keep their affiliation while their head stays live, and
///   otherwise become inert singleton clusters (they neither send nor
///   receive while down, so no live node ever joins them);
/// * gateways are re-designated over the repaired assignment with `policy`.
///
/// Deterministic: same `(g, h, down)` always yields the same hierarchy.
///
/// # Panics
/// Panics if `down.len() != g.n()` or the hierarchy covers a different
/// node count.
pub fn re_elect(g: &Graph, h: &Hierarchy, down: &[bool], policy: GatewayPolicy) -> Hierarchy {
    let n = g.n();
    assert_eq!(down.len(), n, "one down flag per node");
    assert_eq!(h.n(), n, "hierarchy and graph must cover the same nodes");

    let mut is_head = vec![false; n];
    for u in g.nodes() {
        if !down[u.index()] && h.is_head(u) {
            is_head[u.index()] = true;
        }
    }

    let mut assignment: Vec<NodeId> = g.nodes().collect();
    for u in g.nodes() {
        let i = u.index();
        if is_head[i] {
            continue; // assigned to itself already
        }
        // The node's current head, if it is still a live, adjacent head.
        let live_head = h
            .head_of(u)
            .filter(|&x| !down[x.index()] && is_head[x.index()] && g.has_edge(u, x));
        if down[i] {
            match live_head {
                Some(x) => assignment[i] = x,
                // Inert singleton: down nodes never send, and live nodes
                // never join a down head (the `!down` guard below).
                None => is_head[i] = true,
            }
            continue;
        }
        match live_head.or_else(|| {
            g.neighbors(u)
                .iter()
                .copied()
                .find(|v| !down[v.index()] && is_head[v.index()])
        }) {
            Some(x) => assignment[i] = x,
            None => is_head[i] = true,
        }
    }

    let heads: Vec<NodeId> = g.nodes().filter(|u| is_head[u.index()]).collect();
    assemble(g, &heads, &assignment, policy)
}

/// Provider adapter: LCC maintenance over any topology provider.
///
/// Only the last requested round's hierarchy is kept. A later round steps
/// the maintainer through every intermediate round; an earlier round
/// restarts the maintainer and replays from round 0.
pub struct LccMobilityGen<P> {
    inner: P,
    maintainer: LccMaintainer,
    last: Option<(usize, std::sync::Arc<Hierarchy>)>,
}

impl<P: hinet_graph::trace::TopologyProvider> LccMobilityGen<P> {
    /// Maintain a lowest-ID hierarchy over `inner` with LCC repair.
    pub fn new(inner: P, policy: GatewayPolicy) -> Self {
        LccMobilityGen {
            inner,
            maintainer: LccMaintainer::new(policy),
            last: None,
        }
    }
}

impl<P: hinet_graph::trace::TopologyProvider> hinet_graph::trace::TopologyProvider
    for LccMobilityGen<P>
{
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn graph_at(&mut self, round: usize) -> std::sync::Arc<Graph> {
        self.inner.graph_at(round)
    }
}

impl<P: hinet_graph::trace::TopologyProvider> crate::ctvg::HierarchyProvider for LccMobilityGen<P> {
    fn hierarchy_at(&mut self, round: usize) -> std::sync::Arc<Hierarchy> {
        let next = match &self.last {
            Some((r, h)) if *r == round => return std::sync::Arc::clone(h),
            Some((r, _)) if *r < round => r + 1,
            _ => {
                self.maintainer = LccMaintainer::new(self.maintainer.policy);
                0
            }
        };
        for r in next..=round {
            let g = self.inner.graph_at(r);
            let h = self.maintainer.step(&g);
            debug_assert_eq!(h.validate(&g), Ok(()), "LCC repair must stay valid");
            self.last = Some((r, std::sync::Arc::new(h)));
        }
        let (_, h) = self.last.as_ref().expect("the loop ends at `round`");
        std::sync::Arc::clone(h)
    }
}

#[cfg(test)]
mod tests {
    use super::super::{cluster, ClusteringKind};
    use super::*;
    use crate::audit::audit_trace;
    use crate::ctvg::CtvgTrace;
    use crate::generators::ClusteredMobilityGen;
    use hinet_graph::generators::{RandomWaypointGen, WaypointConfig};

    #[test]
    fn bootstrap_matches_lowest_id() {
        let g = Graph::path(9);
        let mut m = LccMaintainer::new(GatewayPolicy::MinimalPairwise);
        let h = m.step(&g);
        let fresh = cluster(ClusteringKind::LowestId, &g);
        assert_eq!(h.heads(), fresh.heads());
        assert_eq!(h.validate(&g), Ok(()));
    }

    #[test]
    fn static_graph_keeps_hierarchy_fixed() {
        let g = Graph::cycle(12);
        let mut m = LccMaintainer::new(GatewayPolicy::MinimalPairwise);
        let h0 = m.step(&g);
        for _ in 0..5 {
            let h = m.step(&g);
            assert_eq!(h.heads(), h0.heads());
        }
    }

    #[test]
    fn head_clash_demotes_higher_id() {
        // Two disjoint stars whose heads then become adjacent.
        let apart = Graph::from_edges(4, [(0, 1), (2, 3)]);
        let together = Graph::from_edges(4, [(0, 1), (2, 3), (0, 2)]);
        let mut m = LccMaintainer::new(GatewayPolicy::MinimalPairwise);
        let h = m.step(&apart);
        assert_eq!(h.heads(), &[NodeId(0), NodeId(2)]);
        let h = m.step(&together);
        // Head 2 abdicates to head 0; node 3's only neighbor (2) is no
        // longer a head, so orphan repair promotes 3.
        assert_eq!(h.heads(), &[NodeId(0), NodeId(3)]);
        assert_eq!(h.head_of(NodeId(2)), Some(NodeId(0)));
        assert_eq!(h.validate(&together), Ok(()));
    }

    #[test]
    fn orphan_joins_adjacent_head() {
        let before = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let mut m = LccMaintainer::new(GatewayPolicy::MinimalPairwise);
        let h = m.step(&before);
        // Lowest-ID on a path of 3: head 0 captures 1; node 2 (not
        // adjacent to 0) becomes its own head.
        assert_eq!(h.heads(), &[NodeId(0), NodeId(2)]);
        // Now 2 moves adjacent to 0: the head clash demotes 2 into 0's
        // cluster and only head 0 remains.
        let after = Graph::from_edges(3, [(0, 1), (0, 2)]);
        let h = m.step(&after);
        assert_eq!(h.heads(), &[NodeId(0)]);
        assert_eq!(h.head_of(NodeId(2)), Some(NodeId(0)));
        assert_eq!(h.validate(&after), Ok(()));
    }

    #[test]
    fn lcc_is_stabler_than_fresh_reclustering() {
        let field = || {
            RandomWaypointGen::new(
                40,
                WaypointConfig {
                    radius: 0.3,
                    min_speed: 0.005,
                    max_speed: 0.03,
                    ensure_connected: true,
                },
                13,
            )
        };
        let mut fresh = ClusteredMobilityGen::new(field(), ClusteringKind::LowestId, false);
        let mut lcc = LccMobilityGen::new(field(), GatewayPolicy::MinimalPairwise);
        let tf = CtvgTrace::capture(&mut fresh, 40);
        let tl = CtvgTrace::capture(&mut lcc, 40);
        assert_eq!(tl.validate(), Ok(()));
        let (sf, sl) = (audit_trace(&tf).churn, audit_trace(&tl).churn);
        assert!(
            sl.head_set_changes <= sf.head_set_changes,
            "LCC {} vs fresh {}",
            sl.head_set_changes,
            sf.head_set_changes
        );
        assert!(
            sl.total_reaffiliations <= sf.total_reaffiliations,
            "LCC {} vs fresh {}",
            sl.total_reaffiliations,
            sf.total_reaffiliations
        );
    }

    #[test]
    fn re_elect_with_nobody_down_changes_nothing() {
        let g = Graph::path(9);
        let h = cluster(ClusteringKind::LowestId, &g);
        let r = re_elect(&g, &h, &[false; 9], GatewayPolicy::MinimalPairwise);
        assert_eq!(r.heads(), h.heads());
        for u in g.nodes() {
            assert_eq!(r.head_of(u), h.head_of(u));
            assert_eq!(r.role(u), h.role(u));
        }
    }

    #[test]
    fn crashed_head_is_deposed_and_members_rehomed() {
        // Star: head 0, members 1..=4. Kill the head.
        let g = Graph::star(5);
        let h = cluster(ClusteringKind::LowestId, &g);
        assert_eq!(h.heads(), &[NodeId(0)]);
        let mut down = vec![false; 5];
        down[0] = true;
        let r = re_elect(&g, &h, &down, GatewayPolicy::MinimalPairwise);
        // Leaves are only adjacent to the dead hub, so each self-promotes.
        for u in 1..5 {
            assert!(r.is_head(NodeId(u)), "leaf {u} must self-promote");
        }
        // The crashed ex-head is parked as an inert singleton.
        assert!(r.is_head(NodeId(0)));
        assert_eq!(r.head_of(NodeId(0)), Some(NodeId(0)));
        assert_eq!(r.validate(&g), Ok(()));
    }

    #[test]
    fn orphans_join_live_adjacent_head_after_crash() {
        // Path 0-1-2: lowest-ID gives heads {0, 2}, member 1 under 0.
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let h = cluster(ClusteringKind::LowestId, &g);
        assert_eq!(h.head_of(NodeId(1)), Some(NodeId(0)));
        let down = vec![true, false, false];
        let r = re_elect(&g, &h, &down, GatewayPolicy::MinimalPairwise);
        assert_eq!(
            r.head_of(NodeId(1)),
            Some(NodeId(2)),
            "orphan joins the surviving head"
        );
        assert_eq!(r.validate(&g), Ok(()));
    }

    #[test]
    fn live_nodes_never_join_a_down_singleton() {
        // Path 0-1-2-3, heads {0, 2}. Crash both heads: 1 and 3 must end
        // up under live heads (each other or themselves), never under a
        // crashed node.
        let g = Graph::path(4);
        let h = cluster(ClusteringKind::LowestId, &g);
        let down = vec![true, false, true, false];
        let r = re_elect(&g, &h, &down, GatewayPolicy::MinimalPairwise);
        for u in [NodeId(1), NodeId(3)] {
            let head = r.head_of(u).expect("clustered");
            assert!(!down[head.index()], "live node {u} joined down head {head}");
        }
        assert_eq!(r.validate(&g), Ok(()));
    }

    #[test]
    fn repaired_hierarchy_always_valid_under_churn() {
        let field = RandomWaypointGen::new(
            30,
            WaypointConfig {
                radius: 0.28,
                min_speed: 0.02,
                max_speed: 0.1,
                ensure_connected: true,
            },
            21,
        );
        let mut lcc = LccMobilityGen::new(field, GatewayPolicy::AllBoundary);
        let trace = CtvgTrace::capture(&mut lcc, 30);
        assert_eq!(trace.validate(), Ok(()));
    }
}
