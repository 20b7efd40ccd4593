//! The per-round cluster hierarchy: the `C` and `I` functions of CTVG.

use hinet_graph::graph::NodeId;
use hinet_graph::Graph;
use std::fmt;

/// Identifier of a cluster. Following the paper, "the node ID of \[the\]
/// cluster head is used as the cluster ID".
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterId(pub NodeId);

impl ClusterId {
    /// The head node of this cluster.
    #[inline]
    pub fn head(self) -> NodeId {
        self.0
    }
}

impl fmt::Debug for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0 .0)
    }
}

/// Node status in the hierarchy — the codomain of the CTVG function `C`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Role {
    /// Cluster head (`h`).
    Head,
    /// Gateway (`g`): forwards packets between clusters along the head
    /// backbone.
    Gateway,
    /// Ordinary cluster member (`m`).
    Member,
}

/// Violations detected by [`Hierarchy::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HierarchyError {
    /// A node in `heads` does not have `Role::Head`, or vice versa.
    RoleHeadMismatch(NodeId),
    /// A head's own cluster id is not itself.
    HeadClusterSelf(NodeId),
    /// A node references a cluster whose head is not in the head set.
    DanglingCluster(NodeId, ClusterId),
    /// A member is not adjacent to its cluster head in the round's graph.
    MemberNotAdjacent(NodeId, ClusterId),
    /// A gateway or member has no cluster assignment.
    MissingCluster(NodeId),
    /// Multi-hop: a node's parent edge is absent from the round's graph.
    ParentNotAdjacent(NodeId, NodeId),
    /// Multi-hop: a node's parent belongs to a different cluster.
    ParentOutsideCluster(NodeId, NodeId),
    /// Multi-hop: a node's parent chain never reaches its head.
    BrokenParentChain(NodeId),
    /// Structure sizes disagree with the graph's node count.
    SizeMismatch {
        /// Nodes in the hierarchy.
        hierarchy: usize,
        /// Nodes in the graph.
        graph: usize,
    },
}

impl fmt::Display for HierarchyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HierarchyError::RoleHeadMismatch(u) => write!(f, "role/head-set mismatch at {u}"),
            HierarchyError::HeadClusterSelf(u) => write!(f, "head {u} not in its own cluster"),
            HierarchyError::DanglingCluster(u, c) => {
                write!(f, "{u} references cluster {c:?} with no head")
            }
            HierarchyError::MemberNotAdjacent(u, c) => {
                write!(f, "member {u} not adjacent to head of {c:?}")
            }
            HierarchyError::MissingCluster(u) => write!(f, "{u} has no cluster"),
            HierarchyError::ParentNotAdjacent(u, p) => {
                write!(f, "{u}'s parent {p} is not a neighbor")
            }
            HierarchyError::ParentOutsideCluster(u, p) => {
                write!(f, "{u}'s parent {p} is in a different cluster")
            }
            HierarchyError::BrokenParentChain(u) => {
                write!(f, "{u}'s parent chain never reaches its head")
            }
            HierarchyError::SizeMismatch { hierarchy, graph } => {
                write!(f, "hierarchy over {hierarchy} nodes, graph has {graph}")
            }
        }
    }
}

impl std::error::Error for HierarchyError {}

/// One round's cluster-based hierarchy: roles (`C`) and cluster membership
/// (`I`) for every node.
///
/// Invariants (checked by [`Hierarchy::validate`] against the round's graph):
///
/// 1. `heads` is sorted, duplicate-free, and agrees with `Role::Head`.
/// 2. Every head belongs to its own cluster.
/// 3. Every referenced cluster id is a head.
/// 4. Every **member** is adjacent to its cluster head (the paper: "the
///    members of a cluster are neighbors of the cluster head").
/// 5. Gateways have a cluster assignment but are *not* required to be
///    adjacent to their head: for `L > 3` the backbone chains between heads
///    are longer than one hop, so intermediate gateways may sit several hops
///    from every head. (For the paper's 1-hop clusters, `L ≤ 3` and gateways
///    happen to be adjacent too.)
#[derive(Clone, PartialEq, Eq)]
pub struct Hierarchy {
    roles: Vec<Role>,
    cluster_of: Vec<Option<ClusterId>>,
    heads: Vec<NodeId>,
    /// Next hop toward the cluster head, for multi-hop clusters. `None`
    /// entries mean "the head itself is the parent" (the 1-hop case).
    parent: Vec<Option<NodeId>>,
    /// Whether any node's parent differs from its head (d-hop clusters,
    /// the paper's §VI future work). Switches [`Hierarchy::validate`] from
    /// member–head adjacency to parent-chain validation.
    multi_hop: bool,
}

impl fmt::Debug for Hierarchy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Hierarchy")
            .field("n", &self.roles.len())
            .field("heads", &self.heads.len())
            .finish()
    }
}

impl Hierarchy {
    /// Build a hierarchy from per-node roles and cluster assignments.
    ///
    /// The head set is derived from `roles`. Structural invariants that do
    /// not need the graph (1–3 above) are enforced here; graph-dependent
    /// ones are checked by [`Hierarchy::validate`].
    ///
    /// # Panics
    /// Panics if `roles` and `cluster_of` lengths differ, a head is not its
    /// own cluster, or a cluster id is not a head.
    pub fn new(roles: Vec<Role>, cluster_of: Vec<Option<ClusterId>>) -> Self {
        assert_eq!(
            roles.len(),
            cluster_of.len(),
            "roles/cluster length mismatch"
        );
        let heads: Vec<NodeId> = roles
            .iter()
            .enumerate()
            .filter(|(_, r)| **r == Role::Head)
            .map(|(i, _)| NodeId::from_index(i))
            .collect();
        for &h in &heads {
            assert_eq!(
                cluster_of[h.index()],
                Some(ClusterId(h)),
                "head {h} must be in its own cluster"
            );
        }
        for (i, c) in cluster_of.iter().enumerate() {
            if let Some(c) = c {
                assert!(
                    heads.binary_search(&c.head()).is_ok(),
                    "node {i} references non-head cluster {c:?}"
                );
            }
        }
        let n = roles.len();
        Hierarchy {
            roles,
            cluster_of,
            heads,
            parent: vec![None; n],
            multi_hop: false,
        }
    }

    /// Build a **multi-hop** hierarchy: `parent[u]` is `u`'s next hop
    /// toward its head (must be `None` for heads, `Some` for everyone
    /// clustered). Member–head adjacency is *not* required; instead
    /// [`Hierarchy::validate`] checks that each parent edge exists, stays
    /// within the cluster, and that parent chains reach the head without
    /// cycles.
    ///
    /// # Panics
    /// Panics on the same structural violations as [`Hierarchy::new`], or
    /// if a head has a parent / a clustered non-head lacks one.
    pub fn with_parents(
        roles: Vec<Role>,
        cluster_of: Vec<Option<ClusterId>>,
        parent: Vec<Option<NodeId>>,
    ) -> Self {
        let mut h = Hierarchy::new(roles, cluster_of);
        assert_eq!(parent.len(), h.n(), "parent/roles length mismatch");
        for u in (0..h.n()).map(NodeId::from_index) {
            match (h.roles[u.index()], parent[u.index()]) {
                (Role::Head, Some(p)) => panic!("head {u} must not have a parent (got {p})"),
                (Role::Head, None) => {}
                (_, None) if h.cluster_of[u.index()].is_some() => {
                    panic!("clustered non-head {u} needs a parent")
                }
                _ => {}
            }
        }
        h.multi_hop = parent
            .iter()
            .enumerate()
            .any(|(i, p)| matches!(p, Some(p) if Some(*p) != h.cluster_of[i].map(ClusterId::head)));
        h.parent = parent;
        h
    }

    /// `u`'s next hop toward its head: the explicit parent if one was set,
    /// otherwise the head itself (1-hop case). `None` for heads and
    /// unclustered nodes.
    pub fn parent_of(&self, u: NodeId) -> Option<NodeId> {
        if self.roles[u.index()] == Role::Head {
            return None;
        }
        self.parent[u.index()].or_else(|| self.head_of(u))
    }

    /// Hop distance from `u` to its head along the parent chain (0 for a
    /// head). `None` for unclustered nodes or broken chains.
    pub fn depth_of(&self, u: NodeId) -> Option<usize> {
        if self.is_head(u) {
            return Some(0);
        }
        self.cluster_of(u)?;
        let mut cur = u;
        for depth in 1..=self.n() {
            let p = self.parent_of(cur)?;
            if self.is_head(p) {
                return Some(depth);
            }
            cur = p;
        }
        None
    }

    /// Number of nodes covered.
    #[inline]
    pub fn n(&self) -> usize {
        self.roles.len()
    }

    /// Sorted set of cluster heads — `V_h` in the paper.
    #[inline]
    pub fn heads(&self) -> &[NodeId] {
        &self.heads
    }

    /// Role of `u` — the CTVG function `C`.
    #[inline]
    pub fn role(&self, u: NodeId) -> Role {
        self.roles[u.index()]
    }

    /// Cluster of `u` — the CTVG function `I` (or `None` if unclustered).
    #[inline]
    pub fn cluster_of(&self, u: NodeId) -> Option<ClusterId> {
        self.cluster_of[u.index()]
    }

    /// The head node `u` reports to (`None` if unclustered). For a head this
    /// is itself.
    #[inline]
    pub fn head_of(&self, u: NodeId) -> Option<NodeId> {
        self.cluster_of[u.index()].map(ClusterId::head)
    }

    /// Whether `u` is a cluster head.
    #[inline]
    pub fn is_head(&self, u: NodeId) -> bool {
        self.roles[u.index()] == Role::Head
    }

    /// Member set `M_k` of cluster `k` (every node assigned to `k`,
    /// including the head itself and gateways assigned to `k`), sorted.
    pub fn members_of(&self, k: ClusterId) -> Vec<NodeId> {
        (0..self.n())
            .map(NodeId::from_index)
            .filter(|&u| self.cluster_of[u.index()] == Some(k))
            .collect()
    }

    /// Number of nodes with [`Role::Member`].
    pub fn member_count(&self) -> usize {
        self.roles.iter().filter(|r| **r == Role::Member).count()
    }

    /// Number of nodes with [`Role::Gateway`].
    pub fn gateway_count(&self) -> usize {
        self.roles.iter().filter(|r| **r == Role::Gateway).count()
    }

    /// Validate graph-dependent invariants against the round's topology.
    ///
    /// For 1-hop hierarchies this enforces member–head adjacency (the
    /// paper's system model); for multi-hop hierarchies (built via
    /// [`Hierarchy::with_parents`]) it instead enforces that every
    /// clustered non-head's parent edge is present, stays inside the
    /// cluster, and that the parent chain reaches the head.
    pub fn validate(&self, g: &Graph) -> Result<(), HierarchyError> {
        if g.n() != self.n() {
            return Err(HierarchyError::SizeMismatch {
                hierarchy: self.n(),
                graph: g.n(),
            });
        }
        for u in (0..self.n()).map(NodeId::from_index) {
            match self.roles[u.index()] {
                Role::Head => {
                    if self.heads.binary_search(&u).is_err() {
                        return Err(HierarchyError::RoleHeadMismatch(u));
                    }
                    if self.cluster_of[u.index()] != Some(ClusterId(u)) {
                        return Err(HierarchyError::HeadClusterSelf(u));
                    }
                }
                Role::Member | Role::Gateway => {
                    let Some(c) = self.cluster_of[u.index()] else {
                        return Err(HierarchyError::MissingCluster(u));
                    };
                    if self.heads.binary_search(&c.head()).is_err() {
                        return Err(HierarchyError::DanglingCluster(u, c));
                    }
                    if self.multi_hop {
                        let p = self
                            .parent_of(u)
                            .ok_or(HierarchyError::BrokenParentChain(u))?;
                        if !g.has_edge(u, p) {
                            return Err(HierarchyError::ParentNotAdjacent(u, p));
                        }
                        if self.cluster_of[p.index()] != Some(c) {
                            return Err(HierarchyError::ParentOutsideCluster(u, p));
                        }
                        if self.depth_of(u).is_none() {
                            return Err(HierarchyError::BrokenParentChain(u));
                        }
                    } else if self.roles[u.index()] == Role::Member && !g.has_edge(u, c.head()) {
                        return Err(HierarchyError::MemberNotAdjacent(u, c));
                    }
                }
            }
        }
        Ok(())
    }

    /// The L-hop cluster-head connectivity of this hierarchy in graph `g`
    /// (Definition 6): the smallest `L` such that the graph on heads with
    /// "within distance `L` of each other" edges is connected. `None` if the
    /// heads cannot be mutually reached at all, `Some(0)` for ≤1 head.
    ///
    /// `L` is the largest edge of a minimum spanning tree over the complete
    /// head-distance graph (its bottleneck, or minimax, value), found
    /// without computing any pairwise distance:
    ///
    /// 1. One BFS seeded from every head at once. Each reached node inherits
    ///    its BFS parent's head, giving graph Voronoi regions and each node's
    ///    distance `d` to its region's head.
    /// 2. Kruskal over the boundary edges `(u, v)` (endpoints in different
    ///    regions), weighted `d(u) + 1 + d(v)`. The union that leaves one
    ///    component gives `L`; if components remain, the heads are split.
    ///
    /// By Mehlhorn ("A faster approximation algorithm for the Steiner
    /// problem in graphs", IPL 27, 1988) a minimum spanning tree of this
    /// boundary graph is one of the complete head-distance graph, so its
    /// largest edge is exactly the minimax `L`. Cost: O(n + m + b log b) for
    /// b boundary edges, against O(|H|·(n + m) + |H|² log |H|) for a BFS per
    /// head.
    pub fn l_hop_connectivity(&self, g: &Graph) -> Option<usize> {
        let h = self.heads.len();
        if h <= 1 {
            return Some(0);
        }
        const UNREACHED: u32 = u32::MAX;
        // Multi-source BFS: `region[v]` is the index (into `heads`) of v's
        // head, `dist[v]` its hop distance; `queue` ends up holding every
        // node reachable from a head, in BFS order.
        let mut region = vec![UNREACHED; g.n()];
        let mut dist = vec![0u32; g.n()];
        let mut queue: Vec<NodeId> = Vec::with_capacity(g.n());
        for (i, &hd) in self.heads.iter().enumerate() {
            region[hd.index()] = i as u32;
            queue.push(hd);
        }
        let mut next = 0;
        while let Some(&u) = queue.get(next) {
            next += 1;
            let (ru, du) = (region[u.index()], dist[u.index()]);
            for &v in g.neighbors(u) {
                if region[v.index()] == UNREACHED {
                    region[v.index()] = ru;
                    dist[v.index()] = du + 1;
                    queue.push(v);
                }
            }
        }
        // Boundary edges, each once (u < v), as (weight, region, region).
        let mut boundary: Vec<(u32, u32, u32)> = Vec::new();
        for &u in &queue {
            let ru = region[u.index()];
            for &v in g.neighbors(u) {
                let rv = region[v.index()];
                if u < v && rv != ru {
                    boundary.push((dist[u.index()] + 1 + dist[v.index()], ru, rv));
                }
            }
        }
        boundary.sort_unstable();
        // Union-find over head indices.
        let mut parent: Vec<usize> = (0..h).collect();
        fn find(parent: &mut [usize], x: usize) -> usize {
            let mut root = x;
            while parent[root] != root {
                root = parent[root];
            }
            let mut cur = x;
            while parent[cur] != root {
                let next = parent[cur];
                parent[cur] = root;
                cur = next;
            }
            root
        }
        let mut components = h;
        for (w, i, j) in boundary {
            let (ri, rj) = (find(&mut parent, i as usize), find(&mut parent, j as usize));
            if ri != rj {
                parent[ri] = rj;
                components -= 1;
                if components == 1 {
                    return Some(w as usize);
                }
            }
        }
        None
    }
}

/// Size/shape summary of one hierarchy, for experiment reports.
#[derive(Clone, Debug, PartialEq)]
pub struct HierarchySummary {
    /// Number of clusters (= heads).
    pub clusters: usize,
    /// Gateway count.
    pub gateways: usize,
    /// Member count.
    pub members: usize,
    /// Smallest cluster size (counting the head).
    pub min_cluster: usize,
    /// Largest cluster size.
    pub max_cluster: usize,
    /// Mean cluster size.
    pub mean_cluster: f64,
    /// Maximum member depth (1 for 1-hop hierarchies).
    pub max_depth: usize,
}

impl Hierarchy {
    /// Compute the [`HierarchySummary`].
    pub fn summary(&self) -> HierarchySummary {
        let mut sizes: Vec<usize> = Vec::with_capacity(self.heads.len());
        for &h in &self.heads {
            sizes.push(self.members_of(ClusterId(h)).len());
        }
        let (min_cluster, max_cluster) = sizes
            .iter()
            .fold((usize::MAX, 0), |(lo, hi), &s| (lo.min(s), hi.max(s)));
        let total: usize = sizes.iter().sum();
        let max_depth = (0..self.n())
            .filter_map(|i| self.depth_of(NodeId::from_index(i)))
            .max()
            .unwrap_or(0);
        HierarchySummary {
            clusters: self.heads.len(),
            gateways: self.gateway_count(),
            members: self.member_count(),
            min_cluster: if sizes.is_empty() { 0 } else { min_cluster },
            max_cluster,
            mean_cluster: if sizes.is_empty() {
                0.0
            } else {
                total as f64 / sizes.len() as f64
            },
            max_depth,
        }
    }
}

/// Convenience: build the hierarchy of a single cluster spanning the whole
/// star around `head` (used in tests and the quickstart example).
pub fn single_cluster(n: usize, head: NodeId) -> Hierarchy {
    let mut roles = vec![Role::Member; n];
    roles[head.index()] = Role::Head;
    let cluster_of = vec![Some(ClusterId(head)); n];
    Hierarchy::new(roles, cluster_of)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    /// Fig-1-style network: two clusters with a gateway chain between heads.
    /// Heads: 0 and 4. Members: 1,2 → 0; 5,6 → 4. Gateway: 3 (cluster 0).
    fn two_cluster_fixture() -> (Graph, Hierarchy) {
        let g = Graph::from_edges(7, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (4, 6)]);
        let roles = vec![
            Role::Head,    // 0
            Role::Member,  // 1
            Role::Member,  // 2
            Role::Gateway, // 3
            Role::Head,    // 4
            Role::Member,  // 5
            Role::Member,  // 6
        ];
        let c0 = Some(ClusterId(nid(0)));
        let c4 = Some(ClusterId(nid(4)));
        let cluster_of = vec![c0, c0, c0, c0, c4, c4, c4];
        (g, Hierarchy::new(roles, cluster_of))
    }

    #[test]
    fn fixture_is_valid() {
        let (g, h) = two_cluster_fixture();
        assert_eq!(h.validate(&g), Ok(()));
        assert_eq!(h.heads(), &[nid(0), nid(4)]);
        assert_eq!(h.member_count(), 4);
        assert_eq!(h.gateway_count(), 1);
        assert_eq!(h.head_of(nid(5)), Some(nid(4)));
        assert_eq!(h.head_of(nid(3)), Some(nid(0)));
        assert!(h.is_head(nid(0)));
        assert!(!h.is_head(nid(3)));
    }

    #[test]
    fn members_of_lists_cluster() {
        let (_, h) = two_cluster_fixture();
        assert_eq!(
            h.members_of(ClusterId(nid(0))),
            vec![nid(0), nid(1), nid(2), nid(3)]
        );
        assert_eq!(
            h.members_of(ClusterId(nid(4))),
            vec![nid(4), nid(5), nid(6)]
        );
    }

    #[test]
    fn l_hop_connectivity_through_gateway() {
        let (g, h) = two_cluster_fixture();
        // Heads 0 and 4 are at distance 2 through gateway 3.
        assert_eq!(h.l_hop_connectivity(&g), Some(2));
    }

    #[test]
    fn l_hop_zero_for_single_head() {
        let h = single_cluster(5, nid(0));
        let g = Graph::star(5);
        assert_eq!(h.validate(&g), Ok(()));
        assert_eq!(h.l_hop_connectivity(&g), Some(0));
    }

    #[test]
    fn l_hop_none_when_heads_disconnected() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
        let roles = vec![Role::Head, Role::Member, Role::Head, Role::Member];
        let cluster_of = vec![
            Some(ClusterId(nid(0))),
            Some(ClusterId(nid(0))),
            Some(ClusterId(nid(2))),
            Some(ClusterId(nid(2))),
        ];
        let h = Hierarchy::new(roles, cluster_of);
        assert_eq!(h.validate(&g), Ok(()));
        assert_eq!(h.l_hop_connectivity(&g), None);
    }

    #[test]
    fn validate_rejects_nonadjacent_member() {
        let g = Graph::from_edges(3, [(0, 1)]);
        let roles = vec![Role::Head, Role::Member, Role::Member];
        let c0 = Some(ClusterId(nid(0)));
        let h = Hierarchy::new(roles, vec![c0, c0, c0]);
        assert_eq!(
            h.validate(&g),
            Err(HierarchyError::MemberNotAdjacent(nid(2), ClusterId(nid(0))))
        );
    }

    #[test]
    fn validate_rejects_missing_cluster() {
        let g = Graph::path(3);
        let roles = vec![Role::Head, Role::Member, Role::Member];
        let c0 = Some(ClusterId(nid(0)));
        let h = Hierarchy::new(roles, vec![c0, c0, None]);
        assert_eq!(h.validate(&g), Err(HierarchyError::MissingCluster(nid(2))));
    }

    #[test]
    fn validate_rejects_size_mismatch() {
        let h = single_cluster(3, nid(0));
        let g = Graph::star(4);
        assert!(matches!(
            h.validate(&g),
            Err(HierarchyError::SizeMismatch { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "must be in its own cluster")]
    fn new_rejects_head_outside_own_cluster() {
        let roles = vec![Role::Head, Role::Head];
        let c0 = Some(ClusterId(nid(0)));
        let _ = Hierarchy::new(roles, vec![c0, c0]);
    }

    #[test]
    #[should_panic(expected = "references non-head cluster")]
    fn new_rejects_dangling_cluster() {
        let roles = vec![Role::Head, Role::Member];
        let _ = Hierarchy::new(
            roles,
            vec![Some(ClusterId(nid(0))), Some(ClusterId(nid(1)))],
        );
    }

    #[test]
    fn summary_of_two_cluster_fixture() {
        let (_, h) = two_cluster_fixture();
        let s = h.summary();
        assert_eq!(s.clusters, 2);
        assert_eq!(s.gateways, 1);
        assert_eq!(s.members, 4);
        assert_eq!(s.min_cluster, 3);
        assert_eq!(s.max_cluster, 4);
        assert!((s.mean_cluster - 3.5).abs() < 1e-12);
        assert_eq!(s.max_depth, 1);
    }

    /// 2-hop cluster: head 0, member 1 adjacent, member 2 behind 1.
    fn two_hop_fixture() -> (Graph, Hierarchy) {
        let g = Graph::path(3);
        let roles = vec![Role::Head, Role::Member, Role::Member];
        let c0 = Some(ClusterId(nid(0)));
        let parent = vec![None, Some(nid(0)), Some(nid(1))];
        (g, Hierarchy::with_parents(roles, vec![c0, c0, c0], parent))
    }

    #[test]
    fn multi_hop_hierarchy_validates() {
        let (g, h) = two_hop_fixture();
        assert!(h.multi_hop);
        assert_eq!(h.validate(&g), Ok(()));
        assert_eq!(h.parent_of(nid(1)), Some(nid(0)));
        assert_eq!(h.parent_of(nid(2)), Some(nid(1)));
        assert_eq!(h.parent_of(nid(0)), None);
        assert_eq!(h.depth_of(nid(0)), Some(0));
        assert_eq!(h.depth_of(nid(1)), Some(1));
        assert_eq!(h.depth_of(nid(2)), Some(2));
    }

    #[test]
    fn one_hop_parent_defaults_to_head() {
        let h = single_cluster(4, nid(0));
        assert!(!h.multi_hop);
        assert_eq!(h.parent_of(nid(3)), Some(nid(0)));
        assert_eq!(h.depth_of(nid(3)), Some(1));
    }

    #[test]
    fn multi_hop_rejects_missing_parent_edge() {
        // Parent chain declares 2 → 1 but the edge 1–2 is absent.
        let g = Graph::from_edges(3, [(0, 1), (0, 2)]);
        let roles = vec![Role::Head, Role::Member, Role::Member];
        let c0 = Some(ClusterId(nid(0)));
        let parent = vec![None, Some(nid(0)), Some(nid(1))];
        let h = Hierarchy::with_parents(roles, vec![c0, c0, c0], parent);
        assert_eq!(
            h.validate(&g),
            Err(HierarchyError::ParentNotAdjacent(nid(2), nid(1)))
        );
    }

    #[test]
    fn multi_hop_rejects_cross_cluster_parent() {
        let g = Graph::path(4);
        let roles = vec![Role::Head, Role::Member, Role::Member, Role::Head];
        let c0 = Some(ClusterId(nid(0)));
        let c3 = Some(ClusterId(nid(3)));
        // Node 2 is in cluster 3 but its parent 1 is in cluster 0.
        let parent = vec![None, Some(nid(0)), Some(nid(1)), None];
        let h = Hierarchy::with_parents(roles, vec![c0, c0, c3, c3], parent);
        assert_eq!(
            h.validate(&g),
            Err(HierarchyError::ParentOutsideCluster(nid(2), nid(1)))
        );
    }

    #[test]
    fn multi_hop_detects_parent_cycle() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
        let roles = vec![Role::Head, Role::Member, Role::Member];
        let c0 = Some(ClusterId(nid(0)));
        // 1 and 2 point at each other: chain never reaches head 0.
        let parent = vec![None, Some(nid(2)), Some(nid(1))];
        let h = Hierarchy::with_parents(roles, vec![c0, c0, c0], parent);
        assert_eq!(h.depth_of(nid(1)), None);
        assert_eq!(
            h.validate(&g),
            Err(HierarchyError::BrokenParentChain(nid(1)))
        );
    }

    #[test]
    #[should_panic(expected = "must not have a parent")]
    fn with_parents_rejects_head_parent() {
        let roles = vec![Role::Head, Role::Member];
        let c0 = Some(ClusterId(nid(0)));
        let _ = Hierarchy::with_parents(roles, vec![c0, c0], vec![Some(nid(1)), Some(nid(0))]);
    }

    #[test]
    #[should_panic(expected = "needs a parent")]
    fn with_parents_rejects_orphan_member() {
        let roles = vec![Role::Head, Role::Member];
        let c0 = Some(ClusterId(nid(0)));
        let _ = Hierarchy::with_parents(roles, vec![c0, c0], vec![None, None]);
    }

    #[test]
    fn gateway_need_not_be_adjacent_to_head() {
        // Backbone chain: head 0 - gw 1 - gw 2 - head 3 (L = 3).
        let g = Graph::path(4);
        let roles = vec![Role::Head, Role::Gateway, Role::Gateway, Role::Head];
        let cluster_of = vec![
            Some(ClusterId(nid(0))),
            Some(ClusterId(nid(0))),
            Some(ClusterId(nid(3))),
            Some(ClusterId(nid(3))),
        ];
        let h = Hierarchy::new(roles, cluster_of);
        assert_eq!(h.validate(&g), Ok(()));
        assert_eq!(h.l_hop_connectivity(&g), Some(3));
    }
}
