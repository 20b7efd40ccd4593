//! Immutable undirected graph snapshots.
//!
//! A [`Graph`] is one round's topology in a dynamic network. It is built once
//! via [`GraphBuilder`] (or the convenience constructors), and snapshots are
//! shared freely between the simulator, the verifiers and the cluster layer
//! behind an `Arc`. The one mutation, [`Graph::intersect_in_place`], is for
//! an owned copy such as a verifier's running window intersection.

use std::fmt;

/// Identifier of a network node.
///
/// Nodes are dense indices `0..n`; the paper's "unique identifier" per node is
/// exactly this index. Ordering of `NodeId`s is meaningful: clustering
/// algorithms such as lowest-ID use it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's dense index, for direct indexing into per-node arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a dense index.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        debug_assert!(i <= u32::MAX as usize);
        NodeId(i as u32)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An undirected edge, stored in canonical (smaller id first) order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Edge {
    /// Endpoint with the smaller id.
    pub a: NodeId,
    /// Endpoint with the larger id.
    pub b: NodeId,
}

impl Edge {
    /// Canonicalise an unordered endpoint pair into an `Edge`.
    ///
    /// # Panics
    /// Panics if `u == v` (self-loops are not meaningful in the model).
    #[inline]
    pub fn new(u: NodeId, v: NodeId) -> Self {
        assert_ne!(u, v, "self-loop edge ({u}, {v})");
        if u < v {
            Edge { a: u, b: v }
        } else {
            Edge { a: v, b: u }
        }
    }

    /// The endpoint that is not `x`.
    ///
    /// # Panics
    /// Panics if `x` is not an endpoint of this edge.
    #[inline]
    pub fn other(self, x: NodeId) -> NodeId {
        if x == self.a {
            self.b
        } else {
            assert_eq!(x, self.b, "{x} is not an endpoint of {self:?}");
            self.a
        }
    }
}

/// An immutable undirected simple graph over nodes `0..n`, stored as one
/// flat compressed-sparse-row (CSR) array pair.
///
/// Node `u`'s neighbours are `targets[offsets[u]..offsets[u + 1]]`, sorted
/// and deduplicated, so adjacency queries are `O(log deg)` and intersections
/// and unions are linear sorted merges (used by window-intersection graphs
/// in the T-interval connectivity verifier). Every layer reads this one
/// layout: the generators build it, the simulator shares each round's
/// snapshot behind an `Arc` without copying it, and the verifiers traverse
/// it directly.
///
/// ```
/// use hinet_graph::graph::{Graph, NodeId};
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.m(), 3);
/// assert!(g.has_edge(NodeId(1), NodeId(2)));
/// assert_eq!(g.neighbors(NodeId(1)), &[NodeId(0), NodeId(2)]);
/// assert_eq!(g.bfs(NodeId(0)), vec![0, 1, 2, 3]);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[u]..offsets[u + 1]` indexes `targets` for node `u`; the
    /// length is `n + 1`.
    offsets: Vec<u32>,
    /// Concatenated sorted, deduplicated neighbour lists; each undirected
    /// edge appears twice.
    targets: Vec<NodeId>,
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("n", &self.n())
            .field("m", &self.m())
            .finish()
    }
}

/// A CSR offset for `entries` neighbour entries.
///
/// # Panics
/// Panics if `entries` does not fit the `u32` offsets.
fn offset(entries: usize) -> u32 {
    u32::try_from(entries)
        .unwrap_or_else(|_| panic!("graph too large for u32 CSR offsets: {entries} entries"))
}

impl Graph {
    /// The empty graph on `n` isolated nodes.
    pub fn empty(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            targets: Vec::new(),
        }
    }

    /// Complete graph on `n` nodes.
    pub fn complete(n: usize) -> Self {
        let mut b = GraphBuilder::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                b.add_edge(NodeId::from_index(u), NodeId::from_index(v));
            }
        }
        b.build()
    }

    /// Path graph `0 - 1 - … - (n-1)`.
    pub fn path(n: usize) -> Self {
        let mut b = GraphBuilder::new(n);
        for u in 1..n {
            b.add_edge(NodeId::from_index(u - 1), NodeId::from_index(u));
        }
        b.build()
    }

    /// Cycle graph on `n ≥ 3` nodes.
    ///
    /// # Panics
    /// Panics if `n < 3`.
    pub fn cycle(n: usize) -> Self {
        assert!(n >= 3, "cycle needs at least 3 nodes, got {n}");
        let mut b = GraphBuilder::new(n);
        for u in 0..n {
            b.add_edge(NodeId::from_index(u), NodeId::from_index((u + 1) % n));
        }
        b.build()
    }

    /// Star graph: node 0 is the hub, nodes `1..n` are leaves.
    pub fn star(n: usize) -> Self {
        let mut b = GraphBuilder::new(n);
        for u in 1..n {
            b.add_edge(NodeId::from_index(0), NodeId::from_index(u));
        }
        b.build()
    }

    /// Build a graph directly from an edge list.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (u32, u32)>) -> Self {
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            b.add_edge(NodeId(u), NodeId(v));
        }
        b.build()
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.targets.len() / 2
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n()).map(NodeId::from_index)
    }

    /// Sorted neighbor list of `u`.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        let lo = self.offsets[u.index()] as usize;
        let hi = self.offsets[u.index() + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        (self.offsets[u.index() + 1] - self.offsets[u.index()]) as usize
    }

    /// Whether edge `{u, v}` is present.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all edges in canonical order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| Edge { a: u, b: v })
        })
    }

    /// The edge-intersection of `self` and `other` (same node set).
    ///
    /// This is the "stable subgraph" operator: the intersection over a window
    /// of rounds is exactly the subgraph that existed throughout the window,
    /// which is what T-interval connectivity quantifies over.
    ///
    /// # Panics
    /// Panics if node counts differ.
    pub fn intersect(&self, other: &Graph) -> Graph {
        assert_eq!(
            self.n(),
            other.n(),
            "intersecting graphs of different order"
        );
        self.merge(
            other,
            self.targets.len().min(other.targets.len()),
            |xs, ys, out| {
                let (mut i, mut j) = (0, 0);
                while i < xs.len() && j < ys.len() {
                    match xs[i].cmp(&ys[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            out.push(xs[i]);
                            i += 1;
                            j += 1;
                        }
                    }
                }
            },
        )
    }

    /// In-place [`Graph::intersect`]: keep only the edges `other` also has,
    /// compacting `self`'s arrays in one pass instead of allocating new
    /// ones. The streaming stability verifier folds each round into its
    /// open window this way.
    ///
    /// # Panics
    /// Panics if node counts differ.
    pub fn intersect_in_place(&mut self, other: &Graph) {
        assert_eq!(
            self.n(),
            other.n(),
            "intersecting graphs of different order"
        );
        // `kept` trails the read cursor, so each survivor moves left (or
        // stays) and `offsets[u + 1]` is read before it is rewritten.
        let (mut lo, mut kept) = (0, 0);
        for u in 0..self.n() {
            let hi = self.offsets[u + 1] as usize;
            let ys = other.neighbors(NodeId::from_index(u));
            let mut j = 0;
            for i in lo..hi {
                let x = self.targets[i];
                while j < ys.len() && ys[j] < x {
                    j += 1;
                }
                if j < ys.len() && ys[j] == x {
                    self.targets[kept] = x;
                    kept += 1;
                }
            }
            self.offsets[u + 1] = kept as u32;
            lo = hi;
        }
        self.targets.truncate(kept);
    }

    /// The edge-union of `self` and `other` (same node set).
    ///
    /// # Panics
    /// Panics if node counts differ, or if the union's neighbour entries
    /// overflow the `u32` offsets.
    pub fn union(&self, other: &Graph) -> Graph {
        assert_eq!(self.n(), other.n(), "uniting graphs of different order");
        self.merge(
            other,
            self.targets.len() + other.targets.len(),
            |xs, ys, out| {
                let (mut i, mut j) = (0, 0);
                while i < xs.len() && j < ys.len() {
                    match xs[i].cmp(&ys[j]) {
                        std::cmp::Ordering::Less => {
                            out.push(xs[i]);
                            i += 1;
                        }
                        std::cmp::Ordering::Greater => {
                            out.push(ys[j]);
                            j += 1;
                        }
                        std::cmp::Ordering::Equal => {
                            out.push(xs[i]);
                            i += 1;
                            j += 1;
                        }
                    }
                }
                out.extend_from_slice(&xs[i..]);
                out.extend_from_slice(&ys[j..]);
            },
        )
    }

    /// One pass over both graphs' neighbour lists into fresh flat arrays:
    /// `node` appends node `u`'s merged list given both of its inputs.
    fn merge(
        &self,
        other: &Graph,
        capacity: usize,
        mut node: impl FnMut(&[NodeId], &[NodeId], &mut Vec<NodeId>),
    ) -> Graph {
        let mut offsets = Vec::with_capacity(self.offsets.len());
        let mut targets = Vec::with_capacity(capacity);
        offsets.push(0);
        for u in self.nodes() {
            node(self.neighbors(u), other.neighbors(u), &mut targets);
            offsets.push(offset(targets.len()));
        }
        Graph { offsets, targets }
    }

    /// Total size in edges of the symmetric difference with `other`.
    ///
    /// Used by churn metrics: how much the topology changed between rounds.
    pub fn edge_distance(&self, other: &Graph) -> usize {
        assert_eq!(self.n(), other.n());
        let common = self.intersect(other).m();
        (self.m() - common) + (other.m() - common)
    }

    /// Single-source BFS distances; `u32::MAX` marks unreachable nodes.
    pub fn bfs(&self, src: NodeId) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.n()];
        let mut queue = Vec::with_capacity(self.n());
        self.bfs_into(&[src], &mut dist, &mut queue);
        dist
    }

    /// The one BFS: fills `dist` (length `n`, fully overwritten) with each
    /// node's distance from the nearest of `sources` (`u32::MAX` when
    /// unreachable), reusing `queue` so a loop over many sources allocates
    /// nothing per source.
    pub(crate) fn bfs_into(&self, sources: &[NodeId], dist: &mut [u32], queue: &mut Vec<NodeId>) {
        assert_eq!(dist.len(), self.n());
        dist.fill(u32::MAX);
        queue.clear();
        for &s in sources {
            if dist[s.index()] == u32::MAX {
                dist[s.index()] = 0;
                queue.push(s);
            }
        }
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            let du = dist[u.index()];
            for &v in self.neighbors(u) {
                if dist[v.index()] == u32::MAX {
                    dist[v.index()] = du + 1;
                    queue.push(v);
                }
            }
        }
    }

    /// Whether the graph is connected (trivially true for `n ≤ 1`).
    pub fn is_connected(&self) -> bool {
        self.n() <= 1 || self.bfs(NodeId(0)).iter().all(|&d| d != u32::MAX)
    }
}

/// Incremental builder for [`Graph`].
///
/// Duplicate edge insertions are tolerated (deduplicated at `build`), which
/// keeps generator code simple.
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Builder for a graph over nodes `0..n`.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Add undirected edge `{u, v}`.
    ///
    /// # Panics
    /// Panics on self-loops or out-of-range endpoints.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        assert_ne!(u, v, "self-loop at {u}");
        assert!(
            u.index() < self.n && v.index() < self.n,
            "edge ({u}, {v}) out of range for n={}",
            self.n
        );
        self.edges.push((u, v));
        self
    }

    /// Add every edge of `g` (must have the same node count).
    pub fn add_graph(&mut self, g: &Graph) -> &mut Self {
        assert_eq!(g.n(), self.n);
        for e in g.edges() {
            self.add_edge(e.a, e.b);
        }
        self
    }

    /// Finalise in linear time plus the per-node sorts: count degrees,
    /// take prefix sums, scatter both directions of every edge, then sort
    /// and deduplicate each node's segment, compacting in place.
    ///
    /// # Panics
    /// Panics if the added edges' `2·len` neighbour entries overflow the
    /// `u32` offsets.
    pub fn build(self) -> Graph {
        let GraphBuilder { n, edges } = self;
        let entries = offset(2 * edges.len()) as usize;
        let mut offsets = vec![0u32; n + 1];
        for &(u, v) in &edges {
            offsets[u.index() + 1] += 1;
            offsets[v.index() + 1] += 1;
        }
        for u in 0..n {
            offsets[u + 1] += offsets[u];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut targets = vec![NodeId(0); entries];
        for (u, v) in edges {
            targets[cursor[u.index()] as usize] = v;
            cursor[u.index()] += 1;
            targets[cursor[v.index()] as usize] = u;
            cursor[v.index()] += 1;
        }
        let (mut lo, mut kept) = (0, 0);
        for u in 0..n {
            let hi = offsets[u + 1] as usize;
            targets[lo..hi].sort_unstable();
            for i in lo..hi {
                if i == lo || targets[i] != targets[i - 1] {
                    targets[kept] = targets[i];
                    kept += 1;
                }
            }
            offsets[u + 1] = kept as u32;
            lo = hi;
        }
        targets.truncate(kept);
        Graph { offsets, targets }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn empty_graph_has_no_edges() {
        let g = Graph::empty(5);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 0);
        assert_eq!(g.edges().count(), 0);
        for u in g.nodes() {
            assert_eq!(g.degree(u), 0);
        }
    }

    #[test]
    fn complete_graph_counts() {
        let g = Graph::complete(6);
        assert_eq!(g.m(), 15);
        for u in g.nodes() {
            assert_eq!(g.degree(u), 5);
        }
    }

    #[test]
    fn path_and_cycle_shapes() {
        let p = Graph::path(4);
        assert_eq!(p.m(), 3);
        assert!(p.has_edge(nid(0), nid(1)));
        assert!(!p.has_edge(nid(0), nid(2)));

        let c = Graph::cycle(5);
        assert_eq!(c.m(), 5);
        assert!(c.has_edge(nid(0), nid(4)));
        for u in c.nodes() {
            assert_eq!(c.degree(u), 2);
        }
    }

    #[test]
    fn star_hub_degree() {
        let s = Graph::star(7);
        assert_eq!(s.degree(nid(0)), 6);
        assert_eq!(s.m(), 6);
        for u in 1..7 {
            assert_eq!(s.degree(nid(u)), 1);
        }
    }

    #[test]
    fn builder_dedups_duplicate_edges() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(nid(0), nid(1));
        b.add_edge(nid(1), nid(0));
        b.add_edge(nid(0), nid(1));
        let g = b.build();
        assert_eq!(g.m(), 1);
        assert_eq!(g.degree(nid(0)), 1);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn builder_rejects_self_loop() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(nid(1), nid(1));
    }

    #[test]
    fn edge_canonicalisation() {
        let e = Edge::new(nid(5), nid(2));
        assert_eq!(e.a, nid(2));
        assert_eq!(e.b, nid(5));
        assert_eq!(e.other(nid(2)), nid(5));
        assert_eq!(e.other(nid(5)), nid(2));
    }

    #[test]
    fn intersect_keeps_common_edges_only() {
        let g1 = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let g2 = Graph::from_edges(4, [(0, 1), (2, 3), (0, 3)]);
        let i = g1.intersect(&g2);
        assert_eq!(i.m(), 2);
        assert!(i.has_edge(nid(0), nid(1)));
        assert!(i.has_edge(nid(2), nid(3)));
        assert!(!i.has_edge(nid(1), nid(2)));
        let mut in_place = g1.clone();
        in_place.intersect_in_place(&g2);
        assert_eq!(in_place, i);
    }

    #[test]
    fn union_merges_edges() {
        let g1 = Graph::from_edges(4, [(0, 1), (1, 2)]);
        let g2 = Graph::from_edges(4, [(1, 2), (2, 3)]);
        let u = g1.union(&g2);
        assert_eq!(u.m(), 3);
        assert!(u.has_edge(nid(0), nid(1)));
        assert!(u.has_edge(nid(1), nid(2)));
        assert!(u.has_edge(nid(2), nid(3)));
    }

    #[test]
    fn intersect_with_self_is_identity() {
        let g = Graph::complete(5);
        assert_eq!(g.intersect(&g), g);
        assert_eq!(g.union(&g), g);
    }

    #[test]
    fn edge_distance_symmetric_difference() {
        let g1 = Graph::from_edges(4, [(0, 1), (1, 2)]);
        let g2 = Graph::from_edges(4, [(1, 2), (2, 3), (0, 3)]);
        assert_eq!(g1.edge_distance(&g2), 3);
        assert_eq!(g2.edge_distance(&g1), 3);
        assert_eq!(g1.edge_distance(&g1), 0);
    }

    #[test]
    fn edges_iterator_canonical_and_complete() {
        let g = Graph::from_edges(5, [(3, 1), (0, 4), (2, 0)]);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        for e in &edges {
            assert!(e.a < e.b);
        }
    }

    #[test]
    fn csr_roundtrip_preserves_adjacency() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        let c = crate::csr::CsrGraph::from(&g);
        assert_eq!(c, g);
        assert_eq!(c.n(), 5);
        assert_eq!(c.m(), 5);
        assert!(c.has_edge(nid(0), nid(4)));
        assert!(!c.has_edge(nid(0), nid(2)));
    }

    #[test]
    fn bfs_distances_on_path() {
        assert_eq!(Graph::path(6).bfs(nid(0)), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn bfs_marks_unreachable() {
        let d = Graph::from_edges(4, [(0, 1)]).bfs(nid(0));
        assert_eq!(d[1], 1);
        assert_eq!(d[2], u32::MAX);
        assert_eq!(d[3], u32::MAX);
    }

    #[test]
    fn connectivity_detection() {
        assert!(Graph::cycle(8).is_connected());
        assert!(!Graph::from_edges(3, [(0, 1)]).is_connected());
        assert!(Graph::empty(1).is_connected());
        assert!(Graph::empty(0).is_connected());
    }

    /// A random edge list over `n` nodes: duplicates and both orientations
    /// of one edge are likely at these sizes.
    fn arb_edges(c: &mut hinet_rt::check::CaseCtx, n: usize) -> Vec<(NodeId, NodeId)> {
        use hinet_rt::rng::Rng;
        if n < 2 {
            return Vec::new();
        }
        let len = c.random_range(0..=200usize);
        c.vec_of(len, |c| {
            let u = c.random_range(0..n);
            let v = (u + c.random_range(1..n)) % n;
            (nid(u), nid(v))
        })
    }

    fn build_both(n: usize, edges: &[(NodeId, NodeId)]) -> (Graph, reference::Graph) {
        let (mut flat, mut nested) = (GraphBuilder::new(n), reference::GraphBuilder::new(n));
        for &(u, v) in edges {
            flat.add_edge(u, v);
            nested.add_edge(u, v);
        }
        (flat.build(), nested.build())
    }

    fn assert_same(flat: &Graph, nested: &reference::Graph) {
        assert_eq!(flat.n(), nested.n());
        assert_eq!(flat.m(), nested.m());
        for u in flat.nodes() {
            assert_eq!(flat.neighbors(u), nested.neighbors(u), "neighbors({u})");
            assert_eq!(flat.degree(u), nested.degree(u), "degree({u})");
            for v in flat.nodes() {
                assert_eq!(flat.has_edge(u, v), nested.has_edge(u, v), "{{{u}, {v}}}");
            }
        }
        assert!(flat.edges().eq(nested.edges()), "edges() order");
    }

    #[test]
    fn flat_graph_matches_the_nested_reference() {
        hinet_rt::check::check("flat_graph_matches_the_nested_reference", 256, |c| {
            use hinet_rt::rng::Rng;
            let n = c.random_range(0..=64usize);
            let lists: Vec<_> = (0..4).map(|_| arb_edges(c, n)).collect();
            let graphs: Vec<_> = lists.iter().map(|e| build_both(n, e)).collect();
            for (flat, nested) in &graphs {
                assert_same(flat, nested);
            }
            let (a, ra) = &graphs[0];
            let (b, rb) = &graphs[1];
            assert_same(&a.intersect(b), &ra.intersect(rb));
            assert_same(&a.union(b), &ra.union(rb));
            let u = a.union(b);
            assert!(a.edges().all(|e| u.has_edge(e.a, e.b)));
            assert_eq!(a.edge_distance(b), ra.edge_distance(rb));
            // A window fold, as `StabilityStream` runs it.
            let (mut flat, mut nested) = (a.clone(), ra.clone());
            for (g, rg) in &graphs[1..] {
                flat.intersect_in_place(g);
                nested.intersect_in_place(rg);
                assert_same(&flat, &nested);
            }
            assert_eq!(
                flat,
                a.intersect(b)
                    .intersect(&graphs[2].0)
                    .intersect(&graphs[3].0)
            );
        });
    }

    /// The adjacency-list `Graph` and `GraphBuilder` this module's flat CSR
    /// layout replaced, kept as the differential reference.
    mod reference {
        use super::super::{Edge, NodeId};

        #[derive(Clone)]
        pub(super) struct Graph {
            n: usize,
            adj: Vec<Vec<NodeId>>,
            m: usize,
        }

        impl Graph {
            pub(super) fn n(&self) -> usize {
                self.n
            }

            pub(super) fn m(&self) -> usize {
                self.m
            }

            pub(super) fn neighbors(&self, u: NodeId) -> &[NodeId] {
                &self.adj[u.index()]
            }

            pub(super) fn degree(&self, u: NodeId) -> usize {
                self.adj[u.index()].len()
            }

            pub(super) fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
                self.adj[u.index()].binary_search(&v).is_ok()
            }

            pub(super) fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
                (0..self.n).flat_map(move |u| {
                    let u = NodeId::from_index(u);
                    self.adj[u.index()]
                        .iter()
                        .copied()
                        .filter(move |&v| u < v)
                        .map(move |v| Edge { a: u, b: v })
                })
            }

            pub(super) fn intersect(&self, other: &Graph) -> Graph {
                assert_eq!(self.n, other.n, "intersecting graphs of different order");
                let mut adj = Vec::with_capacity(self.n);
                let mut m = 0;
                for u in 0..self.n {
                    let (xs, ys) = (&self.adj[u], &other.adj[u]);
                    let mut merged = Vec::with_capacity(xs.len().min(ys.len()));
                    let (mut i, mut j) = (0, 0);
                    while i < xs.len() && j < ys.len() {
                        match xs[i].cmp(&ys[j]) {
                            std::cmp::Ordering::Less => i += 1,
                            std::cmp::Ordering::Greater => j += 1,
                            std::cmp::Ordering::Equal => {
                                merged.push(xs[i]);
                                i += 1;
                                j += 1;
                            }
                        }
                    }
                    m += merged.len();
                    adj.push(merged);
                }
                Graph {
                    n: self.n,
                    adj,
                    m: m / 2,
                }
            }

            pub(super) fn intersect_in_place(&mut self, other: &Graph) {
                assert_eq!(self.n, other.n, "intersecting graphs of different order");
                let mut m = 0;
                for (xs, ys) in self.adj.iter_mut().zip(&other.adj) {
                    let mut j = 0;
                    xs.retain(|x| {
                        while j < ys.len() && ys[j] < *x {
                            j += 1;
                        }
                        j < ys.len() && ys[j] == *x
                    });
                    m += xs.len();
                }
                self.m = m / 2;
            }

            pub(super) fn union(&self, other: &Graph) -> Graph {
                assert_eq!(self.n, other.n, "uniting graphs of different order");
                let mut adj = Vec::with_capacity(self.n);
                let mut m = 0;
                for u in 0..self.n {
                    let (xs, ys) = (&self.adj[u], &other.adj[u]);
                    let mut merged = Vec::with_capacity(xs.len() + ys.len());
                    let (mut i, mut j) = (0, 0);
                    while i < xs.len() || j < ys.len() {
                        let take_x = j >= ys.len() || (i < xs.len() && xs[i] <= ys[j]);
                        if take_x {
                            if j < ys.len() && xs[i] == ys[j] {
                                j += 1;
                            }
                            merged.push(xs[i]);
                            i += 1;
                        } else {
                            merged.push(ys[j]);
                            j += 1;
                        }
                    }
                    m += merged.len();
                    adj.push(merged);
                }
                Graph {
                    n: self.n,
                    adj,
                    m: m / 2,
                }
            }

            pub(super) fn edge_distance(&self, other: &Graph) -> usize {
                assert_eq!(self.n, other.n);
                let common = self.intersect(other).m();
                (self.m - common) + (other.m - common)
            }
        }

        pub(super) struct GraphBuilder {
            n: usize,
            adj: Vec<Vec<NodeId>>,
        }

        impl GraphBuilder {
            pub(super) fn new(n: usize) -> Self {
                GraphBuilder {
                    n,
                    adj: vec![Vec::new(); n],
                }
            }

            pub(super) fn add_edge(&mut self, u: NodeId, v: NodeId) -> &mut Self {
                assert_ne!(u, v, "self-loop at {u}");
                assert!(
                    u.index() < self.n && v.index() < self.n,
                    "edge ({u}, {v}) out of range for n={}",
                    self.n
                );
                self.adj[u.index()].push(v);
                self.adj[v.index()].push(u);
                self
            }

            pub(super) fn build(mut self) -> Graph {
                let mut m = 0;
                for list in &mut self.adj {
                    list.sort_unstable();
                    list.dedup();
                    m += list.len();
                }
                Graph {
                    n: self.n,
                    adj: self.adj,
                    m: m / 2,
                }
            }
        }
    }
}
