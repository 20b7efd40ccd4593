//! Compressed sparse row (CSR) graph view.
//!
//! Verification passes (T-interval connectivity, dynamic diameter, L-hop head
//! distances) run BFS over thousands of snapshots per experiment. A CSR
//! layout keeps the adjacency of the whole graph in two flat arrays, which is
//! markedly friendlier to the cache than a `Vec<Vec<NodeId>>` and avoids one
//! pointer chase per node. The simulator itself keeps the `Graph`
//! representation (snapshots are built incrementally there); analysis code
//! converts once and traverses many times.

use crate::graph::{Graph, NodeId};

/// Immutable CSR adjacency structure.
#[derive(Clone, Debug)]
pub struct CsrGraph {
    /// `offsets[u]..offsets[u+1]` indexes `targets` for node `u`.
    offsets: Vec<u32>,
    /// Concatenated sorted neighbor lists.
    targets: Vec<NodeId>,
}

impl CsrGraph {
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

    /// Sorted neighbor slice of `u`.
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

    /// Whether edge `{u, v}` exists.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Single-source BFS distances; `u32::MAX` marks unreachable nodes.
    pub fn bfs(&self, src: NodeId) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.n()];
        let mut queue = Vec::with_capacity(self.n());
        self.bfs_into(src, &mut dist, &mut queue);
        dist
    }

    /// BFS reusing caller-provided scratch buffers.
    ///
    /// `dist` must have length `n` and is fully overwritten; `queue` is
    /// cleared. Reuse avoids an allocation per snapshot when verifying long
    /// traces.
    fn bfs_into(&self, src: NodeId, dist: &mut [u32], queue: &mut Vec<NodeId>) {
        assert_eq!(dist.len(), self.n());
        dist.fill(u32::MAX);
        queue.clear();
        dist[src.index()] = 0;
        queue.push(src);
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
        let n = self.n();
        if n <= 1 {
            return true;
        }
        let dist = self.bfs(NodeId(0));
        dist.iter().all(|&d| d != u32::MAX)
    }

    /// Eccentricity of `src`: max BFS distance, or `None` if disconnected.
    pub fn eccentricity(&self, src: NodeId) -> Option<u32> {
        let dist = self.bfs(src);
        let mut ecc = 0;
        for &d in &dist {
            if d == u32::MAX {
                return None;
            }
            ecc = ecc.max(d);
        }
        Some(ecc)
    }

    /// Exact diameter via all-sources BFS; `None` if disconnected.
    ///
    /// Quadratic in `n` — intended for the moderate `n` of the paper's
    /// experiments (tens to low thousands), not web-scale graphs.
    pub fn diameter(&self) -> Option<u32> {
        let n = self.n();
        if n == 0 {
            return Some(0);
        }
        let mut dist = vec![u32::MAX; n];
        let mut queue = Vec::with_capacity(n);
        let mut diam = 0;
        for u in 0..n {
            self.bfs_into(NodeId::from_index(u), &mut dist, &mut queue);
            for &d in dist.iter() {
                if d == u32::MAX {
                    return None;
                }
                diam = diam.max(d);
            }
        }
        Some(diam)
    }
}

impl From<&Graph> for CsrGraph {
    fn from(g: &Graph) -> Self {
        let n = g.n();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(2 * g.m());
        offsets.push(0);
        for u in g.nodes() {
            targets.extend_from_slice(g.neighbors(u));
            let len: u32 = targets
                .len()
                .try_into()
                .expect("graph too large for CSR u32 offsets");
            offsets.push(len);
        }
        CsrGraph { offsets, targets }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_roundtrip_preserves_adjacency() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        let c = CsrGraph::from(&g);
        assert_eq!(c.n(), 5);
        assert_eq!(c.m(), 5);
        for u in g.nodes() {
            assert_eq!(c.neighbors(u), g.neighbors(u));
            assert_eq!(c.degree(u), g.degree(u));
        }
        assert!(c.has_edge(NodeId(0), NodeId(4)));
        assert!(!c.has_edge(NodeId(0), NodeId(2)));
    }

    #[test]
    fn bfs_distances_on_path() {
        let c = CsrGraph::from(&Graph::path(6));
        let d = c.bfs(NodeId(0));
        assert_eq!(d, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn bfs_marks_unreachable() {
        let g = Graph::from_edges(4, [(0, 1)]);
        let c = CsrGraph::from(&g);
        let d = c.bfs(NodeId(0));
        assert_eq!(d[1], 1);
        assert_eq!(d[2], u32::MAX);
        assert_eq!(d[3], u32::MAX);
    }

    #[test]
    fn connectivity_detection() {
        assert!(CsrGraph::from(&Graph::cycle(8)).is_connected());
        assert!(!CsrGraph::from(&Graph::from_edges(3, [(0, 1)])).is_connected());
        assert!(CsrGraph::from(&Graph::empty(1)).is_connected());
        assert!(CsrGraph::from(&Graph::empty(0)).is_connected());
    }

    #[test]
    fn diameter_of_known_shapes() {
        assert_eq!(CsrGraph::from(&Graph::path(7)).diameter(), Some(6));
        assert_eq!(CsrGraph::from(&Graph::cycle(8)).diameter(), Some(4));
        assert_eq!(CsrGraph::from(&Graph::complete(5)).diameter(), Some(1));
        assert_eq!(CsrGraph::from(&Graph::star(9)).diameter(), Some(2));
        assert_eq!(
            CsrGraph::from(&Graph::from_edges(3, [(0, 1)])).diameter(),
            None
        );
    }

    #[test]
    fn eccentricity_hub_vs_leaf() {
        let c = CsrGraph::from(&Graph::star(5));
        assert_eq!(c.eccentricity(NodeId(0)), Some(1));
        assert_eq!(c.eccentricity(NodeId(1)), Some(2));
    }
}
