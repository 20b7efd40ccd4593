//! Traversal primitives on [`Graph`] snapshots.
//!
//! These read the snapshot's flat CSR arrays directly. Distances and
//! connectivity share the one BFS behind [`Graph::bfs`].

use crate::graph::{Graph, NodeId};

/// Single-source BFS distances; `u32::MAX` marks unreachable nodes.
pub fn bfs_distances(g: &Graph, src: NodeId) -> Vec<u32> {
    g.bfs(src)
}

/// Shortest path from `src` to `dst` as a node sequence (inclusive), or
/// `None` if `dst` is unreachable.
///
/// Among equal-length paths the one preferring smaller node ids is returned
/// (deterministic, which matters for reproducible gateway selection).
pub fn shortest_path(g: &Graph, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
    if src == dst {
        return Some(vec![src]);
    }
    let mut parent: Vec<Option<NodeId>> = vec![None; g.n()];
    let mut dist = vec![u32::MAX; g.n()];
    let mut queue = Vec::with_capacity(g.n());
    dist[src.index()] = 0;
    queue.push(src);
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        if u == dst {
            break;
        }
        let du = dist[u.index()];
        for &v in g.neighbors(u) {
            if dist[v.index()] == u32::MAX {
                dist[v.index()] = du + 1;
                parent[v.index()] = Some(u);
                queue.push(v);
            }
        }
    }
    if dist[dst.index()] == u32::MAX {
        return None;
    }
    let mut path = vec![dst];
    let mut cur = dst;
    while let Some(p) = parent[cur.index()] {
        path.push(p);
        cur = p;
    }
    path.reverse();
    debug_assert_eq!(path[0], src);
    Some(path)
}

/// Connected-component label per node (labels are the smallest node id in the
/// component, so they are stable and comparable across calls).
pub fn components(g: &Graph) -> Vec<NodeId> {
    let n = g.n();
    let mut label: Vec<Option<NodeId>> = vec![None; n];
    let mut queue = Vec::new();
    for start in 0..n {
        if label[start].is_some() {
            continue;
        }
        let root = NodeId::from_index(start);
        label[start] = Some(root);
        queue.clear();
        queue.push(root);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            for &v in g.neighbors(u) {
                if label[v.index()].is_none() {
                    label[v.index()] = Some(root);
                    queue.push(v);
                }
            }
        }
    }
    label
        .into_iter()
        .map(|l| l.expect("all labelled"))
        .collect()
}

/// Whether the graph is connected (trivially true for `n ≤ 1`).
pub fn is_connected(g: &Graph) -> bool {
    g.is_connected()
}

/// Whether `sub`'s edges form a connected spanning subgraph of the node set
/// restricted to `nodes` (every node in `nodes` mutually reachable in `sub`).
pub fn connects_all(sub: &Graph, nodes: &[NodeId]) -> bool {
    match nodes.first() {
        None => true,
        Some(&first) => {
            let dist = bfs_distances(sub, first);
            nodes.iter().all(|&v| dist[v.index()] != u32::MAX)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bfs_on_cycle() {
        let g = Graph::cycle(6);
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d, vec![0, 1, 2, 3, 2, 1]);
    }

    #[test]
    fn multi_source_takes_nearest() {
        let g = Graph::path(7);
        let (mut d, mut queue) = (vec![u32::MAX; 7], Vec::new());
        g.bfs_into(&[NodeId(0), NodeId(6)], &mut d, &mut queue);
        assert_eq!(d, vec![0, 1, 2, 3, 2, 1, 0]);
    }

    #[test]
    fn multi_source_empty_sources() {
        let g = Graph::path(3);
        let (mut d, mut queue) = (vec![u32::MAX; 3], Vec::new());
        g.bfs_into(&[], &mut d, &mut queue);
        assert!(d.iter().all(|&x| x == u32::MAX));
    }

    #[test]
    fn shortest_path_endpoints_and_length() {
        let g = Graph::cycle(8);
        let p = shortest_path(&g, NodeId(0), NodeId(3)).unwrap();
        assert_eq!(p.first(), Some(&NodeId(0)));
        assert_eq!(p.last(), Some(&NodeId(3)));
        assert_eq!(p.len(), 4);
        for w in p.windows(2) {
            assert!(g.has_edge(w[0], w[1]));
        }
    }

    #[test]
    fn shortest_path_unreachable() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
        assert!(shortest_path(&g, NodeId(0), NodeId(3)).is_none());
    }

    #[test]
    fn shortest_path_to_self() {
        let g = Graph::path(3);
        assert_eq!(
            shortest_path(&g, NodeId(1), NodeId(1)),
            Some(vec![NodeId(1)])
        );
    }

    #[test]
    fn components_labels_by_min_id() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (4, 5)]);
        let labels = components(&g);
        assert_eq!(labels[0], NodeId(0));
        assert_eq!(labels[1], NodeId(0));
        assert_eq!(labels[2], NodeId(0));
        assert_eq!(labels[3], NodeId(3));
        assert_eq!(labels[4], NodeId(4));
        assert_eq!(labels[5], NodeId(4));
    }

    #[test]
    fn connectivity_of_shapes() {
        assert!(is_connected(&Graph::complete(4)));
        assert!(is_connected(&Graph::path(9)));
        assert!(!is_connected(&Graph::empty(2)));
        assert!(is_connected(&Graph::empty(1)));
    }

    #[test]
    fn connects_all_subset() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2)]);
        assert!(connects_all(&g, &[NodeId(0), NodeId(2)]));
        assert!(!connects_all(&g, &[NodeId(0), NodeId(4)]));
        assert!(connects_all(&g, &[]));
    }
}
