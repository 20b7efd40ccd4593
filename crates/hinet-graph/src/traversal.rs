//! Traversal primitives on [`Graph`] snapshots.
//!
//! These read the snapshot's flat CSR arrays directly. Distances are
//! [`Graph::bfs`], and connectivity shares that one BFS.

use crate::graph::{Graph, NodeId};

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bfs_on_cycle() {
        let g = Graph::cycle(6);
        let d = g.bfs(NodeId(0));
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
}
