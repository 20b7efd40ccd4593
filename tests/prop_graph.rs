//! Property-based tests for the graph substrate.
//!
//! Ported to the in-tree [`hinet::rt::check`] harness: each property runs a
//! fixed number of seeded random cases; a failure prints the case seed and a
//! `HINET_CHECK_SEED=…` command line that replays exactly that case.

mod common;

use common::{bfs_spanning_tree, contains_subgraph, max_interval_connectivity, shortest_path};
use hinet::graph::graph::{Graph, GraphBuilder, NodeId};
use hinet::graph::spanning::random_attachment_tree;
use hinet::graph::trace::TvgTrace;
use hinet::graph::traversal::{components, is_connected};
use hinet::graph::verify::is_t_interval_connected;
use hinet::graph::CsrGraph;
use hinet::rt::check::{check, CaseCtx};
use hinet::rt::rng::{Rng, Xoshiro256StarStar};
use std::sync::Arc;

const CASES: usize = 64;

/// Build a pseudo-random graph on `n` nodes from `(seed, p)` — properties
/// draw over the scalar inputs rather than edge lists, so a failing case is
/// fully described by three numbers.
fn graph_from(n: usize, seed: u64, p: f64) -> Graph {
    let mut b = GraphBuilder::new(n);
    let mut state = seed | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for u in 0..n {
        for v in (u + 1)..n {
            if next() < p {
                b.add_edge(NodeId::from_index(u), NodeId::from_index(v));
            }
        }
    }
    b.build()
}

/// One random graph on 2..=24 nodes.
fn arb_graph(c: &mut CaseCtx) -> Graph {
    let n = c.random_range(2usize..=24);
    let seed = c.random::<u64>();
    let p = c.random_range(0.05f64..0.9);
    graph_from(n, seed, p)
}

/// `count` random graphs over a *shared* node set.
fn arb_graphs(c: &mut CaseCtx, count: usize) -> Vec<Graph> {
    let n = c.random_range(2usize..=24);
    (0..count)
        .map(|_| {
            let seed = c.random::<u64>();
            let p = c.random_range(0.05f64..0.9);
            graph_from(n, seed, p)
        })
        .collect()
}

#[test]
fn intersection_is_subgraph_of_both() {
    check("intersection_is_subgraph_of_both", CASES, |c| {
        let gs = arb_graphs(c, 2);
        let (g1, g2) = (&gs[0], &gs[1]);
        let i = g1.intersect(g2);
        assert!(contains_subgraph(g1, &i));
        assert!(contains_subgraph(g2, &i));
        assert!(i.m() <= g1.m().min(g2.m()));
        let mut in_place = g1.clone();
        in_place.intersect_in_place(g2);
        assert_eq!(in_place, i);
        assert_eq!(in_place.m(), i.m());
    });
}

#[test]
fn union_contains_both() {
    check("union_contains_both", CASES, |c| {
        let gs = arb_graphs(c, 2);
        let (g1, g2) = (&gs[0], &gs[1]);
        let u = g1.union(g2);
        assert!(contains_subgraph(&u, g1));
        assert!(contains_subgraph(&u, g2));
        assert!(u.m() <= g1.m() + g2.m());
        assert!(u.m() >= g1.m().max(g2.m()));
    });
}

#[test]
fn intersect_union_idempotent_and_commutative() {
    check("intersect_union_idempotent_and_commutative", CASES, |c| {
        let gs = arb_graphs(c, 2);
        let (g1, g2) = (&gs[0], &gs[1]);
        assert_eq!(g1.intersect(g2), g2.intersect(g1));
        assert_eq!(g1.union(g2), g2.union(g1));
        assert_eq!(g1.intersect(g1), g1.clone());
        assert_eq!(g1.union(g1), g1.clone());
    });
}

#[test]
fn csr_bfs_agrees_with_adjacency_bfs() {
    check("csr_bfs_agrees_with_adjacency_bfs", CASES, |c| {
        let g = arb_graph(c);
        let csr = CsrGraph::from(&g);
        for src in 0..g.n().min(4) {
            let a = g.bfs(NodeId::from_index(src));
            let b = csr.bfs(NodeId::from_index(src));
            assert_eq!(a, b);
        }
    });
}

#[test]
fn bfs_distances_are_metric_on_edges() {
    check("bfs_distances_are_metric_on_edges", CASES, |c| {
        // Adjacent nodes differ by at most 1 in distance from any source.
        let g = arb_graph(c);
        let d = g.bfs(NodeId(0));
        for e in g.edges() {
            let (da, db) = (d[e.a.index()], d[e.b.index()]);
            if da != u32::MAX && db != u32::MAX {
                assert!(da.abs_diff(db) <= 1);
            } else {
                assert_eq!(da, db, "reachability must agree across an edge");
            }
        }
    });
}

#[test]
fn shortest_path_length_matches_bfs() {
    check("shortest_path_length_matches_bfs", CASES, |c| {
        let g = arb_graph(c);
        let d = g.bfs(NodeId(0));
        for (t, &dt) in d.iter().enumerate().skip(1) {
            let target = NodeId::from_index(t);
            match shortest_path(&g, NodeId(0), target) {
                Some(p) => {
                    assert_eq!(p.len() as u32 - 1, dt);
                    for w in p.windows(2) {
                        assert!(g.has_edge(w[0], w[1]));
                    }
                }
                None => assert_eq!(dt, u32::MAX),
            }
        }
    });
}

#[test]
fn components_partition_reachability() {
    check("components_partition_reachability", CASES, |c| {
        let g = arb_graph(c);
        let labels = components(&g);
        let d = g.bfs(NodeId(0));
        for v in 0..g.n() {
            assert_eq!(
                labels[v] == labels[0],
                d[v] != u32::MAX,
                "node {v} reachability vs component label"
            );
        }
    });
}

#[test]
fn spanning_tree_exists_iff_connected() {
    check("spanning_tree_exists_iff_connected", CASES, |c| {
        let g = arb_graph(c);
        let tree = bfs_spanning_tree(&g);
        assert_eq!(tree.is_some(), is_connected(&g));
        if let Some(t) = tree {
            assert_eq!(t.m(), g.n() - 1);
            assert!(is_connected(&t));
            assert!(contains_subgraph(&g, &t));
        }
    });
}

#[test]
fn attachment_tree_always_spanning() {
    check("attachment_tree_always_spanning", CASES, |c| {
        let n = c.random_range(1usize..40);
        let seed = c.random::<u64>();
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let t = random_attachment_tree(n, &mut rng);
        assert_eq!(t.m(), n.saturating_sub(1));
        assert!(is_connected(&t));
    });
}

#[test]
fn t_interval_connectivity_downward_closed() {
    check("t_interval_connectivity_downward_closed", CASES, |c| {
        let graphs = arb_graphs(c, 4);
        let trace = TvgTrace::new(graphs.into_iter().map(Arc::new).collect());
        if let Some(max_t) = max_interval_connectivity(&trace) {
            for t in 1..=max_t {
                assert!(is_t_interval_connected(&trace, t), "t={t}");
            }
            if max_t < trace.len() {
                assert!(!is_t_interval_connected(&trace, max_t + 1));
            }
        } else {
            assert!(!is_t_interval_connected(&trace, 1));
        }
    });
}

#[test]
fn edge_distance_is_a_metric() {
    check("edge_distance_is_a_metric", CASES, |c| {
        let gs = arb_graphs(c, 3);
        let (g1, g2, g3) = (&gs[0], &gs[1], &gs[2]);
        assert_eq!(g1.edge_distance(g2), g2.edge_distance(g1));
        assert_eq!(g1.edge_distance(g1), 0);
        // Triangle inequality on the symmetric-difference metric.
        assert!(g1.edge_distance(g3) <= g1.edge_distance(g2) + g2.edge_distance(g3));
    });
}
