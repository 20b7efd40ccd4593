//! Property tests for the extension substrates: d-hop clustering, LCC
//! maintenance, gateway policies, Manhattan mobility, and network coding.
//!
//! Ported to the in-tree [`hinet::rt::check`] harness; re-run a failing case
//! with the `HINET_CHECK_SEED=…` command the failure message prints.

use hinet::cluster::clustering::{
    backbone_connects_heads, cluster_with_policy, dhop_lowest_id, ClusteringKind, GatewayPolicy,
    LccMaintainer,
};
use hinet::graph::generators::{ManhattanConfig, ManhattanGen};
use hinet::graph::graph::{Graph, GraphBuilder, NodeId};
use hinet::graph::trace::{TopologyProvider, TvgTrace};
use hinet::graph::traversal::is_connected;
use hinet::graph::verify::is_always_connected;
use hinet::rt::check::{check, CaseCtx};
use hinet::rt::rng::{Rng, Xoshiro256StarStar};
use hinet::sim::gf2::{Gf2Basis, Gf2Vec};

const CASES: usize = 48;

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

/// Replacement for `prop_assume!(is_connected(..))`: redraw the scalar seed
/// until the graph is connected (bounded; density 0.1..0.9 on ≤26 nodes
/// connects within a few tries).
fn connected_graph_from(c: &mut CaseCtx, n: usize, p: f64) -> Graph {
    for _ in 0..64 {
        let g = graph_from(n, c.random::<u64>(), p);
        if is_connected(&g) {
            return g;
        }
    }
    // Fall back to certainly-connected density rather than failing the case.
    graph_from(n, c.random::<u64>(), 1.0)
}

fn arb_policy(c: &mut CaseCtx) -> GatewayPolicy {
    *c.pick(&[GatewayPolicy::AllBoundary, GatewayPolicy::MinimalPairwise])
}

#[test]
fn dhop_hierarchy_valid_and_depth_bounded() {
    check("dhop_hierarchy_valid_and_depth_bounded", CASES, |c| {
        let n = c.random_range(3usize..=28);
        let seed = c.random::<u64>();
        let p = c.random_range(0.05f64..0.8);
        let d = c.random_range(1usize..=4);
        let policy = arb_policy(c);
        let g = graph_from(n, seed, p);
        let h = dhop_lowest_id(&g, d, policy);
        assert_eq!(h.validate(&g), Ok(()));
        for u in g.nodes() {
            let depth = h.depth_of(u).expect("all clustered");
            assert!(depth <= d, "node {u} at depth {depth} > d={d}");
        }
    });
}

#[test]
fn dhop_heads_shrink_with_d() {
    check("dhop_heads_shrink_with_d", CASES, |c| {
        let n = c.random_range(6usize..=28);
        let seed = c.random::<u64>();
        let p = c.random_range(0.05f64..0.6);
        let g = graph_from(n, seed, p);
        let h1 = dhop_lowest_id(&g, 1, GatewayPolicy::MinimalPairwise);
        let h3 = dhop_lowest_id(&g, 3, GatewayPolicy::MinimalPairwise);
        assert!(h3.heads().len() <= h1.heads().len());
    });
}

#[test]
fn backbone_connected_on_connected_graphs() {
    check("backbone_connected_on_connected_graphs", CASES, |c| {
        let n = c.random_range(2usize..=26);
        let p = c.random_range(0.1f64..0.9);
        let kind = *c.pick(&[
            ClusteringKind::LowestId,
            ClusteringKind::HighestDegree,
            ClusteringKind::GreedyDominating,
        ]);
        let policy = arb_policy(c);
        let g = connected_graph_from(c, n, p);
        let h = cluster_with_policy(kind, &g, policy);
        assert!(
            backbone_connects_heads(&g, &h),
            "{kind:?}/{policy:?} disconnected backbone on connected graph"
        );
    });
}

#[test]
fn minimal_policy_never_more_gateways() {
    check("minimal_policy_never_more_gateways", CASES, |c| {
        let n = c.random_range(4usize..=26);
        let seed = c.random::<u64>();
        let p = c.random_range(0.05f64..0.9);
        let kind = *c.pick(&[ClusteringKind::LowestId, ClusteringKind::HighestDegree]);
        let g = graph_from(n, seed, p);
        let all = cluster_with_policy(kind, &g, GatewayPolicy::AllBoundary);
        let min = cluster_with_policy(kind, &g, GatewayPolicy::MinimalPairwise);
        assert!(min.gateway_count() <= all.gateway_count());
        assert_eq!(min.heads(), all.heads(), "policy must not change heads");
    });
}

#[test]
fn lcc_stays_valid_across_arbitrary_snapshots() {
    check("lcc_stays_valid_across_arbitrary_snapshots", CASES, |c| {
        let n = c.random_range(4usize..=20);
        let count = c.random_range(2usize..8);
        let seeds = c.vec_of(count, |c| (c.random::<u64>(), c.random_range(0.1f64..0.8)));
        let mut m = LccMaintainer::new(GatewayPolicy::MinimalPairwise);
        for (seed, p) in seeds {
            let g = graph_from(n, seed, p);
            let h = m.step(&g);
            assert_eq!(h.validate(&g), Ok(()));
        }
    });
}

#[test]
fn manhattan_always_connected_when_patched() {
    check("manhattan_always_connected_when_patched", CASES, |c| {
        let n = c.random_range(2usize..=24);
        let streets = c.random_range(2usize..=6);
        let seed = c.random::<u64>();
        let mut g = ManhattanGen::new(
            n,
            ManhattanConfig {
                streets,
                radius: 0.3,
                speed_blocks: 0.4,
                ensure_connected: true,
            },
            seed,
        );
        let trace = TvgTrace::capture(&mut g, 12);
        assert!(is_always_connected(&trace));
    });
}

#[test]
fn manhattan_deterministic() {
    check("manhattan_deterministic", CASES, |c| {
        let n = c.random_range(2usize..=16);
        let seed = c.random::<u64>();
        let cfg = ManhattanConfig::default();
        let mut a = ManhattanGen::new(n, cfg, seed);
        let mut b = ManhattanGen::new(n, cfg, seed);
        for r in [3usize, 0, 7] {
            assert_eq!(&*a.graph_at(r), &*b.graph_at(r));
        }
    });
}

#[test]
fn gf2_insert_rank_invariants() {
    check("gf2_insert_rank_invariants", CASES, |c| {
        let k = c.random_range(1usize..=64);
        let count = c.random_range(1usize..24);
        let vectors = c.vec_of(count, |c| c.random::<u64>());
        let mut basis = Gf2Basis::new(k);
        let mut prev_rank = 0;
        for bits in vectors {
            let mut v = Gf2Vec::zero(k);
            for i in 0..k.min(64) {
                if bits & (1 << i) != 0 {
                    v.set(i);
                }
            }
            let was_zero = v.is_empty();
            let grew = basis.insert(v);
            assert!(!(was_zero && grew), "zero vector cannot grow rank");
            let rank = basis.rank();
            assert_eq!(rank, prev_rank + usize::from(grew));
            assert!(rank <= k);
            prev_rank = rank;
        }
        // Decoded tokens are a subset of span dimensionality.
        assert!(basis.decoded().len() <= basis.rank());
        if basis.rank() == k {
            assert_eq!(basis.decoded().len(), k);
        }
    });
}

#[test]
fn gf2_reinserting_span_elements_never_grows() {
    check("gf2_reinserting_span_elements_never_grows", CASES, |c| {
        let k = c.random_range(1usize..=32);
        let count = c.random_range(1usize..12);
        let vectors = c.vec_of(count, |c| c.random::<u64>());
        let seed = c.random::<u64>();
        let mut basis = Gf2Basis::new(k);
        for bits in vectors {
            let mut v = Gf2Vec::zero(k);
            for i in 0..k.min(64) {
                if bits & (1 << i) != 0 {
                    v.set(i);
                }
            }
            basis.insert(v);
        }
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        for _ in 0..8 {
            if let Some(comb) = basis.random_combination(&mut rng) {
                let mut probe = basis.clone();
                assert!(!probe.insert(comb), "span element must be dependent");
            }
        }
    });
}
