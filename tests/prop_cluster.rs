//! Property-based tests for the cluster substrate: clustering validity,
//! HiNet generator guarantees, the Fig. 2 lattice, churn accounting, and
//! exact revisits on the forward-only mobility providers. The stability
//! predicates and churn statistics come from the batch references in
//! tests/common/.
//!
//! Ported to the in-tree [`hinet::rt::check`] harness; re-run a failing case
//! with the `HINET_CHECK_SEED=…` command the failure message prints.

mod common;

use common::{
    churn_stats, cluster_stable_in_window, has_t_interval_l_hop_connectivity,
    head_connectivity_in_window, is_head_set_t_stable, is_hierarchy_t_stable, is_t_l_hinet,
    l_hop_in_window, min_hinet_l,
};
use hinet::cluster::clustering::{cluster, ClusteringKind, GatewayPolicy, LccMobilityGen};
use hinet::cluster::ctvg::{CtvgTrace, FlatProvider, HierarchyProvider};
use hinet::cluster::generators::{ClusteredMobilityGen, HiNetConfig, HiNetGen};
use hinet::cluster::hierarchy::ClusterId;
use hinet::graph::generators::{
    EdgeMarkovianGen, ManhattanConfig, ManhattanGen, RandomWaypointGen, WaypointConfig,
};
use hinet::graph::graph::{Graph, GraphBuilder, NodeId};
use hinet::graph::trace::TopologyProvider;
use hinet::graph::verify::is_always_connected;
use hinet::rt::check::{check, CaseCtx};
use hinet::rt::rng::Rng;

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

fn arb_kind(c: &mut CaseCtx) -> ClusteringKind {
    *c.pick(&[
        ClusteringKind::LowestId,
        ClusteringKind::HighestDegree,
        ClusteringKind::GreedyDominating,
    ])
}

/// A valid HiNet generator config.
fn arb_hinet_config(c: &mut CaseCtx) -> HiNetConfig {
    let num_heads = c.random_range(2usize..=6);
    let l = c.random_range(1usize..=3);
    let t = c.random_range(1usize..=5);
    let reaffil_prob = c.random_range(0.0f64..=0.8);
    let rotate_heads = c.random::<bool>();
    let noise_edges = c.random_range(0usize..12);
    let seed = c.random::<u64>();
    let backbone = (num_heads - 1) * (l - 1);
    let n = (num_heads + backbone + 10).max(20);
    HiNetConfig {
        n,
        num_heads,
        theta: (num_heads * 2).min(n),
        l,
        t,
        reaffil_prob,
        rotate_heads,
        noise_edges,
        seed,
    }
}

#[test]
fn clustering_always_valid_and_one_hop() {
    check("clustering_always_valid_and_one_hop", CASES, |c| {
        let n = c.random_range(2usize..=30);
        let seed = c.random::<u64>();
        let p = c.random_range(0.0f64..0.9);
        let kind = arb_kind(c);
        let g = graph_from(n, seed, p);
        let h = cluster(kind, &g);
        assert_eq!(h.validate(&g), Ok(()));
        // 1-hop clusters: every non-head adjacent to its head.
        for u in g.nodes() {
            if !h.is_head(u) {
                let head = h.head_of(u).expect("clustered");
                assert!(g.has_edge(u, head));
            }
        }
        // Every node covered, heads self-clustered.
        for &head in h.heads() {
            assert_eq!(h.cluster_of(head), Some(ClusterId(head)));
        }
    });
}

#[test]
fn clustering_covers_with_at_most_n_clusters() {
    check("clustering_covers_with_at_most_n_clusters", CASES, |c| {
        let n = c.random_range(2usize..=30);
        let seed = c.random::<u64>();
        let p = c.random_range(0.0f64..0.9);
        let kind = arb_kind(c);
        let g = graph_from(n, seed, p);
        let h = cluster(kind, &g);
        assert!(!h.heads().is_empty());
        assert!(h.heads().len() <= n);
        // Cluster count decreases with density: a complete graph is 1 cluster.
        if g.m() == n * (n - 1) / 2 {
            assert_eq!(h.heads().len(), 1);
        }
    });
}

#[test]
fn hinet_gen_satisfies_its_declared_model() {
    check("hinet_gen_satisfies_its_declared_model", CASES, |c| {
        let cfg = arb_hinet_config(c);
        let rounds = (3 * cfg.t).max(4);
        let mut gen = HiNetGen::new(cfg);
        let trace = CtvgTrace::capture(&mut gen, rounds);
        assert_eq!(trace.validate(), Ok(()));
        assert!(is_always_connected(trace.topology()));
        assert!(
            is_t_l_hinet(&trace, cfg.t, cfg.l),
            "generator must satisfy its own (T={}, L={})",
            cfg.t,
            cfg.l
        );
        // θ bound respected.
        let stats = churn_stats(&trace);
        assert!(stats.distinct_heads <= cfg.theta);
        assert!(stats.max_concurrent_heads == cfg.num_heads);
    });
}

#[test]
fn definition_lattice_on_random_hinet_traces() {
    check("definition_lattice_on_random_hinet_traces", CASES, |c| {
        let cfg = arb_hinet_config(c);
        let rounds = (2 * cfg.t).max(3);
        let mut gen = HiNetGen::new(cfg);
        let trace = CtvgTrace::capture(&mut gen, rounds);
        let (t, l) = (cfg.t, cfg.l);
        // Fig. 2: Def 8 ⇒ Def 4 ⇒ Defs 2,3 and Def 8 ⇒ Def 7 ⇒ Defs 5,6.
        if is_t_l_hinet(&trace, t, l) {
            assert!(is_hierarchy_t_stable(&trace, t));
            assert!(has_t_interval_l_hop_connectivity(&trace, t, l));
        }
        if is_hierarchy_t_stable(&trace, t) {
            assert!(is_head_set_t_stable(&trace, t));
            let win = t.min(trace.len());
            for &head in trace.hierarchy(0).heads() {
                assert!(cluster_stable_in_window(&trace, ClusterId(head), 0, win));
            }
        }
        if has_t_interval_l_hop_connectivity(&trace, t, l) {
            let win = t.min(trace.len());
            assert!(head_connectivity_in_window(&trace, 0, win));
            assert!(l_hop_in_window(&trace, 0, win, l));
        }
    });
}

#[test]
fn min_l_never_exceeds_declared_l() {
    check("min_l_never_exceeds_declared_l", CASES, |c| {
        // Noise can shorten head distances but the stable backbone bounds
        // them above by the declared L.
        let cfg = arb_hinet_config(c);
        let rounds = (2 * cfg.t).max(2);
        let mut gen = HiNetGen::new(cfg);
        let trace = CtvgTrace::capture(&mut gen, rounds);
        let measured = min_hinet_l(&trace, cfg.t);
        assert!(measured.is_some());
        assert!(
            measured.unwrap() <= cfg.l,
            "measured {measured:?} > declared {}",
            cfg.l
        );
    });
}

#[test]
fn zero_churn_config_reports_zero_reaffiliations() {
    check(
        "zero_churn_config_reports_zero_reaffiliations",
        CASES,
        |c| {
            let seed = c.random::<u64>();
            let t = c.random_range(1usize..5);
            let cfg = HiNetConfig {
                n: 24,
                num_heads: 3,
                theta: 3,
                l: 2,
                t,
                reaffil_prob: 0.0,
                rotate_heads: false,
                noise_edges: 4,
                seed,
            };
            let mut gen = HiNetGen::new(cfg);
            let trace = CtvgTrace::capture(&mut gen, 3 * t);
            let stats = churn_stats(&trace);
            assert_eq!(stats.total_reaffiliations, 0);
            assert_eq!(stats.head_set_changes, 0);
        },
    );
}

#[test]
fn stability_verdicts_deterministic() {
    check("stability_verdicts_deterministic", CASES, |c| {
        let cfg = arb_hinet_config(c);
        let rounds = (2 * cfg.t).max(2);
        let t1 = CtvgTrace::capture(&mut HiNetGen::new(cfg), rounds);
        let t2 = CtvgTrace::capture(&mut HiNetGen::new(cfg), rounds);
        assert_eq!(
            is_t_l_hinet(&t1, cfg.t, cfg.l),
            is_t_l_hinet(&t2, cfg.t, cfg.l)
        );
        assert_eq!(min_hinet_l(&t1, cfg.t), min_hinet_l(&t2, cfg.t));
        let (s1, s2) = (churn_stats(&t1), churn_stats(&t2));
        assert_eq!(s1, s2);
    });
}

/// Sweep rounds `0..rounds`, then revisit rounds in seeded random order,
/// asking for the graph, the hierarchy or both in either order: every
/// answer must equal the first sweep's by value.
fn assert_revisits_replay<P: HierarchyProvider>(c: &mut CaseCtx, mut p: P, rounds: usize) {
    let sweep: Vec<_> = (0..rounds)
        .map(|r| (p.graph_at(r), p.hierarchy_at(r)))
        .collect();
    for _ in 0..2 * rounds {
        let r = c.random_range(0..rounds);
        let (g, h) = &sweep[r];
        match c.random_range(0u32..3) {
            0 => {
                assert_eq!(*p.graph_at(r), **g, "graph at round {r}");
                assert_eq!(*p.hierarchy_at(r), **h, "hierarchy at round {r}");
            }
            1 => {
                assert_eq!(*p.hierarchy_at(r), **h, "hierarchy at round {r}");
                assert_eq!(*p.graph_at(r), **g, "graph at round {r}");
            }
            _ => assert_eq!(*p.hierarchy_at(r), **h, "hierarchy at round {r}"),
        }
    }
}

/// Run [`assert_revisits_replay`] on `inner` as a flat provider or under
/// one of the two clustering providers.
fn revisit_with_hierarchy<P: TopologyProvider>(c: &mut CaseCtx, inner: P, rounds: usize) {
    let kind = arb_kind(c);
    match c.random_range(0u32..4) {
        0 => assert_revisits_replay(c, FlatProvider::new(inner), rounds),
        1 => assert_revisits_replay(c, ClusteredMobilityGen::new(inner, kind, true), rounds),
        2 => assert_revisits_replay(c, ClusteredMobilityGen::new(inner, kind, false), rounds),
        _ => assert_revisits_replay(
            c,
            LccMobilityGen::new(inner, GatewayPolicy::MinimalPairwise),
            rounds,
        ),
    }
}

#[test]
fn forward_only_providers_replay_revisits_exactly() {
    check(
        "forward_only_providers_replay_revisits_exactly",
        CASES,
        |c| {
            let n = c.random_range(2usize..=30);
            let seed = c.random::<u64>();
            let rounds = c.random_range(1usize..=20);
            let ensure_connected = c.random::<bool>();
            match c.random_range(0u32..3) {
                0 => {
                    let cfg = WaypointConfig {
                        ensure_connected,
                        ..WaypointConfig::default()
                    };
                    revisit_with_hierarchy(c, RandomWaypointGen::new(n, cfg, seed), rounds);
                }
                1 => {
                    let cfg = ManhattanConfig {
                        ensure_connected,
                        ..ManhattanConfig::default()
                    };
                    revisit_with_hierarchy(c, ManhattanGen::new(n, cfg, seed), rounds);
                }
                _ => {
                    let (p, q) = (c.random_range(0.0..=0.3), c.random_range(0.0..=0.3));
                    let emdg = EdgeMarkovianGen::new(n, p, q, 0.2, ensure_connected, seed);
                    revisit_with_hierarchy(c, emdg, rounds);
                }
            }
        },
    );
}
