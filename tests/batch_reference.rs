//! Unit tests of the batch reference verifiers in tests/common/: the
//! definitions on hand-built traces, the windowing contract (aligned
//! windows include the trailing partial one, sliding windows are full),
//! the traced event pairs, and the churn, topology and flat-connectivity
//! statistics the reference audit reports.

mod common;

use common::*;
use hinet::cluster::ctvg::CtvgTrace;
use hinet::cluster::hierarchy::{single_cluster, ClusterId, Hierarchy, Role};
use hinet::cluster::stability::stream::StabilityStream;
use hinet::graph::generators::{OneIntervalGen, RandomWaypointGen, WaypointConfig};
use hinet::graph::graph::{Graph, NodeId};
use hinet::graph::trace::TvgTrace;
use hinet::rt::obs::{Event, ObsConfig, Tracer};
use std::sync::Arc;

fn nid(i: usize) -> NodeId {
    NodeId::from_index(i)
}

/// Two-cluster fixture on 6 nodes: heads 0 and 3, gateway chain 2
/// (head 0 - member 2 as gateway - head 3), members 1 and 4, 5.
fn fixture_hierarchy() -> Hierarchy {
    let roles = vec![
        Role::Head,
        Role::Member,
        Role::Gateway,
        Role::Head,
        Role::Member,
        Role::Member,
    ];
    let c0 = Some(ClusterId(nid(0)));
    let c3 = Some(ClusterId(nid(3)));
    Hierarchy::new(roles, vec![c0, c0, c0, c3, c3, c3])
}

fn fixture_graph() -> Graph {
    Graph::from_edges(6, [(0, 1), (0, 2), (2, 3), (3, 4), (3, 5)])
}

fn constant_trace(len: usize) -> CtvgTrace {
    let g = Arc::new(fixture_graph());
    let h = Arc::new(fixture_hierarchy());
    let t = TvgTrace::new((0..len).map(|_| Arc::clone(&g)).collect());
    CtvgTrace::new(t, (0..len).map(|_| Arc::clone(&h)).collect())
}

#[test]
fn constant_trace_is_hinet_for_all_t() {
    let trace = constant_trace(6);
    assert!(trace.validate().is_ok());
    for t in 1..=6 {
        assert!(is_t_l_hinet(&trace, t, 2), "t={t}");
    }
    assert!(is_head_set_forever_stable(&trace));
    assert_eq!(max_hinet_t(&trace, 2), Some(6));
    assert_eq!(min_hinet_l(&trace, 3), Some(2));
}

#[test]
fn l_threshold_is_sharp() {
    let trace = constant_trace(4);
    assert!(!has_t_interval_l_hop_connectivity(&trace, 2, 1));
    assert!(has_t_interval_l_hop_connectivity(&trace, 2, 2));
}

#[test]
fn membership_change_breaks_hierarchy_stability_but_not_head_stability() {
    let g = Arc::new(Graph::complete(6));
    let h1 = Arc::new(fixture_hierarchy());
    // Move node 1 from cluster 0 to cluster 3.
    let roles = vec![
        Role::Head,
        Role::Member,
        Role::Gateway,
        Role::Head,
        Role::Member,
        Role::Member,
    ];
    let c0 = Some(ClusterId(nid(0)));
    let c3 = Some(ClusterId(nid(3)));
    let h2 = Arc::new(Hierarchy::new(roles, vec![c0, c3, c0, c3, c3, c3]));
    let t = TvgTrace::new(vec![Arc::clone(&g), g]);
    let trace = CtvgTrace::new(t, vec![h1, h2]);
    assert!(is_head_set_t_stable(&trace, 2));
    assert!(!is_hierarchy_t_stable(&trace, 2));
    assert!(!cluster_stable_in_window(&trace, ClusterId(nid(0)), 0, 2));
    // Per-round (t = 1) everything is trivially stable.
    assert!(is_hierarchy_t_stable(&trace, 1));
}

#[test]
fn head_change_breaks_head_stability() {
    let g = Arc::new(Graph::complete(4));
    let h1 = Arc::new(single_cluster(4, nid(0)));
    let h2 = Arc::new(single_cluster(4, nid(1)));
    let t = TvgTrace::new(vec![Arc::clone(&g), g]);
    let trace = CtvgTrace::new(t, vec![h1, h2]);
    assert!(!is_head_set_t_stable(&trace, 2));
    assert!(!is_hierarchy_t_stable(&trace, 2));
    assert!(!is_head_set_forever_stable(&trace));
}

#[test]
fn definition_lattice_implications() {
    // Def 8 ⇒ Def 4 ⇒ Def 2 & Def 3; Def 8 ⇒ Def 7.
    let trace = constant_trace(4);
    let (t, l) = (2, 2);
    assert!(is_t_l_hinet(&trace, t, l));
    assert!(is_hierarchy_t_stable(&trace, t), "Def 8 ⇒ Def 4");
    assert!(is_head_set_t_stable(&trace, t), "Def 4 ⇒ Def 2");
    for &head in trace.hierarchy(0).heads() {
        assert!(
            cluster_stable_in_window(&trace, ClusterId(head), 0, t),
            "Def 4 ⇒ Def 3 for cluster {head}"
        );
    }
    assert!(
        has_t_interval_l_hop_connectivity(&trace, t, l),
        "Def 8 ⇒ Def 7"
    );
    assert!(head_connectivity_in_window(&trace, 0, t), "Def 7 ⇒ Def 5");
    assert!(l_hop_in_window(&trace, 0, t, l), "Def 7 ⇒ Def 6");
}

#[test]
fn churning_backbone_breaks_head_connectivity() {
    // Round 0 connects heads through node 2; round 1 through node 1 —
    // each round connected, but no stable connecting subgraph.
    let h = Arc::new(fixture_hierarchy());
    let g0 = Graph::from_edges(6, [(0, 1), (0, 2), (2, 3), (3, 4), (3, 5)]);
    let g1 = Graph::from_edges(6, [(0, 1), (0, 2), (1, 3), (3, 4), (3, 5)]);
    let t = TvgTrace::new(vec![Arc::new(g0), Arc::new(g1)]);
    let trace = CtvgTrace::new(t, vec![Arc::clone(&h), h]);
    assert!(head_connectivity_in_window(&trace, 0, 1));
    assert!(head_connectivity_in_window(&trace, 1, 1));
    assert!(!head_connectivity_in_window(&trace, 0, 2));
    assert!(!is_t_l_hinet(&trace, 2, 3));
    assert!(is_t_l_hinet(&trace, 1, 2));
}

#[test]
fn trailing_partial_window_checked() {
    // Length-5 trace with t=2: windows [0,2), [2,4), [4,5).
    let trace = constant_trace(5);
    assert!(is_t_l_hinet(&trace, 2, 2));
}

#[test]
fn violation_only_in_trailing_partial_window_is_caught() {
    // Length 5 with t = 3: windows [0,3) and the partial [3,5). The
    // head set changes only at round 4 — inside the partial window —
    // so dropping it would wrongly certify the trace (regression for
    // the module-level windowing contract, mirrored by the streaming
    // verifier in `stream`).
    let g = Arc::new(Graph::complete(4));
    let h1 = Arc::new(single_cluster(4, nid(0)));
    let h2 = Arc::new(single_cluster(4, nid(1)));
    let hs = vec![
        Arc::clone(&h1),
        Arc::clone(&h1),
        Arc::clone(&h1),
        Arc::clone(&h1),
        h2,
    ];
    let t = TvgTrace::new((0..5).map(|_| Arc::clone(&g)).collect());
    let trace = CtvgTrace::new(t, hs);
    assert!(!is_head_set_t_stable(&trace, 3));
    assert!(!is_hierarchy_t_stable(&trace, 3));
    assert!(!is_t_l_hinet(&trace, 3, 1));
    // t = 4 still works: the change round (4) sits on its boundary.
    assert_eq!(max_hinet_t(&trace, 1), Some(4));

    // The streaming verifier agrees verdict-for-verdict.
    let mut s = StabilityStream::new(3, 1).with_spectrum();
    let mut verdicts = push_chunk(&mut s, trace.iter());
    let (last, report) = s.finish();
    verdicts.extend(last);
    assert_eq!(verdicts.len(), 2);
    assert!(verdicts[0].def8);
    assert!(!verdicts[1].def2 && !verdicts[1].def8);
    assert_eq!(report.max_hinet_t(1), Some(4));
    let v = report.violation.unwrap();
    assert_eq!((v.def, v.window_start, v.round), (2, 3, 4));
}

#[test]
fn sliding_stability_stricter_than_aligned() {
    // Hierarchy changes exactly at round 2 of a 4-round trace: aligned
    // windows of length 2 are stable, sliding windows of length 2 are
    // not (the window [1, 3) straddles the change).
    let g = Arc::new(Graph::complete(4));
    let h1 = Arc::new(single_cluster(4, nid(0)));
    let h2 = Arc::new(single_cluster(4, nid(1)));
    let t = TvgTrace::new(vec![Arc::clone(&g), Arc::clone(&g), Arc::clone(&g), g]);
    let trace = CtvgTrace::new(t, vec![Arc::clone(&h1), h1, Arc::clone(&h2), h2]);
    assert!(
        is_hierarchy_t_stable(&trace, 2),
        "aligned: change on boundary"
    );
    assert!(!is_hierarchy_t_stable_sliding(&trace, 2));
    assert!(!is_head_set_t_stable_sliding(&trace, 2));
    assert!(is_head_set_t_stable_sliding(&trace, 1));
    assert_eq!(max_hierarchy_stability_sliding(&trace), 2);
}

#[test]
fn sliding_stability_of_constant_trace_is_full_length() {
    let trace = constant_trace(5);
    assert_eq!(max_hierarchy_stability_sliding(&trace), 5);
    assert!(is_hierarchy_t_stable_sliding(&trace, 5));
}

#[test]
fn stability_windows_are_traced_in_pairs() {
    let trace = constant_trace(5); // t=2 → windows [0,2) [2,4) [4,5)
    let mut tracer = Tracer::new(ObsConfig::full());
    let held = trace_stability_windows(&trace, 2, 2, &mut tracer);
    assert_eq!(held, 3, "constant trace: Def 8 holds in every window");
    // 3 windows × 6 definitions × open+close.
    let events: Vec<_> = tracer.events().collect();
    assert_eq!(events.len(), 36);
    assert!(events
        .iter()
        .all(|e| matches!(e.event, Event::StabilityWindow { held: true, .. })));
    // Open/close rounds bracket the aligned windows.
    assert_eq!(events[0].round, 0);
    assert_eq!(events[1].round, 1);
    assert_eq!(events.last().unwrap().round, 4);

    // A trace with a churning backbone breaks Defs 5/7/8 but not 2/4.
    let h = Arc::new(fixture_hierarchy());
    let g0 = Graph::from_edges(6, [(0, 1), (0, 2), (2, 3), (3, 4), (3, 5)]);
    let g1 = Graph::from_edges(6, [(0, 1), (0, 2), (1, 3), (3, 4), (3, 5)]);
    let t = TvgTrace::new(vec![Arc::new(g0), Arc::new(g1)]);
    let churny = CtvgTrace::new(t, vec![Arc::clone(&h), h]);
    let mut tracer = Tracer::new(ObsConfig::full());
    assert_eq!(trace_stability_windows(&churny, 2, 3, &mut tracer), 0);
    let broken: Vec<u8> = tracer
        .events()
        .filter_map(|e| match e.event {
            Event::StabilityWindow {
                def,
                open: true,
                held: false,
            } => Some(def),
            _ => None,
        })
        .collect();
    assert_eq!(broken, vec![5, 6, 7, 8]);
}

#[test]
fn single_head_trivially_connected() {
    let g = Arc::new(Graph::star(4));
    let h = Arc::new(single_cluster(4, nid(0)));
    let t = TvgTrace::new(vec![Arc::clone(&g), g]);
    let trace = CtvgTrace::new(t, vec![Arc::clone(&h), h]);
    assert!(has_t_interval_l_hop_connectivity(&trace, 2, 0));
}

fn hier(assign: &[usize], heads: &[usize]) -> Arc<Hierarchy> {
    let n = assign.len();
    let mut roles = vec![Role::Member; n];
    for &h in heads {
        roles[h] = Role::Head;
    }
    let cluster_of = assign.iter().map(|&a| Some(ClusterId(nid(a)))).collect();
    Arc::new(Hierarchy::new(roles, cluster_of))
}

#[test]
fn static_trace_zero_churn() {
    let g = Arc::new(Graph::complete(4));
    let h = hier(&[0, 0, 0, 0], &[0]);
    let t = TvgTrace::new(vec![Arc::clone(&g), Arc::clone(&g), g]);
    let trace = CtvgTrace::new(t, vec![Arc::clone(&h), Arc::clone(&h), h]);
    let s = churn_stats(&trace);
    assert_eq!(s.distinct_heads, 1);
    assert_eq!(s.max_concurrent_heads, 1);
    assert_eq!(s.mean_members, 3.0);
    assert_eq!(s.total_reaffiliations, 0);
    assert_eq!(s.mean_reaffiliations, 0.0);
    assert_eq!(s.head_set_changes, 0);
}

#[test]
fn reaffiliation_counted_once_per_move() {
    let g = Arc::new(Graph::complete(4));
    // Node 2 moves from cluster 0 to cluster 1 between rounds.
    let h0 = hier(&[0, 1, 0, 1], &[0, 1]);
    let h1 = hier(&[0, 1, 1, 1], &[0, 1]);
    let t = TvgTrace::new(vec![Arc::clone(&g), g]);
    let trace = CtvgTrace::new(t, vec![h0, h1]);
    let s = churn_stats(&trace);
    assert_eq!(s.total_reaffiliations, 1);
    assert_eq!(s.distinct_heads, 2);
    assert_eq!(s.mean_reaffiliations, 0.5, "1 move / 2 never-head nodes");
    assert_eq!(s.head_set_changes, 0);
}

#[test]
fn head_rotation_counted() {
    let g = Arc::new(Graph::complete(3));
    let h0 = hier(&[0, 0, 0], &[0]);
    let h1 = hier(&[1, 1, 1], &[1]);
    let t = TvgTrace::new(vec![Arc::clone(&g), g]);
    let trace = CtvgTrace::new(t, vec![h0, h1]);
    let s = churn_stats(&trace);
    assert_eq!(s.distinct_heads, 2);
    assert_eq!(s.max_concurrent_heads, 1);
    assert_eq!(s.head_set_changes, 1);
    // In round 1 node 1 is head (exempt); nodes 0 and 2 both moved from
    // cluster 0 to cluster 1 and are non-heads, so both count.
    assert_eq!(s.total_reaffiliations, 2);
}

#[test]
fn trace_stats_static_trace() {
    let g = Arc::new(Graph::cycle(6));
    let t = TvgTrace::new(vec![Arc::clone(&g), Arc::clone(&g), g]);
    let s = trace_stats(&t);
    assert_eq!(s.rounds, 3);
    assert!((s.mean_edges - 6.0).abs() < 1e-12);
    assert_eq!(s.mean_churn, 0.0);
    assert_eq!(s.relative_churn, 0.0);
    assert!((s.edge_persistence - 1.0).abs() < 1e-12);
}

#[test]
fn trace_stats_total_rewire() {
    // Two edge-disjoint spanning structures: persistence 0, churn high.
    let g1 = Arc::new(Graph::from_edges(4, [(0, 1), (2, 3)]));
    let g2 = Arc::new(Graph::from_edges(4, [(0, 2), (1, 3)]));
    let t = TvgTrace::new(vec![g1, g2]);
    let s = trace_stats(&t);
    assert_eq!(s.edge_persistence, 0.0);
    assert!((s.mean_churn - 4.0).abs() < 1e-12);
    assert!((s.relative_churn - 2.0).abs() < 1e-12);
}

#[test]
fn generator_sanity_slow_waypoint_is_persistent() {
    let mut slow = RandomWaypointGen::new(
        30,
        WaypointConfig {
            radius: 0.3,
            min_speed: 0.001,
            max_speed: 0.005,
            ensure_connected: true,
        },
        3,
    );
    let t = TvgTrace::capture(&mut slow, 20);
    let s = trace_stats(&t);
    assert!(
        s.edge_persistence > 0.9,
        "slow motion keeps links: {}",
        s.edge_persistence
    );

    let mut churny = OneIntervalGen::new(30, true, 0, 3);
    let t = TvgTrace::capture(&mut churny, 20);
    let s = trace_stats(&t);
    assert!(
        s.edge_persistence < 0.3,
        "fresh paths each round: {}",
        s.edge_persistence
    );
}

#[test]
fn mean_churn_counts_changes() {
    let g0 = Arc::new(Graph::from_edges(3, [(0, 1)]));
    let g1 = Arc::new(Graph::from_edges(3, [(1, 2)]));
    assert_eq!(trace_stats(&TvgTrace::new(vec![g0, g1])).mean_churn, 2.0);
}

fn static_trace(g: Graph, len: usize) -> TvgTrace {
    let g = Arc::new(g);
    TvgTrace::new((0..len).map(|_| Arc::clone(&g)).collect())
}

#[test]
fn max_interval_connectivity_of_static_alternating_and_split_traces() {
    assert_eq!(
        max_interval_connectivity(&static_trace(Graph::cycle(6), 5)),
        Some(5)
    );
    // Two edge-disjoint spanning trees: each round connected, but the
    // 2-window intersection is empty.
    let t1 = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
    let t2 = Graph::from_edges(5, [(0, 2), (2, 4), (4, 1), (1, 3)]);
    let alternating = TvgTrace::new(vec![Arc::new(t1), Arc::new(t2)]);
    assert_eq!(max_interval_connectivity(&alternating), Some(1));
    let good = Arc::new(Graph::cycle(4));
    let bad = Arc::new(Graph::from_edges(4, [(0, 1), (2, 3)]));
    let split = TvgTrace::new(vec![Arc::clone(&good), bad, good]);
    assert_eq!(max_interval_connectivity(&split), None);
}

#[test]
fn foremost_arrival_static_path() {
    let t = static_trace(Graph::path(5), 10);
    let a = foremost_arrival(&t, NodeId(0), 0);
    assert_eq!(a, vec![0, 1, 2, 3, 4]);
    assert_eq!(flooding_makespan(&t, NodeId(0), 0), Some(4));
    assert_eq!(flooding_makespan(&t, NodeId(2), 0), Some(2));
}

#[test]
fn foremost_arrival_uses_changing_edges() {
    // Round 0: 0-1 only; round 1: 1-2 only — node 2 reachable at time 2
    // via the temporal journey even though no single snapshot connects
    // 0 to 2.
    let g0 = Graph::from_edges(3, [(0, 1)]);
    let g1 = Graph::from_edges(3, [(1, 2)]);
    let t = TvgTrace::new(vec![Arc::new(g0), Arc::new(g1)]);
    let a = foremost_arrival(&t, NodeId(0), 0);
    assert_eq!(a, vec![0, 1, 2]);
    assert_eq!(flooding_makespan(&t, NodeId(0), 0), Some(2));
    // The reverse-ordered trace cannot deliver 0 → 2.
    let g0 = Graph::from_edges(3, [(1, 2)]);
    let g1 = Graph::from_edges(3, [(0, 1)]);
    let t = TvgTrace::new(vec![Arc::new(g0), Arc::new(g1)]);
    let a = foremost_arrival(&t, NodeId(0), 0);
    assert_eq!(a[2], u32::MAX, "temporal order matters");
    assert_eq!(flooding_makespan(&t, NodeId(0), 0), None);
}

#[test]
fn foremost_arrival_unreachable_in_short_trace() {
    let t = static_trace(Graph::path(6), 2);
    let a = foremost_arrival(&t, NodeId(0), 0);
    assert_eq!(a[2], 2);
    assert_eq!(a[5], u32::MAX);
    assert_eq!(flooding_makespan(&t, NodeId(0), 0), None);
}

#[test]
#[should_panic(expected = "cannot audit an invalid CTVG")]
fn audit_rejects_invalid_trace() {
    // Member 3 not adjacent to head 0 on a path.
    let g = Arc::new(Graph::path(4));
    let h = Arc::new(single_cluster(4, NodeId(0)));
    let trace = CtvgTrace::new(TvgTrace::new(vec![g]), vec![h]);
    let _ = audit(&trace);
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
fn connects_all_subset() {
    let g = Graph::from_edges(5, [(0, 1), (1, 2)]);
    assert!(connects_all(&g, &[NodeId(0), NodeId(2)]));
    assert!(!connects_all(&g, &[NodeId(0), NodeId(4)]));
    assert!(connects_all(&g, &[]));
}

#[test]
fn bfs_tree_spans_connected_graph() {
    let g = Graph::complete(9);
    let t = bfs_spanning_tree(&g).unwrap();
    assert_eq!(t.m(), 8);
    assert!(t.is_connected());
    assert!(contains_subgraph(&g, &t));
}

#[test]
fn bfs_tree_none_when_disconnected() {
    let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
    assert!(bfs_spanning_tree(&g).is_none());
}

#[test]
fn bfs_tree_trivial_cases() {
    assert!(bfs_spanning_tree(&Graph::empty(1)).is_some());
    assert!(bfs_spanning_tree(&Graph::empty(0)).is_some());
}

#[test]
fn contains_subgraph_checks_edges() {
    let g = Graph::complete(4);
    let sub = Graph::path(4);
    assert!(contains_subgraph(&g, &sub));
    assert!(!contains_subgraph(&sub, &g));
    assert!(
        !contains_subgraph(&g, &Graph::path(3)),
        "node counts differ"
    );
}

#[test]
fn analysis_consistent_with_phase_plan() {
    use hinet::core::analysis::ModelParams;
    assert!(alg1_time_matches_plan(&ModelParams::table3()));
    let other = ModelParams {
        n0: 250,
        theta: 60,
        n_m: 100,
        n_r: 5,
        k: 16,
        alpha: 3,
        l: 4,
    };
    assert!(alg1_time_matches_plan(&other));
}

#[test]
fn recount_matches_the_header_of_a_full_trace() {
    use hinet::rt::obs::{FaultKind, ParsedTrace};
    let mut t = Tracer::new(ObsConfig::full());
    t.round_start(0);
    t.fault_injected(0, 3, Some(1), FaultKind::Loss);
    t.fault_injected(0, 4, None, FaultKind::Partition);
    t.crash(1, 2, true);
    t.retransmit(2, 3, 2, Some(0));
    t.recover(3, 2);
    t.run_end(4, false);
    let parsed = ParsedTrace::parse_jsonl(&t.to_jsonl()).unwrap();
    assert!(parsed.is_complete());
    assert_eq!(recount_events(&parsed), parsed.counters);
    assert_eq!(recount_events(&parsed).faults_injected, 2);
}
