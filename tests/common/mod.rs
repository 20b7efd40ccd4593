//! Batch reference verifiers: the paper's Definitions 2–8 and the audit
//! statistics, recomputed window by window from a materialised
//! [`CtvgTrace`].
//!
//! The library verifies stability in one forward pass
//! (`hinet_cluster::stability::stream::StabilityStream` and
//! `hinet_cluster::audit::StreamingAudit`). These functions are the
//! straightforward restatement of the definitions that the differential
//! properties (tests/prop_stream.rs) pin the stream to, so they favour
//! directness over speed: every window is rebuilt from scratch with
//! `Graph::intersect` and head connectivity is a plain `connects_all` BFS.
//! Their own unit tests are in tests/batch_reference.rs.
//!
//! Aligned windows are `[wT, min((w+1)T, len))`, the trailing partial
//! window included; sliding windows are every full `[s, s+T)`.
//!
//! The module ends with the other helpers only tests call: graph paths,
//! spanning trees and containment, the analysis-to-plan consistency check
//! and the trace-event recount. Their unit tests are in
//! tests/batch_reference.rs too.

#![allow(dead_code)] // each test binary uses its own subset

use hinet::cluster::audit::StabilityReport;
use hinet::cluster::ctvg::CtvgTrace;
use hinet::cluster::hierarchy::ClusterId;
use hinet::cluster::reaffiliation::ChurnStats;
use hinet::cluster::stability::same_structure;
use hinet::core::analysis::{hinet_tl_time, ModelParams};
use hinet::core::params::alg1_plan;
use hinet::graph::graph::{Graph, GraphBuilder, NodeId};
use hinet::graph::metrics::{snapshot_stats, TraceStats};
use hinet::graph::trace::TvgTrace;
use hinet::graph::verify::{is_always_connected, is_t_interval_connected};
use hinet::rt::obs::{Counters, Event, ParsedTrace, Tracer};

/// Definition 2 on one window: the head set is constant on rounds
/// `[start, start+len)`.
pub fn head_set_stable_in_window(trace: &CtvgTrace, start: usize, len: usize) -> bool {
    let first = trace.hierarchy(start).heads();
    (start + 1..start + len).all(|r| trace.hierarchy(r).heads() == first)
}

/// Definition 3 on one window: cluster `k`'s member set `M_k` is constant.
pub fn cluster_stable_in_window(trace: &CtvgTrace, k: ClusterId, start: usize, len: usize) -> bool {
    let first = trace.hierarchy(start).members_of(k);
    (start + 1..start + len).all(|r| trace.hierarchy(r).members_of(k) == first)
}

/// Definition 4 on one window: the whole hierarchy structure is constant.
pub fn hierarchy_stable_in_window(trace: &CtvgTrace, start: usize, len: usize) -> bool {
    let first = trace.hierarchy(start);
    (start + 1..start + len).all(|r| same_structure(trace.hierarchy(r), first))
}

/// Definition 5 on one window: the window's edge-intersection connects all
/// heads of the window's first round (possibly through non-head nodes).
pub fn head_connectivity_in_window(trace: &CtvgTrace, start: usize, len: usize) -> bool {
    let heads = trace.hierarchy(start).heads().to_vec();
    if heads.len() <= 1 {
        return true;
    }
    let inter = trace.topology().window_intersection(start, len);
    connects_all(&inter, &heads)
}

/// Definition 6/7 on one window: within the window's edge-intersection the
/// first round's heads have L-hop connectivity at most `l`.
pub fn l_hop_in_window(trace: &CtvgTrace, start: usize, len: usize, l: usize) -> bool {
    let inter = trace.topology().window_intersection(start, len);
    matches!(trace.hierarchy(start).l_hop_connectivity(&inter), Some(actual) if actual <= l)
}

/// Aligned windows `[wT, min((w+1)T, len))` as `(start, len)` pairs.
fn aligned_windows(trace_len: usize, t: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..trace_len.div_ceil(t)).map(move |w| {
        let start = w * t;
        (start, t.min(trace_len - start))
    })
}

/// Definition 2, trace-wide (aligned windows of length `t`).
pub fn is_head_set_t_stable(trace: &CtvgTrace, t: usize) -> bool {
    assert!(t >= 1);
    aligned_windows(trace.len(), t).all(|(s, l)| head_set_stable_in_window(trace, s, l))
}

/// Definition 4, trace-wide (aligned windows of length `t`).
pub fn is_hierarchy_t_stable(trace: &CtvgTrace, t: usize) -> bool {
    assert!(t >= 1);
    aligned_windows(trace.len(), t).all(|(s, l)| hierarchy_stable_in_window(trace, s, l))
}

/// Definition 7, trace-wide: every aligned window of length `t` has a
/// stable head-connecting subgraph with L-hop connectivity ≤ `l`.
pub fn has_t_interval_l_hop_connectivity(trace: &CtvgTrace, t: usize, l: usize) -> bool {
    assert!(t >= 1);
    aligned_windows(trace.len(), t).all(|(s, len)| {
        head_connectivity_in_window(trace, s, len) && l_hop_in_window(trace, s, len, l)
    })
}

/// Definition 8: Def 4 ∧ Def 7 over aligned windows.
pub fn is_t_l_hinet(trace: &CtvgTrace, t: usize, l: usize) -> bool {
    is_hierarchy_t_stable(trace, t) && has_t_interval_l_hop_connectivity(trace, t, l)
}

/// Whether the head set never changes — Remark 1's ∞-stable head set.
pub fn is_head_set_forever_stable(trace: &CtvgTrace) -> bool {
    head_set_stable_in_window(trace, 0, trace.len())
}

/// Emit paired `stability_window` open/close events for every aligned
/// window (Defs 2, 4, 5, 6, 7, 8, open at the window's first round, close
/// at its last) and return the number of windows in which Def 8 held.
pub fn trace_stability_windows(
    trace: &CtvgTrace,
    t: usize,
    l: usize,
    tracer: &mut Tracer,
) -> usize {
    assert!(t >= 1);
    let mut hinet_windows = 0;
    for (start, len) in aligned_windows(trace.len(), t) {
        let def2 = head_set_stable_in_window(trace, start, len);
        let def4 = hierarchy_stable_in_window(trace, start, len);
        let def5 = head_connectivity_in_window(trace, start, len);
        let def6 = l_hop_in_window(trace, start, len, l);
        let def7 = def5 && def6;
        let def8 = def4 && def7;
        hinet_windows += def8 as usize;
        let last = (start + len - 1) as u64;
        for (def, held) in [
            (2u8, def2),
            (4, def4),
            (5, def5),
            (6, def6),
            (7, def7),
            (8, def8),
        ] {
            tracer.stability_window(start as u64, def, true, held);
            tracer.stability_window(last, def, false, held);
        }
    }
    hinet_windows
}

/// Sliding Definition 2: every full window of `t` rounds has a constant
/// head set. Panics unless `1 ≤ t ≤ trace.len()`.
pub fn is_head_set_t_stable_sliding(trace: &CtvgTrace, t: usize) -> bool {
    assert!(t >= 1 && t <= trace.len());
    (0..=trace.len() - t).all(|s| head_set_stable_in_window(trace, s, t))
}

/// Sliding Definition 4. Panics unless `1 ≤ t ≤ trace.len()`.
pub fn is_hierarchy_t_stable_sliding(trace: &CtvgTrace, t: usize) -> bool {
    assert!(t >= 1 && t <= trace.len());
    (0..=trace.len() - t).all(|s| hierarchy_stable_in_window(trace, s, t))
}

/// Largest `t` such that every sliding window of `t` rounds has an
/// unchanged hierarchy: the shortest run between hierarchy changes.
pub fn max_hierarchy_stability_sliding(trace: &CtvgTrace) -> usize {
    let mut min_run = trace.len();
    let mut run = 1;
    for r in 1..trace.len() {
        if same_structure(trace.hierarchy(r), trace.hierarchy(r - 1)) {
            run += 1;
        } else {
            min_run = min_run.min(run);
            run = 1;
        }
    }
    min_run.min(run)
}

/// Largest `t` such that the trace is a (t, l)-HiNet, or `None` if not even
/// (1, l).
pub fn max_hinet_t(trace: &CtvgTrace, l: usize) -> Option<usize> {
    (1..=trace.len()).rev().find(|&t| is_t_l_hinet(trace, t, l))
}

/// Smallest `l` such that every aligned window of length `t` has L-hop head
/// connectivity ≤ `l`, or `None` if some window's intersection splits the
/// heads.
pub fn min_hinet_l(trace: &CtvgTrace, t: usize) -> Option<usize> {
    let mut worst = 0;
    for (s, len) in aligned_windows(trace.len(), t) {
        let inter = trace.topology().window_intersection(s, len);
        worst = worst.max(trace.hierarchy(s).l_hop_connectivity(&inter)?);
    }
    Some(worst)
}

/// The largest `t` for which the topology is T-interval connected (sliding
/// windows), or `None` if not even 1-interval connected. T-interval
/// connectivity is downward closed in `t`, so the scan stops at the first
/// failure.
pub fn max_interval_connectivity(trace: &TvgTrace) -> Option<usize> {
    if !is_t_interval_connected(trace, 1) {
        return None;
    }
    Some(
        (2..=trace.len())
            .take_while(|&t| is_t_interval_connected(trace, t))
            .last()
            .unwrap_or(1),
    )
}

/// Churn statistics of a trace: `θ` measured as distinct heads, `n_m` and
/// `n_r`.
pub fn churn_stats(trace: &CtvgTrace) -> ChurnStats {
    let n = trace.n();
    let rounds = trace.len();
    let mut ever_head = vec![false; n];
    let mut max_concurrent_heads = 0;
    let mut member_rounds = 0usize;
    let mut reaff = vec![0usize; n];
    let mut head_set_changes = 0;
    for r in 0..rounds {
        let h = trace.hierarchy(r);
        max_concurrent_heads = max_concurrent_heads.max(h.heads().len());
        for &u in h.heads() {
            ever_head[u.index()] = true;
        }
        member_rounds += h.member_count();
        if r > 0 {
            let prev = trace.hierarchy(r - 1);
            if prev.heads() != h.heads() {
                head_set_changes += 1;
            }
            for (i, count) in reaff.iter_mut().enumerate() {
                let u = NodeId::from_index(i);
                // A re-affiliation is a *non-head* node changing cluster.
                if !h.is_head(u) && prev.cluster_of(u) != h.cluster_of(u) {
                    *count += 1;
                }
            }
        }
    }
    let distinct_heads = ever_head.iter().filter(|&&b| b).count();
    let non_heads = n - distinct_heads;
    let total_reaffiliations: usize = reaff.iter().sum();
    ChurnStats {
        distinct_heads,
        max_concurrent_heads,
        mean_members: member_rounds as f64 / rounds as f64,
        mean_reaffiliations: if non_heads == 0 {
            0.0
        } else {
            total_reaffiliations as f64 / non_heads as f64
        },
        total_reaffiliations,
        head_set_changes,
    }
}

/// Density, clustering, churn and edge-persistence statistics of a
/// topology trace.
pub fn trace_stats(trace: &TvgTrace) -> TraceStats {
    let rounds = trace.len();
    let mut sum_edges = 0.0;
    let mut sum_density = 0.0;
    let mut sum_clustering = 0.0;
    for g in trace.iter() {
        let s = snapshot_stats(g);
        sum_edges += s.m as f64;
        sum_density += s.density;
        sum_clustering += s.clustering_coefficient;
    }
    let mean_edges = sum_edges / rounds as f64;
    let mut churn_total = 0;
    let mut persistence_sum = 0.0;
    let mut persistence_count = 0usize;
    for w in 0..rounds.saturating_sub(1) {
        let (cur, next) = (trace.graph(w), trace.graph(w + 1));
        churn_total += cur.edge_distance(next);
        if cur.m() == 0 {
            continue;
        }
        persistence_sum += cur.intersect(next).m() as f64 / cur.m() as f64;
        persistence_count += 1;
    }
    let mean_churn = if rounds < 2 {
        0.0
    } else {
        churn_total as f64 / (rounds - 1) as f64
    };
    TraceStats {
        rounds,
        mean_edges,
        mean_density: sum_density / rounds as f64,
        mean_clustering: sum_clustering / rounds as f64,
        mean_churn,
        relative_churn: if mean_edges == 0.0 {
            0.0
        } else {
            mean_churn / mean_edges
        },
        edge_persistence: if persistence_count == 0 {
            1.0
        } else {
            persistence_sum / persistence_count as f64
        },
    }
}

/// The full audit of a materialised trace, field for field what
/// `StreamingAudit` computes in one pass.
///
/// # Panics
/// Panics if any round's hierarchy fails validation.
pub fn audit(trace: &CtvgTrace) -> StabilityReport {
    if let Err((round, e)) = trace.validate() {
        panic!("cannot audit an invalid CTVG: round {round}: {e}");
    }
    let min_l = min_hinet_l(trace, 1);
    StabilityReport {
        always_connected: is_always_connected(trace.topology()),
        max_flat_t: max_interval_connectivity(trace.topology()),
        min_l,
        max_hinet_t: min_l.and_then(|l| max_hinet_t(trace, l)),
        max_sliding_hierarchy_t: max_hierarchy_stability_sliding(trace),
        heads_forever_stable: is_head_set_forever_stable(trace),
        churn: churn_stats(trace),
        topology: trace_stats(trace.topology()),
    }
}

/// Whether every node of `nodes` is reachable from every other in `sub`
/// (true for an empty set).
pub fn connects_all(sub: &Graph, nodes: &[NodeId]) -> bool {
    match nodes.first() {
        None => true,
        Some(&first) => {
            let dist = sub.bfs(first);
            nodes.iter().all(|&v| dist[v.index()] != u32::MAX)
        }
    }
}

/// Shortest path from `src` to `dst` as a node sequence (inclusive), or
/// `None` if `dst` is unreachable. Among equal-length paths the one
/// preferring smaller node ids is returned.
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
    Some(path)
}

/// Some spanning tree of `g` (the BFS tree from node 0), or `None` if `g`
/// is disconnected.
pub fn bfs_spanning_tree(g: &Graph) -> Option<Graph> {
    let n = g.n();
    if n == 0 {
        return Some(Graph::empty(0));
    }
    let mut b = GraphBuilder::new(n);
    let mut seen = vec![false; n];
    let mut queue = Vec::with_capacity(n);
    seen[0] = true;
    queue.push(NodeId(0));
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        for &v in g.neighbors(u) {
            if !seen[v.index()] {
                seen[v.index()] = true;
                b.add_edge(u, v);
                queue.push(v);
            }
        }
    }
    (queue.len() == n).then(|| b.build())
}

/// Whether every edge of `sub` is also an edge of `g` (on the same nodes).
pub fn contains_subgraph(g: &Graph, sub: &Graph) -> bool {
    sub.n() == g.n() && sub.edges().all(|e| g.has_edge(e.a, e.b))
}

/// Whether the analytic time of Algorithm 1 equals the round count of the
/// phase plan the simulator runs.
pub fn alg1_time_matches_plan(p: &ModelParams) -> bool {
    let plan = alg1_plan(
        p.k as usize,
        p.alpha as usize,
        p.l as usize,
        p.theta as usize,
    );
    plan.total_rounds() as u64 == hinet_tl_time(p)
}

/// The counters recomputed from a parsed trace's event stream. Byte costs
/// and the dedup gauge are not carried by events, so they are copied from
/// the header; for a complete trace every other field must equal the
/// header's (a mismatch means the artifact was truncated or hand-edited).
pub fn recount_events(trace: &ParsedTrace) -> Counters {
    let mut c = Counters {
        bytes_sent: trace.counters.bytes_sent,
        dups_discarded: trace.counters.dups_discarded,
        ..Counters::default()
    };
    for te in &trace.events {
        match &te.event {
            Event::RoundStart => c.rounds += 1,
            Event::TokenPush { count, role, .. } | Event::HeadBroadcast { count, role, .. } => {
                c.tokens_sent += count;
                c.packets_sent += 1;
                c.tokens_by_role[role.slot()] += count;
            }
            Event::PhaseAdvance { .. } => c.phases += 1,
            Event::Reaffiliation { .. } => c.reaffiliations += 1,
            Event::FaultInjected { .. } => c.faults_injected += 1,
            Event::Crash { .. } => c.crashes += 1,
            Event::Recover { .. } => c.recoveries += 1,
            Event::Retransmit { .. } => c.retransmits += 1,
            Event::Delayed { .. } => c.delays_injected += 1,
            Event::Duplicated { .. } => c.duplicates_injected += 1,
            Event::RetransmitTimeout { .. } => c.retransmit_timeouts += 1,
            Event::StallProbe { .. } => c.stall_probes += 1,
            Event::StabilityWindow { .. } | Event::RunEnd { .. } => {}
        }
    }
    c
}
