//! Verifiers for the paper's stability definitions (Definitions 2–8).
//!
//! # Windowing contract
//!
//! Algorithm 1 runs in phases aligned to round `0, T, 2T, …`, and the
//! paper's stability quantifiers (`∀ i, j ∈ [0, T−1]`) describe one such
//! window. The two verifier families in this module differ **only** in how
//! they place windows, and every implementation (batch and the streaming
//! [`stream`] module) honours the same contract:
//!
//! * **Aligned** verifiers (`is_*_t_stable`, [`is_t_l_hinet`],
//!   [`trace_stability_windows`], [`max_hinet_t`], [`min_hinet_l`]) check
//!   the windows `[wT, min((w+1)T, len))`. A trailing partial window —
//!   when the trace length is not a multiple of `T` — **is checked**, not
//!   dropped: the paper's predicate constrains every phase an algorithm
//!   can start, including one the trace cuts short. Aligned verifiers
//!   accept any `t ≥ 1`, even `t > len` (one partial window).
//! * **Sliding** verifiers (`is_*_t_stable_sliding`,
//!   [`max_hierarchy_stability_sliding`]) check every offset `[s, s+T)`
//!   with `s ≤ len − T` — full windows only, and they require
//!   `1 ≤ t ≤ len`. Strictly stronger than aligned: a change on an
//!   aligned boundary breaks a sliding window but no aligned one.
//!
//! The implication lattice of Fig. 2 — Def 8 ⇒ Def 4 ⇒ (Def 2 ∧ Def 3),
//! Def 8 ⇒ Def 7 ⇒ (Def 5 ∧ Def 6) — is exercised by this module's tests
//! and by property tests at the workspace level (experiment E4);
//! `tests/prop_stream.rs` additionally pins the streaming verdicts to the
//! batch ones pointwise.

/// One-pass streaming verification (constant memory per round).
pub mod stream;

use crate::ctvg::CtvgTrace;
use crate::hierarchy::{ClusterId, Hierarchy};
use hinet_graph::traversal::connects_all;
use hinet_graph::Graph;

/// Whether two hierarchies have the same *structure* in the sense of
/// Definition 4: identical head sets and identical cluster membership
/// functions `I`. Role flips between member and gateway do not count —
/// the paper's `M_k` and `V_h` are both insensitive to them.
pub fn same_structure(a: &Hierarchy, b: &Hierarchy) -> bool {
    if a.n() != b.n() || a.heads() != b.heads() {
        return false;
    }
    (0..a.n()).all(|i| {
        let u = hinet_graph::graph::NodeId::from_index(i);
        a.cluster_of(u) == b.cluster_of(u)
    })
}

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

/// Definition 5 on one window: there is a connected subgraph `Υ` containing
/// all heads that is present in **every** round of the window — equivalently
/// the window's edge-intersection connects all heads (possibly through
/// non-head nodes).
///
/// The head set used is the window's first round's (under Def 8 the head set
/// is constant anyway; for standalone use this is documented behaviour).
pub fn head_connectivity_in_window(trace: &CtvgTrace, start: usize, len: usize) -> bool {
    let heads = trace.hierarchy(start).heads().to_vec();
    if heads.len() <= 1 {
        return true;
    }
    let inter = trace.topology().window_intersection(start, len);
    connects_all(&inter, &heads)
}

/// Definition 6/7 on one window: within the stable subgraph (the window's
/// edge-intersection) the heads have L-hop connectivity at most `l`.
pub fn l_hop_in_window(trace: &CtvgTrace, start: usize, len: usize, l: usize) -> bool {
    let h = trace.hierarchy(start);
    let inter = trace.topology().window_intersection(start, len);
    match h.l_hop_connectivity(&inter) {
        Some(actual) => actual <= l,
        None => false,
    }
}

/// Iterate aligned windows `[wT, min((w+1)T, len))` of a trace — including
/// the trailing partial window (see the module-level windowing contract).
fn aligned_windows(trace_len: usize, t: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..trace_len.div_ceil(t)).map(move |w| {
        let start = w * t;
        let len = t.min(trace_len - start);
        (start, len)
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

/// Definition 7, trace-wide: every aligned window of length `t` has a stable
/// head-connecting subgraph with L-hop connectivity ≤ `l`.
pub fn has_t_interval_l_hop_connectivity(trace: &CtvgTrace, t: usize, l: usize) -> bool {
    assert!(t >= 1);
    aligned_windows(trace.len(), t).all(|(s, len)| {
        head_connectivity_in_window(trace, s, len) && l_hop_in_window(trace, s, len, l)
    })
}

/// Definition 8: the full (T, L)-HiNet predicate — T-interval stable
/// hierarchy (Def 4) **and** T-interval L-hop cluster-head connectivity
/// (Def 7), over aligned windows.
pub fn is_t_l_hinet(trace: &CtvgTrace, t: usize, l: usize) -> bool {
    is_hierarchy_t_stable(trace, t) && has_t_interval_l_hop_connectivity(trace, t, l)
}

/// Whether the head set never changes across the whole trace — the
/// ∞-interval stable head set of Remark 1.
pub fn is_head_set_forever_stable(trace: &CtvgTrace) -> bool {
    head_set_stable_in_window(trace, 0, trace.len())
}

/// Verify every aligned window of length `t` against the definition
/// lattice and emit paired [`hinet_rt::obs::Event::StabilityWindow`]
/// open/close events into `tracer` (open at the window's first round,
/// close at its last, both carrying the verdict).
///
/// This is the batch reference for the one-pass
/// [`stream::StabilityStream`], which `hinet trace --stability-stream`
/// and the engine's runtime oracle run: the differential tests
/// (`tests/prop_stream.rs`) assert both emit the same events. It needs
/// the materialised trace; prefer the stream outside tests.
///
/// Definitions traced per window: 2 (head set), 4 (hierarchy structure),
/// 5 (head connectivity), 6 (L-hop ≤ `l`), 7 (5 ∧ 6), and 8 (4 ∧ 7).
/// Definition 3 is per-cluster rather than per-window and is omitted.
/// The trailing partial window is traced like any other (module-level
/// windowing contract); the streaming [`stream::StabilityStream`] emits a
/// byte-identical event sequence. Returns the number of windows in which
/// **Definition 8** held.
pub fn trace_stability_windows(
    trace: &CtvgTrace,
    t: usize,
    l: usize,
    tracer: &mut hinet_rt::obs::Tracer,
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
        if def8 {
            hinet_windows += 1;
        }
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

/// **Sliding-window** variant of Definition 2: `true` iff *every* window
/// of `t` consecutive rounds (all offsets) has a constant head set.
///
/// Strictly stronger than the aligned [`is_head_set_t_stable`]: a single
/// change between adjacent rounds caps the sliding stability at 1, whereas
/// aligned windows tolerate changes at their boundaries. The aligned form
/// is what phase-based algorithms need; the sliding form is the honest
/// answer to "how stable is this trace, full stop".
///
/// # Panics
/// Panics unless `1 ≤ t ≤ trace.len()` — sliding windows are always full,
/// unlike the aligned family's trailing partial window.
pub fn is_head_set_t_stable_sliding(trace: &CtvgTrace, t: usize) -> bool {
    assert!(t >= 1 && t <= trace.len());
    (0..=trace.len() - t).all(|s| head_set_stable_in_window(trace, s, t))
}

/// Sliding-window variant of Definition 4 (full windows only; panics
/// unless `1 ≤ t ≤ trace.len()`).
pub fn is_hierarchy_t_stable_sliding(trace: &CtvgTrace, t: usize) -> bool {
    assert!(t >= 1 && t <= trace.len());
    (0..=trace.len() - t).all(|s| hierarchy_stable_in_window(trace, s, t))
}

/// Largest sliding-window hierarchy stability: the maximum `t` such that
/// every window of `t` consecutive rounds has an unchanged hierarchy.
/// Equals `1 +` the minimum gap between consecutive hierarchy changes
/// (and the trace length if the hierarchy never changes).
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

/// Largest `t` such that the trace is a (t, l)-HiNet (aligned windows), or
/// `None` if not even (1, l).
pub fn max_hinet_t(trace: &CtvgTrace, l: usize) -> Option<usize> {
    let mut best = None;
    for t in 1..=trace.len() {
        if is_t_l_hinet(trace, t, l) {
            best = Some(t);
        }
    }
    best
}

/// Smallest `l` such that the trace has (t, l)-HiNet connectivity for the
/// given `t`, or `None` if heads are not connectable in some window.
pub fn min_hinet_l(trace: &CtvgTrace, t: usize) -> Option<usize> {
    let mut worst: usize = 0;
    for (s, len) in aligned_windows(trace.len(), t) {
        let h = trace.hierarchy(s);
        let inter: Graph = trace.topology().window_intersection(s, len);
        match h.l_hop_connectivity(&inter) {
            Some(l) => worst = worst.max(l),
            None => return None,
        }
    }
    Some(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::{single_cluster, Role};
    use hinet_graph::graph::NodeId;
    use hinet_graph::trace::TvgTrace;
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
        let mut s = stream::StabilityStream::new(3, 1).with_spectrum();
        let mut verdicts = s.push_chunk(trace.iter());
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
        use hinet_rt::obs::{Event, ObsConfig, Tracer};

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
}
