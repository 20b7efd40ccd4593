//! One-pass stability audit of CTVG dynamics.
//!
//! Pulls together the model predicates (Definitions 2–8), the flat-network
//! baselines (per-round and T-interval connectivity), the churn statistics
//! and the topology dynamics into a single report. [`StreamingAudit`]
//! computes it in one forward pass — what the `stability_audit` example
//! and the CLI `audit` subcommand run. The workspace tests pin it, field
//! for field, to a batch restatement over a materialised trace
//! (`tests/common/`, checked in `tests/prop_stream.rs`).

use crate::hierarchy::Hierarchy;
use crate::reaffiliation::ChurnStats;
use crate::stability::stream::StabilityStream;
use hinet_graph::graph::{Graph, NodeId};
use hinet_graph::metrics::{snapshot_stats, TraceStats};
use std::sync::Arc;

/// The full audit result.
#[derive(Clone, Debug, PartialEq)]
pub struct StabilityReport {
    /// Whether every snapshot is connected (1-interval connectivity).
    pub always_connected: bool,
    /// Largest flat T-interval connectivity (sliding windows), `None` if
    /// some round is disconnected.
    pub max_flat_t: Option<usize>,
    /// Minimal per-round L-hop head connectivity, `None` if heads are
    /// unreachable in some round.
    pub min_l: Option<usize>,
    /// Largest `T` such that the trace is a (T, min_l)-HiNet (aligned
    /// windows), `None` when `min_l` is undefined or no `T` works.
    pub max_hinet_t: Option<usize>,
    /// Largest sliding-window hierarchy stability.
    pub max_sliding_hierarchy_t: usize,
    /// Whether the head set never changes (Remark 1's precondition).
    pub heads_forever_stable: bool,
    /// Churn statistics (`θ`, `n_m`, `n_r`, …).
    pub churn: ChurnStats,
    /// Topology dynamics (density, churn rate, edge persistence).
    pub topology: TraceStats,
}

impl StabilityReport {
    /// Render as indented plain text.
    pub fn to_text(&self) -> String {
        let opt = |v: Option<usize>| v.map_or("—".to_string(), |x| x.to_string());
        format!(
            "connectivity:\n\
             \x20 1-interval connected: {}\n\
             \x20 max flat T-interval (sliding): {}\n\
             hierarchy:\n\
             \x20 min L-hop head connectivity: {}\n\
             \x20 max (T, L)-HiNet window (aligned): {}\n\
             \x20 max hierarchy stability (sliding): {}\n\
             \x20 head set ∞-stable: {}\n\
             churn:\n\
             \x20 θ measured (distinct heads): {}\n\
             \x20 max concurrent heads: {}\n\
             \x20 mean members/round (n_m): {:.1}\n\
             \x20 re-affiliations/member (n_r): {:.2}\n\
             \x20 head-set changes: {}\n\
             topology:\n\
             \x20 mean edges: {:.1} (density {:.3})\n\
             \x20 edge persistence: {:.2}\n\
             \x20 relative churn: {:.2}\n",
            self.always_connected,
            opt(self.max_flat_t),
            opt(self.min_l),
            opt(self.max_hinet_t),
            self.max_sliding_hierarchy_t,
            self.heads_forever_stable,
            self.churn.distinct_heads,
            self.churn.max_concurrent_heads,
            self.churn.mean_members,
            self.churn.mean_reaffiliations,
            self.churn.head_set_changes,
            self.topology.mean_edges,
            self.topology.mean_density,
            self.topology.edge_persistence,
            self.topology.relative_churn,
        )
    }
}

/// One-pass stability audit: push rounds as they are produced and get the
/// [`StabilityReport`] without materialising a
/// [`CtvgTrace`](crate::ctvg::CtvgTrace).
///
/// Built on [`StabilityStream`] (in spectrum mode, configured at `t = 1`,
/// so `min_l` and `max_hinet_t` fall out of the stream summary) plus
/// one-pass flat-connectivity, churn and topology statistics.
/// The flat T-interval answer uses a per-round bottleneck: with each
/// surviving edge's *age* (rounds of continuous presence, off the stream's
/// present-since map) the largest age threshold at which the snapshot is
/// spanned equals the longest window ending this round whose intersection
/// is connected — `max_flat_t` is the minimum of those bottlenecks over
/// rounds they actually constrain.
///
/// Retained state is `O(n + m)` — independent of the horizon; see
/// [`StreamingAudit::peak_state_bytes`].
///
/// # Panics
/// [`push`](Self::push) panics if a round's hierarchy fails validation —
/// an invalid CTVG has no meaningful stability properties to report;
/// [`finish`](Self::finish) expects at least one pushed round.
pub struct StreamingAudit {
    stream: StabilityStream,
    round: usize,
    always_connected: bool,
    flat_dead: bool,
    flat_min: Option<usize>,
    ever_head: Vec<bool>,
    max_concurrent_heads: usize,
    member_rounds: usize,
    reaff: Vec<usize>,
    head_set_changes: usize,
    prev_h: Option<Arc<Hierarchy>>,
    sum_edges: f64,
    sum_density: f64,
    sum_clustering: f64,
    churn_total: usize,
    persistence_sum: f64,
    persistence_count: usize,
    prev_g: Option<Arc<Graph>>,
}

impl Default for StreamingAudit {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingAudit {
    /// Start an empty streaming audit.
    pub fn new() -> Self {
        StreamingAudit {
            stream: StabilityStream::new(1, 0).with_spectrum(),
            round: 0,
            always_connected: true,
            flat_dead: false,
            flat_min: None,
            ever_head: Vec::new(),
            max_concurrent_heads: 0,
            member_rounds: 0,
            reaff: Vec::new(),
            head_set_changes: 0,
            prev_h: None,
            sum_edges: 0.0,
            sum_density: 0.0,
            sum_clustering: 0.0,
            churn_total: 0,
            persistence_sum: 0.0,
            persistence_count: 0,
            prev_g: None,
        }
    }

    /// Consume one round of the dynamics.
    pub fn push(&mut self, g: &Arc<Graph>, h: &Arc<Hierarchy>) {
        let round = self.round;
        if let Err(e) = h.validate(g) {
            panic!("cannot audit an invalid CTVG: round {round}: {e}");
        }
        self.stream.push(g, h);

        // Flat-network baselines.
        self.always_connected &= g.is_connected();
        let a = flat_bottleneck(g.n(), self.stream.edge_ages(), round);
        if a == 0 {
            self.flat_dead = true;
        } else if a < round + 1 {
            self.flat_min = Some(self.flat_min.map_or(a, |m| m.min(a)));
        }

        // Churn statistics: θ as distinct heads, n_m, and n_r counting a
        // non-head node changing cluster.
        let n = g.n();
        if self.ever_head.len() < n {
            self.ever_head.resize(n, false);
            self.reaff.resize(n, 0);
        }
        self.max_concurrent_heads = self.max_concurrent_heads.max(h.heads().len());
        for &u in h.heads() {
            self.ever_head[u.index()] = true;
        }
        self.member_rounds += h.member_count();
        if let Some(prev) = &self.prev_h {
            if prev.heads() != h.heads() {
                self.head_set_changes += 1;
            }
            for i in 0..n {
                let u = NodeId::from_index(i);
                if !h.is_head(u) && prev.cluster_of(u) != h.cluster_of(u) {
                    self.reaff[i] += 1;
                }
            }
        }

        // Topology dynamics.
        let s = snapshot_stats(g);
        self.sum_edges += s.m as f64;
        self.sum_density += s.density;
        self.sum_clustering += s.clustering_coefficient;
        if let Some(prev) = &self.prev_g {
            self.churn_total += prev.edge_distance(g);
            if prev.m() != 0 {
                let kept = prev.intersect(g).m();
                self.persistence_sum += kept as f64 / prev.m() as f64;
                self.persistence_count += 1;
            }
        }

        self.prev_h = Some(Arc::clone(h));
        self.prev_g = Some(Arc::clone(g));
        self.round = round + 1;
    }

    /// Rounds consumed so far.
    pub fn rounds(&self) -> usize {
        self.round
    }

    /// Deterministic high-water estimate of retained state, in bytes (the
    /// inner stream's peak plus this pass's own `O(n)` accumulators).
    pub fn peak_state_bytes(&self) -> usize {
        self.stream.peak_state_bytes()
            + std::mem::size_of::<Self>()
            + self.ever_head.len()
            + self.reaff.len() * std::mem::size_of::<usize>()
    }

    /// Summarise into the [`StabilityReport`].
    pub fn finish(self) -> StabilityReport {
        let rounds = self.round;
        let (_, sr) = self.stream.finish();
        let min_l = sr.min_hinet_l;
        let distinct_heads = self.ever_head.iter().filter(|&&b| b).count();
        let non_heads = self.ever_head.len() - distinct_heads;
        let total_reaffiliations: usize = self.reaff.iter().sum();
        let mean_edges = self.sum_edges / rounds as f64;
        let mean_churn = if rounds < 2 {
            0.0
        } else {
            self.churn_total as f64 / (rounds - 1) as f64
        };
        StabilityReport {
            always_connected: self.always_connected,
            max_flat_t: if self.flat_dead {
                None
            } else {
                Some(self.flat_min.unwrap_or(rounds))
            },
            min_l,
            max_hinet_t: min_l.and_then(|l| sr.max_hinet_t(l)),
            max_sliding_hierarchy_t: sr.max_sliding_hierarchy_t,
            heads_forever_stable: sr.heads_forever_stable,
            churn: ChurnStats {
                distinct_heads,
                max_concurrent_heads: self.max_concurrent_heads,
                mean_members: self.member_rounds as f64 / rounds as f64,
                mean_reaffiliations: if non_heads == 0 {
                    0.0
                } else {
                    total_reaffiliations as f64 / non_heads as f64
                },
                total_reaffiliations,
                head_set_changes: self.head_set_changes,
            },
            topology: TraceStats {
                rounds,
                mean_edges,
                mean_density: self.sum_density / rounds as f64,
                mean_clustering: self.sum_clustering / rounds as f64,
                mean_churn,
                relative_churn: if mean_edges == 0.0 {
                    0.0
                } else {
                    mean_churn / mean_edges
                },
                edge_persistence: if self.persistence_count == 0 {
                    1.0
                } else {
                    self.persistence_sum / self.persistence_count as f64
                },
            },
        }
    }
}

/// Largest age threshold `a` such that the edges continuously present for
/// the last `a` rounds span a connected graph on all `n` nodes at round
/// `f` (ages off the stream's present-since map) — `0` when even the full
/// snapshot is disconnected, `f + 1` when the round is unconstrained.
fn flat_bottleneck(
    n: usize,
    ages: &std::collections::BTreeMap<(u32, u32), u32>,
    f: usize,
) -> usize {
    if n <= 1 {
        return f + 1;
    }
    let mut edges: Vec<(usize, u32, u32)> = ages
        .iter()
        .map(|(&(u, v), &ps)| (f - ps as usize + 1, u, v))
        .collect();
    edges.sort_unstable_by_key(|e| std::cmp::Reverse(e.0));
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    let mut components = n;
    for (age, u, v) in edges {
        let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
        if ru != rv {
            parent[ru as usize] = rv;
            components -= 1;
            if components == 1 {
                return age;
            }
        }
    }
    0
}

/// Audit a materialised trace through [`StreamingAudit`] — the crate's
/// unit tests' one-call report.
#[cfg(test)]
pub(crate) fn audit_trace(trace: &crate::ctvg::CtvgTrace) -> StabilityReport {
    let mut sa = StreamingAudit::new();
    for (g, h) in trace.iter() {
        sa.push(g, h);
    }
    sa.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctvg::CtvgTrace;
    use crate::generators::{HiNetConfig, HiNetGen};

    fn constructed(t: usize, rotate: bool, seed: u64) -> CtvgTrace {
        let mut gen = HiNetGen::new(HiNetConfig {
            n: 30,
            num_heads: 4,
            theta: 8,
            l: 2,
            t,
            reaffil_prob: 0.1,
            rotate_heads: rotate,
            noise_edges: 5,
            seed,
        });
        CtvgTrace::capture(&mut gen, 3 * t.max(2))
    }

    #[test]
    fn audit_of_constructed_hinet_matches_declaration() {
        let trace = constructed(4, true, 1);
        let r = audit_trace(&trace);
        assert!(r.always_connected);
        assert!(r.min_l.unwrap() <= 2);
        assert!(r.max_hinet_t.unwrap() >= 4, "declared window honoured");
        assert!(!r.heads_forever_stable, "rotation on");
        assert_eq!(r.churn.max_concurrent_heads, 4);
    }

    #[test]
    fn audit_detects_forever_stable_heads() {
        let trace = constructed(3, false, 2);
        let r = audit_trace(&trace);
        assert!(r.heads_forever_stable);
        assert_eq!(r.churn.distinct_heads, 4);
    }

    #[test]
    fn report_renders_all_sections() {
        let trace = constructed(2, true, 3);
        let text = audit_trace(&trace).to_text();
        for needle in ["connectivity:", "hierarchy:", "churn:", "topology:", "n_m"] {
            assert!(text.contains(needle), "missing '{needle}'");
        }
    }

    #[test]
    fn streaming_audit_counts_rounds_and_state() {
        let trace = constructed(4, true, 1);
        let mut sa = StreamingAudit::new();
        for (g, h) in trace.iter() {
            sa.push(g, h);
        }
        assert!(sa.peak_state_bytes() > 0);
        assert_eq!(sa.rounds(), trace.len());
        assert_eq!(sa.finish().topology.rounds, trace.len());
    }

    #[test]
    #[should_panic(expected = "cannot audit an invalid CTVG")]
    fn streaming_audit_rejects_invalid_round() {
        use crate::hierarchy::single_cluster;
        let g = Arc::new(Graph::path(4));
        let h = Arc::new(single_cluster(4, NodeId(0)));
        let mut sa = StreamingAudit::new();
        sa.push(&g, &h);
    }
}
