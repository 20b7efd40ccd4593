//! Per-snapshot and per-trace topology statistics.
//!
//! The stability audits and experiment reports want to characterise *how
//! dynamic* and *how dense* a scenario is beyond the binary model
//! predicates — these are the standard graph statistics. [`snapshot_stats`]
//! measures one round; the one-pass audit
//! (`hinet_cluster::audit::StreamingAudit`) folds those into
//! [`TraceStats`].

use crate::graph::Graph;

/// Degree and density statistics of one snapshot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SnapshotStats {
    /// Node count.
    pub n: usize,
    /// Edge count.
    pub m: usize,
    /// Edge density `m / (n·(n−1)/2)` (0 for `n < 2`).
    pub density: f64,
    /// Minimum degree.
    pub min_degree: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// Mean degree `2m/n` (0 for `n = 0`).
    pub mean_degree: f64,
    /// Global clustering coefficient: `3·triangles / open wedges`
    /// (0 when there are no wedges).
    pub clustering_coefficient: f64,
}

/// Compute [`SnapshotStats`] for a snapshot.
pub fn snapshot_stats(g: &Graph) -> SnapshotStats {
    let n = g.n();
    let m = g.m();
    let mut min_degree = usize::MAX;
    let mut max_degree = 0;
    let mut wedges = 0u64;
    let mut triangles = 0u64;
    for u in g.nodes() {
        let d = g.degree(u);
        min_degree = min_degree.min(d);
        max_degree = max_degree.max(d);
        wedges += (d as u64) * (d as u64).saturating_sub(1) / 2;
        // Count triangles via sorted-neighbor intersection on the two
        // higher endpoints of each edge (each triangle counted once).
        let nbrs = g.neighbors(u);
        for (i, &v) in nbrs.iter().enumerate() {
            if v < u {
                continue;
            }
            for &w in &nbrs[i + 1..] {
                if w > v && g.has_edge(v, w) {
                    triangles += 1;
                }
            }
        }
    }
    if n == 0 {
        min_degree = 0;
    }
    let pairs = n.saturating_sub(1) * n / 2;
    SnapshotStats {
        n,
        m,
        density: if pairs == 0 {
            0.0
        } else {
            m as f64 / pairs as f64
        },
        min_degree,
        max_degree,
        mean_degree: if n == 0 {
            0.0
        } else {
            2.0 * m as f64 / n as f64
        },
        clustering_coefficient: if wedges == 0 {
            0.0
        } else {
            3.0 * triangles as f64 / wedges as f64
        },
    }
}

/// Aggregated dynamics statistics of a trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceStats {
    /// Rounds in the trace.
    pub rounds: usize,
    /// Mean per-round edge count.
    pub mean_edges: f64,
    /// Mean per-round density.
    pub mean_density: f64,
    /// Mean per-round clustering coefficient.
    pub mean_clustering: f64,
    /// Mean edges changed between consecutive rounds (symmetric
    /// difference) — the churn rate.
    pub mean_churn: f64,
    /// Churn normalised by mean edge count (0 when edgeless): 0 = frozen,
    /// 2 ≈ completely re-randomised each round.
    pub relative_churn: f64,
    /// Mean fraction of a round's edges that survive to the next round
    /// (1 = static; 0 = nothing persists).
    pub edge_persistence: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_stats_complete_graph() {
        let s = snapshot_stats(&Graph::complete(5));
        assert_eq!(s.n, 5);
        assert_eq!(s.m, 10);
        assert!((s.density - 1.0).abs() < 1e-12);
        assert_eq!(s.min_degree, 4);
        assert_eq!(s.max_degree, 4);
        assert!((s.mean_degree - 4.0).abs() < 1e-12);
        assert!(
            (s.clustering_coefficient - 1.0).abs() < 1e-12,
            "cliques are fully clustered"
        );
    }

    #[test]
    fn snapshot_stats_star_has_zero_clustering() {
        let s = snapshot_stats(&Graph::star(6));
        assert_eq!(s.max_degree, 5);
        assert_eq!(s.min_degree, 1);
        assert_eq!(s.clustering_coefficient, 0.0, "stars are triangle-free");
    }

    #[test]
    fn snapshot_stats_triangle_exact() {
        let s = snapshot_stats(&Graph::cycle(3));
        assert!((s.clustering_coefficient - 1.0).abs() < 1e-12);
        let sq = snapshot_stats(&Graph::cycle(4));
        assert_eq!(sq.clustering_coefficient, 0.0);
    }

    #[test]
    fn snapshot_stats_empty_and_trivial() {
        let e = snapshot_stats(&Graph::empty(4));
        assert_eq!(e.density, 0.0);
        assert_eq!(e.min_degree, 0);
        let z = snapshot_stats(&Graph::empty(0));
        assert_eq!(z.mean_degree, 0.0);
        assert_eq!(z.min_degree, 0);
    }
}
