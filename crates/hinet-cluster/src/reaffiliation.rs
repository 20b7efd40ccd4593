//! Churn statistics of CTVG dynamics.
//!
//! The paper's cost model is parameterised by measured quantities: `θ` (the
//! number of nodes that can be cluster head), `n_m` (average members per
//! round) and `n_r` (average re-affiliations per member).
//! [`StreamingAudit`](crate::audit::StreamingAudit) measures all three in
//! its one pass, so simulator costs can be compared against the analytic
//! formulas *with the trace's own parameters*, not just the paper's
//! example numbers.

/// Summary churn statistics of a trace.
#[derive(Clone, Debug, PartialEq)]
pub struct ChurnStats {
    /// Number of distinct nodes that were ever a head — the measured `θ`.
    pub distinct_heads: usize,
    /// Maximum simultaneous head count over the trace.
    pub max_concurrent_heads: usize,
    /// Average number of `Role::Member` nodes per round — the measured `n_m`.
    pub mean_members: f64,
    /// Average number of cluster re-affiliations per ever-non-head node —
    /// the measured `n_r`.
    pub mean_reaffiliations: f64,
    /// Total re-affiliation events (a non-head node's cluster differing from
    /// its cluster in the previous round).
    pub total_reaffiliations: usize,
    /// Rounds in which the head set changed relative to the previous round.
    pub head_set_changes: usize,
}
