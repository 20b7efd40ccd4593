//! Stability of the cluster hierarchy: the paper's Definitions 2–8.
//!
//! The library's one verifier is the one-pass [`stream::StabilityStream`]
//! (and [`crate::audit::StreamingAudit`] on top of it): it consumes a
//! dynamics trace one round at a time and never holds more than the open
//! window.
//!
//! # Windowing contract
//!
//! Algorithm 1 runs in phases aligned to rounds `0, T, 2T, …`, and the
//! paper's stability quantifiers (`∀ i, j ∈ [0, T−1]`) describe one such
//! window. The stream checks exactly those **aligned** windows
//! `[wT, min((w+1)T, len))`:
//!
//! * A trailing partial window — when the trace length is not a multiple
//!   of `T` — **is checked**, not dropped: the paper's predicate constrains
//!   every phase an algorithm can start, including one the trace cuts
//!   short. Any `t ≥ 1` is accepted, even `t > len` (one partial window).
//! * Defs 5–7 are evaluated on the window's edge-intersection with the
//!   head set of the window's first round.
//! * Trace-wide predicates are the conjunction over windows: the trace is
//!   a (T, L)-HiNet (Def 8) iff every aligned [`stream::WindowVerdict`]
//!   has `def8`, i.e. `hinet_windows == windows` in the
//!   [`stream::StreamReport`].
//! * The report's sliding figure (`max_sliding_hierarchy_t`) instead takes
//!   every offset `[s, s+T)` of full windows — strictly stronger than
//!   aligned, since a change on an aligned boundary breaks a sliding
//!   window but no aligned one.
//!
//! The implication lattice of Fig. 2 — Def 8 ⇒ Def 4 ⇒ (Def 2 ∧ Def 3),
//! Def 8 ⇒ Def 7 ⇒ (Def 5 ∧ Def 6) — is experiment E4. The workspace tests
//! keep a batch restatement of every definition over a materialised trace
//! (`tests/common/`) and pin the stream's verdicts to it pointwise
//! (`tests/prop_stream.rs`).

/// One-pass streaming verification (constant memory per round).
pub mod stream;

use crate::hierarchy::Hierarchy;

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
