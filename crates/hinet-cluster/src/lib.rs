//! # hinet-cluster
//!
//! Cluster-hierarchy substrate for the (T, L)-HiNet reproduction.
//!
//! The paper assumes "the existence of such hierarchy" maintained by an
//! external clustering protocol; this crate *is* that protocol layer:
//!
//! * [`hierarchy::Hierarchy`] — the `C` (role) and `I` (cluster id) functions
//!   of the CTVG model for one round, with invariant validation.
//! * [`ctvg::CtvgTrace`] / [`ctvg::HierarchyProvider`] — cluster-based
//!   time-varying graphs: a topology trace plus the per-round hierarchy
//!   (Definition 1 of the paper).
//! * [`clustering`] — concrete clustering algorithms (lowest-ID,
//!   highest-degree, greedy dominating-set backbone) that derive a hierarchy
//!   from a plain snapshot, for emergent-stability scenarios.
//! * [`stability`] — the one-pass verifier for the paper's Definitions 2–8:
//!   stable head set, stable clusters, stable hierarchy, T-interval head
//!   connectivity, L-hop head connectivity, and the full (T, L)-HiNet
//!   predicate.
//! * [`generators`] — trace generators that construct hierarchies satisfying
//!   each stability class *by construction* ((T, L)-HiNet, (1, L)-HiNet,
//!   ∞-stable head set), plus a clustered-mobility generator where stability
//!   is emergent.
//! * [`reaffiliation`] — the churn statistics (`n_m`, `n_r`, `θ`) that feed
//!   the paper's analytical cost model.
//! * [`audit`] — one-pass stability report combining all of the above.
//!
//! # Example
//!
//! Cluster a snapshot and verify the paper's structural invariants:
//!
//! ```
//! use hinet_cluster::clustering::{backbone_connects_heads, cluster, ClusteringKind};
//! use hinet_graph::Graph;
//!
//! let g = Graph::cycle(12);
//! let h = cluster(ClusteringKind::LowestId, &g);
//! assert_eq!(h.validate(&g), Ok(()));           // members adjacent to heads
//! assert!(backbone_connects_heads(&g, &h));     // gateways bridge all heads
//! assert!(h.l_hop_connectivity(&g).unwrap() <= 3); // paper: L ≤ 3 for 1-hop
//! ```

pub mod audit;
pub mod clustering;
pub mod ctvg;
pub mod generators;
pub mod hierarchy;
pub mod reaffiliation;
pub mod stability;

pub use ctvg::{CtvgTrace, HierarchyProvider};
pub use hierarchy::{ClusterId, Hierarchy, HierarchyError, Role};
