//! # hinet-graph
//!
//! Graph substrate for the (T, L)-HiNet reproduction.
//!
//! This crate provides everything below the cluster layer:
//!
//! * [`Graph`] — an immutable undirected graph snapshot (one communication
//!   round of a dynamic network) in one flat CSR layout, which generators,
//!   the simulator and the verifiers all share without copying
//!   ([`CsrGraph`] is the same type under its layout's name).
//! * [`trace::TvgTrace`] — a time-varying graph: the sequence of per-round
//!   snapshots, i.e. the `(V, E, Γ, ρ)` part of the paper's TVG/CTVG model
//!   (we fix the latency function `ζ ≡ 1` round, as the paper's synchronous
//!   model does implicitly).
//! * [`trace::TopologyProvider`] — streaming interface used by the simulator
//!   so that unbounded adversarial generators do not need to materialise a
//!   whole trace up front.
//! * [`generators`] — deterministic, seeded dynamic-topology generators:
//!   flat T-interval-connected adversaries (the Kuhn–Lynch–Oshman setting),
//!   1-interval-connected random churn, edge-Markovian dynamic graphs, and a
//!   random-geometric mobility model.
//! * [`verify`] — property verifiers that re-check on a generated trace the
//!   guarantees a generator claims (per-round connectivity, T-interval
//!   connectivity, dynamic diameter).
//!
//! Everything is deterministic given a seed; no global state.
//!
//! # Example
//!
//! Build a T-interval-connected adversary, capture a trace, and verify the
//! property it claims:
//!
//! ```
//! use hinet_graph::generators::{BackboneKind, TIntervalGen};
//! use hinet_graph::trace::TvgTrace;
//! use hinet_graph::verify::{is_always_connected, is_t_interval_connected};
//!
//! let mut gen = TIntervalGen::new(30, 5, BackboneKind::Path, 6, 42);
//! let trace = TvgTrace::capture(&mut gen, 20);
//! assert!(is_always_connected(&trace));
//! // Aligned windows of length 5 share a stable spanning backbone:
//! for w in 0..4 {
//!     let stable = trace.window_intersection(w * 5, 5);
//!     assert!(hinet_graph::traversal::is_connected(&stable));
//! }
//! assert!(is_t_interval_connected(&trace, 1));
//! ```

pub mod csr;
pub mod generators;
pub mod graph;
pub mod metrics;
pub mod rng;
pub mod spanning;
pub mod trace;
pub mod traversal;
pub mod verify;

pub use csr::CsrGraph;
pub use graph::{Graph, GraphBuilder, NodeId};
pub use trace::{TopologyProvider, TvgTrace};
