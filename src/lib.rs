//! # hinet — hierarchical information dissemination in dynamic networks
//!
//! Facade crate re-exporting the whole workspace: the graph substrate, the
//! cluster hierarchy, the round simulator, the dissemination algorithms and
//! the experiment harness. See the README for a tour and `examples/` for
//! runnable entry points.

pub mod fuzz;
pub mod knobs;
pub mod scenario;

pub use hinet_analysis as analysis;
pub use hinet_cluster as cluster;
pub use hinet_core as core;
pub use hinet_graph as graph;
pub use hinet_rt as rt;
pub use hinet_sim as sim;
