//! Dynamic-topology generators.
//!
//! Each generator implements [`crate::trace::TopologyProvider`] and is fully
//! deterministic given its seed: the randomness of round `r` is derived from
//! `(seed, r)` (or evolved deterministically from round 0, keeping only the
//! last requested round and replaying from round 0 on a revisit), so
//! revisiting a round always yields an equal snapshot.
//!
//! The generators realise the dynamics models used in the paper's analysis
//! and related work:
//!
//! * [`TIntervalGen`] — flat T-interval-connected adversary (the
//!   Kuhn–Lynch–Oshman model that the baselines assume): a stable spanning
//!   backbone per T-window, re-randomised at window boundaries, plus
//!   arbitrary per-round noise edges.
//! * [`OneIntervalGen`] — the weakest solvable model: every round is
//!   connected but *no* edge need survive to the next round.
//! * [`EdgeMarkovianGen`] — Clementi et al.'s edge-Markovian dynamic graph
//!   (per-edge birth/death chain), optionally patched to stay connected.
//! * [`RandomWaypointGen`] — random geometric graph under random-waypoint
//!   mobility: the "node mobility" story from the paper's introduction,
//!   optionally patched to stay connected.
//! * [`ManhattanGen`] — vehicular mobility on a street grid (the model
//!   behind the paper's citation \[25\], "Flooding over Manhattan").
//! * [`QuiescenceTrapGen`] — a deterministic adversarial schedule that
//!   starves delta-triggered (quiescent) protocols while remaining
//!   1-interval connected (experiment E13).

mod adversary;
mod churn;
mod emdg;
mod geometric;
mod interval;
mod manhattan;

pub use adversary::QuiescenceTrapGen;
pub use churn::OneIntervalGen;
pub use emdg::EdgeMarkovianGen;
pub use geometric::{RandomWaypointGen, WaypointConfig};
pub use interval::{BackboneKind, TIntervalGen};
pub use manhattan::{ManhattanConfig, ManhattanGen};

use crate::graph::{Graph, GraphBuilder};

/// Patch `g` to be connected with the minimal deterministic completion the
/// mobility and edge-Markovian generators share: chain the components'
/// representatives in id order.
fn connect_components(g: Graph) -> Graph {
    let mut reps = crate::traversal::components(&g);
    reps.sort_unstable();
    reps.dedup();
    if reps.len() <= 1 {
        return g;
    }
    let mut b = GraphBuilder::new(g.n());
    b.add_graph(&g);
    for w in reps.windows(2) {
        b.add_edge(w[0], w[1]);
    }
    b.build()
}
