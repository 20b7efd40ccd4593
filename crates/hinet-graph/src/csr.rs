//! The CSR name for [`Graph`].
//!
//! [`Graph`] itself is the flat compressed-sparse-row snapshot, so there is
//! no second representation to convert into: [`CsrGraph`] is the same type,
//! and `CsrGraph::from(&g)` is a clone, kept for callers that name the
//! conversion.

use crate::graph::Graph;

/// The compressed-sparse-row graph: [`Graph`] under its layout's name.
pub type CsrGraph = Graph;

impl From<&Graph> for Graph {
    fn from(g: &Graph) -> Self {
        g.clone()
    }
}
