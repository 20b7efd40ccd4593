//! Spanning subgraph utilities.
//!
//! T-interval connectivity ([Kuhn–Lynch–Oshman]) quantifies over *stable
//! connected spanning subgraphs*: for every window of `T` consecutive rounds
//! there must exist a connected subgraph on all of `V` present in every round
//! of the window. The generators in this crate realise that property by
//! explicitly constructing a spanning backbone per window and holding it
//! fixed; this module provides the backbone constructions.

use crate::graph::{Graph, GraphBuilder, NodeId};
use crate::rng::{Rng, SliceRandom};

/// A uniform-ish random spanning tree over nodes `0..n` via a random
/// permutation attachment process (each node links to a uniformly random
/// earlier node in a random order).
///
/// Not exactly uniform over all trees (that would need Wilson's algorithm)
/// but cheap, well-spread, and sufficient as an adversarial stable backbone.
pub fn random_attachment_tree(n: usize, rng: &mut impl Rng) -> Graph {
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        let j = rng.random_range(0..i);
        b.add_edge(NodeId::from_index(order[i]), NodeId::from_index(order[j]));
    }
    b.build()
}

/// A random Hamiltonian path over `0..n` — the worst-case stable backbone
/// for flooding (diameter `n−1`), used by adversarial generators.
pub fn random_path_backbone(n: usize, rng: &mut impl Rng) -> Graph {
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let mut b = GraphBuilder::new(n);
    for w in order.windows(2) {
        b.add_edge(NodeId::from_index(w[0]), NodeId::from_index(w[1]));
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256StarStar;
    use crate::traversal::is_connected;

    #[test]
    fn attachment_tree_is_spanning_tree() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        for n in [1usize, 2, 3, 10, 57] {
            let t = random_attachment_tree(n, &mut rng);
            assert_eq!(t.n(), n);
            assert_eq!(t.m(), n.saturating_sub(1));
            assert!(is_connected(&t), "n={n}");
        }
    }

    #[test]
    fn path_backbone_is_path() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        let p = random_path_backbone(20, &mut rng);
        assert_eq!(p.m(), 19);
        assert!(is_connected(&p));
        let deg1 = p.nodes().filter(|&u| p.degree(u) == 1).count();
        assert_eq!(deg1, 2, "a path has exactly two endpoints");
        assert!(p.nodes().all(|u| p.degree(u) <= 2));
    }

    #[test]
    fn trees_deterministic_per_seed() {
        let t1 = random_attachment_tree(30, &mut Xoshiro256StarStar::seed_from_u64(5));
        let t2 = random_attachment_tree(30, &mut Xoshiro256StarStar::seed_from_u64(5));
        assert_eq!(t1, t2);
        let t3 = random_attachment_tree(30, &mut Xoshiro256StarStar::seed_from_u64(6));
        assert_ne!(t1, t3);
    }
}
