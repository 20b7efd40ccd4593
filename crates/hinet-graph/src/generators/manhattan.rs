//! Manhattan-grid mobility generator.

use crate::graph::{Graph, GraphBuilder, NodeId};
use crate::rng::{stream_rng, Rng, Xoshiro256StarStar};
use crate::trace::TopologyProvider;
use std::sync::Arc;

/// Configuration of the Manhattan mobility model.
#[derive(Clone, Copy, Debug)]
pub struct ManhattanConfig {
    /// Streets per direction (the city is a `streets × streets` grid over
    /// the unit square). Must be ≥ 2.
    pub streets: usize,
    /// Communication radius in unit-square units.
    pub radius: f64,
    /// Distance travelled per round, as a fraction of one block length.
    pub speed_blocks: f64,
    /// Patch each snapshot to stay connected (representative-chain
    /// completion, as in the other mobility generators).
    pub ensure_connected: bool,
}

impl Default for ManhattanConfig {
    fn default() -> Self {
        ManhattanConfig {
            streets: 5,
            radius: 0.3,
            speed_blocks: 0.2,
            ensure_connected: true,
        }
    }
}

/// A vehicle travelling between two adjacent intersections.
#[derive(Clone, Copy, Debug)]
struct Vehicle {
    /// Intersection being left, as `(col, row)`.
    from: (usize, usize),
    /// Intersection being approached.
    to: (usize, usize),
    /// Progress along the block in `[0, 1)`.
    progress: f64,
}

/// Manhattan mobility (the model behind the paper's citation \[25\],
/// "Flooding over Manhattan"): nodes are vehicles constrained to a street
/// grid; at each intersection they pick a random outgoing street (never
/// an immediate U-turn unless at a dead end), and two vehicles are linked
/// while within `radius` (radio range crossing city blocks).
///
/// Compared to random-waypoint, Manhattan mobility produces *correlated*
/// motion along shared streets — long-lived platoon links and abrupt
/// breaks at turns — which stresses hierarchy maintenance differently.
/// State evolves forward from round 0; only the last requested round's
/// snapshot is kept, and an earlier round is replayed from round 0.
#[derive(Clone, Debug)]
pub struct ManhattanGen {
    n: usize,
    cfg: ManhattanConfig,
    seed: u64,
    vehicles: Vec<Vehicle>,
    last: Option<(usize, Arc<Graph>)>,
}

impl ManhattanGen {
    /// New generator for `n ≥ 1` vehicles.
    ///
    /// # Panics
    /// Panics on `n == 0`, fewer than 2 streets, non-positive radius or
    /// speed outside `(0, 1]`.
    pub fn new(n: usize, cfg: ManhattanConfig, seed: u64) -> Self {
        assert!(n > 0, "need at least one vehicle");
        assert!(
            cfg.streets >= 2,
            "grid needs at least 2 streets per direction"
        );
        assert!(cfg.radius > 0.0, "radius must be positive");
        assert!(
            cfg.speed_blocks > 0.0 && cfg.speed_blocks <= 1.0,
            "speed must be in (0, 1] blocks/round, got {}",
            cfg.speed_blocks
        );
        ManhattanGen {
            n,
            cfg,
            seed,
            vehicles: Vec::new(),
            last: None,
        }
    }

    fn grid_neighbors(&self, at: (usize, usize)) -> Vec<(usize, usize)> {
        let s = self.cfg.streets;
        let mut out = Vec::with_capacity(4);
        let (c, r) = at;
        if c > 0 {
            out.push((c - 1, r));
        }
        if c + 1 < s {
            out.push((c + 1, r));
        }
        if r > 0 {
            out.push((c, r - 1));
        }
        if r + 1 < s {
            out.push((c, r + 1));
        }
        out
    }

    fn position(&self, v: &Vehicle) -> (f64, f64) {
        let scale = 1.0 / (self.cfg.streets - 1) as f64;
        let fx = v.from.0 as f64 * scale;
        let fy = v.from.1 as f64 * scale;
        let tx = v.to.0 as f64 * scale;
        let ty = v.to.1 as f64 * scale;
        (fx + (tx - fx) * v.progress, fy + (ty - fy) * v.progress)
    }

    fn init_vehicles(&mut self, rng: &mut Xoshiro256StarStar) {
        let s = self.cfg.streets;
        self.vehicles = (0..self.n)
            .map(|_| {
                let from = (rng.random_range(0..s), rng.random_range(0..s));
                let nbrs = self.grid_neighbors(from);
                let to = nbrs[rng.random_range(0..nbrs.len())];
                Vehicle {
                    from,
                    to,
                    progress: rng.random::<f64>(),
                }
            })
            .collect();
    }

    fn step_vehicles(&mut self, rng: &mut Xoshiro256StarStar) {
        let speed = self.cfg.speed_blocks;
        for i in 0..self.vehicles.len() {
            let mut v = self.vehicles[i];
            v.progress += speed;
            while v.progress >= 1.0 {
                v.progress -= 1.0;
                let arrived = v.to;
                let back = v.from;
                let nbrs = self.grid_neighbors(arrived);
                // No immediate U-turn unless the intersection is a dead end.
                let forward: Vec<_> = nbrs.iter().copied().filter(|&x| x != back).collect();
                let choices = if forward.is_empty() { &nbrs } else { &forward };
                v.from = arrived;
                v.to = choices[rng.random_range(0..choices.len())];
            }
            self.vehicles[i] = v;
        }
    }

    fn snapshot(&self) -> Graph {
        let n = self.n;
        let r2 = self.cfg.radius * self.cfg.radius;
        let positions: Vec<(f64, f64)> = self.vehicles.iter().map(|v| self.position(v)).collect();
        let mut b = GraphBuilder::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                let (dx, dy) = (
                    positions[u].0 - positions[v].0,
                    positions[u].1 - positions[v].1,
                );
                if dx * dx + dy * dy <= r2 {
                    b.add_edge(NodeId::from_index(u), NodeId::from_index(v));
                }
            }
        }
        let g = b.build();
        if self.cfg.ensure_connected {
            super::connect_components(g)
        } else {
            g
        }
    }

    /// Current vehicle positions (after the last computed round).
    pub fn positions(&self) -> Vec<(f64, f64)> {
        self.vehicles.iter().map(|v| self.position(v)).collect()
    }
}

impl TopologyProvider for ManhattanGen {
    fn n(&self) -> usize {
        self.n
    }

    fn graph_at(&mut self, round: usize) -> Arc<Graph> {
        let next = match &self.last {
            Some((r, g)) if *r == round => return Arc::clone(g),
            Some((r, _)) if *r < round => r + 1,
            _ => 0,
        };
        for r in next..=round {
            let mut rng = stream_rng(self.seed, 0xc17 ^ ((r as u64).wrapping_mul(2) + 1));
            if r == 0 {
                self.init_vehicles(&mut rng);
            } else {
                self.step_vehicles(&mut rng);
            }
        }
        let g = Arc::new(self.snapshot());
        self.last = Some((round, Arc::clone(&g)));
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TvgTrace;
    use crate::verify::is_always_connected;

    fn cfg(ensure: bool) -> ManhattanConfig {
        ManhattanConfig {
            streets: 4,
            radius: 0.35,
            speed_blocks: 0.3,
            ensure_connected: ensure,
        }
    }

    #[test]
    fn patched_city_always_connected() {
        let mut g = ManhattanGen::new(25, cfg(true), 3);
        let trace = TvgTrace::capture(&mut g, 30);
        assert!(is_always_connected(&trace));
    }

    #[test]
    fn vehicles_stay_on_streets() {
        let mut g = ManhattanGen::new(15, cfg(false), 4);
        let scale = 1.0 / 3.0;
        for r in 0..40 {
            let _ = g.graph_at(r);
            for (x, y) in g.positions() {
                assert!((0.0..=1.0).contains(&x) && (0.0..=1.0).contains(&y));
                // On a street: at least one coordinate is on a grid line.
                let on_line = |c: f64| {
                    let q = c / scale;
                    (q - q.round()).abs() < 1e-9
                };
                assert!(
                    on_line(x) || on_line(y),
                    "vehicle off-street at ({x}, {y}) in round {r}"
                );
            }
        }
    }

    #[test]
    fn motion_changes_topology() {
        let mut g = ManhattanGen::new(30, cfg(false), 5);
        assert_ne!(*g.graph_at(0), *g.graph_at(25));
    }

    #[test]
    fn deterministic_replay() {
        let mut a = ManhattanGen::new(12, cfg(true), 9);
        let mut b = ManhattanGen::new(12, cfg(true), 9);
        for r in 0..15 {
            assert_eq!(*a.graph_at(r), *b.graph_at(r));
        }
    }

    #[test]
    #[should_panic(expected = "speed must be in")]
    fn rejects_excess_speed() {
        let bad = ManhattanConfig {
            speed_blocks: 1.5,
            ..ManhattanConfig::default()
        };
        let _ = ManhattanGen::new(5, bad, 0);
    }
}
