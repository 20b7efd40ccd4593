//! Random geometric graph under random-waypoint mobility.

use crate::graph::{Graph, GraphBuilder, NodeId};
use crate::rng::{stream_rng, Rng};
use crate::trace::TopologyProvider;
use std::sync::Arc;

/// Configuration of the mobility model.
#[derive(Clone, Copy, Debug)]
pub struct WaypointConfig {
    /// Communication radius in the unit square.
    pub radius: f64,
    /// Minimum node speed per round (unit-square units).
    pub min_speed: f64,
    /// Maximum node speed per round.
    pub max_speed: f64,
    /// Patch each snapshot so it stays connected (adds the minimal
    /// representative-chain completion, as in the EMDG generator).
    pub ensure_connected: bool,
}

impl Default for WaypointConfig {
    fn default() -> Self {
        WaypointConfig {
            radius: 0.25,
            min_speed: 0.01,
            max_speed: 0.05,
            ensure_connected: true,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct NodeMotion {
    x: f64,
    y: f64,
    wx: f64,
    wy: f64,
    speed: f64,
}

/// Random-waypoint mobility over the unit square: each node walks toward a
/// uniformly random waypoint at a per-leg random speed, picks a fresh
/// waypoint on arrival, and two nodes are linked while within `radius`.
///
/// This is the "node mobility" scenario that motivates the paper (wireless
/// ad hoc networks): topology change emerges from motion rather than from an
/// explicit adversary. State evolves forward from round 0; only the last
/// requested round's snapshot is kept, and an earlier round is replayed
/// from round 0.
#[derive(Clone, Debug)]
pub struct RandomWaypointGen {
    n: usize,
    cfg: WaypointConfig,
    seed: u64,
    motion: Vec<NodeMotion>,
    last: Option<(usize, Arc<Graph>)>,
}

impl RandomWaypointGen {
    /// New mobility generator over `n ≥ 1` nodes.
    ///
    /// # Panics
    /// Panics on `n == 0`, non-positive radius, or an empty/invalid speed
    /// range.
    pub fn new(n: usize, cfg: WaypointConfig, seed: u64) -> Self {
        assert!(n > 0, "need at least one node");
        assert!(cfg.radius > 0.0, "radius must be positive");
        assert!(
            cfg.min_speed >= 0.0 && cfg.max_speed >= cfg.min_speed,
            "invalid speed range [{}, {}]",
            cfg.min_speed,
            cfg.max_speed
        );
        RandomWaypointGen {
            n,
            cfg,
            seed,
            motion: Vec::new(),
            last: None,
        }
    }

    /// Node positions of the most recently requested round (for examples
    /// that want to render the field). Empty before the first `graph_at`
    /// call.
    pub fn positions(&self) -> Vec<(f64, f64)> {
        self.motion.iter().map(|m| (m.x, m.y)).collect()
    }

    fn init_motion(&mut self) {
        let mut rng = stream_rng(self.seed, 0xa0);
        self.motion = (0..self.n)
            .map(|_| {
                let speed = if self.cfg.max_speed > self.cfg.min_speed {
                    rng.random_range(self.cfg.min_speed..self.cfg.max_speed)
                } else {
                    self.cfg.min_speed
                };
                NodeMotion {
                    x: rng.random::<f64>(),
                    y: rng.random::<f64>(),
                    wx: rng.random::<f64>(),
                    wy: rng.random::<f64>(),
                    speed,
                }
            })
            .collect();
    }

    fn step_motion(&mut self, round: usize) {
        let mut rng = stream_rng(self.seed, 0xb0 ^ ((round as u64).wrapping_mul(2) + 1));
        let cfg = self.cfg;
        for m in self.motion.iter_mut() {
            let (dx, dy) = (m.wx - m.x, m.wy - m.y);
            let dist = (dx * dx + dy * dy).sqrt();
            if dist <= m.speed {
                // Arrived: jump to waypoint, draw the next leg.
                m.x = m.wx;
                m.y = m.wy;
                m.wx = rng.random::<f64>();
                m.wy = rng.random::<f64>();
                m.speed = if cfg.max_speed > cfg.min_speed {
                    rng.random_range(cfg.min_speed..cfg.max_speed)
                } else {
                    cfg.min_speed
                };
            } else {
                m.x += dx / dist * m.speed;
                m.y += dy / dist * m.speed;
            }
        }
    }

    fn snapshot(&self) -> Graph {
        let n = self.n;
        let r2 = self.cfg.radius * self.cfg.radius;
        let mut b = GraphBuilder::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                let (a, c) = (&self.motion[u], &self.motion[v]);
                let (dx, dy) = (a.x - c.x, a.y - c.y);
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
}

impl TopologyProvider for RandomWaypointGen {
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
            if r == 0 {
                self.init_motion();
            } else {
                self.step_motion(r);
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

    fn cfg(ensure: bool) -> WaypointConfig {
        WaypointConfig {
            radius: 0.3,
            min_speed: 0.02,
            max_speed: 0.08,
            ensure_connected: ensure,
        }
    }

    #[test]
    fn patched_field_always_connected() {
        let mut g = RandomWaypointGen::new(30, cfg(true), 5);
        let trace = TvgTrace::capture(&mut g, 25);
        assert!(is_always_connected(&trace));
    }

    #[test]
    fn positions_stay_in_unit_square() {
        let mut g = RandomWaypointGen::new(20, cfg(false), 6);
        for r in 0..30 {
            let _ = g.graph_at(r);
            for (x, y) in g.positions() {
                assert!((0.0..=1.0).contains(&x) && (0.0..=1.0).contains(&y));
            }
        }
    }

    #[test]
    fn motion_changes_topology_over_time() {
        let mut g = RandomWaypointGen::new(40, cfg(false), 7);
        let early = g.graph_at(0);
        let late = g.graph_at(40);
        assert_ne!(*early, *late, "mobility should change links");
    }

    #[test]
    fn deterministic_replay() {
        let mut a = RandomWaypointGen::new(15, cfg(true), 9);
        let mut b = RandomWaypointGen::new(15, cfg(true), 9);
        for r in 0..12 {
            assert_eq!(*a.graph_at(r), *b.graph_at(r));
        }
        let g4 = a.graph_at(4);
        assert!(Arc::ptr_eq(&a.graph_at(4), &g4));
    }

    #[test]
    fn large_radius_gives_dense_graph() {
        let big = WaypointConfig {
            radius: 2.0,
            ..cfg(false)
        };
        let mut g = RandomWaypointGen::new(10, big, 3);
        assert_eq!(g.graph_at(0).m(), 45, "radius √2 covers the square");
    }

    #[test]
    #[should_panic(expected = "radius must be positive")]
    fn rejects_zero_radius() {
        let bad = WaypointConfig {
            radius: 0.0,
            ..WaypointConfig::default()
        };
        let _ = RandomWaypointGen::new(5, bad, 0);
    }
}
