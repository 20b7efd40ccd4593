//! The (T, L)-HiNet trace generator.

use crate::ctvg::HierarchyProvider;
use crate::hierarchy::{ClusterId, Hierarchy, Role};
use hinet_graph::graph::{Graph, GraphBuilder, NodeId};
use hinet_graph::rng::{mix, stream_rng, Rng, SliceRandom};
use hinet_graph::trace::TopologyProvider;
use std::sync::Arc;

/// Configuration of [`HiNetGen`].
#[derive(Clone, Copy, Debug)]
pub struct HiNetConfig {
    /// Total nodes `n₀`.
    pub n: usize,
    /// Simultaneous cluster heads per round.
    pub num_heads: usize,
    /// Size of the head-capable pool — the paper's `θ` (nodes `0..theta`
    /// may serve as heads). Must satisfy `num_heads ≤ theta ≤ n`.
    pub theta: usize,
    /// Hop bound `L` between backbone-adjacent heads: consecutive heads are
    /// joined by a chain of `L − 1` gateway nodes.
    pub l: usize,
    /// Stability window `T`: hierarchy and backbone are frozen within each
    /// aligned window of `t` rounds. `t = 1` gives a (1, L)-HiNet.
    pub t: usize,
    /// Probability that a member re-affiliates to a different head at a
    /// window boundary.
    pub reaffil_prob: f64,
    /// Rotate the head set at each window boundary (drawing `num_heads`
    /// from the pool `0..theta`). `false` gives Remark 1's ∞-stable heads.
    pub rotate_heads: bool,
    /// Extra random edges per round (churning topology noise that never
    /// carries any guarantee).
    pub noise_edges: usize,
    /// RNG seed.
    pub seed: u64,
}

impl HiNetConfig {
    /// A small, valid default mirroring the paper's Table 3 proportions.
    pub fn example() -> Self {
        HiNetConfig {
            n: 100,
            num_heads: 12,
            theta: 30,
            l: 2,
            t: 18,
            reaffil_prob: 0.1,
            rotate_heads: true,
            noise_edges: 20,
            seed: 0,
        }
    }

    /// Check the configuration: at least one node and one head,
    /// `num_heads ≤ theta ≤ n`, `L, T ≥ 1`, `reaffil_prob ∈ [0, 1]`, and
    /// enough nodes for the heads plus the backbone's gateways. The error
    /// names the violated rule.
    pub fn check(&self) -> Result<(), String> {
        if self.n == 0 {
            return Err("need at least one node".into());
        }
        if self.num_heads == 0 {
            return Err("need at least one head".into());
        }
        if self.num_heads > self.theta || self.theta > self.n {
            return Err(format!(
                "need num_heads ≤ theta ≤ n, got {} ≤ {} ≤ {}",
                self.num_heads, self.theta, self.n
            ));
        }
        if self.l == 0 {
            return Err("L must be at least 1".into());
        }
        if self.t == 0 {
            return Err("T must be at least 1".into());
        }
        if !(0.0..=1.0).contains(&self.reaffil_prob) {
            return Err("reaffil_prob outside [0,1]".into());
        }
        let gateways = (self.num_heads - 1).saturating_mul(self.l - 1);
        if self
            .num_heads
            .checked_add(gateways)
            .is_none_or(|needed| needed > self.n)
        {
            return Err(format!(
                "n={} too small for {} heads with L={} backbone ({gateways} gateways needed)",
                self.n, self.num_heads, self.l
            ));
        }
        Ok(())
    }
}

/// Frozen state of one aligned window.
#[derive(Clone, Debug)]
struct WindowState {
    hierarchy: Arc<Hierarchy>,
    /// Hierarchy edges (backbone chains + member stars) present in every
    /// round of the window.
    base_graph: Arc<Graph>,
}

/// Generator of (T, L)-HiNet traces.
///
/// Per aligned window `w` (rounds `[wT, (w+1)T)`):
///
/// 1. **Heads** — `num_heads` nodes from the pool `0..theta`; fixed when
///    `rotate_heads` is off, re-drawn per window otherwise.
/// 2. **Backbone** — heads are arranged in a line; consecutive heads are
///    joined by a fresh chain of `L − 1` gateway nodes, so backbone-adjacent
///    heads sit at distance exactly `L`, realising Definition 6's L-hop
///    head connectivity inside the stable subgraph `Υ`.
/// 3. **Members** — every remaining node holds an edge to its assigned
///    head. At window boundaries each member re-affiliates with probability
///    `reaffil_prob` (and necessarily when its head or gateway role
///    disappears under rotation).
/// 4. **Noise** — `noise_edges` random extra edges are re-drawn every round
///    and carry no guarantee.
///
/// The produced trace is therefore a (T, L)-HiNet by construction (aligned
/// windows), every round's snapshot is connected, and the hierarchy
/// validates against its graph — all three facts are re-checked by this
/// module's tests through the independent verifiers.
#[derive(Clone, Debug)]
pub struct HiNetGen {
    cfg: HiNetConfig,
    /// Persistent member assignment (head per node), evolved per window.
    assignment: Vec<NodeId>,
    windows: Vec<WindowState>,
}

impl HiNetGen {
    /// Build a generator.
    ///
    /// # Panics
    /// Panics on an invalid configuration; [`HiNetConfig::check`] reports
    /// the same rules as an error instead.
    pub fn new(cfg: HiNetConfig) -> Self {
        if let Err(e) = cfg.check() {
            panic!("invalid HiNetConfig: {e}");
        }
        HiNetGen {
            cfg,
            assignment: Vec::new(),
            windows: Vec::new(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &HiNetConfig {
        &self.cfg
    }

    fn heads_for_window(&self, w: usize) -> Vec<NodeId> {
        let cfg = &self.cfg;
        if !cfg.rotate_heads || cfg.theta == cfg.num_heads {
            return (0..cfg.num_heads).map(NodeId::from_index).collect();
        }
        let mut pool: Vec<NodeId> = (0..cfg.theta).map(NodeId::from_index).collect();
        let mut rng = stream_rng(cfg.seed, mix(0x4ead, w as u64));
        pool.shuffle(&mut rng);
        let mut heads: Vec<NodeId> = pool.into_iter().take(cfg.num_heads).collect();
        heads.sort_unstable();
        heads
    }

    fn compute_window(&mut self, w: usize) {
        debug_assert_eq!(self.windows.len(), w);
        let cfg = self.cfg;
        let n = cfg.n;
        let heads = self.heads_for_window(w);
        let is_head: Vec<bool> = {
            let mut v = vec![false; n];
            for &h in &heads {
                v[h.index()] = true;
            }
            v
        };

        // Gateways: lowest-id non-head nodes, assigned chain by chain. The
        // chain between heads[i] and heads[i+1] takes L−1 of them and is
        // clustered under heads[i] (the left end).
        let chains = heads.len().saturating_sub(1);
        let per_chain = cfg.l - 1;
        let mut gateway_pool: Vec<NodeId> = (0..n)
            .map(NodeId::from_index)
            .filter(|u| !is_head[u.index()])
            .take(chains * per_chain)
            .collect();
        debug_assert_eq!(gateway_pool.len(), chains * per_chain);

        let mut roles = vec![Role::Member; n];
        let mut cluster = vec![None::<ClusterId>; n];
        for &h in &heads {
            roles[h.index()] = Role::Head;
            cluster[h.index()] = Some(ClusterId(h));
        }

        let mut b = GraphBuilder::new(n);
        // Backbone chains.
        let mut pool_iter = gateway_pool.drain(..);
        for i in 0..chains {
            let (left, right) = (heads[i], heads[i + 1]);
            let mut prev = left;
            for _ in 0..per_chain {
                let gw = pool_iter.next().expect("pool sized exactly");
                roles[gw.index()] = Role::Gateway;
                cluster[gw.index()] = Some(ClusterId(left));
                b.add_edge(prev, gw);
                prev = gw;
            }
            b.add_edge(prev, right);
        }
        drop(pool_iter);

        // Member assignment evolution.
        let mut rng = stream_rng(cfg.seed, mix(0x3e3e, w as u64));
        if self.assignment.is_empty() {
            self.assignment = vec![NodeId(0); n];
            for u in 0..n {
                self.assignment[u] = heads[rng.random_range(0..heads.len())];
            }
        } else {
            for u in 0..n {
                let cur = self.assignment[u];
                let invalid = !is_head[cur.index()];
                let moved = cfg.reaffil_prob > 0.0 && rng.random_bool(cfg.reaffil_prob);
                if invalid || moved {
                    let mut pick = heads[rng.random_range(0..heads.len())];
                    if heads.len() > 1 {
                        while pick == cur {
                            pick = heads[rng.random_range(0..heads.len())];
                        }
                    }
                    self.assignment[u] = pick;
                }
            }
        }

        // Member stars (heads and gateways already clustered above).
        for u in (0..n).map(NodeId::from_index) {
            if roles[u.index()] == Role::Member {
                let head = self.assignment[u.index()];
                cluster[u.index()] = Some(ClusterId(head));
                b.add_edge(u, head);
            }
        }

        let hierarchy = Arc::new(Hierarchy::new(roles, cluster));
        let base_graph = Arc::new(b.build());
        self.windows.push(WindowState {
            hierarchy,
            base_graph,
        });
    }

    fn window(&mut self, w: usize) -> &WindowState {
        while self.windows.len() <= w {
            let next = self.windows.len();
            self.compute_window(next);
        }
        &self.windows[w]
    }

    /// Round `round`'s noise edges as a graph of their own.
    fn noise(&self, round: usize) -> Graph {
        let cfg = &self.cfg;
        let mut b = GraphBuilder::new(cfg.n);
        let mut rng = stream_rng(cfg.seed, mix(0x0153, round as u64));
        for _ in 0..cfg.noise_edges {
            let u = rng.random_range(0..cfg.n);
            let mut v = rng.random_range(0..cfg.n - 1);
            if v >= u {
                v += 1;
            }
            b.add_edge(NodeId::from_index(u), NodeId::from_index(v));
        }
        b.build()
    }
}

impl TopologyProvider for HiNetGen {
    fn n(&self) -> usize {
        self.cfg.n
    }

    fn graph_at(&mut self, round: usize) -> Arc<Graph> {
        let w = round / self.cfg.t;
        let base = Arc::clone(&self.window(w).base_graph);
        if self.cfg.noise_edges == 0 || self.cfg.n < 2 {
            return base;
        }
        // One linear merge; `union` drops noise edges the base already has.
        Arc::new(base.union(&self.noise(round)))
    }
}

impl HierarchyProvider for HiNetGen {
    fn hierarchy_at(&mut self, round: usize) -> Arc<Hierarchy> {
        let w = round / self.cfg.t;
        Arc::clone(&self.window(w).hierarchy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::audit_trace;
    use crate::ctvg::CtvgTrace;
    use crate::stability::stream::stream_trace;
    use hinet_graph::verify::is_always_connected;

    fn cfg() -> HiNetConfig {
        HiNetConfig {
            n: 40,
            num_heads: 5,
            theta: 12,
            l: 3,
            t: 4,
            reaffil_prob: 0.2,
            rotate_heads: true,
            noise_edges: 6,
            seed: 42,
        }
    }

    #[test]
    fn trace_validates_and_is_connected() {
        let mut g = HiNetGen::new(cfg());
        let trace = CtvgTrace::capture(&mut g, 24);
        assert_eq!(trace.validate(), Ok(()));
        assert!(is_always_connected(trace.topology()));
    }

    #[test]
    fn trace_is_t_l_hinet_by_construction() {
        let mut g = HiNetGen::new(cfg());
        let trace = CtvgTrace::capture(&mut g, 24);
        let (_, r) = stream_trace(&trace, 4, 3);
        assert_eq!(r.hinet_windows, r.windows);
    }

    #[test]
    fn l_hop_is_exactly_l_without_noise() {
        let mut c = cfg();
        c.noise_edges = 0;
        c.reaffil_prob = 0.0;
        let mut g = HiNetGen::new(c);
        let trace = CtvgTrace::capture(&mut g, 8);
        assert_eq!(stream_trace(&trace, 4, 3).1.min_hinet_l, Some(3));
    }

    #[test]
    fn stable_heads_when_rotation_off() {
        let mut c = cfg();
        c.rotate_heads = false;
        let mut g = HiNetGen::new(c);
        let trace = CtvgTrace::capture(&mut g, 20);
        let r = audit_trace(&trace);
        assert!(r.heads_forever_stable);
        let s = r.churn;
        assert_eq!(s.distinct_heads, 5);
        assert_eq!(s.head_set_changes, 0);
    }

    #[test]
    fn rotation_changes_heads_across_windows() {
        let mut g = HiNetGen::new(cfg());
        let trace = CtvgTrace::capture(&mut g, 24);
        let s = audit_trace(&trace).churn;
        assert!(
            s.distinct_heads > 5,
            "rotation should use more than one window's heads, got {}",
            s.distinct_heads
        );
        assert!(s.distinct_heads <= 12, "heads only from the θ pool");
    }

    #[test]
    fn reaffiliations_scale_with_probability() {
        let mut quiet = cfg();
        quiet.reaffil_prob = 0.0;
        quiet.rotate_heads = false;
        let mut busy = cfg();
        busy.reaffil_prob = 0.9;
        busy.rotate_heads = false;
        let tq = CtvgTrace::capture(&mut HiNetGen::new(quiet), 20);
        let tb = CtvgTrace::capture(&mut HiNetGen::new(busy), 20);
        let (sq, sb) = (audit_trace(&tq).churn, audit_trace(&tb).churn);
        assert_eq!(sq.total_reaffiliations, 0);
        assert!(sb.total_reaffiliations > 0);
    }

    #[test]
    fn t_equals_one_gives_per_round_hinet() {
        let mut c = cfg();
        c.t = 1;
        let mut g = HiNetGen::new(c);
        let trace = CtvgTrace::capture(&mut g, 10);
        assert_eq!(trace.validate(), Ok(()));
        let (_, r) = stream_trace(&trace, 1, 3);
        assert_eq!(r.hinet_windows, r.windows);
        assert!(is_always_connected(trace.topology()));
    }

    #[test]
    fn deterministic_replay() {
        let mut a = HiNetGen::new(cfg());
        let mut b = HiNetGen::new(cfg());
        for r in 0..12 {
            assert_eq!(*a.graph_at(r), *b.graph_at(r), "round {r}");
            assert_eq!(
                a.hierarchy_at(r).heads(),
                b.hierarchy_at(r).heads(),
                "round {r}"
            );
        }
    }

    #[test]
    fn l_equals_one_heads_adjacent() {
        let mut c = cfg();
        c.l = 1;
        c.noise_edges = 0;
        let mut g = HiNetGen::new(c);
        let trace = CtvgTrace::capture(&mut g, 4);
        assert_eq!(trace.validate(), Ok(()));
        assert_eq!(stream_trace(&trace, 4, 1).1.min_hinet_l, Some(1));
        assert_eq!(trace.hierarchy(0).gateway_count(), 0);
    }

    #[test]
    fn single_head_star() {
        let c = HiNetConfig {
            n: 10,
            num_heads: 1,
            theta: 1,
            l: 1,
            t: 3,
            reaffil_prob: 0.0,
            rotate_heads: false,
            noise_edges: 0,
            seed: 1,
        };
        let mut g = HiNetGen::new(c);
        let trace = CtvgTrace::capture(&mut g, 6);
        assert_eq!(trace.validate(), Ok(()));
        assert_eq!(trace.hierarchy(0).heads().len(), 1);
        assert!(is_always_connected(trace.topology()));
    }

    /// A random valid configuration with `T ∈ {1, 2, 5}` and up to `2n`
    /// noise edges per round.
    fn arb_config(c: &mut hinet_rt::check::CaseCtx) -> HiNetConfig {
        use hinet_rt::rng::Rng;
        let n = c.random_range(1..=48usize);
        let l = c.random_range(1..=3usize);
        // `h` heads need `h + (h − 1)(l − 1) = hl − l + 1` nodes.
        let max_heads = n.div_ceil(l);
        let num_heads = c.random_range(1..=max_heads);
        HiNetConfig {
            n,
            num_heads,
            theta: c.random_range(num_heads..=n),
            l,
            t: *c.pick(&[1, 2, 5]),
            reaffil_prob: *c.pick(&[0.0, 0.2, 0.9]),
            rotate_heads: c.random_bool(0.5),
            noise_edges: c.random_range(0..=2 * n),
            seed: c.random(),
        }
    }

    #[test]
    fn snapshot_is_the_base_plus_noise_edge_list() {
        hinet_rt::check::check("snapshot_is_the_base_plus_noise_edge_list", 64, |c| {
            let cfg = arb_config(c);
            let mut g = HiNetGen::new(cfg);
            for r in 0..12 {
                let snapshot = g.graph_at(r);
                // The adjacency-list builder the union replaced: every base
                // and noise edge in both directions, sorted and deduplicated.
                let mut adj = vec![Vec::new(); cfg.n];
                let base = Arc::clone(&g.window(r / cfg.t).base_graph);
                let noise = if cfg.n < 2 {
                    Graph::empty(cfg.n)
                } else {
                    g.noise(r)
                };
                for e in base.edges().chain(noise.edges()) {
                    adj[e.a.index()].push(e.b);
                    adj[e.b.index()].push(e.a);
                }
                for (u, list) in adj.iter_mut().enumerate() {
                    list.sort_unstable();
                    list.dedup();
                    assert_eq!(snapshot.neighbors(NodeId::from_index(u)), &list[..]);
                }
                assert_eq!(
                    snapshot.m(),
                    adj.iter().map(Vec::len).sum::<usize>() / 2,
                    "round {r}"
                );
            }
        });
    }

    #[test]
    fn out_of_order_queries_replay_the_in_order_trace() {
        use hinet_graph::rng::SliceRandom;
        hinet_rt::check::check("out_of_order_queries_replay_the_in_order_trace", 48, |c| {
            let cfg = arb_config(c);
            let trace = CtvgTrace::capture(&mut HiNetGen::new(cfg), 16);
            let mut rounds: Vec<usize> = (0..16).collect();
            rounds.shuffle(c);
            let mut g = HiNetGen::new(cfg);
            for r in rounds {
                assert_eq!(*g.graph_at(r), **trace.graph(r), "round {r}");
                assert_eq!(*g.hierarchy_at(r), **trace.hierarchy(r), "round {r}");
            }
        });
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn rejects_insufficient_nodes_for_backbone() {
        let c = HiNetConfig {
            n: 6,
            num_heads: 4,
            theta: 4,
            l: 4,
            t: 2,
            reaffil_prob: 0.0,
            rotate_heads: false,
            noise_edges: 0,
            seed: 0,
        };
        let _ = HiNetGen::new(c);
    }
}
