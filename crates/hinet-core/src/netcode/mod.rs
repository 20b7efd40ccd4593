//! Random linear network coding (RLNC) dissemination — Haeupler & Karger's
//! improvement over token-forwarding, cited by the paper as related work.
//!
//! [`Rlnc`] is an ordinary [`Protocol`]: the round engine runs it like any
//! other algorithm, in both execution modes, over the same dynamics
//! providers, fault plane, reliability layer and tracer. Each round every
//! node broadcasts one uniformly random combination of its basis rows as a
//! [`Payload::Coded`] packet; a node knows a token once its reduced basis
//! isolates the token's unit vector, so it is informed exactly when its
//! basis reaches full rank. RLNC ignores the cluster hierarchy: its packets
//! are broadcasts attributed to whatever role the provider gives the
//! sender (`head` under a flat provider, where every node heads itself).
//!
//! Cost accounting: one coded packet carries one token-payload's worth of
//! data plus a `k`-bit coefficient header, so in the paper's token metric
//! it counts as **1**, and in the byte metric as
//! `token_bytes + ⌈k/8⌉ + packet_header_bytes` (the header lands in
//! [`hinet_sim::engine::Metrics::coefficient_bytes`]).
//!
//! Each node draws its coefficients from `stream_rng(seed, node)`, a stream
//! the fault plane never consults, so a trivial plan is byte-identical to a
//! plain run. A crash restarts the node from its retained tokens' unit
//! vectors (undecoded rows are volatile) and a fresh coin stream, like any
//! freshly constructed instance.

use hinet_graph::graph::NodeId;
use hinet_graph::rng::{stream_rng, Xoshiro256StarStar};
use hinet_sim::gf2::{Gf2Basis, Gf2Vec};
use hinet_sim::protocol::{Destination, Incoming, LocalView, Outgoing, Payload, Protocol};
use hinet_sim::token::{TokenId, TokenSet};
use std::sync::Arc;

/// One RLNC node over a universe of `k` tokens (ids `0..k`).
#[derive(Clone, Debug)]
pub struct Rlnc {
    k: usize,
    seed: u64,
    basis: Gf2Basis,
    rng: Xoshiro256StarStar,
    /// Decoded tokens (unit rows of the reduced basis).
    known: TokenSet,
}

impl Rlnc {
    /// A node over `k` tokens whose coins come from `stream_rng(seed, me)`.
    pub fn new(k: usize, seed: u64) -> Self {
        Rlnc {
            k,
            seed,
            basis: Gf2Basis::new(k),
            rng: stream_rng(seed, 0),
            known: TokenSet::new(),
        }
    }

    fn decode(&mut self) {
        self.known = self
            .basis
            .decoded()
            .into_iter()
            .map(|t| TokenId(t as u64))
            .collect();
    }
}

impl Protocol for Rlnc {
    fn on_start(&mut self, me: NodeId, initial: &[TokenId]) {
        self.rng = stream_rng(self.seed, me.0 as u64);
        for t in initial {
            self.basis.insert(Gf2Vec::unit(self.k, t.0 as usize));
        }
        self.decode();
    }

    fn send(&mut self, _view: &LocalView<'_>) -> Vec<Outgoing> {
        match self.basis.random_combination(&mut self.rng) {
            Some(v) => vec![Outgoing {
                dest: Destination::Broadcast,
                payload: Payload::Coded(Arc::new(v)),
                retransmit: false,
            }],
            None => Vec::new(),
        }
    }

    fn receive(&mut self, _view: &LocalView<'_>, inbox: &[Incoming]) {
        let mut grew = false;
        for m in inbox {
            if let Payload::Coded(v) = &m.payload {
                grew |= self.basis.insert((**v).clone());
            }
        }
        if grew {
            self.decode();
        }
    }

    fn known(&self) -> &TokenSet {
        &self.known
    }

    fn on_restart(&mut self, me: NodeId, retained: &[TokenId]) {
        *self = Rlnc::new(self.k, self.seed);
        self.on_start(me, retained);
    }
}

#[cfg(test)]
mod tests {
    use crate::runner::{run_algorithm, AlgorithmKind};
    use hinet_cluster::ctvg::{FlatProvider, HierarchyProvider};
    use hinet_graph::generators::{BackboneKind, OneIntervalGen, TIntervalGen};
    use hinet_graph::trace::StaticProvider;
    use hinet_graph::Graph;
    use hinet_rt::obs::{Event, ObsConfig, TraceSummary, Tracer};
    use hinet_sim::engine::{CostWeights, RunConfig, RunReport};
    use hinet_sim::fault::FaultPlan;
    use hinet_sim::token::round_robin_assignment;

    fn run(
        provider: &mut (dyn HierarchyProvider + Send),
        k: usize,
        seed: u64,
        cfg: RunConfig<'_>,
    ) -> RunReport {
        let assignment = round_robin_assignment(provider.n(), k);
        run_algorithm(&AlgorithmKind::Rlnc { k, seed }, provider, &assignment, cfg)
    }

    fn complete(n: usize) -> FlatProvider<StaticProvider> {
        FlatProvider::new(StaticProvider::new(Graph::complete(n)))
    }

    #[test]
    fn completes_on_static_complete_graph() {
        let r = run(&mut complete(10), 6, 1, RunConfig::new().max_rounds(200));
        assert!(r.completed(), "dense static graph must decode quickly");
        assert!(r.completion_round.unwrap() <= 30);
        assert_eq!(r.k, 6);
    }

    #[test]
    fn completes_under_adversarial_churn() {
        let mut p = FlatProvider::new(OneIntervalGen::new(24, true, 4, 5));
        let r = run(&mut p, 5, 2, RunConfig::new().max_rounds(500));
        assert!(r.completed(), "RLNC tolerates 1-interval churn w.h.p.");
    }

    #[test]
    fn completes_on_t_interval_adversary() {
        let mut p = FlatProvider::new(TIntervalGen::new(30, 6, BackboneKind::Path, 6, 8));
        let r = run(&mut p, 8, 3, RunConfig::new().max_rounds(1000));
        assert!(r.completed());
    }

    #[test]
    fn zero_tokens_complete_immediately() {
        let r = run(&mut complete(4), 0, 0, RunConfig::new().max_rounds(10));
        assert_eq!(r.completion_round, Some(0));
        assert_eq!(r.metrics.packets_sent, 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let go = |seed| {
            let mut p = FlatProvider::new(OneIntervalGen::new(16, false, 3, 9));
            run(&mut p, 4, seed, RunConfig::new().max_rounds(200))
        };
        let (a, b, c) = (go(4), go(4), go(1));
        assert_eq!(a.completion_round, b.completion_round);
        assert_eq!(a.metrics.packets_sent, b.metrics.packets_sent);
        assert!(
            c.completion_round != a.completion_round
                || c.metrics.packets_sent != a.metrics.packets_sent,
            "different seed should differ somewhere"
        );
    }

    #[test]
    fn byte_cost_includes_coefficient_header() {
        let r = run(&mut complete(10), 16, 1, RunConfig::new().max_rounds(200));
        let m = &r.metrics;
        assert_eq!(m.tokens_sent, m.packets_sent, "one payload per packet");
        // 16 bits of coefficients = 2 bytes per packet.
        assert_eq!(m.coefficient_bytes, 2 * m.packets_sent);
        assert_eq!(r.total_bytes(), m.packets_sent * (16 + 2 + 24));
    }

    #[test]
    fn traced_run_matches_untraced_and_accounts_costs() {
        let go = |tracer: &mut Tracer| {
            let mut p = FlatProvider::new(OneIntervalGen::new(16, false, 3, 9));
            run(
                &mut p,
                4,
                4,
                RunConfig::new().max_rounds(200).tracer(tracer),
            )
        };
        let plain = go(&mut Tracer::disabled());
        let mut tracer = Tracer::new(ObsConfig::full());
        let traced = go(&mut tracer);
        // The tracer never touches the coin streams.
        assert_eq!(plain.completion_round, traced.completion_round);
        assert_eq!(plain.metrics.packets_sent, traced.metrics.packets_sent);

        let packets = traced.metrics.packets_sent;
        let c = tracer.counters();
        assert_eq!(c.rounds, traced.rounds_executed as u64);
        assert_eq!(c.packets_sent, packets);
        assert_eq!(c.tokens_sent, packets, "one token-equivalent per packet");
        assert_eq!(
            c.tokens_by_role,
            [packets, 0, 0],
            "every node heads itself under a flat provider"
        );
        assert_eq!(
            c.bytes_sent,
            traced.total_bytes(),
            "per-packet bytes include the coefficient header"
        );
        assert_eq!(
            traced.total_bytes(),
            packets * (CostWeights::default().token_bytes + 1 + 24)
        );
        let s = TraceSummary::from_tracer(&tracer);
        assert_eq!(s.completed, Some(true));
        assert!(
            tracer
                .events()
                .all(|e| !matches!(e.event, Event::TokenPush { .. })),
            "coded packets are broadcasts, never pushes"
        );
    }

    #[test]
    fn lossy_rlnc_still_completes_and_reports_faults() {
        let go = |faults: &FaultPlan| {
            run(
                &mut complete(10),
                4,
                1,
                RunConfig::new().max_rounds(400).faults(faults.clone()),
            )
        };
        let clean = go(&FaultPlan::none());
        let faults = FaultPlan::new(3).with_loss_ppm(200_000);
        let lossy = go(&faults);
        // Coded redundancy absorbs 20% loss; it just takes longer.
        assert!(lossy.completed());
        assert!(lossy.completion_round.unwrap() >= clean.completion_round.unwrap());
        assert!(lossy.metrics.faults_injected > 0);

        // Replay: same plan, same counters.
        let replay = go(&faults);
        assert_eq!(replay.metrics.packets_sent, lossy.metrics.packets_sent);
        assert_eq!(
            replay.metrics.faults_injected,
            lossy.metrics.faults_injected
        );
    }

    #[test]
    fn trivial_fault_plan_is_identical_to_plain_rlnc() {
        let go = |cfg: RunConfig<'static>| {
            let mut p = FlatProvider::new(OneIntervalGen::new(16, false, 3, 9));
            run(&mut p, 4, 4, cfg.max_rounds(200))
        };
        let plain = go(RunConfig::new());
        let faulted = go(RunConfig::new().faults(FaultPlan::none()));
        assert_eq!(plain.completion_round, faulted.completion_round);
        assert_eq!(plain.metrics.packets_sent, faulted.metrics.packets_sent);
    }

    #[test]
    fn crashed_rlnc_node_loses_volatile_basis_and_recovers() {
        let faults = FaultPlan::new(0).with_crash_at(0, 3).with_down_rounds(2);
        let r = run(
            &mut complete(8),
            4,
            1,
            RunConfig::new().max_rounds(400).faults(faults),
        );
        assert!(r.completed(), "a dense graph re-fills the lost basis");
        assert_eq!(r.metrics.crashes, 1);
        assert_eq!(r.metrics.recoveries, 1);
    }
}
