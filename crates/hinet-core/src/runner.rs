//! One-call algorithm execution.
//!
//! Experiments need to run "algorithm X on provider Y with k tokens" many
//! times over; this module packages algorithm selection (with its
//! parameterisation) behind one enum so sweep code stays declarative.

use crate::algorithms::{
    DeltaFlood, Gossip, HiNetFullExchange, HiNetFullExchangeMH, HiNetPhased, KActiveFlood,
    KloFlood, KloPhased,
};
use crate::netcode::Rlnc;
use crate::params::PhasePlan;
use hinet_cluster::ctvg::HierarchyProvider;
use hinet_sim::engine::{Engine, RunConfig, RunReport};
use hinet_sim::protocol::Protocol;
use hinet_sim::token::TokenId;

/// Algorithm selector with per-algorithm parameters.
#[derive(Clone, Debug)]
pub enum AlgorithmKind {
    /// Algorithm 1 with the given phase plan.
    HiNetPhased(PhasePlan),
    /// Algorithm 1, Remark 1 variant (∞-stable head set).
    HiNetRemark1(PhasePlan),
    /// Algorithm 2 with `M` rounds.
    HiNetFullExchange {
        /// Round budget `M` (see `params::alg2_rounds_*`).
        rounds: usize,
    },
    /// Flat KLO T-interval baseline with the given phase plan.
    KloPhased(PhasePlan),
    /// Flat KLO 1-interval full flooding with `M` rounds.
    KloFlood {
        /// Round budget `M` (normally `n − 1`).
        rounds: usize,
    },
    /// Push gossip baseline.
    Gossip {
        /// Round budget.
        rounds: usize,
        /// RNG seed for target selection.
        seed: u64,
    },
    /// k-active (parsimonious) flooding baseline.
    KActiveFlood {
        /// Rounds each token stays active after first being learned.
        activity: usize,
        /// Hard round budget.
        rounds: usize,
    },
    /// Delta-triggered flooding — the *incorrect* quiescent baseline
    /// (experiment E13).
    DeltaFlood {
        /// Hard round budget.
        rounds: usize,
    },
    /// Multi-hop Algorithm 2 for d-hop clusters (experiment E14).
    HiNetFullExchangeMH {
        /// Round budget `M`.
        rounds: usize,
    },
    /// Random linear network coding over GF(2) (experiment E15; see
    /// [`crate::netcode`]).
    Rlnc {
        /// Token universe size: coded packets carry `k` coefficients.
        k: usize,
        /// Seed of every node's coin stream (`stream_rng(seed, node)`).
        seed: u64,
    },
}

impl AlgorithmKind {
    /// Short display label for report tables.
    pub fn label(&self) -> &'static str {
        match self {
            AlgorithmKind::HiNetPhased(_) => "alg1-hinet-phased",
            AlgorithmKind::HiNetRemark1(_) => "alg1-remark1",
            AlgorithmKind::HiNetFullExchange { .. } => "alg2-full-exchange",
            AlgorithmKind::KloPhased(_) => "klo-phased",
            AlgorithmKind::KloFlood { .. } => "klo-flood",
            AlgorithmKind::Gossip { .. } => "gossip",
            AlgorithmKind::KActiveFlood { .. } => "k-active-flood",
            AlgorithmKind::DeltaFlood { .. } => "delta-flood",
            AlgorithmKind::HiNetFullExchangeMH { .. } => "alg2-multihop",
            AlgorithmKind::Rlnc { .. } => "rlnc",
        }
    }

    /// Instantiate one protocol per node.
    pub fn build(&self, n: usize) -> Vec<Box<dyn Protocol + Send>> {
        (0..n).map(|_| self.build_node(false)).collect()
    }

    /// Instantiate a single protocol instance — the factory behind
    /// [`AlgorithmKind::build`] and [`run_algorithm`].
    ///
    /// With `retransmit` set, the HiNet algorithms (1, Remark 1 and 2) are
    /// built in their retransmission-recovery mode; the flag is a no-op for
    /// the baselines, which have no recovery variant.
    pub fn build_node(&self, retransmit: bool) -> Box<dyn Protocol + Send> {
        match *self {
            AlgorithmKind::HiNetPhased(plan) => {
                Box::new(HiNetPhased::new(plan).with_retransmit(retransmit))
            }
            AlgorithmKind::HiNetRemark1(plan) => {
                Box::new(HiNetPhased::remark1(plan).with_retransmit(retransmit))
            }
            AlgorithmKind::HiNetFullExchange { rounds } => {
                Box::new(HiNetFullExchange::new(rounds).with_retransmit(retransmit))
            }
            AlgorithmKind::KloPhased(plan) => Box::new(KloPhased::new(plan)),
            AlgorithmKind::KloFlood { rounds } => Box::new(KloFlood::new(rounds)),
            AlgorithmKind::Gossip { rounds, seed } => Box::new(Gossip::new(rounds, seed)),
            AlgorithmKind::KActiveFlood { activity, rounds } => {
                Box::new(KActiveFlood::new(activity, rounds))
            }
            AlgorithmKind::DeltaFlood { rounds } => Box::new(DeltaFlood::new(rounds)),
            AlgorithmKind::HiNetFullExchangeMH { rounds } => {
                Box::new(HiNetFullExchangeMH::new(rounds))
            }
            AlgorithmKind::Rlnc { k, seed } => Box::new(Rlnc::new(k, seed)),
        }
    }
}

impl AlgorithmKind {
    /// The phase length `T` the algorithm operates in, if it is phased.
    /// This is what the tracer uses to segment a run into phases.
    pub fn phase_len(&self) -> Option<usize> {
        match self {
            AlgorithmKind::HiNetPhased(plan)
            | AlgorithmKind::HiNetRemark1(plan)
            | AlgorithmKind::KloPhased(plan) => Some(plan.rounds_per_phase),
            _ => None,
        }
    }
}

/// Run `kind` on `provider` with the given initial token `assignment` —
/// the single algorithm entry point, mirroring [`Engine::run`].
///
/// Everything rides on `cfg`: attach a tracer with [`RunConfig::tracer`]
/// (for phased algorithms the tracer's phase length is set from the plan,
/// so the trace carries `PhaseAdvance` markers and the algorithm label in
/// its metadata), a fault plan with [`RunConfig::faults`] (crashed nodes
/// restart through [`hinet_sim::protocol::Protocol::on_restart`]), and
/// [`RunConfig::retransmit`] to build the HiNet algorithms in their
/// retransmission-recovery mode. A default config runs the plain path.
pub fn run_algorithm(
    kind: &AlgorithmKind,
    provider: &mut (dyn HierarchyProvider + Send),
    assignment: &[Vec<TokenId>],
    mut cfg: RunConfig<'_>,
) -> RunReport {
    if let Some(tracer) = cfg.tracer.as_deref_mut() {
        if tracer.enabled() {
            tracer.meta("algorithm", kind.label());
            if let Some(t) = kind.phase_len() {
                tracer.set_phase_len(t as u64);
                tracer.meta("rounds_per_phase", t.to_string());
            }
        }
    }
    let mut protocols: Vec<Box<dyn Protocol + Send>> = (0..provider.n())
        .map(|_| kind.build_node(cfg.retransmit))
        .collect();
    Engine::new(cfg).run(provider, &mut protocols, assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{alg1_plan, alg2_rounds_1interval, klo_plan};
    use hinet_cluster::generators::{HiNetConfig, HiNetGen};
    use hinet_sim::token::round_robin_assignment;

    fn small_hinet(t: usize, rotate: bool) -> HiNetGen {
        HiNetGen::new(HiNetConfig {
            n: 24,
            num_heads: 4,
            theta: 8,
            l: 2,
            t,
            reaffil_prob: 0.15,
            rotate_heads: rotate,
            noise_edges: 0,
            seed: 9,
        })
    }

    #[test]
    fn alg1_completes_within_plan_on_hinet() {
        let k = 4;
        let (alpha, l, theta) = (2, 2, 8);
        let plan = alg1_plan(k, alpha, l, theta); // T = 8, M = 5
        let mut provider = small_hinet(plan.rounds_per_phase, true);
        let assignment = round_robin_assignment(24, k);
        let report = run_algorithm(
            &AlgorithmKind::HiNetPhased(plan),
            &mut provider,
            &assignment,
            RunConfig::new().validate_hierarchy(true),
        );
        assert!(report.completed(), "Theorem 1 guarantees completion");
        assert!(
            report.completion_round.unwrap() <= plan.total_rounds(),
            "{} > plan {}",
            report.completion_round.unwrap(),
            plan.total_rounds()
        );
    }

    #[test]
    fn alg2_completes_on_one_l_hinet() {
        let k = 5;
        let rounds = alg2_rounds_1interval(24);
        let mut provider = small_hinet(1, true);
        let assignment = round_robin_assignment(24, k);
        let report = run_algorithm(
            &AlgorithmKind::HiNetFullExchange { rounds },
            &mut provider,
            &assignment,
            RunConfig::default(),
        );
        assert!(report.completed(), "Theorem 2 guarantees completion in n−1");
        assert!(report.completion_round.unwrap() <= rounds);
    }

    #[test]
    fn klo_baselines_complete() {
        let k = 4;
        let plan = klo_plan(k, 2, 2, 24);
        let mut provider = small_hinet(plan.rounds_per_phase, false);
        let assignment = round_robin_assignment(24, k);
        let phased = run_algorithm(
            &AlgorithmKind::KloPhased(plan),
            &mut provider,
            &assignment,
            RunConfig::default(),
        );
        assert!(phased.completed());

        let mut provider = small_hinet(1, true);
        let flood = run_algorithm(
            &AlgorithmKind::KloFlood { rounds: 23 },
            &mut provider,
            &assignment,
            RunConfig::default(),
        );
        assert!(flood.completed());
    }

    #[test]
    fn hinet_cheaper_than_klo_flood_on_same_dynamics() {
        // The headline claim, at miniature scale: same (1, L)-HiNet
        // dynamics, Algorithm 2 vs full flooding.
        let k = 6;
        let assignment = round_robin_assignment(24, k);
        let mut p1 = small_hinet(1, true);
        let alg2 = run_algorithm(
            &AlgorithmKind::HiNetFullExchange { rounds: 23 },
            &mut p1,
            &assignment,
            RunConfig::default(),
        );
        let mut p2 = small_hinet(1, true);
        let flood = run_algorithm(
            &AlgorithmKind::KloFlood { rounds: 23 },
            &mut p2,
            &assignment,
            RunConfig::default(),
        );
        assert!(alg2.completed() && flood.completed());
        assert!(
            alg2.metrics.tokens_sent < flood.metrics.tokens_sent,
            "alg2 {} should beat flooding {}",
            alg2.metrics.tokens_sent,
            flood.metrics.tokens_sent
        );
    }

    #[test]
    fn gossip_and_kactive_run_to_completion_on_easy_dynamics() {
        let k = 3;
        let assignment = round_robin_assignment(24, k);
        let mut p = small_hinet(4, false);
        let gossip = run_algorithm(
            &AlgorithmKind::Gossip {
                rounds: 500,
                seed: 3,
            },
            &mut p,
            &assignment,
            RunConfig::default(),
        );
        assert!(gossip.completed(), "gossip should finish on a stable HiNet");

        let mut p = small_hinet(4, false);
        let ka = run_algorithm(
            &AlgorithmKind::KActiveFlood {
                activity: 24,
                rounds: 500,
            },
            &mut p,
            &assignment,
            RunConfig::default(),
        );
        assert!(ka.completed());
    }

    #[test]
    fn hinet_algorithms_recover_from_loss_with_retransmission() {
        let k = 4;
        let (alpha, l, theta) = (2, 2, 8);
        let base = alg1_plan(k, alpha, l, theta);
        // Loss voids Theorem 1's round bound; give recovery extra phases.
        let plan = PhasePlan {
            phases: base.phases * 3,
            ..base
        };
        let assignment = round_robin_assignment(24, k);
        let faults = hinet_sim::fault::FaultPlan::new(11).with_loss_ppm(100_000);

        let mut provider = small_hinet(plan.rounds_per_phase, true);
        let report = run_algorithm(
            &AlgorithmKind::HiNetPhased(plan),
            &mut provider,
            &assignment,
            RunConfig::new().faults(faults.clone()).retransmit(true),
        );
        assert!(
            report.completed(),
            "alg1 must heal 10% loss via retransmission, got {}",
            report.outcome
        );
        assert!(report.metrics.faults_injected > 0);
        assert!(report.metrics.retransmits > 0);

        let mut provider = small_hinet(1, true);
        let report = run_algorithm(
            &AlgorithmKind::HiNetFullExchange { rounds: 69 },
            &mut provider,
            &assignment,
            RunConfig::new().faults(faults).retransmit(true),
        );
        assert!(
            report.completed(),
            "alg2 must heal 10% loss via retransmission, got {}",
            report.outcome
        );
    }

    #[test]
    fn faulted_run_with_trivial_plan_matches_traced_run() {
        use hinet_rt::obs::{ObsConfig, Tracer};

        let k = 4;
        let plan = alg1_plan(k, 2, 2, 8);
        let assignment = round_robin_assignment(24, k);

        let mut provider = small_hinet(plan.rounds_per_phase, true);
        let mut plain = Tracer::new(ObsConfig::full());
        run_algorithm(
            &AlgorithmKind::HiNetPhased(plan),
            &mut provider,
            &assignment,
            RunConfig::new().tracer(&mut plain),
        );

        let mut provider = small_hinet(plan.rounds_per_phase, true);
        let mut faulted = Tracer::new(ObsConfig::full());
        run_algorithm(
            &AlgorithmKind::HiNetPhased(plan),
            &mut provider,
            &assignment,
            RunConfig::new()
                .faults(hinet_sim::fault::FaultPlan::none())
                .tracer(&mut faulted),
        );
        assert_eq!(plain.to_jsonl(), faulted.to_jsonl());
    }

    #[test]
    fn labels_are_distinct() {
        let plan = alg1_plan(2, 1, 1, 2);
        let kinds = [
            AlgorithmKind::HiNetPhased(plan),
            AlgorithmKind::HiNetRemark1(plan),
            AlgorithmKind::HiNetFullExchange { rounds: 1 },
            AlgorithmKind::KloPhased(plan),
            AlgorithmKind::KloFlood { rounds: 1 },
            AlgorithmKind::Gossip { rounds: 1, seed: 0 },
            AlgorithmKind::KActiveFlood {
                activity: 1,
                rounds: 1,
            },
            AlgorithmKind::DeltaFlood { rounds: 1 },
            AlgorithmKind::HiNetFullExchangeMH { rounds: 1 },
        ];
        let labels: std::collections::BTreeSet<_> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), kinds.len());
    }
}
