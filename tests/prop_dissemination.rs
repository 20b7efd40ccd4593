//! Property-based tests for the dissemination algorithms: completion within
//! the proven bounds, knowledge monotonicity, and cost-model consistency
//! across randomly drawn parameters.
//!
//! Ported to the in-tree [`hinet::rt::check`] harness; re-run a failing case
//! with the `HINET_CHECK_SEED=…` command the failure message prints.

mod common;

use hinet::cluster::ctvg::FlatProvider;
use hinet::cluster::generators::{HiNetConfig, HiNetGen};
use hinet::core::analysis::{self, ModelParams};
use hinet::core::params::{alg1_plan, klo_plan};
use hinet::core::runner::{run_algorithm, AlgorithmKind};
use hinet::graph::generators::{BackboneKind, OneIntervalGen, TIntervalGen};
use hinet::rt::check::{check, CaseCtx};
use hinet::rt::rng::Rng;
use hinet::sim::engine::RunConfig;
use hinet::sim::token::round_robin_assignment;

const CASES: usize = 32;

/// Parameters small enough that a property case simulates in microseconds.
#[derive(Clone, Copy, Debug)]
struct Params {
    n: usize,
    k: usize,
    alpha: usize,
    l: usize,
    num_heads: usize,
    seed: u64,
}

fn arb_params(c: &mut CaseCtx) -> Params {
    let n = c.random_range(16usize..=48);
    let k = c.random_range(1usize..=8);
    let alpha = c.random_range(1usize..=3);
    let l = c.random_range(1usize..=3);
    let num_heads = c.random_range(2usize..=5);
    let seed = c.random::<u64>();
    Params {
        n: n.max(num_heads * l + 8),
        k,
        alpha,
        l,
        num_heads,
        seed,
    }
}

fn hinet_provider(p: &Params, t: usize, rotate: bool) -> HiNetGen {
    HiNetGen::new(HiNetConfig {
        n: p.n,
        num_heads: p.num_heads,
        theta: (p.num_heads * 2).min(p.n),
        l: p.l,
        t,
        reaffil_prob: 0.25,
        rotate_heads: rotate,
        noise_edges: p.n / 8,
        seed: p.seed,
    })
}

#[test]
fn alg1_completes_within_theorem1_bound() {
    check("alg1_completes_within_theorem1_bound", CASES, |c| {
        let p = arb_params(c);
        let theta = (p.num_heads * 2).min(p.n);
        let plan = alg1_plan(p.k, p.alpha, p.l, theta);
        let mut provider = hinet_provider(&p, plan.rounds_per_phase, true);
        let assignment = round_robin_assignment(p.n, p.k);
        let report = run_algorithm(
            &AlgorithmKind::HiNetPhased(plan),
            &mut provider,
            &assignment,
            RunConfig::new().validate_hierarchy(true),
        );
        assert!(report.completed(), "{p:?}");
        assert!(
            report.completion_round.unwrap() <= plan.total_rounds(),
            "{p:?}"
        );
    });
}

#[test]
fn alg2_completes_within_theorem2_bound() {
    check("alg2_completes_within_theorem2_bound", CASES, |c| {
        let p = arb_params(c);
        let mut provider = hinet_provider(&p, 1, true);
        let assignment = round_robin_assignment(p.n, p.k);
        let report = run_algorithm(
            &AlgorithmKind::HiNetFullExchange { rounds: p.n - 1 },
            &mut provider,
            &assignment,
            RunConfig::default(),
        );
        assert!(report.completed(), "{p:?}");
        assert!(report.completion_round.unwrap() < p.n, "{p:?}");
    });
}

#[test]
fn klo_phased_completes_on_flat_adversary() {
    check("klo_phased_completes_on_flat_adversary", CASES, |c| {
        let p = arb_params(c);
        let plan = klo_plan(p.k, p.alpha, p.l, p.n);
        let gen = TIntervalGen::new(
            p.n,
            plan.rounds_per_phase,
            BackboneKind::Path,
            p.n / 8,
            p.seed,
        );
        let mut provider = FlatProvider::new(gen);
        let assignment = round_robin_assignment(p.n, p.k);
        let report = run_algorithm(
            &AlgorithmKind::KloPhased(plan),
            &mut provider,
            &assignment,
            RunConfig::default(),
        );
        assert!(report.completed(), "{p:?}");
        assert!(
            report.completion_round.unwrap() <= plan.total_rounds(),
            "{p:?}"
        );
    });
}

#[test]
fn klo_flood_completes_within_n_minus_1() {
    check("klo_flood_completes_within_n_minus_1", CASES, |c| {
        let p = arb_params(c);
        let gen = OneIntervalGen::new(p.n, true, p.n / 8, p.seed);
        let mut provider = FlatProvider::new(gen);
        let assignment = round_robin_assignment(p.n, p.k);
        let report = run_algorithm(
            &AlgorithmKind::KloFlood { rounds: p.n - 1 },
            &mut provider,
            &assignment,
            RunConfig::default(),
        );
        assert!(report.completed(), "{p:?}");
    });
}

#[test]
fn measured_comm_never_exceeds_analytic_bound_for_klo() {
    check(
        "measured_comm_never_exceeds_analytic_bound_for_klo",
        CASES,
        |c| {
            // The baseline's analytic bound assumes every node broadcasts up to
            // k tokens per phase; the simulator can only do less.
            let p = arb_params(c);
            let plan = klo_plan(p.k, p.alpha, p.l, p.n);
            let gen = TIntervalGen::new(
                p.n,
                plan.rounds_per_phase,
                BackboneKind::Path,
                p.n / 8,
                p.seed,
            );
            let mut provider = FlatProvider::new(gen);
            let assignment = round_robin_assignment(p.n, p.k);
            let report = run_algorithm(
                &AlgorithmKind::KloPhased(plan),
                &mut provider,
                &assignment,
                RunConfig::new().stop_on_completion(false),
            );
            // Bound: phases × n × k (each node ≤ k tokens per phase).
            let bound = (plan.phases * p.n * p.k) as u64;
            assert!(
                report.metrics.tokens_sent <= bound,
                "{p:?}: {} > {bound}",
                report.metrics.tokens_sent
            );
        },
    );
}

#[test]
fn alg2_cheaper_or_equal_to_flood_same_dynamics() {
    check("alg2_cheaper_or_equal_to_flood_same_dynamics", CASES, |c| {
        let p = arb_params(c);
        let assignment = round_robin_assignment(p.n, p.k);
        let mut p1 = hinet_provider(&p, 1, true);
        let alg2 = run_algorithm(
            &AlgorithmKind::HiNetFullExchange { rounds: p.n - 1 },
            &mut p1,
            &assignment,
            RunConfig::new().stop_on_completion(false),
        );
        let mut p2 = hinet_provider(&p, 1, true);
        let flood = run_algorithm(
            &AlgorithmKind::KloFlood { rounds: p.n - 1 },
            &mut p2,
            &assignment,
            RunConfig::new().stop_on_completion(false),
        );
        assert!(
            alg2.metrics.tokens_sent <= flood.metrics.tokens_sent,
            "{p:?}: alg2 {} > flood {}",
            alg2.metrics.tokens_sent,
            flood.metrics.tokens_sent
        );
    });
}

#[test]
fn analytic_model_internal_consistency() {
    check("analytic_model_internal_consistency", CASES, |c| {
        let n0 = c.random_range(10u64..1000);
        let theta_frac = c.random_range(1u64..=5);
        let k = c.random_range(1u64..100);
        let alpha = c.random_range(1u64..10);
        let l = c.random_range(1u64..6);
        let n_r = c.random_range(0u64..20);
        let theta = (n0 / (theta_frac + 1)).max(1);
        let n_m = n0 / 2;
        let p = ModelParams {
            n0,
            theta,
            n_m,
            n_r,
            k,
            alpha,
            l,
        };
        // Time formulas are positive and phase-plan-consistent.
        assert!(analysis::hinet_tl_time(&p) > 0);
        assert!(common::alg1_time_matches_plan(&p));
        // θ ≤ n₀ implies Algorithm 1 uses no more phases than KLO charges
        // nodes, hence less head/gateway traffic whenever n_m > 0 and
        // churn is moderate.
        if n_r == 0 && n_m > 0 {
            assert!(
                analysis::hinet_1l_comm(&p) < analysis::klo_1interval_comm(&p),
                "churn-free hierarchy must beat flooding: {} vs {}",
                analysis::hinet_1l_comm(&p),
                analysis::klo_1interval_comm(&p)
            );
        }
    });
}

#[test]
fn reports_are_internally_consistent() {
    check("reports_are_internally_consistent", CASES, |c| {
        let p = arb_params(c);
        let mut provider = hinet_provider(&p, 1, false);
        let assignment = round_robin_assignment(p.n, p.k);
        let report = run_algorithm(
            &AlgorithmKind::HiNetFullExchange { rounds: p.n - 1 },
            &mut provider,
            &assignment,
            RunConfig::new()
                .record_rounds(true)
                .stop_on_completion(false),
        );
        assert_eq!(report.k, p.k.min(p.k));
        let by_role: u64 = report.metrics.tokens_by_role.iter().sum();
        assert_eq!(by_role, report.metrics.tokens_sent);
        let by_round: u64 = report.metrics.rounds.iter().map(|r| r.tokens_sent).sum();
        assert_eq!(by_round, report.metrics.tokens_sent);
        assert!(report.metrics.packets_sent <= report.metrics.tokens_sent);
        if let Some(cr) = report.completion_round {
            assert!(cr <= report.rounds_executed);
        }
    });
}
