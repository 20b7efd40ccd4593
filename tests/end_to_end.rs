//! End-to-end integration: every algorithm on compatible dynamics completes
//! within its proven bound, with the communication ordering the paper
//! claims, across crate boundaries (generators → hierarchy → simulator →
//! algorithms → analysis).

use hinet::cluster::ctvg::FlatProvider;
use hinet::cluster::generators::{HiNetConfig, HiNetGen};
use hinet::core::analysis::ModelParams;
use hinet::core::params::{alg1_plan, alg2_rounds_1interval, klo_plan};
use hinet::core::runner::{run_algorithm, AlgorithmKind};
use hinet::graph::generators::{BackboneKind, OneIntervalGen, TIntervalGen};
use hinet::sim::engine::RunConfig;
use hinet::sim::token::{round_robin_assignment, single_source_assignment};

// The star workloads of the engine scale point, at reduced sizes.
#[allow(dead_code)] // the example's `main` and its table renderer
#[path = "../examples/scale_point.rs"]
mod scale_point;

fn hinet_gen(n: usize, t: usize, seed: u64) -> HiNetGen {
    HiNetGen::new(HiNetConfig {
        n,
        num_heads: n / 8,
        theta: n / 4,
        l: 2,
        t,
        reaffil_prob: 0.2,
        rotate_heads: true,
        noise_edges: n / 6,
        seed,
    })
}

#[test]
fn alg1_meets_theorem1_bound_across_sizes_and_seeds() {
    for &n in &[32usize, 64, 96] {
        for seed in 0..3u64 {
            let k = 6;
            let (alpha, l) = (2usize, 2usize);
            let theta = n / 4;
            let plan = alg1_plan(k, alpha, l, theta);
            let mut provider = hinet_gen(n, plan.rounds_per_phase, seed);
            let assignment = round_robin_assignment(n, k);
            let report = run_algorithm(
                &AlgorithmKind::HiNetPhased(plan),
                &mut provider,
                &assignment,
                RunConfig::new().validate_hierarchy(true),
            );
            assert!(report.completed(), "n={n} seed={seed}");
            assert!(
                report.completion_round.unwrap() <= plan.total_rounds(),
                "n={n} seed={seed}: {} > {}",
                report.completion_round.unwrap(),
                plan.total_rounds()
            );
        }
    }
}

#[test]
fn alg2_meets_theorem2_bound_on_volatile_hinet() {
    for &n in &[32usize, 64] {
        for seed in 0..3u64 {
            let k = 5;
            let rounds = alg2_rounds_1interval(n);
            let mut provider = hinet_gen(n, 1, seed);
            let assignment = round_robin_assignment(n, k);
            let report = run_algorithm(
                &AlgorithmKind::HiNetFullExchange { rounds },
                &mut provider,
                &assignment,
                RunConfig::default(),
            );
            assert!(report.completed(), "n={n} seed={seed}");
            assert!(report.completion_round.unwrap() <= rounds);
        }
    }
}

#[test]
fn klo_phased_completes_on_flat_t_interval_adversary() {
    let n = 60;
    let k = 6;
    let plan = klo_plan(k, 2, 2, n);
    for seed in 0..3u64 {
        let gen = TIntervalGen::new(n, plan.rounds_per_phase, BackboneKind::Path, n / 5, seed);
        let mut provider = FlatProvider::new(gen);
        let assignment = round_robin_assignment(n, k);
        let report = run_algorithm(
            &AlgorithmKind::KloPhased(plan),
            &mut provider,
            &assignment,
            RunConfig::default(),
        );
        assert!(report.completed(), "seed={seed}");
        assert!(report.completion_round.unwrap() <= plan.total_rounds());
    }
}

#[test]
fn klo_flood_completes_in_n_minus_1_on_worst_case_churn() {
    let n = 48;
    let k = 4;
    for seed in 0..3u64 {
        let gen = OneIntervalGen::new(n, true, 0, seed);
        let mut provider = FlatProvider::new(gen);
        let assignment = round_robin_assignment(n, k);
        let report = run_algorithm(
            &AlgorithmKind::KloFlood { rounds: n - 1 },
            &mut provider,
            &assignment,
            RunConfig::default(),
        );
        assert!(report.completed(), "seed={seed}");
        assert!(
            report.completion_round.unwrap() < n,
            "O'Dell–Wattenhofer bound"
        );
    }
}

#[test]
fn single_source_dissemination_works_everywhere() {
    // The 1-token-generalisation sanity case: all k tokens start at node 0.
    let n = 40;
    let k = 5;
    let assignment = single_source_assignment(n, k, 0);

    let plan = alg1_plan(k, 2, 2, n / 4);
    let mut provider = hinet_gen(n, plan.rounds_per_phase, 5);
    let alg1 = run_algorithm(
        &AlgorithmKind::HiNetPhased(plan),
        &mut provider,
        &assignment,
        RunConfig::default(),
    );
    assert!(alg1.completed());

    let mut provider = hinet_gen(n, 1, 5);
    let alg2 = run_algorithm(
        &AlgorithmKind::HiNetFullExchange { rounds: n - 1 },
        &mut provider,
        &assignment,
        RunConfig::default(),
    );
    assert!(alg2.completed());
}

#[test]
fn insufficient_phase_budget_fails_visibly() {
    // With a single phase, tokens cannot cross the whole backbone: the run
    // must report non-completion rather than a wrong success.
    let n = 64;
    let k = 6;
    let plan = hinet::core::params::PhasePlan {
        rounds_per_phase: k + 2 * 2,
        phases: 1,
    };
    let mut provider = hinet_gen(n, plan.rounds_per_phase, 9);
    let assignment = round_robin_assignment(n, k);
    let report = run_algorithm(
        &AlgorithmKind::HiNetPhased(plan),
        &mut provider,
        &assignment,
        RunConfig::default(),
    );
    assert!(
        !report.completed(),
        "one phase cannot traverse an 8-head backbone"
    );
}

#[test]
fn comm_ordering_alg2_at_most_flood_on_same_dynamics() {
    // Members broadcast at most once per affiliation in Algorithm 2 while
    // flooding broadcasts everywhere every round — on identical dynamics
    // and an identical round budget, Algorithm 2 can never send more.
    let n = 56;
    let k = 6;
    for seed in 0..3u64 {
        let assignment = round_robin_assignment(n, k);
        let mut p1 = hinet_gen(n, 1, seed);
        let alg2 = run_algorithm(
            &AlgorithmKind::HiNetFullExchange { rounds: n - 1 },
            &mut p1,
            &assignment,
            RunConfig::new().stop_on_completion(false),
        );
        let mut p2 = hinet_gen(n, 1, seed);
        let flood = run_algorithm(
            &AlgorithmKind::KloFlood { rounds: n - 1 },
            &mut p2,
            &assignment,
            RunConfig::new().stop_on_completion(false),
        );
        assert!(alg2.completed() && flood.completed());
        assert!(
            alg2.metrics.tokens_sent <= flood.metrics.tokens_sent,
            "seed={seed}: {} > {}",
            alg2.metrics.tokens_sent,
            flood.metrics.tokens_sent
        );
    }
}

#[test]
fn full_run_determinism() {
    let p = ModelParams {
        n0: 48,
        theta: 12,
        n_m: 20,
        n_r: 2,
        k: 5,
        alpha: 2,
        l: 2,
    };
    let a = hinet::analysis::scenarios::run_hinet_tl(&p, 77);
    let b = hinet::analysis::scenarios::run_hinet_tl(&p, 77);
    assert_eq!(a.run.completion_round, b.run.completion_round);
    assert_eq!(a.run.metrics.tokens_sent, b.run.metrics.tokens_sent);
    assert_eq!(a.run.metrics.packets_sent, b.run.metrics.packets_sent);
    assert_eq!(a.run.metrics.tokens_by_role, b.run.metrics.tokens_by_role);
    let c = hinet::analysis::scenarios::run_hinet_tl(&p, 78);
    assert_ne!(
        (a.run.metrics.tokens_sent, a.run.completion_round),
        (c.run.metrics.tokens_sent, c.run.completion_round),
        "different seeds should differ somewhere"
    );
}

#[test]
fn per_role_accounting_sums_to_total() {
    let n = 40;
    let k = 5;
    let plan = alg1_plan(k, 2, 2, n / 4);
    let mut provider = hinet_gen(n, plan.rounds_per_phase, 3);
    let assignment = round_robin_assignment(n, k);
    let report = run_algorithm(
        &AlgorithmKind::HiNetPhased(plan),
        &mut provider,
        &assignment,
        RunConfig::new().record_rounds(true),
    );
    let by_role: u64 = report.metrics.tokens_by_role.iter().sum();
    assert_eq!(by_role, report.metrics.tokens_sent);
    let by_round: u64 = report.metrics.rounds.iter().map(|r| r.tokens_sent).sum();
    assert_eq!(by_round, report.metrics.tokens_sent);
}

/// A reduced point of the same shape as the n = 10^6 scale point: both
/// protocols must complete on the star within the round budget.
#[test]
fn both_protocols_complete_on_the_star() {
    for (n, k) in [(512, 64), (2_000, 100)] {
        let alg2 = scale_point::run_alg2_star(n, k);
        assert!(alg2.completed(), "alg2 n={n} k={k}: {}", alg2.outcome);
        let flood = scale_point::run_klo_flood_star(n, k);
        assert!(flood.completed(), "flood n={n} k={k}: {}", flood.outcome);
        // The backbone saves traffic even on a star: only the head
        // repeats the full set, members push once.
        assert!(
            alg2.metrics.tokens_sent < flood.metrics.tokens_sent,
            "n={n} k={k}: alg2 {} !< flood {}",
            alg2.metrics.tokens_sent,
            flood.metrics.tokens_sent
        );
    }
}

#[test]
fn star_runs_finish_in_a_handful_of_rounds() {
    let report = scale_point::run_alg2_star(1_000, 50);
    assert!(report.completion_round.unwrap() <= 3);
    let report = scale_point::run_klo_flood_star(1_000, 50);
    assert!(report.completion_round.unwrap() <= 3);
}
