//! The Table 2 rows as executable scenarios.
//!
//! Each scenario derives, from one [`ModelParams`], a dynamics generator
//! whose trace satisfies the row's model assumptions, the matching
//! algorithm with the paper's parameter plan, and the row's analytic
//! bounds — so measured and analytic costs always refer to the *same*
//! parameters.

use hinet_cluster::ctvg::FlatProvider;
use hinet_cluster::generators::{HiNetConfig, HiNetGen};
use hinet_core::analysis::{self, ModelParams};
use hinet_core::params::{alg1_plan, klo_plan, remark1_phases, required_phase_length, PhasePlan};
use hinet_core::runner::{run_algorithm, AlgorithmKind};
use hinet_graph::generators::{BackboneKind, OneIntervalGen, TIntervalGen};
use hinet_sim::engine::{RunConfig, RunReport};
use hinet_sim::token::round_robin_assignment;

/// A scenario's analytic bounds paired with a measured run.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// Row label (matches Table 2/3).
    pub label: &'static str,
    /// Analytic "spending time" bound, in rounds.
    pub analytic_time: u64,
    /// Analytic communication bound, in tokens.
    pub analytic_comm: u64,
    /// The simulator's measurement.
    pub run: RunReport,
}

impl ScenarioReport {
    /// Measured completion rounds (panics if the run did not complete —
    /// scenario parameterisations are chosen so the theorems apply).
    pub fn measured_time(&self) -> u64 {
        self.run
            .completion_round
            .unwrap_or_else(|| panic!("{}: run did not complete", self.label)) as u64
    }

    /// Measured communication in tokens.
    pub fn measured_comm(&self) -> u64 {
        self.run.metrics.tokens_sent
    }
}

fn default_cfg() -> RunConfig<'static> {
    RunConfig::new().stop_on_completion(false)
}

/// Derive the HiNet generator head count that yields approximately the
/// model's `n_m` members: members = `n − h·L + (L−1)`, so
/// `h = (n + L − 1 − n_m) / L`, clamped to `[1, θ]` and to the backbone
/// feasibility bound.
fn heads_for_members(p: &ModelParams) -> usize {
    let (n, l, n_m) = (p.n0 as usize, p.l as usize, p.n_m as usize);
    let raw = (n + l - 1).saturating_sub(n_m) / l;
    raw.clamp(1, p.theta as usize)
}

/// Window-boundary re-affiliation probability that yields approximately
/// `n_r` re-affiliations per member over `windows` windows.
fn reaffil_prob_for(p: &ModelParams, windows: usize) -> f64 {
    if windows <= 1 {
        return 0.0;
    }
    (p.n_r as f64 / (windows - 1) as f64).min(1.0)
}

/// HiNet generator configuration realising the model parameters with
/// stability window `t`.
pub fn hinet_config(p: &ModelParams, t: usize, rotate_heads: bool, seed: u64) -> HiNetConfig {
    let num_heads = heads_for_members(p);
    HiNetConfig {
        n: p.n0 as usize,
        num_heads,
        theta: (p.theta as usize).max(num_heads),
        l: p.l as usize,
        t,
        reaffil_prob: 0.0, // set by callers that know their window count
        rotate_heads,
        noise_edges: p.n0 as usize / 5,
        seed,
    }
}

/// Row 1 — flat KLO on a `(k+αL)`-interval-connected adversary.
pub(crate) fn run_klo_t_interval(p: &ModelParams, seed: u64) -> ScenarioReport {
    let plan: PhasePlan = klo_plan(p.k as usize, p.alpha as usize, p.l as usize, p.n0 as usize);
    let gen = TIntervalGen::new(
        p.n0 as usize,
        plan.rounds_per_phase,
        BackboneKind::Path,
        p.n0 as usize / 5,
        seed,
    );
    let mut provider = FlatProvider::new(gen);
    let assignment = round_robin_assignment(p.n0 as usize, p.k as usize);
    let run = run_algorithm(
        &AlgorithmKind::KloPhased(plan),
        &mut provider,
        &assignment,
        default_cfg(),
    );
    ScenarioReport {
        label: "(k+α·L)-interval connected [KLO]",
        analytic_time: analysis::klo_t_interval_time(p),
        analytic_comm: analysis::klo_t_interval_comm(p),
        run,
    }
}

/// Row 2 — Algorithm 1 on a `(k+αL, L)`-HiNet.
pub fn run_hinet_tl(p: &ModelParams, seed: u64) -> ScenarioReport {
    let plan = alg1_plan(
        p.k as usize,
        p.alpha as usize,
        p.l as usize,
        p.theta as usize,
    );
    let mut cfg = hinet_config(p, plan.rounds_per_phase, true, seed);
    cfg.reaffil_prob = reaffil_prob_for(p, plan.phases);
    let mut provider = HiNetGen::new(cfg);
    let assignment = round_robin_assignment(p.n0 as usize, p.k as usize);
    let run = run_algorithm(
        &AlgorithmKind::HiNetPhased(plan),
        &mut provider,
        &assignment,
        default_cfg(),
    );
    ScenarioReport {
        label: "(k+α·L, L)-HiNet [Algorithm 1]",
        analytic_time: analysis::hinet_tl_time(p),
        analytic_comm: analysis::hinet_tl_comm(p),
        run,
    }
}

/// Remark 1 — Algorithm 1 with an ∞-stable head set.
pub fn run_remark1(p: &ModelParams, seed: u64) -> ScenarioReport {
    let t = required_phase_length(p.k as usize, p.alpha as usize, p.l as usize);
    let mut cfg = hinet_config(p, t, false, seed);
    let phases = remark1_phases(cfg.num_heads, p.alpha as usize);
    cfg.reaffil_prob = reaffil_prob_for(p, phases);
    let plan = PhasePlan {
        rounds_per_phase: t,
        phases,
    };
    let actual_heads = cfg.num_heads as u64;
    let mut provider = HiNetGen::new(cfg);
    let assignment = round_robin_assignment(p.n0 as usize, p.k as usize);
    let run = run_algorithm(
        &AlgorithmKind::HiNetRemark1(plan),
        &mut provider,
        &assignment,
        default_cfg(),
    );
    ScenarioReport {
        label: "(k+α·L, L)-HiNet, ∞-stable heads [Remark 1]",
        analytic_time: analysis::remark1_time(p, actual_heads),
        analytic_comm: analysis::remark1_comm(p, actual_heads),
        run,
    }
}

/// Row 3 — flat KLO full flooding on a 1-interval-connected adversary.
pub(crate) fn run_klo_1interval(p: &ModelParams, seed: u64) -> ScenarioReport {
    let n = p.n0 as usize;
    let gen = OneIntervalGen::new(n, true, n / 5, seed);
    let mut provider = FlatProvider::new(gen);
    let assignment = round_robin_assignment(n, p.k as usize);
    let run = run_algorithm(
        &AlgorithmKind::KloFlood { rounds: n - 1 },
        &mut provider,
        &assignment,
        default_cfg(),
    );
    ScenarioReport {
        label: "1-interval connected [KLO]",
        analytic_time: analysis::klo_1interval_time(p),
        analytic_comm: analysis::klo_1interval_comm(p),
        run,
    }
}

/// Row 4 — Algorithm 2 on a (1, L)-HiNet.
pub(crate) fn run_hinet_1l(p: &ModelParams, seed: u64) -> ScenarioReport {
    let n = p.n0 as usize;
    let mut cfg = hinet_config(p, 1, true, seed);
    cfg.reaffil_prob = reaffil_prob_for(p, n - 1);
    let mut provider = HiNetGen::new(cfg);
    let assignment = round_robin_assignment(n, p.k as usize);
    let run = run_algorithm(
        &AlgorithmKind::HiNetFullExchange { rounds: n - 1 },
        &mut provider,
        &assignment,
        default_cfg(),
    );
    ScenarioReport {
        label: "(1, L)-HiNet [Algorithm 2]",
        analytic_time: analysis::hinet_1l_time(p),
        analytic_comm: analysis::hinet_1l_comm(p),
        run,
    }
}

/// All four Table 2/3 rows, simulated.
pub fn run_all_rows(p: &ModelParams, p_1l: &ModelParams, seed: u64) -> Vec<ScenarioReport> {
    vec![
        run_klo_t_interval(p, seed),
        run_hinet_tl(p, seed),
        run_klo_1interval(p_1l, seed),
        run_hinet_1l(p_1l, seed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ModelParams {
        ModelParams {
            n0: 40,
            theta: 10,
            n_m: 20,
            n_r: 2,
            k: 4,
            alpha: 2,
            l: 2,
        }
    }

    #[test]
    fn heads_for_members_matches_member_target() {
        let p = small();
        let h = heads_for_members(&p);
        // members = n − h·L + (L−1)
        let members = p.n0 as usize + (p.l as usize - 1) - h * p.l as usize;
        assert!(
            (members as i64 - p.n_m as i64).abs() <= p.l as i64,
            "members {members} vs target {}",
            p.n_m
        );
        assert!(h <= p.theta as usize);
    }

    #[test]
    fn table3_head_derivation() {
        let p = ModelParams::table3();
        // n=100, L=2, n_m=40 → h = 61/2 = 30 (= θ exactly).
        assert_eq!(heads_for_members(&p), 30);
    }

    #[test]
    fn reaffil_prob_bounds() {
        let p = small();
        assert_eq!(reaffil_prob_for(&p, 1), 0.0);
        let pr = reaffil_prob_for(&p, 5);
        assert!((0.0..=1.0).contains(&pr));
        let heavy = ModelParams { n_r: 100, ..p };
        assert_eq!(reaffil_prob_for(&heavy, 3), 1.0);
    }

    #[test]
    fn all_rows_complete_within_analytic_time() {
        let p = small();
        let p_1l = p.with_n_r(4);
        for row in run_all_rows(&p, &p_1l, 11) {
            assert!(row.run.completed(), "{} did not complete", row.label);
            assert!(
                row.measured_time() <= row.analytic_time,
                "{}: measured {} > analytic {}",
                row.label,
                row.measured_time(),
                row.analytic_time
            );
        }
    }

    #[test]
    fn hinet_rows_beat_klo_rows_on_comm() {
        let p = small();
        let p_1l = p.with_n_r(4);
        let rows = run_all_rows(&p, &p_1l, 23);
        assert!(
            rows[1].measured_comm() < rows[0].measured_comm(),
            "(T,L): {} vs {}",
            rows[1].measured_comm(),
            rows[0].measured_comm()
        );
        assert!(
            rows[3].measured_comm() < rows[2].measured_comm(),
            "(1,L): {} vs {}",
            rows[3].measured_comm(),
            rows[2].measured_comm()
        );
    }

    #[test]
    fn remark1_completes_and_is_cheap() {
        let p = small();
        let r1 = run_remark1(&p, 7);
        assert!(r1.run.completed());
        let full = run_hinet_tl(&p, 7);
        assert!(r1.measured_comm() <= full.measured_comm() * 11 / 10);
    }
}
