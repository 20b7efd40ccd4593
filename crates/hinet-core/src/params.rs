//! Phase arithmetic shared by the algorithms and the analytical model.
//!
//! Theorem 1 parameterises Algorithm 1 by the phase length `T ≥ k + α·L`
//! and the phase count `M ≥ ⌈θ/α⌉ + 1`; this module centralises those
//! formulas so the simulator, the cost model and the benches cannot drift
//! apart.

/// A phase plan: how many rounds per phase and how many phases to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhasePlan {
    /// Rounds per phase (`T`).
    pub rounds_per_phase: usize,
    /// Number of phases (`M`).
    pub phases: usize,
}

impl PhasePlan {
    /// Total rounds `M · T`.
    pub fn total_rounds(&self) -> usize {
        self.rounds_per_phase * self.phases
    }

    /// Whether `round` is the first round of its phase.
    pub fn is_phase_start(&self, round: usize) -> bool {
        round.is_multiple_of(self.rounds_per_phase)
    }

    /// Whether the plan is exhausted at `round` (round past the last phase).
    pub fn exhausted(&self, round: usize) -> bool {
        round >= self.total_rounds()
    }
}

/// The minimal phase length Theorem 1 requires: `T = k + α·L`.
pub fn required_phase_length(k: usize, alpha: usize, l: usize) -> usize {
    k + alpha * l
}

/// Theorem 1's phase count for Algorithm 1: `M = ⌈θ/α⌉ + 1`.
fn alg1_phases(theta: usize, alpha: usize) -> usize {
    assert!(alpha > 0, "α must be a positive integer");
    theta.div_ceil(alpha) + 1
}

/// Remark 1's phase count when the head set is ∞-interval stable:
/// `M = ⌈|V_h|/α⌉ + 1` with the *actual* head count instead of the bound θ.
pub fn remark1_phases(actual_heads: usize, alpha: usize) -> usize {
    assert!(alpha > 0, "α must be a positive integer");
    actual_heads.div_ceil(alpha) + 1
}

/// Phase count the paper's Table 2 charges the flat KLO baseline in the
/// `(k+αL)`-interval connected model: `⌈n₀/(αL)⌉` phases.
fn klo_phases(n0: usize, alpha: usize, l: usize) -> usize {
    assert!(alpha > 0 && l > 0);
    n0.div_ceil(alpha * l)
}

/// Theorem 2's round count for Algorithm 2 under plain 1-interval
/// connectivity: `n − 1` rounds.
pub fn alg2_rounds_1interval(n0: usize) -> usize {
    n0.saturating_sub(1)
}

/// Theorem 3's round count for Algorithm 2 under (α·L)-interval cluster
/// head connectivity: `⌈θ/α⌉ + 1`.
pub fn alg2_rounds_theorem3(theta: usize, alpha: usize) -> usize {
    assert!(alpha > 0);
    theta.div_ceil(alpha) + 1
}

/// Theorem 4's round count for Algorithm 2 under an L-interval stable
/// hierarchy: `θ·L + 1`.
pub fn alg2_rounds_theorem4(theta: usize, l: usize) -> usize {
    theta * l + 1
}

/// The full Algorithm 1 plan for a (T, L)-HiNet with parameters
/// `(k, α, L, θ)`: phase length `k + αL`, `⌈θ/α⌉ + 1` phases.
pub fn alg1_plan(k: usize, alpha: usize, l: usize, theta: usize) -> PhasePlan {
    PhasePlan {
        rounds_per_phase: required_phase_length(k, alpha, l),
        phases: alg1_phases(theta, alpha),
    }
}

/// The flat KLO plan the paper compares against: same phase length,
/// `⌈n₀/(αL)⌉` phases.
pub fn klo_plan(k: usize, alpha: usize, l: usize, n0: usize) -> PhasePlan {
    PhasePlan {
        rounds_per_phase: required_phase_length(k, alpha, l),
        phases: klo_phases(n0, alpha, l),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_plan_geometry() {
        let p = PhasePlan {
            rounds_per_phase: 5,
            phases: 3,
        };
        assert_eq!(p.total_rounds(), 15);
        assert!(p.is_phase_start(0));
        assert!(p.is_phase_start(10));
        assert!(!p.is_phase_start(11));
        assert!(!p.exhausted(14));
        assert!(p.exhausted(15));
    }

    #[test]
    fn table3_plan_arithmetic() {
        // Paper's Table 3 parameters: k=8, α=5, L=2, θ=30, n₀=100.
        assert_eq!(required_phase_length(8, 5, 2), 18);
        assert_eq!(alg1_phases(30, 5), 7);
        assert_eq!(alg1_plan(8, 5, 2, 30).total_rounds(), 126);
        assert_eq!(klo_phases(100, 5, 2), 10);
        assert_eq!(klo_plan(8, 5, 2, 100).total_rounds(), 180);
        assert_eq!(alg2_rounds_1interval(100), 99);
    }

    #[test]
    fn ceil_division_edges() {
        assert_eq!(alg1_phases(30, 7), 6, "⌈30/7⌉+1 = 5+1");
        assert_eq!(alg1_phases(1, 1), 2);
        assert_eq!(remark1_phases(10, 5), 3);
        assert_eq!(alg2_rounds_theorem3(30, 5), 7);
        assert_eq!(alg2_rounds_theorem4(30, 2), 61);
        assert_eq!(alg2_rounds_1interval(1), 0);
    }

    #[test]
    #[should_panic(expected = "positive integer")]
    fn zero_alpha_rejected() {
        let _ = alg1_phases(10, 0);
    }
}
