//! E13 — why guaranteed dissemination must keep transmitting: the
//! quiescence trap.

use super::ExperimentResult;
use crate::report::Table;
use hinet_cluster::ctvg::FlatProvider;
use hinet_core::runner::{run_algorithm, AlgorithmKind};
use hinet_graph::generators::{QuiescenceTrapGen, RandomWaypointGen, WaypointConfig};
use hinet_sim::engine::{RunConfig, RunReport};
use hinet_sim::token::single_source_assignment;

/// E13: delta-triggered flooding (broadcast only after knowledge growth)
/// against full flooding, on (a) the adversarial quiescence-trap schedule
/// and (b) benign slow-mobility dynamics — both 1-interval connected.
///
/// The trap starves the quiescent protocol forever while full flooding
/// sails through; under slow mobility (links persist across rounds, so
/// fresh nodes are still talking when they meet uninformed ones) the
/// quiescent protocol completes at a fraction of flooding's cost. This is
/// the executable justification for the paper's design choice: to save
/// communication *without* losing the delivery guarantee you need
/// structural knowledge (the cluster backbone and its stability model),
/// not just send-suppression heuristics. (Memoryless per-round churn also
/// defeats delta-flooding — links vanish before the news crosses them —
/// which only sharpens the point.)
pub(crate) fn e13_quiescence_trap() -> ExperimentResult {
    let n = 30;
    let budget = 4 * n; // generous: n−1 suffices for the guaranteed one
    let assignment = single_source_assignment(n, 1, 0);

    let mut table = Table::new(
        format!("Quiescence trap vs benign churn (n={n}, k=1 at node 0, budget {budget} rounds)"),
        &["dynamics", "algorithm", "outcome", "rounds", "tokens sent"],
    );
    let mut record = |dynamics: &str, algorithm: &str, report: &RunReport| {
        table.push_row(vec![
            dynamics.into(),
            algorithm.into(),
            report.outcome.to_string(),
            report
                .completion_round
                .map_or("never".into(), |r| r.to_string()),
            report.metrics.tokens_sent.to_string(),
        ]);
    };

    // (a) The trap.
    let mut trap = FlatProvider::new(QuiescenceTrapGen::new(n));
    let delta_trap = run_algorithm(
        &AlgorithmKind::DeltaFlood { rounds: budget },
        &mut trap,
        &assignment,
        RunConfig::new(),
    );
    record("quiescence trap", "delta-flood", &delta_trap);
    let mut trap = FlatProvider::new(QuiescenceTrapGen::new(n));
    let flood_trap = run_algorithm(
        &AlgorithmKind::KloFlood { rounds: budget },
        &mut trap,
        &assignment,
        RunConfig::new(),
    );
    record("quiescence trap", "klo-flood", &flood_trap);

    // (b) Benign slow mobility: links persist across rounds.
    let benign = || {
        FlatProvider::new(RandomWaypointGen::new(
            n,
            WaypointConfig {
                radius: 0.35,
                min_speed: 0.002,
                max_speed: 0.01,
                ensure_connected: true,
            },
            99,
        ))
    };
    let mut churn = benign();
    let delta_churn = run_algorithm(
        &AlgorithmKind::DeltaFlood { rounds: budget },
        &mut churn,
        &assignment,
        RunConfig::new(),
    );
    record("slow mobility", "delta-flood", &delta_churn);
    let mut churn = benign();
    let flood_churn = run_algorithm(
        &AlgorithmKind::KloFlood { rounds: budget },
        &mut churn,
        &assignment,
        RunConfig::new(),
    );
    record("slow mobility", "klo-flood", &flood_churn);

    let notes = vec![
        if delta_trap.completed() {
            "UNEXPECTED: delta-flood completed on the trap — adversary broken".into()
        } else {
            format!(
                "Delta-flood never delivers to the victim on the trap (starved for all \
                 {budget} rounds) while full flooding completes in {} rounds — quiescence \
                 heuristics forfeit the 1-interval delivery guarantee.",
                flood_trap.completion_round.unwrap()
            )
        },
        format!(
            "Under slow mobility delta-flood completes in {} rounds with {} tokens vs \
             flooding's {} tokens: the savings are real, just not *guaranteed* — \
             which is the gap (T, L)-HiNet closes soundly.",
            delta_churn.completion_round.map_or(0, |r| r),
            delta_churn.metrics.tokens_sent,
            flood_churn.metrics.tokens_sent
        ),
    ];

    ExperimentResult {
        id: "E13",
        title: "Adversarial — the quiescence trap (why broadcasting must continue)",
        tables: vec![table],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trap_starves_delta_but_not_flooding() {
        let r = e13_quiescence_trap();
        let t = &r.tables[0];
        // Row 0: delta on trap — stalled, and attributably so (no faults
        // were injected, so the structured outcome names the protocol, not
        // the round budget's arbitrariness, as what to investigate).
        assert!(t.cell(0, 2).starts_with("stalled"), "{}", t.cell(0, 2));
        assert_eq!(t.cell(0, 3), "never");
        // Row 1: flooding on trap — complete.
        assert!(t.cell(1, 2).starts_with("completed"), "{}", t.cell(1, 2));
        // Rows 2-3: both complete on benign churn.
        assert!(t.cell(2, 2).starts_with("completed"), "{}", t.cell(2, 2));
        assert!(t.cell(3, 2).starts_with("completed"), "{}", t.cell(3, 2));
    }

    #[test]
    fn delta_is_cheaper_on_benign_churn() {
        let r = e13_quiescence_trap();
        let t = &r.tables[0];
        let delta: u64 = t.cell(2, 4).parse().unwrap();
        let flood: u64 = t.cell(3, 4).parse().unwrap();
        assert!(delta < flood, "delta {delta} vs flood {flood}");
    }
}
