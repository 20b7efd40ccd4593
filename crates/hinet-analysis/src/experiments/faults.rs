//! E17 — graceful degradation under message loss: Algorithm 2 (with ARQ
//! retransmission) vs KLO full flooding vs RLNC on the same lossy channel.

use super::ExperimentResult;
use crate::report::Table;
use hinet_cluster::ctvg::FlatProvider;
use hinet_cluster::generators::{HiNetConfig, HiNetGen};
use hinet_core::runner::{run_algorithm, AlgorithmKind};
use hinet_graph::generators::OneIntervalGen;
use hinet_sim::engine::RunConfig;
use hinet_sim::fault::FaultPlan;
use hinet_sim::token::round_robin_assignment;

/// Dynamics seed (matches the E15 family) and fault-plane seed. Both are
/// pinned: the whole experiment replays exactly.
const SEED: u64 = 17;
const FAULT_SEED: u64 = 7;

/// Per-delivery loss rates swept, in parts per million.
const LOSS_PPM: [u32; 3] = [0, 50_000, 100_000];

/// E17: how each dissemination strategy degrades when the per-round
/// delivery assumption (stability Definition 1) is violated by seeded
/// i.i.d. message loss.
///
/// The three rows stress three different robustness mechanisms:
/// full flooding survives by blind redundancy (every neighbour repeats
/// everything, so a dropped copy is re-offered next round); Algorithm 2
/// has no redundancy — members send their TA once — so it needs the
/// explicit ARQ retransmission wrapper to complete (`retransmits` counts
/// the extra sends the recovery costs); RLNC survives because any
/// innovative coded packet replaces any other, making individual losses
/// fungible. Losses are charged to the sender (the packet was on the air),
/// so the `tokens sent` column shows what the channel consumed, not what
/// arrived.
pub(crate) fn e17_loss_resilience() -> ExperimentResult {
    let n = 60;
    let k = 8;
    let budget = 3 * n;
    let assignment = round_robin_assignment(n, k);

    let mut table = Table::new(
        format!(
            "Degradation under message loss (n={n}, k={k}, 1-interval dynamics, \
             fault seed {FAULT_SEED})"
        ),
        &[
            "loss",
            "algorithm",
            "outcome",
            "rounds",
            "tokens sent",
            "drops",
            "retransmits",
        ],
    );

    for ppm in LOSS_PPM {
        let faults = FaultPlan::new(FAULT_SEED).with_loss_ppm(ppm);
        let loss_label = format!("{}%", ppm as f64 / 10_000.0);

        // KLO full flooding on flat 1-interval dynamics. Flooding has no
        // ACK to wait on, so the retransmission wrapper does not apply —
        // its redundancy *is* the recovery mechanism.
        let mut flat = FlatProvider::new(OneIntervalGen::new(n, true, n / 5, SEED));
        let flood = run_algorithm(
            &AlgorithmKind::KloFlood { rounds: budget },
            &mut flat,
            &assignment,
            RunConfig::new().faults(faults.clone()),
        );
        table.push_row(vec![
            loss_label.clone(),
            "klo-flood".into(),
            flood.outcome.to_string(),
            flood
                .completion_round
                .map_or("never".into(), |r| r.to_string()),
            flood.metrics.tokens_sent.to_string(),
            flood.metrics.faults_injected.to_string(),
            flood.metrics.retransmits.to_string(),
        ]);

        // Algorithm 2 on a (1, L)-HiNet. The 0% row runs the protocol as
        // published (assumptions hold, no wrapper); lossy rows arm the ARQ
        // wrapper, whose re-pushes also fire while a member merely *waits*
        // for the head's echo — the retransmit count is the full price of
        // not trusting the channel, not just the lost packets replayed.
        let retransmit = ppm > 0;
        let mut hinet = HiNetGen::new(HiNetConfig {
            n,
            num_heads: n / 6,
            theta: n / 3,
            l: 2,
            t: 1,
            reaffil_prob: 0.2,
            rotate_heads: true,
            noise_edges: n / 5,
            seed: SEED,
        });
        let alg2 = run_algorithm(
            &AlgorithmKind::HiNetFullExchange { rounds: budget },
            &mut hinet,
            &assignment,
            RunConfig::new()
                .faults(faults.clone())
                .retransmit(retransmit),
        );
        table.push_row(vec![
            loss_label.clone(),
            if retransmit {
                "alg2 + retransmit".into()
            } else {
                "alg2".into()
            },
            alg2.outcome.to_string(),
            alg2.completion_round
                .map_or("never".into(), |r| r.to_string()),
            alg2.metrics.tokens_sent.to_string(),
            alg2.metrics.faults_injected.to_string(),
            alg2.metrics.retransmits.to_string(),
        ]);

        // RLNC on the same flat dynamics: coding redundancy is its only
        // recovery mechanism.
        let mut flat = FlatProvider::new(OneIntervalGen::new(n, true, n / 5, SEED));
        let rlnc = run_algorithm(
            &AlgorithmKind::Rlnc { k, seed: SEED },
            &mut flat,
            &assignment,
            RunConfig::new().max_rounds(budget).faults(faults.clone()),
        );
        table.push_row(vec![
            loss_label.clone(),
            "rlnc".into(),
            rlnc.outcome.to_string(),
            rlnc.completion_round
                .map_or("never".into(), |r| r.to_string()),
            rlnc.metrics.tokens_sent.to_string(),
            rlnc.metrics.faults_injected.to_string(),
            rlnc.metrics.retransmits.to_string(),
        ]);
    }

    ExperimentResult {
        id: "E17",
        title: "Robustness — graceful degradation under message loss",
        tables: vec![table],
        notes: vec![
            "Flooding and RLNC absorb loss through redundancy (every neighbour \
             repeats / any innovative packet substitutes); Algorithm 2 sends each \
             TA exactly once, so without --retransmit a single dropped member push \
             can stall the cluster forever. The ARQ wrapper restores completion at \
             the price of the retransmit count shown."
                .into(),
            "Same fault seed → same drop schedule → identical counters on every \
             rerun; the table is a fixed point of `hinet exp E17`."
                .into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_loss_rows_are_fault_free_and_complete() {
        let r = e17_loss_resilience();
        let t = &r.tables[0];
        for row in 0..3 {
            assert!(
                t.cell(row, 2).starts_with("completed"),
                "row {row}: {}",
                t.cell(row, 2)
            );
            assert_eq!(t.cell(row, 5), "0", "row {row} injected faults at 0 loss");
            assert_eq!(t.cell(row, 6), "0", "row {row} retransmitted at 0 loss");
        }
    }

    #[test]
    fn all_three_strategies_complete_under_five_percent_loss() {
        let r = e17_loss_resilience();
        let t = &r.tables[0];
        for row in 3..6 {
            assert!(
                t.cell(row, 2).starts_with("completed"),
                "{} at {} loss: {}",
                t.cell(row, 1),
                t.cell(row, 0),
                t.cell(row, 2)
            );
            let drops: u64 = t.cell(row, 5).parse().unwrap();
            assert!(drops > 0, "row {row}: lossy run injected no faults");
        }
    }

    #[test]
    fn alg2_recovery_costs_retransmissions_under_loss() {
        let r = e17_loss_resilience();
        let t = &r.tables[0];
        // Rows 4 and 7 are the alg2 rows at 5% and 10% loss.
        for row in [4, 7] {
            let retransmits: u64 = t.cell(row, 6).parse().unwrap();
            assert!(retransmits > 0, "row {row}: ARQ never fired under loss");
        }
    }

    #[test]
    fn the_experiment_is_deterministic() {
        let a = e17_loss_resilience();
        let b = e17_loss_resilience();
        assert_eq!(a.tables[0].to_text(), b.tables[0].to_text());
    }
}
