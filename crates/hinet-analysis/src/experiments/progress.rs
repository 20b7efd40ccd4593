//! E16 — dissemination progress curves (informed nodes per round).

use super::ExperimentResult;
use crate::report::Table;
use hinet_cluster::ctvg::FlatProvider;
use hinet_cluster::generators::{HiNetConfig, HiNetGen};
use hinet_core::runner::{run_algorithm, AlgorithmKind};
use hinet_graph::generators::OneIntervalGen;
use hinet_sim::engine::{RunConfig, RunReport};
use hinet_sim::token::round_robin_assignment;

/// E16: the per-round progress "figure" — how many nodes hold all `k`
/// tokens at the start of each round, for the (1, L) scenario pair plus
/// gossip, on comparable dynamics.
///
/// The shapes tell the mechanism story: flooding and Algorithm 2 are
/// S-curves completing in a handful of rounds (Algorithm 2's curve tracks
/// flooding at a fraction of the traffic since only the backbone speaks);
/// gossip's curve has a long stochastic tail.
pub(crate) fn e16_progress_curves() -> ExperimentResult {
    let n = 50;
    let k = 6;
    let seed = 12;
    let budget = 3 * n;
    let assignment = round_robin_assignment(n, k);

    let mut runs: Vec<(&'static str, RunReport)> = Vec::new();

    let mut flat = FlatProvider::new(OneIntervalGen::new(n, true, n / 5, seed));
    runs.push((
        "klo-flood",
        run_algorithm(
            &AlgorithmKind::KloFlood { rounds: budget },
            &mut flat,
            &assignment,
            RunConfig::new().record_rounds(true),
        ),
    ));

    let mut hinet = HiNetGen::new(HiNetConfig {
        n,
        num_heads: n / 6,
        theta: n / 3,
        l: 2,
        t: 1,
        reaffil_prob: 0.2,
        rotate_heads: true,
        noise_edges: n / 5,
        seed,
    });
    runs.push((
        "alg2-hinet",
        run_algorithm(
            &AlgorithmKind::HiNetFullExchange { rounds: budget },
            &mut hinet,
            &assignment,
            RunConfig::new().record_rounds(true),
        ),
    ));

    let mut flat = FlatProvider::new(OneIntervalGen::new(n, true, n / 5, seed));
    runs.push((
        "gossip",
        run_algorithm(
            &AlgorithmKind::Gossip {
                rounds: budget,
                seed,
            },
            &mut flat,
            &assignment,
            RunConfig::new().record_rounds(true),
        ),
    ));

    let max_rounds = runs
        .iter()
        .map(|(_, r)| r.metrics.rounds.len())
        .max()
        .unwrap_or(0);
    let mut table = Table::new(
        format!("Informed nodes at round start (n={n}, k={k}); '-' = already finished"),
        &["round", "klo-flood", "alg2-hinet", "gossip"],
    );
    for round in 0..max_rounds {
        let mut row = vec![round.to_string()];
        for (_, r) in &runs {
            row.push(
                r.metrics
                    .rounds
                    .get(round)
                    .map_or("-".into(), |m| m.informed_nodes.to_string()),
            );
        }
        table.push_row(row);
    }

    let notes = runs
        .iter()
        .map(|(label, r)| {
            format!(
                "{label}: completed in {} rounds, {} tokens sent",
                r.completion_round.map_or(0, |x| x),
                r.metrics.tokens_sent
            )
        })
        .collect();

    ExperimentResult {
        id: "E16",
        title: "Figure — dissemination progress curves",
        tables: vec![table],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curves_are_monotone_and_terminal() {
        let r = e16_progress_curves();
        let t = &r.tables[0];
        for col in 1..=3 {
            let mut prev = 0i64;
            for row in t.rows() {
                let cell = &row[col];
                if cell == "-" {
                    continue;
                }
                let v: i64 = cell.parse().unwrap();
                assert!(v >= prev, "column {col} not monotone: {v} < {prev}");
                prev = v;
            }
        }
        assert!(r.notes.iter().all(|n| n.contains("completed")));
    }

    #[test]
    fn deterministic_algorithms_start_uninformed() {
        let r = e16_progress_curves();
        let t = &r.tables[0];
        // Round 0: nobody holds all k tokens (k > 1 spread round-robin).
        assert_eq!(t.cell(0, 1), "0");
        assert_eq!(t.cell(0, 2), "0");
    }
}
