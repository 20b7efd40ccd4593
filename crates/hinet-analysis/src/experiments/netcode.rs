//! E15 — random linear network coding vs token forwarding vs HiNet.

use super::ExperimentResult;
use crate::report::Table;
use crate::stats::Summary;
use crate::sweep::run_sweep;
use hinet_cluster::ctvg::FlatProvider;
use hinet_cluster::generators::{HiNetConfig, HiNetGen};
use hinet_core::runner::{run_algorithm, AlgorithmKind};
use hinet_graph::generators::OneIntervalGen;
use hinet_sim::engine::{CostWeights, RunConfig};
use hinet_sim::token::round_robin_assignment;

const SEEDS: [u64; 3] = [3, 17, 59];

/// E15: Haeupler–Karger-style RLNC against the paper's Algorithm 2 and the
/// flat flooding baseline, all under 1-interval-connected dynamics at the
/// same scale, in both the paper's token metric and the byte metric
/// (coded packets pay a k-bit coefficient header).
///
/// The expected shape: RLNC crushes the *token* metric (one payload per
/// packet per round instead of k), while the byte metric narrows the gap;
/// the HiNet hierarchy attacks an orthogonal axis — *who* transmits —
/// so its savings stack conceptually with coding, which the paper's
/// related-work section hints at via \[8\].
pub(crate) fn e15_network_coding() -> ExperimentResult {
    let n = 60;
    let k = 8;
    let budget = 3 * n;
    let weights = CostWeights::default();

    struct Cell {
        completed: bool,
        rounds: Option<usize>,
        tokens: u64,
        bytes: u64,
    }

    let runs: Vec<Vec<Cell>> = run_sweep(&SEEDS, 0, |&seed| {
        let assignment = round_robin_assignment(n, k);
        let mut out = Vec::new();

        // Flat flooding.
        let mut flat = FlatProvider::new(OneIntervalGen::new(n, true, n / 5, seed));
        let flood = run_algorithm(
            &AlgorithmKind::KloFlood { rounds: budget },
            &mut flat,
            &assignment,
            RunConfig::new().cost_weights(weights),
        );
        out.push(Cell {
            completed: flood.completed(),
            rounds: flood.completion_round,
            tokens: flood.metrics.tokens_sent,
            bytes: flood.total_bytes(),
        });

        // Algorithm 2 on a (1, L)-HiNet at matching scale.
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
        let alg2 = run_algorithm(
            &AlgorithmKind::HiNetFullExchange { rounds: budget },
            &mut hinet,
            &assignment,
            RunConfig::new().cost_weights(weights),
        );
        out.push(Cell {
            completed: alg2.completed(),
            rounds: alg2.completion_round,
            tokens: alg2.metrics.tokens_sent,
            bytes: alg2.total_bytes(),
        });

        // RLNC on the same flat dynamics as flooding.
        let mut flat = FlatProvider::new(OneIntervalGen::new(n, true, n / 5, seed));
        let rlnc = run_algorithm(
            &AlgorithmKind::Rlnc { k, seed },
            &mut flat,
            &assignment,
            RunConfig::new().max_rounds(budget).cost_weights(weights),
        );
        out.push(Cell {
            completed: rlnc.completed(),
            rounds: rlnc.completion_round,
            tokens: rlnc.metrics.tokens_sent,
            bytes: rlnc.total_bytes(),
        });
        out
    });

    let labels = [
        "KLO full flooding (flat)",
        "Algorithm 2 on (1, L)-HiNet",
        "RLNC network coding (flat)",
    ];
    let mut table = Table::new(
        format!(
            "Coding vs forwarding (n={n}, k={k}, 1-interval dynamics, mean over {} seeds)",
            SEEDS.len()
        ),
        &[
            "algorithm",
            "completed",
            "rounds",
            "tokens sent",
            "bytes on air",
        ],
    );
    for (i, label) in labels.iter().enumerate() {
        let all_completed = runs.iter().all(|r| r[i].completed);
        let rounds: Vec<u64> = runs
            .iter()
            .filter_map(|r| r[i].rounds.map(|x| x as u64))
            .collect();
        let tokens: Vec<u64> = runs.iter().map(|r| r[i].tokens).collect();
        let bytes: Vec<u64> = runs.iter().map(|r| r[i].bytes).collect();
        table.push_row(vec![
            (*label).into(),
            all_completed.to_string(),
            if rounds.is_empty() {
                "never".into()
            } else {
                Summary::of_u64(&rounds).cell()
            },
            Summary::of_u64(&tokens).cell(),
            Summary::of_u64(&bytes).cell(),
        ]);
    }

    ExperimentResult {
        id: "E15",
        title: "Extension — network coding (Haeupler–Karger) vs token forwarding",
        tables: vec![table],
        notes: vec![
            "RLNC sends one coded payload per node per round (vs up to k tokens), so it \
             dominates the token metric; the byte metric adds the k-bit coefficient \
             header per packet. The hierarchy's lever is orthogonal: it reduces *who* \
             transmits, not *what*."
                .into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean(cell: &str) -> f64 {
        cell.split('±').next().unwrap().trim().parse().unwrap()
    }

    #[test]
    fn all_three_complete() {
        let r = e15_network_coding();
        for row in r.tables[0].rows() {
            assert_eq!(row[1], "true", "'{}' failed", row[0]);
        }
    }

    #[test]
    fn rlnc_wins_the_token_metric() {
        let r = e15_network_coding();
        let t = &r.tables[0];
        assert!(mean(t.cell(2, 3)) < mean(t.cell(0, 3)), "RLNC vs flooding");
        assert!(mean(t.cell(2, 3)) < mean(t.cell(1, 3)), "RLNC vs Alg2");
    }

    #[test]
    fn hierarchy_beats_flooding_in_both_metrics() {
        let r = e15_network_coding();
        let t = &r.tables[0];
        assert!(mean(t.cell(1, 3)) < mean(t.cell(0, 3)), "tokens");
        assert!(mean(t.cell(1, 4)) < mean(t.cell(0, 4)), "bytes");
    }
}
