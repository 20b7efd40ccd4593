//! Engine scale point: Algorithm 2 and KLO flooding on a star at
//! n = 10^6 nodes and k = 10^4 tokens.
//!
//! The workloads are the two protocols whose asymptotic separation the
//! paper proves: Algorithm 2 on a single star cluster (only the head
//! broadcasts the full set) and KLO full flooding on the same star with
//! the all-heads flat hierarchy. Both complete in a few rounds; at the
//! default point, word-packed [`hinet::sim::token::TokenSet`] unions and
//! `Arc`-shared broadcast payloads are what keep the wall time to
//! seconds. The printed times are ungated context numbers.
//!
//! Run with: `cargo run --release --example scale_point [N] [K]`
//! (defaults: N = 1000000, K = 10000).

use hinet::cluster::ctvg::{CtvgTrace, CtvgTraceProvider, FlatProvider};
use hinet::cluster::hierarchy::single_cluster;
use hinet::core::runner::{run_algorithm, AlgorithmKind};
use hinet::graph::graph::{Graph, NodeId};
use hinet::graph::trace::{StaticProvider, TvgTrace};
use hinet::sim::engine::{RunConfig, RunReport};
use hinet::sim::token::round_robin_assignment;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Round budget: both protocols finish a star in 2–3 rounds; the slack
/// only matters if a regression breaks completion, which the table then
/// shows as a non-`completed` outcome.
const BUDGET: usize = 16;

/// Algorithm 2 on one star-shaped cluster: node 0 is the head, everyone
/// else a member one hop away — the (1, L)-HiNet with the thinnest
/// possible backbone, so the run cost is dominated by the head's full-set
/// broadcast and the members' packed unions.
pub fn run_alg2_star(n: usize, k: usize) -> RunReport {
    let trace = CtvgTrace::new(
        TvgTrace::new(vec![Arc::new(Graph::star(n))]),
        vec![Arc::new(single_cluster(n, NodeId(0)))],
    );
    let mut provider = CtvgTraceProvider::new(trace);
    let assignment = round_robin_assignment(n, k);
    run_algorithm(
        &AlgorithmKind::HiNetFullExchange { rounds: BUDGET },
        &mut provider,
        &assignment,
        RunConfig::new().max_rounds(BUDGET),
    )
}

/// KLO full flooding on the same star with the flat all-heads hierarchy:
/// every informed node rebroadcasts its whole set every round, the
/// redundancy-heavy baseline the packed representation must also carry.
pub fn run_klo_flood_star(n: usize, k: usize) -> RunReport {
    let mut provider = FlatProvider::new(StaticProvider::new(Graph::star(n)));
    let assignment = round_robin_assignment(n, k);
    run_algorithm(
        &AlgorithmKind::KloFlood { rounds: BUDGET },
        &mut provider,
        &assignment,
        RunConfig::new().max_rounds(BUDGET),
    )
}

/// Wall time, rounds and traffic for each protocol at the scale point,
/// one row per protocol, each starting with its outcome.
pub fn scale_table(n: usize, k: usize) -> String {
    let mut out = format!("Engine scale point (n={n}, k={k}, star topology)\n");
    for (label, run) in [
        (
            "alg2 single-cluster",
            run_alg2_star as fn(usize, usize) -> RunReport,
        ),
        ("klo-flood flat", run_klo_flood_star),
    ] {
        let t0 = Instant::now();
        let report = run(n, k);
        let secs = t0.elapsed().as_secs_f64();
        out.push_str(&format!(
            "  {label:<22} {} in {:.2} s — {} rounds, {} tokens, {} packets\n",
            report.outcome,
            secs,
            report.rounds_executed,
            report.metrics.tokens_sent,
            report.metrics.packets_sent,
        ));
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |i: usize, default: usize| match args.get(i) {
        None => Ok(default),
        Some(v) => v.parse::<usize>().ok().filter(|&x| x > 0).ok_or(v),
    };
    match (args.len() <= 2, arg(0, 1_000_000), arg(1, 10_000)) {
        (true, Ok(n), Ok(k)) => {
            print!("{}", scale_table(n, k));
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("usage: scale_point [N] [K]  (positive integers; defaults 1000000 10000)");
            ExitCode::from(2)
        }
    }
}
