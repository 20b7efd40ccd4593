//! Wireless-sensor-field scenario: emergent clusters under mobility.
//!
//! The paper motivates communication efficiency with resource-constrained
//! WSN/MANET deployments. This example builds that scenario bottom-up: a
//! random-waypoint mobility field, a clustering protocol deriving the
//! hierarchy each round (with sticky maintenance), and four dissemination
//! algorithms racing on *identical* dynamics. No stability is constructed —
//! whatever (T, L) the trace happens to satisfy is measured and reported.
//!
//! Run with: `cargo run --release --example sensor_field`

use hinet::analysis::report::Table;
use hinet::cluster::clustering::ClusteringKind;
use hinet::cluster::ctvg::{CtvgTrace, CtvgTraceProvider, FlatProvider};
use hinet::cluster::generators::ClusteredMobilityGen;
use hinet::cluster::reaffiliation::churn_stats;
use hinet::cluster::stability::{max_hinet_t, min_hinet_l};
use hinet::core::runner::{run_algorithm, AlgorithmKind};
use hinet::graph::generators::{RandomWaypointGen, WaypointConfig};
use hinet::sim::engine::RunConfig;
use hinet::sim::token::round_robin_assignment;

fn field(seed: u64) -> RandomWaypointGen {
    RandomWaypointGen::new(
        80,
        WaypointConfig {
            radius: 0.22,
            min_speed: 0.002,
            max_speed: 0.015,
            ensure_connected: true,
        },
        seed,
    )
}

fn main() {
    let n = 80;
    let k = 10;
    let seed = 20260706;
    let assignment = round_robin_assignment(n, k);
    let rounds_budget = n - 1;

    // First, audit the emergent stability of the clustered trace.
    let mut clustered = ClusteredMobilityGen::new(field(seed), ClusteringKind::LowestId, true);
    let trace = CtvgTrace::capture(&mut clustered, rounds_budget);
    trace
        .validate()
        .expect("derived hierarchy valid every round");
    let stats = churn_stats(&trace);
    let min_l = min_hinet_l(&trace, 1);
    println!(
        "sensor field: n={n}, k={k}, {} rounds of random-waypoint mobility",
        rounds_budget
    );
    println!(
        "emergent hierarchy: θ_measured={} (distinct heads), max concurrent heads={}, \
         mean members/round={:.1}, re-affiliations/member={:.2}",
        stats.distinct_heads,
        stats.max_concurrent_heads,
        stats.mean_members,
        stats.mean_reaffiliations
    );
    println!(
        "emergent stability: largest T with (T, L)-HiNet = {:?} (L from per-round audit: {:?})",
        min_l.and_then(|l| max_hinet_t(&trace, l)),
        min_l
    );
    println!();

    // Race the algorithms on identical dynamics.
    let mut results = Table::new(
        "Dissemination on the sensor field (identical dynamics per row)",
        &["algorithm", "completed", "rounds", "tokens sent", "packets"],
    );
    let contenders: Vec<(&str, AlgorithmKind, bool)> = vec![
        (
            "Algorithm 2 over lowest-ID clusters",
            AlgorithmKind::HiNetFullExchange {
                rounds: rounds_budget,
            },
            true,
        ),
        (
            "KLO full flooding (flat)",
            AlgorithmKind::KloFlood {
                rounds: rounds_budget,
            },
            false,
        ),
        (
            "push gossip (flat)",
            AlgorithmKind::Gossip {
                rounds: rounds_budget * 4,
                seed,
            },
            false,
        ),
        (
            "k-active flooding (flat, activity=8)",
            AlgorithmKind::KActiveFlood {
                activity: 8,
                rounds: rounds_budget * 4,
            },
            false,
        ),
    ];
    for (label, kind, clustered_run) in contenders {
        let report = if clustered_run {
            let mut provider = CtvgTraceProvider::new(trace.clone());
            run_algorithm(
                &kind,
                &mut provider,
                &assignment,
                RunConfig::new().stop_on_completion(false),
            )
        } else {
            let mut provider = FlatProvider::new(field(seed));
            run_algorithm(
                &kind,
                &mut provider,
                &assignment,
                RunConfig::new().stop_on_completion(false),
            )
        };
        results.push_row(vec![
            label.into(),
            report.completed().to_string(),
            report
                .completion_round
                .map_or("—".into(), |r| r.to_string()),
            report.metrics.tokens_sent.to_string(),
            report.metrics.packets_sent.to_string(),
        ]);
    }

    // RLNC broadcasts every round until the budget ends, so it runs on
    // the same flat field but stops at completion.
    let mut coded_field = FlatProvider::new(field(seed));
    let rlnc = run_algorithm(
        &AlgorithmKind::Rlnc { k, seed },
        &mut coded_field,
        &assignment,
        RunConfig::new().max_rounds(rounds_budget),
    );
    results.push_row(vec![
        "RLNC network coding (flat)".into(),
        rlnc.completed().to_string(),
        rlnc.completion_round.map_or("—".into(), |r| r.to_string()),
        rlnc.metrics.tokens_sent.to_string(),
        rlnc.metrics.packets_sent.to_string(),
    ]);
    println!("{}", results.to_text());
    println!(
        "The cluster hierarchy cuts token traffic by suppressing member broadcasts; \
         gossip and k-active flooding trade completeness guarantees for cheapness."
    );
}
