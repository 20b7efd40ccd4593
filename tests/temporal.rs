//! Temporal-reachability integration: the foremost-journey reference in
//! tests/common/ must agree with what the simulator actually achieves —
//! full flooding of a single source is *optimal*, completing exactly at
//! the flooding makespan.

mod common;

use common::flooding_makespan;
use hinet::cluster::ctvg::FlatProvider;
use hinet::core::runner::{run_algorithm, AlgorithmKind};
use hinet::graph::generators::{ManhattanConfig, ManhattanGen, OneIntervalGen};
use hinet::graph::graph::NodeId;
use hinet::graph::trace::{TraceProvider, TvgTrace};
use hinet::sim::engine::RunConfig;
use hinet::sim::token::single_source_assignment;

#[test]
fn flooding_completes_exactly_at_the_makespan() {
    let n = 30;
    for seed in 0..5u64 {
        let mut gen = OneIntervalGen::new(n, true, n / 6, seed);
        let trace = TvgTrace::capture(&mut gen, 3 * n);
        let makespan =
            flooding_makespan(&trace, NodeId(0), 0).expect("connected dynamics must deliver");

        let mut provider = FlatProvider::new(TraceProvider::new(trace));
        let assignment = single_source_assignment(n, 1, 0);
        let report = run_algorithm(
            &AlgorithmKind::KloFlood { rounds: 3 * n },
            &mut provider,
            &assignment,
            RunConfig::default(),
        );
        assert_eq!(
            report.completion_round,
            Some(makespan),
            "seed {seed}: flooding must achieve the foremost-journey bound"
        );
    }
}

#[test]
fn no_algorithm_beats_the_makespan() {
    // The makespan is a lower bound for *any* dissemination algorithm:
    // check a few against it.
    let n = 24;
    let seed = 11;
    let mut gen = OneIntervalGen::new(n, false, n / 5, seed);
    let trace = TvgTrace::capture(&mut gen, 3 * n);
    let makespan = flooding_makespan(&trace, NodeId(0), 0).unwrap();
    let assignment = single_source_assignment(n, 1, 0);

    for kind in [
        AlgorithmKind::KloFlood { rounds: 3 * n },
        AlgorithmKind::DeltaFlood { rounds: 3 * n },
        AlgorithmKind::Gossip {
            rounds: 3 * n,
            seed,
        },
        AlgorithmKind::KActiveFlood {
            activity: n,
            rounds: 3 * n,
        },
    ] {
        let mut provider = FlatProvider::new(TraceProvider::new(trace.clone()));
        let report = run_algorithm(&kind, &mut provider, &assignment, RunConfig::default());
        if let Some(c) = report.completion_round {
            assert!(
                c >= makespan,
                "{}: completed in {c} < makespan {makespan}",
                kind.label()
            );
        }
    }
}

#[test]
fn manhattan_mobility_supports_flooding() {
    let n = 40;
    let mut gen = ManhattanGen::new(
        n,
        ManhattanConfig {
            streets: 5,
            radius: 0.3,
            speed_blocks: 0.25,
            ensure_connected: true,
        },
        7,
    );
    let trace = TvgTrace::capture(&mut gen, 4 * n);
    let makespan = flooding_makespan(&trace, NodeId(0), 0).expect("patched city is connected");
    assert!(makespan < n, "connected per round ⇒ ≤ n−1 rounds");

    let mut provider = FlatProvider::new(TraceProvider::new(trace));
    let assignment = single_source_assignment(n, 3, 0);
    let report = run_algorithm(
        &AlgorithmKind::KloFlood { rounds: n - 1 },
        &mut provider,
        &assignment,
        RunConfig::default(),
    );
    assert!(report.completed());
    assert_eq!(report.completion_round, Some(makespan));
}

#[test]
fn rlnc_cannot_beat_makespan_either() {
    let n = 20;
    let seed = 3;
    let mut gen = OneIntervalGen::new(n, true, 4, seed);
    let trace = TvgTrace::capture(&mut gen, 4 * n);
    let makespan = flooding_makespan(&trace, NodeId(0), 0).unwrap();
    let assignment = single_source_assignment(n, 4, 0);
    let mut provider = FlatProvider::new(TraceProvider::new(trace));
    let report = run_algorithm(
        &AlgorithmKind::Rlnc { k: 4, seed },
        &mut provider,
        &assignment,
        RunConfig::new().max_rounds(4 * n),
    );
    assert!(report.completed());
    assert!(report.completion_round.unwrap() >= makespan);
}
