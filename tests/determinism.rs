//! Golden-value determinism tests.
//!
//! These pin the *exact* outputs of the runtime RNG and one small topology
//! per dynamic-graph generator under fixed seeds. Every simulation result in
//! the repo derives from these streams, so any change here silently
//! invalidates previously recorded experiment numbers — the pinned constants
//! make such a change loud instead. If you intentionally change the RNG or a
//! generator, re-pin the constants and say so in the changelog.

use hinet::graph::generators::{
    BackboneKind, EdgeMarkovianGen, ManhattanConfig, ManhattanGen, OneIntervalGen,
    RandomWaypointGen, TIntervalGen, WaypointConfig,
};
use hinet::graph::trace::TopologyProvider;
use hinet::rt::rng::{mix, stream_rng, Rng};

/// Order-sensitive fingerprint of the first `rounds` snapshots: folds every
/// edge (in canonical iteration order) and each round boundary through
/// [`mix`].
fn trace_fingerprint(gen: &mut impl TopologyProvider, rounds: usize) -> u64 {
    let mut h = 0u64;
    for r in 0..rounds {
        let g = gen.graph_at(r);
        h = mix(h, r as u64);
        for e in g.edges() {
            h = mix(h, mix(e.a.index() as u64, e.b.index() as u64));
        }
        h = mix(h, g.m() as u64);
    }
    h
}

#[test]
fn mix_golden_values() {
    assert_eq!(mix(0, 0), 16294208416658607535);
    assert_eq!(mix(1, 2), 12739255125256291016);
    assert_eq!(mix(0xdead, 0xbeef), 15042422062510784763);
}

#[test]
fn stream_rng_golden_values() {
    let mut rng = stream_rng(42, 7);
    let got: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
    assert_eq!(
        got,
        vec![
            10066196846854335129,
            7716365077747218512,
            9638858246930882768,
            17120809694554549855,
        ]
    );
}

#[test]
fn emdg_trace_pinned() {
    let mut g = EdgeMarkovianGen::new(10, 0.3, 0.2, 0.4, true, 11);
    assert_eq!(trace_fingerprint(&mut g, 4), 1006585252811332705);
}

#[test]
fn waypoint_trace_pinned() {
    let mut g = RandomWaypointGen::new(10, WaypointConfig::default(), 11);
    assert_eq!(trace_fingerprint(&mut g, 4), 8165409159853772587);
}

#[test]
fn manhattan_trace_pinned() {
    let mut g = ManhattanGen::new(10, ManhattanConfig::default(), 11);
    assert_eq!(trace_fingerprint(&mut g, 4), 9244544671609711087);
}

#[test]
fn t_interval_trace_pinned() {
    let mut g = TIntervalGen::new(10, 3, BackboneKind::Path, 2, 11);
    assert_eq!(trace_fingerprint(&mut g, 4), 16137118838028669360);
}

#[test]
fn one_interval_trace_pinned() {
    let mut g = OneIntervalGen::new(10, true, 2, 11);
    assert_eq!(trace_fingerprint(&mut g, 4), 7670319638537066078);
}

#[test]
fn fingerprints_are_seed_sensitive() {
    let fp = |seed| trace_fingerprint(&mut OneIntervalGen::new(10, true, 2, seed), 4);
    assert_ne!(fp(11), fp(12));
    assert_eq!(fp(11), fp(11));
}

/// A seeded traced run is deterministic: two identical runs emit identical
/// event streams, and the tracer's exact counters agree with the engine's
/// own `RunReport` accounting (the acceptance contract of `hinet trace`).
#[test]
fn traced_run_event_stream_is_deterministic() {
    use hinet::cluster::generators::{HiNetConfig, HiNetGen};
    use hinet::core::params::alg1_plan;
    use hinet::core::runner::{run_algorithm, AlgorithmKind};
    use hinet::rt::obs::{ObsConfig, TraceSummary, Tracer};
    use hinet::sim::engine::RunConfig;
    use hinet::sim::token::round_robin_assignment;

    let (n, k, alpha, l, theta, seed) = (40, 4, 2, 2, 12, 11);
    let plan = alg1_plan(k, alpha, l, theta);
    let run = || {
        let mut provider = HiNetGen::new(HiNetConfig {
            n,
            num_heads: theta / 2,
            theta,
            l,
            t: plan.rounds_per_phase,
            reaffil_prob: 0.15,
            rotate_heads: true,
            noise_edges: n / 5,
            seed,
        });
        let mut tracer = Tracer::new(ObsConfig::full());
        let assignment = round_robin_assignment(n, k);
        let report = run_algorithm(
            &AlgorithmKind::HiNetPhased(plan),
            &mut provider,
            &assignment,
            RunConfig::new()
                .max_rounds(plan.total_rounds())
                .tracer(&mut tracer),
        );
        (tracer, report)
    };

    let (t1, r1) = run();
    let (t2, r2) = run();
    assert!(t1.events().eq(t2.events()), "event streams differ");
    assert_eq!(r1.rounds_executed, r2.rounds_executed);

    // Tracer totals match the engine's report exactly.
    let c = t1.counters();
    assert_eq!(c.rounds, r1.rounds_executed as u64);
    assert_eq!(c.tokens_sent, r1.metrics.tokens_sent);
    assert_eq!(c.packets_sent, r1.metrics.packets_sent);
    assert_eq!(c.tokens_by_role, r1.metrics.tokens_by_role);
    assert_eq!(c.bytes_sent, r1.total_bytes());

    // Per-phase round counts in the summary add up to the rounds executed.
    let summary = TraceSummary::from_tracer(&t1);
    let phase_sum: u64 = summary.per_phase_rounds.iter().sum();
    assert_eq!(phase_sum, r1.rounds_executed as u64);

    // And the stream survives a JSONL round-trip byte-for-byte.
    let parsed = hinet::rt::obs::ParsedTrace::parse_jsonl(&t1.to_jsonl()).unwrap();
    assert_eq!(parsed.events.len(), t1.len());
    assert_eq!(TraceSummary::from_trace(&parsed), summary);
}
