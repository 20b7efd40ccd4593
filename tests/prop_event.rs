//! Property suite for the event-driven mailbox runtime, on the seeded
//! `hinet_rt::check` harness (replay any failure with
//! `HINET_CHECK_SEED=<seed printed on failure>`).
//!
//! Six contracts: (a) an event-mode run of any engine scenario produces
//! the same dissemination result (completion round, outcome, paper
//! metrics) as the lock-step engine, across worker counts; (b) the trace
//! is byte-identical between the modes — events and header counters; only
//! the `mode` meta stamp differs; (c) an event-mode run replays
//! byte-for-byte under the same seeds at any worker count; (d) the
//! equivalence survives the whole fault and delivery plane — loss,
//! crashes (including the crash-mid-round edge case where a node restarts
//! while its neighbours' round messages are already queued), delay,
//! duplication, reorder and the reliability layer — for every algorithm,
//! RLNC included; (e) a `Reassembly` fed any arrival permutation releases
//! the inbox in lock-step `(sender, seq)` order; (f) the runtime (T, L)
//! stability oracle verifies the same rounds in both modes — same
//! verdicts, same stream summary, same outcome.

mod common;

use common::scenario;
use hinet::rt::check::check;
use hinet::rt::obs::{ObsConfig, ParsedTrace, Tracer};
use hinet::scenario::Scenario;
use hinet_graph::graph::NodeId;
use hinet_sim::transport::{Envelope, EnvelopeKind, Reassembly, Released};
use hinet_sim::{ExecMode, Outcome, Partition};

/// Record a scenario's trace artifact and engine report.
fn record(sc: &Scenario) -> (hinet_sim::RunReport, String) {
    record_with_oracle(sc, false)
}

/// [`record`], with the runtime stability oracle toggled.
fn record_with_oracle(sc: &Scenario, oracle: bool) -> (hinet_sim::RunReport, String) {
    let mut tracer = Tracer::new(ObsConfig::full());
    let report = sc
        .run_traced_with_oracle(&mut tracer, oracle)
        .expect("scenario must run");
    (report, tracer.to_jsonl())
}

/// One partition cutting the nodes in half from round `start` to the end
/// of a `budget`-round run, if `start` is given.
fn half_cut(start: Option<usize>, n: usize, budget: usize) -> Vec<Partition> {
    start
        .map(|start| Partition {
            start,
            end: budget,
            cut: n / 2,
        })
        .into_iter()
        .collect()
}

/// Assert two reports describe the same dissemination (everything except
/// wall-clock, which is genuinely nondeterministic).
fn assert_same_result(lock: &hinet_sim::RunReport, event: &hinet_sim::RunReport) {
    assert_eq!(event.completion_round, lock.completion_round);
    assert_eq!(event.rounds_executed, lock.rounds_executed);
    assert_eq!(event.outcome, lock.outcome);
    let (e, l) = (&event.metrics, &lock.metrics);
    assert_eq!(e.tokens_sent, l.tokens_sent);
    assert_eq!(e.packets_sent, l.packets_sent);
    assert_eq!(e.tokens_by_role, l.tokens_by_role);
    assert_eq!(e.coefficient_bytes, l.coefficient_bytes);
    assert_eq!(e.dropped_unicasts, l.dropped_unicasts);
    assert_eq!(e.faults_injected, l.faults_injected);
    assert_eq!(e.crashes, l.crashes);
    assert_eq!(e.recoveries, l.recoveries);
    assert_eq!(e.retransmits, l.retransmits);
    assert_eq!(e.delays_injected, l.delays_injected);
    assert_eq!(e.duplicates_injected, l.duplicates_injected);
    assert_eq!(e.dups_discarded, l.dups_discarded);
    assert_eq!(e.retransmit_timeouts, l.retransmit_timeouts);
}

/// Assert two traces are identical apart from event mode's `mode` meta
/// stamp: every event line, every header counter, every other stamp.
fn assert_same_trace(lock: &str, event: &str) {
    let lock_events: Vec<&str> = lock.lines().skip(1).collect();
    let event_events: Vec<&str> = event.lines().skip(1).collect();
    assert_eq!(event_events, lock_events, "event stream must match");
    let l = ParsedTrace::parse_jsonl(lock).expect("lock-step trace parses");
    let e = ParsedTrace::parse_jsonl(event).expect("event trace parses");
    assert_eq!(e.counters, l.counters, "header counters must match");
    assert_eq!(e.meta_get("mode"), Some("event"));
    let meta: Vec<_> = e
        .meta
        .iter()
        .filter(|(k, _)| k != "mode")
        .cloned()
        .collect();
    assert_eq!(meta, l.meta, "only the mode stamp may differ");
}

/// (a)+(b) Clean scenarios: same result, byte-identical event stream.
#[test]
fn event_mode_matches_lockstep_on_clean_scenarios() {
    check("event_matches_lockstep_clean", 10, |ctx| {
        let &algorithm = ctx.pick(&["alg1", "alg2", "klo-flood", "gossip", "delta"]);
        let &dynamics = ctx.pick(&["hinet", "flat-t", "flat-1"]);
        let &seed = ctx.pick(&[1u64, 42, 977]);
        let &n = ctx.pick(&[12usize, 20]);
        let sc = scenario(algorithm, dynamics, n, 3, seed);
        let (lock, lock_trace) = record(&sc);
        let (event, event_trace) = record(&Scenario {
            mode: ExecMode::Event,
            ..sc
        });
        assert_same_result(&lock, &event);
        assert_same_trace(&lock_trace, &event_trace);
    });
}

/// (c) Event-mode runs replay byte-for-byte: neither the worker count nor
/// worker interleaving may leak into the artifact.
#[test]
fn event_mode_replays_byte_identically() {
    use hinet_core::runner::run_algorithm;
    use hinet_sim::engine::RunConfig;
    use hinet_sim::token::round_robin_assignment;

    check("event_replays_identically", 8, |ctx| {
        let &algorithm = ctx.pick(&["alg2", "klo-flood", "kactive", "rlnc"]);
        let &seed = ctx.pick(&[3u64, 11, 29]);
        let &loss_ppm = ctx.pick(&[0u32, 50_000]);
        let sc = Scenario {
            loss_ppm,
            fault_seed: seed,
            ..scenario(algorithm, "hinet", 16, 3, seed)
        };
        let run = |threads: usize| {
            let kind = sc.kind().expect("known algorithm");
            let mut provider = sc.provider(&kind).expect("known dynamics");
            let mut tracer = Tracer::new(ObsConfig::full());
            run_algorithm(
                &kind,
                provider.as_mut(),
                &round_robin_assignment(sc.n, sc.k),
                RunConfig::new()
                    .max_rounds(sc.budget)
                    .faults(sc.fault_plan())
                    .mode(ExecMode::Event)
                    .threads(threads)
                    .tracer(&mut tracer),
            );
            tracer.to_jsonl()
        };
        let &threads = ctx.pick(&[1usize, 2, 8]);
        let first = run(threads);
        assert_eq!(first, run(threads), "same scenario, same bytes");
        let &other = ctx.pick(&[1usize, 2, 8]);
        assert_eq!(first, run(other), "{threads} vs {other} workers");
    });
}

/// (d) One delivery plane for both drivers: loss, scheduled crashes
/// (including mid-flood, with queued neighbour traffic), delay,
/// duplication, reorder and the reliability layer all preserve the
/// lock-step result — events and counters byte for byte.
#[test]
fn event_mode_matches_lockstep_under_faults() {
    check("event_matches_lockstep_faulted", 16, |ctx| {
        let &(algorithm, dynamics) = ctx.pick(&[
            ("alg1", "hinet"),
            ("alg2", "hinet"),
            ("klo-flood", "hinet"),
            ("rlnc", "flat-1"),
        ]);
        let &seed = ctx.pick(&[1u64, 7, 19]);
        let &loss_ppm = ctx.pick(&[0u32, 30_000, 80_000]);
        let &crash = ctx.pick(&[None, Some((1usize, 0usize)), Some((2, 3)), Some((1, 5))]);
        let &down_rounds = ctx.pick(&[1usize, 2]);
        let &durable = ctx.pick(&[false, true]);
        let &(delay_ppm, max_delay) = ctx.pick(&[(0u32, 1usize), (60_000, 3)]);
        let &dup_ppm = ctx.pick(&[0u32, 50_000]);
        let &reorder = ctx.pick(&[false, true]);
        let reliable = (loss_ppm > 0 || delay_ppm > 0) && *ctx.pick(&[false, true]);
        // Drawn last so the earlier draws replay: a cut that can start
        // after a round-1 crash.
        let &partition = ctx.pick(&[None, Some(2usize), Some(3)]);
        let base = scenario(algorithm, dynamics, 14, 3, seed);
        let budget = 2 * base.budget;
        let sc = Scenario {
            partitions: half_cut(partition, base.n, budget),
            loss_ppm,
            crash_at: crash.into_iter().collect(),
            durable_tokens: durable && crash.is_some(),
            down_rounds,
            delay_ppm,
            max_delay,
            dup_ppm,
            reorder,
            reliable,
            fault_seed: seed.wrapping_mul(3) + 1,
            budget,
            ..base
        };
        let (lock, lock_trace) = record(&sc);
        let (event, event_trace) = record(&Scenario {
            mode: ExecMode::Event,
            ..sc
        });
        assert_same_result(&lock, &event);
        assert_same_trace(&lock_trace, &event_trace);
    });
}

/// (e) Reassembly order-independence: whatever order a round's envelopes
/// arrive in, the released inbox is sorted by `(sender, seq)` — the exact
/// inbox the lock-step engine builds by iterating senders in id order.
#[test]
fn round_buffer_releases_lockstep_order_under_any_arrival_permutation() {
    check("round_buffer_permutation", 16, |ctx| {
        let &senders = ctx.pick(&[2usize, 5, 9]);
        let round = *ctx.pick(&[0usize, 3]);
        // Two payload envelopes per sender plus its end-of-round marker.
        let mut envelopes: Vec<Envelope> = (0..senders)
            .flat_map(|s| {
                let from = NodeId::from_index(s);
                [
                    Envelope {
                        round,
                        from,
                        to: NodeId::from_index(senders),
                        seq: 0,
                        kind: EnvelopeKind::Payload {
                            payload: hinet_sim::protocol::Payload::One(hinet_sim::TokenId(
                                s as u64,
                            )),
                            directed: false,
                            rid: 0,
                        },
                    },
                    Envelope {
                        round,
                        from,
                        to: NodeId::from_index(senders),
                        seq: 1,
                        kind: EnvelopeKind::Payload {
                            payload: hinet_sim::protocol::Payload::One(hinet_sim::TokenId(
                                (s + senders) as u64,
                            )),
                            directed: true,
                            rid: 0,
                        },
                    },
                    Envelope {
                        round,
                        from,
                        to: NodeId::from_index(senders),
                        seq: u32::MAX,
                        kind: EnvelopeKind::RoundDone { ack: 0 },
                    },
                ]
            })
            .collect();
        // A seeded Fisher-Yates shuffle driven by the case context.
        for i in (1..envelopes.len()).rev() {
            let j = *ctx.pick(&(0..=i).collect::<Vec<_>>());
            envelopes.swap(i, j);
        }
        let mut reasm = Reassembly::new(1);
        let mut markers = 0usize;
        for env in &envelopes {
            // Quorum gating depends only on end-of-round markers received.
            assert_eq!(reasm.ready(0, round, senders), markers == senders);
            if matches!(env.kind, EnvelopeKind::RoundDone { .. }) {
                markers += 1;
            }
            reasm.file(0, env.clone());
        }
        assert!(reasm.ready(0, round, senders));
        let mut released = Released::default();
        reasm.take(0, round, &mut released);
        let inbox = released.inbox;
        assert_eq!(inbox.len(), 2 * senders);
        for (i, msg) in inbox.iter().enumerate() {
            assert_eq!(msg.from, NodeId::from_index(i / 2), "sender-major order");
            let tok = msg.payload.first().expect("one-token payloads").0 as usize;
            let expected = if i % 2 == 0 { i / 2 } else { i / 2 + senders };
            assert_eq!(tok, expected, "per-sender seq order");
            assert_eq!(msg.directed, i % 2 == 1);
        }
    });
}

/// A crash in the round before a partition starts: both modes report the
/// same fault window, running forward from the crash round. Folding the
/// delivery faults of every round before the crash rounds would report
/// this run's window as `3..=1`.
#[test]
fn fault_window_matches_lockstep_when_a_crash_precedes_a_partition() {
    let n = 40;
    let sc = Scenario {
        n,
        k: 4,
        theta: n / 3,
        crash_at: vec![(1, 0)],
        down_rounds: 99,
        partitions: vec![Partition {
            start: 3,
            end: 200,
            cut: 20,
        }],
        budget: 30,
        ..Scenario::defaults()
    };
    let (lock, _) = record(&sc);
    let (event, _) = record(&Scenario {
        mode: ExecMode::Event,
        ..sc
    });
    assert_eq!(
        lock.outcome,
        Outcome::AssumptionViolated {
            window: (1, 29),
            def: 2
        }
    );
    assert_same_result(&lock, &event);
}

/// (f) The stability oracle runs in both modes and sees the same rounds:
/// under crashes (long ones included), loss and partitions, the outcome,
/// the stream summary and every `stability_window` line match lock-step.
#[test]
fn event_mode_matches_lockstep_with_the_stability_oracle() {
    check("event_matches_lockstep_oracle", 12, |ctx| {
        let &algorithm = ctx.pick(&["alg1", "alg2", "klo-flood"]);
        let &seed = ctx.pick(&[1u64, 7, 19]);
        let &crash = ctx.pick(&[(1usize, 0usize), (2, 0), (1, 5)]);
        let &down_rounds = ctx.pick(&[2usize, 99]);
        let &loss_ppm = ctx.pick(&[0u32, 50_000]);
        let &partition = ctx.pick(&[None, Some(2usize), Some(3)]);
        let base = scenario(algorithm, "hinet", 14, 3, seed);
        let sc = Scenario {
            crash_at: vec![crash],
            down_rounds,
            loss_ppm,
            partitions: half_cut(partition, base.n, base.budget),
            fault_seed: seed + 1,
            ..base
        };
        let (lock, lock_trace) = record_with_oracle(&sc, true);
        let (event, event_trace) = record_with_oracle(
            &Scenario {
                mode: ExecMode::Event,
                ..sc
            },
            true,
        );
        assert!(lock.stability.is_some(), "the oracle was configured");
        assert_eq!(event.stability, lock.stability);
        assert_same_result(&lock, &event);
        assert_same_trace(&lock_trace, &event_trace);
    });
}

/// The equivalence also holds when the engine is forced to specific
/// worker counts (1 serialises everything; 4 oversubscribes the small n).
#[test]
fn event_mode_matches_lockstep_across_worker_counts() {
    use hinet_cluster::generators::{HiNetConfig, HiNetGen};
    use hinet_core::runner::{run_algorithm, AlgorithmKind};
    use hinet_sim::engine::RunConfig;
    use hinet_sim::token::round_robin_assignment;

    check("event_worker_counts", 6, |ctx| {
        let &seed = ctx.pick(&[2u64, 8, 21]);
        let &threads = ctx.pick(&[1usize, 2, 4]);
        let n = 15;
        let provider = || {
            HiNetGen::new(HiNetConfig {
                n,
                num_heads: 3,
                theta: 5,
                l: 2,
                t: 1,
                reaffil_prob: 0.1,
                rotate_heads: true,
                noise_edges: n / 5,
                seed,
            })
        };
        let kind = AlgorithmKind::HiNetFullExchange { rounds: 3 * n };
        let assignment = round_robin_assignment(n, 4);
        let lock = run_algorithm(&kind, &mut provider(), &assignment, RunConfig::new());
        let event = run_algorithm(
            &kind,
            &mut provider(),
            &assignment,
            RunConfig::new().mode(ExecMode::Event).threads(threads),
        );
        assert_same_result(&lock, &event);
        let lat = event.wall.latency.expect("event mode tracks latency");
        assert_eq!(lat.covered, lat.total, "completed run covers all tokens");
    });
}
