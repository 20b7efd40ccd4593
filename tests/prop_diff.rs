//! Property tests for the trace-diff engine, on the seeded
//! `hinet_rt::check` harness (replay any failure with
//! `HINET_CHECK_SEED=<seed printed on failure>`).
//!
//! Two families: (1) `diff(t, t')` is empty when `t` and `t'` record the
//! same seeded scenario, across every algorithm including `rlnc`; (2) a
//! single injected perturbation — metadata edit, counter bump, dropped
//! event, reordered round — is always detected at exactly the right
//! severity.

use hinet::core::params::required_phase_length;
use hinet::rt::check::check;
use hinet::rt::obs::diff::{diff_traces, DiffConfig, Severity};
use hinet::rt::obs::{ObsConfig, ParsedTrace, Tracer};
use hinet::scenario::Scenario;

/// (algorithm, dynamics) pairs covering every CLI-selectable executor.
const ALGOS: &[(&str, &str)] = &[
    ("alg1", "hinet"),
    ("remark1", "hinet"),
    ("alg2", "hinet"),
    ("alg2-mh", "hinet"),
    ("klo-phased", "flat-t"),
    ("klo-flood", "flat-1"),
    ("gossip", "hinet"),
    ("kactive", "flat-1"),
    ("delta", "hinet"),
    ("rlnc", "flat-1"),
];

fn scenario(algorithm: &str, dynamics: &str, n: usize, k: usize, seed: u64) -> Scenario {
    let (alpha, l) = (2, 2);
    let t = required_phase_length(k, alpha, l);
    Scenario {
        n,
        k,
        alpha,
        l,
        theta: (n / 3).max(1),
        seed,
        algorithm: algorithm.into(),
        dynamics: dynamics.into(),
        budget: 4 * n + 4 * t,
        loss_ppm: 0,
        crash_ppm: 0,
        crash_at: vec![],
        target_heads: false,
        fault_seed: 0,
        retransmit: false,
        durable_tokens: false,
        partitions: vec![],
        down_rounds: 1,
        delay_ppm: 0,
        max_delay: 1,
        dup_ppm: 0,
        reorder: false,
        reliable: false,
        stall_rounds: 0,
        mode: hinet_sim::ExecMode::Lockstep,
    }
}

fn record(sc: &Scenario) -> ParsedTrace {
    let mut tracer = Tracer::new(ObsConfig::full());
    sc.run_traced(&mut tracer).expect("scenario must run");
    ParsedTrace::parse_jsonl(&tracer.to_jsonl()).expect("round-trip must parse")
}

#[test]
fn diff_of_two_recordings_of_the_same_scenario_is_empty() {
    check("diff_self_empty", 12, |ctx| {
        let &(algorithm, dynamics) = ctx.pick(ALGOS);
        let &seed = ctx.pick(&[1u64, 2, 5, 9, 13, 21]);
        let &n = ctx.pick(&[16usize, 20, 24]);
        let sc = scenario(algorithm, dynamics, n, 3, seed);
        let (a, b) = (record(&sc), record(&sc));
        let d = diff_traces(&a, &b, &DiffConfig::default());
        assert!(
            d.is_empty(),
            "{algorithm} on {dynamics} (n={n}, seed={seed}) self-diffed non-empty:\n{}",
            d.to_text()
        );
        assert!(d.downgrade.is_none(), "full traces must not be downgraded");
    });
}

#[test]
fn single_perturbations_are_detected_at_the_right_severity() {
    check("diff_perturbations", 16, |ctx| {
        let &(algorithm, dynamics) = ctx.pick(&[
            ("alg1", "hinet"),
            ("klo-flood", "flat-1"),
            ("rlnc", "flat-1"),
        ]);
        let &seed = ctx.pick(&[3u64, 7, 11, 19]);
        let sc = scenario(algorithm, dynamics, 18, 3, seed);
        let a = record(&sc);
        let mut b = a.clone();

        let kind = *ctx.pick(&[0u8, 1, 2, 3]);
        let (severity, what) = match kind {
            0 => {
                // Metadata edit: the traces describe different scenarios.
                let slot = b
                    .meta
                    .iter_mut()
                    .find(|(key, _)| key == "seed")
                    .expect("scenario traces stamp their seed");
                slot.1 = format!("{}1", slot.1);
                (Severity::Meta, "meta edit")
            }
            1 => {
                // Counter bump: behaviour totals lie.
                b.counters.tokens_sent += 1;
                (Severity::Counter, "counter bump")
            }
            2 => {
                // Dropped event: the stream thins but counters stand.
                let victim = *ctx.pick(&(0..b.events.len()).collect::<Vec<_>>());
                b.events.remove(victim);
                (Severity::Event, "dropped event")
            }
            _ => {
                // Reordered round: swap the first adjacent distinct pair at
                // a random starting point (wrapping), leaving tallies and
                // counters untouched.
                let start = *ctx.pick(&(0..b.events.len()).collect::<Vec<_>>());
                let i = (0..b.events.len() - 1)
                    .map(|off| (start + off) % (b.events.len() - 1))
                    .find(|&i| b.events[i] != b.events[i + 1])
                    .expect("a trace always has two adjacent distinct events");
                b.events.swap(i, i + 1);
                (Severity::Event, "reordered events")
            }
        };

        let d = diff_traces(&a, &b, &DiffConfig::default());
        assert!(
            d.count_at(severity) >= 1,
            "{what} on {algorithm} (seed={seed}) missed at {:?}:\n{}",
            severity,
            d.to_text()
        );
        for other in [Severity::Meta, Severity::Counter, Severity::Event] {
            if other != severity {
                assert_eq!(
                    d.count_at(other),
                    0,
                    "{what} on {algorithm} (seed={seed}) leaked into {:?}:\n{}",
                    other,
                    d.to_text()
                );
            }
        }
        if severity == Severity::Event {
            assert!(
                d.first_diverging_round.is_some(),
                "event-severity divergence must name the first diverging round"
            );
        }
    });
}

#[test]
fn guard_downgrades_incomparable_streams_instead_of_spurious_divergence() {
    check("diff_sampling_guard", 8, |ctx| {
        let &seed = ctx.pick(&[2u64, 6, 10]);
        let sc = scenario("alg1", "hinet", 18, 3, seed);
        let full = record(&sc);
        // The same scenario captured at a sampling rate: data events thin,
        // counters stay exact. Event comparison must be refused, counters
        // must still agree.
        let mut tracer = Tracer::new(ObsConfig::sampled(*ctx.pick(&[2u32, 3, 5])));
        sc.run_traced(&mut tracer).unwrap();
        let sampled = ParsedTrace::parse_jsonl(&tracer.to_jsonl()).unwrap();

        let d = diff_traces(&full, &sampled, &DiffConfig::default());
        assert!(d.downgrade.is_some(), "mixed modes must downgrade");
        assert_eq!(d.count_at(Severity::Event), 0, "{}", d.to_text());
        assert!(
            d.is_empty(),
            "same scenario at different sampling must still agree on meta + counters:\n{}",
            d.to_text()
        );
    });
}
