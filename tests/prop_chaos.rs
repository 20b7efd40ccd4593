//! Chaos property suite for the adversarial delivery plane — delay,
//! duplication and reordering faults with the generalised ack/timeout/
//! backoff reliability layer — on the seeded `hinet_rt::check` harness
//! (replay any failure with `HINET_CHECK_SEED=<seed printed on failure>`).
//!
//! Four contracts: (a) full delivery-plane chaos (loss + delay + dup +
//! reorder) with the reliability layer still completes dissemination, in
//! both execution modes, for the HiNet algorithms, the KLO flood baseline
//! and RLNC — one recovery path for every protocol; (b) a reorder-only
//! plan cannot change the dissemination result of set-union protocols —
//! completion, metrics and events match the plain run exactly, and only
//! the plan's own `reorder` stamp distinguishes the metadata; (c) a
//! chaotic reliable run replays byte-for-byte under the same
//! `--fault-seed`, in both modes; (d) duplicates never double-count:
//! a duplication-only plan is discarded copy-for-copy at the receivers,
//! and the protocol-visible run — completion, token/packet totals, every
//! non-bookkeeping event — is identical to the clean run.

use hinet::rt::check::check;
use hinet::rt::obs::{Event, ObsConfig, ParsedTrace, Tracer};
use hinet::scenario::Scenario;
use hinet_sim::ExecMode;
use hinet_sim::RunReport;

fn scenario(algorithm: &str, dynamics: &str, n: usize, k: usize, seed: u64) -> Scenario {
    let (alpha, l) = (2, 2);
    let t = hinet::core::params::required_phase_length(k, alpha, l);
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
        mode: ExecMode::Lockstep,
    }
}

fn record(sc: &Scenario) -> (RunReport, String) {
    let mut tracer = Tracer::new(ObsConfig::full());
    let report = sc.run_traced(&mut tracer).expect("scenario must run");
    (report, tracer.to_jsonl())
}

/// The full adversarial plan on top of `base`: loss, delay, duplication
/// and reordering, recovered by the generalised reliability layer.
fn chaotic(base: Scenario, fault_seed: u64, mode: ExecMode) -> Scenario {
    Scenario {
        loss_ppm: 30_000,
        delay_ppm: 30_000,
        max_delay: 3,
        dup_ppm: 20_000,
        reorder: true,
        reliable: true,
        fault_seed,
        budget: 3 * base.budget,
        mode,
        ..base
    }
}

/// (a) One recovery path for every protocol: under loss + delay + dup +
/// reorder the reliability layer still completes dissemination — HiNet
/// Algorithms 1 and 2, the KLO flood and RLNC, in both execution modes.
#[test]
fn chaos_with_reliability_still_completes_everywhere() {
    check("chaos_reliable_completes", 12, |ctx| {
        let &(algorithm, dynamics) = ctx.pick(&[
            ("alg1", "hinet"),
            ("alg2", "hinet"),
            ("klo-flood", "flat-1"),
            ("rlnc", "flat-1"),
        ]);
        let &mode = ctx.pick(&[ExecMode::Lockstep, ExecMode::Event]);
        let &seed = ctx.pick(&[1u64, 5, 9, 13]);
        let &fault_seed = ctx.pick(&[2u64, 7, 19]);
        let sc = chaotic(scenario(algorithm, dynamics, 18, 3, seed), fault_seed, mode);
        let (report, _) = record(&sc);
        assert!(
            report.completed(),
            "{algorithm} on {dynamics} in {mode} (seed={seed}, fault_seed={fault_seed}) \
             did not complete under chaos with the reliability layer"
        );
    });
}

/// (b) Inbox reordering cannot change a set-union protocol: a reorder-only
/// plan completes in the same round with the same token/packet totals and
/// the same event stream, and the only metadata difference is the plan's
/// own `reorder` stamp.
#[test]
fn reorder_only_plans_preserve_the_dissemination_result() {
    check("chaos_reorder_invariant", 12, |ctx| {
        let &(algorithm, dynamics) = ctx.pick(&[
            ("alg1", "hinet"),
            ("alg2", "hinet"),
            ("klo-flood", "flat-1"),
        ]);
        let &seed = ctx.pick(&[1u64, 4, 9, 16]);
        let &fault_seed = ctx.pick(&[3u64, 8, 21]);
        let plain = scenario(algorithm, dynamics, 18, 3, seed);
        let shuffled = Scenario {
            reorder: true,
            fault_seed,
            ..plain.clone()
        };
        let (pr, a) = record(&plain);
        let (sr, b) = record(&shuffled);
        assert_eq!(
            sr.completed(),
            pr.completed(),
            "{algorithm} (seed={seed}): reordering changed completion"
        );
        let a = ParsedTrace::parse_jsonl(&a).expect("plain trace parses");
        let b = ParsedTrace::parse_jsonl(&b).expect("shuffled trace parses");
        assert_eq!(
            a.events, b.events,
            "{algorithm} (seed={seed}): a reorder-only plan changed the event stream"
        );
        assert_eq!(a.counters, b.counters, "{algorithm} (seed={seed})");
        let stamps = [
            ("reorder".to_string(), "1".to_string()),
            ("fault_seed".to_string(), fault_seed.to_string()),
        ];
        let without: Vec<_> = b
            .meta
            .iter()
            .filter(|kv| !stamps.contains(kv))
            .cloned()
            .collect();
        assert_eq!(
            without, a.meta,
            "{algorithm} (seed={seed}): a reorder-only plan changed the metadata \
             beyond its own stamps"
        );
    });
}

/// (c) Same fault seed → same trace, byte for byte, under the full chaos
/// plan with the reliability layer — including the delay release, dup
/// discard, ack and retransmission schedules — in both execution modes.
#[test]
fn chaotic_reliable_runs_replay_byte_for_byte() {
    check("chaos_seed_replay", 12, |ctx| {
        let &(algorithm, dynamics) = ctx.pick(&[
            ("alg1", "hinet"),
            ("alg2", "hinet"),
            ("klo-flood", "flat-1"),
            ("rlnc", "flat-1"),
        ]);
        let &mode = ctx.pick(&[ExecMode::Lockstep, ExecMode::Event]);
        let &seed = ctx.pick(&[2u64, 6, 11]);
        let &fault_seed = ctx.pick(&[3u64, 8, 21]);
        let sc = chaotic(scenario(algorithm, dynamics, 18, 3, seed), fault_seed, mode);
        let (_, first) = record(&sc);
        let (_, second) = record(&sc);
        assert_eq!(
            first, second,
            "{algorithm} on {dynamics} in {mode} (seed={seed}, fault_seed={fault_seed}) \
             did not replay identically"
        );
    });
}

/// (d) Duplication is pure receiver-side noise: with no other pathology
/// every injected copy is discarded exactly once, the protocol sees the
/// same inbox, and the run — completion round, token and packet totals,
/// every event except the `duplicated` bookkeeping itself — matches the
/// clean run.
#[test]
fn duplicates_never_double_count() {
    check("chaos_dup_accounting", 12, |ctx| {
        let &(algorithm, dynamics) = ctx.pick(&[
            ("alg1", "hinet"),
            ("alg2", "hinet"),
            ("klo-flood", "flat-1"),
        ]);
        let &seed = ctx.pick(&[1u64, 5, 9, 13]);
        let &fault_seed = ctx.pick(&[2u64, 7, 19]);
        let plain = scenario(algorithm, dynamics, 18, 3, seed);
        let dupped = Scenario {
            dup_ppm: 150_000,
            fault_seed,
            ..plain.clone()
        };
        let (pr, a) = record(&plain);
        let (dr, b) = record(&dupped);
        let (pe, de) = (&pr, &dr);
        assert_eq!(
            de.completion_round, pe.completion_round,
            "{algorithm} (seed={seed}): duplication changed the completion round"
        );
        assert_eq!(
            de.metrics.tokens_sent, pe.metrics.tokens_sent,
            "{algorithm} (seed={seed}): duplicated copies were billed as sends"
        );
        assert_eq!(
            de.metrics.packets_sent, pe.metrics.packets_sent,
            "{algorithm} (seed={seed}): duplicated copies were billed as packets"
        );
        assert!(
            de.metrics.duplicates_injected > 0,
            "{algorithm} (seed={seed}): a 15% dup plan must inject something"
        );
        assert_eq!(
            de.metrics.dups_discarded, de.metrics.duplicates_injected,
            "{algorithm} (seed={seed}): every delivered copy is discarded exactly once"
        );
        let a = ParsedTrace::parse_jsonl(&a).expect("plain trace parses");
        let b = ParsedTrace::parse_jsonl(&b).expect("dupped trace parses");
        let without_dups: Vec<_> = b
            .events
            .iter()
            .filter(|te| !matches!(te.event, Event::Duplicated { .. }))
            .cloned()
            .collect();
        assert_eq!(
            without_dups, a.events,
            "{algorithm} (seed={seed}): beyond the duplicated bookkeeping, the \
             event streams must match"
        );
    });
}
