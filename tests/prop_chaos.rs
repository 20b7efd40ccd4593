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

mod common;

use common::scenario;
use hinet::rt::check::check;
use hinet::rt::obs::{Event, ObsConfig, ParsedTrace, Tracer};
use hinet::scenario::Scenario;
use hinet_sim::ExecMode;
use hinet_sim::RunReport;

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

/// The streaming sink (`--out`/`--trace-out`) writes the same bytes as
/// the in-memory artifact on real faulted runs: ci.sh's chaos scenario
/// (loss, delay, dup, reorder and the reliability layer) in both modes,
/// its `--crash-at` oracle scenario, and a crash that recovers under
/// `--retransmit` inside a partition window. Together they emit every
/// event kind but the watchdog's `stall_probe`.
#[test]
fn streamed_artifact_matches_in_memory_on_faulted_runs() {
    use hinet::knobs::scenario_flags;
    use hinet::rt::flags::parse_flags;
    let chaos = "--algorithm alg2 --n 48 --k 6 --seed 5 --loss 0.05 --delay 0.03 \
                 --max-delay 3 --dup 0.02 --reorder --reliable --fault-seed 9";
    let cases = [
        (chaos.to_string(), false),
        (format!("{chaos} --mode event"), false),
        (
            "--algorithm alg2 --n 48 --k 6 --seed 5 --crash-at 2:0 --down-rounds 99".into(),
            true,
        ),
        (
            "--algorithm alg1 --n 40 --k 4 --seed 3 --crash-at 1:3 --down-rounds 2 \
             --retransmit --partition 2:4:20 --loss 0.05 --fault-seed 4"
                .into(),
            false,
        ),
    ];
    let path =
        std::env::temp_dir().join(format!("hinet-chaos-stream-{}.jsonl", std::process::id()));
    let mut kinds = std::collections::BTreeSet::new();
    for (args, oracle) in cases {
        let args: Vec<String> = args.split_whitespace().map(String::from).collect();
        let (_, flags) = parse_flags(&scenario_flags(), &args).unwrap();
        let sc = Scenario::from_flags(&flags).unwrap();

        let mut in_memory = Tracer::new(ObsConfig::full());
        sc.run_traced_with_oracle(&mut in_memory, oracle).unwrap();
        let mut streamed = Tracer::new(ObsConfig::full());
        streamed.stream_to(&path).unwrap();
        sc.run_traced_with_oracle(&mut streamed, oracle).unwrap();
        let written = streamed.finish_stream().unwrap().unwrap();
        let on_disk = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();

        assert_eq!(written as usize, in_memory.len(), "{args:?}");
        assert!(
            on_disk == in_memory.to_jsonl(),
            "{args:?}: streamed bytes differ"
        );
        kinds.extend(in_memory.events().map(|te| te.event.kind()));
    }
    let expected = [
        "crash",
        "delayed",
        "duplicated",
        "fault_injected",
        "head_broadcast",
        "phase_advance",
        "reaffiliation",
        "recover",
        "retransmit",
        "retransmit_timeout",
        "round_start",
        "run_end",
        "stability_window",
        "token_push",
    ];
    assert_eq!(kinds.into_iter().collect::<Vec<_>>(), expected);
}
