//! Chaos property suite for the deterministic fault plane, on the seeded
//! `hinet_rt::check` harness (replay any failure with
//! `HINET_CHECK_SEED=<seed printed on failure>`).
//!
//! Six contracts: (a) bounded message loss plus the ARQ retransmission
//! wrapper still completes dissemination; (b) a fault plan with a seed but
//! no rates is indistinguishable from no plan at all — events and counters
//! identical, meta unchanged except for the `fault_seed` stamp; (c) a
//! faulted run replays byte-for-byte under the same `--fault-seed`;
//! (d) a partition severing the token-free side for the whole run makes
//! completion impossible and is reported as a Definition-2 assumption
//! violation; (e) a partition window entirely past the run's horizon is
//! behaviourally invisible — only its meta stamp differs; (f) head
//! targeting gates hazard crashes to current heads: at the first crash
//! round the targeted victims are a strict, non-empty subset of the
//! untargeted ones, and targeted runs replay byte-for-byte.

mod common;

use common::scenario;
use hinet::rt::check::check;
use hinet::rt::obs::{Event, ObsConfig, ParsedTrace, Tracer};
use hinet::scenario::Scenario;
use hinet::sim::engine::Outcome;
use hinet::sim::fault::Partition;
use hinet_sim::RunReport;
use std::collections::BTreeSet;

fn record(sc: &Scenario) -> (RunReport, String) {
    let mut tracer = Tracer::new(ObsConfig::full());
    let report = sc.run_traced(&mut tracer).expect("scenario must run");
    (report, tracer.to_jsonl())
}

/// (a) Bounded loss + retransmission completes. Flooding-free algorithms
/// (Algorithms 1 and 2) rely on the ARQ wrapper; RLNC absorbs the same
/// loss through coding redundancy with no wrapper at all.
#[test]
fn bounded_loss_with_retransmission_still_completes() {
    check("fault_bounded_loss_completes", 12, |ctx| {
        let &algorithm = ctx.pick(&["alg1", "alg2", "rlnc"]);
        let &loss_ppm = ctx.pick(&[20_000u32, 50_000, 100_000]);
        let &seed = ctx.pick(&[1u64, 5, 9, 13]);
        let &fault_seed = ctx.pick(&[1u64, 2, 7]);
        let &n = ctx.pick(&[16usize, 20]);
        let dynamics = if algorithm == "rlnc" {
            "flat-1"
        } else {
            "hinet"
        };
        let base = scenario(algorithm, dynamics, n, 3, seed);
        let sc = Scenario {
            loss_ppm,
            fault_seed,
            retransmit: algorithm != "rlnc",
            budget: 3 * base.budget,
            ..base
        };
        let (report, _) = record(&sc);
        assert!(
            report.completed(),
            "{algorithm} at {loss_ppm} ppm (n={n}, seed={seed}, fault_seed={fault_seed}) \
             did not complete"
        );
        assert!(
            matches!(report.outcome, Outcome::Completed { .. }),
            "completed run must report Outcome::Completed, got: {}",
            report.outcome
        );
        // Any loss that mattered was recovered by the wrapper; losses
        // only ever *delay*, so drops and retransmits move together.
        if report.metrics.retransmits > 0 {
            assert!(
                report.metrics.faults_injected > 0,
                "retransmissions without any injected fault at {loss_ppm} ppm"
            );
        }
    });
}

/// (b) A seeded but rate-free plan is trivial: behaviour is identical to
/// the unfaulted run — same events, same counters — and the only metadata
/// difference is the `fault_seed` stamp itself.
#[test]
fn rate_free_plans_are_indistinguishable_from_no_plan() {
    check("fault_trivial_identity", 12, |ctx| {
        let &(algorithm, dynamics) = ctx.pick(&[
            ("alg1", "hinet"),
            ("alg2", "hinet"),
            ("klo-flood", "flat-1"),
            ("rlnc", "flat-1"),
        ]);
        let &seed = ctx.pick(&[1u64, 4, 9, 16]);
        let &fault_seed = ctx.pick(&[5u64, 77, 1234]);
        let plain = scenario(algorithm, dynamics, 18, 3, seed);
        let seeded = Scenario {
            fault_seed,
            ..scenario(algorithm, dynamics, 18, 3, seed)
        };
        let (_, a) = record(&plain);
        let (_, b) = record(&seeded);
        let a = ParsedTrace::parse_jsonl(&a).expect("plain trace parses");
        let b = ParsedTrace::parse_jsonl(&b).expect("seeded trace parses");
        assert_eq!(
            a.events, b.events,
            "{algorithm} (seed={seed}): a rate-free plan changed the event stream"
        );
        assert_eq!(a.counters, b.counters, "{algorithm} (seed={seed})");
        let stamp = ("fault_seed".to_string(), fault_seed.to_string());
        assert!(
            b.meta.contains(&stamp),
            "{algorithm}: the seeded plan must stamp its fault_seed"
        );
        let without_stamp: Vec<_> = b.meta.iter().filter(|kv| **kv != stamp).cloned().collect();
        assert_eq!(
            without_stamp, a.meta,
            "{algorithm} (seed={seed}): a rate-free plan changed the metadata \
             beyond its own fault_seed stamp"
        );
    });
}

/// (c) Same fault seed → same trace, byte for byte, including crash and
/// retransmission schedules.
#[test]
fn same_fault_seed_replays_byte_for_byte() {
    check("fault_seed_replay", 12, |ctx| {
        let &(algorithm, dynamics) = ctx.pick(&[
            ("alg1", "hinet"),
            ("alg2", "hinet"),
            ("klo-flood", "flat-1"),
            ("rlnc", "flat-1"),
        ]);
        let &seed = ctx.pick(&[2u64, 6, 11]);
        let &fault_seed = ctx.pick(&[3u64, 8, 21]);
        let &loss_ppm = ctx.pick(&[30_000u32, 80_000]);
        let with_crash = *ctx.pick(&[false, true]);
        let sc = Scenario {
            loss_ppm,
            fault_seed,
            retransmit: dynamics == "hinet",
            crash_at: if with_crash { vec![(2, 1)] } else { vec![] },
            ..scenario(algorithm, dynamics, 18, 3, seed)
        };
        let (_, first) = record(&sc);
        let (_, second) = record(&sc);
        assert_eq!(
            first, second,
            "{algorithm} (seed={seed}, fault_seed={fault_seed}, loss={loss_ppm}, \
             crash={with_crash}) did not replay identically"
        );
    });
}

/// (d) Tokens start round-robin on nodes `0..k`, so a partition whose cut
/// lands in `k..n` leaves one side with no token source at all; severed
/// for the whole budget, that side can never learn anything and the run
/// must end as a Definition-2 (backbone stability) assumption violation.
#[test]
fn full_run_partitions_starve_the_cut_off_side() {
    check("fault_partition_starves", 12, |ctx| {
        let &(algorithm, dynamics) = ctx.pick(&[
            ("alg1", "hinet"),
            ("alg2", "hinet"),
            ("klo-flood", "flat-1"),
            ("rlnc", "flat-1"),
        ]);
        let &seed = ctx.pick(&[1u64, 5, 9, 13]);
        let &cut = ctx.pick(&[5usize, 9, 12]);
        let base = scenario(algorithm, dynamics, 16, 3, seed);
        let sc = Scenario {
            partitions: vec![Partition {
                start: 0,
                end: base.budget,
                cut,
            }],
            ..base
        };
        let (report, _) = record(&sc);
        assert!(
            !report.completed(),
            "{algorithm} on {dynamics} (seed={seed}, cut={cut}) completed across a \
             full-run partition"
        );
        assert!(
            matches!(report.outcome, Outcome::AssumptionViolated { def: 2, .. }),
            "{algorithm} (seed={seed}, cut={cut}): expected a def-2 violation, \
             got: {}",
            report.outcome
        );
    });
}

/// (e) A partition window entirely beyond the run's horizon never severs
/// anything: events and counters match the partition-free run exactly, and
/// the only metadata difference is the `partitions` stamp itself.
#[test]
fn out_of_horizon_partitions_are_behaviourally_invisible() {
    check("fault_partition_dormant", 12, |ctx| {
        let &(algorithm, dynamics) = ctx.pick(&[
            ("alg1", "hinet"),
            ("alg2", "hinet"),
            ("klo-flood", "flat-1"),
            ("rlnc", "flat-1"),
        ]);
        let &seed = ctx.pick(&[1u64, 4, 9, 16]);
        let &cut = ctx.pick(&[4usize, 11]);
        let plain = scenario(algorithm, dynamics, 16, 3, seed);
        let start = plain.budget + 1; // first severed round is past the horizon
        let dormant = Scenario {
            partitions: vec![Partition {
                start,
                end: start + 50,
                cut,
            }],
            ..plain.clone()
        };
        let (_, a) = record(&plain);
        let (_, b) = record(&dormant);
        let a = ParsedTrace::parse_jsonl(&a).expect("plain trace parses");
        let b = ParsedTrace::parse_jsonl(&b).expect("dormant trace parses");
        assert_eq!(
            a.events, b.events,
            "{algorithm} (seed={seed}): a dormant partition changed the event stream"
        );
        assert_eq!(a.counters, b.counters, "{algorithm} (seed={seed})");
        let stamp = (
            "partitions".to_string(),
            format!("{start}:{}:{cut}", start + 50),
        );
        assert!(
            b.meta.contains(&stamp),
            "{algorithm}: the partitioned run must stamp its partitions"
        );
        let without_stamp: Vec<_> = b.meta.iter().filter(|kv| **kv != stamp).cloned().collect();
        assert_eq!(
            without_stamp, a.meta,
            "{algorithm} (seed={seed}): a dormant partition changed the metadata \
             beyond its own stamp"
        );
    });
}

/// Crash victims in `trace` during `round`.
fn crash_victims(trace: &ParsedTrace, round: u64) -> BTreeSet<u64> {
    trace
        .events
        .iter()
        .filter(|te| te.round == round)
        .filter_map(|te| match te.event {
            Event::Crash { node, .. } => Some(node),
            _ => None,
        })
        .collect()
}

/// (f) `with_target_heads` gates the hazard stream on headship. At a
/// saturating hazard every node crashes in the first round of the
/// untargeted run; under targeting only the current heads do. Both runs
/// share identical state entering that round, so the targeted victim set
/// must be a strict, non-empty subset — heads are assassinated, members
/// are spared. Targeted runs also replay byte-for-byte.
#[test]
fn head_targeting_gates_hazard_crashes_to_heads() {
    check("fault_target_heads", 12, |ctx| {
        let &algorithm = ctx.pick(&["alg1", "alg2"]);
        let &seed = ctx.pick(&[1u64, 5, 9, 13]);
        let &fault_seed = ctx.pick(&[2u64, 7, 19]);
        let base = scenario(algorithm, "hinet", 18, 3, seed);
        let targeted = Scenario {
            crash_ppm: 1_000_000,
            target_heads: true,
            fault_seed,
            ..base.clone()
        };
        let untargeted = Scenario {
            crash_ppm: 1_000_000,
            target_heads: false,
            fault_seed,
            ..base
        };
        let (_, t1) = record(&targeted);
        let (_, t2) = record(&targeted);
        assert_eq!(
            t1, t2,
            "{algorithm} (seed={seed}, fault_seed={fault_seed}): targeted run did \
             not replay identically"
        );
        let t = ParsedTrace::parse_jsonl(&t1).expect("targeted trace parses");
        let u = ParsedTrace::parse_jsonl(&record(&untargeted).1).expect("untargeted trace parses");
        assert_eq!(t.meta_get("target_heads"), Some("1"));
        let first_crash_round = u
            .events
            .iter()
            .find_map(|te| matches!(te.event, Event::Crash { .. }).then_some(te.round))
            .expect("a saturating hazard must crash someone");
        let targeted_victims = crash_victims(&t, first_crash_round);
        let untargeted_victims = crash_victims(&u, first_crash_round);
        assert_eq!(
            untargeted_victims.len(),
            18,
            "{algorithm} (seed={seed}): a saturating untargeted hazard fells every node"
        );
        assert!(
            !targeted_victims.is_empty(),
            "{algorithm} (seed={seed}): some head must exist to assassinate"
        );
        assert!(
            targeted_victims.is_subset(&untargeted_victims)
                && targeted_victims.len() < untargeted_victims.len(),
            "{algorithm} (seed={seed}): targeted victims {targeted_victims:?} must be \
             a strict subset of {untargeted_victims:?}"
        );
    });
}
