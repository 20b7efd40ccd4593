//! Golden-trace regression suite: the behavioural CI gate.
//!
//! `tests/golden/` holds one pinned `hinet-trace/v1` artifact per covered
//! algorithm. Each test re-runs the scenario recorded in a golden's own
//! header metadata and requires an *empty* structured diff — any change to
//! the engine, an algorithm, a dynamics generator or the tracer that
//! alters behaviour shows up here as a named first-diverging-round, not as
//! a silently different end state.
//!
//! Intentional behaviour changes are blessed with
//! `./ci.sh --update-golden` (or per file:
//! `hinet trace --diff tests/golden/<name>.jsonl --update-golden`).

mod common;

use hinet::rt::obs::diff::{diff_traces, DiffConfig};
use hinet::rt::obs::{ObsConfig, ParsedTrace, Tracer};
use hinet::scenario::Scenario;
use std::path::PathBuf;

/// The corpus: Algorithm 1, its Remark-1 variant, Algorithm 2, both KLO
/// baselines, and RLNC (file stem = `scenario` meta stamp).
const EXPECTED: &[&str] = &["alg1", "alg2", "klo-flood", "klo-phased", "remark1", "rlnc"];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn load(name: &str) -> ParsedTrace {
    let path = golden_dir().join(format!("{name}.jsonl"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read golden {}: {e}", path.display()));
    ParsedTrace::parse_jsonl(&text)
        .unwrap_or_else(|e| panic!("golden {name} fails the strict hinet-trace/v1 parser: {e}"))
}

/// The directory contains exactly the documented corpus — no stray or
/// missing goldens.
#[test]
fn corpus_is_exactly_the_documented_set() {
    let mut found: Vec<String> = std::fs::read_dir(golden_dir())
        .expect("tests/golden must exist")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    found.sort();
    assert_eq!(found, EXPECTED);
}

/// The tentpole gate: every golden's scenario, re-run live from the
/// golden's own metadata, produces a trace with an empty structured diff.
#[test]
fn goldens_match_live_reruns() {
    for name in EXPECTED {
        let golden = load(name);
        let sc = Scenario::from_meta(&golden).unwrap_or_else(|e| panic!("golden {name}: {e}"));
        let mut tracer = Tracer::new(ObsConfig::full());
        sc.run_traced(&mut tracer)
            .unwrap_or_else(|e| panic!("golden {name} scenario failed to run: {e}"));
        let live = ParsedTrace::parse_jsonl(&tracer.to_jsonl()).unwrap();
        let diff = diff_traces(&golden, &live, &DiffConfig::default());
        assert!(
            diff.downgrade.is_none(),
            "golden {name} should be comparable at event severity: {:?}",
            diff.downgrade
        );
        assert!(
            diff.is_empty(),
            "golden {name} diverged from its live re-run — if the behaviour change is \
             intentional, bless it with `./ci.sh --update-golden`:\n{}",
            diff.to_text()
        );
    }
}

/// Corpus hygiene: each golden is a complete full-mode capture whose
/// header counters match its own event stream — a truncated or hand-edited
/// artifact cannot hide in the corpus.
#[test]
fn goldens_are_complete_and_internally_consistent() {
    for name in EXPECTED {
        let golden = load(name);
        assert!(
            common::is_complete(&golden),
            "golden {name} must be a full-mode capture with nothing dropped \
             (mode={}, dropped={})",
            golden.mode.wire(),
            golden.dropped
        );
        assert_eq!(
            common::recount_events(&golden),
            golden.counters,
            "golden {name}: header counters disagree with its own event stream"
        );
        assert_eq!(
            golden.meta_get("scenario"),
            Some(*name),
            "golden {name}: file stem must match its scenario stamp"
        );
    }
}

/// The header writer's bytes: every golden re-records byte for byte, and
/// the chaos trace ci.sh records (which carries the fault and delivery
/// counters that clean runs omit) keeps its pinned header line.
#[test]
fn headers_re_render_byte_identically() {
    for name in EXPECTED {
        let path = golden_dir().join(format!("{name}.jsonl"));
        let text = std::fs::read_to_string(&path).unwrap();
        let sc = Scenario::from_meta(&load(name)).unwrap();
        let mut tracer = Tracer::new(ObsConfig::full());
        sc.run_traced(&mut tracer).unwrap();
        assert!(
            tracer.to_jsonl() == text,
            "golden {name} re-records differently"
        );
    }

    let mut sc = common::scenario("alg2", "hinet", 48, 6, 5);
    (sc.alpha, sc.theta, sc.fault_seed) = (5, 16, 9);
    (sc.loss_ppm, sc.delay_ppm, sc.max_delay, sc.dup_ppm) = (50_000, 30_000, 3, 20_000);
    (sc.reorder, sc.reliable) = (true, true);
    sc.budget = sc.derived_budget();
    let mut tracer = Tracer::new(ObsConfig::full());
    sc.run_traced(&mut tracer).unwrap();
    let jsonl = tracer.to_jsonl();
    assert_eq!(
        jsonl.lines().next().unwrap(),
        concat!(
            r#"{"schema":"hinet-trace/v1","mode":"full","meta":{"scenario":"alg2","#,
            r#""dynamics":"hinet","n":"48","k":"6","alpha":"5","l":"2","theta":"16","#,
            r#""seed":"5","loss_ppm":"50000","fault_seed":"9","delay_ppm":"30000","#,
            r#""max_delay":"3","dup_ppm":"20000","reorder":"1","reliable":"1","#,
            r#""algorithm":"alg2-full-exchange","token_bytes":"16","#,
            r#""packet_header_bytes":"24"},"counters":{"tokens_sent":434,"#,
            r#""packets_sent":111,"bytes_sent":9608,"tokens_by_role":[134,134,166],"#,
            r#""reaffiliations":109,"rounds":6,"phases":0,"faults_injected":20,"#,
            r#""delays_injected":7,"duplicates_injected":9,"retransmit_timeouts":4,"#,
            r#""dups_discarded":9},"dropped":0}"#,
        )
    );
}
