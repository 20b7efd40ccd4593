//! Round-trip and robustness property suite for the scenario layer, on
//! the seeded `hinet_rt::check` harness (replay any failure with
//! `HINET_CHECK_SEED=<seed printed on failure>`).
//!
//! Scenarios are drawn knob by knob from the knob table's own mutation
//! menus (`hinet::knobs::KNOBS`), so a new knob is covered as soon as it
//! has a row. Three properties:
//!
//! * `Scenario::from_flags → stamp_meta → from_meta` is the identity —
//!   whatever the CLI accepts, a recorded trace describes exactly;
//! * `ScenarioFile::render → parse` is the identity — whatever the
//!   fuzzer archives, a later replay loads exactly;
//! * byte-mutated scenario files and trace headers parse to `Ok` or
//!   `Err` and never panic.
//!
//! None of them runs a simulation, so the suite sweeps the whole
//! combination space cheaply.

use hinet::knobs::{
    scenario_flags, Field, KNOBS, MAX_NODES, MAX_ROUNDS, MAX_TOKENS, MAX_TOKEN_STATE_BITS,
};
use hinet::rt::check::{check, CaseCtx};
use hinet::rt::flags::parse_flags;
use hinet::rt::obs::{ObsConfig, ParsedTrace, Tracer};
use hinet::rt::rng::{Rng, Xoshiro256StarStar};
use hinet::scenario::{Scenario, ScenarioFile, ALGORITHMS, DYNAMICS};
use hinet_sim::ExecMode;

/// A valid scenario on a random algorithm and dynamics model, with every
/// knob drawn from its mutation menu: two passes over the table, each
/// knob mutated with probability ½ and the mutation kept only when the
/// scenario still validates.
fn random_scenario(ctx: &mut CaseCtx) -> Scenario {
    let mut base = Scenario {
        algorithm: ctx.pick(ALGORITHMS).to_string(),
        dynamics: ctx.pick(DYNAMICS).to_string(),
        n: 14,
        k: 3,
        alpha: 2,
        l: 2,
        theta: 5,
        ..Scenario::defaults()
    };
    base.budget = base.derived_budget();
    let mut rng = Xoshiro256StarStar::seed_from_u64(ctx.next_u64());
    let mut sc = base.clone();
    for _ in 0..2 {
        for knob in KNOBS {
            if rng.random_bool(0.5) {
                let mut cand = sc.clone();
                knob.apply_mutation(&mut cand, &mut rng, &base);
                if cand.validate().is_ok() {
                    sc = cand;
                }
            }
        }
    }
    sc
}

/// The CLI spelling of `sc`: one flag per knob, switches only when on.
fn flag_args(sc: &Scenario) -> Vec<String> {
    let mut args = Vec::new();
    for knob in KNOBS {
        let flag = format!("--{}", knob.flag);
        match knob.field {
            Field::Switch(get, _) if *get(sc) => args.push(flag),
            Field::Switch(..) => {}
            Field::Ppm(get, _) => args.extend([flag, (*get(sc) as f64 / 1e6).to_string()]),
            field => args.extend([flag, field.render(sc)]),
        }
    }
    args
}

/// `sc`'s trace header: the scenario's own stamps, plus the `mode` stamp
/// the event driver adds.
fn stamped(sc: &Scenario) -> String {
    let mut tracer = Tracer::new(ObsConfig::full());
    sc.stamp_meta(&mut tracer);
    if sc.mode == ExecMode::Event {
        tracer.meta("mode", "event");
    }
    tracer.run_end(0, true);
    tracer.to_jsonl()
}

#[test]
fn from_flags_stamp_meta_from_meta_is_the_identity() {
    check("scenario_meta_round_trip", 96, |ctx| {
        let sc = random_scenario(ctx);
        let args = flag_args(&sc);
        let (pos, flags) = parse_flags(&scenario_flags(), &args).expect("test args must parse");
        assert!(pos.is_empty());
        let from_flags = Scenario::from_flags(&flags)
            .unwrap_or_else(|e| panic!("args {args:?} must validate: {e}"));
        assert_eq!(from_flags, sc, "from_flags({args:?}) differs from sc");

        let parsed = ParsedTrace::parse_jsonl(&stamped(&sc)).expect("meta trace parses");
        let rebuilt = Scenario::from_meta(&parsed).expect("stamped meta must reconstruct");
        assert_eq!(
            rebuilt, sc,
            "from_meta(stamp_meta(sc)) differs from sc = {args:?}"
        );
    });
}

#[test]
fn render_parse_is_the_identity() {
    check("scenario_file_round_trip", 96, |ctx| {
        let sc = random_scenario(ctx);
        let file = ScenarioFile::new(sc.clone());
        let reparsed = ScenarioFile::parse(&file.render())
            .unwrap_or_else(|e| panic!("rendered file must parse: {e}\n{}", file.render()));
        assert_eq!(reparsed, file, "parse(render(sc)) differs from sc");
    });
}

/// The `expect_outcome` stamp rides the same round-trip unchanged — the
/// corpus-replay gate depends on it surviving re-serialisation exactly.
#[test]
fn expect_outcome_survives_render_parse() {
    check("scenario_expect_round_trip", 12, |ctx| {
        let &expect = ctx.pick(&[
            "completed (round 6)",
            "stalled (budget exhausted)",
            "assumption-violated (def 2)",
        ]);
        let file = ScenarioFile {
            scenario: random_scenario(ctx),
            expect: Some(expect.to_string()),
        };
        let reparsed = ScenarioFile::parse(&file.render()).expect("rendered file parses");
        assert_eq!(reparsed.expect.as_deref(), Some(expect));
        assert_eq!(reparsed.scenario, file.scenario);
    });
}

/// Apply 1–4 edits to `text`: replace a run of digits with a boundary
/// value, or replace, insert or delete one byte (favouring bytes that are
/// meaningful to the two grammars).
fn mutate_bytes(ctx: &mut CaseCtx, text: &str) -> String {
    const BOUNDARY: &[&str] = &[
        "0",
        "1",
        "2",
        "",
        "1000001",
        "10000001",
        "100000001",
        "10000000000",
        "4294967296",
        "18446744073709551615",
    ];
    const ALPHABET: &[u8] = b"0123456789-:,=\"{}[] \n.e#";
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..ctx.random_range(1usize..=4) {
        let digit_runs: Vec<(usize, usize)> = bytes
            .iter()
            .enumerate()
            .filter(|&(i, b)| b.is_ascii_digit() && (i == 0 || !bytes[i - 1].is_ascii_digit()))
            .map(|(start, _)| {
                let len = bytes[start..]
                    .iter()
                    .take_while(|b| b.is_ascii_digit())
                    .count();
                (start, start + len)
            })
            .collect();
        if !digit_runs.is_empty() && ctx.random_bool(0.5) {
            let &(start, end) = ctx.pick(&digit_runs);
            let value = ctx.pick(BOUNDARY).as_bytes();
            bytes.splice(start..end, value.iter().copied());
            continue;
        }
        let at = ctx.random_range(0..=bytes.len());
        let byte = if ctx.random_bool(0.8) {
            *ctx.pick(ALPHABET)
        } else {
            ctx.next_u64() as u8
        };
        match ctx.random_range(0usize..3) {
            0 if at < bytes.len() => bytes[at] = byte,
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, byte),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Whatever a parser accepts is small enough to allocate.
fn assert_within_ceilings(sc: &Scenario) {
    assert!(sc.n as u64 <= MAX_NODES, "n = {}", sc.n);
    assert!(sc.k as u64 <= MAX_TOKENS, "k = {}", sc.k);
    assert!(sc.budget as u64 <= MAX_ROUNDS, "budget = {}", sc.budget);
    let bits = sc.n as u128 * sc.k as u128;
    assert!(bits <= MAX_TOKEN_STATE_BITS as u128, "n·k = {bits}");
}

#[test]
fn byte_mutated_files_and_headers_never_panic() {
    let goldens: Vec<String> = ["alg1", "alg2", "klo-flood", "klo-phased", "remark1", "rlnc"]
        .iter()
        .map(|name| {
            let path = format!("{}/tests/golden/{name}.jsonl", env!("CARGO_MANIFEST_DIR"));
            std::fs::read_to_string(path).expect("golden readable")
        })
        .collect();
    check("scenario_parsers_survive_byte_mutation", 512, |ctx| {
        let sc = random_scenario(ctx);
        let file = mutate_bytes(ctx, &ScenarioFile::new(sc.clone()).render());
        if let Ok(parsed) = ScenarioFile::parse(&file) {
            assert_within_ceilings(&parsed.scenario);
        }

        let trace = if ctx.random_bool(0.5) {
            ctx.pick(&goldens).clone()
        } else {
            stamped(&sc)
        };
        let (header, events) = trace.split_once('\n').unwrap();
        let trace = format!("{}\n{events}", mutate_bytes(ctx, header));
        if let Ok(parsed) = ParsedTrace::parse_jsonl(&trace) {
            if let Ok(sc) = Scenario::from_meta(&parsed) {
                assert_within_ceilings(&sc);
                let _ = sc.kind();
            }
        }
    });
}
