//! `hinet` — command-line front end for the reproduction.
//!
//! ```text
//! hinet tables [--analytic-only]      reproduce Tables 2 & 3 (+ simulated E3)
//! hinet experiments [E3 E13 ...]      run experiments (default: all)
//! hinet export [DIR]                  write all experiment tables as md/csv
//! hinet run [options]                 one simulation, report costs
//! hinet trace [options]               one traced simulation (hinet-trace/v1)
//! hinet audit [options]               stability report for a dynamics trace
//! hinet fuzz [options]                seeded adversarial scenario search
//! hinet help                          this text
//! ```
//!
//! `hinet run` and `hinet trace` share the scenario options (all
//! optional): `--scenario FILE` loads a hinet-scenario/v1 file as the
//! base, and one flag per knob of [`hinet::knobs::KNOBS`] overrides it
//! (`hinet help` lists them with their defaults).
//!
//! `hinet run` additionally accepts `--trace` (record a `hinet-trace/v1`
//! JSONL artifact) and `--trace-out FILE` (where to write it). `hinet
//! trace` adds `--in FILE` (summarise an existing artifact instead of
//! running), `--events`, `--summary`, `--out FILE`, `--filter KIND`,
//! `--stability-stream`, `--sample N`, and the trace-diff mode `--diff A [B]`
//! (with `--json`, `--ignore`, `--max-divergences`, `--context` and
//! `--update-golden`); see `docs/OBSERVABILITY.md`. Artifacts written via
//! `--trace-out`/`--out` are streamed to disk incrementally, so arbitrarily
//! long runs never need the whole event stream in memory.
//!
//! `hinet fuzz` mutates a base scenario under a seeded RNG, classifies
//! every mutant against the paper's analytic bounds and the engine's
//! structured outcome, auto-shrinks each offender, and archives it as a
//! replayable scenario file carrying an `expect_outcome` stamp; `hinet
//! fuzz --replay PATH` re-checks an archived corpus. See
//! `docs/SCENARIOS.md` for the file format and the corpus workflow.
//!
//! Each command declares its flags in a [`FlagSpec`] table; unknown flags
//! and malformed values are rejected with exit code 2 rather than silently
//! ignored.

use hinet::analysis::experiments::all_experiments;
use hinet::cluster::audit::StreamingAudit;
use hinet::cluster::generators::HiNetConfig;
use hinet::cluster::stability::stream::StabilityStream;
use hinet::knobs::{scenario_flags, MAX_NODES, MAX_ROUNDS};
use hinet::rt::obs::diff::{diff_traces, DiffConfig};
use hinet::rt::obs::{ObsConfig, ParsedTrace, TraceSummary, Tracer};
use hinet::scenario::{check_dynamics_size, dynamics_provider, Scenario, ALGORITHMS, DYNAMICS};
use hinet::sim::engine::RunReport;
use hinet_rt::flags::{flag, parse_flags, render_help, FlagSet, FlagSpec};
use std::process::ExitCode;

const USAGE: &str = "hinet — (T, L)-HiNet dissemination reproduction

USAGE:
  hinet tables [--analytic-only]    reproduce Tables 2 & 3 (+ simulated E3)
  hinet experiments [E3 E13 ...]    run experiments (default: all)
  hinet export [DIR]                write experiment tables as md/csv
  hinet run [scenario flags] [--stability-stream] [--trace]
            [--trace-out FILE]
  hinet trace [scenario flags] [--in FILE] [--events]
            [--summary] [--out FILE] [--filter KIND]
            [--stability-stream] [--sample N]
  hinet trace --diff A [B] [--json] [--ignore TIERS]
            [--max-divergences N] [--context N] [--update-golden]
  hinet audit [--dynamics D] [--n N] [--rounds R] [--seed S]
  hinet fuzz [--seed S] [--cases N] [--scenario FILE] [--out DIR]
            [--max-offenders N] [--no-archive]
  hinet fuzz --replay PATH          re-check an archived scenario corpus
  hinet help";

/// The usage text, with the scenario flags rendered from the knob table.
fn help() -> String {
    format!(
        "{USAGE}\n\nscenario flags (run, trace):\n{}\nrun algorithms: {}\nrun dynamics:   {}",
        render_help(&scenario_flags()),
        ALGORITHMS.join(" "),
        DYNAMICS.join(" ")
    )
}

const TABLES_FLAGS: &[FlagSpec] = &[flag(
    "analytic-only",
    false,
    "skip the simulated Table 3 (E3)",
)];

/// `hinet run`'s own flags, after the scenario flags.
const RUN_FLAGS: &[FlagSpec] = &[
    flag(
        "stability-stream",
        false,
        "run the in-engine (T, L)-HiNet oracle",
    ),
    flag("trace", false, "record a hinet-trace/v1 JSONL artifact"),
    flag(
        "trace-out",
        true,
        "trace artifact path [target/trace/run.jsonl]",
    ),
];

/// `hinet trace`'s own flags, after the scenario flags.
const TRACE_FLAGS: &[FlagSpec] = &[
    flag(
        "in",
        true,
        "summarise an existing artifact instead of running",
    ),
    flag("events", false, "print recorded events as JSONL"),
    flag("summary", false, "print the trace summary (default output)"),
    flag("out", true, "write the hinet-trace/v1 artifact to FILE"),
    flag("filter", true, "with --events, only kinds containing KIND"),
    flag(
        "stability-stream",
        false,
        "verify Defs 2-8 per aligned window and trace the verdicts",
    ),
    flag(
        "sample",
        true,
        "record one in N data events (counters stay exact)",
    ),
    flag(
        "diff",
        true,
        "diff trace FILE against a second trace (positional) or a live re-run",
    ),
    flag("json", false, "with --diff, emit hinet-trace-diff/v1 JSON"),
    flag(
        "ignore",
        true,
        "with --diff, skip tiers (comma-separated: meta,counters,events)",
    ),
    flag(
        "max-divergences",
        true,
        "with --diff, cap reported divergences [16]",
    ),
    flag(
        "context",
        true,
        "with --diff, events of context around the first divergence [3]",
    ),
    flag(
        "update-golden",
        false,
        "with --diff (live form), overwrite FILE with the re-run on divergence",
    ),
];

const AUDIT_FLAGS: &[FlagSpec] = &[
    flag("dynamics", true, "dynamics model [hinet]"),
    flag("n", true, "nodes [60]"),
    flag("rounds", true, "trace length [36]"),
    flag("seed", true, "RNG seed [42]"),
];

const FUZZ_FLAGS: &[FlagSpec] = &[
    flag("seed", true, "fuzz campaign seed [1]"),
    flag("cases", true, "mutated scenarios to execute [50]"),
    flag(
        "scenario",
        true,
        "base scenario FILE to mutate [built-in alg1/hinet base]",
    ),
    flag(
        "out",
        true,
        "archive directory for shrunk offenders [tests/corpus]",
    ),
    flag(
        "max-offenders",
        true,
        "stop shrinking/archiving after N offenders [8]",
    ),
    flag("no-archive", false, "classify and shrink but write nothing"),
    flag(
        "replay",
        true,
        "replay an archived corpus (dir or file) instead of fuzzing",
    ),
];

const NO_FLAGS: &[FlagSpec] = &[];

/// A parsed top-level command, with its validated flags.
enum Command {
    Tables {
        analytic_only: bool,
    },
    Experiments {
        wanted: Vec<String>,
    },
    Export {
        dir: Option<String>,
    },
    Run(FlagSet),
    /// Positionals (only the optional second trace of `--diff`) + flags.
    Trace(Vec<String>, FlagSet),
    Audit(FlagSet),
    Fuzz(FlagSet),
    Help,
}

impl Command {
    /// Parse `argv[1..]`. `Err` is a usage message (exit 2).
    fn parse(args: &[String]) -> Result<Command, String> {
        let Some(command) = args.first() else {
            return Ok(Command::Help);
        };
        let rest = &args[1..];
        match command.as_str() {
            "tables" => {
                let (pos, flags) = parse_flags(TABLES_FLAGS, rest)?;
                reject_positionals("tables", &pos)?;
                Ok(Command::Tables {
                    analytic_only: flags.has("analytic-only"),
                })
            }
            "experiments" => {
                let (pos, _) = parse_flags(NO_FLAGS, rest)?;
                Ok(Command::Experiments { wanted: pos })
            }
            "export" => {
                let (pos, _) = parse_flags(NO_FLAGS, rest)?;
                if pos.len() > 1 {
                    return Err(format!("export takes one DIR, got {}", pos.len()));
                }
                Ok(Command::Export {
                    dir: pos.first().cloned(),
                })
            }
            "run" => {
                let (pos, flags) =
                    parse_flags(&[scenario_flags(), RUN_FLAGS.to_vec()].concat(), rest)?;
                reject_positionals("run", &pos)?;
                Ok(Command::Run(flags))
            }
            "trace" => {
                let (pos, flags) =
                    parse_flags(&[scenario_flags(), TRACE_FLAGS.to_vec()].concat(), rest)?;
                if flags.get("diff").is_none() {
                    reject_positionals("trace", &pos)?;
                } else if pos.len() > 1 {
                    return Err(format!(
                        "trace --diff takes at most one extra trace, got {}",
                        pos.len()
                    ));
                }
                Ok(Command::Trace(pos, flags))
            }
            "audit" => {
                let (pos, flags) = parse_flags(AUDIT_FLAGS, rest)?;
                reject_positionals("audit", &pos)?;
                Ok(Command::Audit(flags))
            }
            "fuzz" => {
                let (pos, flags) = parse_flags(FUZZ_FLAGS, rest)?;
                reject_positionals("fuzz", &pos)?;
                if flags.get("replay").is_some() {
                    for conflicting in ["seed", "cases", "scenario", "out", "max-offenders"] {
                        if flags.get(conflicting).is_some() {
                            return Err(format!(
                                "fuzz --replay re-checks an existing corpus and takes no \
                                 --{conflicting}"
                            ));
                        }
                    }
                    if flags.has("no-archive") {
                        return Err("fuzz --replay re-checks an existing corpus and takes no \
                             --no-archive"
                            .into());
                    }
                }
                if flags.has("no-archive") && flags.get("out").is_some() {
                    return Err("--no-archive and --out DIR contradict each other".into());
                }
                Ok(Command::Fuzz(flags))
            }
            "help" | "--help" | "-h" => Ok(Command::Help),
            other => Err(format!("unknown command '{other}'")),
        }
    }
}

fn reject_positionals(cmd: &str, pos: &[String]) -> Result<(), String> {
    match pos.first() {
        Some(extra) => Err(format!(
            "{cmd} takes no positional arguments, got '{extra}'"
        )),
        None => Ok(()),
    }
}

fn cmd_tables(analytic_only: bool) {
    use hinet::analysis::experiments::{e1_table2, e2_table3, e3_simulated_table3};
    println!("{}", e1_table2().to_text());
    println!("{}", e2_table3().to_text());
    if !analytic_only {
        println!("{}", e3_simulated_table3().to_text());
    }
}

fn cmd_experiments(wanted: &[String]) -> ExitCode {
    let registry = all_experiments();
    if !wanted.is_empty() {
        for w in wanted {
            if !registry.iter().any(|e| e.id.eq_ignore_ascii_case(w)) {
                eprintln!("unknown experiment '{w}' (valid: E1..E{})", registry.len());
                return ExitCode::from(2);
            }
        }
    }
    for exp in registry {
        if wanted.is_empty() || wanted.iter().any(|w| w.eq_ignore_ascii_case(exp.id)) {
            println!("{}", (exp.run)().to_text());
        }
    }
    ExitCode::SUCCESS
}

fn cmd_export(dir: Option<&String>) -> ExitCode {
    let path =
        std::path::PathBuf::from(dir.cloned().unwrap_or_else(|| "target/experiments".into()));
    match hinet::analysis::artifacts::export_all(&path) {
        Ok(written) => {
            println!(
                "wrote artifacts for {} experiments under {}",
                written.len(),
                path.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("export failed: {e}");
            ExitCode::from(1)
        }
    }
}

fn print_report(sc: &Scenario, label: &str, report: &RunReport) {
    println!(
        "algorithm: {label}  dynamics: {}  n={} k={} α={} L={} θ={} seed={}",
        sc.dynamics, sc.n, sc.k, sc.alpha, sc.l, sc.theta, sc.seed
    );
    println!(
        "completed: {}  rounds: {}",
        report.completed(),
        report
            .completion_round
            .map_or("never".into(), |r| r.to_string())
    );
    println!("outcome: {}", report.outcome);
    println!(
        "tokens sent: {}  packets: {}  (heads {}, gateways {}, members {})",
        report.metrics.tokens_sent,
        report.metrics.packets_sent,
        report.metrics.tokens_by_role[0],
        report.metrics.tokens_by_role[1],
        report.metrics.tokens_by_role[2],
    );
    let m = &report.metrics;
    if m.coefficient_bytes > 0 {
        println!(
            "coded packets: {}  coefficient-header bytes: {}",
            m.packets_sent, m.coefficient_bytes
        );
    }
    if m.faults_injected + m.crashes + m.recoveries + m.retransmits > 0 {
        println!(
            "faults: {} dropped deliveries, {} crashes, {} recoveries, {} retransmits",
            m.faults_injected, m.crashes, m.recoveries, m.retransmits
        );
    }
    if m.delays_injected + m.duplicates_injected + m.dups_discarded + m.retransmit_timeouts > 0 {
        println!(
            "delivery plane: {} delayed, {} duplicated, {} duplicates discarded, \
             {} retransmit timeouts",
            m.delays_injected, m.duplicates_injected, m.dups_discarded, m.retransmit_timeouts
        );
    }
    let w = &report.wall;
    println!(
        "wall clock: {:.3} ms  throughput: {:.0} tokens/sec",
        w.elapsed_ns as f64 / 1e6,
        w.tokens_per_sec,
    );
    if let Some(lat) = &w.latency {
        println!(
            "token latency: p50 {:.3} ms  p95 {:.3} ms  max {:.3} ms  ({}/{} covered)",
            lat.p50_ns as f64 / 1e6,
            lat.p95_ns as f64 / 1e6,
            lat.max_ns as f64 / 1e6,
            lat.covered,
            lat.total,
        );
    }
    if w.reassembly_stalls + w.mailbox_depth_max > 0 {
        println!(
            "event runtime: {} reassembly stalls, mailbox depth high-water {}",
            w.reassembly_stalls, w.mailbox_depth_max,
        );
    }
}

/// Print the stall watchdog's per-node diagnostics: each stalled node's
/// round frontier, the neighbours whose round markers its quorum was still
/// missing, and the age of its oldest unacked reliability-layer envelope.
fn print_stall_diag(diag: &hinet::sim::engine::StallDiag) {
    println!(
        "stall watchdog: halted with {} node(s) short of quorum",
        diag.nodes.len()
    );
    if let Some((first, last)) = diag.fault_window {
        println!("  faults fired between rounds {first} and {last}");
    }
    for ns in &diag.nodes {
        let missing = if ns.missing.is_empty() {
            "none".to_string()
        } else {
            ns.missing
                .iter()
                .map(|v| v.index().to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        let unacked = ns
            .oldest_unacked
            .map_or("-".into(), |age| format!("{age} round(s)"));
        println!(
            "  node {}: frontier round {}, missing markers from [{}], oldest unacked {}",
            ns.node.index(),
            ns.frontier,
            missing,
            unacked
        );
    }
}

/// Write a trace artifact, creating parent directories on demand.
fn write_trace(path: &str, tracer: &Tracer) -> Result<(), String> {
    let p = std::path::Path::new(path);
    if let Some(parent) = p.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("cannot create {parent:?}: {e}"))?;
    }
    std::fs::write(p, tracer.to_jsonl()).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!(
        "trace: wrote {path} ({} events, {} dropped)",
        tracer.len(),
        tracer.dropped()
    );
    Ok(())
}

/// Switch `tracer` to incremental on-disk spilling: events stream to
/// `path.part` as they are recorded instead of accumulating in the ring.
fn stream_trace(path: &str, tracer: &mut Tracer) -> Result<(), String> {
    tracer
        .stream_to(path)
        .map_err(|e| format!("cannot stream trace to {path}: {e}"))
}

/// Finalise a streamed artifact (header + spilled events); falls back to
/// [`write_trace`] when the tracer never streamed.
fn finish_trace(path: &str, tracer: &mut Tracer) -> Result<(), String> {
    match tracer
        .finish_stream()
        .map_err(|e| format!("cannot finalise trace {path}: {e}"))?
    {
        Some(written) => {
            println!(
                "trace: wrote {path} ({written} events streamed, {} dropped)",
                tracer.dropped()
            );
            Ok(())
        }
        None => write_trace(path, tracer),
    }
}

fn cmd_run(flags: &FlagSet) -> ExitCode {
    let want_trace = flags.has("trace") || flags.get("trace-out").is_some();
    // Returns whether the stall watchdog halted the run (exit 1, so
    // scripted chaos gates can distinguish a stall from a usage error).
    let run = || -> Result<bool, String> {
        let sc = Scenario::from_flags(flags)?;
        let mut tracer = if want_trace {
            Tracer::new(ObsConfig::full())
        } else {
            Tracer::disabled()
        };
        let out_path = flags.get("trace-out").unwrap_or("target/trace/run.jsonl");
        if want_trace {
            stream_trace(out_path, &mut tracer)?;
        }
        let report = sc.run_traced_with_oracle(&mut tracer, flags.has("stability-stream"))?;
        print_report(&sc, sc.kind()?.label(), &report);
        let stalled = report.stall.is_some();
        if let Some(diag) = &report.stall {
            print_stall_diag(diag);
        }
        if let Some(s) = &report.stability {
            match s.violation {
                Some(v) => println!(
                    "stability oracle: VIOLATED Def {} at round {} (window starting {})",
                    v.def, v.round, v.window_start
                ),
                None => println!(
                    "stability oracle: {}/{} windows (T, L)-HiNet  min L*={}",
                    s.hinet_windows,
                    s.windows,
                    s.min_hinet_l.map_or("-".into(), |l| l.to_string()),
                ),
            }
        }
        if want_trace {
            finish_trace(out_path, &mut tracer)?;
        }
        Ok(stalled)
    };
    match run() {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

/// Print a summary (and its consistency against a live report, if any).
fn print_summary(summary: &TraceSummary, report: Option<&RunReport>) {
    print!("{}", summary.to_text());
    if let Some(report) = report {
        let rounds_ok = summary.counters.rounds == report.rounds_executed as u64;
        let tokens_ok = summary.counters.tokens_sent == report.metrics.tokens_sent;
        let phase_sum: u64 = summary.per_phase_rounds.iter().sum();
        println!(
            "consistency: rounds {}/{} {}  tokens {}/{} {}  phase-round sum {}",
            summary.counters.rounds,
            report.rounds_executed,
            if rounds_ok { "ok" } else { "MISMATCH" },
            summary.counters.tokens_sent,
            report.metrics.tokens_sent,
            if tokens_ok { "ok" } else { "MISMATCH" },
            phase_sum,
        );
    }
}

fn cmd_trace(pos: &[String], flags: &FlagSet) -> ExitCode {
    // Mode 0: structured comparison of two traces (or trace vs live re-run).
    if let Some(a_path) = flags.get("diff") {
        return cmd_trace_diff(a_path, pos.first().map(String::as_str), flags);
    }

    let events_wanted = flags.has("events");
    let summary_wanted = flags.has("summary");
    let filter = flags.get("filter");

    // Mode 1: summarise an existing artifact.
    if let Some(path) = flags.get("in") {
        let load = || -> Result<ParsedTrace, String> {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            ParsedTrace::parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))
        };
        let parsed = match load() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        };
        println!(
            "trace {path}: schema hinet-trace/v1, {} events, algorithm {}",
            parsed.events.len(),
            parsed.meta_get("algorithm").unwrap_or("?"),
        );
        if events_wanted {
            for te in &parsed.events {
                if filter.is_none_or(|f| te.event.kind().contains(f)) {
                    println!("r={} {:?}", te.round, te.event);
                }
            }
        }
        if summary_wanted || !events_wanted {
            print_summary(&TraceSummary::from_trace(&parsed), None);
        }
        return ExitCode::SUCCESS;
    }

    // Mode 2: run the scenario with tracing on.
    let run = || -> Result<(Scenario, Tracer, RunReport), String> {
        let sc = Scenario::from_flags(flags)?;
        let mut tracer = match flags.get("sample") {
            Some(_) => Tracer::new(ObsConfig::sampled(flags.parsed("sample", 1u32)?)),
            None => Tracer::new(ObsConfig::full()),
        };
        // Pure artifact-recording runs stream events straight to disk;
        // --events/--summary need the in-memory ring for display.
        if let Some(path) = flags.get("out") {
            if !events_wanted && !summary_wanted {
                stream_trace(path, &mut tracer)?;
            }
        }
        let report = sc.run_traced(&mut tracer)?;
        if flags.has("stability-stream") {
            // Providers are deterministic in the scenario seed, so a fresh
            // one replays the run's dynamics, one round at a time, through
            // the streaming verifier: memory bounded by one round.
            let mut replay = sc.provider(&sc.kind()?)?;
            let mut stream = StabilityStream::new(sc.t(), sc.l);
            for round in 0..report.rounds_executed.max(1) {
                let g = replay.graph_at(round);
                let h = replay.hierarchy_at(round);
                if let Some(verdict) = stream.push(&g, &h) {
                    verdict.emit_into(&mut tracer);
                }
            }
            let (last, sr) = stream.finish();
            if let Some(verdict) = last {
                verdict.emit_into(&mut tracer);
            }
            tracer.meta(
                "stability_stream_peak_bytes",
                sr.peak_state_bytes.to_string(),
            );
        }
        Ok((sc, tracer, report))
    };
    let (sc, mut tracer, report) = match run() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    println!(
        "traced {} on {}: {} rounds, {} events recorded",
        sc.algorithm,
        sc.dynamics,
        report.rounds_executed,
        tracer.len().max(tracer.streamed().unwrap_or(0) as usize),
    );
    if let Some(path) = flags.get("out") {
        if let Err(e) = finish_trace(path, &mut tracer) {
            eprintln!("{e}");
            return ExitCode::from(1);
        }
    }
    if events_wanted {
        for te in tracer.events() {
            if filter.is_none_or(|f| te.event.kind().contains(f)) {
                println!("r={} {:?}", te.round, te.event);
            }
        }
    }
    if summary_wanted || (!events_wanted && flags.get("out").is_none()) {
        print_summary(&TraceSummary::from_tracer(&tracer), Some(&report));
    }
    // Same exit contract as `hinet run`: a watchdog halt is exit 1.
    if let Some(diag) = &report.stall {
        print_stall_diag(diag);
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

/// `hinet trace --diff A [B]`: compare trace `A` against trace `B`, or —
/// when `B` is omitted — against a live re-run of the scenario recorded in
/// `A`'s own metadata (the golden-trace workflow). Exit codes: 0 identical,
/// 1 divergent, 2 usage/IO error.
fn cmd_trace_diff(a_path: &str, b_path: Option<&str>, flags: &FlagSet) -> ExitCode {
    let load = |path: &str| -> Result<ParsedTrace, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        ParsedTrace::parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))
    };
    let run = || -> Result<(hinet::rt::obs::diff::DiffReport, Option<String>, String), String> {
        let a = load(a_path)?;
        // Side B: a second artifact, or a live re-run of A's scenario.
        let (b, live_jsonl, b_label) = match b_path {
            Some(path) => (load(path)?, None, path.to_string()),
            None => {
                let sc = Scenario::from_meta(&a)?;
                let mut tracer = Tracer::new(ObsConfig::full());
                sc.run_traced(&mut tracer)?;
                let jsonl = tracer.to_jsonl();
                let parsed =
                    ParsedTrace::parse_jsonl(&jsonl).map_err(|e| format!("live re-run: {e}"))?;
                (parsed, Some(jsonl), "live re-run".to_string())
            }
        };
        let mut cfg = DiffConfig::default();
        if let Some(spec) = flags.get("ignore") {
            cfg = cfg.with_ignores(spec)?;
        }
        cfg.max_divergences = flags.parsed("max-divergences", cfg.max_divergences)?;
        cfg.context = flags.parsed("context", cfg.context)?;
        Ok((diff_traces(&a, &b, &cfg), live_jsonl, b_label))
    };
    let (report, live_jsonl, b_label) = match run() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    if flags.has("update-golden") {
        let Some(jsonl) = live_jsonl else {
            eprintln!(
                "--update-golden requires the live re-run form (hinet trace --diff FILE, \
                 no second trace)"
            );
            return ExitCode::from(2);
        };
        if report.is_empty() {
            println!("golden {a_path} is up to date");
        } else if let Err(e) = std::fs::write(a_path, jsonl) {
            eprintln!("cannot update {a_path}: {e}");
            return ExitCode::from(2);
        } else {
            println!(
                "updated golden {a_path} ({} divergence(s) resolved)",
                report.divergences.len() + report.truncated
            );
        }
        return ExitCode::SUCCESS;
    }

    if flags.has("json") {
        println!("{}", report.to_json());
    } else {
        println!("diff: {a_path} vs {b_label}");
        print!("{}", report.to_text());
    }
    if report.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn cmd_audit(flags: &FlagSet) -> ExitCode {
    let parse = || -> Result<(usize, usize, u64), String> {
        let (n, rounds) = (
            flags.parsed("n", 60usize)?,
            flags.parsed("rounds", 36usize)?,
        );
        // The scenario ceilings on n and the round budget.
        for (flag, value, max) in [("n", n, MAX_NODES), ("rounds", rounds, MAX_ROUNDS)] {
            if !(1..=max).contains(&(value as u64)) {
                return Err(format!("audit needs --{flag} in 1..={max}, got {value}"));
            }
        }
        Ok((n, rounds, flags.parsed("seed", 42u64)?))
    };
    let (n, rounds, seed) = match parse() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let dynamics = flags.get("dynamics").unwrap_or("hinet");
    let hinet = HiNetConfig {
        n,
        num_heads: (n / 8).max(1),
        theta: (n / 4).max(1),
        l: 2,
        t: 6,
        reaffil_prob: 0.15,
        rotate_heads: true,
        noise_edges: n / 5,
        seed,
    };
    let checked = match dynamics {
        "hinet" => hinet
            .check()
            .map_err(|e| format!("hinet dynamics at --n {n}: {e}")),
        _ => check_dynamics_size(dynamics, n),
    };
    let mut provider = match checked.and_then(|()| dynamics_provider(dynamics, hinet, 6)) {
        Ok(provider) => provider,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!("stability audit: dynamics={dynamics} n={n} rounds={rounds} seed={seed}\n");
    // One pass over the provider, never materialising the trace: the
    // report equals the batch reference audit of the captured trace (the
    // tests/prop_stream.rs differential tests).
    let mut streaming = StreamingAudit::new();
    for round in 0..rounds {
        let g = provider.graph_at(round);
        let h = provider.hierarchy_at(round);
        streaming.push(&g, &h);
    }
    let peak = streaming.peak_state_bytes();
    println!("{}", streaming.finish().to_text());
    println!("streaming state peak: {peak} bytes");
    ExitCode::SUCCESS
}

/// `hinet fuzz`: seeded adversarial scenario search (or, with `--replay`,
/// corpus re-verification). Exit codes: 0 done (offenders are the product,
/// not an error), 1 a replayed corpus entry no longer reproduces its
/// recorded classification, 2 usage/IO error.
fn cmd_fuzz(flags: &FlagSet) -> ExitCode {
    use hinet::fuzz::{fuzz, replay_corpus, FuzzConfig};
    use hinet::scenario::ScenarioFile;

    let run = || -> Result<ExitCode, String> {
        if let Some(path) = flags.get("replay") {
            let outcomes = replay_corpus(std::path::Path::new(path))?;
            let mut mismatched = 0usize;
            for o in &outcomes {
                if o.ok() {
                    println!("ok   {} — {}", o.path.display(), o.actual);
                } else {
                    mismatched += 1;
                    println!(
                        "FAIL {} — expected '{}', got '{}'",
                        o.path.display(),
                        o.expected,
                        o.actual
                    );
                }
            }
            println!(
                "replayed {} scenario file(s): {} ok, {} mismatched",
                outcomes.len(),
                outcomes.len() - mismatched,
                mismatched
            );
            return Ok(if mismatched == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            });
        }

        let base = match flags.get("scenario") {
            Some(path) => ScenarioFile::load(std::path::Path::new(path))?.scenario,
            None => FuzzConfig::default_base(),
        };
        let cfg = FuzzConfig {
            seed: flags.parsed("seed", 1u64)?,
            cases: flags.parsed("cases", 50usize)?,
            base,
            archive_dir: if flags.has("no-archive") {
                None
            } else {
                Some(flags.get("out").unwrap_or("tests/corpus").into())
            },
            max_offenders: flags.parsed("max-offenders", 8usize)?,
        };
        println!(
            "fuzz: seed={} cases={} base={} on {} (n={} k={} α={} L={} θ={})",
            cfg.seed,
            cfg.cases,
            cfg.base.algorithm,
            cfg.base.dynamics,
            cfg.base.n,
            cfg.base.k,
            cfg.base.alpha,
            cfg.base.l,
            cfg.base.theta
        );
        print!("{}", fuzz(&cfg)?.to_text());
        Ok(ExitCode::SUCCESS)
    };
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match Command::parse(&args) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("{e}\n\n{}", help());
            return ExitCode::from(2);
        }
    };
    match command {
        Command::Tables { analytic_only } => {
            cmd_tables(analytic_only);
            ExitCode::SUCCESS
        }
        Command::Experiments { wanted } => cmd_experiments(&wanted),
        Command::Export { dir } => cmd_export(dir.as_ref()),
        Command::Run(flags) => cmd_run(&flags),
        Command::Trace(pos, flags) => cmd_trace(&pos, &flags),
        Command::Audit(flags) => cmd_audit(&flags),
        Command::Fuzz(flags) => cmd_fuzz(&flags),
        Command::Help => {
            println!("{}", help());
            ExitCode::SUCCESS
        }
    }
}
