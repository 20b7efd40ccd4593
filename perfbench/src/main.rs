//! `hinet-perfbench --workload NAME [--seed N] [--fault-seed N]
//! [--seconds S] [--trace 0|1] [--commit SHA]`
//!
//! Runs one workload for `--seconds` and prints two lines: a context line
//! (machine, parameters, digest, and every metric for people to read) and,
//! last, the result line `{"correct", "attempted", "failed", "metrics"}`
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Bad arguments exit 2.

use hinet_perfbench::workloads::{Spec, Workload, THREADS};
use hinet_perfbench::{measure, pins, END_TO_END, PER_LAYER};
use hinet_rt::bench::json::Json;
use hinet_rt::flags::{flag, parse_flags, FlagSpec};
use std::process::ExitCode;

const FLAGS: &[FlagSpec] = &[
    flag(
        "workload",
        true,
        "alg1-churn | alg1-audit | alg2-chaos-event",
    ),
    flag("seed", true, "dynamics seed (default 42)"),
    flag("fault-seed", true, "fault-plane seed (default 42)"),
    flag(
        "seconds",
        true,
        "measurement budget in seconds (default 10)",
    ),
    flag(
        "trace",
        true,
        "0 = end-to-end metrics, 1 = per-layer metrics",
    ),
    flag("commit", true, "commit id recorded in the context line"),
];

fn parse(args: &[String]) -> Result<(Spec, f64, bool, String), String> {
    let (positionals, f) = parse_flags(FLAGS, args)?;
    if let Some(p) = positionals.first() {
        return Err(format!("unexpected argument '{p}'"));
    }
    let name = f.get("workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let spec = Spec::new(workload, f.parsed("seed", 42)?, f.parsed("fault-seed", 42)?);
    let seconds: f64 = f.parsed("seconds", 10.0)?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    let trace = match f.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
    };
    let commit = f.get("commit").unwrap_or("unknown").to_string();
    Ok((spec, seconds, trace, commit))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (spec, seconds, trace, commit) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("hinet-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let pins = pins::committed();
    let m = measure(&spec, seconds, trace, &pins);
    for e in &m.errors {
        eprintln!("hinet-perfbench: FAILED {e}");
    }
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let num = |x: u64| Json::Num(x as f64);
    let all = m
        .metrics
        .iter()
        .map(|&(name, unit, value)| (name.to_string(), Json::Str(format!("{value} {unit}"))))
        .collect();
    let digest = m
        .digest
        .0
        .iter()
        .map(|&(name, v)| (name.to_string(), num(v)))
        .collect();
    let context = Json::Obj(vec![
        ("workload".into(), Json::Str(spec.workload.name().into())),
        ("trace".into(), Json::Bool(trace)),
        ("nproc".into(), num(nproc as u64)),
        ("threads".into(), num(THREADS as u64)),
        ("n".into(), num(spec.n as u64)),
        ("k".into(), num(spec.k as u64)),
        ("seed".into(), num(spec.seed)),
        ("fault_seed".into(), num(spec.fault_seed)),
        ("commit".into(), Json::Str(commit)),
        (
            "run_s_samples".into(),
            Json::Arr(m.run_samples.iter().map(|&v| Json::Num(v)).collect()),
        ),
        (
            "pinned".into(),
            Json::Bool(pins::pin_for(&pins, &spec).is_some()),
        ),
        ("metrics".into(), Json::Obj(all)),
        ("digest".into(), Json::Obj(digest)),
    ]);
    println!("{context}");
    let names: Vec<(&str, &str)> = if trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    println!("{}", m.result_json(&names));
    ExitCode::SUCCESS
}
