//! End-to-end and per-layer benchmark of the hinet dissemination engine.
//!
//! [`measure`] runs one workload repeatedly for a time budget and returns
//! medians of its end-to-end metrics (`trace = false`) or, from a separate
//! run with every layer seam wrapped, its per-layer metrics
//! (`trace = true`). Every repetition is checked: completion within the
//! theorem bound, a digest equal to the first repetition's, and the
//! pinned reference values where `pins.json` has them. See `README.md`.

pub mod layers;
pub mod pins;
pub mod workloads;

use hinet_rt::bench::json::Json;
use hinet_rt::bench::median;
use hinet_sim::engine::{ExecMode, RunReport};
use std::time::{Duration, Instant};
use workloads::{check_run, run, run_with, setup, Digest, RunOutput, Spec};

/// Timed repetitions a run collects at least, whatever its budget.
const MIN_SAMPLES: usize = 3;
/// Set-ups a run times back to back, before its timed repetitions. Set-up
/// takes about 0.1 ms, so sampling it between runs would catch the
/// allocator in whatever state the last run's teardown left it; a loop of
/// its own gives a steady median for a few tens of milliseconds.
const SETUP_SAMPLES: usize = 201;

/// End-to-end metrics (`--trace 0`), as `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("node_rounds_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), as `(name, unit)`: those measured on
/// every workload. The traced run's context line adds the audit-only
/// `stability.push_s`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dynamics.self_s", "s"),
    ("dynamics.calls", "count"),
    ("dynamics.snapshots", "count"),
    ("csr.rebuilds", "count"),
    ("csr.rebuild_s", "s"),
    ("csr.edges", "count"),
    ("protocol.send_s", "s"),
    ("protocol.receive_s", "s"),
    ("protocol.messages", "count"),
    ("protocol.deliveries", "count"),
    ("protocol.payload_tokens", "count"),
    ("protocol.union_words", "count"),
    ("engine.self_s", "s"),
    ("engine.packets", "count"),
    ("stability.windows", "count"),
    ("stability.peak_state_bytes", "bytes"),
    ("obs.emit_s", "s"),
    ("obs.events", "count"),
    ("obs.dropped", "count"),
    ("obs.serialize_s", "s"),
    ("obs.jsonl_bytes", "bytes"),
    ("fault.drops", "count"),
    ("fault.delays", "count"),
    ("fault.dups", "count"),
    ("reliable.retransmits", "count"),
    ("reliable.dups_discarded", "count"),
    ("reliable.waste_ratio", "ratio"),
    ("event.lockstep_ratio", "ratio"),
    ("event.reassembly_stalls", "count"),
    ("event.mailbox_depth_max", "count"),
    ("setup.provider_s", "s"),
    ("setup.assignment_s", "s"),
    ("setup.protocols_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("tokens_sent", "count"),
    ("completion_rounds", "count"),
];

/// The outcome of [`measure`].
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Repetitions run, each a complete dissemination scenario.
    pub attempted: u64,
    /// Repetitions that failed a check.
    pub failed: u64,
    /// What failed, one line per broken check.
    pub errors: Vec<String>,
    /// `(name, unit, value)`: [`END_TO_END`] without tracing,
    /// [`PER_LAYER`] with it, plus figures for people to read on the
    /// context line (fastest samples, failed fraction, token counts,
    /// latency).
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// The first repetition's digest.
    pub digest: Digest,
    /// The end-to-end run times behind the `run_s` median, in run order.
    pub run_samples: Vec<f64>,
}

impl Measurement {
    /// Whether every repetition passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// A metric's value by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, _, v)| v)
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics
    /// named in `names` with their units.
    pub fn result_json(&self, names: &[(&str, &str)]) -> Json {
        let metrics = names
            .iter()
            .map(|&(name, unit)| {
                let value = self.get(name).expect("every listed metric is measured");
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(value)),
                        ("unit".into(), Json::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}

/// Checks every repetition against the paper's bounds, the first
/// repetition and the pins.
struct Judge<'a> {
    spec: &'a Spec,
    pins: &'a Json,
    reference: Option<Digest>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Judge<'_> {
    fn judge(&mut self, out: &RunOutput, what: &str) {
        let digest = Digest::of(out);
        let mut errors = check_run(self.spec, out);
        match &self.reference {
            None => {
                errors.extend(pins::check(self.pins, self.spec, &digest));
                self.reference = Some(digest);
            }
            Some(first) if *first != digest => errors.push(format!(
                "{}: {what} digest {:?} differs from the first run's {:?}",
                self.spec.workload.name(),
                digest.0,
                first.0
            )),
            Some(_) => {}
        }
        self.attempted += 1;
        self.fail(errors);
    }

    /// Count a failed check of the current repetition.
    fn fail(&mut self, errors: Vec<String>) {
        if !errors.is_empty() {
            self.failed += 1;
            self.errors.extend(errors);
        }
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn latency_ms(report: &RunReport) -> (f64, f64) {
    report.wall.latency.map_or((0.0, 0.0), |l| {
        (l.p50_ns as f64 / 1e6, l.p95_ns as f64 / 1e6)
    })
}

/// Timing samples by metric name, in insertion order.
#[derive(Default)]
struct Samples(Vec<(&'static str, Vec<f64>)>);

impl Samples {
    fn push(&mut self, name: &'static str, v: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, vs)) => vs.push(v),
            None => self.0.push((name, vec![v])),
        }
    }

    fn median(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, vs)| median(vs))
    }

    fn min(&self, name: &str) -> f64 {
        self.get(name).iter().copied().fold(f64::INFINITY, f64::min)
    }

    fn get(&self, name: &str) -> &[f64] {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(&[], |(_, vs)| vs)
    }
}

/// One untraced repetition: set up, run, check, sample.
fn untraced(spec: &Spec, judge: &mut Judge<'_>, samples: &mut Samples) -> RunOutput {
    let mut prep = setup(spec);
    let out = run(spec, &mut prep);
    drop(prep);
    judge.judge(&out, "untraced");
    samples.push("run_s", out.run_s());
    samples.push("engine_s", out.engine_s);
    let (p50, p95) = latency_ms(&out.report);
    samples.push("token_latency_p50_ms", p50);
    samples.push("token_latency_p95_ms", p95);
    out
}

/// Repeat `step` until the next lap would pass `deadline`, at least `min`
/// times; returns the last step's result.
fn repeat_until<T>(deadline: Instant, min: usize, mut step: impl FnMut() -> T) -> T {
    let mut lap = Duration::ZERO;
    let mut last = None;
    let mut done = 0;
    while done < min || Instant::now() + lap <= deadline {
        let t = Instant::now();
        last = Some(step());
        lap = t.elapsed();
        done += 1;
    }
    last.expect("min is at least one")
}

/// Run `spec` for `seconds` and report its metrics: end-to-end medians, or
/// with `trace` the per-layer breakdown. Results are checked against
/// `pins` (see [`pins::check`]).
pub fn measure(spec: &Spec, seconds: f64, trace: bool, pins: &Json) -> Measurement {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut judge = Judge {
        spec,
        pins,
        reference: None,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    // Warm-up: checked, not timed (first-touch page faults and allocator
    // growth would otherwise skew the first sample).
    let warm = run(spec, &mut setup(spec));
    judge.judge(&warm, "untraced");
    drop(warm);

    let mut samples = Samples::default();
    let mut metrics = if trace {
        measure_layers(spec, deadline, &mut judge, &mut samples)
    } else {
        for _ in 0..SETUP_SAMPLES {
            let t = Instant::now();
            let prep = setup(spec);
            samples.push("setup_s", t.elapsed().as_secs_f64());
            drop(prep);
        }
        let last = repeat_until(deadline, MIN_SAMPLES, || {
            untraced(spec, &mut judge, &mut samples)
        });
        let run_s = samples.median("run_s");
        let rounds = last.report.rounds_executed;
        vec![
            ("setup_s", "s", samples.median("setup_s")),
            ("run_s", "s", run_s),
            ("node_rounds_per_s", "1/s", (spec.n * rounds) as f64 / run_s),
            ("peak_rss_mb", "MiB", peak_rss_mb()),
            ("setup_s_min", "s", samples.min("setup_s")),
            ("run_s_min", "s", samples.min("run_s")),
        ]
    };
    let digest = judge.reference.clone().expect("the warm-up run is judged");
    let get = |name| digest.get(name).unwrap_or(0) as f64;
    for (name, unit, value) in [
        (
            "failed_frac",
            "ratio",
            judge.failed as f64 / judge.attempted as f64,
        ),
        ("tokens_sent", "count", get("tokens_sent")),
        ("packets_sent", "count", get("packets_sent")),
        ("completion_rounds", "count", get("completion_rounds")),
        (
            "token_latency_p50_ms",
            "ms",
            samples.median("token_latency_p50_ms"),
        ),
        (
            "token_latency_p95_ms",
            "ms",
            samples.median("token_latency_p95_ms"),
        ),
    ] {
        if !metrics.iter().any(|(n, _, _)| *n == name) {
            metrics.push((name, unit, value));
        }
    }
    Measurement {
        attempted: judge.attempted,
        failed: judge.failed,
        errors: judge.errors,
        metrics,
        digest,
        run_samples: samples.get("run_s").to_vec(),
    }
}

/// The traced measurement. Each lap runs the workload untraced, once more
/// with the tracer flipped (the audit workload without its tracer, the
/// others with a sampled one) to price the obs layer, on the event
/// workload once in lock-step, and once with every seam wrapped. After the
/// deadline the snapshot sequence is replayed through the CSR and
/// stability layers.
fn measure_layers(
    spec: &Spec,
    deadline: Instant,
    judge: &mut Judge<'_>,
    samples: &mut Samples,
) -> Vec<(&'static str, &'static str, f64)> {
    let w = spec.workload;
    let mut obs = None;
    let mut lockstep = None;
    let t = repeat_until(deadline, 1, || {
        let plain = untraced(spec, judge, samples);
        let mut prep = setup(spec);
        let flipped = run_with(
            spec,
            &mut prep.provider,
            &mut prep.protocols,
            &prep.assignment,
            spec.config(),
            !w.is_audit(),
        );
        drop(prep);
        let (on, off) = if w.is_audit() {
            (plain, flipped)
        } else {
            (flipped, plain)
        };
        samples.push("tracer_on_engine_s", on.engine_s);
        samples.push("tracer_off_engine_s", off.engine_s);
        samples.push("obs.serialize_s", on.serialize_s);
        obs = on.obs;
        if w.is_event() {
            let mut prep = setup(spec);
            let out = run_with(
                spec,
                &mut prep.provider,
                &mut prep.protocols,
                &prep.assignment,
                spec.config().mode(ExecMode::Lockstep),
                false,
            );
            samples.push("lockstep_run_s", out.run_s());
            lockstep = Some(out.report.metrics);
        }
        let t = layers::traced_run(spec);
        judge.judge(&t.out, "traced");
        samples.push("traced_engine_s", t.out.engine_s);
        samples.push("dynamics.self_s", t.dynamics_ns as f64 / 1e9);
        samples.push("protocol.send_s", t.protocol.send_ns as f64 / 1e9);
        samples.push("protocol.receive_s", t.protocol.receive_ns as f64 / 1e9);
        samples.push("engine.self_s", t.engine_self_s());
        samples.push("setup.provider_s", t.setup.provider_s);
        samples.push("setup.assignment_s", t.setup.assignment_s);
        samples.push("setup.protocols_s", t.setup.protocols_s);
        t
    });
    let replay = layers::replay(spec, t.rounds, w.is_audit());
    if replay.rebuilds != t.snapshots {
        judge.fail(vec![format!(
            "{}: replay rebuilt {} CSR views but the run saw {} snapshots",
            w.name(),
            replay.rebuilds,
            t.snapshots
        )]);
    }
    let r = &t.out.report;
    let m = &r.metrics;
    let obs = obs.expect("one lap ran");
    let words = spec.k.div_ceil(64) as u64;
    let mut metrics = vec![
        ("dynamics.calls", "count", t.dynamics_calls as f64),
        ("dynamics.snapshots", "count", t.snapshots as f64),
        ("csr.rebuilds", "count", replay.rebuilds as f64),
        ("csr.rebuild_s", "s", replay.rebuild_s),
        ("csr.edges", "count", replay.edges as f64),
        ("protocol.messages", "count", t.protocol.messages as f64),
        ("protocol.deliveries", "count", t.protocol.deliveries as f64),
        (
            "protocol.payload_tokens",
            "count",
            t.protocol.payload_tokens as f64,
        ),
        (
            "protocol.union_words",
            "count",
            (t.protocol.set_deliveries * words) as f64,
        ),
        ("engine.packets", "count", m.packets_sent as f64),
        ("stability.windows", "count", replay.windows as f64),
        (
            "stability.peak_state_bytes",
            "bytes",
            replay.peak_state_bytes as f64,
        ),
        (
            "obs.emit_s",
            "s",
            samples.median("tracer_on_engine_s") - samples.median("tracer_off_engine_s"),
        ),
        ("obs.events", "count", obs.events as f64),
        ("obs.dropped", "count", obs.dropped as f64),
        ("obs.jsonl_bytes", "bytes", obs.jsonl_bytes as f64),
        ("fault.drops", "count", m.faults_injected as f64),
        ("fault.delays", "count", m.delays_injected as f64),
        ("fault.dups", "count", m.duplicates_injected as f64),
        (
            "reliable.retransmits",
            "count",
            m.retransmit_timeouts as f64,
        ),
        ("reliable.dups_discarded", "count", m.dups_discarded as f64),
        (
            "reliable.waste_ratio",
            "ratio",
            (m.retransmit_timeouts + m.dups_discarded) as f64 / m.packets_sent.max(1) as f64,
        ),
        (
            "event.lockstep_ratio",
            "ratio",
            if w.is_event() {
                samples.median("run_s") / samples.median("lockstep_run_s")
            } else {
                0.0
            },
        ),
        (
            "event.reassembly_stalls",
            "count",
            r.wall.reassembly_stalls as f64,
        ),
        (
            "event.mailbox_depth_max",
            "count",
            r.wall.mailbox_depth_max as f64,
        ),
        (
            "trace.overhead_ratio",
            "ratio",
            samples.median("traced_engine_s") / samples.median("engine_s"),
        ),
    ];
    if let Some(l) = lockstep {
        // Same inputs in lock-step: the accounting should match event
        // mode's, and does not under the reliability layer (README.md).
        metrics.push(("event.lockstep_tokens_sent", "count", l.tokens_sent as f64));
        metrics.push((
            "event.lockstep_retransmits",
            "count",
            l.retransmit_timeouts as f64,
        ));
    }
    metrics.push(("stability.push_s", "s", replay.push_s));
    for name in [
        "dynamics.self_s",
        "protocol.send_s",
        "protocol.receive_s",
        "engine.self_s",
        "obs.serialize_s",
        "setup.provider_s",
        "setup.assignment_s",
        "setup.protocols_s",
    ] {
        metrics.push((name, "s", samples.median(name)));
    }
    metrics
}
