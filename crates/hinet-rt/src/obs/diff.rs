//! Structured comparison of two `hinet-trace/v1` artifacts — a behavioural
//! regression gate.
//!
//! Two traces of the same seeded scenario must be *identical*: every
//! provider, protocol and RNG in the workspace is deterministic in the
//! scenario seed. [`diff_traces`] exploits that to turn "did this change
//! alter Algorithm 1's behaviour?" into an exact question, answered at
//! three severities:
//!
//! * **[`Severity::Meta`]** — the traces describe different scenarios
//!   (algorithm, dynamics, `n`/`k`/`α`/`L`/`θ`, seed, cost weights). A meta
//!   divergence usually means the comparison itself is misconfigured.
//! * **[`Severity::Counter`]** — the exact header counters differ: rounds,
//!   phases, tokens/packets/bytes sent, per-role token splits,
//!   re-affiliations. Counters survive sampling and ring eviction, so this
//!   tier is meaningful for *any* pair of traces.
//! * **[`Severity::Event`]** — the recorded event streams differ: the first
//!   diverging round is named with a bounded context window of surrounding
//!   events, and the per-phase round counts, per-kind event tallies and
//!   stability-window verdicts are compared structurally.
//!
//! Event-severity comparison is guarded: if either trace has `dropped > 0`
//! or the two were captured at different [`ObsMode`](super::ObsMode)s /
//! sample rates, the
//! event streams are not comparable (a sampled stream would produce
//! spurious divergences), so the diff *downgrades to counters-only* and
//! says so loudly in [`DiffReport::downgrade`] rather than reporting noise.
//!
//! ```
//! use hinet_rt::obs::{ObsConfig, ParsedTrace, Role, Tracer};
//! use hinet_rt::obs::diff::{diff_traces, DiffConfig, Severity};
//!
//! let trace = |seed: u64| {
//!     let mut t = Tracer::new(ObsConfig::full());
//!     t.meta("seed", seed.to_string());
//!     t.round_start(0);
//!     t.token_push(0, seed, 9, 1, Role::Member, 0, 40);
//!     t.run_end(1, true);
//!     ParsedTrace::parse_jsonl(&t.to_jsonl()).unwrap()
//! };
//! let (a, b) = (trace(1), trace(2));
//! assert!(diff_traces(&a, &a, &DiffConfig::default()).is_empty());
//! let d = diff_traces(&a, &b, &DiffConfig::default());
//! assert!(!d.is_empty());
//! assert!(d.divergences.iter().any(|v| v.severity == Severity::Meta));
//! assert!(d.divergences.iter().any(|v| v.severity == Severity::Event));
//! ```

use super::{Counters, ParsedTrace, TraceEvent, TraceSummary};
use crate::bench::json::Json;

/// Diff artifact schema identifier (the `hinet trace --diff --json` output).
pub const DIFF_SCHEMA: &str = "hinet-trace-diff/v1";

/// How serious a divergence is — ordered from configuration-level to
/// behaviour-level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The traces describe different scenarios (header metadata mismatch).
    Meta,
    /// The exact header counters differ.
    Counter,
    /// The recorded event streams differ.
    Event,
}

impl Severity {
    /// Stable wire name (`"meta"` / `"counter"` / `"event"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Meta => "meta",
            Severity::Counter => "counter",
            Severity::Event => "event",
        }
    }
}

/// One observed difference between the two traces.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// Which tier the difference was found at.
    pub severity: Severity,
    /// Dotted path of the differing field (`"meta.seed"`,
    /// `"counters.tokens_sent"`, `"events.stream"`, …).
    pub field: String,
    /// Rendered value on side A (`"(absent)"` when the side lacks it).
    pub a: String,
    /// Rendered value on side B.
    pub b: String,
    /// One-sentence human description of the difference.
    pub detail: String,
}

/// Knobs for [`diff_traces`].
#[derive(Clone, Copy, Debug)]
pub struct DiffConfig {
    /// Skip the meta tier (compare behaviour across deliberately different
    /// scenario stamps, e.g. renamed metadata keys).
    pub ignore_meta: bool,
    /// Skip the counter tier.
    pub ignore_counters: bool,
    /// Skip the event tier.
    pub ignore_events: bool,
    /// Cap on reported divergences; the overflow is counted in
    /// [`DiffReport::truncated`], never silently dropped.
    pub max_divergences: usize,
    /// Events of context shown on each side of the first diverging event.
    pub context: usize,
}

impl Default for DiffConfig {
    fn default() -> DiffConfig {
        DiffConfig {
            ignore_meta: false,
            ignore_counters: false,
            ignore_events: false,
            max_divergences: 16,
            context: 3,
        }
    }
}

impl DiffConfig {
    /// Parse a comma-separated `--ignore` value (`"meta"`, `"counters"`,
    /// `"events"`, or any comma-joined combination) onto this config.
    pub fn with_ignores(mut self, spec: &str) -> Result<DiffConfig, String> {
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            match part {
                "meta" => self.ignore_meta = true,
                "counters" => self.ignore_counters = true,
                "events" => self.ignore_events = true,
                other => {
                    return Err(format!(
                        "unknown --ignore tier '{other}' (expected meta, counters or events)"
                    ))
                }
            }
        }
        Ok(self)
    }
}

/// Result of [`diff_traces`]: the divergence list plus the event-stream
/// localisation (first diverging round, context windows) and the guard
/// verdict.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DiffReport {
    /// Divergences in severity order (meta, then counters, then events),
    /// capped at [`DiffConfig::max_divergences`].
    pub divergences: Vec<Divergence>,
    /// Divergences suppressed by the cap.
    pub truncated: usize,
    /// When `Some`, event-severity comparison was skipped (incomplete or
    /// incomparably-sampled streams) and the reason is given — the
    /// counters-only downgrade of the correctness guard.
    pub downgrade: Option<String>,
    /// Round of the first diverging event, when the streams diverge.
    pub first_diverging_round: Option<u64>,
    /// Rendered events around the first divergence on side A.
    pub context_a: Vec<String>,
    /// Rendered events around the first divergence on side B.
    pub context_b: Vec<String>,
}

impl DiffReport {
    /// Whether the traces are identical at every compared tier. A
    /// counters-only downgrade does not by itself make a diff non-empty.
    pub fn is_empty(&self) -> bool {
        self.divergences.is_empty() && self.truncated == 0
    }

    /// Count of divergences at one severity (within the cap).
    pub fn count_at(&self, severity: Severity) -> usize {
        self.divergences
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Render the human-readable report.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        if let Some(reason) = &self.downgrade {
            out.push_str(&format!(
                "WARNING: event streams not compared ({reason}); diff downgraded to counters-only\n"
            ));
        }
        if self.is_empty() {
            out.push_str("traces are behaviourally identical (0 divergences)\n");
            return out;
        }
        out.push_str(&format!(
            "{} divergence(s): {} meta, {} counter, {} event",
            self.divergences.len() + self.truncated,
            self.count_at(Severity::Meta),
            self.count_at(Severity::Counter),
            self.count_at(Severity::Event),
        ));
        if self.truncated > 0 {
            out.push_str(&format!(" (+{} beyond --max-divergences)", self.truncated));
        }
        out.push('\n');
        for d in &self.divergences {
            out.push_str(&format!(
                "  [{:<7}] {}: a={}  b={}  ({})\n",
                d.severity.as_str(),
                d.field,
                d.a,
                d.b,
                d.detail
            ));
        }
        if let Some(round) = self.first_diverging_round {
            out.push_str(&format!("first diverging round: {round}\n"));
            if !self.context_a.is_empty() || !self.context_b.is_empty() {
                out.push_str("context A:\n");
                for line in &self.context_a {
                    out.push_str(&format!("    {line}\n"));
                }
                out.push_str("context B:\n");
                for line in &self.context_b {
                    out.push_str(&format!("    {line}\n"));
                }
            }
        }
        out
    }

    /// Render the machine-readable [`DIFF_SCHEMA`] (`hinet-trace-diff/v1`)
    /// JSON document.
    pub fn to_json(&self) -> String {
        let divergences = self
            .divergences
            .iter()
            .map(|d| {
                Json::Obj(vec![
                    ("severity".into(), Json::Str(d.severity.as_str().into())),
                    ("field".into(), Json::Str(d.field.clone())),
                    ("a".into(), Json::Str(d.a.clone())),
                    ("b".into(), Json::Str(d.b.clone())),
                    ("detail".into(), Json::Str(d.detail.clone())),
                ])
            })
            .collect();
        let strings = |v: &[String]| Json::Arr(v.iter().map(|s| Json::Str(s.clone())).collect());
        Json::Obj(vec![
            ("schema".into(), Json::Str(DIFF_SCHEMA.into())),
            ("equal".into(), Json::Bool(self.is_empty())),
            (
                "downgrade".into(),
                match &self.downgrade {
                    Some(r) => Json::Str(r.clone()),
                    None => Json::Null,
                },
            ),
            (
                "first_diverging_round".into(),
                match self.first_diverging_round {
                    Some(r) => Json::Num(r as f64),
                    None => Json::Null,
                },
            ),
            ("truncated".into(), Json::Num(self.truncated as f64)),
            ("divergences".into(), Json::Arr(divergences)),
            (
                "context".into(),
                Json::Obj(vec![
                    ("a".into(), strings(&self.context_a)),
                    ("b".into(), strings(&self.context_b)),
                ]),
            ),
        ])
        .pretty()
    }
}

/// Compare two parsed traces at the three severities (see the module docs).
///
/// Alignment is by scenario metadata: the meta tier reports every key whose
/// value differs (or that only one side carries), so comparing traces of
/// different scenarios or seeds fails loudly at [`Severity::Meta`] before
/// the behavioural tiers are even read.
pub fn diff_traces(a: &ParsedTrace, b: &ParsedTrace, cfg: &DiffConfig) -> DiffReport {
    let mut report = DiffReport::default();
    if !cfg.ignore_meta {
        diff_meta(a, b, &mut report);
    }
    if !cfg.ignore_counters {
        diff_counters(&a.counters, &b.counters, &mut report);
    }
    if !cfg.ignore_events {
        match event_guard(a, b) {
            Err(reason) => report.downgrade = Some(reason),
            Ok(()) => diff_events(a, b, cfg, &mut report),
        }
    }
    if report.divergences.len() > cfg.max_divergences {
        report.truncated = report.divergences.len() - cfg.max_divergences;
        report.divergences.truncate(cfg.max_divergences);
    }
    report
}

/// The correctness guard for event-severity diffing: both streams must be
/// complete records captured the same way.
fn event_guard(a: &ParsedTrace, b: &ParsedTrace) -> Result<(), String> {
    if a.dropped > 0 || b.dropped > 0 {
        return Err(format!(
            "incomplete event stream (dropped: a={}, b={}); ring-evicted traces cannot be \
             compared event-by-event",
            a.dropped, b.dropped
        ));
    }
    if a.mode != b.mode {
        return Err(format!(
            "traces captured at different recording modes (a={}, b={}); sampled streams thin \
             data events differently",
            a.mode.wire(),
            b.mode.wire()
        ));
    }
    Ok(())
}

fn push(
    report: &mut DiffReport,
    severity: Severity,
    field: &str,
    a: String,
    b: String,
    detail: String,
) {
    report.divergences.push(Divergence {
        severity,
        field: field.to_string(),
        a,
        b,
        detail,
    });
}

fn diff_meta(a: &ParsedTrace, b: &ParsedTrace, report: &mut DiffReport) {
    // Union of keys in side-A order, then keys only B carries.
    let mut keys: Vec<&str> = a.meta.iter().map(|(k, _)| k.as_str()).collect();
    for (k, _) in &b.meta {
        if !keys.contains(&k.as_str()) {
            keys.push(k);
        }
    }
    for key in keys {
        let (va, vb) = (a.meta_get(key), b.meta_get(key));
        if va != vb {
            push(
                report,
                Severity::Meta,
                &format!("meta.{key}"),
                va.unwrap_or("(absent)").to_string(),
                vb.unwrap_or("(absent)").to_string(),
                "scenario metadata mismatch — the traces may describe different runs".into(),
            );
        }
    }
}

fn diff_counters(a: &Counters, b: &Counters, report: &mut DiffReport) {
    let mut check = |field: &str, va: u64, vb: u64, what: &str| {
        if va != vb {
            push(
                report,
                Severity::Counter,
                field,
                va.to_string(),
                vb.to_string(),
                format!("{what} differ"),
            );
        }
    };
    check("counters.rounds", a.rounds, b.rounds, "rounds executed");
    check("counters.phases", a.phases, b.phases, "phases started");
    check(
        "counters.tokens_sent",
        a.tokens_sent,
        b.tokens_sent,
        "tokens sent",
    );
    check(
        "counters.packets_sent",
        a.packets_sent,
        b.packets_sent,
        "packets sent",
    );
    check(
        "counters.bytes_sent",
        a.bytes_sent,
        b.bytes_sent,
        "bytes on air",
    );
    check(
        "counters.reaffiliations",
        a.reaffiliations,
        b.reaffiliations,
        "re-affiliations",
    );
    check(
        "counters.faults_injected",
        a.faults_injected,
        b.faults_injected,
        "fault-dropped deliveries",
    );
    check("counters.crashes", a.crashes, b.crashes, "node crashes");
    check(
        "counters.recoveries",
        a.recoveries,
        b.recoveries,
        "node recoveries",
    );
    check(
        "counters.retransmits",
        a.retransmits,
        b.retransmits,
        "recovery retransmissions",
    );
    for (slot, role) in ["head", "gateway", "member"].iter().enumerate() {
        check(
            &format!("counters.tokens_by_role.{role}"),
            a.tokens_by_role[slot],
            b.tokens_by_role[slot],
            &format!("tokens sent by {role}s"),
        );
    }
}

fn render_event(te: &TraceEvent) -> String {
    format!("r={} {:?}", te.round, te.event)
}

fn render_counts(v: &[u64]) -> String {
    let parts: Vec<String> = v.iter().map(u64::to_string).collect();
    format!("[{}]", parts.join(", "))
}

fn diff_events(a: &ParsedTrace, b: &ParsedTrace, cfg: &DiffConfig, report: &mut DiffReport) {
    let (sa, sb) = (TraceSummary::from_trace(a), TraceSummary::from_trace(b));

    // Per-phase round counts (the ROADMAP's first trace-diff ask).
    if sa.per_phase_rounds != sb.per_phase_rounds {
        let first = sa
            .per_phase_rounds
            .iter()
            .zip(&sb.per_phase_rounds)
            .position(|(x, y)| x != y)
            .unwrap_or_else(|| sa.per_phase_rounds.len().min(sb.per_phase_rounds.len()));
        push(
            report,
            Severity::Event,
            "events.per_phase_rounds",
            render_counts(&sa.per_phase_rounds),
            render_counts(&sb.per_phase_rounds),
            format!("per-phase round counts first differ at phase {first}"),
        );
    }

    // Per-kind event tallies (pushes vs broadcasts vs structural events).
    let kinds: std::collections::BTreeSet<&str> = sa
        .events_by_kind
        .keys()
        .chain(sb.events_by_kind.keys())
        .copied()
        .collect();
    for kind in kinds {
        let (na, nb) = (
            sa.events_by_kind.get(kind).copied().unwrap_or(0),
            sb.events_by_kind.get(kind).copied().unwrap_or(0),
        );
        if na != nb {
            push(
                report,
                Severity::Event,
                &format!("events.kind.{kind}"),
                na.to_string(),
                nb.to_string(),
                format!("recorded {kind} event counts differ"),
            );
        }
    }

    // Stability-window verdicts, per definition.
    let defs: std::collections::BTreeSet<u8> = sa
        .windows_held
        .keys()
        .chain(sb.windows_held.keys())
        .copied()
        .collect();
    for def in defs {
        let (wa, wb) = (
            sa.windows_held.get(&def).copied().unwrap_or((0, 0)),
            sb.windows_held.get(&def).copied().unwrap_or((0, 0)),
        );
        if wa != wb {
            push(
                report,
                Severity::Event,
                &format!("events.stability.def{def}"),
                format!("{}/{}", wa.0, wa.1),
                format!("{}/{}", wb.0, wb.1),
                format!("stability windows held/broke differ for Definition {def}"),
            );
        }
    }

    // First diverging event, with a bounded context window on both sides.
    let common = a.events.len().min(b.events.len());
    let split = (0..common)
        .find(|&i| a.events[i] != b.events[i])
        .or_else(|| (a.events.len() != b.events.len()).then_some(common));
    if let Some(i) = split {
        let ea = a.events.get(i);
        let eb = b.events.get(i);
        let round = ea.or(eb).map(|te| te.round);
        report.first_diverging_round = round;
        let window = |events: &[TraceEvent]| -> Vec<String> {
            let lo = i.saturating_sub(cfg.context);
            let hi = (i + cfg.context + 1).min(events.len());
            events[lo..hi].iter().map(render_event).collect()
        };
        report.context_a = window(&a.events);
        report.context_b = window(&b.events);
        push(
            report,
            Severity::Event,
            "events.stream",
            ea.map_or("(stream ended)".into(), render_event),
            eb.map_or("(stream ended)".into(), render_event),
            format!(
                "event streams first diverge at event {i} (round {}); lengths a={} b={}",
                round.map_or("?".into(), |r| r.to_string()),
                a.events.len(),
                b.events.len()
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{Event, ObsConfig, ObsMode, Role, Tracer};

    fn sample_trace(seed: u64) -> ParsedTrace {
        let mut t = Tracer::new(ObsConfig::full());
        t.meta("algorithm", "alg1");
        t.meta("seed", seed.to_string());
        t.set_phase_len(2);
        for round in 0..4 {
            t.round_start(round);
            t.token_push(round, seed + round, round, 1, Role::Member, 0, 40);
            t.head_broadcast(round, 0, round, 1, Role::Head, 40);
        }
        t.stability_window(0, 8, true, true);
        t.stability_window(3, 8, false, true);
        t.run_end(4, true);
        ParsedTrace::parse_jsonl(&t.to_jsonl()).unwrap()
    }

    #[test]
    fn identical_traces_diff_empty() {
        let a = sample_trace(1);
        let d = diff_traces(&a, &a.clone(), &DiffConfig::default());
        assert!(d.is_empty(), "{}", d.to_text());
        assert!(d.downgrade.is_none());
        assert!(d.to_text().contains("behaviourally identical"));
        assert!(d.to_json().contains("\"equal\": true"));
    }

    #[test]
    fn meta_mismatch_reported_at_meta_severity() {
        let a = sample_trace(1);
        let mut b = a.clone();
        b.meta = vec![
            ("algorithm".into(), "alg2".into()),
            ("seed".into(), "1".into()),
            ("extra".into(), "x".into()),
        ];
        let d = diff_traces(&a, &b, &DiffConfig::default());
        assert_eq!(d.count_at(Severity::Meta), 2, "{}", d.to_text());
        assert!(d
            .divergences
            .iter()
            .any(|v| v.field == "meta.algorithm" && v.a == "alg1" && v.b == "alg2"));
        assert!(d
            .divergences
            .iter()
            .any(|v| v.field == "meta.extra" && v.a == "(absent)"));
        // Ignoring the meta tier hides exactly those divergences.
        let cfg = DiffConfig::default().with_ignores("meta").unwrap();
        assert!(diff_traces(&a, &b, &cfg).is_empty());
    }

    #[test]
    fn counter_bump_reported_at_counter_severity() {
        let a = sample_trace(1);
        let mut b = a.clone();
        b.counters.tokens_sent += 1;
        b.counters.tokens_by_role[2] += 1;
        let d = diff_traces(&a, &b, &DiffConfig::default());
        assert_eq!(d.count_at(Severity::Counter), 2, "{}", d.to_text());
        assert_eq!(d.count_at(Severity::Event), 0, "counters alone changed");
        assert!(d
            .divergences
            .iter()
            .any(|v| v.field == "counters.tokens_by_role.member"));
    }

    #[test]
    fn dropped_event_localises_first_diverging_round() {
        let a = sample_trace(1);
        let mut b = a.clone();
        // Drop the round-2 token push (a data event: counters keep claiming
        // it, only the stream thins).
        let victim = b
            .events
            .iter()
            .position(|te| te.round == 2 && matches!(te.event, Event::TokenPush { .. }))
            .unwrap();
        b.events.remove(victim);
        let d = diff_traces(&a, &b, &DiffConfig::default());
        assert!(!d.is_empty());
        assert_eq!(d.count_at(Severity::Meta), 0);
        assert_eq!(d.count_at(Severity::Counter), 0);
        assert!(d.count_at(Severity::Event) >= 2, "{}", d.to_text());
        assert_eq!(d.first_diverging_round, Some(2));
        assert!(!d.context_a.is_empty() && !d.context_b.is_empty());
        assert!(d.to_text().contains("first diverging round: 2"));
    }

    #[test]
    fn reordered_events_detected_with_equal_tallies() {
        let a = sample_trace(1);
        let mut b = a.clone();
        // Swap a push and a broadcast within round 1: tallies and counters
        // stay equal, only the order changed.
        let i = b
            .events
            .iter()
            .position(|te| te.round == 1 && matches!(te.event, Event::TokenPush { .. }))
            .unwrap();
        b.events.swap(i, i + 1);
        let d = diff_traces(&a, &b, &DiffConfig::default());
        assert_eq!(d.count_at(Severity::Event), 1, "{}", d.to_text());
        assert_eq!(d.first_diverging_round, Some(1));
    }

    #[test]
    fn guard_downgrades_on_drops_and_mode_mismatch() {
        let a = sample_trace(1);
        let mut b = sample_trace(2);
        b.dropped = 5;
        let d = diff_traces(&a, &b, &DiffConfig::default());
        assert!(d.downgrade.is_some());
        assert_eq!(d.count_at(Severity::Event), 0, "{}", d.to_text());
        assert!(d.count_at(Severity::Meta) > 0, "meta tier still compared");
        assert!(d.to_text().contains("WARNING"));

        let mut c = sample_trace(1);
        c.mode = ObsMode::Sampled(10);
        let d = diff_traces(&a, &c, &DiffConfig::default());
        assert!(d.downgrade.unwrap().contains("sampled:10"));

        // Same sampling rate on both sides is comparable.
        let mut a2 = sample_trace(1);
        a2.mode = ObsMode::Sampled(10);
        let d = diff_traces(&a2, &c, &DiffConfig::default());
        assert!(d.downgrade.is_none());
    }

    #[test]
    fn max_divergences_caps_and_counts_overflow() {
        let a = sample_trace(1);
        let b = sample_trace(2); // different pushes in every round + seed meta
        let cfg = DiffConfig {
            max_divergences: 1,
            ..DiffConfig::default()
        };
        let d = diff_traces(&a, &b, &cfg);
        assert_eq!(d.divergences.len(), 1);
        assert!(d.truncated > 0);
        assert!(!d.is_empty());
        assert!(d.to_text().contains("beyond --max-divergences"));
    }

    #[test]
    fn json_report_round_trips_through_the_parser() {
        let a = sample_trace(1);
        let b = sample_trace(2);
        let text = diff_traces(&a, &b, &DiffConfig::default()).to_json();
        let v = Json::parse(&text).unwrap();
        assert_eq!(v.get("schema").and_then(Json::as_str), Some(DIFF_SCHEMA));
        assert_eq!(v.get("equal"), Some(&Json::Bool(false)));
        let divs = v.get("divergences").and_then(Json::as_arr).unwrap();
        assert!(!divs.is_empty());
        for d in divs {
            assert!(d.get("severity").and_then(Json::as_str).is_some());
            assert!(d.get("field").and_then(Json::as_str).is_some());
        }
    }

    #[test]
    fn ignore_spec_parses_and_rejects() {
        let cfg = DiffConfig::default()
            .with_ignores("meta, counters")
            .unwrap();
        assert!(cfg.ignore_meta && cfg.ignore_counters && !cfg.ignore_events);
        assert!(DiffConfig::default().with_ignores("bogus").is_err());
    }

    #[test]
    fn severity_wire_names_are_stable() {
        assert_eq!(Severity::Meta.as_str(), "meta");
        assert_eq!(Severity::Counter.as_str(), "counter");
        assert_eq!(Severity::Event.as_str(), "event");
    }
}
