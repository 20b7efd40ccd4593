//! Seeded adversarial scenario fuzzer with auto-shrinking regression
//! corpus (`hinet fuzz`).
//!
//! The golden-trace gate pins *known* scenarios; this module hunts for
//! unknown ones. Starting from a base [`Scenario`], [`fuzz`] applies
//! seeded mutations — node count, `(k, α, L, θ)` parameters, fault rates,
//! crash schedules, partition windows, head targeting, round budget,
//! delivery pathologies (delay, duplication, reorder) and the generalised
//! reliability layer —
//! executes each mutant through the ordinary [`Scenario::run_traced`]
//! path, and classifies the result against a bound oracle
//! ([`analytic_bound`]: the paper's Theorem 1–4 round counts) plus the
//! engine's structured [`Outcome`]:
//!
//! * [`Class::Completed`] — done within the analytic bound (or no bound
//!   applies).
//! * [`Class::BoundExceeded`] — completed, but later than the theorem
//!   for an assumption-satisfying fault-free scenario allows.
//! * [`Class::Stalled`] — incomplete with no fault ever injected.
//! * [`Class::AssumptionViolated`] — incomplete after the fault plane
//!   broke a paper assumption (def 1 delivery / def 2 backbone).
//!
//! Every offender (anything not `Completed`) is auto-shrunk by greedy
//! per-field minimisation toward the base scenario ([`shrink`]) while
//! preserving its classification, then archived as a replayable
//! [`ScenarioFile`] carrying an `expect_outcome` stamp. The archived
//! corpus (`tests/corpus/`, next to `tests/golden/`) is replayed by
//! [`replay_corpus`] — the ci.sh corpus gate — which requires every
//! recorded classification to reproduce verbatim.
//!
//! Everything is deterministic in the fuzz seed: mutation draws come from
//! the in-tree [`Xoshiro256StarStar`] stream, scenario execution is
//! deterministic by construction, and the shrinker is a pure function of
//! (offender, base). The same `hinet fuzz --seed S` finds, shrinks and
//! archives byte-identical offenders on every machine.

use crate::knobs::{self, Field};
use crate::scenario::{Scenario, ScenarioFile};
use hinet_core::params::{alg1_plan, alg2_rounds_1interval, klo_plan, remark1_phases};
use hinet_rt::obs::Tracer;
use hinet_rt::rng::{mix, Rng, Xoshiro256StarStar};
use hinet_sim::engine::Outcome;
use std::fmt;
use std::path::{Path, PathBuf};

/// Outcome classification of one scenario execution. The `Display` form
/// is what `expect_outcome` records in archived scenario files; replay
/// compares it byte-for-byte.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Class {
    /// Completed within the analytic bound (or no bound applies).
    Completed {
        /// 1-based completion round.
        round: usize,
    },
    /// Completed, but needed more rounds than the paper's bound for this
    /// (algorithm, dynamics) pair allows. Only reported for fault-free
    /// scenarios on the assumption-satisfying dynamics (see
    /// [`analytic_bound`]).
    BoundExceeded {
        /// 1-based completion round.
        round: usize,
        /// The analytic bound it exceeded.
        bound: usize,
    },
    /// Incomplete with no fault ever injected.
    Stalled {
        /// Whether the round budget ended the run (`false`: every
        /// protocol went quiescent first).
        budget_exhausted: bool,
    },
    /// Incomplete after injected faults broke a paper assumption.
    AssumptionViolated {
        /// `1` = per-round delivery (loss only), `2` = backbone
        /// stability (crashes or partitions fired).
        def: u8,
    },
}

impl Class {
    /// Short kind tag (`completed`, `bound-exceeded`, `stalled`,
    /// `assumption-violated`) — used for corpus file names.
    pub fn kind(&self) -> &'static str {
        match self {
            Class::Completed { .. } => "completed",
            Class::BoundExceeded { .. } => "bound-exceeded",
            Class::Stalled { .. } => "stalled",
            Class::AssumptionViolated { .. } => "assumption-violated",
        }
    }

    /// Whether this classification makes the scenario an offender worth
    /// shrinking and archiving.
    pub fn is_offender(&self) -> bool {
        !matches!(self, Class::Completed { .. })
    }

    /// The invariant the shrinker preserves: the kind plus its
    /// qualitative parameters (violated definition, stall mode) — but not
    /// quantitative ones like the completion round, which legitimately
    /// move while shrinking.
    pub fn shrink_key(&self) -> String {
        match self {
            Class::Completed { .. } => "completed".into(),
            Class::BoundExceeded { .. } => "bound-exceeded".into(),
            Class::Stalled { budget_exhausted } => format!("stalled:{budget_exhausted}"),
            Class::AssumptionViolated { def } => format!("assumption-violated:{def}"),
        }
    }
}

impl fmt::Display for Class {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Class::Completed { round } => write!(f, "completed (round {round})"),
            Class::BoundExceeded { round, bound } => {
                write!(f, "bound-exceeded (round {round}, bound {bound})")
            }
            Class::Stalled { budget_exhausted } => write!(
                f,
                "stalled ({})",
                if *budget_exhausted {
                    "budget exhausted"
                } else {
                    "quiescent"
                }
            ),
            Class::AssumptionViolated { def } => write!(f, "assumption-violated (def {def})"),
        }
    }
}

/// The paper's analytic round bound for a scenario, when one applies: the
/// scenario must be fault-free (bounds assume perfect delivery and a
/// stable backbone) and pair the algorithm with the dynamics model that
/// satisfies its connectivity assumption.
///
/// * `alg1` / `remark1` on `hinet` — Theorem 1 / Remark 1: `M·T` rounds.
/// * `alg2` / `alg2-mh` on `hinet` — Theorem 2: `n − 1` rounds.
/// * `klo-phased` on `flat-t` — the Table 2 charge: `⌈n/(αL)⌉·T` rounds.
/// * `klo-flood` on `flat-1` — 1-interval flooding: `n − 1` rounds.
pub fn analytic_bound(sc: &Scenario) -> Option<usize> {
    if !sc.fault_plan().is_trivial() {
        return None;
    }
    match (sc.algorithm.as_str(), sc.dynamics.as_str()) {
        ("alg1", "hinet") => Some(alg1_plan(sc.k, sc.alpha, sc.l, sc.theta).total_rounds()),
        ("remark1", "hinet") => Some(sc.t() * remark1_phases(sc.theta, sc.alpha)),
        ("alg2", "hinet") | ("alg2-mh", "hinet") => Some(alg2_rounds_1interval(sc.n)),
        ("klo-phased", "flat-t") => Some(klo_plan(sc.k, sc.alpha, sc.l, sc.n).total_rounds()),
        ("klo-flood", "flat-1") => Some(alg2_rounds_1interval(sc.n)),
        _ => None,
    }
}

/// Execute a scenario (untraced) and classify the result (see [`Class`]).
pub fn classify(sc: &Scenario) -> Result<Class, String> {
    let report = sc.run_traced(&mut Tracer::disabled())?;
    Ok(match report.outcome {
        Outcome::Completed { round } => match analytic_bound(sc) {
            Some(bound) if round > bound => Class::BoundExceeded { round, bound },
            _ => Class::Completed { round },
        },
        Outcome::Stalled {
            budget_exhausted, ..
        } => Class::Stalled { budget_exhausted },
        Outcome::AssumptionViolated { def, .. } => Class::AssumptionViolated { def },
    })
}

/// Fuzzer configuration; see [`fuzz`].
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Seed of the mutation stream. The whole campaign is deterministic
    /// in this value (and the base scenario).
    pub seed: u64,
    /// How many mutated scenarios to execute.
    pub cases: usize,
    /// The scenario mutations start from; also the shrink target.
    pub base: Scenario,
    /// Archive directory for shrunk offenders (`None`: classify and
    /// shrink but write nothing).
    pub archive_dir: Option<PathBuf>,
    /// Stop shrinking/archiving after this many distinct offenders
    /// (classification tallies still cover all cases).
    pub max_offenders: usize,
}

impl FuzzConfig {
    /// A small, fast base scenario tuned for fuzzing: `alg1` on `hinet`
    /// with `n=20`, `k=3`, `α=2`, `L=2`, `θ=7`, completing in well under
    /// a hundred rounds so thousands of mutants stay cheap.
    pub fn default_base() -> Scenario {
        let mut base = Scenario {
            n: 20,
            k: 3,
            alpha: 2,
            l: 2,
            theta: 7,
            ..Scenario::defaults()
        };
        base.budget = base.derived_budget();
        base
    }
}

/// One shrunk, classified offender from a fuzz campaign.
#[derive(Clone, Debug)]
pub struct Offender {
    /// Zero-based index of the case that found it.
    pub case: usize,
    /// The shrunk scenario.
    pub scenario: Scenario,
    /// Classification of the shrunk scenario (re-verified after
    /// shrinking).
    pub class: Class,
    /// Accepted shrink steps between the found mutant and the archived
    /// minimum.
    pub shrink_steps: usize,
    /// Where it was archived, when an archive directory was configured.
    pub path: Option<PathBuf>,
    /// Whether this run wrote the file (`false`: an identical offender
    /// was already archived).
    pub newly_archived: bool,
}

/// Summary of a fuzz campaign; render with [`FuzzReport::to_text`].
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Cases executed.
    pub cases: usize,
    /// Cases classified `Completed`.
    pub completed: usize,
    /// Cases classified `BoundExceeded`.
    pub bound_exceeded: usize,
    /// Cases classified `Stalled`.
    pub stalled: usize,
    /// Cases classified `AssumptionViolated`.
    pub violated: usize,
    /// Shrunk offenders, in discovery order (deduplicated by shrunk
    /// scenario, capped at [`FuzzConfig::max_offenders`]).
    pub offenders: Vec<Offender>,
}

impl FuzzReport {
    /// Human-readable campaign summary (deterministic: no timing, no
    /// absolute paths beyond the configured archive directory).
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "classified {} cases: {} completed, {} bound-exceeded, {} stalled, \
             {} assumption-violated\n",
            self.cases, self.completed, self.bound_exceeded, self.stalled, self.violated
        );
        if self.offenders.is_empty() {
            out.push_str("no offenders found\n");
        }
        for o in &self.offenders {
            let sc = &o.scenario;
            out.push_str(&format!(
                "offender (case {}): {} — {} on {} n={} k={} α={} L={} θ={} seed={} \
                 [shrunk in {} steps]\n",
                o.case,
                o.class,
                sc.algorithm,
                sc.dynamics,
                sc.n,
                sc.k,
                sc.alpha,
                sc.l,
                sc.theta,
                sc.seed,
                o.shrink_steps,
            ));
            if let Some(path) = &o.path {
                out.push_str(&format!(
                    "  archived: {} ({})\n",
                    path.display(),
                    if o.newly_archived {
                        "new"
                    } else {
                        "already known"
                    }
                ));
            }
        }
        out
    }
}

/// FNV-1a over the rendered scenario — the stable fingerprint in corpus
/// file names.
fn fingerprint(text: &str) -> u32 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h ^ (h >> 32)) as u32
}

/// Run a seeded fuzz campaign (see the module docs). Deterministic in
/// `cfg`: the same configuration produces the same report, the same
/// shrunk offenders and the same archive file names on every run.
pub fn fuzz(cfg: &FuzzConfig) -> Result<FuzzReport, String> {
    cfg.base.validate()?;
    let mut rng = Xoshiro256StarStar::seed_from_u64(mix(cfg.seed, 0x4655_5a5a)); // "FUZZ"
    let mut report = FuzzReport {
        cases: cfg.cases,
        ..FuzzReport::default()
    };
    let mut seen: Vec<String> = Vec::new();
    for case in 0..cfg.cases {
        let mutant = mutate(&cfg.base, &mut rng);
        let class = classify(&mutant)?;
        match class {
            Class::Completed { .. } => report.completed += 1,
            Class::BoundExceeded { .. } => report.bound_exceeded += 1,
            Class::Stalled { .. } => report.stalled += 1,
            Class::AssumptionViolated { .. } => report.violated += 1,
        }
        if !class.is_offender() || report.offenders.len() >= cfg.max_offenders {
            continue;
        }
        let (shrunk, shrink_steps) = shrink(&mutant, &cfg.base, &class.shrink_key())?;
        let class = classify(&shrunk)?;
        let file = ScenarioFile {
            scenario: shrunk.clone(),
            expect: Some(class.to_string()),
        };
        let rendered = file.render();
        if seen.contains(&rendered) {
            continue;
        }
        seen.push(rendered.clone());
        let mut offender = Offender {
            case,
            scenario: shrunk,
            class: class.clone(),
            shrink_steps,
            path: None,
            newly_archived: false,
        };
        if let Some(dir) = &cfg.archive_dir {
            let name = format!("{}-{:08x}.scenario", class.kind(), fingerprint(&rendered));
            let path = dir.join(name);
            if !path.exists() {
                file.save(&path)?;
                offender.newly_archived = true;
            }
            offender.path = Some(path);
        }
        report.offenders.push(offender);
    }
    Ok(report)
}

/// Apply 1–3 seeded mutation operators to a copy of `base`, retrying
/// (deterministically) until the mutant validates. Falls back to the base
/// itself if 64 attempts all produce invalid combinations.
pub fn mutate(base: &Scenario, rng: &mut Xoshiro256StarStar) -> Scenario {
    for _ in 0..64 {
        let mut sc = base.clone();
        for _ in 0..1 + rng.random_range(0usize..3) {
            mutate_op(&mut sc, rng, base);
        }
        normalise(&mut sc);
        if sc.validate().is_ok() {
            return sc;
        }
    }
    base.clone()
}

/// One mutation operator: a knob drawn by its slot (see
/// [`knobs::Knob::slot`]), mutated by its table row.
fn mutate_op(sc: &mut Scenario, rng: &mut Xoshiro256StarStar, base: &Scenario) {
    let fuzzed = knobs::fuzzed();
    fuzzed[rng.random_range(0..fuzzed.len())].apply_mutation(sc, rng, base);
}

/// Restore the invariants a mutation may have broken: clamp θ into
/// `1..=n`, and drop fault entries that fell outside the (possibly
/// shrunk) node range.
fn normalise(sc: &mut Scenario) {
    sc.theta = sc.theta.clamp(1, sc.n);
    let n = sc.n;
    sc.crash_at.retain(|&(_, node)| node < n);
    sc.partitions.retain(|p| p.cut >= 1 && p.cut < n);
    sc.budget = sc.budget.max(1);
    sc.max_delay = sc.max_delay.max(1);
    if sc.delay_ppm == 0 {
        sc.max_delay = 1;
    }
    if sc.reliable {
        // The generalised layer supersedes the HiNet-only ARQ wrapper and
        // needs a pathology to recover from.
        sc.retransmit = false;
        if sc.loss_ppm == 0 && sc.delay_ppm == 0 {
            sc.reliable = false;
        }
    }
}

/// Greedily minimise an offending scenario toward `base` while preserving
/// its [`Class::shrink_key`]. Each accepted step strictly reduces the
/// distance to the base (numeric fields move to the base value or the
/// midpoint, schedule entries are dropped, partition windows narrow,
/// booleans reset), so the loop terminates; the result is a local minimum:
/// no single remaining step keeps the classification.
pub fn shrink(found: &Scenario, base: &Scenario, key: &str) -> Result<(Scenario, usize), String> {
    let mut cur = found.clone();
    let mut steps = 0usize;
    loop {
        let mut advanced = false;
        for cand in shrink_candidates(&cur, base) {
            if cand == cur || cand.validate().is_err() {
                continue;
            }
            if classify(&cand)?.shrink_key() == key {
                cur = cand;
                steps += 1;
                advanced = true;
                break;
            }
        }
        if !advanced {
            return Ok((cur, steps));
        }
    }
}

/// Candidate single-step reductions of `cur` toward `base`, in a fixed
/// deterministic order. Every candidate is strictly closer to the base
/// than `cur` under the sum-of-field-distances metric.
fn shrink_candidates(cur: &Scenario, base: &Scenario) -> Vec<Scenario> {
    let fuzzed = knobs::fuzzed();
    let mut out = Vec::new();

    // Numbers: jump to the base value, then try the midpoint.
    for field in fuzzed.iter().map(|k| k.field) {
        let (Some(c), Some(b)) = (field.number(cur), field.number(base)) else {
            continue;
        };
        let mid = midpoint(c, b);
        for (value, wanted) in [(b, c != b), (mid, c != b && mid != c && mid != b)] {
            if wanted {
                let mut cand = cur.clone();
                field.set_number(&mut cand, value);
                normalise(&mut cand);
                out.push(cand);
            }
        }
    }

    // Schedules: drop one entry at a time; or keep a partition window but
    // halve it.
    for field in fuzzed.iter().map(|k| k.field) {
        match field {
            Field::Crashes(get, set) => {
                for i in 0..get(cur).len() {
                    let mut cand = cur.clone();
                    set(&mut cand).remove(i);
                    out.push(cand);
                }
            }
            Field::Partitions(get, set) => {
                for (i, p) in get(cur).iter().enumerate() {
                    let mut cand = cur.clone();
                    set(&mut cand).remove(i);
                    out.push(cand);
                    let span = p.end - p.start;
                    if span > 1 {
                        let mut cand = cur.clone();
                        set(&mut cand)[i].end = p.start + span / 2;
                        out.push(cand);
                    }
                }
            }
            _ => {}
        }
    }

    // Switches: reset to the base value.
    for field in fuzzed.iter().map(|k| k.field) {
        if let Field::Switch(get, set) = field {
            if get(cur) != get(base) {
                let mut cand = cur.clone();
                *set(&mut cand) = *get(base);
                out.push(cand);
            }
        }
    }
    out
}

/// Midpoint between two values, rounding toward `b`.
fn midpoint(a: u64, b: u64) -> u64 {
    if a > b {
        b + (a - b) / 2
    } else {
        a + (b - a).div_ceil(2)
    }
}

/// One corpus file's replay verdict; see [`replay_corpus`].
#[derive(Clone, Debug)]
pub struct ReplayOutcome {
    /// The scenario file.
    pub path: PathBuf,
    /// Its recorded `expect_outcome`.
    pub expected: String,
    /// The classification a fresh run produced.
    pub actual: String,
}

impl ReplayOutcome {
    /// Whether the recorded classification reproduced verbatim.
    pub fn ok(&self) -> bool {
        self.expected == self.actual
    }
}

/// Replay an archived scenario file — or every `.scenario` file under a
/// directory, in name order — and compare each fresh classification
/// against the recorded `expect_outcome`. Files without the stamp, and
/// empty directories, are errors: a corpus that silently checks nothing
/// must not pass a CI gate.
pub fn replay_corpus(path: &Path) -> Result<Vec<ReplayOutcome>, String> {
    let mut files: Vec<PathBuf> = if path.is_dir() {
        std::fs::read_dir(path)
            .map_err(|e| format!("cannot read corpus dir {}: {e}", path.display()))?
            .map(|entry| entry.map(|e| e.path()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("cannot read corpus dir {}: {e}", path.display()))?
            .into_iter()
            .filter(|p| p.extension().is_some_and(|x| x == "scenario"))
            .collect()
    } else {
        vec![path.to_path_buf()]
    };
    files.sort();
    if files.is_empty() {
        return Err(format!(
            "no .scenario files under {} — nothing to replay",
            path.display()
        ));
    }
    files
        .into_iter()
        .map(|path| {
            let file = ScenarioFile::load(&path)?;
            let expected = file.expect.ok_or_else(|| {
                format!(
                    "{} has no expect_outcome stamp — re-archive it with hinet fuzz",
                    path.display()
                )
            })?;
            let actual = classify(&file.scenario)?.to_string();
            Ok(ReplayOutcome {
                path,
                expected,
                actual,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hinet_sim::fault::Partition;

    #[test]
    fn default_base_completes_within_its_bound() {
        let base = FuzzConfig::default_base();
        base.validate().unwrap();
        let class = classify(&base).unwrap();
        assert!(
            matches!(class, Class::Completed { .. }),
            "fuzz base must be healthy, got {class}"
        );
        assert!(analytic_bound(&base).is_some());
    }

    #[test]
    fn bound_oracle_matches_paper_formulas_and_gates_on_faults() {
        let base = FuzzConfig::default_base();
        assert_eq!(
            analytic_bound(&base),
            Some(alg1_plan(base.k, base.alpha, base.l, base.theta).total_rounds())
        );
        let mut alg2 = base.clone();
        alg2.algorithm = "alg2".into();
        assert_eq!(analytic_bound(&alg2), Some(base.n - 1));
        // Faults void the theorems; mismatched dynamics have no bound.
        let mut lossy = base.clone();
        lossy.loss_ppm = 10_000;
        assert_eq!(analytic_bound(&lossy), None);
        let mut mismatched = base.clone();
        mismatched.dynamics = "emdg".into();
        assert_eq!(analytic_bound(&mismatched), None);
    }

    #[test]
    fn classify_detects_stalls_and_violations() {
        // Starved budget, no faults: a stall.
        let mut starved = FuzzConfig::default_base();
        starved.budget = 2;
        assert_eq!(
            classify(&starved).unwrap(),
            Class::Stalled {
                budget_exhausted: true
            }
        );
        // A full-run partition on the full-exchange algorithm: a def-2
        // assumption violation.
        let mut cut = FuzzConfig::default_base();
        cut.algorithm = "alg2".into();
        cut.partitions = vec![Partition {
            start: 0,
            end: cut.budget,
            cut: 10,
        }];
        assert_eq!(
            classify(&cut).unwrap(),
            Class::AssumptionViolated { def: 2 }
        );
    }

    #[test]
    fn shrink_preserves_class_and_moves_toward_base() {
        let base = FuzzConfig::default_base();
        let mut offender = base.clone();
        offender.algorithm = "alg2".into();
        offender.n = 37;
        offender.seed = 900;
        offender.fault_seed = 321;
        offender.loss_ppm = 250_000;
        offender.partitions = vec![Partition {
            start: 0,
            end: offender.budget,
            cut: 18,
        }];
        let key = classify(&offender).unwrap().shrink_key();
        assert_eq!(key, "assumption-violated:2");
        let (shrunk, steps) = shrink(&offender, &base, &key).unwrap();
        assert!(steps > 0, "an inflated offender must shrink");
        assert_eq!(classify(&shrunk).unwrap().shrink_key(), key);
        // Every numeric field is no farther from the base than it started.
        assert!(shrunk.n.abs_diff(base.n) <= offender.n.abs_diff(base.n));
        assert!(shrunk.seed.abs_diff(base.seed) <= offender.seed.abs_diff(base.seed));
        assert!(shrunk.loss_ppm <= offender.loss_ppm);
        assert!(shrunk.partitions.len() <= offender.partitions.len());
    }

    #[test]
    fn fuzz_is_deterministic_and_finds_offenders() {
        let cfg = FuzzConfig {
            seed: 1,
            cases: 15,
            base: FuzzConfig::default_base(),
            archive_dir: None,
            max_offenders: 4,
        };
        let a = fuzz(&cfg).unwrap();
        let b = fuzz(&cfg).unwrap();
        assert_eq!(a.to_text(), b.to_text(), "same seed, same campaign");
        assert_eq!(
            a.cases,
            a.completed + a.bound_exceeded + a.stalled + a.violated
        );
        assert!(
            !a.offenders.is_empty(),
            "seed 1 must surface at least one offender:\n{}",
            a.to_text()
        );
        for o in &a.offenders {
            assert!(o.class.is_offender());
            assert_eq!(
                classify(&o.scenario).unwrap(),
                o.class,
                "archived classification must reproduce"
            );
        }
    }

    #[test]
    fn archive_and_replay_round_trip() {
        let dir = std::env::temp_dir().join(format!("hinet-fuzz-corpus-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = FuzzConfig {
            seed: 1,
            cases: 15,
            base: FuzzConfig::default_base(),
            archive_dir: Some(dir.clone()),
            max_offenders: 4,
        };
        let report = fuzz(&cfg).unwrap();
        let archived: Vec<_> = report
            .offenders
            .iter()
            .filter(|o| o.newly_archived)
            .collect();
        assert!(!archived.is_empty(), "offenders must be archived");
        // Every archived file replays to its recorded classification.
        for outcome in replay_corpus(&dir).unwrap() {
            assert!(
                outcome.ok(),
                "{}: expected '{}', got '{}'",
                outcome.path.display(),
                outcome.expected,
                outcome.actual
            );
        }
        // A second campaign re-finds the same offenders without rewriting.
        let again = fuzz(&cfg).unwrap();
        assert!(again.offenders.iter().all(|o| !o.newly_archived));
        // Tampering with the expectation makes replay fail loudly.
        let victim = report.offenders[0].path.clone().unwrap();
        let mut file = ScenarioFile::load(&victim).unwrap();
        file.expect = Some("completed (round 1)".into());
        file.save(&victim).unwrap();
        assert!(replay_corpus(&dir).unwrap().iter().any(|r| !r.ok()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(replay_corpus(&dir).is_err(), "missing corpus is an error");
    }
}
