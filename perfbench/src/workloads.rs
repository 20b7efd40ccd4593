//! The three benchmark workloads: how each builds its inputs from a seed,
//! how it runs, and the deterministic digest its result is checked by.

use hinet_cluster::ctvg::HierarchyProvider;
use hinet_cluster::generators::{HiNetConfig, HiNetGen};
use hinet_core::params::alg1_plan;
use hinet_core::runner::AlgorithmKind;
use hinet_rt::obs::{ObsConfig, Tracer};
use hinet_sim::engine::{Engine, ExecMode, RunConfig, RunReport};
use hinet_sim::fault::FaultPlan;
use hinet_sim::protocol::Protocol;
use hinet_sim::token::{round_robin_assignment, TokenId};
use std::hint::black_box;
use std::time::Instant;

/// Algorithm 1's α and the hop bound L of every workload's dynamics.
/// At α = 5 (T = k + 10) the last token lands within a few
/// rounds of the second phase boundary, so completion flips between two
/// and three phases with the seed; α = 10 leaves a margin of ~20 rounds,
/// and every seed completes in the second phase.
const ALPHA: usize = 10;
const L: usize = 2;

/// Rounds `alg2-chaos-event` runs whatever the round it completes in.
/// Under loss and delay, completion moves between 12 and 15 rounds with
/// the seed, and so would the run's time and memory; a fixed horizon keeps
/// the work per run the same on every seed. Alg 2 keeps exchanging full
/// sets after completion, so every round does the same kind of work.
pub const CHAOS_HORIZON: usize = 20;

/// Engine worker threads of every workload. Event mode included: at two
/// workers on a two-core machine, the event workload's peak RSS moved
/// between 77 and 107 MiB and its run time jumped between two levels from
/// one process to the next, with the scheduler; at one worker the same
/// mailbox, reassembly, fault and reliability code runs and both repeat.
pub const THREADS: usize = 1;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Algorithm 1 on live rotating-head dynamics: one-token pushes, so
    /// dynamics generation, CSR rebuilds and engine accounting dominate.
    Alg1Churn,
    /// Algorithm 1 with the runtime stability oracle and a Full tracer
    /// serialised to JSONL (`hinet trace --stability-stream`).
    Alg1Audit,
    /// Algorithm 2 in event mode under loss, delay, duplication and
    /// reorder with the reliability layer on, for [`CHAOS_HORIZON`] rounds.
    Alg2ChaosEvent,
}

impl Workload {
    /// Every workload, in the order the repeat runner cycles them.
    pub const ALL: [Workload; 3] = [
        Workload::Alg1Churn,
        Workload::Alg1Audit,
        Workload::Alg2ChaosEvent,
    ];

    /// The workload's name on the command line and in `pins.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Alg1Churn => "alg1-churn",
            Workload::Alg1Audit => "alg1-audit",
            Workload::Alg2ChaosEvent => "alg2-chaos-event",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The measured size `(n, k)`. Each is small enough to stay steady on
    /// a machine whose last-level cache is shared with other tenants (see
    /// README.md, "How the workloads were sized").
    pub fn default_size(self) -> (usize, usize) {
        match self {
            Workload::Alg1Churn => (10_000, 64),
            Workload::Alg1Audit => (5_000, 64),
            Workload::Alg2ChaosEvent => (5_000, 500),
        }
    }

    /// Whether the run goes through the event-mode message plane.
    pub fn is_event(self) -> bool {
        self == Workload::Alg2ChaosEvent
    }

    /// Whether the run carries a tracer and the stability oracle.
    pub fn is_audit(self) -> bool {
        self == Workload::Alg1Audit
    }
}

/// One concrete run request: a workload at a size and seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Node count.
    pub n: usize,
    /// Token count.
    pub k: usize,
    /// Dynamics seed.
    pub seed: u64,
    /// Fault-plane seed (used by `alg2-chaos-event` only).
    pub fault_seed: u64,
}

impl Spec {
    /// The workload at its measured size.
    pub fn new(workload: Workload, seed: u64, fault_seed: u64) -> Spec {
        let (n, k) = workload.default_size();
        Spec {
            workload,
            n,
            k,
            seed,
            fault_seed,
        }
    }

    fn is_alg1(&self) -> bool {
        matches!(self.workload, Workload::Alg1Churn | Workload::Alg1Audit)
    }

    fn theta(&self) -> usize {
        self.n / 3
    }

    /// The algorithm with its paper parameterisation.
    pub fn kind(&self) -> AlgorithmKind {
        if self.is_alg1() {
            AlgorithmKind::HiNetPhased(alg1_plan(self.k, ALPHA, L, self.theta()))
        } else {
            AlgorithmKind::HiNetFullExchange { rounds: self.n - 1 }
        }
    }

    /// The stability window `T` the dynamics guarantee: Algorithm 1's
    /// phase length `k + αL`, or 1 for Algorithm 2's (1, L)-HiNet.
    pub fn hinet_t(&self) -> usize {
        match self.kind() {
            AlgorithmKind::HiNetPhased(plan) => plan.rounds_per_phase,
            _ => 1,
        }
    }

    /// The hop bound `L` of the dynamics.
    pub fn hinet_l(&self) -> usize {
        L
    }

    /// The theorem's completion bound: Thm 1's `M·T` for Algorithm 1,
    /// Thm 2's `n − 1` for Algorithm 2.
    pub fn bound(&self) -> usize {
        match self.kind() {
            AlgorithmKind::HiNetPhased(plan) => plan.total_rounds(),
            _ => self.n - 1,
        }
    }

    /// The live (T, L)-HiNet generator, configured as `hinet run` does.
    pub fn dynamics(&self) -> HiNetGen {
        let theta = self.theta();
        HiNetGen::new(HiNetConfig {
            n: self.n,
            num_heads: (theta / 2).clamp(1, theta),
            theta,
            l: L,
            t: self.hinet_t(),
            reaffil_prob: 0.1,
            rotate_heads: true,
            noise_edges: self.n / 5,
            seed: self.seed,
        })
    }

    /// The fault plan: trivial except on the chaos workload.
    pub fn faults(&self) -> FaultPlan {
        if self.workload.is_event() {
            FaultPlan::new(self.fault_seed)
                .with_loss_ppm(50_000)
                .with_delay_ppm(30_000)
                .with_max_delay(3)
                .with_dup_ppm(20_000)
                .with_reorder(true)
        } else {
            FaultPlan::none()
        }
    }

    /// The engine configuration, thread count pinned.
    pub fn config(&self) -> RunConfig<'static> {
        let w = self.workload;
        RunConfig::new()
            .max_rounds(if w.is_event() {
                CHAOS_HORIZON
            } else {
                self.bound()
            })
            .stop_on_completion(!w.is_event())
            .threads(THREADS)
            .mode(if w.is_event() {
                ExecMode::Event
            } else {
                ExecMode::Lockstep
            })
            .faults(self.faults())
            .reliable(w.is_event())
            .stability_oracle(w.is_audit().then_some((self.hinet_t(), L)))
    }

    /// The workload's tracer, with the header stamps `run_algorithm`
    /// writes. The audit workload records everything into an unbounded
    /// ring (it grows on demand), so no event is dropped; the others, whose
    /// tracer only prices the obs layer in the traced run, keep exact
    /// counters but record one data event in 1024, to bound memory.
    pub fn tracer(&self) -> Tracer {
        let cfg = if self.workload.is_audit() {
            ObsConfig::full().capacity(usize::MAX)
        } else {
            ObsConfig::sampled(1024)
        };
        let mut tracer = Tracer::new(cfg);
        let kind = self.kind();
        tracer.meta("algorithm", kind.label());
        if let Some(t) = kind.phase_len() {
            tracer.set_phase_len(t as u64);
            tracer.meta("rounds_per_phase", t.to_string());
        }
        tracer
    }
}

/// Seconds spent in each part of set-up.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Dynamics provider construction.
    pub provider_s: f64,
    /// Initial token assignment.
    pub assignment_s: f64,
    /// Per-node protocol instantiation.
    pub protocols_s: f64,
}

impl SetupTimes {
    /// Total set-up seconds.
    pub fn total(&self) -> f64 {
        self.provider_s + self.assignment_s + self.protocols_s
    }
}

/// Everything a run needs, built before round 0.
pub struct Prepared {
    /// The dynamics.
    pub provider: HiNetGen,
    /// One protocol instance per node.
    pub protocols: Vec<Box<dyn Protocol + Send>>,
    /// Initial tokens per node.
    pub assignment: Vec<Vec<TokenId>>,
    /// Where set-up time went.
    pub times: SetupTimes,
}

/// Build a run's inputs, timing each part.
pub fn setup(spec: &Spec) -> Prepared {
    let t = Instant::now();
    let provider = spec.dynamics();
    let provider_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let assignment = round_robin_assignment(spec.n, spec.k);
    let assignment_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let kind = spec.kind();
    let protocols = (0..spec.n).map(|_| kind.build_node(false)).collect();
    let protocols_s = t.elapsed().as_secs_f64();

    Prepared {
        provider,
        protocols,
        assignment,
        times: SetupTimes {
            provider_s,
            assignment_s,
            protocols_s,
        },
    }
}

/// Trace-side outputs of the audit workload.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObsOutput {
    /// Events held by the tracer.
    pub events: u64,
    /// Events the ring dropped.
    pub dropped: u64,
    /// Length of the serialised `hinet-trace/v1` JSONL.
    pub jsonl_bytes: u64,
}

/// A finished run: the engine's report, the audit workload's trace
/// outputs, and where its wall-clock time went.
pub struct RunOutput {
    /// The engine's report.
    pub report: RunReport,
    /// Trace outputs (audit workload only).
    pub obs: Option<ObsOutput>,
    /// Seconds inside `Engine::run`.
    pub engine_s: f64,
    /// Seconds inside `Tracer::to_jsonl`.
    pub serialize_s: f64,
}

impl RunOutput {
    /// The end-to-end run time: `Engine::run` plus serialisation.
    pub fn run_s(&self) -> f64 {
        self.engine_s + self.serialize_s
    }
}

/// Run the engine on prepared inputs. `protocols` may be the prepared
/// instances or wrappers around them; `with_tracer` attaches the audit
/// workload's tracer (and serialises it after the run).
pub fn run_with<P: Protocol + Send>(
    spec: &Spec,
    provider: &mut (dyn HierarchyProvider + Send),
    protocols: &mut [P],
    assignment: &[Vec<TokenId>],
    cfg: RunConfig<'static>,
    with_tracer: bool,
) -> RunOutput {
    if !with_tracer {
        let t = Instant::now();
        let report = Engine::new(cfg).run(provider, protocols, assignment);
        let engine_s = t.elapsed().as_secs_f64();
        return RunOutput {
            report: black_box(report),
            obs: None,
            engine_s,
            serialize_s: 0.0,
        };
    }
    let mut tracer = spec.tracer();
    let t = Instant::now();
    let report = Engine::new(cfg.tracer(&mut tracer)).run(provider, protocols, assignment);
    let engine_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let jsonl = black_box(tracer.to_jsonl());
    let serialize_s = t.elapsed().as_secs_f64();
    RunOutput {
        report: black_box(report),
        obs: Some(ObsOutput {
            events: tracer.len() as u64,
            dropped: tracer.dropped(),
            jsonl_bytes: jsonl.len() as u64,
        }),
        engine_s,
        serialize_s,
    }
}

/// The end-to-end run of a workload on prepared inputs.
pub fn run(spec: &Spec, prep: &mut Prepared) -> RunOutput {
    run_with(
        spec,
        &mut prep.provider,
        &mut prep.protocols,
        &prep.assignment,
        spec.config(),
        spec.workload.is_audit(),
    )
}

/// The deterministic outputs of a run, as named counts. Two runs of the
/// same spec must produce equal digests whatever the timing or thread
/// interleaving; `pins.json` pins them for the default seeds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Digest(pub Vec<(&'static str, u64)>);

impl Digest {
    /// Digest a run.
    pub fn of(out: &RunOutput) -> Digest {
        let r = &out.report;
        let m = &r.metrics;
        let mut fields = vec![
            ("completed", u64::from(r.completed())),
            ("completion_rounds", r.completion_round.unwrap_or(0) as u64),
            ("rounds_executed", r.rounds_executed as u64),
            ("tokens_sent", m.tokens_sent),
            ("packets_sent", m.packets_sent),
            ("tokens_by_role.head", m.tokens_by_role[0]),
            ("tokens_by_role.gateway", m.tokens_by_role[1]),
            ("tokens_by_role.member", m.tokens_by_role[2]),
            ("faults_injected", m.faults_injected),
            ("delays_injected", m.delays_injected),
            ("duplicates_injected", m.duplicates_injected),
            ("retransmit_timeouts", m.retransmit_timeouts),
            ("dups_discarded", m.dups_discarded),
        ];
        if let Some(s) = &r.stability {
            fields.push(("oracle_windows", s.windows as u64));
            fields.push(("oracle_violations", u64::from(s.violation.is_some())));
        }
        if let Some(o) = out.obs {
            fields.push(("events", o.events));
            fields.push(("dropped", o.dropped));
            fields.push(("jsonl_bytes", o.jsonl_bytes));
        }
        Digest(fields)
    }

    /// A field by name.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.0.iter().find(|(k, _)| *k == name).map(|&(_, v)| v)
    }
}

/// Check a run against the paper's guarantees: it completed, within the
/// theorem bound, and (audit workload) the oracle stayed quiet and the
/// trace dropped nothing. Returns one message per broken check.
pub fn check_run(spec: &Spec, out: &RunOutput) -> Vec<String> {
    let r = &out.report;
    let mut errors = Vec::new();
    match r.completion_round {
        None => errors.push(format!(
            "{}: run did not complete ({})",
            spec.workload.name(),
            r.outcome
        )),
        Some(round) if round > spec.bound() => errors.push(format!(
            "{}: completed in {round} rounds, past the theorem bound {}",
            spec.workload.name(),
            spec.bound()
        )),
        Some(_) => {}
    }
    if spec.workload.is_audit() {
        match &r.stability {
            Some(s) if s.violation.is_some() => errors.push(format!(
                "alg1-audit: the stability oracle reported {:?}",
                s.violation
            )),
            Some(_) => {}
            None => errors.push("alg1-audit: the stability oracle did not run".into()),
        }
        if out.obs.is_some_and(|o| o.dropped > 0) {
            errors.push("alg1-audit: the tracer dropped events".into());
        }
    }
    errors
}
