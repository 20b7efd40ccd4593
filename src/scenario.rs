//! The seeded scenario shared by `hinet run`, `hinet trace` and the
//! trace-diff engine.
//!
//! A [`Scenario`] is the full parameterisation of one simulation —
//! algorithm, dynamics model, `n`/`k`/`α`/`L`/`θ` and the RNG seed — with
//! every derived quantity (phase length `T`, round budget) computed from
//! it. Everything downstream is deterministic in these fields, which is
//! what makes traces *diffable*: two runs of the same scenario must
//! produce byte-identical `hinet-trace/v1` artifacts, so any divergence is
//! a behaviour change, not noise.
//!
//! The struct is constructed from CLI flags ([`Scenario::from_flags`]),
//! from a scenario file ([`ScenarioFile`]) or from a trace's own header
//! metadata ([`Scenario::from_meta`]) — the latter is how `hinet trace
//! --diff A` re-runs a golden trace's scenario live without the caller
//! restating the parameters. All three codecs, and the fuzzer's mutation
//! operators, are driven by one row per field in [`crate::knobs::KNOBS`].

use crate::knobs::{Field, Rule, KNOBS, MAX_EMDG_NODES, MAX_TOKEN_STATE_BITS};
use hinet_cluster::clustering::ClusteringKind;
use hinet_cluster::ctvg::{FlatProvider, HierarchyProvider};
use hinet_cluster::generators::{ClusteredMobilityGen, HiNetConfig, HiNetGen};
use hinet_core::params::{alg1_plan, klo_plan, remark1_phases, PhasePlan};
use hinet_core::runner::{run_algorithm, AlgorithmKind};
use hinet_graph::generators::{
    BackboneKind, EdgeMarkovianGen, ManhattanConfig, ManhattanGen, OneIntervalGen,
    RandomWaypointGen, TIntervalGen, WaypointConfig,
};
use hinet_rt::flags::FlagSet;
use hinet_rt::obs::{ParsedTrace, Tracer};
use hinet_sim::engine::{ExecMode, RunConfig, RunReport};
use hinet_sim::fault::{FaultPlan, Partition};
use hinet_sim::token::round_robin_assignment;
use std::path::Path;

/// Schema tag of the declarative scenario file format (first key of every
/// file; see [`ScenarioFile`] and `docs/SCENARIOS.md`).
pub const SCENARIO_SCHEMA: &str = "hinet-scenario/v1";

/// One simulation's full parameterisation (see the module docs). Both
/// providers and protocols built from a scenario are deterministic in
/// `seed`, so two instances replay identical dynamics. The phase length
/// `T` is not a field: [`Scenario::t`] derives it from `k`, `α` and `L`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scenario {
    /// Node count.
    pub n: usize,
    /// Token universe size.
    pub k: usize,
    /// Progress coefficient `α`.
    pub alpha: usize,
    /// Hop bound `L`.
    pub l: usize,
    /// Head-capable pool size `θ`.
    pub theta: usize,
    /// RNG seed for dynamics and randomised algorithms.
    pub seed: u64,
    /// Algorithm selector, by CLI name (`alg1`, `remark1`, `alg2`,
    /// `alg2-mh`, `klo-phased`, `klo-flood`, `gossip`, `kactive`, `delta`,
    /// `rlnc`).
    pub algorithm: String,
    /// Dynamics model, by CLI name (`hinet`, `flat-t`, `flat-1`,
    /// `waypoint`, `manhattan`, `emdg`).
    pub dynamics: String,
    /// Hard round budget for unbounded baselines.
    pub budget: usize,
    /// Per-delivery message-loss probability in parts per million
    /// (`--loss`, fraction, ×10⁶; 0 disables).
    pub loss_ppm: u32,
    /// Per-node per-round crash hazard in parts per million
    /// (`--crash-rate`, fraction, ×10⁶; 0 disables).
    pub crash_ppm: u32,
    /// Scheduled crashes as `(round, node)` pairs (`--crash-at R:U,…`).
    pub crash_at: Vec<(usize, usize)>,
    /// Restrict hazard crashes to nodes currently serving as heads
    /// (`--target-heads`).
    pub target_heads: bool,
    /// Seed for the fault decision streams (`--fault-seed`), independent
    /// of the dynamics seed so fault patterns vary per replicate.
    pub fault_seed: u64,
    /// Run HiNet algorithms in retransmission-recovery mode
    /// (`--retransmit`).
    pub retransmit: bool,
    /// Whether accumulated tokens survive a crash (`--durable-tokens`);
    /// otherwise a restarted node retains only its initial assignment.
    pub durable_tokens: bool,
    /// Partition windows (`--partition START:END:CUT,…`): every link
    /// between id ranges `[0, cut)` and `[cut, n)` is severed for rounds
    /// `start..end`.
    pub partitions: Vec<Partition>,
    /// Rounds a crashed node stays down before restarting
    /// (`--down-rounds`, minimum and default 1).
    pub down_rounds: usize,
    /// Per-delivery delay probability in parts per million (`--delay`,
    /// fraction, ×10⁶; 0 disables). A delayed delivery is held and
    /// re-injected up to `max_delay` rounds later.
    pub delay_ppm: u32,
    /// Upper bound in rounds on how long a delayed delivery is held
    /// (`--max-delay`, minimum and default 1); only meaningful with a
    /// nonzero `--delay`.
    pub max_delay: usize,
    /// Per-delivery duplication probability in parts per million
    /// (`--dup`, fraction, ×10⁶; 0 disables). The receive plane discards
    /// the clone and counts it in `dups_discarded`.
    pub dup_ppm: u32,
    /// Permute every node's per-round inbox with a seeded shuffle before
    /// the protocol receives it (`--reorder`).
    pub reorder: bool,
    /// Run the protocol-agnostic ack/timeout/backoff reliability layer
    /// (`--reliable`): per-link cumulative acks, retransmit timers with
    /// exponential backoff and a bounded in-flight window. Unlike the
    /// HiNet-only `--retransmit` wrapper it applies to every algorithm,
    /// including `rlnc`.
    pub reliable: bool,
    /// Stall-watchdog threshold for event-mode runs (`--stall-rounds`):
    /// when no node completes a round for roughly this many park windows
    /// the run halts with [`hinet_sim::engine::Outcome::Stalled`] and
    /// per-node frontier diagnostics. `0` (default) disables it.
    pub stall_rounds: usize,
    /// Execution mode (`--mode`): deterministic lock-step rounds
    /// (default) or the event-driven mailbox runtime.
    pub mode: ExecMode,
}

/// Parse a `--crash-at` spec: comma-separated `round:node` pairs, e.g.
/// `"3:0,7:12"`. Rejects malformed entries and duplicate pairs (crashing
/// the same node twice in the same round is always a spec typo).
pub fn parse_crash_spec(spec: &str) -> Result<Vec<(usize, usize)>, String> {
    let pairs: Vec<(usize, usize)> = spec
        .split(',')
        .filter(|part| !part.is_empty())
        .map(|part| {
            let (r, u) = part
                .split_once(':')
                .ok_or(format!("crash-at entry '{part}' is not round:node"))?;
            Ok((
                r.parse()
                    .map_err(|e| format!("crash-at round '{r}': {e}"))?,
                u.parse().map_err(|e| format!("crash-at node '{u}': {e}"))?,
            ))
        })
        .collect::<Result<_, String>>()?;
    for (i, pair) in pairs.iter().enumerate() {
        if pairs[..i].contains(pair) {
            return Err(format!(
                "crash-at entry '{}:{}' is duplicated",
                pair.0, pair.1
            ));
        }
    }
    Ok(pairs)
}

/// Render `(round, node)` pairs back into the `--crash-at` spec format.
/// Inverse of [`parse_crash_spec`]; used to stamp trace metadata.
pub fn crash_spec_string(crash_at: &[(usize, usize)]) -> String {
    crash_at
        .iter()
        .map(|(r, u)| format!("{r}:{u}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// Parse a `--partition` spec: comma-separated `start:end:cut` windows,
/// e.g. `"0:20:10"` (rounds 0..20, nodes `< 10` cut off from the rest).
pub fn parse_partition_spec(spec: &str) -> Result<Vec<Partition>, String> {
    spec.split(',')
        .filter(|part| !part.is_empty())
        .map(|part| {
            let fields: Vec<&str> = part.split(':').collect();
            let [start, end, cut] = fields.as_slice() else {
                return Err(format!("partition entry '{part}' is not start:end:cut"));
            };
            let num = |name: &str, raw: &str| -> Result<usize, String> {
                raw.parse()
                    .map_err(|e| format!("partition {name} '{raw}': {e}"))
            };
            Ok(Partition {
                start: num("start", start)?,
                end: num("end", end)?,
                cut: num("cut", cut)?,
            })
        })
        .collect()
}

/// Render partition windows back into the `--partition` spec format.
/// Inverse of [`parse_partition_spec`]; used to stamp trace metadata.
pub fn partition_spec_string(partitions: &[Partition]) -> String {
    partitions
        .iter()
        .map(|p| format!("{}:{}:{}", p.start, p.end, p.cut))
        .collect::<Vec<_>>()
        .join(",")
}

/// Algorithm names the CLI accepts (every [`Scenario::kind`] selector).
pub const ALGORITHMS: &[&str] = &[
    "alg1",
    "remark1",
    "alg2",
    "alg2-mh",
    "klo-phased",
    "klo-flood",
    "gossip",
    "kactive",
    "delta",
    "rlnc",
];

/// Algorithms the ARQ retransmission wrapper applies to (the HiNet
/// family; see `AlgorithmKind::build_node`).
pub const RETRANSMIT_ALGORITHMS: &[&str] = &["alg1", "remark1", "alg2"];

/// Dynamics model names the CLI accepts.
pub const DYNAMICS: &[&str] = &["hinet", "flat-t", "flat-1", "waypoint", "manhattan", "emdg"];

impl Scenario {
    /// The documented CLI defaults: `alg1` on `hinet` dynamics with
    /// `n=100`, `k=8`, `α=5`, `L=2`, `θ=n/3`, `seed=42`, no faults.
    pub fn defaults() -> Scenario {
        let n = 100;
        let mut sc = Scenario {
            n,
            k: 8,
            alpha: 5,
            l: 2,
            theta: n / 3,
            seed: 42,
            algorithm: "alg1".into(),
            dynamics: "hinet".into(),
            budget: 0,
            loss_ppm: 0,
            crash_ppm: 0,
            crash_at: vec![],
            target_heads: false,
            fault_seed: 0,
            retransmit: false,
            durable_tokens: false,
            partitions: vec![],
            down_rounds: 1,
            delay_ppm: 0,
            max_delay: 1,
            dup_ppm: 0,
            reorder: false,
            reliable: false,
            stall_rounds: 0,
            mode: ExecMode::Lockstep,
        };
        sc.budget = sc.derived_budget();
        sc
    }

    /// The required phase length `T = k + α·L` (Theorem 1). Saturates
    /// where it would overflow; [`Scenario::validate`] rejects such
    /// scenarios.
    pub fn t(&self) -> usize {
        self.alpha.saturating_mul(self.l).saturating_add(self.k)
    }

    /// The default round budget for the scenario's size: `4n + 4T`
    /// (saturating, like [`Scenario::t`]).
    pub fn derived_budget(&self) -> usize {
        self.n.saturating_add(self.t()).saturating_mul(4)
    }

    /// Build from parsed CLI flags, applying the documented defaults
    /// (see [`Scenario::defaults`]). When `--scenario FILE` is given the
    /// file supplies the defaults instead, and any explicit flag overrides
    /// the corresponding file value.
    pub fn from_flags(flags: &FlagSet) -> Result<Scenario, String> {
        let base = match flags.get("scenario") {
            Some(path) => Some(ScenarioFile::load(path)?.scenario),
            None => None,
        };
        Scenario::from_flags_over(flags, base)
    }

    /// [`Scenario::from_flags`] with an explicit base scenario supplying
    /// the per-flag defaults (`None` = the stock defaults). Boolean flags
    /// can only switch a behaviour *on* over the base. The result is
    /// validated (see [`Scenario::validate`]).
    pub fn from_flags_over(flags: &FlagSet, base: Option<Scenario>) -> Result<Scenario, String> {
        // With no base, θ and the budget derive from the (possibly flagged)
        // n rather than the stock n; a base pins them explicitly.
        let derive = base.is_none();
        let mut sc = base.unwrap_or_else(Scenario::defaults);
        for knob in KNOBS {
            knob.apply_flag(&mut sc, flags)?;
        }
        if derive && !flags.has("theta") {
            sc.theta = (sc.n / 3).max(1);
        }
        if derive && !flags.has("budget") {
            sc.budget = sc.derived_budget();
        }
        sc.validate()?;
        Ok(sc)
    }

    /// The `HiNetGen` configuration `hinet` dynamics runs on, with phase
    /// length `t`.
    fn hinet_config(&self, t: usize) -> HiNetConfig {
        HiNetConfig {
            n: self.n,
            num_heads: (self.theta / 2).max(1).min(self.theta),
            theta: self.theta,
            l: self.l,
            t,
            reaffil_prob: 0.1,
            rotate_heads: true,
            noise_edges: self.n / 5,
            seed: self.seed,
        }
    }

    /// Reject conflicting or nonsensical parameter combinations with a
    /// usage-grade message (the CLI maps these to exit code 2). Each
    /// knob's own range is checked by its table row ([`Knob::check`]);
    /// this adds the rules between knobs. Called by every constructor:
    /// [`Scenario::from_flags_over`], [`Scenario::from_meta`] and
    /// [`ScenarioFile::parse`].
    ///
    /// [`Knob::check`]: crate::knobs::Knob::check
    pub fn validate(&self) -> Result<(), String> {
        for knob in KNOBS {
            knob.check(self)?;
        }
        // Every node holds a packed k-bit token set; under rlnc, a GF(2)
        // basis of up to k such rows.
        let (rows, rule) = if self.algorithm == "rlnc" {
            (self.k, "n·k² for rlnc")
        } else {
            (1, "n·k")
        };
        let bits = self.n as u128 * self.k as u128 * rows as u128;
        if bits > MAX_TOKEN_STATE_BITS as u128 {
            return Err(format!(
                "--n {} with --k {} needs {bits} bits of token state ({rule}), over the \
                 ceiling of {MAX_TOKEN_STATE_BITS}; lower --n or --k",
                self.n, self.k,
            ));
        }
        check_dynamics_size(&self.dynamics, self.n)?;
        if self.theta > self.n {
            return Err(format!(
                "--theta must be in 1..=n, got {} with n={}",
                self.theta, self.n
            ));
        }
        if self.dynamics == "hinet" {
            self.hinet_config(self.t())
                .check()
                .map_err(|e| format!("hinet dynamics with --theta {}: {e}", self.theta))?;
        }
        for &(round, node) in &self.crash_at {
            if node >= self.n {
                return Err(format!(
                    "crash-at node {node} (round {round}) out of range for n={}",
                    self.n
                ));
            }
        }
        for p in &self.partitions {
            if p.start >= p.end {
                return Err(format!(
                    "partition window {}:{}:{} is empty (start must precede end)",
                    p.start, p.end, p.cut
                ));
            }
            if p.cut == 0 || p.cut >= self.n {
                return Err(format!(
                    "partition cut {} leaves one side empty for n={} (need 1..n)",
                    p.cut, self.n
                ));
            }
        }
        if self.target_heads && self.crash_ppm == 0 {
            return Err(
                "--target-heads gates hazard crashes and needs a nonzero --crash-rate".into(),
            );
        }
        if self.retransmit && !RETRANSMIT_ALGORITHMS.contains(&self.algorithm.as_str()) {
            return Err(format!(
                "--retransmit only applies to the HiNet algorithms ({}), not '{}'",
                RETRANSMIT_ALGORITHMS.join("/"),
                self.algorithm
            ));
        }
        if self.durable_tokens && self.crash_ppm == 0 && self.crash_at.is_empty() {
            return Err(
                "--durable-tokens only matters when crashes can happen; add --crash-rate or \
                 --crash-at"
                    .into(),
            );
        }
        if self.max_delay != 1 && self.delay_ppm == 0 {
            return Err(
                "--max-delay only matters when deliveries can be delayed; add --delay".into(),
            );
        }
        if self.reliable && self.retransmit {
            return Err(
                "--reliable and --retransmit are alternative recovery layers; pick one".into(),
            );
        }
        if self.reliable && self.loss_ppm == 0 && self.delay_ppm == 0 {
            return Err(
                "--reliable only matters when deliveries can be lost or delayed; add --loss or \
                 --delay"
                    .into(),
            );
        }
        if self.stall_rounds > 0 && self.mode != ExecMode::Event {
            return Err(
                "--stall-rounds arms the event-driver watchdog and needs --mode event".into(),
            );
        }
        Ok(())
    }

    /// Reconstruct the scenario a trace was recorded under, from the meta
    /// stamps written by [`Scenario::stamp_meta`], and validate it. This is
    /// how `hinet trace --diff A` re-runs `A`'s scenario live. Optional
    /// stamps are absent at their defaults, so fault-free artifacts from
    /// before a knob existed stay readable.
    pub fn from_meta(trace: &ParsedTrace) -> Result<Scenario, String> {
        let mut sc = Scenario::defaults();
        let mut derive_budget = false;
        for knob in KNOBS {
            match trace.meta_get(knob.meta) {
                Some(raw) => knob
                    .field
                    .decode(&mut sc, raw)
                    .map_err(|e| format!("trace meta '{}': {e}", knob.meta))?,
                None if knob.rule == Rule::Required => {
                    return Err(format!(
                        "trace header lacks meta '{}' — re-record it with this version of hinet",
                        knob.meta
                    ))
                }
                None => derive_budget |= knob.rule == Rule::Budget,
            }
        }
        if derive_budget {
            sc.budget = sc.derived_budget();
        }
        sc.validate()?;
        Ok(sc)
    }

    /// The deterministic fault plan the scenario's fault fields describe.
    /// Trivial (injecting nothing) when every fault field is at its
    /// default, which keeps fault-free runs byte-identical to older
    /// artifacts.
    pub fn fault_plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::new(self.fault_seed)
            .with_loss_ppm(self.loss_ppm)
            .with_crash_ppm(self.crash_ppm)
            .with_target_heads(self.target_heads)
            .with_durable_tokens(self.durable_tokens)
            .with_down_rounds(self.down_rounds)
            .with_delay_ppm(self.delay_ppm)
            .with_max_delay(self.max_delay)
            .with_dup_ppm(self.dup_ppm)
            .with_reorder(self.reorder);
        for &(round, node) in &self.crash_at {
            plan = plan.with_crash_at(round, node);
        }
        for &p in &self.partitions {
            plan = plan.with_partition(p);
        }
        plan
    }

    /// The algorithm selector with its derived parameterisation. Errors on
    /// unknown names.
    pub fn kind(&self) -> Result<AlgorithmKind, String> {
        let (n, k, alpha, l, theta, t) = (self.n, self.k, self.alpha, self.l, self.theta, self.t());
        Ok(match self.algorithm.as_str() {
            "alg1" => AlgorithmKind::HiNetPhased(alg1_plan(k, alpha, l, theta)),
            "remark1" => AlgorithmKind::HiNetRemark1(PhasePlan {
                rounds_per_phase: t,
                phases: remark1_phases(theta, alpha),
            }),
            "alg2" => AlgorithmKind::HiNetFullExchange { rounds: n - 1 },
            "alg2-mh" => AlgorithmKind::HiNetFullExchangeMH { rounds: n - 1 },
            "klo-phased" => AlgorithmKind::KloPhased(klo_plan(k, alpha, l, n)),
            "klo-flood" => AlgorithmKind::KloFlood { rounds: n - 1 },
            "gossip" => AlgorithmKind::Gossip {
                rounds: self.budget,
                seed: self.seed,
            },
            "kactive" => AlgorithmKind::KActiveFlood {
                // At least one round even for n = 1, where n/2 would be 0.
                activity: (n / 2).max(1),
                rounds: self.budget,
            },
            "delta" => AlgorithmKind::DeltaFlood {
                rounds: self.budget,
            },
            "rlnc" => AlgorithmKind::Rlnc { k, seed: self.seed },
            other => return Err(format!("unknown algorithm '{other}'")),
        })
    }

    /// The hierarchy-carrying dynamics provider the scenario runs on.
    pub fn provider(
        &self,
        kind: &AlgorithmKind,
    ) -> Result<Box<dyn HierarchyProvider + Send>, String> {
        dynamics_provider(
            &self.dynamics,
            self.hinet_config(self.dynamics_t(kind)),
            self.t(),
        )
    }

    /// The phase length the `hinet` dynamics promise for `kind`: the
    /// full-exchange family runs on per-round (T = 1) hierarchies,
    /// everything else on [`Scenario::t`].
    fn dynamics_t(&self, kind: &AlgorithmKind) -> usize {
        if matches!(kind, AlgorithmKind::HiNetFullExchange { .. }) {
            1
        } else {
            self.t()
        }
    }

    /// Attach the scenario parameters to a trace's header metadata. The
    /// `scenario` key records the CLI algorithm name (distinct from the
    /// `algorithm` label the runner stamps), so [`Scenario::from_meta`]
    /// can rebuild this exact struct from the artifact alone.
    pub fn stamp_meta(&self, tracer: &mut Tracer) {
        // Optional stamps only when non-default, and the budget last:
        // fault-free artifacts stay byte-identical to those from before
        // the fault plane existed.
        for last in [false, true] {
            for knob in KNOBS.iter().filter(|k| (k.rule == Rule::Budget) == last) {
                if knob.in_meta(self) {
                    let value = match knob.field {
                        Field::Switch(..) => "1".to_string(),
                        field => field.render(self),
                    };
                    tracer.meta(knob.meta, value);
                }
            }
        }
    }

    /// Execute the scenario, streaming events and meta stamps into
    /// `tracer`. All runs use the default round-robin token assignment
    /// and [`hinet_sim::CostWeights::default`].
    pub fn run_traced(&self, tracer: &mut Tracer) -> Result<RunReport, String> {
        self.run_traced_with_oracle(tracer, false)
    }

    /// [`Scenario::run_traced`] with the runtime (T, L)-HiNet oracle
    /// toggled on (`--stability-stream`): the engine feeds every round's
    /// effective topology and hierarchy through a
    /// [`hinet_cluster::stability::stream::StabilityStream`] at the
    /// scenario's own `(T, L)`, emitting `stability_window` events and
    /// attributing incomplete runs to the exact violated definition and
    /// round. The oracle is lock-step only: it is rejected for
    /// `--mode event` (whose rounds are reassembled post-hoc, not observed
    /// live).
    pub fn run_traced_with_oracle(
        &self,
        tracer: &mut Tracer,
        oracle: bool,
    ) -> Result<RunReport, String> {
        if oracle && self.mode == ExecMode::Event {
            return Err(
                "--stability-stream requires lock-step execution; --mode event reassembles \
                 rounds post-hoc, so verify the trace with `hinet trace --stability-stream` \
                 instead"
                    .into(),
            );
        }
        self.stamp_meta(tracer);
        let assignment = round_robin_assignment(self.n, self.k);
        let kind = self.kind()?;
        let mut provider = self.provider(&kind)?;
        // The oracle checks the (T, L) the dynamics actually promise.
        let oracle_t = self.dynamics_t(&kind);
        Ok(run_algorithm(
            &kind,
            provider.as_mut(),
            &assignment,
            RunConfig::new()
                .max_rounds(self.budget)
                .faults(self.fault_plan())
                .retransmit(self.retransmit)
                .reliable(self.reliable)
                .stall_rounds(self.stall_rounds)
                .mode(self.mode)
                .stability_oracle(oracle.then_some((oracle_t, self.l)))
                .tracer(tracer),
        ))
    }
}

/// The hierarchy-carrying provider for a dynamics model by CLI name (see
/// [`DYNAMICS`]): `hinet` runs [`HiNetGen`] on `hinet`, `flat-t` a
/// T-interval path backbone with phase length `flat_t`, and the rest take
/// `n` and the seed from `hinet`. Every model adds `n/5` noise edges or
/// its own churn.
pub fn dynamics_provider(
    dynamics: &str,
    hinet: HiNetConfig,
    flat_t: usize,
) -> Result<Box<dyn HierarchyProvider + Send>, String> {
    let (n, seed) = (hinet.n, hinet.seed);
    Ok(match dynamics {
        "hinet" => Box::new(HiNetGen::new(hinet)),
        "flat-t" => Box::new(FlatProvider::new(TIntervalGen::new(
            n,
            flat_t,
            BackboneKind::Path,
            n / 5,
            seed,
        ))),
        "flat-1" => Box::new(FlatProvider::new(OneIntervalGen::new(n, true, n / 5, seed))),
        "waypoint" => Box::new(ClusteredMobilityGen::new(
            RandomWaypointGen::new(n, WaypointConfig::default(), seed),
            ClusteringKind::LowestId,
            true,
        )),
        "manhattan" => Box::new(ClusteredMobilityGen::new(
            ManhattanGen::new(n, ManhattanConfig::default(), seed),
            ClusteringKind::LowestId,
            true,
        )),
        "emdg" => Box::new(ClusteredMobilityGen::new(
            EdgeMarkovianGen::new(n, 0.002, 0.05, 0.04, true, seed),
            ClusteringKind::GreedyDominating,
            true,
        )),
        other => return Err(format!("unknown dynamics '{other}'")),
    })
}

/// Reject sizes a dynamics model cannot hold: `emdg` keeps a dense
/// `n(n−1)/2` edge table, so it takes at most [`MAX_EMDG_NODES`] nodes.
pub fn check_dynamics_size(dynamics: &str, n: usize) -> Result<(), String> {
    if dynamics == "emdg" && n as u64 > MAX_EMDG_NODES {
        return Err(format!(
            "--n must be at most {MAX_EMDG_NODES} with --dynamics emdg, got {n}"
        ));
    }
    Ok(())
}

/// A declarative scenario file: a [`Scenario`] plus an optional recorded
/// outcome classification, serialised as line-oriented `key = value` text
/// (schema [`SCENARIO_SCHEMA`], hand-rolled per the zero-dep policy).
///
/// Files are written by [`ScenarioFile::render`] and read back by
/// [`ScenarioFile::parse`]; the two round-trip exactly. Blank lines and
/// `#`-prefixed comment lines are ignored; every other line must be
/// `key = value` with a known key, keys must not repeat, and the required
/// parameter keys must all be present. This is the format behind
/// `hinet run --scenario FILE` and the fuzzer's regression corpus under
/// `tests/corpus/` (see `docs/SCENARIOS.md`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScenarioFile {
    /// The scenario proper.
    pub scenario: Scenario,
    /// Recorded outcome classification (`expect_outcome` key) — what the
    /// fuzzer observed when it archived the scenario; the corpus replay
    /// gate requires a re-run to reproduce it verbatim.
    pub expect: Option<String>,
}

impl ScenarioFile {
    /// Wrap a scenario with no recorded outcome.
    pub fn new(scenario: Scenario) -> ScenarioFile {
        ScenarioFile {
            scenario,
            expect: None,
        }
    }

    /// Serialise to the `key = value` file format: every required key
    /// and the budget, then the optional keys that differ from their
    /// defaults, then the outcome.
    pub fn render(&self) -> String {
        let mut out = String::from("# hinet scenario file — see docs/SCENARIOS.md\n");
        out.push_str(&format!("schema = {SCENARIO_SCHEMA}\n"));
        for knob in KNOBS.iter().filter(|k| k.in_file(&self.scenario)) {
            out.push_str(&format!(
                "{} = {}\n",
                knob.key,
                knob.field.render(&self.scenario)
            ));
        }
        if let Some(expect) = &self.expect {
            out.push_str(&format!("expect_outcome = {expect}\n"));
        }
        out
    }

    /// Parse the `key = value` format back into a validated scenario.
    /// Inverse of [`ScenarioFile::render`]; see the type docs for the
    /// accepted grammar. Keys the file omits take their
    /// [`Scenario::defaults`] value; required keys and the budget must be
    /// present.
    pub fn parse(text: &str) -> Result<ScenarioFile, String> {
        let mut seen: Vec<(&str, &str)> = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!(
                    "scenario file line {}: '{line}' is not 'key = value'",
                    lineno + 1
                ));
            };
            let (key, value) = (key.trim(), value.trim());
            let known = ["schema", "expect_outcome"].contains(&key)
                || KNOBS.iter().any(|knob| knob.key == key);
            if !known {
                return Err(format!(
                    "scenario file line {}: unknown key '{key}'",
                    lineno + 1
                ));
            }
            if seen.iter().any(|&(k, _)| k == key) {
                return Err(format!(
                    "scenario file line {}: duplicate key '{key}'",
                    lineno + 1
                ));
            }
            seen.push((key, value));
        }
        let get = |key: &str| seen.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v);
        match get("schema") {
            None => return Err("scenario file lacks required key 'schema'".into()),
            Some(SCENARIO_SCHEMA) => {}
            Some(schema) => {
                return Err(format!(
                    "scenario file schema '{schema}' is not {SCENARIO_SCHEMA}"
                ))
            }
        }
        let mut scenario = Scenario::defaults();
        for knob in KNOBS {
            match get(knob.key) {
                Some(raw) => knob
                    .field
                    .decode(&mut scenario, raw)
                    .map_err(|e| format!("scenario file key '{}': {e}", knob.key))?,
                None if matches!(knob.rule, Rule::Required | Rule::Budget) => {
                    return Err(format!("scenario file lacks required key '{}'", knob.key))
                }
                None => {}
            }
        }
        scenario.validate()?;
        Ok(ScenarioFile {
            scenario,
            expect: get("expect_outcome").map(str::to_string),
        })
    }

    /// Read and parse a scenario file from disk.
    pub fn load(path: impl AsRef<Path>) -> Result<ScenarioFile, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read scenario {}: {e}", path.display()))?;
        ScenarioFile::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Render and write a scenario file, creating parent directories on
    /// demand.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), String> {
        let path = path.as_ref();
        if let Some(parent) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
        std::fs::write(path, self.render())
            .map_err(|e| format!("cannot write scenario {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hinet_core::params::required_phase_length;
    use hinet_rt::obs::{ObsConfig, ParsedTrace};

    fn small(algorithm: &str, dynamics: &str) -> Scenario {
        let (k, alpha, l) = (3, 2, 2);
        let t = required_phase_length(k, alpha, l);
        Scenario {
            n: 20,
            k,
            alpha,
            l,
            theta: 7,
            seed: 11,
            algorithm: algorithm.into(),
            dynamics: dynamics.into(),
            budget: 4 * 20 + 4 * t,
            loss_ppm: 0,
            crash_ppm: 0,
            crash_at: vec![],
            target_heads: false,
            fault_seed: 0,
            retransmit: false,
            durable_tokens: false,
            partitions: vec![],
            down_rounds: 1,
            delay_ppm: 0,
            max_delay: 1,
            dup_ppm: 0,
            reorder: false,
            reliable: false,
            stall_rounds: 0,
            mode: ExecMode::Lockstep,
        }
    }

    #[test]
    fn meta_round_trips_through_a_trace() {
        let sc = small("alg1", "hinet");
        let mut tracer = Tracer::new(ObsConfig::full());
        sc.run_traced(&mut tracer).unwrap();
        let parsed = ParsedTrace::parse_jsonl(&tracer.to_jsonl()).unwrap();
        let rebuilt = Scenario::from_meta(&parsed).unwrap();
        assert_eq!(rebuilt, sc);
        // The runner's label rides along, distinct from the CLI name.
        assert_eq!(parsed.meta_get("scenario"), Some("alg1"));
        assert_eq!(parsed.meta_get("algorithm"), Some("alg1-hinet-phased"));
        assert_eq!(parsed.meta_get("token_bytes"), Some("16"));
    }

    #[test]
    fn rlnc_runs_traced_end_to_end() {
        let sc = small("rlnc", "flat-1");
        let mut tracer = Tracer::new(ObsConfig::full());
        let report = sc.run_traced(&mut tracer).unwrap();
        assert!(report.completed());
        let parsed = ParsedTrace::parse_jsonl(&tracer.to_jsonl()).unwrap();
        assert_eq!(parsed.meta_get("algorithm"), Some("rlnc"));
        assert_eq!(parsed.counters.packets_sent, report.metrics.packets_sent);
        assert_eq!(parsed.counters.bytes_sent, report.total_bytes());
        assert_eq!(Scenario::from_meta(&parsed).unwrap(), sc);
    }

    #[test]
    fn same_scenario_reruns_identically() {
        let sc = small("klo-flood", "flat-1");
        let run = || {
            let mut tracer = Tracer::new(ObsConfig::full());
            sc.run_traced(&mut tracer).unwrap();
            tracer.to_jsonl()
        };
        assert_eq!(run(), run(), "traces must be byte-identical per seed");
    }

    #[test]
    fn from_meta_rejects_untagged_traces() {
        let mut tracer = Tracer::new(ObsConfig::full());
        tracer.meta("algorithm", "alg1-hinet-phased");
        tracer.run_end(0, true);
        let parsed = ParsedTrace::parse_jsonl(&tracer.to_jsonl()).unwrap();
        let err = Scenario::from_meta(&parsed).unwrap_err();
        assert!(err.contains("scenario"), "{err}");
    }

    #[test]
    fn fault_meta_round_trips_and_is_absent_when_default() {
        let mut sc = small("alg2", "hinet");
        sc.loss_ppm = 50_000;
        sc.fault_seed = 3;
        sc.retransmit = true;
        sc.crash_at = vec![(3, 0), (7, 12)];
        sc.delay_ppm = 20_000;
        sc.max_delay = 3;
        sc.dup_ppm = 10_000;
        sc.reorder = true;
        sc.budget = 8 * 20; // loss voids the theorem bounds
        let mut tracer = Tracer::new(ObsConfig::full());
        sc.run_traced(&mut tracer).unwrap();
        let parsed = ParsedTrace::parse_jsonl(&tracer.to_jsonl()).unwrap();
        assert_eq!(parsed.meta_get("loss_ppm"), Some("50000"));
        assert_eq!(parsed.meta_get("crash_at"), Some("3:0,7:12"));
        assert_eq!(parsed.meta_get("retransmit"), Some("1"));
        assert_eq!(parsed.meta_get("delay_ppm"), Some("20000"));
        assert_eq!(parsed.meta_get("max_delay"), Some("3"));
        assert_eq!(parsed.meta_get("dup_ppm"), Some("10000"));
        assert_eq!(parsed.meta_get("reorder"), Some("1"));
        let rebuilt = Scenario::from_meta(&parsed).unwrap();
        assert_eq!(rebuilt, sc, "non-default budget must round-trip via meta");

        // Fault-free runs stamp none of the fault keys.
        let sc = small("alg1", "hinet");
        let mut tracer = Tracer::new(ObsConfig::full());
        sc.run_traced(&mut tracer).unwrap();
        let parsed = ParsedTrace::parse_jsonl(&tracer.to_jsonl()).unwrap();
        for key in KNOBS
            .iter()
            .filter(|k| k.rule != Rule::Required)
            .map(|k| k.meta)
        {
            assert_eq!(parsed.meta_get(key), None, "{key} must not be stamped");
        }
    }

    #[test]
    fn crash_spec_round_trips_and_rejects_garbage() {
        let spec = "3:0,7:12";
        let parsed = parse_crash_spec(spec).unwrap();
        assert_eq!(parsed, vec![(3, 0), (7, 12)]);
        assert_eq!(crash_spec_string(&parsed), spec);
        assert_eq!(parse_crash_spec("").unwrap(), vec![]);
        assert_eq!(parse_crash_spec(",,").unwrap(), vec![], "empty entries");
        assert_eq!(crash_spec_string(&[]), "");
        // Trailing comma tolerated like the other list specs.
        assert_eq!(parse_crash_spec("3:0,").unwrap(), vec![(3, 0)]);
    }

    #[test]
    fn crash_spec_error_paths_name_the_offender() {
        let no_colon = parse_crash_spec("7").unwrap_err();
        assert!(no_colon.contains("not round:node"), "{no_colon}");
        let bad_round = parse_crash_spec("a:b").unwrap_err();
        assert!(bad_round.contains("round 'a'"), "{bad_round}");
        let bad_node = parse_crash_spec("3:x").unwrap_err();
        assert!(bad_node.contains("node 'x'"), "{bad_node}");
        let negative = parse_crash_spec("3:-1").unwrap_err();
        assert!(negative.contains("node '-1'"), "{negative}");
        let extra = parse_crash_spec("1:2:3");
        // `1:2:3` splits at the first colon: node "2:3" fails to parse.
        assert!(extra.is_err());
    }

    #[test]
    fn crash_spec_rejects_duplicate_pairs() {
        let err = parse_crash_spec("3:0,7:12,3:0").unwrap_err();
        assert!(err.contains("'3:0' is duplicated"), "{err}");
        // Same node at different rounds (and vice versa) is fine.
        assert_eq!(
            parse_crash_spec("3:0,4:0,3:1").unwrap(),
            vec![(3, 0), (4, 0), (3, 1)]
        );
    }

    #[test]
    fn partition_spec_round_trips_and_rejects_garbage() {
        let spec = "0:20:10,30:40:5";
        let parsed = parse_partition_spec(spec).unwrap();
        assert_eq!(
            parsed,
            vec![
                Partition {
                    start: 0,
                    end: 20,
                    cut: 10
                },
                Partition {
                    start: 30,
                    end: 40,
                    cut: 5
                },
            ]
        );
        assert_eq!(partition_spec_string(&parsed), spec);
        assert_eq!(parse_partition_spec("").unwrap(), vec![]);
        assert!(parse_partition_spec("0:20").is_err(), "missing cut");
        assert!(parse_partition_spec("0:20:10:4").is_err(), "extra field");
        assert!(parse_partition_spec("a:20:10").is_err());
    }

    #[test]
    fn validate_rejects_nonsense_combinations() {
        let assert_rejects = |mutate: fn(&mut Scenario), needle: &str| {
            let mut sc = small("alg1", "hinet");
            mutate(&mut sc);
            let err = sc.validate().unwrap_err();
            assert!(err.contains(needle), "expected '{needle}' in: {err}");
        };
        assert!(small("alg1", "hinet").validate().is_ok());
        assert_rejects(|sc| sc.k = 0, "--k");
        assert_rejects(|sc| sc.alpha = 0, "--alpha");
        assert_rejects(|sc| sc.theta = 21, "--theta");
        // Feasible θ but an infeasible head/backbone combination: 8 heads
        // with L=3 need 14 gateways, and 8 + 14 > n = 20.
        assert_rejects(
            |sc| {
                sc.theta = 16;
                sc.l = 3;
            },
            "gateway",
        );
        assert_rejects(|sc| sc.budget = 0, "--budget");
        assert_rejects(|sc| sc.crash_at = vec![(3, 99)], "out of range");
        assert_rejects(
            |sc| {
                sc.partitions = vec![Partition {
                    start: 5,
                    end: 5,
                    cut: 3,
                }]
            },
            "empty",
        );
        assert_rejects(
            |sc| {
                sc.partitions = vec![Partition {
                    start: 0,
                    end: 5,
                    cut: 20,
                }]
            },
            "leaves one side empty",
        );
        assert_rejects(|sc| sc.target_heads = true, "--crash-rate");
        assert_rejects(|sc| sc.durable_tokens = true, "--durable-tokens");
        assert_rejects(
            |sc| {
                sc.algorithm = "rlnc".into();
                sc.retransmit = true;
            },
            "--retransmit",
        );
        assert_rejects(|sc| sc.algorithm = "magic".into(), "unknown algorithm");
        assert_rejects(|sc| sc.dynamics = "mystery".into(), "unknown dynamics");
        // Delivery-plane and reliability flag conflicts.
        assert_rejects(|sc| sc.max_delay = 0, "--max-delay");
        assert_rejects(|sc| sc.max_delay = 3, "add --delay");
        assert_rejects(
            |sc| {
                sc.loss_ppm = 50_000;
                sc.reliable = true;
                sc.retransmit = true;
            },
            "pick one",
        );
        assert_rejects(|sc| sc.reliable = true, "add --loss or --delay");
        assert_rejects(|sc| sc.stall_rounds = 8, "--mode event");
        // The valid chaos combinations pass.
        let mut sc = small("alg2", "hinet");
        sc.delay_ppm = 20_000;
        sc.max_delay = 3;
        sc.dup_ppm = 10_000;
        sc.reorder = true;
        sc.reliable = true;
        assert!(sc.validate().is_ok());
        sc.mode = ExecMode::Event;
        sc.stall_rounds = 64;
        assert!(sc.validate().is_ok());
    }

    #[test]
    fn scenario_file_round_trips_minimal_and_fully_loaded() {
        let minimal = ScenarioFile::new(small("alg1", "hinet"));
        let parsed = ScenarioFile::parse(&minimal.render()).unwrap();
        assert_eq!(parsed, minimal);

        let mut sc = small("alg2", "flat-1");
        sc.loss_ppm = 50_000;
        sc.crash_ppm = 1_000;
        sc.crash_at = vec![(3, 0), (7, 12)];
        sc.target_heads = true;
        sc.fault_seed = 9;
        sc.retransmit = true;
        sc.durable_tokens = true;
        sc.partitions = vec![Partition {
            start: 2,
            end: 9,
            cut: 10,
        }];
        sc.down_rounds = 3;
        sc.delay_ppm = 20_000;
        sc.max_delay = 4;
        sc.dup_ppm = 5_000;
        sc.reorder = true;
        sc.budget = 500;
        let full = ScenarioFile {
            scenario: sc,
            expect: Some("stalled (2 tokens undelivered, budget exhausted)".into()),
        };
        let rendered = full.render();
        assert_eq!(ScenarioFile::parse(&rendered).unwrap(), full);
        // Optional keys appear only when non-default.
        assert!(rendered.contains("partitions = 2:9:10"), "{rendered}");
        assert!(!minimal.render().contains("partitions"), "defaults elided");
    }

    #[test]
    fn scenario_file_parser_rejects_malformed_input() {
        let good = ScenarioFile::new(small("alg1", "hinet")).render();
        let expect_err = |text: &str, needle: &str| {
            let err = ScenarioFile::parse(text).unwrap_err();
            assert!(err.contains(needle), "expected '{needle}' in: {err}");
        };
        expect_err(&good.replace("schema = hinet-scenario/v1\n", ""), "schema");
        expect_err(&good.replace("n = 20\n", ""), "required key 'n'");
        expect_err(&format!("{good}n = 21\n"), "duplicate key 'n'");
        expect_err(&format!("{good}frobnicate = 1\n"), "unknown key");
        expect_err(&format!("{good}just words\n"), "not 'key = value'");
        expect_err(&good.replace("n = 20", "n = lots"), "key 'n'");
        expect_err(&format!("{good}retransmit = maybe\n"), "not a boolean");
        expect_err(
            &good.replace("hinet-scenario/v1", "hinet-scenario/v9"),
            "is not hinet-scenario/v1",
        );
        // Validation runs on parse: a well-formed file with nonsense
        // parameters is still rejected.
        expect_err(&good.replace("theta = 7", "theta = 99"), "--theta");
    }

    #[test]
    fn scenario_file_saves_and_loads_from_disk() {
        let dir = std::env::temp_dir().join(format!("hinet-scenario-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("sub/case.scenario");
        let file = ScenarioFile::new(small("klo-flood", "flat-1"));
        file.save(&path).unwrap();
        assert_eq!(ScenarioFile::load(&path).unwrap(), file);
        assert!(ScenarioFile::load(dir.join("absent.scenario")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn partitioned_scenario_round_trips_meta_and_reaches_fault_plan() {
        let mut sc = small("alg2", "hinet");
        sc.partitions = vec![Partition {
            start: 1,
            end: 6,
            cut: 10,
        }];
        sc.down_rounds = 2;
        sc.fault_seed = 4;
        let plan = sc.fault_plan();
        assert_eq!(plan.partitions, sc.partitions);
        assert_eq!(plan.down_rounds, 2);
        let mut tracer = Tracer::new(ObsConfig::full());
        sc.run_traced(&mut tracer).unwrap();
        let parsed = ParsedTrace::parse_jsonl(&tracer.to_jsonl()).unwrap();
        assert_eq!(parsed.meta_get("partitions"), Some("1:6:10"));
        assert_eq!(parsed.meta_get("down_rounds"), Some("2"));
        assert_eq!(Scenario::from_meta(&parsed).unwrap(), sc);
    }

    #[test]
    fn lossy_scenario_with_retransmit_completes_reproducibly() {
        let mut sc = small("alg2", "hinet");
        sc.loss_ppm = 100_000;
        sc.fault_seed = 1;
        sc.retransmit = true;
        sc.budget = 8 * 20;
        let run = || {
            let mut tracer = Tracer::new(ObsConfig::full());
            let report = sc.run_traced(&mut tracer).unwrap();
            (report.completed(), tracer.to_jsonl())
        };
        let (completed, a) = run();
        assert!(completed, "alg2 + retransmit must heal 10% loss");
        let (_, b) = run();
        assert_eq!(a, b, "same fault seed, same trace bytes");
    }

    #[test]
    fn chaotic_scenario_with_reliable_layer_completes_reproducibly() {
        let mut sc = small("klo-flood", "flat-1");
        sc.loss_ppm = 50_000;
        sc.delay_ppm = 30_000;
        sc.max_delay = 3;
        sc.dup_ppm = 20_000;
        sc.reorder = true;
        sc.reliable = true;
        sc.fault_seed = 7;
        sc.budget = 8 * 20;
        let run = || {
            let mut tracer = Tracer::new(ObsConfig::full());
            let report = sc.run_traced(&mut tracer).unwrap();
            (report.completed(), tracer.to_jsonl())
        };
        let (completed, a) = run();
        assert!(completed, "reliable layer must heal loss + delay + dup");
        let (_, b) = run();
        assert_eq!(a, b, "same fault seed, same trace bytes");
        let parsed = ParsedTrace::parse_jsonl(&a).unwrap();
        assert_eq!(Scenario::from_meta(&parsed).unwrap(), sc);
    }

    #[test]
    fn unknown_names_are_rejected() {
        assert!(small("magic", "hinet").kind().is_err());
        let sc = small("alg1", "mystery");
        assert!(sc.provider(&sc.kind().unwrap()).is_err());
        let sc = small("rlnc", "mystery");
        assert!(sc.provider(&sc.kind().unwrap()).is_err());
    }
}
