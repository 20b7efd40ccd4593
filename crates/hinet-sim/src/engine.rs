//! The synchronous round engine: message delivery, cost accounting, and the
//! completion oracle.
//!
//! There is exactly **one** way to run the engine: build a [`RunConfig`]
//! (which carries every knob — round budget, fault plan, optional tracer,
//! thread count) and call [`Engine::run`]. A default config reproduces the
//! plain path byte-for-byte; attaching a tracer streams
//! [`hinet_rt::obs`] events; a non-trivial [`FaultPlan`] injects
//! deterministic faults. The former `run`/`run_traced`/`run_faulted`
//! matrix collapsed into this single entry point.
//!
//! Both execution modes share everything but the driving loop: the
//! start-of-run census, the per-round context (topology, crash-repaired
//! hierarchy, down state) from one round builder, each node's round —
//! crash restart, send, receive and its informed/finished flags — from one
//! node step, and one delivery plane for every message — the fault gate,
//! delayed-envelope maturity, the reliability layer's registration, timer
//! flush, dedup and acks — so the two modes produce byte-identical reports
//! and traces. A lock-step run is a value [`Engine::run`] steps one round
//! at a time: build the round, verify it, open it in the trace, step it,
//! close it.
//!
//! # Scale
//!
//! Per-node engine state lives in flat vectors indexed by node id,
//! neighborhoods are slices of the round's [`hinet_graph::Graph`] — the
//! flat CSR snapshot, shared from the provider's `Arc` without a copy —
//! and the send/receive phases fan out over
//! [`hinet_rt::pool::for_chunks_mut`] workers when the network is large.
//! A lock-step round's sends land in one flat outbox, each sender's a
//! slice of one reused buffer. On a trivial plan no envelope is built:
//! each receiver gathers its inbox from its neighbours' slices into its
//! worker's reused scratch buffer, and every round shares one all-false
//! down and crash state, so a clean round keeps no per-node message
//! buffer and builds no n-entry array. A node with an empty inbox is not
//! received at all.
//! Event emission and fault accounting stay on a single sequential pass in
//! node-id order, so traced and faulted runs are **byte-identical
//! regardless of thread count**.

use crate::fault::FaultPlan;
use crate::lockstep::Lockstep;
use crate::node::NodeStep;
use crate::protocol::Protocol;
use crate::round::{Builder, Fold};
use crate::token::{TokenId, TokenSet};
use hinet_cluster::ctvg::HierarchyProvider;
use hinet_cluster::hierarchy::Role;
use hinet_cluster::stability::stream::{StreamReport, WindowVerdict};
use hinet_graph::graph::NodeId;
use hinet_rt::obs::{self, Tracer};
use std::fmt;
use std::str::FromStr;
use std::time::Instant;

/// Which runtime executes the run (see `docs/RUNTIME.md`).
///
/// Both modes run the same protocols against the same round semantics and
/// produce identical dissemination results (completion round, token sets,
/// metrics, trace events); they differ in *how* rounds are driven:
///
/// * [`ExecMode::Lockstep`] — the synchronous reference loop: a global
///   barrier between every round's send and receive phases.
/// * [`ExecMode::Event`] — the event-driven message plane: rounds
///   reassembled by per-shard [`crate::transport::Reassembly`] quorums,
///   cross-shard envelopes through per-node mailboxes behind a
///   [`crate::transport::ChannelTransport`], nodes progressing independently on
///   concurrent workers. Adds wall-clock throughput and per-token latency
///   to [`RunReport::wall`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// Synchronous round barrier (the paper's model, and the default).
    #[default]
    Lockstep,
    /// Mailbox/round-reassembly runtime with concurrent per-node progress.
    Event,
}

impl ExecMode {
    /// Canonical flag spelling (`lockstep` / `event`).
    pub fn as_str(self) -> &'static str {
        match self {
            ExecMode::Lockstep => "lockstep",
            ExecMode::Event => "event",
        }
    }
}

impl fmt::Display for ExecMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for ExecMode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "lockstep" => Ok(ExecMode::Lockstep),
            "event" => Ok(ExecMode::Event),
            other => Err(format!(
                "unknown execution mode '{other}' (expected lockstep|event)"
            )),
        }
    }
}

/// Per-token wall-clock completion latency (event mode only): for each
/// token, the nanoseconds from run start until every node had learned it
/// at least once. The "ever learned" cover is monotone, so volatile
/// crash-forgetting cannot un-complete a token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TokenLatency {
    /// Tokens whose cover reached every node during the run.
    pub covered: usize,
    /// Tokens in the universe (`k`).
    pub total: usize,
    /// Median per-token completion latency in nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile per-token completion latency in nanoseconds.
    pub p95_ns: u64,
    /// Worst per-token completion latency in nanoseconds.
    pub max_ns: u64,
}

/// Wall-clock metrics for a run, alongside the round counts.
///
/// Lock-step fills the elapsed time and throughput; the event runtime
/// additionally reports per-token latency and its mailbox/reassembly
/// counters. All figures describe the message-plane execution itself —
/// trace replay and serialisation happen after the clock stops.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WallClock {
    /// Wall-clock nanoseconds the run took.
    pub elapsed_ns: u64,
    /// Tokens sent per wall-clock second (`tokens_sent / elapsed`).
    pub tokens_per_sec: f64,
    /// Per-token completion latency distribution (event mode only).
    pub latency: Option<TokenLatency>,
    /// Times a node's step found its round quorum not yet assembled
    /// (event mode; counted once per blocked `(node, round)`).
    pub reassembly_stalls: u64,
    /// High-water mark of any single mailbox's queued-envelope count
    /// (event mode).
    pub mailbox_depth_max: u64,
}

/// Engine configuration — every per-run knob in one place, built with
/// chained constructors. The config *is* the run request: it carries the
/// round budget, the cost weights, the [`FaultPlan`] and (optionally) a
/// mutably borrowed [`Tracer`], so one [`Engine::run`] call covers plain,
/// traced and faulted execution:
///
/// ```
/// use hinet_sim::engine::{CostWeights, RunConfig};
///
/// let cfg = RunConfig::new()
///     .max_rounds(500)
///     .record_rounds(true)
///     .cost_weights(CostWeights::default());
/// assert_eq!(cfg.max_rounds, 500);
/// assert!(cfg.faults.is_trivial());
/// ```
pub struct RunConfig<'t> {
    /// Hard cap on simulated rounds (a safety net; completion normally
    /// stops the run earlier).
    pub max_rounds: usize,
    /// Stop as soon as every node knows every token.
    pub stop_on_completion: bool,
    /// Record a per-round metrics series (costs memory proportional to
    /// rounds; used by the sweep experiments' time-series plots).
    pub record_rounds: bool,
    /// Re-validate the hierarchy against the topology every round and panic
    /// on violation — on by default in tests, useful when driving the
    /// engine from a hand-built provider.
    pub validate_hierarchy: bool,
    /// Byte-level cost weights carried into the [`RunReport`] so byte
    /// metrics always use the weights the run was configured with.
    pub cost_weights: CostWeights,
    /// Deterministic fault plan. The default ([`FaultPlan::none`]) is
    /// [trivial](FaultPlan::is_trivial): every fault branch is skipped and
    /// the run is bit-identical to one with no plan at all.
    pub faults: FaultPlan,
    /// Build protocols in retransmission-recovery mode. The engine itself
    /// ignores this — it is read by protocol factories
    /// (`hinet_core::runner`) so the whole run request still travels as
    /// one config value.
    pub retransmit: bool,
    /// Enable the protocol-agnostic [`crate::reliable`] ack/timeout/backoff
    /// layer: every payload delivery is tracked per link, unacked envelopes
    /// are retransmitted with exponential backoff, and the receive plane
    /// dedups retransmit duplicates — so any algorithm recovers under loss
    /// and delay without its own ARQ. Only active alongside a non-trivial
    /// [`FaultPlan`]; mutually exclusive with [`RunConfig::retransmit`]
    /// (callers gate the combination — see `Scenario`).
    pub reliable: bool,
    /// Stall-watchdog threshold for [`ExecMode::Event`] runs: when no node
    /// completes a round for roughly this many worker park timeouts, the
    /// driver stops spinning, snapshots per-node diagnostics into
    /// [`RunReport::stall`] and reports [`Outcome::Stalled`]. `0` (default)
    /// disables the watchdog. Lock-step runs ignore it.
    pub stall_rounds: usize,
    /// Worker threads for the per-node round phases. `0` (default) picks
    /// automatically: sequential below a fixed node-count threshold,
    /// all available cores above. Any value yields identical results and
    /// identical trace bytes — parallelism never touches observable order.
    pub threads: usize,
    /// Observability sink. `None` (default) disables tracing at zero cost;
    /// `Some` streams one structured event per round/message/fault.
    pub tracer: Option<&'t mut Tracer>,
    /// Which runtime drives the rounds (see [`ExecMode`]). Both modes
    /// produce identical dissemination results; [`ExecMode::Event`] runs
    /// the mailbox message plane and fills the wall-clock latency metrics.
    pub mode: ExecMode,
    /// Verify the (T, L)-HiNet assumption **online** while the run
    /// executes: `Some((t, l))` feeds every round's *effective* topology
    /// and hierarchy (post crash re-election) through a
    /// [`hinet_cluster::stability::stream::StabilityStream`] with the
    /// connectivity certificate enabled. Window verdicts are emitted as
    /// `stability_window` trace events; an incomplete run whose stream
    /// observed a definition violation reports
    /// [`Outcome::AssumptionViolated`] with the paper definition that
    /// broke and the exact round it broke (instead of the coarse
    /// fault-window heuristic), and the stream summary lands in
    /// [`RunReport::stability`]. Both [`ExecMode`]s feed it exactly the
    /// rounds they execute, in round order, so they emit the same verdicts
    /// and report the same outcome.
    pub stability_oracle: Option<(usize, usize)>,
}

impl Default for RunConfig<'_> {
    fn default() -> Self {
        RunConfig {
            max_rounds: 100_000,
            stop_on_completion: true,
            record_rounds: false,
            validate_hierarchy: false,
            cost_weights: CostWeights::default(),
            faults: FaultPlan::none(),
            retransmit: false,
            reliable: false,
            stall_rounds: 0,
            threads: 0,
            tracer: None,
            mode: ExecMode::Lockstep,
            stability_oracle: None,
        }
    }
}

impl fmt::Debug for RunConfig<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunConfig")
            .field("max_rounds", &self.max_rounds)
            .field("stop_on_completion", &self.stop_on_completion)
            .field("record_rounds", &self.record_rounds)
            .field("validate_hierarchy", &self.validate_hierarchy)
            .field("cost_weights", &self.cost_weights)
            .field("faults", &self.faults)
            .field("retransmit", &self.retransmit)
            .field("reliable", &self.reliable)
            .field("stall_rounds", &self.stall_rounds)
            .field("threads", &self.threads)
            .field("tracer", &self.tracer.as_ref().map(|t| t.enabled()))
            .field("mode", &self.mode)
            .field("stability_oracle", &self.stability_oracle)
            .finish()
    }
}

impl<'t> RunConfig<'t> {
    /// Alias for [`RunConfig::default`], the builder entry point.
    pub fn new() -> RunConfig<'static> {
        RunConfig::default()
    }

    /// Set the hard round cap.
    pub fn max_rounds(mut self, rounds: usize) -> Self {
        self.max_rounds = rounds;
        self
    }

    /// Set whether the run stops at global completion.
    pub fn stop_on_completion(mut self, stop: bool) -> Self {
        self.stop_on_completion = stop;
        self
    }

    /// Enable/disable the per-round metrics series.
    pub fn record_rounds(mut self, record: bool) -> Self {
        self.record_rounds = record;
        self
    }

    /// Enable/disable per-round hierarchy validation.
    pub fn validate_hierarchy(mut self, validate: bool) -> Self {
        self.validate_hierarchy = validate;
        self
    }

    /// Set the byte-cost weights used by [`RunReport::total_bytes`].
    pub fn cost_weights(mut self, weights: CostWeights) -> Self {
        self.cost_weights = weights;
        self
    }

    /// Set the fault plan.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Request retransmission-recovery protocol variants (read by protocol
    /// factories, not by the engine itself).
    pub fn retransmit(mut self, retransmit: bool) -> Self {
        self.retransmit = retransmit;
        self
    }

    /// Enable the generalized ack/timeout/backoff reliability layer (see
    /// [`RunConfig::reliable`]).
    pub fn reliable(mut self, reliable: bool) -> Self {
        self.reliable = reliable;
        self
    }

    /// Set the event-mode stall-watchdog threshold (`0` = disabled, see
    /// [`RunConfig::stall_rounds`]).
    pub fn stall_rounds(mut self, rounds: usize) -> Self {
        self.stall_rounds = rounds;
        self
    }

    /// Set the worker thread count (`0` = automatic).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Select the execution runtime (lock-step barrier or the event-driven
    /// mailbox plane).
    pub fn mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Enable or disable the runtime (T, L)-HiNet oracle (see
    /// [`RunConfig::stability_oracle`]).
    pub fn stability_oracle(mut self, oracle: Option<(usize, usize)>) -> Self {
        self.stability_oracle = oracle;
        self
    }

    /// Attach an observability sink for the run.
    pub fn tracer<'u>(self, tracer: &'u mut Tracer) -> RunConfig<'u>
    where
        't: 'u,
    {
        let cfg: RunConfig<'u> = self;
        RunConfig {
            tracer: Some(tracer),
            ..cfg
        }
    }
}

/// Byte-level cost weights for converting the token/packet counters into
/// radio airtime estimates.
///
/// The paper's metric is "total number of tokens sent", which ignores
/// per-packet framing. Real radios pay a fixed header per transmission, so
/// algorithms that send many tiny packets (one token per round) and
/// algorithms that send few large ones (whole `TA` at once) differ more at
/// the byte level than at the token level. The experiment reports expose
/// both.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostWeights {
    /// Payload bytes per token.
    pub token_bytes: u64,
    /// Framing bytes per packet (MAC/PHY header, addresses, checksums).
    pub packet_header_bytes: u64,
}

impl Default for CostWeights {
    /// IEEE 802.15.4-flavoured defaults: 16-byte tokens, 24-byte framing.
    fn default() -> Self {
        CostWeights {
            token_bytes: 16,
            packet_header_bytes: 24,
        }
    }
}

/// Costs of a single round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundMetrics {
    /// Tokens sent this round (paper's communication metric).
    pub tokens_sent: u64,
    /// Packets (messages) sent this round.
    pub packets_sent: u64,
    /// Nodes that already knew every token at the *start* of the round.
    pub informed_nodes: usize,
}

/// Aggregate run costs.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Total tokens sent — the paper's "communication cost (total size of
    /// packets)".
    pub tokens_sent: u64,
    /// Total packets sent.
    pub packets_sent: u64,
    /// Tokens sent broken down by sender role `[head, gateway, member]`.
    pub tokens_by_role: [u64; 3],
    /// Coefficient-header bytes carried by network-coded packets
    /// ([`crate::protocol::Payload::Coded`]): `⌈k/8⌉` per coded packet,
    /// timer retransmissions included. Zero for token-forwarding runs.
    pub coefficient_bytes: u64,
    /// Unicasts whose target was not a neighbor this round (dropped; still
    /// counted as sent — the radio transmitted).
    pub dropped_unicasts: u64,
    /// Deliveries dropped by the fault plane (loss + partitions). The
    /// sender still pays the send cost — the radio transmitted.
    pub faults_injected: u64,
    /// Node crashes injected by the fault plane.
    pub crashes: u64,
    /// Node recoveries (restarts after a crash window).
    pub recoveries: u64,
    /// Messages marked as recovery retransmissions by the protocols.
    pub retransmits: u64,
    /// Deliveries held back by the fault plane's delay knob
    /// ([`FaultPlan::delay_of`]) — each counted once at the round the
    /// envelope was held, not when it matures.
    pub delays_injected: u64,
    /// Envelope duplications injected by the fault plane
    /// ([`FaultPlan::duplicates`]). Every injected duplicate is discarded
    /// by the receive plane, so this never inflates token/byte counters.
    pub duplicates_injected: u64,
    /// Duplicate envelopes discarded by the receive plane — injected
    /// duplicates plus reliability-layer retransmits that raced an ack.
    pub dups_discarded: u64,
    /// Retransmissions fired by the [`crate::reliable`] layer's timers
    /// (see [`RunConfig::reliable`]); disjoint from
    /// [`Metrics::retransmits`], which counts protocol-level ARQ.
    pub retransmit_timeouts: u64,
    /// Optional per-round series (see [`RunConfig::record_rounds`]).
    pub rounds: Vec<RoundMetrics>,
}

impl Metrics {
    /// Total bytes on air under the given weights:
    /// `tokens·token_bytes + packets·header_bytes`, plus the coefficient
    /// headers of coded packets.
    pub fn total_bytes(&self, w: CostWeights) -> u64 {
        self.tokens_sent * w.token_bytes
            + self.packets_sent * w.packet_header_bytes
            + self.coefficient_bytes
    }
}

pub(crate) fn role_slot(role: Role) -> usize {
    match role {
        Role::Head => 0,
        Role::Gateway => 1,
        Role::Member => 2,
    }
}

pub(crate) fn obs_role(role: Role) -> obs::Role {
    match role {
        Role::Head => obs::Role::Head,
        Role::Gateway => obs::Role::Gateway,
        Role::Member => obs::Role::Member,
    }
}

/// How a run ended — the structured replacement for a bare "completed"
/// bool, so degraded runs report *how* they failed instead of just timing
/// out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Every node learned every token.
    Completed {
        /// 1-based count of rounds needed (0 when already complete).
        round: usize,
    },
    /// The run ended incomplete with no fault ever injected: the protocol
    /// itself stalled (quiesced with tokens undelivered) or ran out of
    /// round budget. Also how an event-mode watchdog halt ends, faults or
    /// not ([`RunReport::stall`] carries the fault window).
    Stalled {
        /// Distinct tokens still unknown to at least one node.
        missing_tokens: usize,
        /// `true` when the [`RunConfig::max_rounds`] cap ended the run;
        /// `false` when every protocol went quiescent first (stalled
        /// forever — more budget would not have helped).
        budget_exhausted: bool,
    },
    /// The run ended incomplete after the fault plane violated the paper's
    /// assumptions — the failure is attributable to injected faults, not
    /// to the protocol.
    AssumptionViolated {
        /// `(first, last)` executed round in which a fault fired — or,
        /// when the runtime oracle ([`RunConfig::stability_oracle`], in
        /// either [`ExecMode`]) observed a violation, the violating
        /// window's first round and the exact round the definition broke.
        window: (u64, u64),
        /// Which assumption broke. Without an oracle violation this is the
        /// coarse fault-class heuristic: `1` = per-round delivery (message
        /// loss only), `2` = backbone stability (crashes or partitions
        /// fired). With one it is the smallest violated paper definition
        /// (2 = head set, 4 = hierarchy structure, 5 = head connectivity,
        /// 6 = L-hop bound).
        def: u8,
    },
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Completed { round } => write!(f, "completed in {round} rounds"),
            Outcome::Stalled {
                missing_tokens,
                budget_exhausted,
            } => write!(
                f,
                "stalled ({missing_tokens} tokens undelivered, {})",
                if *budget_exhausted {
                    "budget exhausted"
                } else {
                    "quiescent"
                }
            ),
            Outcome::AssumptionViolated { window, def } => write!(
                f,
                "assumption violated (def {def}, faults in rounds {}..={})",
                window.0, window.1
            ),
        }
    }
}

/// Outcome of a run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Rounds actually executed.
    pub rounds_executed: usize,
    /// First round index after which *every* node knew every token
    /// (1-based count of rounds needed), or `None` if the cap was hit
    /// first. The paper's "spending time (rounds)".
    pub completion_round: Option<usize>,
    /// Aggregate costs.
    pub metrics: Metrics,
    /// Number of tokens in the universe (`k`).
    pub k: usize,
    /// The byte-cost weights the run was configured with (see
    /// [`RunConfig::cost_weights`]).
    pub cost_weights: CostWeights,
    /// How the run ended (see [`Outcome`]).
    pub outcome: Outcome,
    /// Wall-clock metrics (throughput always; per-token latency and the
    /// mailbox/reassembly counters in [`ExecMode::Event`] runs).
    pub wall: WallClock,
    /// End-of-stream summary of the runtime (T, L)-HiNet oracle — present
    /// iff the run was configured with [`RunConfig::stability_oracle`]
    /// and executed at least one round.
    pub stability: Option<hinet_cluster::stability::stream::StreamReport>,
    /// Stall-watchdog diagnostics — present iff the event-mode watchdog
    /// ([`RunConfig::stall_rounds`]) halted the run.
    pub stall: Option<StallDiag>,
}

/// Per-node snapshot taken when the stall watchdog halts an event-mode
/// run: where the node's round frontier stopped and what it was waiting
/// for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeStall {
    /// The stalled node.
    pub node: NodeId,
    /// The round the node was trying to assemble when the run halted (its
    /// progress frontier).
    pub frontier: usize,
    /// Neighbors whose round marker the node's quorum was still missing at
    /// the frontier round.
    pub missing: Vec<NodeId>,
    /// Age in rounds of the node's oldest unacked reliability-layer
    /// envelope (`None` when the reliable layer is off or everything the
    /// node sent was acked).
    pub oldest_unacked: Option<usize>,
}

/// Structured diagnostics attached to [`RunReport::stall`] when the
/// event-mode watchdog fires ([`Outcome::Stalled`] with no quorum progress
/// for [`RunConfig::stall_rounds`] probe periods).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StallDiag {
    /// One entry per node that had not finished when the watchdog fired,
    /// sorted by node id.
    pub nodes: Vec<NodeStall>,
    /// `(first, last)` round in which any fault fired before the halt, if
    /// one did — attribution context for the stall.
    pub fault_window: Option<(u64, u64)>,
}

impl RunReport {
    /// Whether dissemination completed. Equivalent to
    /// `matches!(self.outcome, Outcome::Completed { .. })`.
    pub fn completed(&self) -> bool {
        self.completion_round.is_some()
    }

    /// Total bytes on air under the run's configured [`CostWeights`].
    pub fn total_bytes(&self) -> u64 {
        self.metrics.total_bytes(self.cost_weights)
    }
}

/// The synchronous round engine.
///
/// Drives one [`Protocol`] instance per node over the `(graph, hierarchy)`
/// stream of a [`HierarchyProvider`]:
///
/// 1. every node's `send` runs against the round's [`LocalView`](crate::protocol::LocalView);
/// 2. broadcasts deliver to all current neighbors, unicasts to the target
///    iff it is a current neighbor (otherwise dropped but still paid for);
/// 3. every node that was delivered something runs `receive`;
/// 4. the oracle checks global completion.
///
/// Observable behaviour (metrics, trace bytes, protocol evolution) is
/// deterministic and independent of [`RunConfig::threads`]: the parallel
/// phases only touch per-node state, and all accounting happens on a
/// sequential pass in node-id order.
pub struct Engine<'t> {
    cfg: RunConfig<'t>,
}

impl<'t> Engine<'t> {
    /// Engine with the given config.
    pub fn new(cfg: RunConfig<'t>) -> Self {
        Engine { cfg }
    }

    /// Engine with [`RunConfig::default`].
    pub fn with_defaults() -> Engine<'static> {
        Engine::new(RunConfig::default())
    }

    /// Run `protocols` (one per node, same length as `provider.n()`) with
    /// the given initial token assignment. The token universe is the union
    /// of all initial tokens.
    ///
    /// This is the engine's **only** entry point; the config decides
    /// whether the run is plain, traced ([`RunConfig::tracer`]) and/or
    /// faulted ([`RunConfig::faults`]):
    ///
    /// * **crashes** — at the start of a round, each scheduled or
    ///   hazard-selected node is reset through [`Protocol::on_restart`]
    ///   (its volatile state is lost; it keeps its learned tokens only
    ///   under [`FaultPlan::durable_tokens`], its initial tokens
    ///   otherwise) and stays silent — no send, no receive — for
    ///   [`FaultPlan::down_rounds`] rounds;
    /// * **re-election** — while a crashed node heads a cluster, the
    ///   round's hierarchy is repaired with
    ///   [`hinet_cluster::clustering::re_elect`] so live members re-home to
    ///   live heads (traced as re-affiliations);
    /// * **losses/partitions** — each delivery (per receiver for
    ///   broadcasts) is dropped per [`FaultPlan::drops_message`]; the
    ///   sender still pays the send cost;
    /// * **tracing** — one [`obs::Event::RoundStart`] per round, an
    ///   [`obs::Event::TokenPush`] per unicast and an
    ///   [`obs::Event::HeadBroadcast`] per broadcast (with byte costs from
    ///   the configured [`CostWeights`]), an [`obs::Event::Reaffiliation`]
    ///   whenever a node's head changes between rounds, fault/crash/recover
    ///   events as they fire, and a final [`obs::Event::RunEnd`].
    ///
    /// A [trivial](FaultPlan::is_trivial) plan skips every fault branch and
    /// never calls `on_restart`; together with `tracer: None` the run is
    /// bit-identical to the historical plain path.
    ///
    /// # Panics
    /// Panics if `protocols`/`assignment` lengths disagree with the node
    /// count, or (with `validate_hierarchy`) on an invalid hierarchy.
    pub fn run<P: Protocol + Send>(
        self,
        provider: &mut (dyn HierarchyProvider + Send),
        protocols: &mut [P],
        assignment: &[Vec<TokenId>],
    ) -> RunReport {
        let mut cfg = self.cfg;
        let start = Instant::now();
        let mut disabled = Tracer::disabled();
        let tracer: &mut Tracer = match cfg.tracer.take() {
            Some(t) => t,
            None => &mut disabled,
        };

        let n = provider.n();
        assert_eq!(protocols.len(), n, "one protocol per node");
        assert_eq!(assignment.len(), n, "one initial token list per node");
        let universe: TokenSet = assignment.iter().flatten().copied().collect();
        if tracer.enabled() {
            // Stable stamps so two traces can be aligned (or refused) by the
            // diff engine: byte counters are only comparable under the same
            // cost weights.
            let w = cfg.cost_weights;
            tracer.meta("token_bytes", w.token_bytes.to_string());
            tracer.meta("packet_header_bytes", w.packet_header_bytes.to_string());
            if cfg.mode == ExecMode::Event {
                tracer.meta("mode", "event");
            }
        }
        for (i, p) in protocols.iter_mut().enumerate() {
            p.on_start(NodeId::from_index(i), &assignment[i]);
        }

        let mut fold = Fold::new(n, &cfg);
        let step = NodeStep::new(&universe, assignment, cfg.faults.durable_tokens);
        let census = step.census(protocols);
        let everyone = census.counts.informed == n;
        let ran = if everyone || cfg.max_rounds == 0 {
            // No round runs: everyone is informed before round 0, or the
            // budget is zero.
            fold.completion_round = everyone.then_some(0);
            Ran {
                fold,
                oracle: None,
                stall: None,
                wall: wall_clock(start, 0),
            }
        } else {
            let mut builder = Builder::new(provider, &cfg, tracer.enabled());
            match cfg.mode {
                ExecMode::Lockstep => {
                    let mut run = Lockstep::new(&cfg, step, census, tracer.enabled());
                    for round in 0..cfg.max_rounds {
                        builder.build_next();
                        builder.verify(round);
                        let ctx = builder.ctxs.remove(&round).expect("context just built");
                        let log = builder.logs.pop().expect("round log just built");
                        log.trace(tracer, round, cfg.faults.durable_tokens);
                        let stepped = run.step(protocols, &ctx, round, tracer);
                        if fold.close(round, &log, stepped) {
                            break;
                        }
                    }
                    let wall = wall_clock(start, fold.metrics.tokens_sent);
                    Ran {
                        fold,
                        oracle: builder.finish(),
                        stall: None,
                        wall,
                    }
                }
                ExecMode::Event => crate::event::run(
                    &cfg, tracer, builder, fold, protocols, step, census, &universe, start,
                ),
            }
        };
        conclude(tracer, ran, &universe, protocols, cfg.cost_weights)
    }
}

/// What a driver hands the shared epilogue ([`conclude`]).
pub(crate) struct Ran {
    pub(crate) fold: Fold,
    /// The stability oracle's last verdict and summary
    /// ([`Builder::finish`]).
    pub(crate) oracle: Option<(Option<WindowVerdict>, StreamReport)>,
    /// Present iff the event-mode watchdog halted the run.
    pub(crate) stall: Option<StallDiag>,
    pub(crate) wall: WallClock,
}

/// The run's epilogue, shared by both drivers: the oracle's last verdict
/// and the run end close the trace, and the outcome is decided — completed;
/// else a watchdog stall; else the oracle's violation (exact definition,
/// exact round); else the coarse fault-window guess; else stalled.
fn conclude<P: Protocol>(
    tracer: &mut Tracer,
    ran: Ran,
    universe: &TokenSet,
    protocols: &[P],
    cost_weights: CostWeights,
) -> RunReport {
    let Ran {
        fold,
        oracle,
        stall,
        wall,
    } = ran;
    let stability = oracle.map(|(last, report)| {
        if let Some(verdict) = last {
            verdict.emit_into(tracer);
        }
        report
    });
    tracer.run_end(fold.rounds_executed as u64, fold.completion_round.is_some());
    tracer.note_dedup(fold.metrics.dups_discarded);
    let outcome = match fold.completion_round {
        Some(round) => Outcome::Completed { round },
        None => {
            let missing_tokens = missing_tokens(universe, protocols);
            let violation = stability.as_ref().and_then(|s| s.violation);
            match (violation, fold.fault_window) {
                _ if stall.is_some() => Outcome::Stalled {
                    missing_tokens,
                    budget_exhausted: false,
                },
                (Some(v), _) => Outcome::AssumptionViolated {
                    window: (v.window_start as u64, v.round as u64),
                    def: v.def,
                },
                (None, Some(window)) => Outcome::AssumptionViolated {
                    window,
                    def: if fold.backbone { 2 } else { 1 },
                },
                (None, None) => Outcome::Stalled {
                    missing_tokens,
                    budget_exhausted: !fold.stopped,
                },
            }
        }
    };
    RunReport {
        rounds_executed: fold.rounds_executed,
        completion_round: fold.completion_round,
        metrics: fold.metrics,
        k: universe.len(),
        cost_weights,
        outcome,
        wall,
        stability,
        stall,
    }
}

/// Tokens of `universe` still unknown to at least one node: the universe
/// minus the intersection of all known sets.
fn missing_tokens<P: Protocol>(universe: &TokenSet, protocols: &[P]) -> usize {
    let mut everywhere = universe.clone();
    for p in protocols {
        if everywhere.is_empty() {
            break;
        }
        let known = p.known();
        everywhere = everywhere.iter().filter(|t| known.contains(t)).collect();
    }
    universe.len() - everywhere.len()
}

/// Elapsed time since `start` and throughput — all a lock-step run
/// reports. Per-token latency tracking is an event-mode feature (the event
/// driver fills it in) — keeping it off the lock-step path leaves the
/// million-node hot loop untouched.
pub(crate) fn wall_clock(start: Instant, tokens_sent: u64) -> WallClock {
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    let secs = elapsed_ns as f64 / 1e9;
    WallClock {
        elapsed_ns,
        tokens_per_sec: if secs > 0.0 {
            tokens_sent as f64 / secs
        } else {
            0.0
        },
        ..WallClock::default()
    }
}

/// Resolve the configured thread count for a run of `n` nodes: explicit
/// values win, clamped to the node count; `0` takes every available core
/// once `n` reaches `wide_from`, and one thread below it.
pub(crate) fn resolve_threads(threads: usize, n: usize, wide_from: usize) -> usize {
    let t = match threads {
        0 if n < wide_from => 1,
        0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
        t => t,
    };
    t.min(n).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Incoming, LocalView, Outgoing};
    use crate::token::round_robin_assignment;
    use hinet_cluster::ctvg::{CtvgTrace, CtvgTraceProvider};
    use hinet_cluster::hierarchy::single_cluster;
    use hinet_graph::trace::TvgTrace;
    use hinet_graph::Graph;
    use std::sync::Arc;

    /// Toy protocol: broadcast entire TA every round (flat flooding).
    struct Flood {
        ta: TokenSet,
    }

    impl Flood {
        fn new() -> Self {
            Flood {
                ta: TokenSet::new(),
            }
        }
    }

    impl Protocol for Flood {
        fn on_start(&mut self, _me: NodeId, initial: &[TokenId]) {
            self.ta.extend(initial.iter().copied());
        }
        fn send(&mut self, _view: &LocalView<'_>) -> Vec<Outgoing> {
            if self.ta.is_empty() {
                vec![]
            } else {
                vec![Outgoing::broadcast_set(&self.ta)]
            }
        }
        fn receive(&mut self, _view: &LocalView<'_>, inbox: &[Incoming]) {
            for m in inbox {
                m.payload.union_into(&mut self.ta);
            }
        }
        fn known(&self) -> &TokenSet {
            &self.ta
        }
        fn on_restart(&mut self, me: NodeId, retained: &[TokenId]) {
            self.ta.clear();
            self.on_start(me, retained);
        }
    }

    fn star_provider(n: usize, rounds: usize) -> CtvgTraceProvider {
        let g = Arc::new(Graph::star(n));
        let h = Arc::new(single_cluster(n, NodeId(0)));
        let t = TvgTrace::new((0..rounds).map(|_| Arc::clone(&g)).collect());
        CtvgTraceProvider::new(CtvgTrace::new(
            t,
            (0..rounds).map(|_| Arc::clone(&h)).collect(),
        ))
    }

    #[test]
    fn flooding_on_star_completes_in_two_rounds() {
        let mut provider = star_provider(5, 10);
        let mut protocols: Vec<Flood> = (0..5).map(|_| Flood::new()).collect();
        let assignment = round_robin_assignment(5, 5);
        let report = Engine::with_defaults().run(&mut provider, &mut protocols, &assignment);
        // Leaf tokens reach the hub in round 1, hub re-broadcasts in round 2.
        assert_eq!(report.completion_round, Some(2));
        assert!(report.completed());
        assert_eq!(report.k, 5);
    }

    #[test]
    fn token_accounting_counts_payloads_once() {
        let mut provider = star_provider(3, 10);
        let mut protocols: Vec<Flood> = (0..3).map(|_| Flood::new()).collect();
        // One token at the hub: round 1 = hub broadcasts 1 token (leaves have
        // nothing). After round 1 everyone knows it.
        let assignment = vec![vec![TokenId(0)], vec![], vec![]];
        let report = Engine::with_defaults().run(&mut provider, &mut protocols, &assignment);
        assert_eq!(report.completion_round, Some(1));
        // Hub sent 1 token (broadcast counted once despite 2 receivers).
        assert_eq!(report.metrics.tokens_sent, 1);
        assert_eq!(report.metrics.packets_sent, 1);
    }

    #[test]
    fn per_round_series_recorded() {
        let mut provider = star_provider(4, 10);
        let mut protocols: Vec<Flood> = (0..4).map(|_| Flood::new()).collect();
        let assignment = round_robin_assignment(4, 4);
        let cfg = RunConfig::new().record_rounds(true);
        let report = Engine::new(cfg).run(&mut provider, &mut protocols, &assignment);
        assert_eq!(report.metrics.rounds.len(), report.rounds_executed);
        assert!(report.metrics.rounds[0].tokens_sent > 0);
        assert_eq!(report.metrics.rounds[0].informed_nodes, 0);
    }

    #[test]
    fn max_rounds_cap_reported_as_incomplete() {
        // Disconnected graph: token can never cross.
        let g = Arc::new(Graph::from_edges(2, []));
        let h = Arc::new({
            use hinet_cluster::hierarchy::{ClusterId, Hierarchy, Role};
            Hierarchy::new(
                vec![Role::Head, Role::Head],
                vec![Some(ClusterId(NodeId(0))), Some(ClusterId(NodeId(1)))],
            )
        });
        let t = TvgTrace::new(vec![Arc::clone(&g)]);
        let mut provider = CtvgTraceProvider::new(CtvgTrace::new(t, vec![h]));
        let mut protocols: Vec<Flood> = (0..2).map(|_| Flood::new()).collect();
        let assignment = vec![vec![TokenId(0)], vec![]];
        let cfg = RunConfig::new().max_rounds(5);
        let report = Engine::new(cfg).run(&mut provider, &mut protocols, &assignment);
        assert_eq!(report.completion_round, None);
        assert!(!report.completed());
        assert_eq!(report.rounds_executed, 5);
    }

    #[test]
    fn byte_cost_combines_tokens_and_packets() {
        let m = Metrics {
            tokens_sent: 10,
            packets_sent: 3,
            ..Metrics::default()
        };
        let w = CostWeights {
            token_bytes: 16,
            packet_header_bytes: 24,
        };
        assert_eq!(m.total_bytes(w), 10 * 16 + 3 * 24);
        assert_eq!(Metrics::default().total_bytes(CostWeights::default()), 0);
    }

    #[test]
    fn already_complete_needs_zero_rounds() {
        let mut provider = star_provider(2, 2);
        let mut protocols: Vec<Flood> = (0..2).map(|_| Flood::new()).collect();
        let assignment = vec![vec![TokenId(0)], vec![TokenId(0)]];
        let report = Engine::with_defaults().run(&mut provider, &mut protocols, &assignment);
        assert_eq!(report.completion_round, Some(0));
        assert_eq!(report.metrics.tokens_sent, 0);
    }

    #[test]
    fn dropped_unicast_counted() {
        struct BadUnicast {
            ta: TokenSet,
        }
        impl Protocol for BadUnicast {
            fn on_start(&mut self, _me: NodeId, initial: &[TokenId]) {
                self.ta.extend(initial.iter().copied());
            }
            fn send(&mut self, view: &LocalView<'_>) -> Vec<Outgoing> {
                if view.me == NodeId(1) && !self.ta.is_empty() {
                    // Node 2 is not a neighbor of 1 in a star.
                    vec![Outgoing::unicast_set(NodeId(2), &self.ta)]
                } else {
                    vec![]
                }
            }
            fn receive(&mut self, _view: &LocalView<'_>, inbox: &[Incoming]) {
                for m in inbox {
                    m.payload.union_into(&mut self.ta);
                }
            }
            fn known(&self) -> &TokenSet {
                &self.ta
            }
        }
        let mut provider = star_provider(3, 3);
        let mut protocols: Vec<BadUnicast> = (0..3)
            .map(|_| BadUnicast {
                ta: TokenSet::new(),
            })
            .collect();
        let assignment = vec![vec![], vec![TokenId(0)], vec![]];
        let cfg = RunConfig::new().max_rounds(2);
        let report = Engine::new(cfg).run(&mut provider, &mut protocols, &assignment);
        assert_eq!(report.metrics.dropped_unicasts, 2, "one drop per round");
        assert_eq!(
            report.metrics.tokens_sent, 2,
            "sends are paid even if dropped"
        );
        assert!(!report.completed());
    }

    #[test]
    fn traced_run_matches_report_and_untraced_run() {
        use hinet_rt::obs::{Event, ObsConfig, TraceSummary, Tracer};

        let assignment = round_robin_assignment(5, 5);

        let mut provider = star_provider(5, 10);
        let mut protocols: Vec<Flood> = (0..5).map(|_| Flood::new()).collect();
        let baseline = Engine::with_defaults().run(&mut provider, &mut protocols, &assignment);

        let mut provider = star_provider(5, 10);
        let mut protocols: Vec<Flood> = (0..5).map(|_| Flood::new()).collect();
        let mut tracer = Tracer::new(ObsConfig::full());
        let report = Engine::new(RunConfig::new().tracer(&mut tracer)).run(
            &mut provider,
            &mut protocols,
            &assignment,
        );

        // Tracing must not perturb the run.
        assert_eq!(report.completion_round, baseline.completion_round);
        assert_eq!(report.metrics.tokens_sent, baseline.metrics.tokens_sent);

        // Tracer counters agree with the report's own accounting.
        let c = tracer.counters();
        assert_eq!(c.rounds, report.rounds_executed as u64);
        assert_eq!(c.tokens_sent, report.metrics.tokens_sent);
        assert_eq!(c.packets_sent, report.metrics.packets_sent);
        assert_eq!(c.tokens_by_role, report.metrics.tokens_by_role);
        assert_eq!(c.bytes_sent, report.total_bytes());

        let summary = TraceSummary::from_tracer(&tracer);
        assert_eq!(summary.completed, Some(true));
        let starts = tracer
            .events()
            .filter(|e| e.event == Event::RoundStart)
            .count();
        assert_eq!(starts, report.rounds_executed);
    }

    #[test]
    fn parallel_round_loop_produces_identical_trace_bytes() {
        use hinet_rt::obs::{ObsConfig, Tracer};

        let assignment = round_robin_assignment(9, 7);
        let jsonl = |threads: usize| {
            let mut provider = star_provider(9, 10);
            let mut protocols: Vec<Flood> = (0..9).map(|_| Flood::new()).collect();
            let mut tracer = Tracer::new(ObsConfig::full());
            Engine::new(RunConfig::new().threads(threads).tracer(&mut tracer)).run(
                &mut provider,
                &mut protocols,
                &assignment,
            );
            tracer.to_jsonl()
        };
        let single = jsonl(1);
        assert_eq!(single, jsonl(4), "4 threads must not perturb the trace");
        assert_eq!(single, jsonl(3), "odd splits must not perturb the trace");
    }

    /// Flooding that panics if it is handed an empty inbox.
    struct NoEmptyReceive(Flood);

    impl Protocol for NoEmptyReceive {
        fn on_start(&mut self, me: NodeId, initial: &[TokenId]) {
            self.0.on_start(me, initial)
        }
        fn send(&mut self, view: &LocalView<'_>) -> Vec<Outgoing> {
            self.0.send(view)
        }
        fn receive(&mut self, view: &LocalView<'_>, inbox: &[Incoming]) {
            assert!(
                !inbox.is_empty(),
                "node {} received an empty inbox",
                view.me
            );
            self.0.receive(view, inbox)
        }
        fn known(&self) -> &TokenSet {
            self.0.known()
        }
    }

    /// Neither driver calls `receive` with an empty inbox, on a clean plan
    /// at one or four workers or on a lossy reliable one. The hub starts
    /// with no token and only leaves 3 and 7 send in round 0, so every
    /// leaf's round-0 inbox is empty; the hub's later broadcasts fill them.
    #[test]
    fn no_driver_receives_an_empty_inbox() {
        use crate::fault::FaultPlan;

        let runs = [
            RunConfig::new().threads(1),
            RunConfig::new().threads(4),
            RunConfig::new()
                .faults(FaultPlan::new(7).with_loss_ppm(300_000))
                .reliable(true),
            RunConfig::new().mode(ExecMode::Event),
        ];
        for cfg in runs {
            let label = format!("{:?}", (cfg.threads, cfg.mode, cfg.reliable));
            let mut provider = star_provider(9, 60);
            let mut protocols: Vec<NoEmptyReceive> =
                (0..9).map(|_| NoEmptyReceive(Flood::new())).collect();
            let mut assignment = vec![Vec::new(); 9];
            assignment[3] = vec![TokenId(0)];
            assignment[7] = vec![TokenId(1)];
            let report = Engine::new(cfg).run(&mut provider, &mut protocols, &assignment);
            assert!(report.completed(), "{label}: {:?}", report.outcome);
        }
    }

    #[test]
    fn finished_protocols_stop_the_run() {
        struct Mute {
            ta: TokenSet,
        }
        impl Protocol for Mute {
            fn on_start(&mut self, _me: NodeId, initial: &[TokenId]) {
                self.ta.extend(initial.iter().copied());
            }
            fn send(&mut self, _view: &LocalView<'_>) -> Vec<Outgoing> {
                vec![]
            }
            fn receive(&mut self, _view: &LocalView<'_>, _inbox: &[Incoming]) {}
            fn known(&self) -> &TokenSet {
                &self.ta
            }
            fn finished(&self) -> bool {
                true
            }
        }
        let mut provider = star_provider(3, 100);
        let mut protocols: Vec<Mute> = (0..3)
            .map(|_| Mute {
                ta: TokenSet::new(),
            })
            .collect();
        let assignment = vec![vec![TokenId(0)], vec![], vec![]];
        let report = Engine::with_defaults().run(&mut provider, &mut protocols, &assignment);
        assert_eq!(report.rounds_executed, 1, "all finished after first round");
        assert!(!report.completed());
    }

    #[test]
    fn outcome_reports_completion_and_stall() {
        let mut provider = star_provider(5, 10);
        let mut protocols: Vec<Flood> = (0..5).map(|_| Flood::new()).collect();
        let assignment = round_robin_assignment(5, 5);
        let report = Engine::with_defaults().run(&mut provider, &mut protocols, &assignment);
        assert_eq!(report.outcome, Outcome::Completed { round: 2 });

        // Disconnected pair: the token never crosses, no faults involved.
        let g = Arc::new(Graph::from_edges(2, []));
        let h = Arc::new({
            use hinet_cluster::hierarchy::{ClusterId, Hierarchy, Role};
            Hierarchy::new(
                vec![Role::Head, Role::Head],
                vec![Some(ClusterId(NodeId(0))), Some(ClusterId(NodeId(1)))],
            )
        });
        let t = TvgTrace::new(vec![Arc::clone(&g)]);
        let mut provider = CtvgTraceProvider::new(CtvgTrace::new(t, vec![h]));
        let mut protocols: Vec<Flood> = (0..2).map(|_| Flood::new()).collect();
        let assignment = vec![vec![TokenId(0)], vec![]];
        let cfg = RunConfig::new().max_rounds(5);
        let report = Engine::new(cfg).run(&mut provider, &mut protocols, &assignment);
        assert_eq!(
            report.outcome,
            Outcome::Stalled {
                missing_tokens: 1,
                budget_exhausted: true
            }
        );
        assert_eq!(
            report.outcome.to_string(),
            "stalled (1 tokens undelivered, budget exhausted)"
        );
    }

    #[test]
    fn total_loss_blocks_dissemination_and_violates_assumption() {
        use crate::fault::FaultPlan;

        let mut provider = star_provider(3, 4);
        let mut protocols: Vec<Flood> = (0..3).map(|_| Flood::new()).collect();
        let assignment = vec![vec![TokenId(0)], vec![], vec![]];
        let faults = FaultPlan::new(9).with_loss_ppm(1_000_000);
        let cfg = RunConfig::new().max_rounds(4).faults(faults);
        let report = Engine::new(cfg).run(&mut provider, &mut protocols, &assignment);
        assert!(!report.completed());
        assert!(report.metrics.faults_injected > 0);
        assert_eq!(
            report.outcome,
            Outcome::AssumptionViolated {
                window: (0, 3),
                def: 1
            },
            "pure message loss is a Definition-1 (per-round delivery) violation"
        );
    }

    #[test]
    fn scheduled_crash_counts_and_recovers() {
        use crate::fault::FaultPlan;

        let mut provider = star_provider(3, 20);
        let mut protocols: Vec<Flood> = (0..3).map(|_| Flood::new()).collect();
        let assignment = vec![vec![], vec![TokenId(0)], vec![]];
        // Crash the hub (the head) in round 1 for one round.
        let faults = FaultPlan::new(0).with_crash_at(1, 0).with_down_rounds(1);
        let report = Engine::new(RunConfig::new().faults(faults)).run(
            &mut provider,
            &mut protocols,
            &assignment,
        );
        assert_eq!(report.metrics.crashes, 1);
        assert_eq!(report.metrics.recoveries, 1);
        assert!(report.completed(), "the run heals after the hub restarts");
        assert!(matches!(report.outcome, Outcome::Completed { .. }));
    }

    #[test]
    fn durable_tokens_survive_a_crash_volatile_ones_do_not() {
        use crate::fault::FaultPlan;

        let run = |durable: bool| {
            let mut provider = star_provider(3, 20);
            let mut protocols: Vec<Flood> = (0..3).map(|_| Flood::new()).collect();
            let assignment = vec![vec![], vec![TokenId(0)], vec![]];
            let mut faults = FaultPlan::new(0).with_crash_at(1, 0).with_down_rounds(1);
            if durable {
                faults = faults.with_durable_tokens(true);
            }
            Engine::new(RunConfig::new().faults(faults))
                .run(&mut provider, &mut protocols, &assignment)
                .completion_round
                .unwrap()
        };
        // The hub learns the token in round 0 and crashes in round 1. With
        // durable storage it re-broadcasts right after recovery; without, it
        // must first re-learn the token from the leaf.
        assert!(run(true) < run(false));
    }

    #[test]
    fn faulted_runs_replay_exactly() {
        use crate::fault::FaultPlan;

        let run = || {
            let mut provider = star_provider(4, 30);
            let mut protocols: Vec<Flood> = (0..4).map(|_| Flood::new()).collect();
            let assignment = round_robin_assignment(4, 4);
            let faults = FaultPlan::new(42).with_loss_ppm(300_000);
            Engine::new(RunConfig::new().faults(faults)).run(
                &mut provider,
                &mut protocols,
                &assignment,
            )
        };
        let (a, b) = (run(), run());
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.metrics.faults_injected, b.metrics.faults_injected);
        assert_eq!(a.metrics.tokens_sent, b.metrics.tokens_sent);
        assert!(a.metrics.faults_injected > 0, "30% loss must bite");
    }

    #[test]
    fn trivial_plan_is_byte_identical_to_plain_tracing() {
        use crate::fault::FaultPlan;
        use hinet_rt::obs::ObsConfig;

        let assignment = round_robin_assignment(5, 5);
        let mut provider = star_provider(5, 10);
        let mut protocols: Vec<Flood> = (0..5).map(|_| Flood::new()).collect();
        let mut plain = Tracer::new(ObsConfig::full());
        Engine::new(RunConfig::new().tracer(&mut plain)).run(
            &mut provider,
            &mut protocols,
            &assignment,
        );

        let mut provider = star_provider(5, 10);
        let mut protocols: Vec<Flood> = (0..5).map(|_| Flood::new()).collect();
        let mut faulted = Tracer::new(ObsConfig::full());
        Engine::new(
            RunConfig::new()
                .faults(FaultPlan::none())
                .tracer(&mut faulted),
        )
        .run(&mut provider, &mut protocols, &assignment);
        assert_eq!(plain.to_jsonl(), faulted.to_jsonl());
    }

    #[test]
    fn lockstep_trace_header_carries_the_dedup_gauge() {
        use crate::fault::FaultPlan;
        use hinet_rt::obs::{ObsConfig, ParsedTrace};

        let assignment = round_robin_assignment(5, 5);
        let mut provider = star_provider(5, 10);
        let mut protocols: Vec<Flood> = (0..5).map(|_| Flood::new()).collect();
        let mut tracer = Tracer::new(ObsConfig::full());
        let faults = FaultPlan::new(4).with_dup_ppm(500_000);
        let report = Engine::new(RunConfig::new().faults(faults).tracer(&mut tracer)).run(
            &mut provider,
            &mut protocols,
            &assignment,
        );
        let m = &report.metrics;
        assert!(m.duplicates_injected > 0, "a 50% dup plan must fire");
        assert_eq!(m.dups_discarded, m.duplicates_injected);
        let parsed = ParsedTrace::parse_jsonl(&tracer.to_jsonl()).unwrap();
        assert_eq!(parsed.counters.dups_discarded, m.dups_discarded);
    }

    #[test]
    fn partition_severs_cross_traffic_and_flags_backbone() {
        use crate::fault::{FaultPlan, Partition};

        let mut provider = star_provider(4, 6);
        let mut protocols: Vec<Flood> = (0..4).map(|_| Flood::new()).collect();
        let assignment = round_robin_assignment(4, 4);
        // Cut {0,1} from {2,3} for the whole run: leaves 2,3 can never learn
        // token 0 or 1 (and vice versa) because every path crosses the hub cut.
        let faults = FaultPlan::new(1).with_partition(Partition {
            start: 0,
            end: 6,
            cut: 2,
        });
        let cfg = RunConfig::new().max_rounds(6).faults(faults);
        let report = Engine::new(cfg).run(&mut provider, &mut protocols, &assignment);
        assert!(!report.completed());
        assert!(report.metrics.faults_injected > 0);
        assert!(
            matches!(report.outcome, Outcome::AssumptionViolated { def: 2, .. }),
            "partitions violate Definition 2 (backbone stability), got {:?}",
            report.outcome
        );
    }

    #[test]
    fn stability_oracle_pins_a_head_crash_to_the_exact_round() {
        use crate::fault::FaultPlan;

        let mut provider = star_provider(4, 6);
        let mut protocols: Vec<Flood> = (0..4).map(|_| Flood::new()).collect();
        let assignment = round_robin_assignment(4, 4);
        // Crash the hub (the sole head) in round 1 for the rest of the run:
        // re-election changes the head set mid-window, and the leaves can no
        // longer exchange tokens, so the run stalls.
        let faults = FaultPlan::new(0).with_crash_at(1, 0).with_down_rounds(100);
        let cfg = RunConfig::new()
            .max_rounds(6)
            .faults(faults)
            .stability_oracle(Some((6, 1)));
        let report = Engine::new(cfg).run(&mut provider, &mut protocols, &assignment);
        assert!(!report.completed());
        // The oracle's attribution replaces the coarse fault-window heuristic
        // (which would have reported the whole window (1, 5)).
        assert_eq!(
            report.outcome,
            Outcome::AssumptionViolated {
                window: (0, 1),
                def: 2
            },
            "the oracle names the exact round the head set changed"
        );
        let stability = report.stability.expect("oracle was configured");
        assert_eq!(stability.rounds, 6);
        assert_eq!(
            stability.violation,
            Some(hinet_cluster::stability::stream::Violation {
                def: 2,
                window_start: 0,
                round: 1
            })
        );
        assert_eq!(stability.hinet_windows, 0);
    }

    #[test]
    fn stability_oracle_is_quiet_on_a_clean_run() {
        let mut provider = star_provider(4, 10);
        let mut protocols: Vec<Flood> = (0..4).map(|_| Flood::new()).collect();
        let assignment = round_robin_assignment(4, 4);
        let cfg = RunConfig::new().stability_oracle(Some((2, 1)));
        let report = Engine::new(cfg).run(&mut provider, &mut protocols, &assignment);
        assert!(report.completed());
        let stability = report.stability.expect("oracle was configured");
        assert_eq!(stability.violation, None);
        assert_eq!(
            stability.windows, stability.hinet_windows,
            "a static star is (T, L)-HiNet for every window"
        );
        assert!(stability.rounds >= 1);
    }
}
