//! Per-round global state shared by both drivers: how a round is built
//! and how it is closed.
//!
//! Crash, recovery and re-election decisions are a running fold over
//! rounds, so a [`Builder`] produces one [`RoundCtx`] per round strictly in
//! round order. The lock-step engine takes each context as it reaches the
//! round; the event runtime serves them from a cache to nodes that may be
//! in different rounds at once. Either way every node sees exactly the
//! same round.
//!
//! A [`Fold`] closes rounds in the same strict order: metrics, crash and
//! recovery counts, the fault window and the stop decision. The builder's
//! (T, L) stability oracle is fed the same rounds in the same order (the
//! lock-step engine as it builds a round, the event runtime as it closes
//! one), so both drivers verify exactly the rounds they execute.

use crate::delivery::Tally;
use crate::engine::{Metrics, RoundMetrics, RunConfig};
use crate::fault::FaultPlan;
use crate::protocol::LocalView;
use hinet_cluster::clustering::{re_elect, GatewayPolicy};
use hinet_cluster::ctvg::HierarchyProvider;
use hinet_cluster::hierarchy::Hierarchy;
use hinet_cluster::stability::stream::{StabilityStream, StreamReport, WindowVerdict};
use hinet_graph::graph::NodeId;
use hinet_graph::Graph;
use hinet_rt::obs::Tracer;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One round's global context.
pub(crate) struct RoundCtx {
    /// The provider's snapshot for this round, shared, not copied.
    pub(crate) graph: Arc<Graph>,
    pub(crate) hierarchy: Arc<Hierarchy>,
    /// `down[i]`: node `i` is silent this round (inside a crash window).
    pub(crate) down: Box<[bool]>,
    /// `crashed[i]`: the fault plane crashes node `i` at the start of this
    /// round (its protocol restarts before it sends).
    pub(crate) crashed: Box<[bool]>,
}

impl RoundCtx {
    /// Node `me`'s view of round `r`.
    pub(crate) fn view(&self, me: NodeId, r: usize) -> LocalView<'_> {
        LocalView {
            me,
            round: r,
            role: self.hierarchy.role(me),
            cluster: self.hierarchy.cluster_of(me),
            head: self.hierarchy.head_of(me),
            parent: self.hierarchy.parent_of(me),
            neighbors: self.graph.neighbors(me),
        }
    }
}

/// One round's builder-side event log, kept for the whole run (unlike the
/// heavyweight [`RoundCtx`]s): everything the trace and the crash/recovery
/// counters need.
#[derive(Default)]
pub(crate) struct RoundLog {
    pub(crate) recoveries: Vec<usize>,
    pub(crate) crashes: Vec<usize>,
    /// `(node, old_head, new_head)` — recorded only when tracing.
    pub(crate) reaffs: Vec<(u64, Option<u64>, Option<u64>)>,
    /// The stability oracle's verdict on the window this round closed.
    pub(crate) verdict: Option<WindowVerdict>,
}

impl RoundLog {
    /// Open round `r` in the trace: its start, its recoveries, crashes and
    /// re-affiliations, then the oracle's verdict.
    pub(crate) fn trace(&self, tracer: &mut Tracer, r: usize, durable_tokens: bool) {
        let r = r as u64;
        tracer.round_start(r);
        for &i in &self.recoveries {
            tracer.recover(r, i as u64);
        }
        for &i in &self.crashes {
            tracer.crash(r, i as u64, durable_tokens);
        }
        for &(node, old, new) in &self.reaffs {
            tracer.reaffiliation(r, node, old, new);
        }
        if let Some(verdict) = &self.verdict {
            verdict.emit_into(tracer);
        }
    }
}

/// Round-context builder: owns the provider and builds [`RoundCtx`]s
/// strictly in round order.
pub(crate) struct Builder<'p> {
    provider: &'p mut (dyn HierarchyProvider + Send),
    n: usize,
    validate: bool,
    tracing: bool,
    faults: FaultPlan,
    trivial: bool,
    /// The next round to build.
    pub(crate) next: usize,
    down_until: Vec<usize>,
    was_down: Vec<bool>,
    prev_heads: Vec<Option<NodeId>>,
    /// Built contexts not yet taken or pruned, by round.
    pub(crate) ctxs: BTreeMap<usize, Arc<RoundCtx>>,
    /// The logs of the last `logs.len()` built rounds (a driver may pop
    /// the ones it has taken).
    pub(crate) logs: Vec<RoundLog>,
    /// The runtime (T, L)-HiNet oracle ([`RunConfig::stability_oracle`]),
    /// in certificate mode.
    oracle: Option<StabilityStream>,
    /// The next round to feed the oracle: a context a driver leaves in
    /// [`Builder::ctxs`] must stay there until this passes it.
    pub(crate) verified: usize,
}

impl<'p> Builder<'p> {
    pub(crate) fn new(
        provider: &'p mut (dyn HierarchyProvider + Send),
        cfg: &RunConfig<'_>,
        tracing: bool,
    ) -> Builder<'p> {
        let n = provider.n();
        Builder {
            provider,
            n,
            validate: cfg.validate_hierarchy,
            tracing,
            faults: cfg.faults.clone(),
            trivial: cfg.faults.is_trivial(),
            next: 0,
            down_until: vec![0; n],
            was_down: vec![false; n],
            prev_heads: Vec::new(),
            ctxs: BTreeMap::new(),
            logs: Vec::new(),
            oracle: cfg
                .stability_oracle
                .map(|(t, l)| StabilityStream::new(t, l).with_certificate()),
            verified: 0,
        }
    }

    /// Feed built round `r`, the next in order, to the stability oracle,
    /// which sees it exactly as the protocols do: the round's topology and
    /// its effective hierarchy, after any crash re-election. The verdict
    /// lands in the round's log. Without an oracle this only advances
    /// [`Builder::verified`].
    pub(crate) fn verify(&mut self, r: usize) {
        debug_assert_eq!(r, self.verified, "rounds are verified in order");
        self.verified = r + 1;
        if let Some(stream) = self.oracle.as_mut() {
            let ctx = &self.ctxs[&r];
            let at = self.logs.len() + r - self.next;
            self.logs[at].verdict = stream.push(&ctx.graph, &ctx.hierarchy);
        }
    }

    /// Close the oracle's trailing window and summarise the stream
    /// (`None` without an oracle).
    pub(crate) fn finish(self) -> Option<(Option<WindowVerdict>, StreamReport)> {
        self.oracle.map(StabilityStream::finish)
    }

    /// Build the next round's context into [`Builder::ctxs`].
    pub(crate) fn build_next(&mut self) {
        let round = self.next;
        let n = self.n;
        let graph = self.provider.graph_at(round);
        let mut hierarchy = self.provider.hierarchy_at(round);
        if self.validate {
            hierarchy
                .validate(&graph)
                .unwrap_or_else(|e| panic!("round {round}: invalid hierarchy: {e}"));
        }

        let mut log = RoundLog::default();
        let mut crashed = vec![false; n].into_boxed_slice();
        if !self.trivial {
            // Recoveries first: a node whose down window just elapsed
            // rejoins this round (and is immediately re-crashable).
            for i in 0..n {
                if self.was_down[i] && round >= self.down_until[i] {
                    self.was_down[i] = false;
                    log.recoveries.push(i);
                }
            }
            for i in 0..n {
                if round < self.down_until[i] {
                    continue; // still down; cannot crash again yet
                }
                let me = NodeId::from_index(i);
                if self.faults.crashes(round, i, hierarchy.is_head(me)) {
                    crashed[i] = true;
                    log.crashes.push(i);
                    self.down_until[i] = round + self.faults.down_rounds;
                    self.was_down[i] = true;
                }
            }
        }
        let down: Box<[bool]> = (0..n).map(|i| round < self.down_until[i]).collect();
        // While a crashed node heads a cluster, repair the round's
        // hierarchy so live members re-home to live heads.
        if !self.trivial && (0..n).any(|i| down[i] && hierarchy.is_head(NodeId::from_index(i))) {
            hierarchy = Arc::new(re_elect(
                &graph,
                &hierarchy,
                &down,
                GatewayPolicy::default(),
            ));
        }
        if self.tracing {
            let heads: Vec<Option<NodeId>> = (0..n)
                .map(|i| hierarchy.head_of(NodeId::from_index(i)))
                .collect();
            if round > 0 {
                for (i, (old, new)) in self.prev_heads.iter().zip(&heads).enumerate() {
                    if old != new {
                        log.reaffs.push((
                            i as u64,
                            old.map(|h| h.0 as u64),
                            new.map(|h| h.0 as u64),
                        ));
                    }
                }
            }
            self.prev_heads = heads;
        }
        self.logs.push(log);
        self.ctxs.insert(
            round,
            Arc::new(RoundCtx {
                graph,
                hierarchy,
                down,
                crashed,
            }),
        );
        self.next = round + 1;
    }
}

/// The fold over closed rounds, shared by both drivers: each round's
/// metrics, crash and recovery counts, fault window and stop decision,
/// taken strictly in round order.
pub(crate) struct Fold {
    /// Node count.
    pub(crate) n: usize,
    record_rounds: bool,
    stop_on_completion: bool,
    pub(crate) metrics: Metrics,
    pub(crate) rounds_executed: usize,
    pub(crate) completion_round: Option<usize>,
    /// A stop rule (completion or quiescence) ended the run before the
    /// round budget did.
    pub(crate) stopped: bool,
    /// `(first, last)` round in which any fault fired.
    pub(crate) fault_window: Option<(u64, u64)>,
    /// Whether a backbone-level fault (crash or partition) fired, vs
    /// message loss only — selects the violated-assumption class.
    pub(crate) backbone: bool,
}

impl Fold {
    pub(crate) fn new(n: usize, cfg: &RunConfig<'_>) -> Fold {
        Fold {
            n,
            record_rounds: cfg.record_rounds,
            stop_on_completion: cfg.stop_on_completion,
            metrics: Metrics::default(),
            rounds_executed: 0,
            completion_round: None,
            stopped: false,
            fault_window: None,
            backbone: false,
        }
    }

    /// Close round `r`: its builder `log`, the delivery `tally` summed over
    /// all nodes, the informed-node counts after its crash restarts and
    /// after its receives, and whether every protocol is finished with
    /// nothing left in flight (a delayed or unacked envelope can still
    /// inform a node after every protocol quiesced). Returns whether the
    /// run stops after `r`.
    pub(crate) fn close(
        &mut self,
        r: usize,
        log: &RoundLog,
        tally: &Tally,
        informed_start: usize,
        informed_end: usize,
        quiescent: bool,
    ) -> bool {
        self.metrics.recoveries += log.recoveries.len() as u64;
        self.metrics.crashes += log.crashes.len() as u64;
        if !log.crashes.is_empty() {
            self.backbone = true;
            self.note_fault(r);
        }
        let (faulted, partitioned) = tally.fold(&mut self.metrics);
        if faulted {
            self.note_fault(r);
        }
        self.backbone |= partitioned;
        if self.record_rounds {
            self.metrics.rounds.push(RoundMetrics {
                tokens_sent: tally.tokens(),
                packets_sent: tally.packets(),
                informed_nodes: informed_start,
            });
        }
        self.rounds_executed = r + 1;
        if self.completion_round.is_none() && informed_end == self.n {
            self.completion_round = Some(r + 1);
            self.stopped = self.stop_on_completion;
        }
        self.stopped |= quiescent;
        self.stopped
    }

    /// Widen the `(first, last)` fault window to include round `r`.
    fn note_fault(&mut self, r: usize) {
        let r = r as u64;
        self.fault_window = Some(match self.fault_window {
            None => (r, r),
            Some((first, _)) => (first, r),
        });
    }
}
