//! Per-round global context shared by both drivers: the round's topology
//! view, its (crash-repaired) hierarchy and its crash/down state.
//!
//! Crash, recovery and re-election decisions are a running fold over
//! rounds, so a [`Builder`] produces one [`RoundCtx`] per round strictly in
//! round order. The lock-step engine takes each context as it reaches the
//! round; the event runtime serves them from a cache to nodes that may be
//! in different rounds at once. Either way every node sees exactly the
//! same round.

use crate::fault::FaultPlan;
use crate::protocol::LocalView;
use hinet_cluster::clustering::{re_elect, GatewayPolicy};
use hinet_cluster::ctvg::HierarchyProvider;
use hinet_cluster::hierarchy::Hierarchy;
use hinet_graph::graph::NodeId;
use hinet_graph::Graph;
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
    /// One log per built round.
    pub(crate) logs: Vec<RoundLog>,
}

impl<'p> Builder<'p> {
    pub(crate) fn new(
        provider: &'p mut (dyn HierarchyProvider + Send),
        validate: bool,
        tracing: bool,
        faults: &FaultPlan,
    ) -> Builder<'p> {
        let n = provider.n();
        Builder {
            provider,
            n,
            validate,
            tracing,
            faults: faults.clone(),
            trivial: faults.is_trivial(),
            next: 0,
            down_until: vec![0; n],
            was_down: vec![false; n],
            prev_heads: Vec::new(),
            ctxs: BTreeMap::new(),
            logs: Vec::new(),
        }
    }

    /// Build the next round's context into [`Builder::ctxs`] and return
    /// the round's raw topology.
    pub(crate) fn build_next(&mut self) -> Arc<Graph> {
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
                graph: Arc::clone(&graph),
                hierarchy,
                down,
                crashed,
            }),
        );
        self.next = round + 1;
        graph
    }
}
