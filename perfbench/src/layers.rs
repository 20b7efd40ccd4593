//! Outside-in per-layer timing. The engine already calls every layer
//! through a public seam, so the traced run wraps those seams instead of
//! instrumenting the program:
//!
//! * [`TimedProvider`] wraps the `HierarchyProvider` (dynamics layer);
//! * [`Timed`] wraps each node's `Protocol` (send and receive);
//! * [`replay`] re-derives the run's snapshot sequence and times
//!   `CsrGraph::from` and `StabilityStream::push` on it.
//!
//! With the lock-step workloads pinned to one thread, the dynamics and
//! protocol spans are disjoint sub-intervals of `Engine::run`, so the
//! engine's self time is the remainder.

use crate::workloads::{run_with, setup, RunOutput, SetupTimes, Spec};
use hinet_cluster::ctvg::HierarchyProvider;
use hinet_cluster::hierarchy::Hierarchy;
use hinet_cluster::stability::stream::StabilityStream;
use hinet_graph::csr::CsrGraph;
use hinet_graph::trace::TopologyProvider;
use hinet_graph::Graph;
use hinet_sim::protocol::{Incoming, LocalView, Outgoing, Payload, Protocol};
use hinet_sim::token::{TokenId, TokenSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn nanos_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// A `HierarchyProvider` that times every call into the wrapped one and
/// counts the distinct topology snapshots it hands out.
pub struct TimedProvider<'a> {
    inner: &'a mut (dyn HierarchyProvider + Send),
    /// Nanoseconds inside `graph_at` and `hierarchy_at`.
    pub ns: u64,
    /// Calls to `graph_at` and `hierarchy_at`.
    pub calls: u64,
    /// Rounds whose graph is a different `Arc` from the previous round's:
    /// the snapshots the engine rebuilds its CSR view for.
    pub snapshots: u64,
    /// Rounds asked for (one past the highest). Event mode builds round
    /// contexts ahead of completion, so this can exceed the rounds run.
    pub rounds: usize,
    last: Option<Arc<Graph>>,
}

impl<'a> TimedProvider<'a> {
    /// Wrap a provider.
    pub fn new(inner: &'a mut (dyn HierarchyProvider + Send)) -> Self {
        TimedProvider {
            inner,
            ns: 0,
            calls: 0,
            snapshots: 0,
            rounds: 0,
            last: None,
        }
    }
}

impl TopologyProvider for TimedProvider<'_> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn graph_at(&mut self, round: usize) -> Arc<Graph> {
        let t = Instant::now();
        let g = self.inner.graph_at(round);
        self.ns += nanos_since(t);
        self.calls += 1;
        self.rounds = self.rounds.max(round + 1);
        if !self.last.as_ref().is_some_and(|prev| Arc::ptr_eq(prev, &g)) {
            self.snapshots += 1;
            self.last = Some(Arc::clone(&g));
        }
        g
    }
}

impl HierarchyProvider for TimedProvider<'_> {
    fn hierarchy_at(&mut self, round: usize) -> Arc<Hierarchy> {
        let t = Instant::now();
        let h = self.inner.hierarchy_at(round);
        self.ns += nanos_since(t);
        self.calls += 1;
        h
    }
}

/// Work and time one node's protocol spent in `send` and `receive`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProtocolStats {
    /// Nanoseconds inside `send`.
    pub send_ns: u64,
    /// Nanoseconds inside `receive`.
    pub receive_ns: u64,
    /// Non-empty messages returned by `send`.
    pub messages: u64,
    /// Tokens carried by those messages.
    pub payload_tokens: u64,
    /// Messages handed to `receive`.
    pub deliveries: u64,
    /// Delivered messages whose payload is a whole token set.
    pub set_deliveries: u64,
}

impl std::ops::AddAssign for ProtocolStats {
    fn add_assign(&mut self, o: ProtocolStats) {
        self.send_ns += o.send_ns;
        self.receive_ns += o.receive_ns;
        self.messages += o.messages;
        self.payload_tokens += o.payload_tokens;
        self.deliveries += o.deliveries;
        self.set_deliveries += o.set_deliveries;
    }
}

/// A `Protocol` that times and counts the calls into the wrapped one.
pub struct Timed<P> {
    inner: P,
    /// What this node's protocol did.
    pub stats: ProtocolStats,
}

impl<P> Timed<P> {
    /// Wrap a protocol.
    pub fn new(inner: P) -> Self {
        Timed {
            inner,
            stats: ProtocolStats::default(),
        }
    }
}

impl<P: Protocol> Protocol for Timed<P> {
    fn on_start(&mut self, me: hinet_graph::graph::NodeId, initial: &[TokenId]) {
        self.inner.on_start(me, initial)
    }

    fn send(&mut self, view: &LocalView<'_>) -> Vec<Outgoing> {
        let t = Instant::now();
        let out = self.inner.send(view);
        self.stats.send_ns += nanos_since(t);
        for o in out.iter().filter(|o| !o.payload.is_empty()) {
            self.stats.messages += 1;
            self.stats.payload_tokens += o.payload.len() as u64;
        }
        out
    }

    fn receive(&mut self, view: &LocalView<'_>, inbox: &[Incoming]) {
        let t = Instant::now();
        self.inner.receive(view, inbox);
        self.stats.receive_ns += nanos_since(t);
        self.stats.deliveries += inbox.len() as u64;
        self.stats.set_deliveries += inbox
            .iter()
            .filter(|m| matches!(m.payload, Payload::Set(_)))
            .count() as u64;
    }

    fn known(&self) -> &TokenSet {
        self.inner.known()
    }

    fn finished(&self) -> bool {
        self.inner.finished()
    }

    fn on_restart(&mut self, me: hinet_graph::graph::NodeId, retained: &[TokenId]) {
        self.inner.on_restart(me, retained)
    }
}

/// One traced run: the run itself plus what the wrappers saw.
pub struct TracedRun {
    /// The run (its report must equal the untraced run's).
    pub out: RunOutput,
    /// Set-up times of the traced run's own inputs.
    pub setup: SetupTimes,
    /// Nanoseconds inside the dynamics provider.
    pub dynamics_ns: u64,
    /// Provider calls.
    pub dynamics_calls: u64,
    /// Distinct consecutive snapshots.
    pub snapshots: u64,
    /// Rounds of dynamics the run asked for.
    pub rounds: usize,
    /// Protocol work summed over nodes.
    pub protocol: ProtocolStats,
}

impl TracedRun {
    /// `Engine::run` wall time minus the dynamics and protocol spans,
    /// floored at zero. In lock-step at one thread the spans partition
    /// the wall clock; in event mode protocol time is summed over workers,
    /// so the remainder understates the engine.
    pub fn engine_self_s(&self) -> f64 {
        let spans = (self.dynamics_ns + self.protocol.send_ns + self.protocol.receive_ns) as f64;
        (self.out.engine_s - spans / 1e9).max(0.0)
    }
}

/// Set up and run `spec` with every seam wrapped.
pub fn traced_run(spec: &Spec) -> TracedRun {
    let prep = setup(spec);
    let mut provider = prep.provider;
    let mut timed_provider = TimedProvider::new(&mut provider);
    let mut protocols: Vec<_> = prep.protocols.into_iter().map(Timed::new).collect();
    let out = run_with(
        spec,
        &mut timed_provider,
        &mut protocols,
        &prep.assignment,
        spec.config(),
        spec.workload.is_audit(),
    );
    let mut protocol = ProtocolStats::default();
    for p in &protocols {
        protocol += p.stats;
    }
    TracedRun {
        out,
        setup: prep.times,
        dynamics_ns: timed_provider.ns,
        dynamics_calls: timed_provider.calls,
        snapshots: timed_provider.snapshots,
        rounds: timed_provider.rounds,
        protocol,
    }
}

/// What replaying a run's snapshot sequence through the CSR and stability
/// layers cost.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Replay {
    /// CSR views built (one per distinct consecutive snapshot).
    pub rebuilds: u64,
    /// Seconds inside `CsrGraph::from`.
    pub rebuild_s: f64,
    /// Edges over all rebuilt snapshots.
    pub edges: u64,
    /// Seconds inside `StabilityStream::push` (zero when not replayed).
    pub push_s: f64,
    /// Windows the stream closed, the trailing partial one included.
    pub windows: u64,
    /// The stream's deterministic peak state estimate in bytes.
    pub peak_state_bytes: u64,
}

/// Replay the first `rounds` rounds of `spec`'s dynamics: rebuild a CSR
/// view wherever the engine would, and, when `stability` is set, push
/// every round through the runtime oracle's `StabilityStream::new(T, L)`
/// in certificate mode. (Closing a window checks L-hop head connectivity
/// from every head; on (1, L) dynamics every round closes a window, which
/// took 39 s for 20 rounds at n = 20 000, so only the audit workload,
/// which runs the oracle, replays it.)
pub fn replay(spec: &Spec, rounds: usize, stability: bool) -> Replay {
    let mut provider = spec.dynamics();
    let mut stream =
        stability.then(|| StabilityStream::new(spec.hinet_t(), spec.hinet_l()).with_certificate());
    let mut out = Replay::default();
    let mut last: Option<Arc<Graph>> = None;
    let (mut csr_ns, mut push_ns) = (0u64, 0u64);
    for round in 0..rounds {
        let g = provider.graph_at(round);
        let h = provider.hierarchy_at(round);
        if !last.as_ref().is_some_and(|prev| Arc::ptr_eq(prev, &g)) {
            let t = Instant::now();
            let csr = black_box(CsrGraph::from(&*g));
            csr_ns += nanos_since(t);
            out.rebuilds += 1;
            out.edges += csr.m() as u64;
            last = Some(Arc::clone(&g));
        }
        if let Some(s) = stream.as_mut() {
            let t = Instant::now();
            black_box(s.push(&g, &h));
            push_ns += nanos_since(t);
        }
    }
    if let Some(s) = stream {
        let (_, report) = s.finish();
        out.windows = report.windows as u64;
        out.peak_state_bytes = report.peak_state_bytes as u64;
    }
    out.rebuild_s = csr_ns as f64 / 1e9;
    out.push_s = push_ns as f64 / 1e9;
    out
}
