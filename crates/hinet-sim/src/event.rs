//! Event-driven execution mode: mailboxes, round reassembly and in-order
//! round closing on top of the [`crate::transport`] plane.
//!
//! The driver replaces the lock-step engine's global round barrier with
//! per-node progress: each node advances through its own round sequence as
//! soon as its quorum for the round is met in its shard's
//! [`crate::transport::Reassembly`], so different nodes can be in different
//! rounds at the same wall instant and workers run truly concurrently on
//! the [`hinet_rt::pool`].
//!
//! # Shards
//!
//! Each worker owns a contiguous node range (a shard) and everything its
//! nodes' steps touch: their protocol instances, one reassembly for all of
//! them, and reusable buffers for the outgoing envelopes of a send step,
//! drained cross-shard mail, the released round and timer retransmits. A
//! send step's envelopes for nodes of the same shard are filed straight
//! into its reassembly, with no lock and no wake-up; only cross-shard
//! envelopes go through the [`ChannelTransport`] and ring the receiving
//! shard's doorbell. So in steady state a step allocates nothing beyond
//! what its protocol allocates, and at one worker no envelope touches a
//! mailbox. Per-token latency cover is counted per shard too: a shared
//! atomic moves only when the last node of a shard learns the token.
//!
//! # Equivalence with lock-step
//!
//! Per-sender `(round, seq)` tagging plus the buffer's `(from, seq)` sort
//! reproduce exactly the inbox the lock-step engine would have built, and a
//! node's send for round `r` always runs against its state after its own
//! round `r-1` receive — so every protocol instance evolves round-by-round
//! identically to lock-step. Crash/recovery/re-election decisions are
//! global per-round state; they come from the same round builder the
//! lock-step engine uses (one [`RoundCtx`] per round, derived from its
//! predecessor's down-state), served here by a shared context server, and
//! every envelope crosses the same delivery plane
//! ([`crate::delivery::Plane`]) — so they too match lock-step bit for bit.
//!
//! Per-node round reports are summed until a round's n reports are in;
//! then the round is closed by the same [`crate::round::Fold`] the
//! lock-step engine uses, strictly in round order — metrics, crash and
//! recovery counts, the fault window, the stop decision — and closing it
//! feeds it to the (T, L) stability oracle, so rounds are verified in
//! order too. Nodes past the eventually-final stop round ("overshoot") can
//! only be nodes that already know the whole universe, so their extra
//! sends and receives never change any final token set; an overshoot round
//! is never closed, so it is never verified either. The one exception — a
//! fault-plane crash injected in an overshoot round, which would forget
//! tokens lock-step never forgot — is repaired after the run by restarting
//! the affected node with the full universe (exactly what it knew when it
//! entered overshoot). Metrics and trace events are buffered per
//! `(node, round)` and merged/replayed in lock-step order for rounds below
//! the final stop, so reports and trace bytes match the lock-step engine
//! exactly (the trace differs only in its `mode` meta stamp).

use crate::delivery::{record_message, replay, BufEvt, DueBuf, Link, Plane, Tally};
use crate::engine::{
    resolve_event_threads, wall_clock, MessageRecord, NodeStall, Ran, RunConfig, StallDiag,
    TokenLatency,
};
use crate::fault::FaultPlan;
use crate::protocol::Protocol;
use crate::round::{Builder, Fold, RoundCtx};
use crate::token::{TokenId, TokenSet};
use crate::transport::{ChannelTransport, Envelope, Reassembly, Released};
use hinet_graph::graph::NodeId;
use hinet_rt::obs::Tracer;
use hinet_rt::pool;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long a parked worker sleeps before re-scanning its shard even
/// without a doorbell ring — a liveness safety net, not the fast path.
const PARK_TIMEOUT: Duration = Duration::from_millis(10);

/// Keep at most this many round contexts cached before pruning the ones
/// every node has already passed.
const CTX_CACHE_SOFT_CAP: usize = 64;

/// One node's contribution to a round, accumulated across its send and
/// receive steps and reported once the round is done.
#[derive(Default)]
struct NodeReport {
    tally: Tally,
    informed_start: i64,
    informed_end: i64,
    finished: i64,
    /// Net change in this node's delivery-plane in-flight count (held
    /// delayed envelopes + unacked reliability-window entries) over the
    /// round — the run must not stop as all-finished while envelopes
    /// that could still inform someone are in the air.
    inflight: i64,
}

/// The summed reports of one not-yet-closed round.
#[derive(Default)]
struct PendingRound {
    reports: usize,
    agg: NodeReport,
}

/// Per-node round reports, summed per round and handed to the shared
/// [`Fold`] in strict round order once a round's n reports are in.
struct Reports {
    /// The next round to close.
    next: usize,
    pending: BTreeMap<usize, PendingRound>,
    /// Running informed/finished counts, folded from the per-round deltas.
    informed: usize,
    finished: usize,
    /// Running total of delivery-plane in-flight envelopes (held delayed
    /// envelopes + unacked reliability-window entries) across all nodes.
    inflight: i64,
    fold: Fold,
}

impl Reports {
    /// Add node report `rep` for `round`, then close every round whose
    /// reports are all in. Closing takes the builder lock while this one
    /// is held (never the other way round) to feed the stability oracle
    /// and read the round's log. Returns `Some(stop_round)` when a closed
    /// round stopped the run.
    fn report(
        &mut self,
        round: usize,
        rep: NodeReport,
        builder: &Mutex<Builder<'_>>,
    ) -> Option<usize> {
        let pr = self.pending.entry(round).or_default();
        pr.reports += 1;
        pr.agg.tally.add(&rep.tally);
        pr.agg.informed_start += rep.informed_start;
        pr.agg.informed_end += rep.informed_end;
        pr.agg.finished += rep.finished;
        pr.agg.inflight += rep.inflight;

        while !self.fold.stopped {
            let ready = self
                .pending
                .get(&self.next)
                .is_some_and(|pr| pr.reports == self.fold.n);
            if !ready {
                break;
            }
            let a = self.pending.remove(&self.next).expect("pending round").agg;
            let r = self.next;
            self.next = r + 1;
            self.informed = (self.informed as i64 + a.informed_start) as usize;
            let informed_at_start = self.informed;
            self.informed = (self.informed as i64 + a.informed_end) as usize;
            self.finished = (self.finished as i64 + a.finished) as usize;
            self.inflight += a.inflight;
            let mut b = builder.lock().expect("context server lock");
            b.verify(r);
            let quiescent = self.finished == self.fold.n && self.inflight == 0;
            if self.fold.close(
                r,
                &b.logs[r],
                &a.tally,
                informed_at_start,
                self.informed,
                quiescent,
            ) {
                return Some(r);
            }
        }
        None
    }
}

/// Per-shard wakeup latch: workers park on it when their shard has no
/// runnable node; the transport notifier and stop changes ring it.
///
/// A ring is one atomic epoch bump; it takes the lock and wakes the
/// condvar only when a worker is parked. A waiter registers in `parked`
/// under the lock before re-checking the epoch, and a ringer bumps the
/// epoch before reading `parked` (both `SeqCst`), so either the ringer
/// sees the waiter or the waiter sees the new epoch: no wake-up is lost.
struct Doorbell {
    epoch: AtomicU64,
    parked: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Doorbell {
    fn new() -> Doorbell {
        Doorbell {
            epoch: AtomicU64::new(0),
            parked: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    fn ring(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) > 0 {
            let _g = self.lock.lock().expect("doorbell lock");
            self.cv.notify_all();
        }
    }

    /// Park until the epoch moves past `seen` or `timeout` elapses;
    /// returns whether the epoch moved.
    fn wait(&self, seen: u64, timeout: Duration) -> bool {
        let mut g = self.lock.lock().expect("doorbell lock");
        self.parked.fetch_add(1, Ordering::SeqCst);
        while self.epoch() == seen {
            let (next, res) = self.cv.wait_timeout(g, timeout).expect("doorbell lock");
            g = next;
            if res.timed_out() {
                break;
            }
        }
        self.parked.fetch_sub(1, Ordering::SeqCst);
        self.epoch() != seen
    }
}

/// Per-node runtime state owned by its shard.
struct NodeState {
    round: usize,
    sent: bool,
    stalled: bool,
    done: bool,
    informed: bool,
    finished: bool,
    /// Ever-learned token superset (never shrinks across crashes) — the
    /// per-token latency cover contribution guard.
    learned: TokenSet,
    rep: NodeReport,
    /// Last round in which this node applied a crash restart.
    crashed_at: Option<usize>,
    /// Delivery-plane state: held envelopes, reliability window, ledger.
    link: Link,
    /// In-flight count at the end of the last receive step, so each round
    /// reports a delta.
    last_inflight: i64,
    /// Buffered trace events, `(round, events)` ascending.
    evts: Vec<(usize, Vec<BufEvt>)>,
    /// Buffered message records (rounds ascending).
    msgs: Vec<MessageRecord>,
}

impl NodeState {
    fn new(link: Link) -> NodeState {
        NodeState {
            round: 0,
            sent: false,
            stalled: false,
            done: false,
            informed: false,
            finished: false,
            learned: TokenSet::new(),
            rep: NodeReport::default(),
            crashed_at: None,
            link,
            last_inflight: 0,
            evts: Vec::new(),
            msgs: Vec::new(),
        }
    }
}

/// A contiguous node range plus its protocol instances — one worker
/// thread's whole world.
struct Shard<'a, P> {
    base: usize,
    protocols: &'a mut [P],
    nodes: Vec<NodeState>,
    /// Round reassembly for every node of the shard.
    reasm: Reassembly,
    /// The envelopes of the send step in progress.
    outbox: Vec<Envelope>,
    /// Cross-shard mail drained from a node's mailbox.
    mail: Vec<Envelope>,
    /// The round a receive step released.
    released: Released,
    /// Timer retransmits of the send step in progress.
    due: DueBuf,
    /// Per token id: how many of the shard's nodes have ever learned it.
    cover: Vec<u32>,
}

/// Everything the workers share.
struct Shared<'a> {
    server: Mutex<Builder<'a>>,
    reports: Mutex<Reports>,
    transport: ChannelTransport,
    doorbells: Arc<Vec<Doorbell>>,
    stop_after: AtomicUsize,
    abort: AtomicBool,
    node_round: Vec<AtomicUsize>,
    stalls: AtomicU64,
    /// Per token id: how many shards have every node knowing it.
    cover: Vec<AtomicUsize>,
    nshards: usize,
    covered_at: Vec<AtomicU64>,
    start: Instant,
    universe: &'a TokenSet,
    assignment: &'a [Vec<TokenId>],
    faults: &'a FaultPlan,
    plane: Plane<'a>,
    /// Stall watchdog — `Some` when `RunConfig::stall_rounds > 0`.
    watchdog: Option<Mutex<Watchdog>>,
    /// No-progress window before the watchdog fires.
    stall_window: Duration,
    /// Progress epoch: bumped on every completed receive step; the
    /// watchdog re-arms whenever it moves.
    progress: AtomicU64,
    /// Set by the watchdog: workers snapshot stall diagnostics and exit.
    halted: AtomicBool,
    /// Per-node stall diagnostics, recorded by the workers after a halt.
    stall_info: Mutex<Vec<NodeStall>>,
}

/// Stall watchdog state: armed with a deadline one full no-progress window
/// in the future; any quorum progress (a completed receive step anywhere)
/// re-arms it. Probed by workers about to park, so it costs nothing while
/// the run is moving.
struct Watchdog {
    last_epoch: u64,
    deadline: Instant,
}

impl Watchdog {
    fn new(now: Instant, window: Duration) -> Watchdog {
        Watchdog {
            last_epoch: 0,
            deadline: now + window,
        }
    }

    /// Probe with the current progress epoch: `true` when no progress has
    /// been observed for a full window.
    fn probe(&mut self, epoch: u64, now: Instant, window: Duration) -> bool {
        if epoch != self.last_epoch {
            self.last_epoch = epoch;
            self.deadline = now + window;
            return false;
        }
        now >= self.deadline
    }
}

impl Shared<'_> {
    /// Fetch (building as needed) the context for `round`, pruning cached
    /// contexts every node has already passed and the stability oracle
    /// has been fed.
    fn ctx(&self, round: usize) -> Arc<RoundCtx> {
        let mut b = self.server.lock().expect("context server lock");
        while b.next <= round {
            b.build_next();
        }
        if b.ctxs.len() > CTX_CACHE_SOFT_CAP {
            let min = self
                .node_round
                .iter()
                .map(|r| r.load(Ordering::Relaxed))
                .min()
                .unwrap_or(0);
            let keep = min.min(b.verified);
            b.ctxs.retain(|&r, _| r >= keep);
        }
        Arc::clone(b.ctxs.get(&round).expect("context just built"))
    }

    fn ring_all(&self) {
        for d in self.doorbells.iter() {
            d.ring();
        }
    }
}

/// Sets the abort flag and wakes every worker if its owner unwinds, so a
/// panicking shard cannot leave its peers parked on quorums that will
/// never arrive.
struct AbortGuard<'s, 'a> {
    shared: &'s Shared<'a>,
}

impl Drop for AbortGuard<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.shared.abort.store(true, Ordering::SeqCst);
            self.shared.ring_all();
        }
    }
}

/// Run the event-driven mode on the frame [`crate::engine::Engine::run`]
/// set up (at least one round to run, not everyone informed). Semantics
/// and reports are identical to the lock-step engine on the same config
/// (see the module docs for the argument); the wall clock additionally
/// carries per-token latency and the mailbox/reassembly counters.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run<'a, P: Protocol + Send>(
    cfg: &'a RunConfig<'_>,
    tracer: &mut Tracer,
    builder: Builder<'a>,
    fold: Fold,
    protocols: &mut [P],
    assignment: &'a [Vec<TokenId>],
    universe: &'a TokenSet,
    start: Instant,
) -> Ran {
    let faults = &cfg.faults;
    let n = protocols.len();
    let threads = resolve_event_threads(cfg.threads, n);
    let tracing = tracer.enabled();

    // Initial census: informed/finished counts.
    let id_space = universe.max().map_or(0, |t| t.0 as usize + 1);
    let mut informed0 = 0usize;
    let mut finished0 = 0usize;
    for p in protocols.iter() {
        informed0 += usize::from(universe.is_subset(p.known()));
        finished0 += usize::from(p.finished());
    }

    let shard_size = n.div_ceil(threads);
    let nshards = n.div_ceil(shard_size);
    let doorbells: Arc<Vec<Doorbell>> = Arc::new((0..nshards).map(|_| Doorbell::new()).collect());
    let transport = ChannelTransport::new(n);
    {
        let doorbells = Arc::clone(&doorbells);
        transport.set_notifier(Arc::new(move |node| doorbells[node / shard_size].ring()));
    }

    let shared = Shared {
        server: Mutex::new(builder),
        reports: Mutex::new(Reports {
            next: 0,
            pending: BTreeMap::new(),
            informed: informed0,
            finished: finished0,
            inflight: 0,
            fold,
        }),
        transport,
        doorbells: Arc::clone(&doorbells),
        stop_after: AtomicUsize::new(cfg.max_rounds - 1),
        abort: AtomicBool::new(false),
        node_round: (0..n).map(|_| AtomicUsize::new(0)).collect(),
        stalls: AtomicU64::new(0),
        cover: (0..id_space).map(|_| AtomicUsize::new(0)).collect(),
        nshards,
        covered_at: (0..id_space).map(|_| AtomicU64::new(u64::MAX)).collect(),
        start,
        universe,
        assignment,
        faults,
        plane: Plane::new(
            faults,
            cfg.reliable,
            tracing,
            cfg.record_messages,
            cfg.cost_weights,
            true,
        ),
        watchdog: (cfg.stall_rounds > 0).then(|| {
            let window = PARK_TIMEOUT * cfg.stall_rounds as u32;
            Mutex::new(Watchdog::new(Instant::now(), window))
        }),
        stall_window: PARK_TIMEOUT * cfg.stall_rounds.max(1) as u32,
        progress: AtomicU64::new(0),
        halted: AtomicBool::new(false),
        stall_info: Mutex::new(Vec::new()),
    };
    // Build shards: contiguous node ranges, one worker thread each. Each
    // node carries its per-protocol learned set (seeded from its initial
    // known tokens) into the latency cover diffing, and each shard counts
    // how many of its nodes know each token.
    let mut shards: Vec<Shard<'_, P>> = Vec::new();
    {
        let mut rest = &mut protocols[..];
        let mut base = 0usize;
        while !rest.is_empty() {
            let take = shard_size.min(rest.len());
            let (chunk, tail) = rest.split_at_mut(take);
            let mut nodes = Vec::with_capacity(take);
            let mut cover = vec![0u32; id_space];
            for (j, p) in chunk.iter().enumerate() {
                let mut st = NodeState::new(shared.plane.link(base + j));
                st.learned = p.known().clone();
                st.informed = universe.is_subset(p.known());
                st.finished = p.finished();
                nodes.push(st);
                for t in p.known() {
                    cover[t.0 as usize] += 1;
                }
            }
            for (t, &c) in cover.iter().enumerate() {
                if c as usize == take {
                    shared.cover[t].fetch_add(1, Ordering::Relaxed);
                }
            }
            shards.push(Shard {
                base,
                protocols: chunk,
                nodes,
                reasm: Reassembly::new(take),
                outbox: Vec::new(),
                mail: Vec::new(),
                released: Released::default(),
                due: DueBuf::new(),
                cover,
            });
            base += take;
            rest = tail;
        }
    }
    // Tokens fully known at the start are covered at t = 0.
    for t in universe {
        if shared.cover[t.0 as usize].load(Ordering::Relaxed) == nshards {
            shared.covered_at[t.0 as usize].store(0, Ordering::Relaxed);
        }
    }

    pool::map_mut(&mut shards, nshards, |s, shard| {
        let _guard = AbortGuard { shared: &shared };
        run_shard(&shared, s, shard);
    });

    // The fold closed every round below the stop, in order: merged
    // metrics, crash and recovery counts, the completion verdict and the
    // fault window. The clock stops here: the merges and the trace replay
    // below are not the message plane's work.
    let mut fold = shared.reports.into_inner().expect("reports lock").fold;
    let mut wall = wall_clock(start, fold.metrics.tokens_sent);
    let rounds_executed = fold.rounds_executed;
    let builder = shared.server.into_inner().expect("context server lock");

    // Stall-watchdog diagnostics: when the watchdog halted the run short
    // of completion, the workers' per-node snapshots become the report's
    // structured stall diagnosis (frontier rounds, missing quorum senders,
    // oldest unacked envelope ages) plus the fault window for attribution.
    let halted = shared.halted.load(Ordering::SeqCst);
    let mut stall_nodes = shared.stall_info.into_inner().expect("stall info lock");
    stall_nodes.sort_by_key(|s| s.node.index());
    let halted = halted && fold.completion_round.is_none() && !stall_nodes.is_empty();
    let stall = halted.then_some(StallDiag {
        nodes: stall_nodes,
        fault_window: fold.fault_window,
    });

    // Overshoot-crash repair: a node restarted by a crash in a round the
    // run turned out not to include had (provably) already learned the
    // whole universe when it entered that round — put it back there.
    if fold.completion_round.is_some() {
        let universe_tokens: Vec<TokenId> = universe.iter().collect();
        for shard in &mut shards {
            for (j, st) in shard.nodes.iter().enumerate() {
                if st.crashed_at.is_some_and(|r| r >= rounds_executed) {
                    let me = NodeId::from_index(shard.base + j);
                    shard.protocols[j].on_restart(me, &universe_tokens);
                }
            }
        }
    }

    // Message-log merge in lock-step order (ascending round, then node),
    // honouring the cap exactly like the lock-step recorder.
    if cfg.record_messages {
        let mut cursors = vec![0usize; n];
        for r in 0..rounds_executed {
            for shard in &shards {
                for (j, st) in shard.nodes.iter().enumerate() {
                    let c = &mut cursors[shard.base + j];
                    while *c < st.msgs.len() && st.msgs[*c].round == r {
                        let record = st.msgs[*c].clone();
                        record_message(&mut fold.metrics, cfg.message_log_cap, record);
                        *c += 1;
                    }
                }
            }
        }
    }

    // Trace replay: emit the buffered events through the real tracer in
    // exact lock-step order, so event-mode trace bytes match lock-step.
    if tracing {
        let mut cursors = vec![0usize; n];
        for r in 0..rounds_executed {
            builder.logs[r].trace(tracer, r, faults.durable_tokens);
            for shard in &shards {
                for (j, st) in shard.nodes.iter().enumerate() {
                    let i = shard.base + j;
                    let c = &mut cursors[i];
                    if *c < st.evts.len() && st.evts[*c].0 == r {
                        for e in &st.evts[*c].1 {
                            replay(tracer, r as u64, i as u64, e);
                        }
                        *c += 1;
                    }
                }
            }
        }
        if let Some(d) = &stall {
            for ns in &d.nodes {
                tracer.stall_probe(ns.frontier as u64, ns.node.0 as u64);
            }
        }
    }

    // Per-token cover latency from the stamped completion instants.
    let mut lat: Vec<u64> = universe
        .iter()
        .filter_map(|t| {
            let v = shared.covered_at[t.0 as usize].load(Ordering::Relaxed);
            (v != u64::MAX).then_some(v)
        })
        .collect();
    lat.sort_unstable();
    wall.latency = (!lat.is_empty()).then(|| TokenLatency {
        covered: lat.len(),
        total: universe.len(),
        p50_ns: lat[lat.len() / 2],
        p95_ns: lat[(lat.len() * 95 / 100).min(lat.len() - 1)],
        max_ns: *lat.last().expect("non-empty"),
    });
    wall.reassembly_stalls = shared.stalls.load(Ordering::Relaxed);
    wall.mailbox_depth_max = shared.transport.max_depth() as u64;
    Ran {
        fold,
        oracle: builder.finish(),
        stall,
        wall,
    }
}

/// The worker loop for one shard: repeatedly sweep the shard's nodes,
/// stepping each as far as its quorum allows, parking on the shard
/// doorbell when nothing moved.
fn run_shard<P: Protocol>(shared: &Shared<'_>, s: usize, shard: &mut Shard<'_, P>) {
    loop {
        if shared.abort.load(Ordering::SeqCst) {
            return;
        }
        if shared.halted.load(Ordering::SeqCst) {
            record_stall(shared, shard);
            return;
        }
        let epoch = shared.doorbells[s].epoch();
        let mut progressed = false;
        let mut all_done = true;
        for j in 0..shard.nodes.len() {
            let i = shard.base + j;
            loop {
                if shared.abort.load(Ordering::SeqCst) {
                    return;
                }
                if shard.nodes[j].done {
                    break;
                }
                let r = shard.nodes[j].round;
                if r > shared.stop_after.load(Ordering::SeqCst) {
                    // Past the stop: nothing more is taken, so whatever
                    // is buffered or still arrives for the node is dropped.
                    shard.nodes[j].done = true;
                    shard.reasm.close_node(j);
                    progressed = true;
                    break;
                }
                let ctx = shared.ctx(r);
                if !shard.nodes[j].sent {
                    step_send(shared, shard, j, r, &ctx);
                    shard.nodes[j].sent = true;
                    progressed = true;
                }
                if shared.transport.drain(i, &mut shard.mail) > 0 {
                    for env in shard.mail.drain(..) {
                        shard.reasm.file(j, env);
                    }
                }
                let quorum = ctx.graph.neighbors(NodeId::from_index(i)).len();
                if !shard.reasm.ready(j, r, quorum) {
                    let st = &mut shard.nodes[j];
                    if !st.stalled {
                        st.stalled = true;
                        shared.stalls.fetch_add(1, Ordering::Relaxed);
                    }
                    break;
                }
                step_recv(shared, shard, j, r, &ctx);
                let st = &mut shard.nodes[j];
                st.round = r + 1;
                st.sent = false;
                st.stalled = false;
                shared.node_round[i].store(st.round, Ordering::Relaxed);
                progressed = true;
            }
            if !shard.nodes[j].done {
                all_done = false;
            }
        }
        if all_done {
            return;
        }
        if !progressed {
            // Probe the stall watchdog before parking: if no receive step
            // completed anywhere for a full window, halt the run and let
            // every worker snapshot its stall diagnostics.
            if let Some(wd) = &shared.watchdog {
                let epoch_now = shared.progress.load(Ordering::Relaxed);
                let fire = wd.lock().expect("watchdog lock").probe(
                    epoch_now,
                    Instant::now(),
                    shared.stall_window,
                );
                if fire {
                    shared.halted.store(true, Ordering::SeqCst);
                    shared.ring_all();
                    continue;
                }
            }
            shared.doorbells[s].wait(epoch, PARK_TIMEOUT);
        }
    }
}

/// Snapshot this shard's unfinished nodes into the shared stall
/// diagnostics: each node's round frontier, the neighbours whose round
/// markers it is still waiting for, and the age of its oldest unacked
/// reliability-window envelope.
fn record_stall<P: Protocol>(shared: &Shared<'_>, shard: &Shard<'_, P>) {
    let mut info = shared.stall_info.lock().expect("stall info lock");
    for (j, st) in shard.nodes.iter().enumerate() {
        if st.done {
            continue;
        }
        let me = NodeId::from_index(shard.base + j);
        let r = st.round;
        let ctx = shared.ctx(r);
        let missing = shard.reasm.missing_markers(j, r, ctx.graph.neighbors(me));
        let oldest_unacked = st
            .link
            .oldest_unacked()
            .map(|registered| r.saturating_sub(registered));
        info.push(NodeStall {
            node: me,
            frontier: r,
            missing,
            oldest_unacked,
        });
    }
}

/// Shard node `j`'s round-`r` send step: apply this round's crash (if
/// any), run the protocol's send against the round view, and hand
/// everything to the shared delivery plane, which gates each delivery and
/// flushes one end-of-round marker per neighbour into the shard's outbox.
/// Envelopes for the shard's own nodes are then filed directly; the rest
/// go through the transport.
fn step_send<P: Protocol>(
    shared: &Shared<'_>,
    shard: &mut Shard<'_, P>,
    j: usize,
    r: usize,
    ctx: &RoundCtx,
) {
    let i = shard.base + j;
    let me = NodeId::from_index(i);
    let (p, st) = (&mut shard.protocols[j], &mut shard.nodes[j]);
    if ctx.crashed[i] {
        let retained: Vec<TokenId> = if shared.faults.durable_tokens {
            p.known().iter().collect()
        } else {
            shared.assignment[i].clone()
        };
        p.on_restart(me, &retained);
        st.crashed_at = Some(r);
        let inf = shared.universe.is_subset(p.known());
        st.rep.informed_start += i64::from(inf) - i64::from(st.informed);
        st.informed = inf;
    }
    let outs = if !ctx.down[i] && !p.finished() {
        p.send(&ctx.view(me, r))
    } else {
        Vec::new()
    };
    let mut evts: Vec<BufEvt> = Vec::new();
    let outbox = &mut shard.outbox;
    shared.plane.send(
        ctx,
        r,
        i,
        &mut st.link,
        &outs,
        &mut st.rep.tally,
        &mut evts,
        &mut st.msgs,
        &mut shard.due,
        &mut |env: Envelope| outbox.push(env),
    );
    if !evts.is_empty() {
        st.evts.push((r, evts));
    }
    let local = shard.base..shard.base + shard.nodes.len();
    for env in shard.outbox.drain(..) {
        let to = env.to.index();
        if local.contains(&to) {
            shard.reasm.file(to - local.start, env);
        } else {
            shared.transport.send(env);
        }
    }
}

/// Shard node `j`'s round-`r` receive step: release the reassembled inbox
/// through the delivery plane, run the protocol's receive (unless the
/// node is down — its inbox is lost — or the inbox is empty), track
/// informed/finished transitions and the per-token latency cover, and
/// submit the round report.
fn step_recv<P: Protocol>(
    shared: &Shared<'_>,
    shard: &mut Shard<'_, P>,
    j: usize,
    r: usize,
    ctx: &RoundCtx,
) {
    let i = shard.base + j;
    let me = NodeId::from_index(i);
    let size = shard.nodes.len();
    let (p, st) = (&mut shard.protocols[j], &mut shard.nodes[j]);
    // The shard's release buffer is empty between receive steps.
    let rel = &mut shard.released;
    shard.reasm.take(j, r, rel);
    shared
        .plane
        .accept(ctx, r, i, &mut st.link, rel, 0, &mut st.rep.tally);
    let inbox = &rel.inbox;
    // A down node's inbox is lost; an empty one is not received, and
    // without a receive the node learns nothing.
    if !ctx.down[i] && !inbox.is_empty() {
        p.receive(&ctx.view(me, r), inbox);
        if !st.informed && shared.universe.is_subset(p.known()) {
            st.informed = true;
            st.rep.informed_end += 1;
        }
        // Latency cover: word-diff the protocol's known set against the
        // node's ever-learned set. Each genuinely new token counts one more
        // node of the shard; when that completes the shard, it counts one
        // more shard, and the last shard to complete stamps the token's
        // completion instant.
        let known_words = p.known().words();
        for (w, &kw) in known_words.iter().enumerate() {
            let mut fresh = kw & !st.learned.words().get(w).copied().unwrap_or(0);
            while fresh != 0 {
                let b = fresh.trailing_zeros();
                fresh &= fresh - 1;
                let t = TokenId((w * 64) as u64 + u64::from(b));
                st.learned.insert(t);
                let c = &mut shard.cover[t.0 as usize];
                *c += 1;
                if *c as usize == size
                    && shared.cover[t.0 as usize].fetch_add(1, Ordering::Relaxed) + 1
                        == shared.nshards
                {
                    shared.covered_at[t.0 as usize]
                        .store(shared.start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }
            }
        }
    }
    rel.inbox.clear();
    let fin = p.finished();
    st.rep.finished += i64::from(fin) - i64::from(st.finished);
    st.finished = fin;
    let inflight_now = st.link.in_flight() as i64;
    st.rep.inflight = inflight_now - st.last_inflight;
    st.last_inflight = inflight_now;

    let rep = std::mem::take(&mut st.rep);
    let stop = shared
        .reports
        .lock()
        .expect("reports lock")
        .report(r, rep, &shared.server);
    if let Some(stop_round) = stop {
        shared.stop_after.fetch_min(stop_round, Ordering::SeqCst);
        shared.ring_all();
    }
    if shared.watchdog.is_some() {
        shared.progress.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, ExecMode, Outcome, RunConfig};
    use crate::fault::Partition;
    use crate::protocol::{Incoming, LocalView, Outgoing};
    use crate::token::round_robin_assignment;
    use hinet_cluster::ctvg::{CtvgTrace, CtvgTraceProvider};
    use hinet_cluster::hierarchy::single_cluster;
    use hinet_graph::trace::TvgTrace;
    use hinet_graph::Graph;
    use hinet_rt::obs::ObsConfig;

    /// The plain flooding protocol from the engine tests: broadcast
    /// everything known, union everything heard.
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

    /// Run the same scenario in both modes and assert the dissemination
    /// result (completion round, token sets) and the paper metrics match.
    fn assert_equivalent(n: usize, faults: FaultPlan, threads: usize) {
        let assignment = round_robin_assignment(n, n);
        let mut lp: Vec<Flood> = (0..n).map(|_| Flood::new()).collect();
        let mut provider = star_provider(n, 64);
        let lock = Engine::new(RunConfig::new().max_rounds(32).faults(faults.clone())).run(
            &mut provider,
            &mut lp,
            &assignment,
        );

        let mut ep: Vec<Flood> = (0..n).map(|_| Flood::new()).collect();
        let mut provider = star_provider(n, 64);
        let event = Engine::new(
            RunConfig::new()
                .max_rounds(32)
                .faults(faults)
                .threads(threads)
                .mode(ExecMode::Event),
        )
        .run(&mut provider, &mut ep, &assignment);

        assert_eq!(event.completion_round, lock.completion_round);
        assert_eq!(event.rounds_executed, lock.rounds_executed);
        assert_eq!(event.outcome, lock.outcome);
        assert_eq!(event.metrics.tokens_sent, lock.metrics.tokens_sent);
        assert_eq!(event.metrics.packets_sent, lock.metrics.packets_sent);
        assert_eq!(event.metrics.tokens_by_role, lock.metrics.tokens_by_role);
        assert_eq!(event.metrics.faults_injected, lock.metrics.faults_injected);
        assert_eq!(event.metrics.crashes, lock.metrics.crashes);
        assert_eq!(event.metrics.recoveries, lock.metrics.recoveries);
        for (i, (l, e)) in lp.iter().zip(ep.iter()).enumerate() {
            let lv: Vec<_> = l.known().iter().collect();
            let ev: Vec<_> = e.known().iter().collect();
            assert_eq!(ev, lv, "node {i} final token set diverged");
        }
    }

    #[test]
    fn event_matches_lockstep_on_star() {
        for threads in [1, 2, 4] {
            assert_equivalent(5, FaultPlan::none(), threads);
        }
    }

    #[test]
    fn event_matches_lockstep_under_loss() {
        for threads in [1, 3] {
            assert_equivalent(6, FaultPlan::new(7).with_loss_ppm(200_000), threads);
        }
    }

    #[test]
    fn event_matches_lockstep_under_crash_mid_run() {
        let plan = FaultPlan::new(11).with_crash_at(1, 2).with_down_rounds(2);
        for threads in [1, 4] {
            assert_equivalent(6, plan.clone(), threads);
        }
    }

    #[test]
    fn event_trace_matches_lockstep_after_header() {
        let n = 5;
        let assignment = round_robin_assignment(n, n);
        let trace = |mode: ExecMode| {
            let mut tracer = Tracer::new(ObsConfig::full());
            let mut protocols: Vec<Flood> = (0..n).map(|_| Flood::new()).collect();
            let mut provider = star_provider(n, 32);
            let report = Engine::new(
                RunConfig::new()
                    .max_rounds(16)
                    .mode(mode)
                    .threads(2)
                    .tracer(&mut tracer),
            )
            .run(&mut provider, &mut protocols, &assignment);
            assert!(report.completed());
            tracer.to_jsonl()
        };
        let lock = trace(ExecMode::Lockstep);
        let event = trace(ExecMode::Event);
        // Headers differ only by the mode meta stamp; every event line
        // after them must be byte-identical.
        let lock_events: Vec<&str> = lock.lines().skip(1).collect();
        let event_events: Vec<&str> = event.lines().skip(1).collect();
        assert_eq!(event_events, lock_events);
        let event_header = event.lines().next().unwrap();
        let lock_header = lock.lines().next().unwrap();
        assert!(
            !lock_header.contains("event"),
            "lock-step header must not change"
        );
        assert_eq!(
            event_header.replacen(",\"mode\":\"event\"", "", 1),
            lock_header,
            "only the mode meta stamp may differ"
        );
    }

    #[test]
    fn event_reports_wall_clock_metrics() {
        let n = 5;
        let assignment = round_robin_assignment(n, n);
        let mut protocols: Vec<Flood> = (0..n).map(|_| Flood::new()).collect();
        let mut provider = star_provider(n, 32);
        let report = Engine::new(RunConfig::new().max_rounds(16).mode(ExecMode::Event)).run(
            &mut provider,
            &mut protocols,
            &assignment,
        );
        assert!(report.completed());
        let lat = report.wall.latency.expect("event mode tracks latency");
        assert_eq!(lat.covered, lat.total, "completed run covers every token");
        assert_eq!(lat.total, n);
        assert!(lat.p50_ns <= lat.p95_ns && lat.p95_ns <= lat.max_ns);
        assert!(report.wall.elapsed_ns > 0);
        assert!(report.wall.tokens_per_sec > 0.0);
    }

    /// Flood whose send step naps first: a stand-in for a wedged or
    /// pathologically slow protocol, giving the armed watchdog a genuine
    /// no-progress window to catch (the fault plane alone cannot wedge the
    /// driver — end-of-round markers always flow).
    struct NappingFlood {
        inner: Flood,
        nap: Duration,
        /// First round whose send naps.
        from_round: usize,
    }

    impl NappingFlood {
        fn new(nap: Duration) -> Self {
            NappingFlood {
                inner: Flood::new(),
                nap,
                from_round: 0,
            }
        }
    }

    impl Protocol for NappingFlood {
        fn on_start(&mut self, me: NodeId, initial: &[TokenId]) {
            self.inner.on_start(me, initial);
        }
        fn send(&mut self, view: &LocalView<'_>) -> Vec<Outgoing> {
            if !self.nap.is_zero() && view.round >= self.from_round {
                std::thread::sleep(self.nap);
            }
            self.inner.send(view)
        }
        fn receive(&mut self, view: &LocalView<'_>, inbox: &[Incoming]) {
            self.inner.receive(view, inbox);
        }
        fn known(&self) -> &TokenSet {
            self.inner.known()
        }
        fn on_restart(&mut self, me: NodeId, retained: &[TokenId]) {
            self.inner.on_restart(me, retained);
        }
    }

    #[test]
    fn watchdog_probe_rearms_on_progress_and_fires_after_a_quiet_window() {
        let t0 = Instant::now();
        let window = Duration::from_millis(10);
        let mut wd = Watchdog::new(t0, window);
        // A new epoch re-arms the deadline, however late the probe lands.
        assert!(!wd.probe(1, t0 + window * 3, window));
        // Same epoch inside the re-armed window: quiet, but not a stall yet.
        assert!(!wd.probe(1, t0 + window * 3 + Duration::from_millis(1), window));
        // Same epoch a full window after the last progress: fire.
        assert!(wd.probe(1, t0 + window * 4, window));
        // A run that never makes any progress fires off the initial arming.
        let mut cold = Watchdog::new(t0, window);
        assert!(cold.probe(0, t0 + window, window));
    }

    /// A ring that lands while its waiter is between reading the epoch and
    /// parking must still wake it. 2 000 park/ring races across two
    /// threads with a 60 s park timeout: each wait must end woken and
    /// promptly, since a lost wake-up would sleep out the full timeout.
    #[test]
    fn doorbell_never_loses_a_wakeup() {
        const PAIRS: u64 = 2_000;
        /// Releases the ringer if the waiting side fails, so the scope
        /// can join it and report the failure instead of hanging.
        struct Release<'a>(&'a AtomicU64);
        impl Drop for Release<'_> {
            fn drop(&mut self) {
                self.0.store(u64::MAX, Ordering::SeqCst);
            }
        }
        let bell = Doorbell::new();
        let armed = AtomicU64::new(0);
        std::thread::scope(|s| {
            let _release = Release(&armed);
            s.spawn(|| {
                for i in 1..=PAIRS {
                    while armed.load(Ordering::SeqCst) < i {
                        std::thread::yield_now();
                    }
                    bell.ring();
                }
            });
            for i in 1..=PAIRS {
                let seen = bell.epoch();
                armed.store(i, Ordering::SeqCst);
                let t0 = Instant::now();
                assert!(
                    bell.wait(seen, Duration::from_secs(60)),
                    "pair {i} not woken"
                );
                assert!(
                    t0.elapsed() < Duration::from_secs(30),
                    "pair {i} slept out its timeout: lost wake-up"
                );
            }
        });
    }

    #[test]
    fn watchdog_halts_a_wedged_run_with_structured_diagnostics() {
        let n = 2;
        let assignment = round_robin_assignment(n, n);
        // Node 1 naps for many watchdog windows inside every send step, so
        // node 0 parks on a quorum that makes no progress for far longer
        // than the armed window.
        let mut protocols = vec![
            NappingFlood::new(Duration::ZERO),
            NappingFlood::new(Duration::from_millis(250)),
        ];
        let mut provider = star_provider(n, 64);
        let report = Engine::new(
            RunConfig::new()
                .max_rounds(32)
                .threads(2)
                .mode(ExecMode::Event)
                .stall_rounds(1),
        )
        .run(&mut provider, &mut protocols, &assignment);

        assert!(report.completion_round.is_none());
        assert!(
            matches!(
                report.outcome,
                Outcome::Stalled {
                    budget_exhausted: false,
                    ..
                }
            ),
            "watchdog halt must report a non-budget stall, got {:?}",
            report.outcome
        );
        let diag = report.stall.expect("watchdog halt carries diagnostics");
        assert!(!diag.nodes.is_empty());
        // Snapshots are sorted by node id and stay inside the run's bounds.
        for pair in diag.nodes.windows(2) {
            assert!(pair[0].node.index() < pair[1].node.index());
        }
        for ns in &diag.nodes {
            assert!(ns.node.index() < n);
            assert!(ns.frontier < 32);
            assert!(ns.missing.iter().all(|m| m.index() < n));
        }
        // At least one stalled node names the neighbour whose round marker
        // never arrived — that is the diagnostic the watchdog exists for.
        assert!(
            diag.nodes.iter().any(|ns| !ns.missing.is_empty()),
            "some node must be short of quorum: {:?}",
            diag.nodes
        );
        assert_eq!(diag.fault_window, None, "no faults were injected");
    }

    #[test]
    fn watchdog_fault_window_runs_forward_from_an_early_crash() {
        // The hub crashes in round 1 and is back in round 2, when a
        // partition cuts it off from both leaves: a crash round before the
        // first delivery-fault round.
        let n = 3;
        let assignment = round_robin_assignment(n, n);
        let faults = FaultPlan::new(0)
            .with_crash_at(1, 0)
            .with_down_rounds(1)
            .with_partition(Partition {
                start: 2,
                end: 3,
                cut: 1,
            });
        let mut protocols: Vec<Flood> = (0..n).map(|_| Flood::new()).collect();
        let lock = Engine::new(RunConfig::new().max_rounds(3).faults(faults.clone())).run(
            &mut star_provider(n, 8),
            &mut protocols,
            &assignment,
        );
        let window = (1, 2);
        assert_eq!(lock.outcome, Outcome::AssumptionViolated { window, def: 2 });

        // Leaf 1 wedges in its round-3 send, so the watchdog halts the
        // event run with rounds 0..=2 closed: its diagnosis must carry the
        // same window.
        let mut protocols = vec![
            NappingFlood::new(Duration::ZERO),
            NappingFlood {
                from_round: 3,
                ..NappingFlood::new(Duration::from_secs(1))
            },
            NappingFlood::new(Duration::ZERO),
        ];
        let event = Engine::new(
            RunConfig::new()
                .max_rounds(32)
                .faults(faults)
                .threads(n)
                .mode(ExecMode::Event)
                .stall_rounds(20),
        )
        .run(&mut star_provider(n, 8), &mut protocols, &assignment);
        assert_eq!(event.rounds_executed, 3);
        let diag = event.stall.expect("the watchdog halted the run");
        assert_eq!(diag.fault_window, Some(window));
    }

    #[test]
    fn zero_round_budget_reports_match_across_modes() {
        let n = 4;
        let assignment = round_robin_assignment(n, n);
        for mode in [ExecMode::Lockstep, ExecMode::Event] {
            let mut protocols: Vec<Flood> = (0..n).map(|_| Flood::new()).collect();
            let report = Engine::new(
                RunConfig::new()
                    .max_rounds(0)
                    .mode(mode)
                    .stability_oracle(Some((2, 1))),
            )
            .run(&mut star_provider(n, 4), &mut protocols, &assignment);
            assert_eq!(report.rounds_executed, 0, "{mode}");
            assert_eq!(
                report.outcome,
                Outcome::Stalled {
                    missing_tokens: n,
                    budget_exhausted: true
                },
                "{mode}"
            );
            assert_eq!(report.stability, None, "{mode}: no round was verified");
        }
    }

    #[test]
    fn armed_watchdog_stays_quiet_through_chaotic_reliable_run() {
        let n = 6;
        let assignment = round_robin_assignment(n, n);
        let mut protocols: Vec<Flood> = (0..n).map(|_| Flood::new()).collect();
        let mut provider = star_provider(n, 96);
        let faults = FaultPlan::new(23)
            .with_loss_ppm(150_000)
            .with_delay_ppm(100_000)
            .with_max_delay(2)
            .with_dup_ppm(100_000)
            .with_reorder(true);
        let report = Engine::new(
            RunConfig::new()
                .max_rounds(64)
                .threads(3)
                .mode(ExecMode::Event)
                .faults(faults)
                .reliable(true)
                .stall_rounds(32),
        )
        .run(&mut provider, &mut protocols, &assignment);
        assert!(
            report.completed(),
            "reliability layer must finish the chaotic run: {:?}",
            report.outcome
        );
        assert!(
            report.stall.is_none(),
            "a progressing run must never trip the watchdog"
        );
        let m = &report.metrics;
        assert!(m.delays_injected > 0, "delay plan must have fired");
        assert!(m.duplicates_injected > 0, "dup plan must have fired");
        // The discard gauge counts every duplicate the receivers reject —
        // plan-injected copies and redundant timer retransmits alike — so
        // under chaos it must have fired, and nothing was double-counted.
        assert!(m.dups_discarded > 0, "receivers must have discarded dups");
    }

    #[test]
    fn lockstep_wall_clock_is_throughput_only() {
        let n = 4;
        let assignment = round_robin_assignment(n, n);
        let mut protocols: Vec<Flood> = (0..n).map(|_| Flood::new()).collect();
        let mut provider = star_provider(n, 16);
        let report = Engine::with_defaults().run(&mut provider, &mut protocols, &assignment);
        assert!(report.completed());
        assert!(report.wall.elapsed_ns > 0);
        assert!(report.wall.latency.is_none());
        assert_eq!(report.wall.reassembly_stalls, 0);
        assert_eq!(report.wall.mailbox_depth_max, 0);
    }
}
