//! The delivery plane both drivers share: what happens to a message
//! between a protocol's `send` and the receiver's `receive`.
//!
//! The lock-step engine and the event runtime differ only in how envelopes
//! travel (through one reassembly within one round, or through per-node
//! mailboxes) and in when a node's steps run. Everything that decides
//! *what* is delivered lives here, once:
//!
//! * **the gate** ([`Plane::fate`]) — the one function that decides a
//!   delivery's fate, in the order down receiver → partition → loss →
//!   delay → duplicate;
//! * **the sender step** ([`Plane::send`]) — cost accounting and tracing,
//!   reliability-window registration, held (delayed) envelopes maturing
//!   once their edge exists and their sender is up, the reliability timer
//!   flush and its seq numbering, and the end-of-round markers that carry
//!   acks;
//! * **the gather rule** ([`Outbox::gather`]) — a clean lock-step round
//!   builds no envelopes: each receiver gathers its inbox from its
//!   neighbours' sends, in the order the sender step's emission would
//!   have delivered them;
//! * **the receiver step** ([`Plane::accept`]) — ack application, rid
//!   dedup and the reorder permutation over the round's reassembled inbox,
//!   in place in the caller's release buffer.
//!
//! Acks therefore take effect identically in both modes: a receiver's
//! ledger value from before the round's deliveries, carried along the
//! round's edges by its end-of-round marker, applied at the round's
//! receive step by senders that are up.

use crate::engine::{obs_role, role_slot, CostWeights, Metrics};
use crate::fault::FaultPlan;
use crate::protocol::{Destination, Incoming, Outgoing, Payload};
use crate::reliable::{ReceiverLedger, ReliableConfig, Retransmit, SenderWindow};
use crate::round::RoundCtx;
use crate::transport::{Envelope, EnvelopeKind, Released};
use hinet_graph::graph::NodeId;
use hinet_graph::Graph;
use hinet_rt::obs::{self, FaultKind, Tracer};

/// One node's delivery-plane counters for one round. Both drivers sum
/// these per round and close the round with the sum
/// ([`crate::round::Fold::close`]).
#[derive(Clone, Debug, Default)]
pub(crate) struct Tally {
    tokens: u64,
    packets: u64,
    by_role: [u64; 3],
    coefficient_bytes: u64,
    dropped_unicasts: u64,
    faults: u64,
    partition: bool,
    retransmits: u64,
    delays: u64,
    dups_injected: u64,
    dups_discarded: u64,
    rt_timeouts: u64,
}

impl Tally {
    /// Tokens sent (the round's share of [`Metrics::tokens_sent`]).
    pub(crate) fn tokens(&self) -> u64 {
        self.tokens
    }

    /// Packets sent (the round's share of [`Metrics::packets_sent`]).
    pub(crate) fn packets(&self) -> u64 {
        self.packets
    }

    /// Add another tally into this one.
    pub(crate) fn add(&mut self, o: &Tally) {
        self.tokens += o.tokens;
        self.packets += o.packets;
        for s in 0..3 {
            self.by_role[s] += o.by_role[s];
        }
        self.coefficient_bytes += o.coefficient_bytes;
        self.dropped_unicasts += o.dropped_unicasts;
        self.faults += o.faults;
        self.partition |= o.partition;
        self.retransmits += o.retransmits;
        self.delays += o.delays;
        self.dups_injected += o.dups_injected;
        self.dups_discarded += o.dups_discarded;
        self.rt_timeouts += o.rt_timeouts;
    }

    /// Fold a round's summed tally into the run metrics. Returns whether
    /// the fault plane dropped a delivery, and whether a partition did.
    pub(crate) fn fold(&self, m: &mut Metrics) -> (bool, bool) {
        m.tokens_sent += self.tokens;
        m.packets_sent += self.packets;
        for s in 0..3 {
            m.tokens_by_role[s] += self.by_role[s];
        }
        m.coefficient_bytes += self.coefficient_bytes;
        m.dropped_unicasts += self.dropped_unicasts;
        m.faults_injected += self.faults;
        m.retransmits += self.retransmits;
        m.delays_injected += self.delays;
        m.duplicates_injected += self.dups_injected;
        m.dups_discarded += self.dups_discarded;
        m.retransmit_timeouts += self.rt_timeouts;
        (self.faults > 0, self.partition)
    }
}

/// A trace event recorded during a node's step and emitted through the
/// [`Tracer`] by [`replay`] in lock-step order (the event runtime buffers
/// them until the run ends; the lock-step engine replays each node's as
/// soon as its step is done).
pub(crate) enum BufEvt {
    Broadcast {
        token: u64,
        cost: u64,
        role: obs::Role,
        bytes: u64,
    },
    Push {
        token: u64,
        cost: u64,
        role: obs::Role,
        to: u64,
        bytes: u64,
    },
    Retransmit {
        cost: u64,
        dst: Option<u64>,
    },
    Fault {
        to: u64,
        kind: FaultKind,
    },
    Delayed {
        to: u64,
        rounds: u64,
    },
    Duplicated {
        to: u64,
    },
    RetransmitTimeout {
        to: u64,
        attempt: u32,
    },
}

/// Emit one buffered event of `node`'s round-`r` step through the tracer.
pub(crate) fn replay(tracer: &mut Tracer, r: u64, node: u64, e: &BufEvt) {
    match *e {
        BufEvt::Broadcast {
            token,
            cost,
            role,
            bytes,
        } => tracer.head_broadcast(r, node, token, cost, role, bytes),
        BufEvt::Push {
            token,
            cost,
            role,
            to,
            bytes,
        } => tracer.token_push(r, node, token, cost, role, to, bytes),
        BufEvt::Retransmit { cost, dst } => tracer.retransmit(r, node, cost, dst),
        BufEvt::Fault { to, kind } => tracer.fault_injected(r, node, Some(to), kind),
        BufEvt::Delayed { to, rounds } => tracer.delayed(r, node, to, rounds),
        BufEvt::Duplicated { to } => tracer.duplicated(r, node, to),
        BufEvt::RetransmitTimeout { to, attempt } => {
            tracer.retransmit_timeout(r, node, to, attempt)
        }
    }
}

/// An outgoing envelope the delay knob held back: kept at the sender and
/// flushed, with its original `rid`, once it has matured.
struct Held {
    release: usize,
    to: NodeId,
    rid: u64,
    payload: Payload,
    directed: bool,
}

/// A reusable buffer for the timer retransmits of one sender step
/// ([`SenderWindow::due_into`]): one per driver or worker, not per node.
pub(crate) type DueBuf = Vec<Retransmit<(Payload, bool)>>;

/// One node's delivery-plane state: its held envelopes and reliability
/// window (sender side) and its ledger (receiver side).
#[derive(Default)]
pub(crate) struct Link {
    held: Vec<Held>,
    window: Option<SenderWindow<(Payload, bool)>>,
    ledger: ReceiverLedger,
}

impl Link {
    /// Envelopes that could still inform someone: held plus unacked.
    pub(crate) fn in_flight(&self) -> usize {
        self.held.len() + self.window.as_ref().map_or(0, SenderWindow::in_flight)
    }

    /// Round in which the oldest unacked envelope was first sent.
    pub(crate) fn oldest_unacked(&self) -> Option<usize> {
        self.window.as_ref().and_then(SenderWindow::oldest_unacked)
    }
}

/// Which leg of its life a delivery is on when it meets the gate.
#[derive(Clone, Copy)]
enum Leg {
    /// A fresh protocol send, the `seq`-th of its sender's round: every
    /// gate applies.
    Fresh(u32),
    /// A reliability-timer retransmit: it took its delay and duplicate
    /// rolls at first send (the timer exists to outlast them), so only the
    /// down-receiver, partition and loss gates apply.
    Timer,
    /// A held envelope that has matured: it already passed the loss gate,
    /// so only a down receiver can still swallow it.
    Matured,
}

/// What the gate does with one delivery.
enum Fate {
    Lost,
    Held(usize),
    Deliver { dup: bool },
}

/// The run-wide delivery-plane configuration.
pub(crate) struct Plane<'a> {
    faults: &'a FaultPlan,
    trivial: bool,
    /// The reliability layer is on (only alongside a non-trivial plan).
    pub(crate) reliable: bool,
    tracing: bool,
    weights: CostWeights,
    /// Send end-of-round markers. The event runtime always needs them to
    /// close round quorums; lock-step only for the acks they carry.
    markers: bool,
    /// Receivers gather their inboxes from the round's [`Outbox`] (a
    /// trivial plan in lock-step), so the sender step accounts and traces
    /// but emits nothing.
    gather: bool,
}

impl<'a> Plane<'a> {
    pub(crate) fn new(
        faults: &'a FaultPlan,
        reliable: bool,
        tracing: bool,
        weights: CostWeights,
        event_mode: bool,
    ) -> Plane<'a> {
        let trivial = faults.is_trivial();
        let reliable = reliable && !trivial;
        Plane {
            faults,
            trivial,
            reliable,
            tracing,
            weights,
            markers: event_mode || reliable,
            gather: trivial && !event_mode,
        }
    }

    /// Node `i`'s initial delivery-plane state.
    pub(crate) fn link(&self, i: usize) -> Link {
        Link {
            window: self.reliable.then(|| {
                // Per-node jitter seed, derived from the fault seed so
                // `--fault-seed` replays the timers too.
                let seed = self.faults.seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                SenderWindow::new(seed, ReliableConfig::default())
            }),
            ..Link::default()
        }
    }

    /// The gate: the one place a delivery `from → to` in round `r` meets
    /// the fault plane. Deliveries to down receivers are lost silently —
    /// the crash event already explains them. A trivial plan never gets
    /// here: it has no gate, no window and no holds (see [`Plane::send`]).
    #[allow(clippy::too_many_arguments)]
    fn fate(
        &self,
        ctx: &RoundCtx,
        r: usize,
        from: NodeId,
        to: NodeId,
        leg: Leg,
        tally: &mut Tally,
        evts: &mut Vec<BufEvt>,
    ) -> Fate {
        if ctx.down[to.index()] {
            return Fate::Lost;
        }
        let seq = match leg {
            Leg::Matured => return Fate::Deliver { dup: false },
            Leg::Timer => None,
            Leg::Fresh(seq) => Some(seq),
        };
        let (f, t) = (from.index(), to.index());
        let kind = if self.faults.partitioned(r, f, t) {
            Some(FaultKind::Partition)
        } else if self.faults.drops_message(r, f, t) {
            Some(FaultKind::Loss)
        } else {
            None
        };
        if let Some(kind) = kind {
            tally.faults += 1;
            tally.partition |= kind == FaultKind::Partition;
            if self.tracing {
                evts.push(BufEvt::Fault {
                    to: to.0 as u64,
                    kind,
                });
            }
            return Fate::Lost;
        }
        let Some(seq) = seq else {
            return Fate::Deliver { dup: false };
        };
        let d = self.faults.delay_of(r, f, t, seq);
        if d > 0 {
            tally.delays += 1;
            if self.tracing {
                evts.push(BufEvt::Delayed {
                    to: to.0 as u64,
                    rounds: d as u64,
                });
            }
            return Fate::Held(d);
        }
        let dup = self.faults.duplicates(r, f, t, seq);
        if dup {
            tally.dups_injected += 1;
            if self.tracing {
                evts.push(BufEvt::Duplicated { to: to.0 as u64 });
            }
        }
        Fate::Deliver { dup }
    }

    /// Node `i`'s round-`r` sender step. `outs` is what its protocol sent
    /// this round (empty when it is down or finished); every envelope that
    /// leaves the node goes to `emit` — none on a gathering plane, whose
    /// receivers read `outs` themselves ([`Outbox::gather`]). Counters
    /// land in `tally`, trace events in `evts`; `due` is scratch for the
    /// timer retransmits.
    ///
    /// Order: reliability-timer retransmits, then matured held envelopes,
    /// then the fresh sends, then one end-of-round marker per neighbour.
    /// Fresh sends are numbered `0..` (the delay/dup hash key); flushes take
    /// seq numbers descending from just below the marker sentinel, so the
    /// receiver's `(from, seq)` order puts them after the fresh sends.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn send(
        &self,
        ctx: &RoundCtx,
        r: usize,
        i: usize,
        link: &mut Link,
        outs: &[Outgoing],
        tally: &mut Tally,
        evts: &mut Vec<BufEvt>,
        due: &mut DueBuf,
        emit: &mut impl FnMut(Envelope),
    ) {
        if outs.is_empty() && !self.markers && link.in_flight() == 0 {
            return; // a silent node on a marker-free plane: nothing leaves
        }
        let me = NodeId::from_index(i);
        let role = ctx.hierarchy.role(me);
        let slot = role_slot(role);
        let payload_env =
            |to: NodeId, seq: u32, payload: Payload, directed: bool, rid: u64| Envelope {
                round: r,
                from: me,
                to,
                seq,
                kind: EnvelopeKind::Payload {
                    payload,
                    directed,
                    rid,
                },
            };
        let mut flush_seq = u32::MAX - 1;
        if !ctx.down[i] {
            // Timer retransmits pay full cost and keep their original rid
            // (receiver ledgers dedup). A link absent from this round's
            // topology leaves the entry pending: the timer re-fires later.
            if let Some(w) = link.window.as_mut() {
                due.clear();
                w.due_into(r, due);
                for rt in due.drain(..) {
                    let v = NodeId::from_index(rt.to);
                    if !ctx.graph.has_edge(me, v) {
                        continue;
                    }
                    let (payload, directed) = rt.item;
                    let cost = payload.len() as u64;
                    tally.tokens += cost;
                    tally.packets += 1;
                    tally.by_role[slot] += cost;
                    tally.coefficient_bytes += payload.coefficient_bytes();
                    tally.rt_timeouts += 1;
                    if self.tracing {
                        evts.push(BufEvt::RetransmitTimeout {
                            to: v.0 as u64,
                            attempt: rt.attempt,
                        });
                    }
                    if let Fate::Deliver { .. } = self.fate(ctx, r, me, v, Leg::Timer, tally, evts)
                    {
                        emit(payload_env(v, flush_seq, payload, directed, rt.rid));
                        flush_seq -= 1;
                    }
                }
            }
            // Matured held envelopes wait until their edge exists (and, by
            // the enclosing check, their sender is up).
            link.held.retain(|h| {
                if h.release > r || !ctx.graph.has_edge(me, h.to) {
                    return true;
                }
                if let Fate::Deliver { .. } = self.fate(ctx, r, me, h.to, Leg::Matured, tally, evts)
                {
                    emit(payload_env(
                        h.to,
                        flush_seq,
                        h.payload.clone(),
                        h.directed,
                        h.rid,
                    ));
                    flush_seq -= 1;
                }
                false
            });
        }
        let neighbors = ctx.graph.neighbors(me);
        let mut seq = 0u32;
        for out in outs {
            if out.payload.is_empty() {
                continue;
            }
            let cost = out.payload.len() as u64;
            tally.tokens += cost;
            tally.packets += 1;
            tally.by_role[slot] += cost;
            tally.coefficient_bytes += out.payload.coefficient_bytes();
            if self.tracing {
                let w = self.weights;
                let bytes =
                    cost * w.token_bytes + w.packet_header_bytes + out.payload.coefficient_bytes();
                let token = out.payload.first().expect("non-empty payload").0;
                evts.push(match out.dest {
                    Destination::Broadcast => BufEvt::Broadcast {
                        token,
                        cost,
                        role: obs_role(role),
                        bytes,
                    },
                    Destination::Unicast(v) => BufEvt::Push {
                        token,
                        cost,
                        role: obs_role(role),
                        to: v.0 as u64,
                        bytes,
                    },
                });
            }
            if out.retransmit {
                tally.retransmits += 1;
                if self.tracing {
                    let dst = match out.dest {
                        Destination::Broadcast => None,
                        Destination::Unicast(v) => Some(v.0 as u64),
                    };
                    evts.push(BufEvt::Retransmit { cost, dst });
                }
            }
            let (targets, directed): (&[NodeId], bool) = match &out.dest {
                Destination::Broadcast => (neighbors, false),
                Destination::Unicast(v) => (std::slice::from_ref(v), true),
            };
            // A unicast reaches its target only across a current edge;
            // otherwise it is dropped but still paid for.
            let delivered = !directed || ctx.graph.has_edge(me, targets[0]);
            if !delivered {
                tally.dropped_unicasts += 1;
            }
            if delivered && !self.gather {
                for &v in targets {
                    if self.trivial {
                        // No plan, no gate, no window: straight to
                        // delivery.
                        emit(payload_env(v, seq, out.payload.clone(), directed, 0));
                        continue;
                    }
                    // Register before the gate, so a lost delivery still
                    // retransmits on timer.
                    let rid = match link.window.as_mut() {
                        Some(w) => w.register(v.index(), (out.payload.clone(), directed), r),
                        None => 0,
                    };
                    match self.fate(ctx, r, me, v, Leg::Fresh(seq), tally, evts) {
                        Fate::Lost => {}
                        Fate::Held(d) => link.held.push(Held {
                            release: r + d,
                            to: v,
                            rid,
                            payload: out.payload.clone(),
                            directed,
                        }),
                        Fate::Deliver { dup } => {
                            emit(payload_env(v, seq, out.payload.clone(), directed, rid));
                            if dup {
                                // Sent twice; the receiver's `(from, seq)`
                                // dedup discards and counts the copy.
                                emit(payload_env(v, seq, out.payload.clone(), directed, rid));
                            }
                        }
                    }
                }
            }
            seq += 1;
        }
        // End-of-round markers: every node — down, finished or silent —
        // tells each round-`r` neighbour it is done sending. With the
        // reliability layer on, each carries this node's cumulative ack for
        // the envelopes that neighbour has sent it, as of before this
        // round's deliveries.
        if self.markers {
            for &v in neighbors {
                let ack = if self.reliable {
                    link.ledger.cum(v.index())
                } else {
                    0
                };
                emit(Envelope {
                    round: r,
                    from: me,
                    to: v,
                    seq: u32::MAX,
                    kind: EnvelopeKind::RoundDone { ack },
                });
            }
        }
    }

    /// Node `i`'s round-`r` receiver step over the round just released
    /// into `rel` (its inbox is `rel.inbox[from..]`): count the
    /// reassembly's duplicate discards and, unless the node is down (its
    /// inbox is lost, so it is truncated away), apply the acks its
    /// neighbours' markers carried, drop retransmit duplicates by reliable
    /// id and apply the reorder permutation, all in place. What is left in
    /// `rel.inbox[from..]` is the inbox its protocol receives.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn accept(
        &self,
        ctx: &RoundCtx,
        r: usize,
        i: usize,
        link: &mut Link,
        rel: &mut Released,
        from: usize,
        tally: &mut Tally,
    ) {
        tally.dups_discarded += rel.dups_discarded;
        if ctx.down[i] {
            rel.inbox.truncate(from);
            return;
        }
        if self.reliable {
            if let Some(w) = link.window.as_mut() {
                w.ack(&rel.acks);
            }
            // The reassembly's `(from, seq)` dedup cannot see a timer
            // retransmit of an envelope that also arrived late; the ledger
            // can. Kept messages move down in order (a stable compaction).
            let mut kept = from;
            for (k, &rid) in (from..rel.inbox.len()).zip(&rel.rids) {
                if link.ledger.accept(rel.inbox[k].from.index(), rid) {
                    rel.inbox.swap(kept, k);
                    kept += 1;
                } else {
                    tally.dups_discarded += 1;
                }
            }
            rel.inbox.truncate(kept);
        }
        if self.faults.reorder {
            self.faults.shuffle(r, i, &mut rel.inbox[from..]);
        }
    }
}

/// One lock-step round's sends, flat: node `u`'s, in send order, are
/// `msgs[offsets[u]..offsets[u + 1]]`. Both buffers are reused round after
/// round.
#[derive(Default)]
pub(crate) struct Outbox {
    msgs: Vec<Outgoing>,
    offsets: Vec<usize>,
}

impl Outbox {
    /// Start a round with no sends.
    pub(crate) fn clear(&mut self) {
        self.msgs.clear();
        self.offsets.clear();
        self.offsets.push(0);
    }

    /// Append the sends of the next nodes in id order: `msgs`, of which
    /// the `j`-th node's end at `ends[j]`. `msgs` is left empty.
    pub(crate) fn append(&mut self, msgs: &mut Vec<Outgoing>, ends: &[usize]) {
        let base = self.msgs.len();
        self.offsets.extend(ends.iter().map(|&e| base + e));
        if base == 0 {
            // Trade buffers instead of copying: both keep their capacity.
            std::mem::swap(&mut self.msgs, msgs);
        } else {
            self.msgs.append(msgs);
        }
    }

    /// Node `u`'s sends this round.
    pub(crate) fn sent(&self, u: usize) -> &[Outgoing] {
        &self.msgs[self.offsets[u]..self.offsets[u + 1]]
    }

    /// The gather rule: node `v`'s inbox on a trivial plan, written into
    /// `inbox` (cleared first). Every neighbour's broadcasts and the
    /// unicasts it addressed to `v` are delivered; empty payloads are not.
    /// `graph`'s neighbour lists are sorted, so the inbox comes in
    /// `(sender, seq)` order — exactly what [`Plane::send`]'s emission
    /// delivers to `v`.
    pub(crate) fn gather(&self, graph: &Graph, v: usize, inbox: &mut Vec<Incoming>) {
        inbox.clear();
        let me = NodeId::from_index(v);
        for &from in graph.neighbors(me) {
            for out in self.sent(from.index()) {
                let directed = match out.dest {
                    Destination::Broadcast => false,
                    Destination::Unicast(to) if to == me => true,
                    Destination::Unicast(_) => continue,
                };
                if !out.payload.is_empty() {
                    inbox.push(Incoming {
                        from,
                        directed,
                        payload: out.payload.clone(),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CostWeights;
    use crate::token::{TokenId, TokenSet};
    use hinet_cluster::hierarchy::single_cluster;
    use hinet_rt::check::{check, CaseCtx};
    use hinet_rt::rng::Rng;
    use std::sync::Arc;

    /// A random send: a broadcast, a unicast to a neighbour or to a
    /// non-neighbour (`me` itself included), with a `One` payload or a
    /// `Set` one that may be empty.
    fn arb_send(c: &mut CaseCtx, g: &Graph, me: NodeId) -> Outgoing {
        let n = g.n();
        let payload = if c.random_bool(0.5) {
            Payload::One(TokenId(c.random_range(0..16u64)))
        } else {
            let len = *c.pick(&[0usize, 1, 3]);
            let set: TokenSet = (0..len)
                .map(|_| TokenId(c.random_range(0..16u64)))
                .collect();
            Payload::Set(Arc::new(set))
        };
        let neighbors = g.neighbors(me);
        let dest = match c.random_range(0..3u32) {
            0 => Destination::Broadcast,
            1 if !neighbors.is_empty() => Destination::Unicast(*c.pick(neighbors)),
            _ => {
                let strangers: Vec<NodeId> = (0..n)
                    .map(NodeId::from_index)
                    .filter(|&v| !g.has_edge(me, v))
                    .collect();
                Destination::Unicast(*c.pick(&strangers))
            }
        };
        Outgoing {
            dest,
            payload,
            retransmit: c.random_bool(0.1),
        }
    }

    /// The gather rule delivers what the sender step's own clean-plan
    /// emission delivers — the emission event mode still runs — to every
    /// receiver, message for message and in order: random graphs with
    /// isolated nodes, random outboxes appended in random worker chunks.
    /// The gathering plane emits nothing and accounts the same round.
    #[test]
    fn gather_matches_the_sender_steps_emission() {
        check("gather_matches_the_sender_steps_emission", 128, |c| {
            let n = c.random_range(1..=64usize);
            let density = *c.pick(&[0.02, 0.1, 0.4]);
            let isolated: Vec<bool> = c.vec_of(n, |c| c.random_bool(0.15));
            let mut edges = Vec::new();
            for u in 0..n {
                for v in u + 1..n {
                    if !isolated[u] && !isolated[v] && c.random_bool(density) {
                        edges.push((u as u32, v as u32));
                    }
                }
            }
            let ctx = RoundCtx {
                graph: Arc::new(Graph::from_edges(n, edges)),
                hierarchy: Arc::new(single_cluster(n, NodeId(0))),
                down: vec![false; n].into(),
                crashed: vec![false; n].into(),
            };
            let sends: Vec<Vec<Outgoing>> = (0..n)
                .map(|i| {
                    let count = c.random_range(0..=4usize);
                    c.vec_of(count, |c| arb_send(c, &ctx.graph, NodeId::from_index(i)))
                })
                .collect();
            let mut outbox = Outbox::default();
            outbox.clear();
            let mut first = 0;
            while first < n {
                let last = c.random_range(first + 1..=n);
                let mut msgs = Vec::new();
                let mut ends = Vec::new();
                for node_sends in &sends[first..last] {
                    msgs.extend(node_sends.iter().cloned());
                    ends.push(msgs.len());
                }
                outbox.append(&mut msgs, &ends);
                first = last;
            }

            let faults = FaultPlan::none();
            let weights = CostWeights::default();
            let emitting = Plane::new(&faults, false, false, weights, true);
            let gathering = Plane::new(&faults, false, false, weights, false);
            let mut want: Vec<Vec<Incoming>> = vec![Vec::new(); n];
            let (mut t_emit, mut t_gather) = (Tally::default(), Tally::default());
            let (mut evts, mut due) = (Vec::new(), DueBuf::new());
            for (i, node_sends) in sends.iter().enumerate() {
                assert_eq!(outbox.sent(i), &node_sends[..], "node {i}'s outbox slice");
                emitting.send(
                    &ctx,
                    3,
                    i,
                    &mut Link::default(),
                    node_sends,
                    &mut t_emit,
                    &mut evts,
                    &mut due,
                    &mut |env: Envelope| {
                        if let EnvelopeKind::Payload {
                            payload, directed, ..
                        } = env.kind
                        {
                            want[env.to.index()].push(Incoming {
                                from: env.from,
                                directed,
                                payload,
                            });
                        }
                    },
                );
                gathering.send(
                    &ctx,
                    3,
                    i,
                    &mut Link::default(),
                    outbox.sent(i),
                    &mut t_gather,
                    &mut evts,
                    &mut due,
                    &mut |env: Envelope| panic!("a gathering plane emitted {env:?}"),
                );
            }
            assert_eq!(format!("{t_emit:?}"), format!("{t_gather:?}"), "tallies");
            let mut inbox = Vec::new();
            for (v, want) in want.iter().enumerate() {
                outbox.gather(&ctx.graph, v, &mut inbox);
                assert_eq!(&inbox, want, "node {v}'s inbox");
            }
        });
    }
}
