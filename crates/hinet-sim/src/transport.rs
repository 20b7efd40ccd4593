//! Message-plane transport: `(round, sender)`-tagged envelopes, per-node
//! mailboxes, and round reassembly for the event-driven execution mode.
//!
//! The lock-step engine delivers messages by writing them straight into
//! per-node inbox vectors between the send and receive phases of a round.
//! The event-driven runtime ([`crate::engine::ExecMode::Event`]) has no
//! global round barrier, so senders emit [`Envelope`]s tagged with
//! `(round, sender, seq)` and a [`Reassembly`] turns whatever arrived — in
//! any order — back into complete synchronous rounds. Each worker shard
//! owns one [`Reassembly`] for its nodes: an envelope for a node of the
//! sender's own shard is filed there directly, and only cross-shard
//! envelopes travel through the [`Transport`] and are filed when their
//! receiver's mailbox is drained.
//!
//! A node's step for round `r` is released only once its *neighbourhood
//! quorum* for `r` is met: every round-`r` neighbour has delivered its
//! [`EnvelopeKind::RoundDone`] marker (a sender flushes exactly one marker
//! per neighbour per round, after its payload envelopes). Because markers
//! arrive from precisely the round's neighbours, counting them against the
//! node's round-`r` degree is a complete quorum test; payloads filed for
//! future rounds simply wait in the [`Reassembly`].
//!
//! The only backend in-tree is [`ChannelTransport`] — lock-protected
//! in-process mailboxes with a wakeup hook, which is what the engine's
//! worker pool runs on. A socket relay backend can implement the same
//! trait later without touching the engine (see `docs/RUNTIME.md`).

use crate::protocol::{Incoming, Payload};
use hinet_graph::graph::NodeId;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// What an [`Envelope`] carries.
#[derive(Clone, Debug)]
pub enum EnvelopeKind {
    /// A protocol payload destined for the receiver's round-`r` inbox.
    Payload {
        /// The token payload.
        payload: Payload,
        /// Whether the payload travelled as a unicast (directed) rather
        /// than a broadcast — preserved into [`Incoming::directed`].
        directed: bool,
        /// Per-link reliable delivery id (monotone per `(sender, receiver)`
        /// link, reused verbatim on retransmission) — the key the
        /// [`crate::reliable`] layer acks and dedups on. Always 0 when the
        /// reliability layer is off.
        rid: u64,
    },
    /// End-of-round marker: the sender has emitted everything it will send
    /// for this round. One marker per `(sender, neighbour, round)`; the
    /// receiver's quorum for the round is met when its marker count
    /// reaches its round degree. Markers model the synchronous round
    /// structure itself, so the fault plane never drops, delays or
    /// duplicates them — delivery pathologies intercept payload envelopes
    /// only.
    RoundDone {
        /// Piggybacked cumulative ack for the *reverse* direction of this
        /// link: every reliable id `< ack` sent by the marker's receiver to
        /// the marker's sender has been accepted. Always 0 when the
        /// reliability layer is off.
        ack: u64,
    },
}

/// One message in flight: a `(round, sender)`-tagged unit of delivery.
///
/// `seq` numbers the sender's payload envelopes within the round so the
/// receiver's [`Reassembly`] can restore emission order no matter how
/// delivery interleaved; sorting by `(from, seq)` reproduces exactly the
/// inbox the lock-step engine would have built.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// Round the message belongs to.
    pub round: usize,
    /// Sending node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Per-`(round, sender)` emission sequence number.
    pub seq: u32,
    /// Payload or end-of-round marker.
    pub kind: EnvelopeKind,
}

/// Wakeup hook invoked by a transport after mail lands for a node.
pub type Notifier = Arc<dyn Fn(usize) + Send + Sync>;

/// Delivery abstraction for the event-driven runtime's cross-shard mail.
///
/// The runtime files an envelope whose receiver belongs to the sender's
/// own worker shard straight into that shard's [`Reassembly`]; such
/// envelopes never reach the transport. The contract (documented in full
/// in `docs/RUNTIME.md`):
///
/// * [`Transport::send`] may be called concurrently from any worker and
///   must make the envelope eventually visible to a
///   [`Transport::drain`] of its destination node;
/// * envelopes from one sender to one receiver are delivered in send
///   order (per-link FIFO) — reordering *across* senders is expected and
///   is what the [`Reassembly`] undoes;
/// * after an envelope becomes drainable the registered [`Notifier`] is
///   invoked with the destination node, so a parked worker can wake;
/// * the transport itself never drops, duplicates or reorders-within-link —
///   loss/partition/delay/duplication faults are injected by the engine
///   *around* `send` (dropped envelopes are never sent, delayed ones are
///   held at the sender and re-sent later, duplicated ones are sent twice),
///   so fault semantics are identical in both execution modes and the
///   receive plane ([`Reassembly`]) defensively deduplicates whatever a
///   real backend might replay.
pub trait Transport: Send + Sync {
    /// Queue `env` for its destination node.
    fn send(&self, env: Envelope);

    /// Move every envelope currently queued for `node` into `into`
    /// (appending, preserving arrival order) and return how many moved.
    fn drain(&self, node: usize, into: &mut Vec<Envelope>) -> usize;

    /// Register the wakeup hook invoked after new mail lands for a node.
    fn set_notifier(&self, notify: Notifier);

    /// High-water mark of any single mailbox's queued-envelope count
    /// (the `mailbox_depth_max` observability counter). Backends that do
    /// not track depth may return 0.
    fn max_depth(&self) -> usize {
        0
    }
}

/// One node's mailbox: the queue plus its length, readable without the
/// lock so an empty mailbox drains for free.
struct Mailbox {
    queue: Mutex<Vec<Envelope>>,
    len: AtomicUsize,
}

/// In-process channel backend: one lock-protected mailbox per node plus a
/// wakeup hook — the [`Transport`] the engine's worker pool runs on.
pub struct ChannelTransport {
    boxes: Vec<Mailbox>,
    notify: RwLock<Option<Notifier>>,
    depth_max: AtomicUsize,
}

impl ChannelTransport {
    /// A transport with `n` empty mailboxes.
    pub fn new(n: usize) -> ChannelTransport {
        ChannelTransport {
            boxes: (0..n)
                .map(|_| Mailbox {
                    queue: Mutex::new(Vec::new()),
                    len: AtomicUsize::new(0),
                })
                .collect(),
            notify: RwLock::new(None),
            depth_max: AtomicUsize::new(0),
        }
    }
}

impl Transport for ChannelTransport {
    fn send(&self, env: Envelope) {
        let to = env.to.index();
        let mailbox = &self.boxes[to];
        let depth = {
            let mut queue = mailbox.queue.lock().expect("mailbox lock");
            queue.push(env);
            mailbox.len.store(queue.len(), Ordering::SeqCst);
            queue.len()
        };
        self.depth_max.fetch_max(depth, Ordering::Relaxed);
        if let Some(notify) = self.notify.read().expect("notifier lock").as_ref() {
            notify(to);
        }
    }

    /// Returns at once, without the lock, when the mailbox is empty. A
    /// racing `send` stores the new length before it invokes the notifier,
    /// so a drain that misses it is followed by a wake-up that does not.
    fn drain(&self, node: usize, into: &mut Vec<Envelope>) -> usize {
        let mailbox = &self.boxes[node];
        if mailbox.len.load(Ordering::SeqCst) == 0 {
            return 0;
        }
        let mut queue = mailbox.queue.lock().expect("mailbox lock");
        let moved = queue.len();
        into.append(&mut queue);
        mailbox.len.store(0, Ordering::SeqCst);
        moved
    }

    fn set_notifier(&self, notify: Notifier) {
        *self.notify.write().expect("notifier lock") = Some(notify);
    }

    fn max_depth(&self) -> usize {
        self.depth_max.load(Ordering::Relaxed)
    }
}

/// Everything [`Reassembly::take`] releases for one node's round, in a
/// buffer the caller reuses: the event runtime keeps one per shard, the
/// lock-step engine one per run.
#[derive(Debug, Default)]
pub struct Released {
    /// Reassembled inboxes in canonical lock-step order. A take *appends*
    /// its round here, so one buffer can hold many nodes' inboxes back to
    /// back.
    pub inbox: Vec<Incoming>,
    /// Reliable delivery ids of the last take's payloads, parallel to its
    /// part of `inbox` (all 0 when the reliability layer is off).
    pub rids: Vec<u64>,
    /// `(marker sender, piggybacked cumulative ack)` per round-done marker
    /// of the last take, sorted by sender id.
    pub acks: Vec<(NodeId, u64)>,
    /// Duplicate `(round, sender, seq)` payloads the last take discarded.
    pub dups_discarded: u64,
    /// Sort scratch: `(sender, seq, entry)` of the round being taken.
    keys: Vec<(u32, u32, u32)>,
}

/// "No entry" in an [`Entry`] chain.
const NIL: u32 = u32::MAX;

/// One filed envelope inside a round's store.
#[derive(Debug)]
struct Entry {
    /// The entry filed for the same node in the same store just before
    /// this one, or [`NIL`]. Chains run newest first, so filing never
    /// touches an older entry; a release restores arrival order from the
    /// entry indices.
    next: u32,
    from: NodeId,
    seq: u32,
    /// `Some` for a payload (taken out when the round is released), `None`
    /// for an end-of-round marker.
    payload: Option<Payload>,
    directed: bool,
    /// The payload's reliable id, or the marker's piggybacked ack.
    word: u64,
}

/// Envelopes of one round, for every node of the shard, in arrival
/// order. Free for reuse (by any round) once no slot refers to it.
#[derive(Debug, Default)]
struct Store {
    round: usize,
    /// Node slots still chained into `entries`.
    refs: usize,
    entries: Vec<Entry>,
}

/// One node's index into one round's store: its newest entry there, and
/// how many markers it holds.
#[derive(Clone, Copy, Debug)]
struct Slot {
    round: usize,
    store: u32,
    head: u32,
    markers: u32,
}

impl Slot {
    const EMPTY: Slot = Slot {
        round: usize::MAX,
        store: 0,
        head: NIL,
        markers: 0,
    };

    fn is_empty(&self) -> bool {
        self.round == usize::MAX
    }
}

/// Where a node's slot for some round lives.
#[derive(Clone, Copy)]
enum At {
    Inline(usize, usize),
    Spill(usize),
}

/// Round reassembly for a group of nodes (a worker shard, or all nodes of
/// a lock-step run): files out-of-order envelopes by round and releases a
/// node's round only once its neighbourhood quorum is met.
///
/// Envelopes are appended to per-round stores the group shares; each node
/// keeps an O(1) index per buffered round (the head of its chain and
/// its marker count) inline for two rounds, and in a spill list beyond
/// that. A store is recycled as soon as every node chained into it has
/// taken its round, so memory is bounded by the envelopes in flight plus
/// a constant per node, and steady-state filing allocates nothing.
///
/// Nodes are addressed by their index within the group, `0..nodes`.
///
/// ```
/// use hinet_graph::graph::NodeId;
/// use hinet_sim::protocol::Payload;
/// use hinet_sim::token::TokenId;
/// use hinet_sim::transport::{Envelope, EnvelopeKind, Reassembly, Released};
///
/// let mut reasm = Reassembly::new(1);
/// // A future-round payload arrives early: filed, round 0 not ready.
/// reasm.file(0, Envelope {
///     round: 1,
///     from: NodeId(2),
///     to: NodeId(0),
///     seq: 0,
///     kind: EnvelopeKind::Payload {
///         payload: Payload::One(TokenId(7)),
///         directed: false,
///         rid: 0,
///     },
/// });
/// assert!(!reasm.ready(0, 0, 1));
/// // The round-0 marker from the single neighbour releases round 0.
/// reasm.file(0, Envelope {
///     round: 0,
///     from: NodeId(2),
///     to: NodeId(0),
///     seq: 0,
///     kind: EnvelopeKind::RoundDone { ack: 0 },
/// });
/// assert!(reasm.ready(0, 0, 1));
/// let mut out = Released::default();
/// reasm.take(0, 0, &mut out);
/// assert!(out.inbox.is_empty());
/// assert!(!reasm.ready(0, 1, 1), "round 1 still lacks its marker");
/// ```
#[derive(Debug)]
pub struct Reassembly {
    stores: Vec<Store>,
    /// Per node: the slots of up to two buffered rounds.
    slots: Vec<[Slot; 2]>,
    /// `(node, slot)` for a node's third and later buffered rounds, sorted
    /// by node and round.
    spill: Vec<(usize, Slot)>,
    /// Nodes that take no further round: mail for them is dropped.
    closed: Vec<bool>,
}

impl Reassembly {
    /// An empty reassembly for `nodes` nodes.
    pub fn new(nodes: usize) -> Reassembly {
        Reassembly {
            stores: Vec::new(),
            slots: vec![[Slot::EMPTY; 2]; nodes],
            spill: Vec::new(),
            closed: vec![false; nodes],
        }
    }

    fn find(&self, node: usize, round: usize) -> Option<At> {
        let inline = &self.slots[node];
        if let Some(k) = inline.iter().position(|s| s.round == round) {
            return Some(At::Inline(node, k));
        }
        self.spill
            .binary_search_by_key(&(node, round), |&(v, s)| (v, s.round))
            .ok()
            .map(At::Spill)
    }

    fn slot(&self, at: At) -> &Slot {
        match at {
            At::Inline(v, k) => &self.slots[v][k],
            At::Spill(k) => &self.spill[k].1,
        }
    }

    fn slot_mut(&mut self, at: At) -> &mut Slot {
        match at {
            At::Inline(v, k) => &mut self.slots[v][k],
            At::Spill(k) => &mut self.spill[k].1,
        }
    }

    /// Open `node`'s slot for `round`, chained into the store that is
    /// collecting `round` (or a free one).
    fn open(&mut self, node: usize, round: usize) -> At {
        let store = match self
            .stores
            .iter()
            .position(|s| s.refs > 0 && s.round == round)
            .or_else(|| self.stores.iter().position(|s| s.refs == 0))
        {
            Some(k) => k,
            None => {
                self.stores.push(Store::default());
                self.stores.len() - 1
            }
        };
        let s = &mut self.stores[store];
        if s.refs == 0 {
            s.entries.clear();
            s.round = round;
        }
        s.refs += 1;
        let slot = Slot {
            round,
            store: store as u32,
            ..Slot::EMPTY
        };
        match self.slots[node].iter().position(Slot::is_empty) {
            Some(k) => {
                self.slots[node][k] = slot;
                At::Inline(node, k)
            }
            None => {
                let at = self
                    .spill
                    .partition_point(|&(v, s)| (v, s.round) < (node, round));
                self.spill.insert(at, (node, slot));
                At::Spill(at)
            }
        }
    }

    /// Close the slot at `at`: release its store reference and, if it was
    /// inline, pull the node's next spilled slot (if any) into its place.
    fn close(&mut self, at: At) {
        let slot = *self.slot(at);
        let store = &mut self.stores[slot.store as usize];
        store.refs -= 1;
        if store.refs == 0 {
            store.entries.clear();
        }
        match at {
            At::Inline(v, k) => {
                // The node's first spilled slot is its lowest round there.
                let j = self.spill.partition_point(|&(u, _)| u < v);
                self.slots[v][k] = match self.spill.get(j) {
                    Some(&(u, _)) if u == v => self.spill.remove(j).1,
                    _ => Slot::EMPTY,
                };
            }
            At::Spill(j) => {
                self.spill.remove(j);
            }
        }
    }

    /// File one envelope for group node `node` (dropped if the node is
    /// closed).
    pub fn file(&mut self, node: usize, env: Envelope) {
        if self.closed[node] {
            return;
        }
        let at = match self.find(node, env.round) {
            Some(at) => at,
            None => self.open(node, env.round),
        };
        let slot = *self.slot(at);
        let entries = &mut self.stores[slot.store as usize].entries;
        let idx = entries.len() as u32;
        let (payload, directed, word) = match env.kind {
            EnvelopeKind::Payload {
                payload,
                directed,
                rid,
            } => (Some(payload), directed, rid),
            EnvelopeKind::RoundDone { ack } => (None, false, ack),
        };
        let marker = payload.is_none();
        entries.push(Entry {
            next: slot.head,
            from: env.from,
            seq: env.seq,
            payload,
            directed,
            word,
        });
        let s = self.slot_mut(at);
        s.head = idx;
        s.markers += u32::from(marker);
    }

    /// Whether `node`'s round-`round` quorum is met: at least `quorum`
    /// end-of-round markers have arrived (`quorum` = the node's degree in
    /// the round graph; an isolated node's quorum of 0 is trivially met).
    pub fn ready(&self, node: usize, round: usize, quorum: usize) -> bool {
        quorum == 0
            || self
                .find(node, round)
                .is_some_and(|at| self.slot(at).markers as usize >= quorum)
    }

    /// Release `node`'s round `round` into `out`: its inbox is appended to
    /// `out.inbox` sorted into the canonical lock-step order (ascending
    /// sender id, then per-sender emission order), and `out.rids`,
    /// `out.acks` and `out.dups_discarded` are overwritten with this
    /// round's. Rounds are taken at most once, in ascending order per node.
    ///
    /// The reassembly does not trust `(sender, seq)` uniqueness: a
    /// transport replay or an injected duplication fault can deliver the
    /// same envelope twice, so duplicates are discarded here (first
    /// arrival wins) and counted exactly in [`Released::dups_discarded`].
    pub fn take(&mut self, node: usize, round: usize, out: &mut Released) {
        out.rids.clear();
        out.acks.clear();
        out.dups_discarded = 0;
        let Some(at) = self.find(node, round) else {
            return;
        };
        let slot = *self.slot(at);
        let entries = &mut self.stores[slot.store as usize].entries;
        out.keys.clear();
        let mut e = slot.head;
        while e != NIL {
            let entry = &entries[e as usize];
            if entry.payload.is_some() {
                out.keys.push((entry.from.0, entry.seq, e));
            } else {
                out.acks.push((entry.from, entry.word));
            }
            e = entry.next;
        }
        // Entry indices grow with arrival, so the unique keys sort
        // duplicates first-arrival first.
        out.keys.sort_unstable();
        out.acks.sort_unstable_by_key(|&(from, _)| from);
        let mut last = None;
        for &(from, seq, e) in &out.keys {
            let entry = &mut entries[e as usize];
            let payload = entry.payload.take().expect("payload taken once");
            if last == Some((from, seq)) {
                out.dups_discarded += 1;
                continue;
            }
            last = Some((from, seq));
            out.inbox.push(Incoming {
                from: entry.from,
                directed: entry.directed,
                payload,
            });
            out.rids.push(entry.word);
        }
        self.close(at);
    }

    /// Close `node`, a node that will take no further round: drop
    /// everything buffered for it, and everything filed for it from now on.
    pub fn close_node(&mut self, node: usize) {
        self.closed[node] = true;
        for k in 0..2 {
            while !self.slots[node][k].is_empty() {
                self.close(At::Inline(node, k));
            }
        }
    }

    /// The subset of `neighbors` whose round-`round` marker has not reached
    /// `node` yet — the senders blocking its quorum (stall-watchdog
    /// diagnostics).
    pub fn missing_markers(&self, node: usize, round: usize, neighbors: &[NodeId]) -> Vec<NodeId> {
        let mut arrived = Vec::new();
        if let Some(at) = self.find(node, round) {
            let slot = self.slot(at);
            let entries = &self.stores[slot.store as usize].entries;
            let mut e = slot.head;
            while e != NIL {
                let entry = &entries[e as usize];
                // Payloads leave a chain only when its round is taken, so
                // an untaken chain's payload-free entries are its markers.
                if entry.payload.is_none() {
                    arrived.push(entry.from);
                }
                e = entry.next;
            }
        }
        neighbors
            .iter()
            .copied()
            .filter(|v| !arrived.contains(v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::TokenId;

    /// The per-node `BTreeMap` round buffer the shard-owned [`Reassembly`]
    /// replaced, kept as the model the differential property below checks
    /// against.
    mod reference {
        use super::super::{Envelope, EnvelopeKind};
        use crate::protocol::{Incoming, Payload};
        use hinet_graph::graph::NodeId;
        use std::collections::BTreeMap;

        #[derive(Default)]
        struct Slot {
            msgs: Vec<(NodeId, u32, u64, Payload, bool)>,
            markers: Vec<(NodeId, u64)>,
        }

        /// What [`RoundBuffer::take_round`] releases.
        #[derive(Default)]
        pub(super) struct Taken {
            pub(super) inbox: Vec<Incoming>,
            pub(super) rids: Vec<u64>,
            pub(super) acks: Vec<(NodeId, u64)>,
            pub(super) dups_discarded: u64,
        }

        #[derive(Default)]
        pub(super) struct RoundBuffer {
            slots: BTreeMap<usize, Slot>,
        }

        impl RoundBuffer {
            pub(super) fn push(&mut self, env: Envelope) {
                let slot = self.slots.entry(env.round).or_default();
                match env.kind {
                    EnvelopeKind::Payload {
                        payload,
                        directed,
                        rid,
                    } => slot.msgs.push((env.from, env.seq, rid, payload, directed)),
                    EnvelopeKind::RoundDone { ack } => slot.markers.push((env.from, ack)),
                }
            }

            pub(super) fn ready(&self, round: usize, quorum: usize) -> bool {
                quorum == 0
                    || self
                        .slots
                        .get(&round)
                        .is_some_and(|slot| slot.markers.len() >= quorum)
            }

            pub(super) fn take_round(&mut self, round: usize) -> Taken {
                let Some(mut slot) = self.slots.remove(&round) else {
                    return Taken::default();
                };
                slot.msgs
                    .sort_by_key(|&(from, seq, _, _, _)| (from.index(), seq));
                let before = slot.msgs.len();
                slot.msgs
                    .dedup_by_key(|&mut (from, seq, _, _, _)| (from, seq));
                let dups_discarded = (before - slot.msgs.len()) as u64;
                let mut rids = Vec::new();
                let inbox = slot
                    .msgs
                    .into_iter()
                    .map(|(from, _, rid, payload, directed)| {
                        rids.push(rid);
                        Incoming {
                            from,
                            directed,
                            payload,
                        }
                    })
                    .collect();
                let mut acks = slot.markers;
                acks.sort_by_key(|&(from, _)| from.index());
                Taken {
                    inbox,
                    rids,
                    acks,
                    dups_discarded,
                }
            }
        }
    }

    fn payload_env(round: usize, from: usize, seq: u32, token: u64) -> Envelope {
        Envelope {
            round,
            from: NodeId::from_index(from),
            to: NodeId(0),
            seq,
            kind: EnvelopeKind::Payload {
                payload: Payload::One(TokenId(token)),
                directed: false,
                rid: 0,
            },
        }
    }

    fn done_env(round: usize, from: usize) -> Envelope {
        Envelope {
            round,
            from: NodeId::from_index(from),
            to: NodeId(0),
            seq: u32::MAX,
            kind: EnvelopeKind::RoundDone { ack: 0 },
        }
    }

    /// Take node 0's round `round` into a fresh buffer.
    fn take(reasm: &mut Reassembly, round: usize) -> Released {
        let mut out = Released::default();
        reasm.take(0, round, &mut out);
        out
    }

    fn tokens(inbox: &[Incoming]) -> Vec<u64> {
        inbox.iter().map(|m| m.payload.first().unwrap().0).collect()
    }

    #[test]
    fn reassembles_shuffled_delivery_into_sender_order() {
        let mut reasm = Reassembly::new(1);
        // Arrival order scrambled across senders and within sender 1.
        reasm.file(0, payload_env(0, 2, 0, 20));
        reasm.file(0, payload_env(0, 1, 1, 11));
        reasm.file(0, done_env(0, 2));
        reasm.file(0, payload_env(0, 1, 0, 10));
        reasm.file(0, done_env(0, 1));
        assert!(reasm.ready(0, 0, 2));
        let inbox = take(&mut reasm, 0).inbox;
        assert_eq!(
            tokens(&inbox),
            vec![10, 11, 20],
            "(from, seq) order restored"
        );
        assert_eq!(inbox[0].from, NodeId(1));
    }

    #[test]
    fn quorum_gates_release_per_round() {
        let mut reasm = Reassembly::new(1);
        reasm.file(0, payload_env(3, 0, 0, 1));
        assert!(
            !reasm.ready(0, 3, 1),
            "payloads alone never release a round"
        );
        reasm.file(0, done_env(3, 0));
        assert!(reasm.ready(0, 3, 1));
        assert!(!reasm.ready(0, 4, 1), "later rounds untouched");
        assert!(
            reasm.ready(0, 7, 0),
            "zero quorum (isolated node) is trivially met"
        );
        assert_eq!(take(&mut reasm, 3).inbox.len(), 1);
        assert!(!reasm.ready(0, 3, 1), "a taken round is gone");
        assert!(reasm.stores.iter().all(|s| s.refs == 0), "storage freed");
    }

    #[test]
    fn future_rounds_buffer_independently() {
        let mut reasm = Reassembly::new(1);
        reasm.file(0, done_env(1, 0));
        reasm.file(0, done_env(0, 0));
        reasm.file(0, payload_env(1, 0, 0, 5));
        assert!(reasm.ready(0, 0, 1));
        assert!(reasm.ready(0, 1, 1));
        assert!(take(&mut reasm, 0).inbox.is_empty());
        let later = take(&mut reasm, 1).inbox;
        assert_eq!(later.len(), 1);
        assert_eq!(later[0].payload.first(), Some(TokenId(5)));
    }

    #[test]
    fn duplicate_sender_seq_pairs_are_discarded_and_counted() {
        let mut reasm = Reassembly::new(1);
        reasm.file(0, payload_env(0, 1, 0, 10));
        reasm.file(0, payload_env(0, 1, 0, 10)); // exact duplicate
        reasm.file(0, payload_env(0, 1, 1, 11));
        reasm.file(0, payload_env(0, 2, 0, 20));
        reasm.file(0, payload_env(0, 2, 0, 20)); // duplicated twice more
        reasm.file(0, payload_env(0, 2, 0, 20));
        reasm.file(0, done_env(0, 1));
        reasm.file(0, done_env(0, 2));
        let taken = take(&mut reasm, 0);
        assert_eq!(
            tokens(&taken.inbox),
            vec![10, 11, 20],
            "first arrival wins, order kept"
        );
        assert_eq!(taken.dups_discarded, 3);
        let mut reasm2 = Reassembly::new(1);
        reasm2.file(0, payload_env(1, 0, 0, 1));
        reasm2.file(0, done_env(1, 0));
        assert_eq!(take(&mut reasm2, 1).dups_discarded, 0);
    }

    #[test]
    fn take_surfaces_rids_and_sorted_marker_acks() {
        let mut reasm = Reassembly::new(1);
        let mut env = payload_env(0, 2, 0, 20);
        if let EnvelopeKind::Payload { rid, .. } = &mut env.kind {
            *rid = 7;
        }
        reasm.file(0, env);
        reasm.file(
            0,
            Envelope {
                round: 0,
                from: NodeId(2),
                to: NodeId(0),
                seq: u32::MAX,
                kind: EnvelopeKind::RoundDone { ack: 4 },
            },
        );
        reasm.file(
            0,
            Envelope {
                round: 0,
                from: NodeId(1),
                to: NodeId(0),
                seq: u32::MAX,
                kind: EnvelopeKind::RoundDone { ack: 9 },
            },
        );
        let taken = take(&mut reasm, 0);
        assert_eq!(taken.rids, vec![7]);
        assert_eq!(taken.acks, vec![(NodeId(1), 9), (NodeId(2), 4)]);
    }

    #[test]
    fn missing_markers_names_the_blocking_senders() {
        let mut reasm = Reassembly::new(1);
        let neighbors = [NodeId(1), NodeId(2), NodeId(3)];
        assert_eq!(
            reasm.missing_markers(0, 0, &neighbors),
            neighbors.to_vec(),
            "nothing filed: everyone is missing"
        );
        reasm.file(0, payload_env(0, 1, 0, 10));
        reasm.file(0, done_env(0, 2));
        assert_eq!(
            reasm.missing_markers(0, 0, &neighbors),
            vec![NodeId(1), NodeId(3)]
        );
        reasm.file(0, done_env(0, 1));
        reasm.file(0, done_env(0, 3));
        assert!(reasm.missing_markers(0, 0, &neighbors).is_empty());
    }

    #[test]
    fn channel_transport_delivers_and_notifies() {
        let t = ChannelTransport::new(3);
        let hits = Arc::new(AtomicUsize::new(0));
        let hits2 = Arc::clone(&hits);
        t.set_notifier(Arc::new(move |_node| {
            hits2.fetch_add(1, Ordering::Relaxed);
        }));
        let mut got = Vec::new();
        assert_eq!(t.drain(0, &mut got), 0, "an empty mailbox drains nothing");
        t.send(payload_env(0, 1, 0, 9));
        t.send(done_env(0, 1));
        assert_eq!(hits.load(Ordering::Relaxed), 2);
        assert_eq!(t.drain(0, &mut got), 2);
        assert_eq!(t.drain(0, &mut got), 0, "drain empties the mailbox");
        assert_eq!(got.len(), 2);
        assert_eq!(t.max_depth(), 2, "high-water mark before the drain");
        t.send(done_env(1, 1));
        assert_eq!(t.drain(0, &mut got), 1, "refilled after a drain");
    }

    /// The shard-owned reassembly releases exactly what one reference
    /// buffer per node releases, on random traffic: several nodes, rounds
    /// interleaved, envelopes filed in any order (duplicates, retransmit
    /// rids and marker acks included), and rounds taken in any order across
    /// nodes (ascending per node, once their markers are in) while other
    /// nodes' envelopes keep arriving — so stores are recycled and reused
    /// mid-run. Every token is unique to its `(node, round)`, so an
    /// envelope released to the wrong node or round fails the comparison.
    #[test]
    fn reassembly_matches_per_node_round_buffers() {
        use hinet_rt::check::check;
        use hinet_rt::rng::Rng;
        check("reassembly_matches_per_node_round_buffers", 96, |c| {
            let nodes = c.random_range(1..=6usize);
            let rounds = c.random_range(1..=5usize);
            // Every (node, round)'s envelopes, and its marker count.
            let mut queue: Vec<(usize, Envelope)> = Vec::new();
            let mut quorum = vec![vec![0usize; rounds]; nodes];
            let mut token = 0u64;
            for (v, node_quorum) in quorum.iter_mut().enumerate() {
                for (r, q) in node_quorum.iter_mut().enumerate() {
                    let senders = c.random_range(0..=4usize);
                    *q = senders;
                    for s in 0..senders {
                        let from = NodeId::from_index(nodes + s);
                        for seq in 0..c.random_range(0..=3u32) {
                            let seq = if c.random_bool(0.2) {
                                u32::MAX - 1 - seq
                            } else {
                                seq
                            };
                            token += 1;
                            let env = Envelope {
                                round: r,
                                from,
                                to: NodeId::from_index(v),
                                seq,
                                kind: EnvelopeKind::Payload {
                                    payload: Payload::One(TokenId(token)),
                                    directed: c.random_bool(0.5),
                                    rid: c.random_range(0..8u64),
                                },
                            };
                            for _ in 0..c.random_range(1..=2usize) {
                                queue.push((v, env.clone()));
                            }
                        }
                        let ack = c.random_range(0..8u64);
                        let marker = Envelope {
                            round: r,
                            from,
                            to: NodeId::from_index(v),
                            seq: u32::MAX,
                            kind: EnvelopeKind::RoundDone { ack },
                        };
                        queue.push((v, marker));
                    }
                }
            }
            for i in (1..queue.len()).rev() {
                let j = c.random_range(0..=i);
                queue.swap(i, j);
            }
            let mut flat = Reassembly::new(nodes);
            let mut model: Vec<reference::RoundBuffer> = (0..nodes)
                .map(|_| reference::RoundBuffer::default())
                .collect();
            let mut next = vec![0usize; nodes];
            let mut arrived = vec![vec![0usize; rounds]; nodes];
            let mut expect = vec![vec![0usize; rounds]; nodes];
            for (v, env) in &queue {
                expect[*v][env.round] += 1;
            }
            let mut out = Released::default();
            let mut queue = queue.into_iter().peekable();
            loop {
                // Takeable: the node's next round has all its envelopes.
                let ready: Vec<usize> = (0..nodes)
                    .filter(|&v| next[v] < rounds && arrived[v][next[v]] == expect[v][next[v]])
                    .collect();
                if ready.is_empty() && queue.peek().is_none() {
                    break;
                }
                if queue.peek().is_some() && (ready.is_empty() || c.random_bool(0.6)) {
                    let (v, env) = queue.next().expect("peeked");
                    arrived[v][env.round] += 1;
                    model[v].push(env.clone());
                    flat.file(v, env);
                    continue;
                }
                let v = ready[c.random_range(0..ready.len())];
                let r = next[v];
                next[v] += 1;
                assert!(flat.ready(v, r, quorum[v][r]));
                assert_eq!(
                    flat.ready(v, r, quorum[v][r]),
                    model[v].ready(r, quorum[v][r])
                );
                // Take into a buffer that already holds earlier inboxes.
                let from = out.inbox.len();
                flat.take(v, r, &mut out);
                let want = model[v].take_round(r);
                let got: Vec<_> = out.inbox[from..]
                    .iter()
                    .map(|m| (m.from, m.directed, m.payload.first()))
                    .collect();
                let want_inbox: Vec<_> = want
                    .inbox
                    .iter()
                    .map(|m| (m.from, m.directed, m.payload.first()))
                    .collect();
                assert_eq!(got, want_inbox, "node {v} round {r} inbox");
                assert_eq!(out.rids, want.rids, "node {v} round {r} rids");
                assert_eq!(out.acks, want.acks, "node {v} round {r} acks");
                assert_eq!(out.dups_discarded, want.dups_discarded);
                if c.random_bool(0.5) {
                    out.inbox.clear();
                }
            }
            assert!(next.iter().all(|&r| r == rounds), "every round taken");
            assert!(
                flat.stores.iter().all(|s| s.refs == 0) && flat.spill.is_empty(),
                "every store recycled"
            );
        });
    }

    #[test]
    fn closing_a_node_drops_its_rounds_and_later_mail() {
        let mut reasm = Reassembly::new(2);
        for r in 0..4 {
            reasm.file(0, payload_env(r, 2, 0, r as u64));
            reasm.file(1, done_env(r, 2));
        }
        assert_eq!(reasm.spill.len(), 4, "rounds beyond two spill");
        reasm.close_node(0);
        reasm.file(0, payload_env(5, 2, 0, 5));
        let mut out = Released::default();
        for r in 0..6 {
            assert!(reasm.find(0, r).is_none(), "node 0's round {r} dropped");
        }
        for r in 0..4 {
            assert!(reasm.ready(1, r, 1), "the other node keeps its rounds");
            reasm.take(1, r, &mut out);
        }
        assert!(reasm.stores.iter().all(|s| s.refs == 0) && reasm.spill.is_empty());
    }
}
