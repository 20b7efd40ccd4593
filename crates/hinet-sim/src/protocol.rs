//! The per-node protocol interface.

use crate::gf2::Gf2Vec;
use crate::token::{TokenId, TokenSet};
use hinet_cluster::hierarchy::{ClusterId, Role};
use hinet_graph::graph::NodeId;
use std::sync::Arc;

/// What a node can observe about round `round` before sending — its own
/// identity, its role and cluster under the current hierarchy, and its
/// current neighborhood. This is the paper's system model: nodes can probe
/// neighbors and know their own cluster status, nothing more.
#[derive(Clone, Copy, Debug)]
pub struct LocalView<'a> {
    /// This node.
    pub me: NodeId,
    /// Current round index.
    pub round: usize,
    /// Role under the round's hierarchy.
    pub role: Role,
    /// Cluster the node belongs to (`None` only for unclustered nodes in
    /// derived hierarchies).
    pub cluster: Option<ClusterId>,
    /// The node's cluster head (itself for a head).
    pub head: Option<NodeId>,
    /// The node's next hop toward its head: the head itself in 1-hop
    /// clusters, the parent in multi-hop (d-hop) clusters, `None` for
    /// heads and unclustered nodes.
    pub parent: Option<NodeId>,
    /// Sorted neighbor list in the round's topology.
    pub neighbors: &'a [NodeId],
}

/// Where an outgoing message goes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Destination {
    /// Wireless broadcast to all current neighbors.
    Broadcast,
    /// Directed send to one node — delivered only if the target is a
    /// current neighbor (members talk to their head this way).
    Unicast(NodeId),
}

/// A message payload: a single token (the per-round selections of
/// Algorithm 1 and KLO), a whole token set (Algorithm 2's `broadcast
/// TA`, flooding), or a network-coded combination of tokens (RLNC).
///
/// Single-token pushes carry the id inline — no allocation per message.
/// Set and coded payloads are `Arc`-shared: a broadcast delivered to a
/// thousand neighbors clones a refcount, not a bitset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Payload {
    /// Exactly one token.
    One(TokenId),
    /// A whole token set, shared between all its deliveries.
    Set(Arc<TokenSet>),
    /// A random linear combination of tokens over GF(2): one
    /// token-payload's worth of data plus a `k`-bit coefficient header.
    Coded(Arc<Gf2Vec>),
}

impl Payload {
    /// Number of tokens carried — the paper's per-message cost. A coded
    /// packet counts as one token-payload.
    pub fn len(&self) -> usize {
        match self {
            Payload::One(_) => 1,
            Payload::Set(s) => s.len(),
            Payload::Coded(_) => 1,
        }
    }

    /// Bytes of coefficient header the payload carries on top of its
    /// token bytes: `⌈k/8⌉` for a coded packet over `k` tokens, 0
    /// otherwise.
    pub fn coefficient_bytes(&self) -> u64 {
        match self {
            Payload::Coded(v) => v.len().div_ceil(8) as u64,
            _ => 0,
        }
    }

    /// Whether the payload carries no tokens (an empty set — the engine
    /// drops such sends for free).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The smallest carried token id — what the trace schema records as
    /// the message's representative `token` (for a coded packet, its
    /// pivot: the lowest token it combines).
    pub fn first(&self) -> Option<TokenId> {
        match self {
            Payload::One(t) => Some(*t),
            Payload::Set(s) => s.min(),
            Payload::Coded(v) => v.leading().map(|i| TokenId(i as u64)),
        }
    }

    /// Ascending iterator over the carried tokens (for a coded packet,
    /// the tokens it combines).
    pub fn iter(&self) -> PayloadIter<'_> {
        match self {
            Payload::One(t) => PayloadIter::One(Some(*t)),
            Payload::Set(s) => PayloadIter::Set(s.iter()),
            Payload::Coded(v) => PayloadIter::Coded(v, 0),
        }
    }

    /// Union the carried tokens into `ta` — word-parallel for set
    /// payloads, a single bit-set for one-token pushes. A coded packet
    /// reveals no token on its own (decode it through a
    /// [`crate::gf2::Gf2Basis`]), so it adds nothing.
    pub fn union_into(&self, ta: &mut TokenSet) {
        match self {
            Payload::One(t) => {
                ta.insert(*t);
            }
            Payload::Set(s) => ta.union_with(s),
            Payload::Coded(_) => {}
        }
    }

    /// Materialise the tokens in ascending order (test/debug helper).
    pub fn to_vec(&self) -> Vec<TokenId> {
        self.iter().collect()
    }
}

/// Ascending iterator over a [`Payload`]'s tokens.
pub enum PayloadIter<'a> {
    /// Single-token payload.
    One(Option<TokenId>),
    /// Set payload.
    Set(crate::token::Iter<'a>),
    /// Coded payload: the vector and the next coefficient to inspect.
    Coded(&'a Gf2Vec, usize),
}

impl Iterator for PayloadIter<'_> {
    type Item = TokenId;
    fn next(&mut self) -> Option<TokenId> {
        match self {
            PayloadIter::One(t) => t.take(),
            PayloadIter::Set(it) => it.next(),
            PayloadIter::Coded(v, i) => {
                while *i < v.len() {
                    *i += 1;
                    if v.get(*i - 1) {
                        return Some(TokenId(*i as u64 - 1));
                    }
                }
                None
            }
        }
    }
}

/// An outgoing message: a destination plus the token payload. Communication
/// cost is `payload.len()` per the paper's metric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outgoing {
    /// Delivery mode.
    pub dest: Destination,
    /// Token payload.
    pub payload: Payload,
    /// Whether this message repeats a payload the protocol already sent
    /// (recovery retransmission). The engine counts and traces marked
    /// messages separately; delivery is unaffected.
    pub retransmit: bool,
}

impl Outgoing {
    /// Broadcast a single token.
    pub fn broadcast_one(t: TokenId) -> Self {
        Outgoing {
            dest: Destination::Broadcast,
            payload: Payload::One(t),
            retransmit: false,
        }
    }

    /// Broadcast a whole token set (Algorithm 2's `broadcast TA`).
    pub fn broadcast_set(ts: &TokenSet) -> Self {
        Outgoing {
            dest: Destination::Broadcast,
            payload: Payload::Set(Arc::new(ts.clone())),
            retransmit: false,
        }
    }

    /// Unicast a single token to `to`.
    pub fn unicast_one(to: NodeId, t: TokenId) -> Self {
        Outgoing {
            dest: Destination::Unicast(to),
            payload: Payload::One(t),
            retransmit: false,
        }
    }

    /// Unicast a whole token set to `to`.
    pub fn unicast_set(to: NodeId, ts: &TokenSet) -> Self {
        Outgoing {
            dest: Destination::Unicast(to),
            payload: Payload::Set(Arc::new(ts.clone())),
            retransmit: false,
        }
    }

    /// Mark this message as a recovery retransmission.
    pub fn mark_retransmit(mut self) -> Self {
        self.retransmit = true;
        self
    }
}

/// A delivered message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Incoming {
    /// Sender.
    pub from: NodeId,
    /// Whether the sender addressed this node specifically (unicast) rather
    /// than broadcasting.
    pub directed: bool,
    /// Token payload — shared with every other receiver of the same
    /// broadcast.
    pub payload: Payload,
}

impl Incoming {
    /// A directed single-token delivery (test helper).
    pub fn one(from: NodeId, directed: bool, t: TokenId) -> Self {
        Incoming {
            from,
            directed,
            payload: Payload::One(t),
        }
    }

    /// A set delivery (test helper) — tokens are collected into a shared
    /// set payload.
    pub fn set(from: NodeId, directed: bool, tokens: &[TokenId]) -> Self {
        Incoming {
            from,
            directed,
            payload: Payload::Set(Arc::new(tokens.iter().copied().collect())),
        }
    }
}

/// A per-node dissemination protocol.
///
/// The engine drives each node's instance through `on_start` once, then
/// `send` and `receive` once per round, in that order, for every node
/// simultaneously (messages sent in round `r` arrive within round `r`,
/// matching the synchronous model) — `receive` only in rounds that deliver
/// the node something.
pub trait Protocol {
    /// Called once before round 0 with the node's initial tokens.
    fn on_start(&mut self, me: NodeId, initial: &[TokenId]);

    /// Produce this round's outgoing messages.
    fn send(&mut self, view: &LocalView<'_>) -> Vec<Outgoing>;

    /// Consume this round's delivered messages.
    ///
    /// Neither execution mode calls it with an empty inbox: a round that
    /// delivers a node nothing skips its `receive`, so per-round work
    /// belongs in [`Protocol::send`]. Every protocol in `hinet-core` only
    /// folds the messages it is handed, so it is a no-op on an empty
    /// inbox and the skip changes nothing it does.
    fn receive(&mut self, view: &LocalView<'_>, inbox: &[Incoming]);

    /// The tokens this node has collected so far (`TA`) — read by the
    /// completion oracle.
    fn known(&self) -> &TokenSet;

    /// Whether the protocol has terminated locally (run out of phases).
    /// Terminated nodes stop sending; the engine may keep running others.
    fn finished(&self) -> bool {
        false
    }

    /// Reset this node after a fault-plane crash: all volatile state is
    /// discarded and the node restarts as if freshly constructed with
    /// `retained` as its initial tokens (its originals, or everything it
    /// had learned when the plan declares tokens durable). Must be
    /// observably identical to constructing a new instance and calling
    /// [`Protocol::on_start`] with `retained`.
    ///
    /// The default panics: only protocols run under crash-injecting
    /// [`crate::fault::FaultPlan`]s need to implement it.
    fn on_restart(&mut self, me: NodeId, retained: &[TokenId]) {
        let _ = (me, retained);
        panic!("this protocol does not support crash-restart");
    }
}

impl<T: Protocol + ?Sized> Protocol for Box<T> {
    fn on_start(&mut self, me: NodeId, initial: &[TokenId]) {
        (**self).on_start(me, initial)
    }
    fn send(&mut self, view: &LocalView<'_>) -> Vec<Outgoing> {
        (**self).send(view)
    }
    fn receive(&mut self, view: &LocalView<'_>, inbox: &[Incoming]) {
        (**self).receive(view, inbox)
    }
    fn known(&self) -> &TokenSet {
        (**self).known()
    }
    fn finished(&self) -> bool {
        (**self).finished()
    }
    fn on_restart(&mut self, me: NodeId, retained: &[TokenId]) {
        (**self).on_restart(me, retained)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outgoing_constructors() {
        let ts: TokenSet = [TokenId(2), TokenId(1)].into_iter().collect();
        let b = Outgoing::broadcast_set(&ts);
        assert_eq!(b.dest, Destination::Broadcast);
        assert_eq!(
            b.payload.to_vec(),
            vec![TokenId(1), TokenId(2)],
            "sorted payload"
        );
        let u = Outgoing::unicast_one(NodeId(3), TokenId(9));
        assert_eq!(u.dest, Destination::Unicast(NodeId(3)));
        assert_eq!(u.payload.len(), 1);
        assert_eq!(
            Outgoing::broadcast_one(TokenId(5)).payload.to_vec(),
            vec![TokenId(5)]
        );
        assert_eq!(
            Outgoing::unicast_set(NodeId(1), &ts).payload.to_vec(),
            vec![TokenId(1), TokenId(2)]
        );
        assert!(!b.retransmit, "constructors build fresh sends");
        assert!(
            Outgoing::broadcast_one(TokenId(5))
                .mark_retransmit()
                .retransmit
        );
    }

    #[test]
    fn payload_accessors() {
        let one = Payload::One(TokenId(7));
        assert_eq!(one.len(), 1);
        assert!(!one.is_empty());
        assert_eq!(one.first(), Some(TokenId(7)));
        assert_eq!(one.to_vec(), vec![TokenId(7)]);

        let set = Payload::Set(Arc::new([TokenId(9), TokenId(4)].into_iter().collect()));
        assert_eq!(set.len(), 2);
        assert_eq!(set.first(), Some(TokenId(4)), "first = smallest id");
        assert_eq!(set.to_vec(), vec![TokenId(4), TokenId(9)]);

        let empty = Payload::Set(Arc::new(TokenSet::new()));
        assert!(empty.is_empty());
        assert_eq!(empty.first(), None);

        let mut ta = TokenSet::new();
        one.union_into(&mut ta);
        set.union_into(&mut ta);
        assert_eq!(ta.len(), 3);
        assert!(ta.contains(&TokenId(7)) && ta.contains(&TokenId(4)) && ta.contains(&TokenId(9)));
    }

    #[test]
    fn incoming_helpers() {
        let m = Incoming::one(NodeId(2), true, TokenId(5));
        assert!(m.directed);
        assert_eq!(m.payload.to_vec(), vec![TokenId(5)]);
        let s = Incoming::set(NodeId(1), false, &[TokenId(3), TokenId(1)]);
        assert!(!s.directed);
        assert_eq!(s.payload.to_vec(), vec![TokenId(1), TokenId(3)]);
    }
}
