//! One node's round, shared by both drivers.
//!
//! In the paper's model a round is, for every node: restart if the fault
//! plane crashed it, send, then receive what its current neighbours sent.
//! [`NodeStep`] is that node round, once: the lock-step engine calls it
//! node by node behind its round barrier, the event runtime as each node's
//! quorum allows. A driver keeps each node's [`Flags`] between the calls
//! and sums the changes they report into its informed and finished counts,
//! which the round fold and the stop rule read.

use crate::protocol::{Incoming, Outgoing, Protocol};
use crate::round::RoundCtx;
use crate::token::{TokenId, TokenSet};
use hinet_graph::graph::NodeId;

/// A node's completion flags between its steps.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Flags {
    /// The node knows the whole token universe.
    pub(crate) informed: bool,
    /// Its protocol reports itself finished.
    pub(crate) finished: bool,
}

/// The run's informed and finished node counts.
#[derive(Default)]
pub(crate) struct Counts {
    pub(crate) informed: usize,
    pub(crate) finished: usize,
}

impl Counts {
    /// Move the counts by `(informed, finished)` deltas.
    pub(crate) fn shift(&mut self, (informed, finished): (i64, i64)) {
        self.informed = (self.informed as i64 + informed) as usize;
        self.finished = (self.finished as i64 + finished) as usize;
    }
}

/// How the informed and finished counts move when a node's flags go from
/// `old` to `new`.
pub(crate) fn delta(old: Flags, new: Flags) -> (i64, i64) {
    (
        i64::from(new.informed) - i64::from(old.informed),
        i64::from(new.finished) - i64::from(old.finished),
    )
}

/// Every node's flags at the start of the run, and their counts.
pub(crate) struct Census {
    pub(crate) flags: Vec<Flags>,
    pub(crate) counts: Counts,
}

/// The node round: what a node does on its restart, send and receive, and
/// how its flags follow.
pub(crate) struct NodeStep<'a> {
    universe: &'a TokenSet,
    assignment: &'a [Vec<TokenId>],
    /// [`crate::FaultPlan::durable_tokens`].
    durable_tokens: bool,
}

impl<'a> NodeStep<'a> {
    pub(crate) fn new(
        universe: &'a TokenSet,
        assignment: &'a [Vec<TokenId>],
        durable_tokens: bool,
    ) -> NodeStep<'a> {
        NodeStep {
            universe,
            assignment,
            durable_tokens,
        }
    }

    fn informed<P: Protocol>(&self, p: &P) -> bool {
        self.universe.is_subset(p.known())
    }

    /// The start-of-run census, taken once after every `on_start`.
    pub(crate) fn census<P: Protocol>(&self, protocols: &[P]) -> Census {
        let mut counts = Counts::default();
        let flags = protocols.iter().map(|p| {
            let f = Flags {
                informed: self.informed(p),
                finished: p.finished(),
            };
            counts.shift(delta(Flags::default(), f));
            f
        });
        Census {
            flags: flags.collect(),
            counts,
        }
    }

    /// Restart node `i`, which the fault plane crashed at the start of this
    /// round. Its volatile protocol state dies; the tokens it carries
    /// survive per the durability flag. A volatile restart can forget
    /// tokens, so `informed` is derived again.
    pub(crate) fn restart<P: Protocol>(&self, p: &mut P, i: usize, flags: &mut Flags) {
        let me = NodeId::from_index(i);
        if self.durable_tokens {
            let retained: Vec<TokenId> = p.known().iter().collect();
            p.on_restart(me, &retained);
        } else {
            p.on_restart(me, &self.assignment[i]);
        }
        flags.informed = self.informed(p);
    }

    /// Node `i`'s round-`r` send: nothing if it is down or finished.
    pub(crate) fn send<P: Protocol>(
        &self,
        p: &mut P,
        ctx: &RoundCtx,
        i: usize,
        r: usize,
    ) -> Vec<Outgoing> {
        if ctx.down[i] || p.finished() {
            return Vec::new();
        }
        p.send(&ctx.view(NodeId::from_index(i), r))
    }

    /// Node `i`'s round-`r` receive of `inbox`: nothing if it is down (its
    /// inbox is lost) or the inbox is empty (without a receive it learns
    /// nothing). Then its flags follow the protocol: it may have become
    /// informed, and it may have finished or resumed in any step of the
    /// round. Returns whether the protocol received.
    pub(crate) fn receive<P: Protocol>(
        &self,
        p: &mut P,
        ctx: &RoundCtx,
        i: usize,
        r: usize,
        inbox: &[Incoming],
        flags: &mut Flags,
    ) -> bool {
        let heard = !ctx.down[i] && !inbox.is_empty();
        if heard {
            p.receive(&ctx.view(NodeId::from_index(i), r), inbox);
            flags.informed = flags.informed || self.informed(p);
        }
        flags.finished = p.finished();
        heard
    }
}
