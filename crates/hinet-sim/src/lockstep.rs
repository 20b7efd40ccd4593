//! The lock-step driver: a run you step one round at a time.
//!
//! A [`Lockstep`] holds everything a lock-step run keeps between rounds:
//! the per-worker scratch, the delivery plane's per-node links and
//! reassembly, the flat outbox and every node's [`Flags`]. Its
//! [`Lockstep::step`] runs one round, whose [`RoundCtx`] it is handed, with
//! every node's send, delivery and receive behind one global barrier, and
//! returns what the round fold needs to close it. Building the round and
//! closing it are the caller's ([`crate::engine::Engine::run`]).

use crate::delivery::{DueBuf, Link, Outbox, Plane, Tally};
use crate::engine::{resolve_threads, RunConfig};
use crate::node::{delta, Census, Counts, Flags, NodeStep};
use crate::protocol::{Incoming, Outgoing, Protocol};
use crate::round::{RoundCtx, Stepped};
use crate::transport::{Envelope, Reassembly, Released};
use hinet_rt::obs::Tracer;
use hinet_rt::pool;

/// Node count from which the auto thread policy (`threads = 0`) fans the
/// round phases out over the pool; below it, thread spawn overhead beats
/// the parallel win on every workload we measure.
const PARALLEL_NODE_THRESHOLD: usize = 4096;

/// A lock-step run between rounds.
pub(crate) struct Lockstep<'a> {
    step: NodeStep<'a>,
    /// The delivery plane shared with the event runtime. Envelopes from a
    /// non-trivial plan pass through one `Reassembly` for all nodes (the
    /// event runtime's shard structure, as one shard), exactly as a
    /// mailbox would deliver them, and each round is released into one
    /// flat inbox buffer, node after node. A trivial plan needs no
    /// per-node delivery state — no holds, no windows, no duplicates — so
    /// every node shares one idle link, no envelope is built, and each
    /// receiver gathers its inbox from its neighbours' sends in the round's
    /// flat `outbox`, already in the reassembly's `(sender, seq)` order.
    plane: Plane<'a>,
    trivial: bool,
    workers: Vec<Worker>,
    links: Vec<Link>,
    reasm: Reassembly,
    outbox: Outbox,
    /// `released.inbox[offsets[v]..offsets[v + 1]]` is node `v`'s inbox.
    released: Released,
    offsets: Vec<usize>,
    due: DueBuf,
    flags: Vec<Flags>,
    counts: Counts,
}

/// One lock-step worker's scratch, reused round after round.
#[derive(Default)]
struct Worker {
    /// Its chunk's sends this round, node after node.
    sent: Vec<Outgoing>,
    /// `ends[j]`: where the chunk's `j`-th node's sends end in `sent`.
    ends: Vec<usize>,
    /// The inbox being gathered (trivial plan).
    inbox: Vec<Incoming>,
    /// Chunk nodes whose flags this phase changed, with their new flags.
    changed: Vec<(usize, Flags)>,
}

impl<'a> Lockstep<'a> {
    /// A run of `census.flags.len()` nodes under `cfg`, from the census
    /// [`crate::engine::Engine::run`] took.
    pub(crate) fn new(
        cfg: &'a RunConfig<'_>,
        step: NodeStep<'a>,
        census: Census,
        tracing: bool,
    ) -> Lockstep<'a> {
        let n = census.flags.len();
        let trivial = cfg.faults.is_trivial();
        let plane = Plane::new(&cfg.faults, cfg.reliable, tracing, cfg.cost_weights, false);
        let links = if trivial {
            vec![Link::default()]
        } else {
            (0..n).map(|i| plane.link(i)).collect()
        };
        Lockstep {
            step,
            plane,
            trivial,
            workers: (0..resolve_threads(cfg.threads, n, PARALLEL_NODE_THRESHOLD))
                .map(|_| Worker::default())
                .collect(),
            links,
            reasm: Reassembly::new(if trivial { 0 } else { n }),
            outbox: Outbox::default(),
            released: Released::default(),
            offsets: Vec::new(),
            due: DueBuf::new(),
            flags: census.flags,
            counts: census.counts,
        }
    }

    /// Run round `round` of `protocols` against its context `ctx`: every
    /// node's restart and send, the deliveries, every node's receive.
    pub(crate) fn step<P: Protocol + Send>(
        &mut self,
        protocols: &mut [P],
        ctx: &RoundCtx,
        round: usize,
        tracer: &mut Tracer,
    ) -> Stepped {
        let (step, flags) = (&self.step, &self.flags);
        // Send phase: a node the round crashed restarts, then every node
        // sends against its own view — node-independent, so it fans out
        // over the workers, whose chunks then line up in one flat outbox.
        pool::for_chunks_mut(protocols, &mut self.workers, |start, chunk, w| {
            w.sent.clear();
            w.ends.clear();
            w.changed.clear();
            for (j, p) in chunk.iter_mut().enumerate() {
                let i = start + j;
                if ctx.crashed[i] {
                    let mut f = flags[i];
                    step.restart(p, i, &mut f);
                    w.changed.push((i, f));
                }
                w.sent.extend(step.send(p, ctx, i, round));
                w.ends.push(w.sent.len());
            }
        });
        self.outbox.clear();
        for w in &mut self.workers {
            self.outbox.append(&mut w.sent, &w.ends);
        }
        self.apply_changes();
        let informed_start = self.counts.informed;

        // Delivery: every node's sender step, in node-id order, accounts
        // and traces its sends (its events emitted as it finishes, so
        // metrics, trace and inbox order do not depend on the thread
        // count); a non-trivial plan's envelopes then go through the
        // reassembly and the receiver step, as a mailbox would deliver
        // them. A trivial plan emits none: its receivers gather in the
        // receive phase.
        let mut tally = Tally::default();
        let mut evts = Vec::new();
        let reasm = &mut self.reasm;
        for i in 0..protocols.len() {
            self.plane.send(
                ctx,
                round,
                i,
                &mut self.links[if self.trivial { 0 } else { i }],
                self.outbox.sent(i),
                &mut tally,
                &mut evts,
                &mut self.due,
                &mut |env: Envelope| reasm.file(env.to.index(), env),
            );
            for (e, bytes) in evts.drain(..) {
                tracer.emit_with_bytes(round as u64, e, bytes);
            }
        }
        if !self.trivial {
            let released = &mut self.released;
            released.inbox.clear();
            self.offsets.clear();
            for (v, link) in self.links.iter_mut().enumerate() {
                let from = released.inbox.len();
                self.offsets.push(from);
                self.reasm.take(v, round, released);
                self.plane
                    .accept(ctx, round, v, link, released, from, &mut tally);
            }
            self.offsets.push(released.inbox.len());
        }

        // Receive phase: node-independent again — fan out, then fold the
        // flag changes back into the counts.
        let (step, flags) = (&self.step, &self.flags);
        let (trivial, outbox) = (self.trivial, &self.outbox);
        let (released, offsets) = (&self.released, &self.offsets);
        pool::for_chunks_mut(protocols, &mut self.workers, |start, chunk, w| {
            w.changed.clear();
            for (j, p) in chunk.iter_mut().enumerate() {
                let i = start + j;
                let inbox: &[Incoming] = if trivial {
                    outbox.gather(&ctx.graph, i, &mut w.inbox);
                    &w.inbox
                } else {
                    &released.inbox[offsets[i]..offsets[i + 1]]
                };
                let mut f = flags[i];
                step.receive(p, ctx, i, round, inbox, &mut f);
                if f != flags[i] {
                    w.changed.push((i, f));
                }
            }
            w.inbox.clear(); // hold no payload past the round
        });
        self.apply_changes();

        let in_flight: usize = self.links.iter().map(Link::in_flight).sum();
        Stepped {
            tally,
            informed_start,
            informed_end: self.counts.informed,
            quiescent: in_flight == 0 && self.counts.finished == protocols.len(),
        }
    }

    /// Fold the flag changes the workers' last phase made into the flags
    /// and counts.
    fn apply_changes(&mut self) {
        for &(i, f) in self.workers.iter().flat_map(|w| &w.changed) {
            self.counts.shift(delta(self.flags[i], f));
            self.flags[i] = f;
        }
    }
}
