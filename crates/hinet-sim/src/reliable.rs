//! Protocol-agnostic ack/timeout/backoff reliability layer.
//!
//! The paper's round model assumes every surviving message is delivered in
//! the round it was sent. Once the fault plane can drop and delay
//! deliveries, recovery used to be the job of each algorithm's bespoke ARQ
//! (`retransmit` in Algorithms 1/2 only). This module generalises that
//! into one state machine for every protocol; the delivery plane both
//! drivers share (the lock-step engine and the event driver) runs it:
//!
//! * **Sender side** ([`SenderWindow`]): every payload handed to a link is
//!   registered under a per-link monotone *reliable id* (`rid`). A pending
//!   entry carries a retransmit timer; when the timer expires before the
//!   entry is acked, [`SenderWindow::due`] hands the payload back for
//!   re-sending and re-arms the timer with exponential backoff
//!   (`rto << attempt`, capped) plus deterministic jitter. The in-flight
//!   set per link is bounded by [`ReliableConfig::window`]; overflow drops
//!   the link's oldest (most-retried) entry.
//! * **Receiver side** ([`ReceiverLedger`]): accepts each `(sender, rid)`
//!   at most once (retransmit duplicates are discarded and counted by the
//!   caller) and maintains the *cumulative ack* — the smallest rid not yet
//!   received; everything below it has arrived. The cumulative ack
//!   piggybacks on the link's next
//!   [`crate::transport::EnvelopeKind::RoundDone`] marker and takes
//!   effect at the sender's receive step of that round, identically in
//!   both execution modes.
//!
//! # Determinism
//!
//! Nothing here consults wall time or ambient randomness: timers are round
//! counters, backoff jitter is a pure [`hinet_rt::rng::mix`] hash of
//! `(seed, rid, attempt)`, and retransmitted envelopes re-roll the fault
//! plane's *per-round* decisions at the round they are re-sent. The same
//! seed therefore replays the same recovery schedule exactly.

use hinet_graph::graph::NodeId;
use hinet_rt::rng::mix;
use std::collections::BTreeSet;

/// Domain-separation tag for the backoff-jitter hash stream.
const TAG_RELIABLE: u64 = 0x524c_4259; // "RLBY"

/// Tuning knobs of the reliability state machine (all in rounds).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReliableConfig {
    /// Base retransmission timeout: a fresh envelope unacked for this many
    /// rounds is retransmitted.
    pub rto: usize,
    /// Upper bound on the backed-off timeout.
    pub cap: usize,
    /// Maximum pending (unacked) envelopes per link before the oldest is
    /// dropped from tracking (at least 1).
    pub window: usize,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        // rto 2: a round-r payload's ack rides the receiver's round-(r+1)
        // marker, so a healthy link never fires the timer.
        ReliableConfig {
            rto: 2,
            cap: 16,
            window: 1024,
        }
    }
}

/// Backed-off timeout (in rounds) for retry `attempt` of `rid`:
/// `min(cap, rto * 2^(attempt-1))` plus a jitter of up to half the base,
/// hashed from `(seed, rid, attempt)`.
fn timeout(seed: u64, cfg: ReliableConfig, rid: u64, attempt: u32) -> usize {
    let shift = (attempt - 1).min(16);
    let base = cfg.cap.min(cfg.rto.saturating_mul(1 << shift));
    let jitter = mix(seed, mix(TAG_RELIABLE, mix(rid, u64::from(attempt)))) % (base as u64 / 2 + 1);
    base + jitter as usize
}

/// One unacked envelope awaiting its ack or retransmit timer.
#[derive(Clone, Debug)]
struct Pending<T> {
    to: usize,
    rid: u64,
    item: T,
    attempt: u32,
    registered: usize,
    next_retry: usize,
}

/// Sender-side per-link counters: the next rid and how many of the
/// window's pending entries belong to the link.
#[derive(Clone, Copy, Debug)]
struct LinkSender {
    to: usize,
    next_rid: u64,
    pending: usize,
}

/// A retransmission handed back by [`SenderWindow::due`].
#[derive(Clone, Debug)]
pub struct Retransmit<T> {
    /// Destination node index.
    pub to: usize,
    /// The original reliable id — reused verbatim so the receiver dedups.
    pub rid: u64,
    /// The payload to re-send.
    pub item: T,
    /// Retry attempt number (1 = first retransmission).
    pub attempt: u32,
}

/// One sender's reliability window over all of its links.
///
/// The state is flat: one vector of pending entries in registration order
/// (so each link's entries sit in ascending rid order) and one vector of
/// per-link counters sorted by destination. `in_flight` is its length, and
/// a `next_due` watermark lets [`SenderWindow::due`] return at once in
/// rounds where no timer can fire.
#[derive(Debug)]
pub struct SenderWindow<T> {
    seed: u64,
    cfg: ReliableConfig,
    links: Vec<LinkSender>,
    pending: Vec<Pending<T>>,
    /// No timer fires before this round: a lower bound on every entry's
    /// `next_retry`, exact right after [`SenderWindow::due`] scans.
    next_due: usize,
}

impl<T: Clone> SenderWindow<T> {
    /// An empty window. `seed` feeds the jitter stream only — two windows
    /// with the same seed and call sequence behave identically.
    pub fn new(seed: u64, cfg: ReliableConfig) -> SenderWindow<T> {
        SenderWindow {
            seed,
            cfg,
            links: Vec::new(),
            pending: Vec::new(),
            next_due: usize::MAX,
        }
    }

    /// Register a payload sent to `to` in `round`; returns the reliable id
    /// the envelope must carry. The entry stays pending until
    /// [`SenderWindow::ack`] covers it. A full link drops its oldest entry.
    pub fn register(&mut self, to: usize, item: T, round: usize) -> u64 {
        let at = match self.links.binary_search_by_key(&to, |l| l.to) {
            Ok(at) => at,
            Err(at) => {
                let fresh = LinkSender {
                    to,
                    next_rid: 0,
                    pending: 0,
                };
                self.links.insert(at, fresh);
                at
            }
        };
        let link = &mut self.links[at];
        let rid = link.next_rid;
        link.next_rid += 1;
        if link.pending >= self.cfg.window {
            let oldest = self
                .pending
                .iter()
                .position(|p| p.to == to)
                .expect("a full link has pending entries");
            self.pending.remove(oldest);
        } else {
            link.pending += 1;
        }
        let next_retry = round + timeout(self.seed, self.cfg, rid, 1);
        self.next_due = self.next_due.min(next_retry);
        self.pending.push(Pending {
            to,
            rid,
            item,
            attempt: 1,
            registered: round,
            next_retry,
        });
        rid
    }

    /// Apply one round's cumulative acks, `(from, cum)` sorted by sender
    /// with at most one per sender: every rid `< cum` on the link to
    /// `from` is delivered, so its pending entry is cleared.
    pub fn ack(&mut self, acks: &[(NodeId, u64)]) {
        debug_assert!(acks.windows(2).all(|w| w[0].0 < w[1].0));
        if acks.is_empty() || self.pending.is_empty() {
            return;
        }
        let links = &mut self.links;
        self.pending.retain(|p| {
            let Ok(a) = acks.binary_search_by_key(&p.to, |&(from, _)| from.index()) else {
                return true;
            };
            if p.rid >= acks[a].1 {
                return true;
            }
            let l = links
                .binary_search_by_key(&p.to, |l| l.to)
                .expect("every pending entry has a link");
            links[l].pending -= 1;
            false
        });
    }

    /// Hand back every pending entry whose timer expired by `round`, in
    /// `(link, rid)` order: each is returned for re-sending and re-armed
    /// in place with the next backoff step.
    pub fn due(&mut self, round: usize) -> Vec<Retransmit<T>> {
        let mut out = Vec::new();
        if round < self.next_due {
            return out;
        }
        let (seed, cfg) = (self.seed, self.cfg);
        let mut next_due = usize::MAX;
        for p in &mut self.pending {
            if p.next_retry <= round {
                out.push(Retransmit {
                    to: p.to,
                    rid: p.rid,
                    item: p.item.clone(),
                    attempt: p.attempt,
                });
                p.attempt += 1;
                p.next_retry = round + timeout(seed, cfg, p.rid, p.attempt);
            }
            next_due = next_due.min(p.next_retry);
        }
        self.next_due = next_due;
        // Registration order is rid order within a link, so a stable sort
        // by destination yields `(link, rid)` order.
        out.sort_by_key(|r| r.to);
        out
    }

    /// Total unacked envelopes across all links.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Round in which the oldest still-unacked envelope was first sent —
    /// `None` when nothing is pending. Feeds the stall watchdog's
    /// "oldest unacked envelope age" diagnostic.
    pub fn oldest_unacked(&self) -> Option<usize> {
        self.pending.iter().map(|p| p.registered).min()
    }
}

/// Receiver-side per-link dedup and cumulative-ack state.
#[derive(Debug, Default)]
struct LinkReceiver {
    /// Every rid `< cum` has been accepted.
    cum: u64,
    /// Accepted rids above `cum` (out-of-order arrivals).
    ooo: BTreeSet<u64>,
}

impl LinkReceiver {
    /// Accept `rid` once: `false` means it was already accepted (a
    /// retransmit or transport duplicate — discard it).
    fn accept(&mut self, rid: u64) -> bool {
        if rid != self.cum {
            return rid > self.cum && self.ooo.insert(rid);
        }
        // In order: advance, then absorb any out-of-order run it closes.
        self.cum += 1;
        while self.ooo.remove(&self.cum) {
            self.cum += 1;
        }
        true
    }
}

/// One receiver's ledger over all of its inbound links, sorted by sender.
#[derive(Debug, Default)]
pub struct ReceiverLedger {
    links: Vec<(usize, LinkReceiver)>,
}

impl ReceiverLedger {
    /// An empty ledger.
    pub fn new() -> ReceiverLedger {
        ReceiverLedger::default()
    }

    /// Accept `(from, rid)` at most once; `false` flags a duplicate.
    pub fn accept(&mut self, from: usize, rid: u64) -> bool {
        let at = match self.links.binary_search_by_key(&from, |&(f, _)| f) {
            Ok(at) => at,
            Err(at) => {
                self.links.insert(at, (from, LinkReceiver::default()));
                at
            }
        };
        self.links[at].1.accept(rid)
    }

    /// Cumulative ack to piggyback towards `from`: every rid below the
    /// returned value has been accepted on that link.
    pub fn cum(&self, from: usize) -> u64 {
        self.links
            .binary_search_by_key(&from, |&(f, _)| f)
            .map_or(0, |at| self.links[at].1.cum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(rto: usize, cap: usize, window: usize) -> ReliableConfig {
        ReliableConfig { rto, cap, window }
    }

    #[test]
    fn register_ack_clears_pending() {
        let mut w: SenderWindow<u32> = SenderWindow::new(1, ReliableConfig::default());
        let r0 = w.register(5, 100, 0);
        let r1 = w.register(5, 101, 0);
        assert_eq!((r0, r1), (0, 1), "rids are per-link monotone from 0");
        assert_eq!(w.in_flight(), 2);
        w.ack(&[(NodeId(5), 1)]);
        assert_eq!(w.in_flight(), 1, "rid 0 cleared by cum 1");
        w.ack(&[(NodeId(5), 2)]);
        assert_eq!(w.in_flight(), 0);
        assert_eq!(w.oldest_unacked(), None);
    }

    #[test]
    fn timers_fire_with_exponential_backoff_and_cap() {
        let mut w: SenderWindow<u32> = SenderWindow::new(0, cfg(2, 8, 64));
        w.register(1, 7, 0);
        // Collect the rounds in which the entry fires over a long horizon.
        let mut fired = Vec::new();
        for round in 0..200 {
            for r in w.due(round) {
                assert_eq!(r.rid, 0);
                assert_eq!(r.item, 7);
                fired.push((round, r.attempt));
            }
        }
        assert!(fired.len() >= 10, "unacked entry must keep firing");
        // Attempts are sequential and gaps never exceed cap + jitter.
        for (i, &(round, attempt)) in fired.iter().enumerate() {
            assert_eq!(attempt as usize, i + 1);
            if i > 0 {
                let gap = round - fired[i - 1].0;
                assert!(gap >= 1 && gap <= 8 + 4, "gap {gap} outside cap+jitter");
            }
        }
        // The first firing uses the base rto (2 + jitter ≤ 1); the gap to
        // the second uses the doubled timeout (4 + jitter ≤ 2).
        assert!(fired[0].0 <= 3, "first retry must use the base rto");
        let first_gap = fired[1].0 - fired[0].0;
        assert!((4..=6).contains(&first_gap), "second retry must back off");
    }

    #[test]
    fn backoff_schedule_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut w: SenderWindow<u32> = SenderWindow::new(seed, cfg(2, 16, 64));
            w.register(1, 7, 0);
            let mut fired = Vec::new();
            for round in 0..100 {
                fired.extend(w.due(round).into_iter().map(|r| (round, r.attempt)));
            }
            fired
        };
        assert_eq!(run(3), run(3), "same seed, same schedule");
        assert_ne!(run(3), run(4), "jitter must be seed-dependent");
    }

    #[test]
    fn window_overflow_drops_oldest() {
        let mut w: SenderWindow<u32> = SenderWindow::new(0, cfg(2, 4, 2));
        w.register(2, 20, 0);
        w.register(1, 10, 0);
        w.register(1, 11, 0);
        w.register(1, 12, 0); // overflows: rid 0 of link 1 dropped from tracking
        assert_eq!(w.in_flight(), 3);
        let due: Vec<(usize, u64)> = w.due(100).iter().map(|r| (r.to, r.rid)).collect();
        assert_eq!(
            due,
            vec![(1, 1), (1, 2), (2, 0)],
            "only link 1's oldest is gone"
        );
    }

    #[test]
    fn due_respects_per_link_independence() {
        let mut w: SenderWindow<u32> = SenderWindow::new(9, cfg(2, 4, 8));
        w.register(1, 10, 0);
        w.register(2, 20, 0);
        w.ack(&[(NodeId(1), 1)]);
        let due: Vec<usize> = w.due(50).iter().map(|r| r.to).collect();
        assert_eq!(due, vec![2], "acked link must not retransmit");
        assert_eq!(w.oldest_unacked(), Some(0));
    }

    #[test]
    fn receiver_ledger_dedups_and_compacts_cum() {
        let mut l = ReceiverLedger::new();
        assert!(l.accept(3, 0));
        assert!(!l.accept(3, 0), "replay of rid 0 is a duplicate");
        assert_eq!(l.cum(3), 1);
        // Out of order: rid 2 before rid 1.
        assert!(l.accept(3, 2));
        assert_eq!(l.cum(3), 1, "gap at rid 1 blocks the cumulative ack");
        assert!(l.accept(3, 1));
        assert_eq!(l.cum(3), 3, "gap filled: cum jumps over the ooo set");
        assert!(!l.accept(3, 2), "late retransmit of rid 2 is a duplicate");
        assert_eq!(l.cum(5), 0, "unseen links ack nothing");
    }

    /// The map-per-link window and ledger the flat layout replaced, kept as
    /// the model the differential property below checks against.
    mod reference {
        use super::super::{timeout, ReliableConfig, Retransmit};
        use std::collections::{BTreeMap, BTreeSet};

        struct Pending<T> {
            rid: u64,
            item: T,
            attempt: u32,
            registered: usize,
            next_retry: usize,
        }

        struct LinkSender<T> {
            next_rid: u64,
            pending: Vec<Pending<T>>,
        }

        pub(super) struct Window<T> {
            seed: u64,
            cfg: ReliableConfig,
            links: BTreeMap<usize, LinkSender<T>>,
        }

        impl<T: Clone> Window<T> {
            pub(super) fn new(seed: u64, cfg: ReliableConfig) -> Window<T> {
                Window {
                    seed,
                    cfg,
                    links: BTreeMap::new(),
                }
            }

            pub(super) fn register(&mut self, to: usize, item: T, round: usize) -> u64 {
                let link = self.links.entry(to).or_insert(LinkSender {
                    next_rid: 0,
                    pending: Vec::new(),
                });
                let rid = link.next_rid;
                link.next_rid += 1;
                if link.pending.len() >= self.cfg.window {
                    link.pending.remove(0);
                }
                link.pending.push(Pending {
                    rid,
                    item,
                    attempt: 1,
                    registered: round,
                    next_retry: round + timeout(self.seed, self.cfg, rid, 1),
                });
                rid
            }

            pub(super) fn ack(&mut self, to: usize, cum: u64) {
                if let Some(link) = self.links.get_mut(&to) {
                    link.pending.retain(|p| p.rid >= cum);
                }
            }

            pub(super) fn due(&mut self, round: usize) -> Vec<Retransmit<T>> {
                let mut out = Vec::new();
                for (&to, link) in &mut self.links {
                    for p in &mut link.pending {
                        if p.next_retry <= round {
                            p.attempt += 1;
                            out.push(Retransmit {
                                to,
                                rid: p.rid,
                                item: p.item.clone(),
                                attempt: p.attempt - 1,
                            });
                        }
                    }
                }
                for r in &out {
                    let t = timeout(self.seed, self.cfg, r.rid, r.attempt + 1);
                    let link = self.links.get_mut(&r.to).expect("link of a due entry");
                    let p = link.pending.iter_mut().find(|p| p.rid == r.rid);
                    p.expect("due entry").next_retry = round + t;
                }
                out
            }

            pub(super) fn in_flight(&self) -> usize {
                self.links.values().map(|l| l.pending.len()).sum()
            }

            pub(super) fn oldest_unacked(&self) -> Option<usize> {
                self.links
                    .values()
                    .flat_map(|l| l.pending.iter().map(|p| p.registered))
                    .min()
            }
        }

        #[derive(Default)]
        struct LinkReceiver {
            cum: u64,
            ooo: BTreeSet<u64>,
        }

        #[derive(Default)]
        pub(super) struct Ledger {
            links: BTreeMap<usize, LinkReceiver>,
        }

        impl Ledger {
            pub(super) fn accept(&mut self, from: usize, rid: u64) -> bool {
                let l = self.links.entry(from).or_default();
                if rid < l.cum || !l.ooo.insert(rid) {
                    return false;
                }
                while l.ooo.remove(&l.cum) {
                    l.cum += 1;
                }
                true
            }

            pub(super) fn cum(&self, from: usize) -> u64 {
                self.links.get(&from).map_or(0, |l| l.cum)
            }
        }
    }

    /// The flat window and ledger agree with the map-per-link reference on
    /// random operation sequences: registrations (with small windows so
    /// overflow fires), single and batched acks with arbitrary `cum`,
    /// timer scans at non-decreasing rounds, and in-order, out-of-order and
    /// duplicate accepts.
    #[test]
    fn flat_window_and_ledger_match_the_map_reference() {
        use hinet_rt::check::check;
        use hinet_rt::rng::Rng;
        check("flat_window_and_ledger_match_the_map_reference", 96, |c| {
            let links = c.random_range(1..=40usize);
            let window = *c.pick(&[2, 3, 4, 1024]);
            let cfg = cfg(c.random_range(1..=3), c.random_range(1..=16), window);
            let seed: u64 = c.random();
            let mut flat: SenderWindow<u32> = SenderWindow::new(seed, cfg);
            let mut model = reference::Window::new(seed, cfg);
            let mut ledger = ReceiverLedger::new();
            let mut model_ledger = reference::Ledger::default();
            let mut sent = vec![0u64; links];
            let (mut round, mut item) = (0usize, 0u32);
            for _ in 0..c.random_range(1..=400usize) {
                match c.random_range(0..6u32) {
                    0 | 1 => {
                        let to = c.random_range(0..links);
                        item += 1;
                        let rid = flat.register(to, item, round);
                        assert_eq!(rid, model.register(to, item, round));
                        assert_eq!(rid, sent[to]);
                        sent[to] += 1;
                    }
                    2 => {
                        let mut batch: Vec<(NodeId, u64)> = Vec::new();
                        for (to, &n) in sent.iter().enumerate() {
                            if c.random_bool(0.3) {
                                let cum = c.random_range(0..=n + 1);
                                batch.push((NodeId::from_index(to), cum));
                            }
                        }
                        flat.ack(&batch);
                        for &(to, cum) in &batch {
                            model.ack(to.index(), cum);
                        }
                    }
                    3 => {
                        let to = c.random_range(0..links);
                        let cum = c.random_range(0..=sent[to] + 1);
                        flat.ack(&[(NodeId::from_index(to), cum)]);
                        model.ack(to, cum);
                    }
                    4 => {
                        round += c.random_range(0..=3usize);
                        let key = |r: Retransmit<u32>| (r.to, r.rid, r.attempt, r.item);
                        let got: Vec<_> = flat.due(round).into_iter().map(key).collect();
                        let want: Vec<_> = model.due(round).into_iter().map(key).collect();
                        assert_eq!(got, want, "due lists at round {round}");
                    }
                    _ => {
                        let from = c.random_range(0..links);
                        let cum = model_ledger.cum(from);
                        let rid = match c.random_range(0..3u32) {
                            0 => cum,
                            1 => cum + c.random_range(1..=4u64),
                            _ => c.random_range(0..=cum + 4),
                        };
                        assert_eq!(ledger.accept(from, rid), model_ledger.accept(from, rid));
                        assert_eq!(ledger.cum(from), model_ledger.cum(from));
                    }
                }
                assert_eq!(flat.in_flight(), model.in_flight());
                assert_eq!(flat.oldest_unacked(), model.oldest_unacked());
            }
            for from in 0..=links {
                assert_eq!(ledger.cum(from), model_ledger.cum(from));
            }
        });
    }
}
