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
//!   the oldest (most-retried) entry and counts it.
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

use hinet_rt::rng::mix;
use std::collections::{BTreeMap, BTreeSet};

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
    /// dropped from tracking.
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

/// One unacked envelope awaiting its ack or retransmit timer.
#[derive(Clone, Debug)]
struct Pending<T> {
    rid: u64,
    item: T,
    attempt: u32,
    registered: usize,
    next_retry: usize,
}

/// Sender-side per-link state: the next rid and the pending queue.
#[derive(Debug)]
struct LinkSender<T> {
    next_rid: u64,
    pending: Vec<Pending<T>>,
}

// Manual impl: `#[derive(Default)]` would demand `T: Default`, which the
// payload types carried here do not (and need not) provide.
impl<T> Default for LinkSender<T> {
    fn default() -> LinkSender<T> {
        LinkSender {
            next_rid: 0,
            pending: Vec::new(),
        }
    }
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
#[derive(Debug)]
pub struct SenderWindow<T> {
    seed: u64,
    cfg: ReliableConfig,
    links: BTreeMap<usize, LinkSender<T>>,
    /// Pending entries dropped because a link's window overflowed.
    pub overflow_dropped: u64,
}

impl<T: Clone> SenderWindow<T> {
    /// An empty window. `seed` feeds the jitter stream only — two windows
    /// with the same seed and call sequence behave identically.
    pub fn new(seed: u64, cfg: ReliableConfig) -> SenderWindow<T> {
        SenderWindow {
            seed,
            cfg,
            links: BTreeMap::new(),
            overflow_dropped: 0,
        }
    }

    /// Backed-off timeout (in rounds) for retry `attempt` of `rid`:
    /// `min(cap, rto * 2^(attempt-1))` plus a jitter of up to half the
    /// base, hashed from `(seed, rid, attempt)`.
    fn timeout(&self, rid: u64, attempt: u32) -> usize {
        let shift = (attempt - 1).min(16);
        let base = self.cfg.cap.min(self.cfg.rto.saturating_mul(1 << shift));
        let jitter =
            mix(self.seed, mix(TAG_RELIABLE, mix(rid, u64::from(attempt)))) % (base as u64 / 2 + 1);
        base + jitter as usize
    }

    /// Register a payload sent to `to` in `round`; returns the reliable id
    /// the envelope must carry. The entry stays pending until
    /// [`SenderWindow::ack`] covers it.
    pub fn register(&mut self, to: usize, item: T, round: usize) -> u64 {
        let rid = self.links.entry(to).or_default().next_rid;
        let next_retry = round + self.timeout(rid, 1);
        let link = self.links.get_mut(&to).expect("link just created");
        link.next_rid += 1;
        if link.pending.len() >= self.cfg.window {
            link.pending.remove(0);
            self.overflow_dropped += 1;
        }
        link.pending.push(Pending {
            rid,
            item,
            attempt: 1,
            registered: round,
            next_retry,
        });
        rid
    }

    /// Apply a cumulative ack from `to`: every rid `< cum` is delivered,
    /// so its pending entry is cleared.
    pub fn ack(&mut self, to: usize, cum: u64) {
        if let Some(link) = self.links.get_mut(&to) {
            link.pending.retain(|p| p.rid >= cum);
        }
    }

    /// Drain every pending entry whose timer expired by `round`: each is
    /// returned for re-sending and re-armed with the next backoff step.
    pub fn due(&mut self, round: usize) -> Vec<Retransmit<T>> {
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
        // Re-arm outside the scan so the jitter hash sees the bumped
        // attempt exactly once per firing.
        for r in &out {
            let timeout = self.timeout(r.rid, r.attempt + 1);
            if let Some(link) = self.links.get_mut(&r.to) {
                if let Some(p) = link.pending.iter_mut().find(|p| p.rid == r.rid) {
                    p.next_retry = round + timeout;
                }
            }
        }
        out
    }

    /// Total unacked envelopes across all links.
    pub fn in_flight(&self) -> usize {
        self.links.values().map(|l| l.pending.len()).sum()
    }

    /// Round in which the oldest still-unacked envelope was first sent —
    /// `None` when nothing is pending. Feeds the stall watchdog's
    /// "oldest unacked envelope age" diagnostic.
    pub fn oldest_unacked(&self) -> Option<usize> {
        self.links
            .values()
            .flat_map(|l| l.pending.iter().map(|p| p.registered))
            .min()
    }
}

/// Receiver-side per-link dedup and cumulative-ack state.
#[derive(Debug, Default)]
struct LinkReceiver {
    /// Every rid `< cum` has been accepted.
    cum: u64,
    /// Accepted rids at or above `cum` (out-of-order arrivals).
    ooo: BTreeSet<u64>,
}

impl LinkReceiver {
    /// Accept `rid` once: `false` means it was already accepted (a
    /// retransmit or transport duplicate — discard it).
    fn accept(&mut self, rid: u64) -> bool {
        if rid < self.cum || !self.ooo.insert(rid) {
            return false;
        }
        while self.ooo.remove(&self.cum) {
            self.cum += 1;
        }
        true
    }
}

/// One receiver's ledger over all of its inbound links.
#[derive(Debug, Default)]
pub struct ReceiverLedger {
    links: BTreeMap<usize, LinkReceiver>,
}

impl ReceiverLedger {
    /// An empty ledger.
    pub fn new() -> ReceiverLedger {
        ReceiverLedger::default()
    }

    /// Accept `(from, rid)` at most once; `false` flags a duplicate.
    pub fn accept(&mut self, from: usize, rid: u64) -> bool {
        self.links.entry(from).or_default().accept(rid)
    }

    /// Cumulative ack to piggyback towards `from`: every rid below the
    /// returned value has been accepted on that link.
    pub fn cum(&self, from: usize) -> u64 {
        self.links.get(&from).map_or(0, |l| l.cum)
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
        w.ack(5, 1);
        assert_eq!(w.in_flight(), 1, "rid 0 cleared by cum 1");
        w.ack(5, 2);
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
    fn window_overflow_drops_oldest_and_counts() {
        let mut w: SenderWindow<u32> = SenderWindow::new(0, cfg(2, 4, 2));
        w.register(1, 10, 0);
        w.register(1, 11, 0);
        w.register(1, 12, 0); // overflows: rid 0 dropped from tracking
        assert_eq!(w.in_flight(), 2);
        assert_eq!(w.overflow_dropped, 1);
        let rids: Vec<u64> = w.due(100).iter().map(|r| r.rid).collect();
        assert_eq!(rids, vec![1, 2], "the oldest entry is gone");
    }

    #[test]
    fn due_respects_per_link_independence() {
        let mut w: SenderWindow<u32> = SenderWindow::new(9, cfg(2, 4, 8));
        w.register(1, 10, 0);
        w.register(2, 20, 0);
        w.ack(1, 1);
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
}
