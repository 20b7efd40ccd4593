//! Deterministic, seeded fault-injection plane.
//!
//! The paper's correctness theorems assume perfect per-round delivery and a
//! stable head backbone. A [`FaultPlan`] lets the engine violate those
//! assumptions *deterministically*: every decision (drop this message?
//! crash this node?) is a pure function of `(fault_seed, round, ids)`
//! hashed through [`hinet_rt::rng::mix`], so the same plan replays exactly
//! — byte-for-byte identical traces for the same `--fault-seed` — and a
//! zero-fault plan is indistinguishable from no plan at all.
//!
//! Four fault classes are modelled:
//!
//! * **Message loss** — each delivery is dropped independently with a fixed
//!   probability, stored as parts-per-million ([`FaultPlan::loss_ppm`]) so
//!   plans stay `Eq`-comparable and hashable.
//! * **Crash/restart** — nodes crash on an explicit schedule
//!   ([`FaultPlan::crash_at`]) or per-round hazard rate
//!   ([`FaultPlan::crash_ppm`]); a crashed node loses its volatile protocol
//!   state (its initial tokens survive, and its *learned* tokens survive
//!   only when [`FaultPlan::durable_tokens`] is set), stays silent for
//!   [`FaultPlan::down_rounds`] rounds, then restarts fresh.
//! * **Head assassination** — [`FaultPlan::target_heads`] restricts the
//!   hazard-rate crashes to nodes currently serving as cluster heads, the
//!   worst case for the (T, L)-HiNet backbone.
//! * **Partitions** — [`Partition`] windows cut every link between two id
//!   ranges for a span of rounds.
//! * **Delay** — each surviving delivery is independently held back for
//!   `1..=max_delay` rounds with probability [`FaultPlan::delay_ppm`]; the
//!   held rounds are part of the hash stream, so replays are exact.
//! * **Duplication** — each surviving delivery is independently cloned with
//!   probability [`FaultPlan::dup_ppm`]; the receive plane deduplicates and
//!   counts the discards.
//! * **Reorder** — when [`FaultPlan::reorder`] is set, every node's
//!   per-round inbox is permuted by a seeded Fisher–Yates shuffle before
//!   the protocol sees it.
//!
//! ```
//! use hinet_sim::fault::FaultPlan;
//!
//! let plan = FaultPlan::new(7).with_loss_ppm(100_000); // 10 % loss, seed 7
//! // Decisions are pure: the same (round, from, to) always answers the same.
//! assert_eq!(
//!     plan.drops_message(3, 1, 2),
//!     FaultPlan::new(7).with_loss_ppm(100_000).drops_message(3, 1, 2),
//! );
//! assert!(!FaultPlan::none().drops_message(3, 1, 2));
//! ```

use hinet_rt::rng::mix;

/// Domain-separation tags so the loss stream and the crash stream are
/// decorrelated even for the same `(round, node)` arguments.
const TAG_LOSS: u64 = 0x4c4f_5353; // "LOSS"
const TAG_CRASH: u64 = 0x4352_5348; // "CRSH"
const TAG_DELAY: u64 = 0x444c_4159; // "DLAY"
const TAG_DUP: u64 = 0x4455_5053; // "DUPS"
const TAG_ORDER: u64 = 0x4f52_4452; // "ORDR"

/// One parts-per-million unit of the `u64` hash space. Probabilities are
/// compared as `hash < ppm * PPM_UNIT`, which is exact for every ppm value
/// up to a quantisation error of `< 1e-13` (the truncated remainder of
/// `u64::MAX / 1e6`).
const PPM_UNIT: u64 = u64::MAX / 1_000_000;

/// A network partition: every link between the low id range `[0, cut)` and
/// the high range `[cut, n)` is severed for rounds `start..end`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Partition {
    /// First round of the window (inclusive).
    pub start: usize,
    /// End of the window (exclusive).
    pub end: usize,
    /// Nodes with index `< cut` are on one side, the rest on the other.
    pub cut: usize,
}

impl Partition {
    /// Whether this window severs the `(a, b)` link in `round`.
    fn severs(&self, round: usize, a: usize, b: usize) -> bool {
        round >= self.start && round < self.end && ((a < self.cut) != (b < self.cut))
    }
}

/// A deterministic fault-injection plan.
///
/// Built with chained constructors from a seed; all fields are plain
/// integers so the plan is `Eq`/`Hash` and can live inside scenario keys.
/// See the [module docs](self) for the fault taxonomy.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct FaultPlan {
    /// Seed of the fault decision streams (independent from the
    /// topology/protocol seeds — changing it never perturbs the network).
    pub seed: u64,
    /// Per-delivery message-loss probability in parts per million.
    pub loss_ppm: u32,
    /// Per-node per-round crash hazard in parts per million.
    pub crash_ppm: u32,
    /// Explicit crash schedule: `(round, node)` pairs.
    pub crash_at: Vec<(usize, usize)>,
    /// How many rounds a crashed node stays down before restarting
    /// (minimum 1: the crash round itself).
    pub down_rounds: usize,
    /// Restrict hazard-rate crashes to nodes currently serving as cluster
    /// heads ("head assassination"). Scheduled crashes ignore this.
    pub target_heads: bool,
    /// Whether a crashed node's *learned* tokens survive the crash. Its
    /// initial (locally generated) tokens always survive.
    pub durable_tokens: bool,
    /// Partition windows.
    pub partitions: Vec<Partition>,
    /// Per-delivery delay probability in parts per million: a delayed
    /// delivery is held for `1..=max_delay` rounds instead of arriving in
    /// the round it was sent.
    pub delay_ppm: u32,
    /// Upper bound (inclusive, in rounds, minimum 1) on how long a delayed
    /// delivery is held.
    pub max_delay: usize,
    /// Per-delivery duplication probability in parts per million: a
    /// duplicated delivery arrives twice and the receive plane discards the
    /// clone.
    pub dup_ppm: u32,
    /// Permute every node's per-round inbox with a seeded shuffle before
    /// the protocol receives it.
    pub reorder: bool,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The empty plan: no faults, ever. [`FaultPlan::is_trivial`] is `true`.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            loss_ppm: 0,
            crash_ppm: 0,
            crash_at: Vec::new(),
            down_rounds: 1,
            target_heads: false,
            durable_tokens: false,
            partitions: Vec::new(),
            delay_ppm: 0,
            max_delay: 1,
            dup_ppm: 0,
            reorder: false,
        }
    }

    /// A plan with the given fault seed and no faults enabled yet.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::none()
        }
    }

    /// Set the message-loss probability in parts per million
    /// (`100_000` = 10 %; values ≥ 1 000 000 drop everything).
    pub fn with_loss_ppm(mut self, ppm: u32) -> Self {
        self.loss_ppm = ppm;
        self
    }

    /// Set the per-node per-round crash hazard in parts per million.
    pub fn with_crash_ppm(mut self, ppm: u32) -> Self {
        self.crash_ppm = ppm;
        self
    }

    /// Add a scheduled crash of `node` at `round`.
    pub fn with_crash_at(mut self, round: usize, node: usize) -> Self {
        self.crash_at.push((round, node));
        self
    }

    /// Set how many rounds a crashed node stays down (clamped to ≥ 1).
    pub fn with_down_rounds(mut self, rounds: usize) -> Self {
        self.down_rounds = rounds.max(1);
        self
    }

    /// Restrict hazard-rate crashes to current cluster heads.
    pub fn with_target_heads(mut self, target: bool) -> Self {
        self.target_heads = target;
        self
    }

    /// Set whether learned tokens survive a crash.
    pub fn with_durable_tokens(mut self, durable: bool) -> Self {
        self.durable_tokens = durable;
        self
    }

    /// Add a partition window.
    pub fn with_partition(mut self, p: Partition) -> Self {
        self.partitions.push(p);
        self
    }

    /// Set the per-delivery delay probability in parts per million.
    pub fn with_delay_ppm(mut self, ppm: u32) -> Self {
        self.delay_ppm = ppm;
        self
    }

    /// Set the maximum delivery delay in rounds (clamped to ≥ 1).
    pub fn with_max_delay(mut self, rounds: usize) -> Self {
        self.max_delay = rounds.max(1);
        self
    }

    /// Set the per-delivery duplication probability in parts per million.
    pub fn with_dup_ppm(mut self, ppm: u32) -> Self {
        self.dup_ppm = ppm;
        self
    }

    /// Enable (or disable) seeded inbox reordering.
    pub fn with_reorder(mut self, reorder: bool) -> Self {
        self.reorder = reorder;
        self
    }

    /// Whether this plan can never inject a fault — the engine skips all
    /// fault bookkeeping for trivial plans, so they are bit-identical to
    /// running without a plan.
    pub fn is_trivial(&self) -> bool {
        self.loss_ppm == 0
            && self.crash_ppm == 0
            && self.crash_at.is_empty()
            && self.partitions.is_empty()
            && self.delay_ppm == 0
            && self.dup_ppm == 0
            && !self.reorder
    }

    /// Whether the `(from, to)` link is severed by a partition in `round`.
    pub fn partitioned(&self, round: usize, from: usize, to: usize) -> bool {
        self.partitions.iter().any(|p| p.severs(round, from, to))
    }

    /// Whether the delivery `from → to` in `round` is lost — either to a
    /// partition window or to the seeded random-loss stream. Pure function
    /// of the plan and its arguments.
    pub fn drops_message(&self, round: usize, from: usize, to: usize) -> bool {
        if self.partitioned(round, from, to) {
            return true;
        }
        if self.loss_ppm == 0 {
            return false;
        }
        if self.loss_ppm >= 1_000_000 {
            return true;
        }
        let h = mix(
            self.seed,
            mix(TAG_LOSS, mix(round as u64, mix(from as u64, to as u64))),
        );
        h < u64::from(self.loss_ppm) * PPM_UNIT
    }

    /// Whether `node` crashes at the start of `round` — scheduled crashes
    /// always fire; hazard-rate crashes fire per the seeded stream, gated
    /// on `is_head` when [`FaultPlan::target_heads`] is set.
    pub fn crashes(&self, round: usize, node: usize, is_head: bool) -> bool {
        if self.crash_at.contains(&(round, node)) {
            return true;
        }
        if self.crash_ppm == 0 || (self.target_heads && !is_head) {
            return false;
        }
        if self.crash_ppm >= 1_000_000 {
            return true;
        }
        let h = mix(self.seed, mix(TAG_CRASH, mix(round as u64, node as u64)));
        h < u64::from(self.crash_ppm) * PPM_UNIT
    }

    /// How many rounds the delivery `from → to` (the `seq`-th payload of
    /// that sender in `round`) is held back: `0` means it arrives on time,
    /// otherwise a value in `1..=max_delay`. Pure function of the plan and
    /// its arguments.
    pub fn delay_of(&self, round: usize, from: usize, to: usize, seq: u32) -> usize {
        if self.delay_ppm == 0 {
            return 0;
        }
        let h = mix(
            self.seed,
            mix(
                TAG_DELAY,
                mix(
                    round as u64,
                    mix(from as u64, mix(to as u64, u64::from(seq))),
                ),
            ),
        );
        if self.delay_ppm < 1_000_000 && h >= u64::from(self.delay_ppm) * PPM_UNIT {
            return 0;
        }
        // Derive the held-rounds count from a second mix so the fire/skip
        // decision and the duration are decorrelated.
        1 + (mix(h, TAG_DELAY) % self.max_delay as u64) as usize
    }

    /// Whether the delivery `from → to` (the `seq`-th payload of that
    /// sender in `round`) is duplicated in flight. Pure function of the
    /// plan and its arguments.
    pub fn duplicates(&self, round: usize, from: usize, to: usize, seq: u32) -> bool {
        if self.dup_ppm == 0 {
            return false;
        }
        if self.dup_ppm >= 1_000_000 {
            return true;
        }
        let h = mix(
            self.seed,
            mix(
                TAG_DUP,
                mix(
                    round as u64,
                    mix(from as u64, mix(to as u64, u64::from(seq))),
                ),
            ),
        );
        h < u64::from(self.dup_ppm) * PPM_UNIT
    }

    /// Permute `items` (node `node`'s inbox for `round`) with the seeded
    /// reorder stream — a Fisher–Yates shuffle whose swaps are pure hash
    /// decisions, so the same `(seed, round, node)` always yields the same
    /// permutation. No-op unless [`FaultPlan::reorder`] is set.
    pub fn shuffle<T>(&self, round: usize, node: usize, items: &mut [T]) {
        if !self.reorder || items.len() < 2 {
            return;
        }
        let key = mix(self.seed, mix(TAG_ORDER, mix(round as u64, node as u64)));
        for i in (1..items.len()).rev() {
            let j = (mix(key, i as u64) % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_plan_never_faults() {
        let plan = FaultPlan::none();
        assert!(plan.is_trivial());
        for round in 0..50 {
            for a in 0..10 {
                for b in 0..10 {
                    assert!(!plan.drops_message(round, a, b));
                }
                assert!(!plan.crashes(round, a, true));
            }
        }
    }

    #[test]
    fn decisions_are_pure_and_seed_dependent() {
        let a = FaultPlan::new(1).with_loss_ppm(500_000);
        let b = FaultPlan::new(1).with_loss_ppm(500_000);
        let c = FaultPlan::new(2).with_loss_ppm(500_000);
        let mut differs = false;
        for round in 0..100 {
            assert_eq!(a.drops_message(round, 0, 1), b.drops_message(round, 0, 1));
            differs |= a.drops_message(round, 0, 1) != c.drops_message(round, 0, 1);
        }
        assert!(differs, "different seeds must give different streams");
    }

    #[test]
    fn loss_rate_is_approximately_ppm() {
        let plan = FaultPlan::new(9).with_loss_ppm(250_000); // 25 %
        let mut dropped = 0u32;
        let total = 10_000u32;
        for i in 0..total {
            if plan.drops_message(i as usize, (i % 37) as usize, (i % 41) as usize) {
                dropped += 1;
            }
        }
        let rate = f64::from(dropped) / f64::from(total);
        assert!((0.22..0.28).contains(&rate), "rate {rate} far from 0.25");
    }

    #[test]
    fn extreme_ppm_values_are_exact() {
        let all = FaultPlan::new(3).with_loss_ppm(1_000_000);
        let none = FaultPlan::new(3);
        for i in 0..100 {
            assert!(all.drops_message(i, 0, 1));
            assert!(!none.drops_message(i, 0, 1));
        }
    }

    #[test]
    fn scheduled_crashes_fire_exactly_once() {
        let plan = FaultPlan::new(0).with_crash_at(5, 2);
        assert!(!plan.is_trivial());
        assert!(plan.crashes(5, 2, false));
        assert!(!plan.crashes(5, 3, false));
        assert!(!plan.crashes(4, 2, false));
        assert!(!plan.crashes(6, 2, false));
    }

    #[test]
    fn head_targeting_gates_hazard_but_not_schedule() {
        let plan = FaultPlan::new(11)
            .with_crash_ppm(1_000_000)
            .with_target_heads(true)
            .with_crash_at(3, 7);
        assert!(plan.crashes(0, 0, true), "heads always crash at ppm 1e6");
        assert!(!plan.crashes(0, 0, false), "non-heads spared by targeting");
        assert!(
            plan.crashes(3, 7, false),
            "scheduled crash ignores targeting"
        );
    }

    #[test]
    fn partitions_sever_cross_links_in_window() {
        let plan = FaultPlan::new(0).with_partition(Partition {
            start: 2,
            end: 5,
            cut: 3,
        });
        assert!(plan.drops_message(2, 1, 4), "cross-cut link in window");
        assert!(plan.drops_message(4, 5, 0), "symmetric");
        assert!(!plan.drops_message(5, 1, 4), "window end is exclusive");
        assert!(!plan.drops_message(1, 1, 4), "before window");
        assert!(!plan.drops_message(3, 0, 2), "same side survives");
        assert!(!plan.drops_message(3, 3, 4), "same side survives");
    }

    #[test]
    fn loss_and_crash_streams_are_decorrelated() {
        // Same (round, node) arguments must not force the same answer in
        // both streams — the domain tags split them.
        let plan = FaultPlan::new(5)
            .with_loss_ppm(500_000)
            .with_crash_ppm(500_000);
        let mut differs = false;
        for i in 0..200 {
            differs |= plan.drops_message(i, i, i) != plan.crashes(i, i, true);
        }
        assert!(differs);
    }

    #[test]
    fn down_rounds_clamped_to_one() {
        assert_eq!(FaultPlan::new(0).with_down_rounds(0).down_rounds, 1);
        assert_eq!(FaultPlan::new(0).with_down_rounds(4).down_rounds, 4);
    }

    #[test]
    fn delay_dup_reorder_make_a_plan_non_trivial() {
        assert!(FaultPlan::none().is_trivial());
        assert!(!FaultPlan::new(0).with_delay_ppm(1).is_trivial());
        assert!(!FaultPlan::new(0).with_dup_ppm(1).is_trivial());
        assert!(!FaultPlan::new(0).with_reorder(true).is_trivial());
        // max_delay alone changes nothing: no delay stream to stretch.
        assert!(FaultPlan::new(0).with_max_delay(5).is_trivial());
    }

    #[test]
    fn delay_is_pure_bounded_and_seed_dependent() {
        let a = FaultPlan::new(1).with_delay_ppm(500_000).with_max_delay(3);
        let b = FaultPlan::new(1).with_delay_ppm(500_000).with_max_delay(3);
        let c = FaultPlan::new(9).with_delay_ppm(500_000).with_max_delay(3);
        let mut fired = false;
        let mut differs = false;
        for r in 0..200 {
            let d = a.delay_of(r, 0, 1, 0);
            assert_eq!(d, b.delay_of(r, 0, 1, 0), "delay stream must be pure");
            assert!(d <= 3, "delay {d} exceeds max_delay");
            fired |= d > 0;
            differs |= d != c.delay_of(r, 0, 1, 0);
        }
        assert!(fired, "50% delay must fire somewhere in 200 rounds");
        assert!(differs, "different seeds must give different delays");
    }

    #[test]
    fn delay_ppm_extremes_are_exact() {
        let always = FaultPlan::new(2)
            .with_delay_ppm(1_000_000)
            .with_max_delay(2);
        let never = FaultPlan::new(2).with_max_delay(2);
        for r in 0..100 {
            let d = always.delay_of(r, 3, 4, 1);
            assert!((1..=2).contains(&d), "ppm 1e6 must always delay");
            assert_eq!(never.delay_of(r, 3, 4, 1), 0);
        }
    }

    #[test]
    fn delay_max_delay_one_holds_exactly_one_round() {
        let plan = FaultPlan::new(7).with_delay_ppm(1_000_000);
        for r in 0..50 {
            assert_eq!(plan.delay_of(r, 0, 1, 0), 1);
        }
    }

    #[test]
    fn duplication_is_pure_and_distinct_per_seq() {
        let plan = FaultPlan::new(4).with_dup_ppm(500_000);
        let mut fired = false;
        let mut seq_differs = false;
        for r in 0..200 {
            assert_eq!(plan.duplicates(r, 0, 1, 0), plan.duplicates(r, 0, 1, 0));
            fired |= plan.duplicates(r, 0, 1, 0);
            seq_differs |= plan.duplicates(r, 0, 1, 0) != plan.duplicates(r, 0, 1, 1);
        }
        assert!(fired);
        assert!(seq_differs, "seq must be part of the dup key");
        assert!(FaultPlan::new(4)
            .with_dup_ppm(1_000_000)
            .duplicates(0, 0, 1, 0));
        assert!(!FaultPlan::new(4).duplicates(0, 0, 1, 0));
    }

    #[test]
    fn shuffle_is_a_pure_permutation_and_gated_on_reorder() {
        let plan = FaultPlan::new(3).with_reorder(true);
        let mut a: Vec<u32> = (0..16).collect();
        let mut b = a.clone();
        plan.shuffle(5, 2, &mut a);
        plan.shuffle(5, 2, &mut b);
        assert_eq!(a, b, "same key must give the same permutation");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..16).collect::<Vec<u32>>(),
            "must be a permutation"
        );
        assert_ne!(
            a, sorted,
            "16 elements all fixed is astronomically unlikely"
        );

        let mut c: Vec<u32> = (0..16).collect();
        plan.shuffle(6, 2, &mut c);
        assert_ne!(a, c, "round must be part of the shuffle key");

        let off = FaultPlan::new(3);
        let mut d: Vec<u32> = (0..16).collect();
        off.shuffle(5, 2, &mut d);
        assert_eq!(d, (0..16).collect::<Vec<u32>>(), "reorder off is a no-op");
    }
}
