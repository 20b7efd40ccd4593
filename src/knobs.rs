//! The scenario knob table: one row per [`Scenario`] field.
//!
//! A row declares everything the rest of the program needs to know about
//! one knob: its CLI flag and help text, its scenario-file and trace-meta
//! keys, its value codec (the [`Field`] variant), when it may be omitted
//! ([`Rule`]), its bounds, and the fuzzer's mutation operator. The
//! scenario builders ([`Scenario::from_flags_over`],
//! [`Scenario::from_meta`], [`Scenario::stamp_meta`],
//! [`crate::scenario::ScenarioFile`]), the per-knob half of
//! [`Scenario::validate`], the `hinet run`/`hinet trace` flag tables and
//! the fuzzer's mutator and shrinker are all loops over [`KNOBS`].
//!
//! Adding a knob is one `Scenario` field plus one row here (plus
//! [`Scenario::fault_plan`] wiring for a fault, and a rule in
//! [`Scenario::validate`] if it constrains another knob).

use crate::scenario::{
    crash_spec_string, parse_crash_spec, parse_partition_spec, partition_spec_string, Scenario,
    ALGORITHMS, DYNAMICS, RETRANSMIT_ALGORITHMS,
};
use hinet_rt::flags::{flag, FlagSet, FlagSpec};
use hinet_rt::rng::{Rng, SliceRandom, Xoshiro256StarStar};
use hinet_sim::engine::ExecMode;
use hinet_sim::fault::Partition;
use std::fmt::Display;
use std::str::FromStr;

/// Ceiling of `n` and `theta`, and of `hinet audit --n`.
pub const MAX_NODES: u64 = 1_000_000;
/// Ceiling of `k`.
pub const MAX_TOKENS: u64 = 1_000_000;
/// Ceiling of `alpha` and `l`: with `n` and `k` at theirs, `4n + 4T`
/// stays under [`MAX_ROUNDS`].
pub const MAX_PHASE_FACTOR: u64 = 1_000;
/// Ceiling of every round count (`budget`, `down_rounds`, `max_delay`,
/// `stall_rounds`), and of `hinet audit --rounds`.
pub const MAX_ROUNDS: u64 = 100_000_000;
/// Ceiling of the packed token state [`Scenario::validate`] admits, in
/// bits: `n·k`, or `n·k²` for `rlnc` (1.25 GB per copy).
pub const MAX_TOKEN_STATE_BITS: u64 = 10_000_000_000;
/// Ceiling of `n` under `emdg` dynamics, whose generator keeps a dense
/// `n(n−1)/2`-byte edge-state table (50 MB at the ceiling).
pub const MAX_EMDG_NODES: u64 = 10_000;

/// Read access to one [`Scenario`] field.
pub type Get<T> = fn(&Scenario) -> &T;
/// Write access to one [`Scenario`] field.
pub type Set<T> = fn(&mut Scenario) -> &mut T;

/// Where a knob lives on [`Scenario`]. The variant fixes the value's
/// codec; the fuzzer's shrinker also takes its step kind from it (numbers
/// move toward the base, lists drop entries, switches reset).
#[derive(Clone, Copy)]
pub enum Field {
    /// A name from a fixed list (`algorithm`, `dynamics`).
    Name(Get<String>, Set<String>, &'static [&'static str]),
    /// A count, in decimal.
    Count(Get<usize>, Set<usize>),
    /// A 64-bit seed, in decimal.
    Seed(Get<u64>, Set<u64>),
    /// A probability in parts per million: an integer in files and meta,
    /// a fraction (`0.05`) on the command line.
    Ppm(Get<u32>, Set<u32>),
    /// A switch: `true`/`false`/`1`/`0` in files and meta, written as
    /// `true` in files and `1` in meta. Its flag is a bare `--name`, which
    /// can only switch it on.
    Switch(Get<bool>, Set<bool>),
    /// Scheduled crashes, `round:node[,..]`.
    Crashes(Get<Vec<(usize, usize)>>, Set<Vec<(usize, usize)>>),
    /// Partition windows, `start:end:cut[,..]`.
    Partitions(Get<Vec<Partition>>, Set<Vec<Partition>>),
    /// The execution mode, `lockstep|event`.
    Mode(Get<ExecMode>, Set<ExecMode>),
}

/// `knob!(name: Variant, "flag", "help")`: the [`Knob`] for
/// `Scenario::name`, keyed `name` in files and meta — an optional knob
/// with no bounds and no mutation until the builder methods add them.
macro_rules! knob {
    ($name:ident: $variant:ident $(($extra:expr))?, $flag:literal, $help:literal) => {
        Knob {
            key: stringify!($name),
            meta: stringify!($name),
            flag: $flag,
            help: $help,
            field: Field::$variant(|sc| &sc.$name, |sc| &mut sc.$name $(, $extra)?),
            rule: Rule::Optional,
            min: 0,
            max: u64::MAX,
            mutation: None,
            slot: None,
        }
    };
}

fn parse_num<T: FromStr>(raw: &str) -> Result<T, String>
where
    T::Err: Display,
{
    raw.parse().map_err(|e: T::Err| e.to_string())
}

impl Field {
    /// The value as written in a scenario file.
    pub fn render(self, sc: &Scenario) -> String {
        match self {
            Field::Name(get, ..) => get(sc).clone(),
            Field::Count(get, _) => get(sc).to_string(),
            Field::Seed(get, _) => get(sc).to_string(),
            Field::Ppm(get, _) => get(sc).to_string(),
            Field::Switch(get, _) => get(sc).to_string(),
            Field::Crashes(get, _) => crash_spec_string(get(sc)),
            Field::Partitions(get, _) => partition_spec_string(get(sc)),
            Field::Mode(get, _) => get(sc).to_string(),
        }
    }

    /// Parse a scenario-file or trace-meta spelling into `sc`.
    pub fn decode(self, sc: &mut Scenario, raw: &str) -> Result<(), String> {
        match self {
            Field::Name(_, set, _) => *set(sc) = raw.to_string(),
            Field::Count(_, set) => *set(sc) = parse_num(raw)?,
            Field::Seed(_, set) => *set(sc) = parse_num(raw)?,
            Field::Ppm(_, set) => *set(sc) = parse_num(raw)?,
            Field::Switch(_, set) => {
                *set(sc) = match raw {
                    "true" | "1" => true,
                    "false" | "0" => false,
                    other => return Err(format!("'{other}' is not a boolean (true/false/1/0)")),
                }
            }
            Field::Crashes(_, set) => *set(sc) = parse_crash_spec(raw)?,
            Field::Partitions(_, set) => *set(sc) = parse_partition_spec(raw)?,
            Field::Mode(_, set) => *set(sc) = raw.parse()?,
        }
        Ok(())
    }

    /// The value of a count, seed or rate as a number.
    pub(crate) fn number(self, sc: &Scenario) -> Option<u64> {
        match self {
            Field::Count(get, _) => Some(*get(sc) as u64),
            Field::Seed(get, _) => Some(*get(sc)),
            Field::Ppm(get, _) => Some(*get(sc) as u64),
            _ => None,
        }
    }

    /// Set a count, seed or rate from a number in its range.
    ///
    /// # Panics
    /// Panics on the other variants.
    pub(crate) fn set_number(self, sc: &mut Scenario, value: u64) {
        match self {
            Field::Count(_, set) => *set(sc) = value as usize,
            Field::Seed(_, set) => *set(sc) = value,
            Field::Ppm(_, set) => *set(sc) = value as u32,
            _ => panic!("set_number on a non-numeric knob"),
        }
    }
}

/// When a knob is written to scenario files and stamped into trace meta.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// Always written and stamped; reading fails without it.
    Required,
    /// Written and stamped only when it differs from
    /// [`Scenario::defaults`]; absent means the default.
    Optional,
    /// The round budget: always written to files, stamped into meta (last)
    /// only when it differs from the derived `4n + 4T`; absent meta means
    /// derived.
    Budget,
    /// Written to files when non-default but never stamped by the scenario
    /// (the event driver stamps `mode` itself); read back from either.
    Unstamped,
}

/// A fuzz mutation operator.
#[derive(Clone, Copy)]
pub enum Mutation {
    /// Draw a number uniformly from `lo..=hi`.
    Uniform(u64, u64),
    /// Pick a number uniformly from a menu.
    Menu(&'static [u64]),
    /// A knob-specific operator on `(mutant, stream, base)`: draws that
    /// depend on other knobs, or fix-ups that keep the mutant valid.
    Custom(fn(&mut Scenario, &mut Xoshiro256StarStar, &Scenario)),
}

/// One scenario knob; see the module docs.
#[derive(Clone, Copy)]
pub struct Knob {
    /// Scenario-file key.
    pub key: &'static str,
    /// Trace-meta key (the file key, except `algorithm` → `scenario`,
    /// which keeps it apart from the runner's own `algorithm` label).
    pub meta: &'static str,
    /// CLI flag name, without the leading `--`.
    pub flag: &'static str,
    /// One-line flag help.
    pub help: &'static str,
    /// Storage and codec.
    pub field: Field,
    /// Omission rule.
    pub rule: Rule,
    /// Lower bound of a count (0 = none).
    pub min: u64,
    /// Upper bound of a count (`u64::MAX` = none): sizes are bounded
    /// before anything is allocated for them.
    pub max: u64,
    /// Mutation operator, used by the fuzzer and the property tests.
    pub mutation: Option<Mutation>,
    /// The fuzzer's draw slot: `hinet fuzz` picks an operator by drawing
    /// a slot uniformly, so slots fix what a campaign seed does. Rows
    /// without one are mutated only by the property tests.
    pub slot: Option<usize>,
}

impl Knob {
    const fn rule(self, rule: Rule) -> Knob {
        Knob { rule, ..self }
    }

    const fn within(self, min: u64, max: u64) -> Knob {
        Knob { min, max, ..self }
    }

    const fn mutate(self, mutation: Mutation) -> Knob {
        Knob {
            mutation: Some(mutation),
            ..self
        }
    }

    const fn fuzz(self, slot: usize, mutation: Mutation) -> Knob {
        Knob {
            slot: Some(slot),
            ..self.mutate(mutation)
        }
    }

    /// The knob's CLI flag.
    pub(crate) fn flag_spec(&self) -> FlagSpec {
        flag(
            self.flag,
            !matches!(self.field, Field::Switch(..)),
            self.help,
        )
    }

    /// Apply the knob's flag, when given, over `sc`.
    pub(crate) fn apply_flag(&self, sc: &mut Scenario, flags: &FlagSet) -> Result<(), String> {
        let name = self.flag;
        match (self.field, flags.get(name)) {
            (Field::Switch(_, set), _) if flags.has(name) => *set(sc) = true,
            (Field::Ppm(_, set), Some(_)) => {
                *set(sc) = fraction_to_ppm(name, flags.parsed(name, 0.0f64)?)?
            }
            (field, Some(raw)) => field
                .decode(sc, raw)
                .map_err(|e| format!("--{name}: cannot parse '{raw}': {e}"))?,
            _ => {}
        }
        Ok(())
    }

    /// Whether `sc` holds the knob's default: its value in
    /// [`Scenario::defaults`], or for the budget the derived `4n + 4T`.
    pub(crate) fn is_default(&self, sc: &Scenario) -> bool {
        let default = match self.rule {
            Rule::Budget => sc.derived_budget().to_string(),
            _ => self.field.render(&Scenario::defaults()),
        };
        self.field.render(sc) == default
    }

    /// Whether scenario files carry the knob: always when required (and
    /// the budget), otherwise only when it is not at its default.
    pub(crate) fn in_file(&self, sc: &Scenario) -> bool {
        matches!(self.rule, Rule::Required | Rule::Budget) || !self.is_default(sc)
    }

    /// Whether trace meta carries the knob (see [`Rule`]).
    pub(crate) fn in_meta(&self, sc: &Scenario) -> bool {
        match self.rule {
            Rule::Required => true,
            Rule::Optional | Rule::Budget => !self.is_default(sc),
            Rule::Unstamped => false,
        }
    }

    /// The knob's own range: names from their list, rates at most one
    /// million ppm, counts in [`Knob::min`]`..=`[`Knob::max`].
    pub fn check(&self, sc: &Scenario) -> Result<(), String> {
        match self.field {
            Field::Name(get, _, names) if !names.contains(&get(sc).as_str()) => {
                Err(format!("unknown {} '{}'", self.key, get(sc)))
            }
            Field::Ppm(get, _) if *get(sc) > 1_000_000 => Err(format!(
                "--{} must be a fraction in [0, 1], got {} ppm",
                self.flag,
                get(sc)
            )),
            field if field.number(sc).is_some_and(|v| v < self.min) => {
                Err(format!("--{} must be at least {}", self.flag, self.min))
            }
            field if field.number(sc).is_some_and(|v| v > self.max) => {
                Err(format!("--{} must be at most {}", self.flag, self.max))
            }
            _ => Ok(()),
        }
    }

    /// Apply the knob's mutation operator (none: no change).
    pub fn apply_mutation(&self, sc: &mut Scenario, rng: &mut Xoshiro256StarStar, base: &Scenario) {
        match self.mutation {
            Some(Mutation::Uniform(lo, hi)) => self.field.set_number(sc, rng.random_range(lo..=hi)),
            Some(Mutation::Menu(menu)) => self
                .field
                .set_number(sc, *menu.choose(rng).expect("menus are non-empty")),
            Some(Mutation::Custom(op)) => op(sc, rng, base),
            None => {}
        }
    }
}

/// Parse a probability flag given as a fraction (`0.05` = 5 %) into parts
/// per million.
fn fraction_to_ppm(name: &str, value: f64) -> Result<u32, String> {
    if !(0.0..=1.0).contains(&value) || !value.is_finite() {
        return Err(format!(
            "--{name} must be a fraction in [0, 1], got {value}"
        ));
    }
    Ok((value * 1_000_000.0).round() as u32)
}

use Mutation::{Custom, Menu, Uniform};
use Rule::{Budget, Required, Unstamped};

/// Every scenario knob, in scenario-file and trace-meta order (meta puts
/// the budget last; see [`Rule::Budget`]). Fault-rate menus include 0 so
/// mutation can also remove a fault.
pub const KNOBS: &[Knob] = &[
    Knob {
        meta: "scenario",
        ..knob!(algorithm: Name(ALGORITHMS), "algorithm", "algorithm to run [alg1]").rule(Required)
    },
    knob!(dynamics: Name(DYNAMICS), "dynamics", "dynamics model [hinet]").rule(Required),
    knob!(n: Count, "n", "nodes [100]")
        .rule(Required)
        .within(1, MAX_NODES)
        .fuzz(0, Uniform(8, 40)),
    knob!(k: Count, "k", "tokens [8]")
        .rule(Required)
        .within(1, MAX_TOKENS)
        .fuzz(1, Uniform(1, 6)),
    knob!(alpha: Count, "alpha", "progress coefficient [5]")
        .rule(Required)
        .within(1, MAX_PHASE_FACTOR)
        .fuzz(2, Uniform(1, 4)),
    knob!(l: Count, "l", "hop bound [2]")
        .rule(Required)
        .within(1, MAX_PHASE_FACTOR)
        .fuzz(3, Uniform(1, 3)),
    knob!(theta: Count, "theta", "head-capable pool [n/3]")
        .rule(Required)
        .within(1, MAX_NODES)
        .fuzz(4, Custom(theta_up_to_n)),
    knob!(seed: Seed, "seed", "RNG seed [42]")
        .rule(Required)
        .fuzz(5, Uniform(0, 1023)),
    knob!(budget: Count, "budget", "round budget [4n+4T]")
        .rule(Budget)
        .within(1, MAX_ROUNDS)
        .fuzz(15, Custom(budget_up_to_base_default)),
    knob!(loss_ppm: Ppm, "loss", "per-delivery drop probability, fraction [0]")
        .fuzz(7, Menu(&[0, 20_000, 50_000, 100_000, 250_000, 500_000])),
    knob!(crash_ppm: Ppm, "crash-rate", "per-node per-round crash hazard, fraction [0]")
        .fuzz(8, Menu(&[0, 5_000, 20_000, 100_000])),
    knob!(crash_at: Crashes, "crash-at", "scheduled crashes, round:node[,..]")
        .fuzz(9, Custom(add_early_crash)),
    knob!(target_heads: Switch, "target-heads", "hazard crashes only hit current heads")
        .fuzz(11, Custom(toggle_target_heads)),
    knob!(fault_seed: Seed, "fault-seed", "fault decision seed [0]").fuzz(6, Uniform(0, 1023)),
    knob!(retransmit: Switch, "retransmit", "HiNet algorithms recover via retransmission")
        .fuzz(12, Custom(toggle_retransmit)),
    knob!(durable_tokens: Switch, "durable-tokens", "accumulated tokens survive crashes")
        .fuzz(13, Custom(toggle_durable_tokens)),
    knob!(partitions: Partitions, "partition", "sever links across a cut, start:end:cut[,..]")
        .fuzz(10, Custom(add_early_partition)),
    knob!(down_rounds: Count, "down-rounds", "rounds a hazard-crashed node stays down [1]")
        .within(1, MAX_ROUNDS)
        .fuzz(14, Uniform(1, 4)),
    knob!(delay_ppm: Ppm, "delay", "per-delivery delay probability, fraction [0]")
        .fuzz(16, Custom(draw_delay)),
    knob!(max_delay: Count, "max-delay", "max rounds a delayed delivery is held [1]")
        .within(1, MAX_ROUNDS)
        .fuzz(17, Custom(draw_max_delay)),
    knob!(dup_ppm: Ppm, "dup", "per-delivery duplication probability, fraction [0]")
        .fuzz(18, Menu(&[0, 10_000, 50_000, 150_000])),
    knob!(reorder: Switch, "reorder", "seeded per-round inbox reordering")
        .fuzz(19, Custom(|sc, _, _| sc.reorder = !sc.reorder)),
    knob!(reliable: Switch, "reliable", "generalised ack/timeout/backoff recovery layer")
        .fuzz(20, Custom(toggle_reliable)),
    knob!(stall_rounds: Count, "stall-rounds", "event-mode stall watchdog threshold, 0 = off [0]")
        .within(0, MAX_ROUNDS)
        .mutate(Uniform(0, 64)),
    knob!(mode: Mode, "mode", "execution mode, lockstep|event [lockstep]")
        .rule(Unstamped)
        .mutate(Custom(toggle_mode)),
];

// The knob-specific mutation operators. Fix-ups keep the mutant valid:
// a switch that needs a fault to matter brings a small one along.

fn theta_up_to_n(sc: &mut Scenario, rng: &mut Xoshiro256StarStar, _: &Scenario) {
    sc.theta = rng.random_range(1..=sc.n);
}

/// Up to the base's `4n + 4T`: a k/α/L mutation in the same step does not
/// move the bound.
fn budget_up_to_base_default(sc: &mut Scenario, rng: &mut Xoshiro256StarStar, base: &Scenario) {
    sc.budget = rng.random_range(2..=4 * sc.n + 4 * base.t());
}

/// Scheduled faults (crash rounds, partition starts) are drawn from this
/// many opening rounds so they land while the run is still in flight —
/// healthy scenarios complete in well under this many rounds, so a
/// uniform draw over the whole budget would mostly schedule no-ops.
const EARLY_ROUNDS: usize = 12;

fn add_early_crash(sc: &mut Scenario, rng: &mut Xoshiro256StarStar, _: &Scenario) {
    let entry = (
        rng.random_range(0..sc.budget.min(EARLY_ROUNDS)),
        rng.random_range(0..sc.n),
    );
    if !sc.crash_at.contains(&entry) {
        sc.crash_at.push(entry);
    }
}

fn add_early_partition(sc: &mut Scenario, rng: &mut Xoshiro256StarStar, _: &Scenario) {
    let start = rng.random_range(0..sc.budget.min(EARLY_ROUNDS));
    let len = rng.random_range(1..=sc.budget);
    let cut = rng.random_range(1..sc.n);
    let end = start + len;
    sc.partitions.push(Partition { start, end, cut });
}

fn toggle_target_heads(sc: &mut Scenario, _: &mut Xoshiro256StarStar, _: &Scenario) {
    sc.target_heads = !sc.target_heads;
    if sc.target_heads && sc.crash_ppm == 0 {
        sc.crash_ppm = 5_000;
    }
}

fn toggle_retransmit(sc: &mut Scenario, _: &mut Xoshiro256StarStar, _: &Scenario) {
    if RETRANSMIT_ALGORITHMS.contains(&sc.algorithm.as_str()) {
        sc.retransmit = !sc.retransmit;
    }
}

fn toggle_durable_tokens(sc: &mut Scenario, _: &mut Xoshiro256StarStar, _: &Scenario) {
    sc.durable_tokens = !sc.durable_tokens;
    if sc.durable_tokens && sc.crash_ppm == 0 && sc.crash_at.is_empty() {
        sc.crash_ppm = 5_000;
    }
}

fn draw_delay(sc: &mut Scenario, rng: &mut Xoshiro256StarStar, _: &Scenario) {
    sc.delay_ppm = *[0, 20_000, 50_000, 150_000]
        .choose(rng)
        .expect("menu is non-empty");
    if sc.delay_ppm > 0 && sc.max_delay == 1 {
        sc.max_delay = rng.random_range(1..=4);
    }
}

fn draw_max_delay(sc: &mut Scenario, rng: &mut Xoshiro256StarStar, _: &Scenario) {
    sc.max_delay = rng.random_range(1..=4);
    if sc.max_delay > 1 && sc.delay_ppm == 0 {
        sc.delay_ppm = 20_000;
    }
}

fn toggle_reliable(sc: &mut Scenario, _: &mut Xoshiro256StarStar, _: &Scenario) {
    sc.reliable = !sc.reliable;
    if sc.reliable && sc.loss_ppm == 0 && sc.delay_ppm == 0 {
        sc.loss_ppm = 20_000;
    }
}

fn toggle_mode(sc: &mut Scenario, _: &mut Xoshiro256StarStar, _: &Scenario) {
    sc.mode = match sc.mode {
        ExecMode::Lockstep => ExecMode::Event,
        ExecMode::Event => ExecMode::Lockstep,
    };
}

/// The knobs `hinet fuzz` mutates, in draw-slot order.
pub(crate) fn fuzzed() -> Vec<&'static Knob> {
    let mut rows: Vec<&Knob> = KNOBS.iter().filter(|k| k.slot.is_some()).collect();
    rows.sort_by_key(|k| k.slot);
    rows
}

/// The scenario flags `hinet run` and `hinet trace` share: `--scenario
/// FILE`, then one flag per knob.
pub fn scenario_flags() -> Vec<FlagSpec> {
    let file = flag(
        "scenario",
        true,
        "load a hinet-scenario/v1 FILE as the base scenario",
    );
    std::iter::once(file)
        .chain(KNOBS.iter().map(Knob::flag_spec))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_and_flags_are_unique_and_slots_are_dense() {
        for (i, a) in KNOBS.iter().enumerate() {
            for b in &KNOBS[..i] {
                assert!(a.key != b.key && a.meta != b.meta && a.flag != b.flag);
            }
        }
        let slots: Vec<usize> = fuzzed().iter().filter_map(|k| k.slot).collect();
        assert_eq!(slots, (0..slots.len()).collect::<Vec<_>>());
        // Uniform draws and menus set numbers, so their rows must hold one.
        let numeric = |k: &&Knob| k.field.number(&Scenario::defaults()).is_some();
        for knob in KNOBS.iter().filter(|k| !numeric(k)) {
            assert!(
                matches!(knob.mutation, None | Some(Mutation::Custom(_))),
                "{}",
                knob.key
            );
        }
    }

    #[test]
    fn the_derived_budget_stays_within_its_ceiling() {
        let mut sc = Scenario::defaults();
        sc.n = MAX_NODES as usize;
        sc.k = MAX_TOKENS as usize;
        sc.alpha = MAX_PHASE_FACTOR as usize;
        sc.l = MAX_PHASE_FACTOR as usize;
        assert!(sc.derived_budget() as u64 <= MAX_ROUNDS);
    }

    #[test]
    fn defaults_are_default_and_pass_their_own_checks() {
        let sc = Scenario::defaults();
        for knob in KNOBS {
            assert!(knob.is_default(&sc), "{}", knob.key);
            knob.check(&sc).unwrap();
            let mut back = Scenario::defaults();
            knob.field
                .decode(&mut back, &knob.field.render(&sc))
                .unwrap();
            assert_eq!(back, sc, "{} must decode its own rendering", knob.key);
        }
    }
}
