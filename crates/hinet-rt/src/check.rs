//! Minimal seeded property-test harness.
//!
//! A property is a closure over a [`CaseCtx`] — a per-case RNG plus draw
//! helpers — that asserts with the ordinary `assert!` family. The runner
//! executes `cases` independently seeded cases; the seed of case `i` is
//! derived deterministically from the property name and `i`, so two
//! consecutive runs (or two machines) execute byte-for-byte identical
//! cases.
//!
//! On failure the harness reports the failing case's seed and the exact
//! command to replay it:
//!
//! ```text
//! property 'alg1_completes_within_theorem1_bound' failed on case 17/32
//! (seed 0x8d33…): assertion failed: report.completed()
//!     re-run just this case with: HINET_CHECK_SEED=0x8d33… cargo test …
//! ```
//!
//! Environment knobs:
//!
//! * `HINET_CHECK_SEED` — hex (`0x…` or bare) or decimal case seed: run the
//!   property once with exactly that seed, without catching the panic, so
//!   backtraces point at the failing assertion.
//! * `HINET_CHECK_CASES` — override the case count of every property (e.g.
//!   a 10× soak in CI).
//!
//! Unlike proptest there is no shrinking: cases are cheap and fully
//! replayable by seed, which in practice localises failures just as fast
//! for the scalar-parameter properties this workspace uses.

use crate::rng::{mix, Rng, SliceRandom, Xoshiro256StarStar};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Per-case context: a deterministic RNG identified by its seed, plus draw
/// helpers. All [`Rng`] methods are available directly on the context.
pub struct CaseCtx {
    seed: u64,
    rng: Xoshiro256StarStar,
}

impl CaseCtx {
    /// Context for one case of `seed`.
    fn from_seed(seed: u64) -> Self {
        CaseCtx {
            seed,
            rng: Xoshiro256StarStar::seed_from_u64(seed),
        }
    }

    /// The case seed (what `HINET_CHECK_SEED` accepts).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A uniformly random element of a non-empty slice — the `prop_oneof`
    /// replacement for enum-valued parameters.
    pub fn pick<'a, T>(&mut self, options: &'a [T]) -> &'a T {
        options
            .choose(&mut self.rng)
            .expect("pick from empty slice")
    }

    /// A vector of `len` draws from `gen`.
    pub fn vec_of<T>(&mut self, len: usize, mut gen: impl FnMut(&mut Self) -> T) -> Vec<T> {
        (0..len).map(|_| gen(self)).collect()
    }
}

impl Rng for CaseCtx {
    fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }
}

/// FNV-1a over the property name: the root of the per-property seed
/// sequence. Deterministic across runs, platforms and compilers.
fn fnv1a(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Seed of case `i` of property `name`.
fn case_seed(name: &str, i: usize) -> u64 {
    mix(fnv1a(name), i as u64)
}

/// Run `cases` seeded cases of a property, reporting the failing seed.
///
/// `name` should be the test function's name — it keys the seed sequence
/// and appears in the failure report.
///
/// # Panics
/// Re-panics on the first failing case with the case index, its seed, the
/// original assertion message and the `HINET_CHECK_SEED` replay command.
pub fn check(name: &str, cases: usize, prop: impl Fn(&mut CaseCtx)) {
    if let Some(seed) = env_seed() {
        eprintln!("HINET_CHECK_SEED set: replaying '{name}' with seed {seed:#018x}");
        // No catch_unwind: let the backtrace point at the assertion.
        prop(&mut CaseCtx::from_seed(seed));
        return;
    }
    let cases = env_cases().unwrap_or(cases).max(1);
    for i in 0..cases {
        let seed = case_seed(name, i);
        run_case(name, i, cases, seed, &prop);
    }
}

fn run_case(name: &str, i: usize, cases: usize, seed: u64, prop: &impl Fn(&mut CaseCtx)) {
    let outcome = catch_unwind(AssertUnwindSafe(|| prop(&mut CaseCtx::from_seed(seed))));
    if let Err(payload) = outcome {
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "<non-string panic payload>".to_owned());
        panic!(
            "property '{name}' failed on case {i}/{cases} (seed {seed:#018x}): {msg}\n    \
             re-run just this case with: HINET_CHECK_SEED={seed:#x} cargo test {name}"
        );
    }
}

fn env_seed() -> Option<u64> {
    let raw = std::env::var("HINET_CHECK_SEED").ok()?;
    let parsed = parse_seed(&raw);
    assert!(
        parsed.is_some(),
        "HINET_CHECK_SEED={raw:?} is neither hex (0x… or bare) nor decimal"
    );
    parsed
}

fn parse_seed(raw: &str) -> Option<u64> {
    let raw = raw.trim();
    if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        return u64::from_str_radix(hex, 16).ok();
    }
    // Bare hex beats decimal for round-tripping reported seeds; all-decimal
    // strings parse identically either way only when < 10, so prefer
    // decimal and fall back to hex.
    raw.parse::<u64>()
        .ok()
        .or_else(|| u64::from_str_radix(raw, 16).ok())
}

fn env_cases() -> Option<usize> {
    let raw = std::env::var("HINET_CHECK_CASES").ok()?;
    let parsed = raw.trim().parse::<usize>();
    assert!(
        parsed.is_ok(),
        "HINET_CHECK_CASES={raw:?} is not a case count"
    );
    parsed.ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_exactly_n_cases() {
        let ran = AtomicUsize::new(0);
        check("runs_exactly_n_cases", 17, |_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        // env overrides only apply when the variables are set; the tier-1
        // run leaves them unset.
        if std::env::var("HINET_CHECK_CASES").is_err() && std::env::var("HINET_CHECK_SEED").is_err()
        {
            assert_eq!(ran.load(Ordering::Relaxed), 17);
        }
    }

    #[test]
    fn case_seeds_are_deterministic_and_distinct() {
        let a: Vec<u64> = (0..32).map(|i| case_seed("some_prop", i)).collect();
        let b: Vec<u64> = (0..32).map(|i| case_seed("some_prop", i)).collect();
        assert_eq!(a, b);
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), a.len(), "case seeds must not collide");
        assert_ne!(case_seed("some_prop", 0), case_seed("other_prop", 0));
    }

    #[test]
    fn failure_reports_seed_and_replay_command() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            check("always_fails", 8, |c| {
                let x = c.random_range(0usize..100);
                assert!(x > 1000, "x was {x}");
            });
        }))
        .expect_err("property must fail");
        let msg = err
            .downcast_ref::<String>()
            .expect("harness panics with String");
        assert!(msg.contains("property 'always_fails' failed on case 0/8"));
        assert!(msg.contains("x was"), "original assertion lost: {msg}");
        assert!(
            msg.contains("HINET_CHECK_SEED=0x"),
            "no replay command: {msg}"
        );
        // The reported seed replays to the same failure.
        let seed = case_seed("always_fails", 0);
        assert!(msg.contains(&format!("{seed:#018x}")));
        let replay = catch_unwind(AssertUnwindSafe(|| {
            let mut c = CaseCtx::from_seed(seed);
            let x = c.random_range(0usize..100);
            assert!(x > 1000, "x was {x}");
        }));
        assert!(replay.is_err(), "replay by seed must reproduce the failure");
    }

    #[test]
    fn same_seed_same_draws() {
        let mut a = CaseCtx::from_seed(0xfeed);
        let mut b = CaseCtx::from_seed(0xfeed);
        assert_eq!(a.seed(), 0xfeed);
        for _ in 0..8 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
            assert_eq!(a.random_range(0usize..50), b.random_range(0usize..50));
        }
        let xs = a.vec_of(5, |c| c.random::<u32>());
        let ys = b.vec_of(5, |c| c.random::<u32>());
        assert_eq!(xs, ys);
        assert_eq!(xs.len(), 5);
    }

    #[test]
    fn pick_selects_from_slice() {
        let mut c = CaseCtx::from_seed(9);
        let opts = ["a", "b", "c"];
        for _ in 0..20 {
            assert!(opts.contains(c.pick(&opts)));
        }
    }

    #[test]
    fn seed_parsing_accepts_hex_and_decimal() {
        assert_eq!(parse_seed("0x10"), Some(16));
        assert_eq!(parse_seed("0X10"), Some(16));
        assert_eq!(parse_seed("16"), Some(16));
        assert_eq!(parse_seed(" 0xdeadbeef "), Some(0xdead_beef));
        assert_eq!(parse_seed("ff"), Some(255), "bare hex fallback");
        assert_eq!(parse_seed("zz"), None);
    }
}
