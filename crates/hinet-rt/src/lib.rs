//! # hinet-rt — hermetic std-only runtime
//!
//! The workspace's determinism and parallelism layers, in-tree and free of
//! external dependencies, so the default build is hermetic and offline by
//! construction:
//!
//! * [`rng`] — the deterministic RNG stack: SplitMix64 seeding into
//!   xoshiro256\*\*, the `(seed, stream)` splitting contract used by every
//!   generator, and the [`rng::Rng`]/[`rng::SliceRandom`] trait surface
//!   (`random`, `random_range`, `random_bool`, `shuffle`, `choose`).
//! * [`pool`] — a scoped worker pool with atomic-cursor dynamic load
//!   balancing ([`pool::run_sweep`]) and explicit worker-panic propagation.
//! * [`check`] — a minimal seeded property-test harness: per-case seeds
//!   derived deterministically from the property name, failing-seed
//!   reporting, and re-run-by-seed via `HINET_CHECK_SEED`.
//! * [`bench`](mod@bench) — the JSON tree, writer and parser shared by the
//!   trace artifacts and `perfbench` reports, and the robust [`bench::median`].
//! * [`flags`] — typed `--flag` parsing with declared specs, shared by the
//!   `hinet` CLI and `perfbench`.
//! * [`obs`] — structured per-round tracing and metrics: typed events in a
//!   bounded ring buffer, exact monotonic counters, phase spans, and the
//!   `hinet-trace/v1` JSONL artifact with its [`obs::TraceSummary`]
//!   aggregator.
//!
//! Reproducibility is the backbone of this reproduction: experiment runs
//! must replay byte-for-byte across machines and refactors. Owning the RNG
//! stream-splitting contract (rather than inheriting whatever a registry
//! crate's `StdRng` happens to be this year) is what makes that guarantee
//! enforceable — the golden-value tests in the workspace pin the exact
//! output streams produced here.

#![warn(missing_docs)]

pub mod bench;
pub mod check;
pub mod flags;
pub mod obs;
pub mod pool;
pub mod rng;
