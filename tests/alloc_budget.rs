//! Allocation budget of the message plane.
//!
//! Once a run is warmed up, a round of Algorithm 2 under loss, delay,
//! duplication, reorder and the reliability layer must cost the engine
//! only a small constant number of heap allocations on top of what the
//! protocols allocate themselves, in event mode and in lock-step alike:
//! reassembly storage, inboxes and retransmit lists are reused, so no
//! per-node or per-envelope allocation recurs round after round. A clean
//! lock-step round reuses its flat outbox and gathered inboxes too, and its
//! round context shares one all-false down and crash state, so it costs
//! one allocation: the shared round context itself.
//!
//! A counting global allocator (this test binary only) counts the
//! allocations and reallocations of the calling thread. Every run uses one
//! worker, so the whole run happens on that thread. The protocols are
//! wrapped so the allocations inside their own calls are counted
//! separately, and the dynamics are captured before counting starts, so
//! what is left is the engine's. Two runs that differ only in their
//! round budget isolate the per-round cost from setup and teardown.

use hinet::cluster::ctvg::{CtvgTrace, CtvgTraceProvider};
use hinet::cluster::generators::{HiNetConfig, HiNetGen};
use hinet::core::runner::AlgorithmKind;
use hinet::graph::graph::NodeId;
use hinet::sim::engine::{Engine, ExecMode, RunConfig};
use hinet::sim::fault::FaultPlan;
use hinet::sim::protocol::{Incoming, LocalView, Outgoing, Protocol};
use hinet::sim::token::{round_robin_assignment, TokenId, TokenSet};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations and reallocations made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// The part of `ALLOCS` made inside protocol calls.
    static PROTOCOL: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialised thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Count the allocations `f` makes as the protocol's own.
fn own<T>(f: impl FnOnce() -> T) -> T {
    let before = allocs();
    let out = f();
    let made = allocs() - before;
    PROTOCOL.with(|c| c.set(c.get() + made));
    out
}

/// A protocol whose allocations are counted as its own.
struct Counted(Box<dyn Protocol + Send>);

impl Protocol for Counted {
    fn on_start(&mut self, me: NodeId, initial: &[TokenId]) {
        own(|| self.0.on_start(me, initial))
    }
    fn send(&mut self, view: &LocalView<'_>) -> Vec<Outgoing> {
        own(|| self.0.send(view))
    }
    fn receive(&mut self, view: &LocalView<'_>, inbox: &[Incoming]) {
        own(|| self.0.receive(view, inbox))
    }
    fn known(&self) -> &TokenSet {
        self.0.known()
    }
    fn finished(&self) -> bool {
        self.0.finished()
    }
    fn on_restart(&mut self, me: NodeId, retained: &[TokenId]) {
        own(|| self.0.on_restart(me, retained))
    }
}

const N: usize = 48;
/// At most 64 tokens: every token set is one word, so no set grows
/// after the first rounds.
const K: usize = 8;
/// Rounds before the measured ones: long enough for the per-node delivery
/// state (reliability windows, ledgers, held envelopes) to reach its
/// working size, whose growth is amortised and not part of a round's cost.
const WARM_UP: usize = 20;
const ROUNDS: usize = 60;
/// Engine allocations allowed per faulted round after the warm-up, for the
/// whole network: a small constant (round contexts, per-round report
/// slots), far below one per node.
const FAULTED_BUDGET_PER_ROUND: u64 = 16;
/// Engine allocations allowed per clean lock-step round: its `Arc`-shared
/// round context.
const CLEAN_BUDGET_PER_ROUND: u64 = 1;

/// The engine's allocations in an Algorithm 2 run of `rounds` rounds in
/// `mode` — faulted and reliable, or on a trivial plan — and the run's
/// packet count.
fn engine_allocs(mode: ExecMode, faulted: bool, rounds: usize) -> (u64, u64) {
    let trace = CtvgTrace::capture(
        &mut HiNetGen::new(HiNetConfig {
            n: N,
            num_heads: 6,
            theta: N / 3,
            l: 2,
            t: 1,
            reaffil_prob: 0.1,
            rotate_heads: true,
            noise_edges: N / 5,
            seed: 11,
        }),
        ROUNDS,
    );
    let mut provider = CtvgTraceProvider::new(trace);
    // Algorithm 2 sends its whole set in every round of the run.
    let kind = AlgorithmKind::HiNetFullExchange { rounds: ROUNDS };
    let mut protocols: Vec<Counted> = (0..N).map(|_| Counted(kind.build_node(false))).collect();
    let assignment = round_robin_assignment(N, K);
    let faults = FaultPlan::new(5)
        .with_loss_ppm(50_000)
        .with_delay_ppm(30_000)
        .with_max_delay(3)
        .with_dup_ppm(20_000)
        .with_reorder(true);
    let cfg = RunConfig::new()
        .max_rounds(rounds)
        .stop_on_completion(false)
        .threads(1)
        .mode(mode)
        .faults(if faulted { faults } else { FaultPlan::none() })
        .reliable(faulted);
    PROTOCOL.with(|c| c.set(0));
    let before = allocs();
    let report = Engine::new(cfg).run(&mut provider, &mut protocols, &assignment);
    let total = allocs() - before;
    assert_eq!(report.rounds_executed, rounds);
    assert_eq!(
        report.metrics.retransmit_timeouts > 0,
        faulted,
        "the timers fire iff the plan is faulted"
    );
    (
        total - PROTOCOL.with(Cell::get),
        report.metrics.packets_sent,
    )
}

fn assert_within_budget(mode: ExecMode, faulted: bool) {
    let (warm, warm_packets) = engine_allocs(mode, faulted, WARM_UP);
    let (full, full_packets) = engine_allocs(mode, faulted, ROUNDS);
    let per_round = (full - warm).div_ceil((ROUNDS - WARM_UP) as u64);
    let plan = if faulted { "faulted" } else { "clean" };
    let budget = if faulted {
        FAULTED_BUDGET_PER_ROUND
    } else {
        CLEAN_BUDGET_PER_ROUND
    };
    eprintln!(
        "{plan} {mode}: {} engine allocations in rounds {WARM_UP}..{ROUNDS} ({per_round} per \
         round, {} packets)",
        full - warm,
        full_packets - warm_packets
    );
    assert!(
        per_round <= budget,
        "{plan} {mode}: the engine made {per_round} allocations per round after the warm-up \
         (budget {budget} for {N} nodes)"
    );
}

#[test]
fn event_mode_rounds_allocate_a_constant() {
    assert_within_budget(ExecMode::Event, true);
}

#[test]
fn faulted_lockstep_rounds_allocate_a_constant() {
    assert_within_budget(ExecMode::Lockstep, true);
}

#[test]
fn clean_lockstep_rounds_allocate_a_constant() {
    assert_within_budget(ExecMode::Lockstep, false);
}
