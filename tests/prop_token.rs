//! Property suite for the word-packed `TokenSet`, on the seeded
//! `hinet_rt::check` harness (replay any failure with
//! `HINET_CHECK_SEED=<seed printed on failure>`).
//!
//! The packed representation replaced a `BTreeSet<TokenId>`; these
//! properties pin it to that reference model pointwise — membership,
//! length, ascending iteration order, min/max, subset, union, and the
//! word-parallel selections `max_not_in`/`min_not_in`/`max_not_in_either`
//! the algorithms run every round — at token universes up to the scale
//! target k = 10^4. The final tests fingerprint the parallel round loop on
//! Algorithms 1 and 2 and RLNC: the engine must emit byte-identical traces
//! and the same metrics regardless of thread count.

use hinet::rt::check::{check, CaseCtx};
use hinet::rt::rng::Rng;
use hinet::sim::token::{max_not_in, max_not_in_either, min_not_in, universe, TokenId, TokenSet};
use std::collections::BTreeSet;

const CASES: usize = 64;

/// A random id universe size: mostly small (where off-by-one word
/// boundaries live), sometimes the full k = 10^4 scale target.
fn arb_k(c: &mut CaseCtx) -> u64 {
    *c.pick(&[1, 2, 63, 64, 65, 127, 128, 129, 1000, 10_000])
}

/// A random set over `0..k` drawn as (packed, reference) twins.
fn arb_set(c: &mut CaseCtx, k: u64) -> (TokenSet, BTreeSet<u64>) {
    let mut packed = TokenSet::new();
    let mut reference = BTreeSet::new();
    let fill = *c.pick(&[0.0, 0.05, 0.5, 0.95, 1.0]);
    for id in 0..k {
        if c.random_bool(fill) {
            packed.insert(TokenId(id));
            reference.insert(id);
        }
    }
    (packed, reference)
}

#[test]
fn packed_set_matches_btreeset_pointwise() {
    check("packed_set_matches_btreeset_pointwise", CASES, |c| {
        let k = arb_k(c);
        let (packed, reference) = arb_set(c, k);
        assert_eq!(packed.len(), reference.len());
        assert_eq!(packed.is_empty(), reference.is_empty());
        assert_eq!(packed.min().map(|t| t.0), reference.first().copied());
        assert_eq!(packed.max().map(|t| t.0), reference.last().copied());
        // Ascending iteration order, element for element.
        let packed_ids: Vec<u64> = packed.iter().map(|t| t.0).collect();
        let reference_ids: Vec<u64> = reference.iter().copied().collect();
        assert_eq!(packed_ids, reference_ids);
        // Membership for every id in the universe (and one past it).
        for id in 0..=k {
            assert_eq!(
                packed.contains(&TokenId(id)),
                reference.contains(&id),
                "membership of {id} diverges (k={k})"
            );
        }
    });
}

#[test]
fn insert_reports_novelty_like_btreeset() {
    check("insert_reports_novelty_like_btreeset", CASES, |c| {
        let k = arb_k(c);
        let (mut packed, mut reference) = arb_set(c, k);
        for _ in 0..64 {
            let id = c.random_range(0..k);
            assert_eq!(
                packed.insert(TokenId(id)),
                reference.insert(id),
                "insert({id}) novelty diverges"
            );
            assert_eq!(packed.len(), reference.len());
        }
    });
}

#[test]
fn union_and_subset_match_btreeset() {
    check("union_and_subset_match_btreeset", CASES, |c| {
        let k = arb_k(c);
        let (mut pa, mut ra) = arb_set(c, k);
        let (pb, rb) = arb_set(c, k);
        assert_eq!(pa.is_subset(&pb), ra.is_subset(&rb));
        assert_eq!(pb.is_subset(&pa), rb.is_subset(&ra));
        pa.union_with(&pb);
        ra.extend(rb.iter().copied());
        let union_ids: Vec<u64> = pa.iter().map(|t| t.0).collect();
        let reference_ids: Vec<u64> = ra.iter().copied().collect();
        assert_eq!(union_ids, reference_ids);
        assert!(pb.is_subset(&pa), "b must be a subset of a ∪ b");
    });
}

#[test]
fn word_parallel_selections_match_btreeset() {
    check("word_parallel_selections_match_btreeset", CASES, |c| {
        let k = arb_k(c);
        let (pa, ra) = arb_set(c, k);
        let (pb, rb) = arb_set(c, k);
        let (pc, rc) = arb_set(c, k);
        assert_eq!(
            max_not_in(&pa, &pb).map(|t| t.0),
            ra.iter().rev().copied().find(|id| !rb.contains(id)),
            "max_not_in diverges (k={k})"
        );
        assert_eq!(
            min_not_in(&pa, &pb).map(|t| t.0),
            ra.iter().copied().find(|id| !rb.contains(id)),
            "min_not_in diverges (k={k})"
        );
        assert_eq!(
            max_not_in_either(&pa, &pb, &pc).map(|t| t.0),
            ra.iter()
                .rev()
                .copied()
                .find(|id| !rb.contains(id) && !rc.contains(id)),
            "max_not_in_either diverges (k={k})"
        );
    });
}

#[test]
fn universe_is_exactly_the_dense_range() {
    check("universe_is_exactly_the_dense_range", 16, |c| {
        let k = arb_k(c);
        let u = universe(k as usize);
        assert_eq!(u.len(), k as usize);
        let ids: Vec<u64> = u.iter().map(|t| t.0).collect();
        let expect: Vec<u64> = (0..k).collect();
        assert_eq!(ids, expect);
        // Every set over 0..k is a subset of the universe.
        let (p, _) = arb_set(c, k);
        assert!(p.is_subset(&u));
    });
}

#[test]
fn equality_ignores_capacity() {
    check("equality_ignores_capacity", 16, |c| {
        let k = arb_k(c);
        let (packed, _) = arb_set(c, k);
        // Rebuild through a pre-sized set: same elements, bigger capacity.
        let mut roomy = TokenSet::with_capacity(2 * k as usize + 64);
        roomy.extend(packed.iter());
        assert_eq!(packed, roomy);
        // Inserting and removing capacity-extending structure is invisible
        // to equality; only the elements count.
        let rebuilt: TokenSet = packed.iter().collect();
        assert_eq!(rebuilt, packed);
    });
}

/// The parallel round loop is an implementation detail: the same scenario
/// must emit byte-identical `hinet-trace/v1` streams whether the engine
/// runs single-threaded or split across workers.
#[test]
fn parallel_round_loop_trace_bytes_are_thread_count_invariant() {
    use hinet::core::runner::AlgorithmKind;

    let n = 120;
    assert_thread_count_invariant(
        &AlgorithmKind::HiNetFullExchange { rounds: n - 1 },
        n,
        12,
        1,
    );
}

/// Algorithm 1 on its (T, L)-HiNet dynamics, T = k + αL — the benchmark's
/// clean lock-step path, where each receiver gathers its inbox from its
/// neighbours' sends.
#[test]
fn algorithm_1_is_thread_count_invariant() {
    use hinet::core::params::alg1_plan;
    use hinet::core::runner::AlgorithmKind;

    let (n, k, alpha, l) = (150, 10, 2, 2);
    let plan = alg1_plan(k, alpha, l, THETA);
    let kind = AlgorithmKind::HiNetPhased(plan);
    assert_thread_count_invariant(&kind, n, k, plan.rounds_per_phase);
}

/// RLNC: a node's GF(2) basis, and so every coded packet it sends next,
/// depends on the order of its inbox.
#[test]
fn rlnc_is_thread_count_invariant() {
    use hinet::core::runner::AlgorithmKind;

    let k = 12;
    assert_thread_count_invariant(&AlgorithmKind::Rlnc { k, seed: 5 }, 120, k, 1);
}

/// The cluster-count bound θ of the invariance tests' dynamics.
const THETA: usize = 20;

/// Run `kind` on seeded HiNet dynamics with stability window `t` at 1, 2,
/// 3 and 8 engine threads: the trace bytes and the report's metrics must
/// not depend on the thread count.
fn assert_thread_count_invariant(
    kind: &hinet::core::runner::AlgorithmKind,
    n: usize,
    k: usize,
    t: usize,
) {
    use hinet::cluster::generators::{HiNetConfig, HiNetGen};
    use hinet::core::runner::run_algorithm;
    use hinet::rt::obs::{ObsConfig, Tracer};
    use hinet::sim::engine::RunConfig;
    use hinet::sim::token::round_robin_assignment;

    let run = |threads: usize| {
        let mut provider = HiNetGen::new(HiNetConfig {
            n,
            num_heads: 8,
            theta: THETA,
            l: 2,
            t,
            reaffil_prob: 0.2,
            rotate_heads: true,
            noise_edges: n / 5,
            seed: 7,
        });
        let mut tracer = Tracer::new(ObsConfig::full());
        let assignment = round_robin_assignment(n, k);
        let report = run_algorithm(
            kind,
            &mut provider,
            &assignment,
            RunConfig::new().threads(threads).tracer(&mut tracer),
        );
        assert!(report.completed(), "{}: {:?}", kind.label(), report.outcome);
        let metrics = format!(
            "{:?} {:?} {} {:?}",
            report.outcome, report.completion_round, report.rounds_executed, report.metrics
        );
        (tracer.to_jsonl(), metrics)
    };
    let (trace, metrics) = run(1);
    for threads in [2, 3, 8] {
        let (t, m) = run(threads);
        assert!(
            t == trace,
            "{}: trace bytes diverge at {threads} threads",
            kind.label()
        );
        assert_eq!(m, metrics, "{}: metrics at {threads} threads", kind.label());
    }
}
