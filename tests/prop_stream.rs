//! Differential test plane for the streaming stability verifier
//! (`hinet_cluster::stability::stream`), on the seeded `hinet_rt::check`
//! harness (replay any failure with `HINET_CHECK_SEED=<seed printed on
//! failure>`).
//!
//! The contract under test: a `StabilityStream` consuming a trace one
//! round at a time must agree with the batch Defs 2–8 verifiers pointwise
//! — per aligned window, per definition — and its end-of-stream
//! `max_hinet_t`/`min_hinet_l` answers must equal the batch functions,
//! across seeded CTVG generators, archived fuzz-corpus scenarios, and
//! fault-perturbed traces, under arbitrary chunk boundaries of the
//! stream.

use hinet::cluster::clustering::{re_elect, ClusteringKind, GatewayPolicy};
use hinet::cluster::ctvg::{CtvgTrace, FlatProvider, HierarchyProvider};
use hinet::cluster::generators::{ClusteredMobilityGen, HiNetConfig, HiNetGen};
use hinet::cluster::stability::stream::{StabilityStream, StreamReport, WindowVerdict};
use hinet::cluster::stability::{
    head_connectivity_in_window, head_set_stable_in_window, hierarchy_stable_in_window,
    is_head_set_forever_stable, l_hop_in_window, max_hierarchy_stability_sliding, max_hinet_t,
    min_hinet_l, trace_stability_windows,
};
use hinet::rt::check::{check, CaseCtx};
use hinet::rt::obs::{ObsConfig, Tracer};
use hinet::rt::rng::Rng;
use hinet::scenario::ScenarioFile;
use std::path::Path;
use std::sync::Arc;

const CASES: usize = 32;

/// A valid HiNet generator config (mirrors tests/prop_cluster.rs).
fn arb_hinet_config(c: &mut CaseCtx) -> HiNetConfig {
    let num_heads = c.random_range(2usize..=6);
    let l = c.random_range(1usize..=3);
    let t = c.random_range(1usize..=5);
    let reaffil_prob = c.random_range(0.0f64..=0.8);
    let rotate_heads = c.random::<bool>();
    let noise_edges = c.random_range(0usize..12);
    let seed = c.random::<u64>();
    let backbone = (num_heads - 1) * (l - 1);
    let n = (num_heads + backbone + 10).max(20);
    HiNetConfig {
        n,
        num_heads,
        theta: (num_heads * 2).min(n),
        l,
        t,
        reaffil_prob,
        rotate_heads,
        noise_edges,
        seed,
    }
}

/// Feed a captured trace into a fresh stream one round at a time and
/// collect every closed window verdict plus the end-of-stream report.
fn stream_trace(
    trace: &CtvgTrace,
    t: usize,
    l: usize,
    spectrum: bool,
) -> (Vec<WindowVerdict>, StreamReport) {
    let mut stream = StabilityStream::new(t, l);
    if spectrum {
        stream = stream.with_spectrum();
    }
    let mut verdicts = Vec::new();
    for (g, h) in trace.iter() {
        verdicts.extend(stream.push(g, h));
    }
    let (last, report) = stream.finish();
    verdicts.extend(last);
    (verdicts, report)
}

/// The streaming verdicts must equal the batch window verifiers per
/// window, per definition (the windowing contract: aligned windows
/// including a trailing partial one).
fn assert_stream_matches_batch(trace: &CtvgTrace, t: usize, l: usize) {
    let (verdicts, report) = stream_trace(trace, t, l, false);
    let len = trace.len();
    let expected_windows = len.div_ceil(t);
    assert_eq!(verdicts.len(), expected_windows, "window count at t={t}");
    for (w, v) in verdicts.iter().enumerate() {
        let start = w * t;
        let wlen = t.min(len - start);
        assert_eq!((v.start, v.len), (start, wlen));
        assert_eq!(
            v.def2,
            head_set_stable_in_window(trace, start, wlen),
            "Def 2, window [{start}, {})",
            start + wlen
        );
        assert_eq!(
            v.def4,
            hierarchy_stable_in_window(trace, start, wlen),
            "Def 4, window [{start}, {})",
            start + wlen
        );
        assert_eq!(
            v.def5,
            head_connectivity_in_window(trace, start, wlen),
            "Def 5, window [{start}, {})",
            start + wlen
        );
        assert_eq!(
            v.def6,
            l_hop_in_window(trace, start, wlen, l),
            "Def 6, window [{start}, {})",
            start + wlen
        );
        assert_eq!(v.def7, v.def5 && v.def6, "Def 7 conjunction");
        assert_eq!(v.def8, v.def4 && v.def7, "Def 8 conjunction");
    }
    // End-of-stream aggregates against their batch counterparts.
    let mut disabled = Tracer::disabled();
    assert_eq!(
        report.hinet_windows,
        trace_stability_windows(trace, t, l, &mut disabled),
        "Def-8 window count at t={t}"
    );
    assert_eq!(report.rounds, len);
    assert_eq!(report.windows, expected_windows);
    assert_eq!(
        report.min_hinet_l,
        min_hinet_l(trace, t),
        "min_hinet_l at t={t}"
    );
    assert_eq!(
        report.heads_forever_stable,
        is_head_set_forever_stable(trace)
    );
    if !trace.is_empty() {
        assert_eq!(
            report.max_sliding_hierarchy_t,
            max_hierarchy_stability_sliding(trace),
        );
    }
}

#[test]
fn streaming_matches_batch_per_window_per_definition() {
    check(
        "streaming_matches_batch_per_window_per_definition",
        CASES,
        |c| {
            let cfg = arb_hinet_config(c);
            // Lengths deliberately not tied to multiples of any t, so trailing
            // partial windows are exercised constantly.
            let rounds = c.random_range(1usize..=(3 * cfg.t + 2));
            let mut gen = HiNetGen::new(cfg);
            let trace = CtvgTrace::capture(&mut gen, rounds);
            // Every t up to past the trace length (t > len is one partial window).
            for t in 1..=(rounds + 2) {
                assert_stream_matches_batch(&trace, t, cfg.l);
            }
        },
    );
}

#[test]
fn streaming_matches_batch_on_mobility_and_flat_dynamics() {
    use hinet::graph::generators::{
        BackboneKind, OneIntervalGen, RandomWaypointGen, TIntervalGen, WaypointConfig,
    };

    check(
        "streaming_matches_batch_on_mobility_and_flat_dynamics",
        CASES,
        |c| {
            let n = c.random_range(8usize..=24);
            let seed = c.random::<u64>();
            let rounds = c.random_range(2usize..=14);
            let &family = c.pick(&["waypoint", "flat-t", "flat-1"]);
            let mut provider: Box<dyn HierarchyProvider> = match family {
                "waypoint" => Box::new(ClusteredMobilityGen::new(
                    RandomWaypointGen::new(n, WaypointConfig::default(), seed),
                    ClusteringKind::LowestId,
                    true,
                )),
                "flat-t" => Box::new(FlatProvider::new(TIntervalGen::new(
                    n,
                    c.random_range(1usize..=4),
                    BackboneKind::Path,
                    n / 5,
                    seed,
                ))),
                _ => Box::new(FlatProvider::new(OneIntervalGen::new(n, true, n / 5, seed))),
            };
            let trace = CtvgTrace::capture(provider.as_mut(), rounds);
            let t = c.random_range(1usize..=(rounds + 1));
            let l = c.random_range(1usize..=3);
            assert_stream_matches_batch(&trace, t, l);
        },
    );
}

#[test]
fn max_hinet_t_and_min_hinet_l_agree_with_batch() {
    check("max_hinet_t_and_min_hinet_l_agree_with_batch", CASES, |c| {
        let cfg = arb_hinet_config(c);
        let rounds = c.random_range(1usize..=(3 * cfg.t + 2));
        let mut gen = HiNetGen::new(cfg);
        let trace = CtvgTrace::capture(&mut gen, rounds);
        let t = c.random_range(1usize..=(rounds + 1));
        let (_, report) = stream_trace(&trace, t, cfg.l, true);
        // The spectrum answers max_hinet_t for every l in one pass.
        for l in 0..=(cfg.l + 2) {
            assert_eq!(
                report.max_hinet_t(l),
                max_hinet_t(&trace, l),
                "max_hinet_t at l={l}"
            );
        }
        assert_eq!(report.min_hinet_l, min_hinet_l(&trace, t));
    });
}

#[test]
fn chunk_boundaries_change_nothing() {
    check("chunk_boundaries_change_nothing", CASES, |c| {
        let cfg = arb_hinet_config(c);
        let rounds = c.random_range(1usize..=(3 * cfg.t + 2));
        let mut gen = HiNetGen::new(cfg);
        let trace = CtvgTrace::capture(&mut gen, rounds);
        let t = c.random_range(1usize..=(rounds + 1));

        // Reference: one round per push, verdicts emitted into a tracer.
        let mut one = StabilityStream::new(t, cfg.l).with_spectrum();
        let mut tracer_one = Tracer::new(ObsConfig::full());
        let mut verdicts_one = Vec::new();
        for (g, h) in trace.iter() {
            if let Some(v) = one.push(g, h) {
                v.emit_into(&mut tracer_one);
                verdicts_one.push(v);
            }
        }
        let (last, report_one) = one.finish();
        if let Some(v) = last {
            v.emit_into(&mut tracer_one);
            verdicts_one.push(v);
        }

        // Same trace through push_chunk with random chunk boundaries.
        let mut chunked = StabilityStream::new(t, cfg.l).with_spectrum();
        let mut tracer_chunked = Tracer::new(ObsConfig::full());
        let mut verdicts_chunked = Vec::new();
        let pairs: Vec<(&Arc<_>, &Arc<_>)> = trace.iter().collect();
        let mut at = 0usize;
        while at < pairs.len() {
            let size = c.random_range(1usize..=(pairs.len() - at));
            for v in chunked.push_chunk(pairs[at..at + size].iter().copied()) {
                v.emit_into(&mut tracer_chunked);
                verdicts_chunked.push(v);
            }
            at += size;
        }
        let (last, report_chunked) = chunked.finish();
        if let Some(v) = last {
            v.emit_into(&mut tracer_chunked);
            verdicts_chunked.push(v);
        }

        assert_eq!(verdicts_one, verdicts_chunked, "verdict sequences");
        assert_eq!(report_one, report_chunked, "end-of-stream reports");
        assert_eq!(
            tracer_one.to_jsonl(),
            tracer_chunked.to_jsonl(),
            "emitted stability_window event streams must be byte-identical"
        );
    });
}

#[test]
fn streaming_lattice_matches_fig2() {
    check("streaming_lattice_matches_fig2", CASES, |c| {
        let cfg = arb_hinet_config(c);
        let rounds = c.random_range(1usize..=(3 * cfg.t + 2));
        let mut gen = HiNetGen::new(cfg);
        let trace = CtvgTrace::capture(&mut gen, rounds);
        let t = c.random_range(1usize..=(rounds + 1));
        let (verdicts, _) = stream_trace(&trace, t, cfg.l, false);
        // Fig. 2: Def 8 ⇒ Def 4 ⇒ Defs 2,3 and Def 8 ⇒ Def 7 ⇒ Defs 5,6.
        for v in &verdicts {
            if v.def8 {
                assert!(v.def4 && v.def7);
            }
            if v.def7 {
                assert!(v.def5 && v.def6);
            }
            if v.def4 {
                assert!(v.def2 && v.def3);
            }
            // And the conjunctions are exact, not just implied.
            assert_eq!(v.def4, v.def2 && v.def3);
            assert_eq!(v.def7, v.def5 && v.def6);
            assert_eq!(v.def8, v.def4 && v.def7);
        }
    });
}

#[test]
fn fault_perturbed_traces_match_batch() {
    check("fault_perturbed_traces_match_batch", CASES, |c| {
        let cfg = arb_hinet_config(c);
        let rounds = c.random_range(2usize..=(3 * cfg.t + 2));
        let mut gen = HiNetGen::new(cfg);
        let clean = CtvgTrace::capture(&mut gen, rounds);
        // Perturb like the engine's fault plane does: random down sets,
        // re-electing whenever a crashed node heads a cluster.
        let n = clean.n();
        let hierarchies: Vec<Arc<_>> = (0..rounds)
            .map(|r| {
                let down: Vec<bool> = (0..n).map(|_| c.random_range(0u32..5) == 0).collect();
                let g = clean.graph(r);
                let h = clean.hierarchy(r);
                if (0..n).any(|i| down[i] && h.is_head(hinet::graph::graph::NodeId::from_index(i)))
                {
                    Arc::new(re_elect(g, h, &down, GatewayPolicy::default()))
                } else {
                    Arc::clone(h)
                }
            })
            .collect();
        let perturbed = CtvgTrace::new(clean.topology().clone(), hierarchies);
        let t = c.random_range(1usize..=(rounds + 1));
        assert_stream_matches_batch(&perturbed, t, cfg.l);
    });
}

/// Every archived fuzz-corpus scenario, replayed through its own dynamics
/// provider, must verify identically under both verifier families (the
/// in-repo mirror of the ci.sh divergence gate).
#[test]
fn corpus_scenarios_stream_equals_batch() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut checked = 0usize;
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/corpus must exist")
        .map(|e| e.expect("readable corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "scenario"))
        .collect();
    entries.sort();
    for path in entries {
        let sc = ScenarioFile::load(&path)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
            .scenario;
        let Ok(kind) = sc.kind() else {
            continue; // rlnc runs outside the round engine: no hierarchy
        };
        let mut provider = sc.provider(&kind).expect("corpus scenario provider");
        let rounds = sc.budget.clamp(1, 48);
        let trace = CtvgTrace::capture(provider.as_mut(), rounds);
        assert_stream_matches_batch(&trace, sc.t(), sc.l);
        checked += 1;
    }
    assert!(
        checked > 0,
        "the corpus must exercise at least one scenario"
    );
}
