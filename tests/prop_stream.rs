//! Differential test plane for the streaming stability verifier
//! (`hinet_cluster::stability::stream`), on the seeded `hinet_rt::check`
//! harness (replay any failure with `HINET_CHECK_SEED=<seed printed on
//! failure>`).
//!
//! The contract under test: a `StabilityStream` consuming a trace one
//! round at a time must agree with the batch Defs 2–8 reference verifiers
//! (tests/common/) pointwise — per aligned window, per definition — and
//! its end-of-stream `max_hinet_t`/`min_hinet_l` answers must equal the
//! reference functions, across seeded CTVG generators, archived
//! fuzz-corpus scenarios, and fault-perturbed traces, under arbitrary
//! chunk boundaries of the stream. The CLI's one-pass paths are pinned to
//! the references end to end: `StreamingAudit` to `audit` on every
//! dynamics family, and the streamed `stability_window` events to
//! `trace_stability_windows`'s on every corpus scenario.
//!
//! Both sides share `Hierarchy::l_hop_connectivity` (one multi-source
//! BFS), so it has its own differential property against an all-pairs
//! reference kept here.

mod common;

use common::{
    audit, cluster_stable_in_window, head_connectivity_in_window, head_set_stable_in_window,
    hierarchy_stable_in_window, is_head_set_forever_stable, l_hop_in_window,
    max_hierarchy_stability_sliding, max_hinet_t, min_hinet_l, trace_stability_windows,
};
use hinet::cluster::audit::StreamingAudit;
use hinet::cluster::clustering::{re_elect, ClusteringKind, GatewayPolicy};
use hinet::cluster::ctvg::{CtvgTrace, FlatProvider, HierarchyProvider};
use hinet::cluster::generators::{ClusteredMobilityGen, HiNetConfig, HiNetGen};
use hinet::cluster::hierarchy::{single_cluster, ClusterId, Hierarchy, Role};
use hinet::cluster::stability::stream::{StabilityStream, StreamReport, Violation, WindowVerdict};
use hinet::graph::graph::{Graph, GraphBuilder, NodeId};
use hinet::graph::trace::TvgTrace;
use hinet::graph::CsrGraph;
use hinet::rt::check::{check, CaseCtx};
use hinet::rt::obs::{ObsConfig, Tracer};
use hinet::rt::rng::{Rng, SliceRandom};
use hinet::scenario::{dynamics_provider, Scenario, ScenarioFile, DYNAMICS};
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

/// Every archived fuzz-corpus scenario, in file-name order.
fn corpus_scenarios() -> Vec<(String, Scenario)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/corpus must exist")
        .map(|e| e.expect("readable corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "scenario"))
        .collect();
    entries.sort();
    let scenarios: Vec<_> = entries
        .iter()
        .map(|path| {
            let file =
                ScenarioFile::load(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            (path.display().to_string(), file.scenario)
        })
        .collect();
    assert!(
        !scenarios.is_empty(),
        "the corpus must exercise at least one scenario"
    );
    scenarios
}

/// Every archived fuzz-corpus scenario, replayed through its own dynamics
/// provider, must verify identically under both verifier families.
#[test]
fn corpus_scenarios_stream_equals_batch() {
    for (path, sc) in corpus_scenarios() {
        let kind = sc.kind().unwrap_or_else(|e| panic!("{path}: {e}"));
        let mut provider = sc.provider(&kind).expect("corpus scenario provider");
        let rounds = sc.budget.clamp(1, 48);
        let trace = CtvgTrace::capture(provider.as_mut(), rounds);
        assert_stream_matches_batch(&trace, sc.t(), sc.l);
    }
}

/// What `hinet trace --scenario F --stability-stream` records: the run's
/// dynamics replayed over the rounds it executed, one round at a time
/// through `StabilityStream`. Its `stability_window` events must be
/// byte-identical to the reference `trace_stability_windows` over the
/// captured trace, for every corpus scenario.
#[test]
fn stream_verdicts_match_batch_on_corpus() {
    for (path, sc) in corpus_scenarios() {
        let report = sc
            .run_traced(&mut Tracer::disabled())
            .unwrap_or_else(|e| panic!("{path}: {e}"));
        let rounds = report.rounds_executed.max(1);
        let provider = || sc.provider(&sc.kind().unwrap()).unwrap();

        let mut batch = Tracer::new(ObsConfig::full());
        let trace = CtvgTrace::capture(provider().as_mut(), rounds);
        trace_stability_windows(&trace, sc.t(), sc.l, &mut batch);

        let mut streamed = Tracer::new(ObsConfig::full());
        let mut replay = provider();
        let mut stream = StabilityStream::new(sc.t(), sc.l);
        for round in 0..rounds {
            let g = replay.graph_at(round);
            let h = replay.hierarchy_at(round);
            if let Some(v) = stream.push(&g, &h) {
                v.emit_into(&mut streamed);
            }
        }
        if let Some(v) = stream.finish().0 {
            v.emit_into(&mut streamed);
        }
        assert!(!streamed.is_empty(), "{path}: no stability_window events");
        assert_eq!(streamed.to_jsonl(), batch.to_jsonl(), "{path}");
    }
}

/// `StreamingAudit` — what `hinet audit` runs — must equal the reference
/// batch `audit` of the captured trace, field for field, on every dynamics
/// family at two sizes and three seeds (the provider `hinet audit` builds).
#[test]
fn streaming_audit_matches_reference_on_every_dynamics() {
    let rounds = 36;
    for &dynamics in DYNAMICS {
        for n in [30, 60] {
            for seed in 1..=3 {
                let hinet = HiNetConfig {
                    n,
                    num_heads: n / 8,
                    theta: n / 4,
                    l: 2,
                    t: 6,
                    reaffil_prob: 0.15,
                    rotate_heads: true,
                    noise_edges: n / 5,
                    seed,
                };
                let provider = || dynamics_provider(dynamics, hinet, 6).unwrap();
                let reference = audit(&CtvgTrace::capture(provider().as_mut(), rounds));
                let mut streaming = StreamingAudit::new();
                let mut p = provider();
                for round in 0..rounds {
                    streaming.push(&p.graph_at(round), &p.hierarchy_at(round));
                }
                assert_eq!(
                    streaming.finish(),
                    reference,
                    "{dynamics} n={n} seed={seed}"
                );
            }
        }
    }
}

/// Reference L-hop head connectivity (Definition 6) by brute force: a BFS
/// from every head, then union-find over all head pairs sorted by their
/// distance; the distance that leaves one component is `L`. Costs
/// O(|H|·(n + m) + |H|² log |H|) — the oracle for the one-BFS
/// `Hierarchy::l_hop_connectivity`.
fn l_hop_all_pairs(h: &Hierarchy, g: &Graph) -> Option<usize> {
    let heads = h.heads();
    if heads.len() <= 1 {
        return Some(0);
    }
    let csr = CsrGraph::from(g);
    let mut pairs: Vec<(u32, usize, usize)> = Vec::new();
    for (i, &hi) in heads.iter().enumerate() {
        let dist = csr.bfs(hi);
        for (j, &hj) in heads.iter().enumerate().skip(i + 1) {
            if dist[hj.index()] != u32::MAX {
                pairs.push((dist[hj.index()], i, j));
            }
        }
    }
    pairs.sort_unstable();
    let mut root: Vec<usize> = (0..heads.len()).collect();
    fn find(root: &mut [usize], mut x: usize) -> usize {
        while root[x] != x {
            root[x] = root[root[x]];
            x = root[x];
        }
        x
    }
    let mut components = heads.len();
    for (d, i, j) in pairs {
        let (ri, rj) = (find(&mut root, i), find(&mut root, j));
        if ri != rj {
            root[ri] = rj;
            components -= 1;
            if components == 1 {
                return Some(d as usize);
            }
        }
    }
    None
}

/// A hierarchy on `g` with the given heads. Non-heads reachable from a
/// head join the nearest one (by a multi-source BFS) as members or
/// gateways; in multi-hop mode their parent is their BFS parent, so
/// clusters span several hops. Unreachable nodes stay unclustered.
fn hierarchy_on(c: &mut CaseCtx, g: &Graph, heads: &[NodeId], multi_hop: bool) -> Hierarchy {
    let n = g.n();
    let mut roles = vec![Role::Member; n];
    let mut cluster_of: Vec<Option<ClusterId>> = vec![None; n];
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut queue: Vec<NodeId> = heads.to_vec();
    for &hd in heads {
        roles[hd.index()] = Role::Head;
        cluster_of[hd.index()] = Some(ClusterId(hd));
    }
    let mut next = 0;
    while let Some(&u) = queue.get(next) {
        next += 1;
        for &v in g.neighbors(u) {
            if cluster_of[v.index()].is_none() {
                cluster_of[v.index()] = cluster_of[u.index()];
                parent[v.index()] = Some(u);
                if c.random_bool(0.3) {
                    roles[v.index()] = Role::Gateway;
                }
                queue.push(v);
            }
        }
    }
    if multi_hop {
        Hierarchy::with_parents(roles, cluster_of, parent)
    } else {
        Hierarchy::new(roles, cluster_of)
    }
}

/// `Hierarchy::l_hop_connectivity` (one multi-source BFS, then Kruskal
/// over the Voronoi boundary edges) must equal the all-pairs reference on
/// every graph: n ≤ 64, edge densities from empty through sparse
/// (disconnected) to dense, with or without a spanning tree underneath,
/// head counts 0, 1, few, some and all, 1-hop and multi-hop hierarchies.
#[test]
fn one_bfs_l_hop_equals_all_pairs_reference() {
    check("one_bfs_l_hop_equals_all_pairs_reference", 20_000, |c| {
        let n = c.random_range(1usize..=64);
        let mut b = GraphBuilder::new(n);
        // A random spanning tree under a quarter of the cases: connected,
        // with long head-to-head distances.
        if c.random_range(0u32..4) == 0 {
            for v in 1..n {
                let u = c.random_range(0..v);
                b.add_edge(NodeId::from_index(u), NodeId::from_index(v));
            }
        }
        // Mostly sparse: around one expected neighbour per node the graph
        // splits into several components.
        let p = match c.random_range(0u32..3) {
            0 => c.random_range(0.0f64..=2.0 / n as f64),
            1 => c.random_range(0.0f64..=6.0 / n as f64),
            _ => c.random_range(0.0f64..=1.0),
        }
        .min(1.0);
        for u in 0..n {
            for v in (u + 1)..n {
                if c.random_bool(p) {
                    b.add_edge(NodeId::from_index(u), NodeId::from_index(v));
                }
            }
        }
        let g = b.build();
        let count = match c.random_range(0u32..10) {
            0 => 0,
            1 => 1,
            2 => n,
            3..=6 => c.random_range(2usize..=(n / 8).max(2)).min(n),
            _ => c.random_range(2usize..=n.max(2)).min(n),
        };
        let mut nodes: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
        nodes.shuffle(c);
        let mut heads = nodes[..count].to_vec();
        heads.sort_unstable();
        let multi_hop = c.random::<bool>();
        let h = hierarchy_on(c, &g, &heads, multi_hop);
        assert_eq!(h.heads(), &heads[..]);
        assert_eq!(
            h.l_hop_connectivity(&g),
            l_hop_all_pairs(&h, &g),
            "n={n} m={} heads={heads:?}",
            g.m()
        );
    });
}

// Fixed traces: hand-built hierarchies that put each definition's boundary
// case (a trailing partial window, a churning backbone, a hierarchy change
// on an aligned boundary) in front of both sides.

fn nid(i: usize) -> NodeId {
    NodeId::from_index(i)
}

/// Two-cluster fixture on 6 nodes: heads 0 and 3 joined through gateway
/// 2, members 1 and 4, 5.
fn fixture_hierarchy() -> Hierarchy {
    let roles = vec![
        Role::Head,
        Role::Member,
        Role::Gateway,
        Role::Head,
        Role::Member,
        Role::Member,
    ];
    let c0 = Some(ClusterId(nid(0)));
    let c3 = Some(ClusterId(nid(3)));
    Hierarchy::new(roles, vec![c0, c0, c0, c3, c3, c3])
}

fn constant_trace(len: usize) -> CtvgTrace {
    let g = Arc::new(Graph::from_edges(
        6,
        [(0, 1), (0, 2), (2, 3), (3, 4), (3, 5)],
    ));
    let h = Arc::new(fixture_hierarchy());
    let t = TvgTrace::new((0..len).map(|_| Arc::clone(&g)).collect());
    CtvgTrace::new(t, (0..len).map(|_| Arc::clone(&h)).collect())
}

/// Round 0 joins the heads through node 2, round 1 through node 1: each
/// round is connected, but no subgraph connecting them is stable.
fn churny_trace() -> CtvgTrace {
    let h = Arc::new(fixture_hierarchy());
    let g0 = Graph::from_edges(6, [(0, 1), (0, 2), (2, 3), (3, 4), (3, 5)]);
    let g1 = Graph::from_edges(6, [(0, 1), (0, 2), (1, 3), (3, 4), (3, 5)]);
    let t = TvgTrace::new(vec![Arc::new(g0), Arc::new(g1)]);
    CtvgTrace::new(t, vec![Arc::clone(&h), h])
}

/// [`assert_stream_matches_batch`] plus Def 3 against every cluster's
/// reference verdict and the spectrum's `max_hinet_t` for `l < 4`.
fn assert_fixture_matches_batch(trace: &CtvgTrace, t: usize, l: usize) {
    assert_stream_matches_batch(trace, t, l);
    let (verdicts, report) = stream_trace(trace, t, l, true);
    for (i, v) in verdicts.iter().enumerate() {
        let (s, len) = (i * t, t.min(trace.len() - i * t));
        let def3 =
            (0..trace.n()).all(|k| cluster_stable_in_window(trace, ClusterId(nid(k)), s, len));
        assert_eq!(v.def3, def3, "def3 @{s}");
    }
    for probe_l in 0..4 {
        assert_eq!(
            report.max_hinet_t(probe_l),
            max_hinet_t(trace, probe_l),
            "max_hinet_t @ l={probe_l}"
        );
    }
}

#[test]
fn constant_trace_matches_batch_for_all_t() {
    let trace = constant_trace(6);
    for t in 1..=7 {
        assert_fixture_matches_batch(&trace, t, 2);
    }
}

#[test]
fn partial_window_matches_batch() {
    // Length 5, t = 2: windows [0,2) [2,4) [4,5) — the trailing partial
    // window is verified, not dropped (the windowing contract).
    let trace = constant_trace(5);
    assert_fixture_matches_batch(&trace, 2, 2);
    let (verdicts, report) = stream_trace(&trace, 2, 2, true);
    assert_eq!(verdicts.len(), 3);
    assert_eq!(verdicts[2].len, 1);
    assert_eq!(report.hinet_windows, 3);
}

#[test]
fn churny_backbone_matches_batch_and_reports_violation() {
    let trace = churny_trace();
    assert_fixture_matches_batch(&trace, 2, 3);
    let (verdicts, report) = stream_trace(&trace, 2, 3, true);
    assert!(verdicts[0].def2 && verdicts[0].def4);
    assert!(!verdicts[0].def5 && !verdicts[0].def7 && !verdicts[0].def8);
    // Without the certificate the violation is pinned to the close.
    assert_eq!(
        report.violation,
        Some(Violation {
            def: 5,
            window_start: 0,
            round: 1
        })
    );
}

#[test]
fn spectrum_matches_batch_on_hierarchy_churn() {
    // Hierarchy changes at round 2 of 4: only t ∈ {1, 2} can be Def-4
    // stable (gcd = 2), and connectivity decides among them.
    let g = Arc::new(Graph::complete(4));
    let h1 = Arc::new(single_cluster(4, nid(0)));
    let h2 = Arc::new(single_cluster(4, nid(1)));
    let t = TvgTrace::new((0..4).map(|_| Arc::clone(&g)).collect());
    let trace = CtvgTrace::new(t, vec![Arc::clone(&h1), h1, Arc::clone(&h2), h2]);
    for t in 1..=4 {
        assert_fixture_matches_batch(&trace, t, 1);
    }
}

#[test]
fn emitted_events_match_batch_tracer() {
    let trace = churny_trace();
    let mut batch = Tracer::new(ObsConfig::full());
    let held = trace_stability_windows(&trace, 2, 3, &mut batch);
    let mut streamed = Tracer::new(ObsConfig::full());
    let (verdicts, report) = stream_trace(&trace, 2, 3, true);
    for v in &verdicts {
        v.emit_into(&mut streamed);
    }
    assert_eq!(report.hinet_windows, held);
    let a: Vec<String> = batch.events().map(|e| format!("{e:?}")).collect();
    let b: Vec<String> = streamed.events().map(|e| format!("{e:?}")).collect();
    assert_eq!(a, b);
}

fn constructed(t: usize, rotate: bool, seed: u64) -> CtvgTrace {
    let mut gen = HiNetGen::new(HiNetConfig {
        n: 30,
        num_heads: 4,
        theta: 8,
        l: 2,
        t,
        reaffil_prob: 0.1,
        rotate_heads: rotate,
        noise_edges: 5,
        seed,
    });
    CtvgTrace::capture(&mut gen, 3 * t.max(2))
}

#[test]
fn streaming_audit_matches_batch_exactly() {
    // Same report, field for field (floats included — both sides
    // accumulate in the same order), across rotation and stability regimes
    // and horizon lengths that are not multiples of t.
    for (t, rotate, seed) in [(4, true, 1), (3, false, 2), (2, true, 3), (5, true, 7)] {
        let trace = constructed(t, rotate, seed);
        let batch = audit(&trace);
        let mut sa = StreamingAudit::new();
        for (g, h) in trace.iter() {
            sa.push(g, h);
        }
        assert!(sa.peak_state_bytes() > 0);
        assert_eq!(sa.rounds(), trace.len());
        assert_eq!(sa.finish(), batch, "t={t} rotate={rotate} seed={seed}");
    }
}

#[test]
fn streaming_audit_matches_batch_on_disconnected_rounds() {
    // Two valid clusters that lose their interconnection in the middle
    // round: max_flat_t and min_l must be None on both sides.
    let c0 = Some(ClusterId(NodeId(0)));
    let c2 = Some(ClusterId(NodeId(2)));
    let h = Arc::new(Hierarchy::new(
        vec![Role::Head, Role::Member, Role::Head, Role::Member],
        vec![c0, c0, c2, c2],
    ));
    let good = Arc::new(Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]));
    let split = Arc::new(Graph::from_edges(4, [(0, 1), (2, 3)]));
    let t = TvgTrace::new(vec![Arc::clone(&good), split, good]);
    let trace = CtvgTrace::new(t, vec![Arc::clone(&h), Arc::clone(&h), h]);
    let batch = audit(&trace);
    let mut sa = StreamingAudit::new();
    for (g, hh) in trace.iter() {
        sa.push(g, hh);
    }
    assert_eq!(sa.finish(), batch);
}
