//! Bench: extension substrates and experiments — d-hop clustering, LCC
//! maintenance, Manhattan mobility, RLNC network coding, and the E13–E15
//! experiment regenerations (tables printed once).

use hinet_analysis::experiments::{e13_quiescence_trap, e14_multihop_clusters, e15_network_coding};
use hinet_cluster::clustering::{dhop_lowest_id, GatewayPolicy, LccMaintainer};
use hinet_cluster::ctvg::FlatProvider;
use hinet_core::runner::{run_algorithm, AlgorithmKind};
use hinet_graph::generators::{
    BackboneKind, ManhattanConfig, ManhattanGen, OneIntervalGen, TIntervalGen,
};
use hinet_graph::trace::TopologyProvider;
use hinet_rt::bench::{Bench, BenchmarkId};
use hinet_sim::engine::RunConfig;
use hinet_sim::token::round_robin_assignment;
use std::hint::black_box;

fn bench_extension_experiments(c: &mut Bench) {
    c.print_table("extensions", || {
        format!(
            "{}\n{}\n{}",
            e13_quiescence_trap().to_text(),
            e14_multihop_clusters().to_text(),
            e15_network_coding().to_text()
        )
    });
    let mut group = c.benchmark_group("extension_experiments");
    group.sample_size(10);
    group.bench_function("e13_quiescence_trap", |b| {
        b.iter(|| black_box(e13_quiescence_trap()))
    });
    group.finish();
}

fn bench_dhop_and_lcc(c: &mut Bench) {
    let mut group = c.benchmark_group("extension_clustering");
    let mut gen = TIntervalGen::new(300, 1, BackboneKind::Tree, 900, 4);
    let g = gen.graph_at(0);
    for d in [1usize, 2, 3] {
        group.bench_with_input(BenchmarkId::new("dhop_n300", d), &d, |b, &d| {
            b.iter(|| black_box(dhop_lowest_id(&g, d, GatewayPolicy::MinimalPairwise)))
        });
    }
    group.bench_function("lcc_30_steps_n150", |b| {
        b.iter(|| {
            let mut gen = OneIntervalGen::new(150, false, 60, 7);
            let mut m = LccMaintainer::new(GatewayPolicy::MinimalPairwise);
            let mut acc = 0usize;
            for r in 0..30 {
                let g = gen.graph_at(r);
                acc += m.step(&g).heads().len();
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_manhattan_and_rlnc(c: &mut Bench) {
    let mut group = c.benchmark_group("extension_substrates");
    group.sample_size(15);
    group.bench_function("manhattan_40_rounds_n100", |b| {
        b.iter(|| {
            let mut gen = ManhattanGen::new(100, ManhattanConfig::default(), 3);
            black_box(gen.graph_at(39))
        })
    });
    group.bench_function("rlnc_n40_k8_churn", |b| {
        let assignment = round_robin_assignment(40, 8);
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut gen = FlatProvider::new(OneIntervalGen::new(40, true, 8, seed));
            black_box(run_algorithm(
                &AlgorithmKind::Rlnc { k: 8, seed },
                &mut gen,
                &assignment,
                RunConfig::new().max_rounds(200),
            ))
        })
    });
    group.finish();
}

/// Run every group in this suite.
pub fn bench(c: &mut Bench) {
    bench_extension_experiments(c);
    bench_dhop_and_lcc(c);
    bench_manhattan_and_rlnc(c);
}
