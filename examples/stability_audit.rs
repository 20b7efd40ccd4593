//! Audit the stability properties (Definitions 2–8) of generated traces.
//!
//! For each dynamics generator, stream its rounds through the one-pass
//! audit and report which model it actually satisfies: per-round
//! connectivity, the largest T-interval connectivity (flat), the largest
//! (T, L)-HiNet window, the minimal L, and the churn statistics the cost
//! model consumes.
//!
//! Run with: `cargo run --release --example stability_audit`

use hinet::analysis::report::Table;
use hinet::cluster::audit::StreamingAudit;
use hinet::cluster::clustering::{ClusteringKind, GatewayPolicy, LccMobilityGen};
use hinet::cluster::ctvg::HierarchyProvider;
use hinet::cluster::generators::{ClusteredMobilityGen, HiNetConfig, HiNetGen};
use hinet::graph::generators::{ManhattanConfig, ManhattanGen, RandomWaypointGen, WaypointConfig};

const ROUNDS: usize = 36;

fn audit(label: &str, provider: &mut dyn HierarchyProvider, table: &mut Table) {
    let mut streaming = StreamingAudit::new();
    for round in 0..ROUNDS {
        streaming.push(&provider.graph_at(round), &provider.hierarchy_at(round));
    }
    let report = streaming.finish();
    let opt = |v: Option<usize>| v.map_or("—".into(), |x| x.to_string());
    table.push_row(vec![
        label.into(),
        report.always_connected.to_string(),
        opt(report.max_flat_t),
        opt(report.min_l),
        opt(report.max_hinet_t),
        report.churn.distinct_heads.to_string(),
        format!("{:.1}", report.churn.mean_members),
        format!("{:.2}", report.churn.mean_reaffiliations),
    ]);
}

fn main() {
    let mut table = Table::new(
        format!("Stability audit over {ROUNDS}-round traces"),
        &[
            "generator",
            "1-interval conn.",
            "max flat T",
            "min L",
            "max HiNet T",
            "θ measured",
            "n_m",
            "n_r",
        ],
    );

    // Constructed (T, L)-HiNet, stable within windows of 6.
    let mut constructed = HiNetGen::new(HiNetConfig {
        n: 60,
        num_heads: 6,
        theta: 15,
        l: 2,
        t: 6,
        reaffil_prob: 0.15,
        rotate_heads: true,
        noise_edges: 10,
        seed: 1,
    });
    audit("constructed (6, 2)-HiNet", &mut constructed, &mut table);

    // Constructed (1, L)-HiNet: hierarchy may change every round.
    let mut volatile = HiNetGen::new(HiNetConfig {
        n: 60,
        num_heads: 6,
        theta: 15,
        l: 2,
        t: 1,
        reaffil_prob: 0.3,
        rotate_heads: true,
        noise_edges: 10,
        seed: 2,
    });
    audit("constructed (1, 2)-HiNet", &mut volatile, &mut table);

    // Emergent: slow mobility + lowest-ID clustering, sticky maintenance.
    let slow = RandomWaypointGen::new(
        60,
        WaypointConfig {
            radius: 0.3,
            min_speed: 0.001,
            max_speed: 0.008,
            ensure_connected: true,
        },
        3,
    );
    let mut emergent_slow = ClusteredMobilityGen::new(slow, ClusteringKind::LowestId, true);
    audit(
        "emergent, slow mobility (sticky lowest-ID)",
        &mut emergent_slow,
        &mut table,
    );

    // Emergent: fast mobility — stability collapses.
    let fast = RandomWaypointGen::new(
        60,
        WaypointConfig {
            radius: 0.3,
            min_speed: 0.05,
            max_speed: 0.15,
            ensure_connected: true,
        },
        4,
    );
    let mut emergent_fast = ClusteredMobilityGen::new(fast, ClusteringKind::HighestDegree, false);
    audit(
        "emergent, fast mobility (fresh highest-degree)",
        &mut emergent_fast,
        &mut table,
    );

    // Same fast mobility, but with LCC incremental maintenance.
    let fast2 = RandomWaypointGen::new(
        60,
        WaypointConfig {
            radius: 0.3,
            min_speed: 0.05,
            max_speed: 0.15,
            ensure_connected: true,
        },
        4,
    );
    let mut lcc = LccMobilityGen::new(fast2, GatewayPolicy::MinimalPairwise);
    audit(
        "emergent, fast mobility (LCC maintenance)",
        &mut lcc,
        &mut table,
    );

    // Manhattan-grid vehicular mobility with LCC.
    let city = ManhattanGen::new(
        60,
        ManhattanConfig {
            streets: 5,
            radius: 0.25,
            speed_blocks: 0.15,
            ensure_connected: true,
        },
        5,
    );
    let mut city_lcc = LccMobilityGen::new(city, GatewayPolicy::MinimalPairwise);
    audit(
        "Manhattan vehicular mobility (LCC maintenance)",
        &mut city_lcc,
        &mut table,
    );

    println!("{}", table.to_text());
    println!(
        "Constructed generators meet their declared (T, L) exactly, while emergent \
         hierarchies land in the (1, L) regime that Algorithm 2 targets. The \
         maintenance protocol matters enormously: under the same fast mobility, \
         fresh re-clustering churns the hierarchy orders of magnitude harder than \
         LCC repair (compare the n_r columns) — stability is produced by the \
         clustering layer, exactly as the paper's model assumes."
    );
}
