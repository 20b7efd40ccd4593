//! Quickstart: the Fig. 1 / Fig. 3 walkthrough.
//!
//! Builds a small clustered network shaped like the paper's Fig. 1 (two
//! clusters joined by a gateway), runs Algorithm 1 on it, and traces how a
//! token travels member → head → gateway → head → members, as the paper's
//! Fig. 3 illustrates.
//!
//! Run with: `cargo run --example quickstart`

use hinet::cluster::ctvg::{CtvgTrace, CtvgTraceProvider};
use hinet::cluster::hierarchy::{ClusterId, Hierarchy, Role};
use hinet::core::params::alg1_plan;
use hinet::core::runner::{run_algorithm, AlgorithmKind};
use hinet::graph::graph::NodeId;
use hinet::graph::trace::TvgTrace;
use hinet::graph::Graph;
use hinet::rt::obs::{Event, ObsConfig, Tracer};
use hinet::sim::engine::RunConfig;
use std::sync::Arc;

fn main() {
    // Fig. 1-like topology: cluster A = head 0 with members 1, 2;
    // gateway 3 on the path between the heads; cluster B = head 4 with
    // members 5, 6. Static here — the quickstart is about the algorithm's
    // mechanics, not the adversary.
    let n = 7;
    let graph = Graph::from_edges(n, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (4, 6)]);

    let c0 = Some(ClusterId(NodeId(0)));
    let c4 = Some(ClusterId(NodeId(4)));
    let hierarchy = Hierarchy::new(
        vec![
            Role::Head,    // 0: head of cluster A
            Role::Member,  // 1
            Role::Member,  // 2
            Role::Gateway, // 3: forwards between the clusters
            Role::Head,    // 4: head of cluster B
            Role::Member,  // 5
            Role::Member,  // 6
        ],
        vec![c0, c0, c0, c0, c4, c4, c4],
    );
    hierarchy
        .validate(&graph)
        .expect("quickstart hierarchy is valid");
    println!(
        "network: n={n}, heads={:?}, L-hop head connectivity = {:?}",
        hierarchy.heads(),
        hierarchy.l_hop_connectivity(&graph)
    );

    // k = 3 tokens starting at members of cluster A and B.
    let mut assignment: Vec<Vec<hinet::sim::TokenId>> = vec![Vec::new(); n];
    assignment[1] = vec![hinet::sim::TokenId(0)]; // the Fig. 3 "token t" at node u
    assignment[5] = vec![hinet::sim::TokenId(1)];
    assignment[6] = vec![hinet::sim::TokenId(2)];
    let k = 3;

    // Static topology = ∞-interval stable; Theorem 1 applies with any α.
    // θ = 2 heads, α = 1, L = 2 → T = k + αL = 5, M = ⌈2/1⌉+1 = 3 phases.
    let plan = alg1_plan(k, 1, 2, hierarchy.heads().len());
    println!(
        "Algorithm 1 plan: T = {} rounds/phase, M = {} phases ({} rounds total)",
        plan.rounds_per_phase,
        plan.phases,
        plan.total_rounds()
    );

    let rounds = plan.total_rounds();
    let g = Arc::new(graph);
    let h = Arc::new(hierarchy);
    let trace = CtvgTrace::new(
        TvgTrace::new((0..rounds).map(|_| Arc::clone(&g)).collect()),
        (0..rounds).map(|_| Arc::clone(&h)).collect(),
    );
    let mut provider = CtvgTraceProvider::new(trace);

    let mut tracer = Tracer::new(ObsConfig::full());
    let report = run_algorithm(
        &AlgorithmKind::HiNetPhased(plan),
        &mut provider,
        &assignment,
        RunConfig::new()
            .record_rounds(true)
            .validate_hierarchy(true)
            .tracer(&mut tracer),
    );

    println!();
    println!("completed: {}", report.completed());
    println!(
        "rounds to completion: {} (bound: {})",
        report
            .completion_round
            .expect("Theorem 1 guarantees completion"),
        plan.total_rounds()
    );
    println!(
        "tokens sent: {} (heads {}, gateways {}, members {})",
        report.metrics.tokens_sent,
        report.metrics.tokens_by_role[0],
        report.metrics.tokens_by_role[1],
        report.metrics.tokens_by_role[2]
    );
    println!();
    println!("per-round progression (informed nodes at round start / tokens sent):");
    for (r, m) in report.metrics.rounds.iter().enumerate() {
        println!(
            "  round {r:>2}: informed {} / 7, sent {}",
            m.informed_nodes, m.tokens_sent
        );
    }
    // The Fig. 3 walkthrough, reconstructed from the run's trace: every
    // transmission that carried token 0 (node 1's token), in order.
    // Algorithm 1 sends one token per message, so a message carries token
    // 0 exactly when the trace names it as the message's token.
    println!();
    println!("the journey of token 0 (Fig. 3's token t), from the trace:");
    for e in tracer.events() {
        let (node, how) = match e.event {
            Event::TokenPush {
                node,
                token: 0,
                dst,
                ..
            } => (node, format!("unicast → node {dst}")),
            Event::HeadBroadcast { node, token: 0, .. } => (node, "broadcast".to_string()),
            _ => continue,
        };
        println!("  round {:>2}: node {node} {how}", e.round);
    }
    println!();
    println!(
        "Member 1 pushed the token to head 0; head 0 broadcast it; gateway 3 \
         relayed it across the cluster boundary; head 4 broadcast it to members \
         5 and 6 — the member → head → gateway → head → members walk of Fig. 3."
    );
}
