//! # hinet-sim
//!
//! Round-based message-passing simulator with two execution modes:
//! deterministic lock-step (the default) and an event-driven mailbox
//! runtime ([`engine::ExecMode::Event`]) that runs the same protocols over
//! per-shard round reassembly ([`transport::Reassembly`]) and a
//! [`transport::ChannelTransport`] with per-node mailboxes for cross-shard mail,
//! reporting wall-clock throughput and latency alongside the round counts.
//!
//! The paper's execution model (inherited from Kuhn–Lynch–Oshman) is the
//! synchronous dynamic-network model: time is divided into rounds; in round
//! `r` every node sends, the adversary's graph `G_r` determines who hears
//! whom, and every node receives before round `r+1`. This crate implements
//! exactly that model:
//!
//! * [`token::TokenId`] / [`token::TokenSet`] — the tokens of the k-token
//!   dissemination problem; `TokenSet` is a word-packed bitset over the
//!   dense id universe, sized for the n = 10^6, k = 10^4 scale target.
//! * [`protocol::Protocol`] — the per-node state machine interface
//!   (send/receive per round with a [`protocol::LocalView`] of the node's
//!   role, cluster and neighborhood), exchanging [`protocol::Payload`]
//!   messages (`One` token, an `Arc`-shared packed `Set`, or a
//!   network-coded `Coded` combination over [`gf2`]).
//! * [`engine`] — the round loop, message delivery (broadcast and
//!   head-unicast), the completion oracle, and cost accounting, behind the
//!   single entry point [`engine::Engine::run`]. The communication metric
//!   matches the paper's: **total number of tokens sent** (a broadcast of
//!   one token counts once, not once per receiver), with packets and
//!   per-role breakdowns recorded alongside.
//!
//! Every execution mode is [`engine::RunConfig`] state on that one entry
//! point: the [`fault`] module's deterministic, seeded fault-injection
//! plane ([`fault::FaultPlan`] — message loss, crash/restart schedules and
//! hazard rates, head-targeted crashes, partition windows, plus the
//! adversarial delivery pathologies: per-message delay, duplication and
//! inbox reorder) rides in via [`engine::RunConfig::faults`], so degraded
//! runs replay exactly and report a structured [`engine::Outcome`] instead
//! of a bare bool; the [`reliable`] ack/timeout/backoff layer
//! ([`engine::RunConfig::reliable`]) lets every algorithm recover under
//! loss and delay through one code path; and
//! per-round visibility comes from handing the config a
//! [`hinet_rt::obs::Tracer`] via [`engine::RunConfig::tracer`], which
//! streams typed [`hinet_rt::obs`] events (round starts, token pushes,
//! head broadcasts, re-affiliations, run end) without perturbing the run.

// The doc gate (`RUSTDOCFLAGS="-D warnings" cargo doc`) denies this: every
// public item of the simulator — the transport/runtime surface included —
// must be documented.
#![warn(missing_docs)]

mod delivery;
pub mod engine;
mod event;
pub mod fault;
pub mod gf2;
mod lockstep;
mod node;
pub mod protocol;
pub mod reliable;
mod round;
pub mod token;
pub mod transport;

pub use engine::{
    CostWeights, Engine, ExecMode, Metrics, NodeStall, Outcome, RoundMetrics, RunConfig, RunReport,
    StallDiag, TokenLatency, WallClock,
};
pub use fault::{FaultPlan, Partition};
pub use protocol::{Incoming, LocalView, Outgoing, Protocol};
pub use token::{TokenId, TokenSet};
