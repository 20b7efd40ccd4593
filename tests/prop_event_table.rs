//! The rest of each row of the trace event table (`hinet_rt::obs::Event`)
//! against independent references, on the seeded `hinet_rt::check`
//! harness (replay a failure with `HINET_CHECK_SEED=<printed seed>`). The
//! obs module's own tests pin each row's writer and parser; here random
//! streams of every kind check its counters, against tests/common's
//! hand-written `recount_events`, and its sampling class, against the
//! list below.

mod common;

use common::{one_event_of_each_kind, recount_events};
use hinet::rt::check::{check, CaseCtx};
use hinet::rt::obs::{Event, ObsConfig, ParsedTrace, Tracer};
use hinet::rt::rng::{Rng, SliceRandom};

/// The kinds that sampling may thin; every other kind is structural.
const DATA_KINDS: [&str; 7] = [
    "token_push",
    "head_broadcast",
    "fault_injected",
    "retransmit",
    "delayed",
    "duplicated",
    "retransmit_timeout",
];

/// Up to four events of each kind and at least one, shuffled, each with a
/// round and, for the two sends, its on-air bytes.
fn arb_stream(c: &mut CaseCtx) -> Vec<(u64, Event, u64)> {
    let mut events = one_event_of_each_kind(c);
    for _ in 0..c.random_range(0..=3usize) {
        events.extend(
            one_event_of_each_kind(c)
                .into_iter()
                .filter(|_| c.random_bool(0.5)),
        );
    }
    events.shuffle(c);
    events
        .into_iter()
        .map(|e| {
            let sends = matches!(e, Event::TokenPush { .. } | Event::HeadBroadcast { .. });
            let bytes = if sends { c.random_range(1..1000u64) } else { 0 };
            (c.random_range(0..100u64), e, bytes)
        })
        .collect()
}

fn record(cfg: ObsConfig, stream: &[(u64, Event, u64)]) -> Tracer {
    let mut tracer = Tracer::new(cfg);
    for (round, event, bytes) in stream {
        tracer.emit_with_bytes(*round, event.clone(), *bytes);
    }
    tracer
}

/// A full trace's header counters are its events recounted by the
/// reference, and the bytes are the sends' bytes; a `Sampled(n)` trace
/// keeps every structural event and exactly the data events whose index
/// among the data events is a multiple of `n`, and counts what a full
/// trace counts.
#[test]
fn every_rows_counters_and_sampling_class_match_the_reference() {
    check(
        "every_rows_counters_and_sampling_class_match_the_reference",
        64,
        |c| {
            let stream = arb_stream(c);
            let full = record(ObsConfig::full(), &stream);
            let parsed = ParsedTrace::parse_jsonl(&full.to_jsonl()).expect("trace parses");
            assert_eq!(parsed.events.len(), stream.len());
            assert_eq!(recount_events(&parsed), *full.counters());
            let bytes: u64 = stream.iter().map(|(_, _, b)| b).sum();
            assert_eq!(full.counters().bytes_sent, bytes);

            let n = c.random_range(2..=5u32);
            let sampled = record(ObsConfig::sampled(n), &stream);
            let mut data_seen = 0u64;
            let kept: Vec<&Event> = stream
                .iter()
                .map(|(_, e, _)| e)
                .filter(|e| {
                    if !DATA_KINDS.contains(&e.kind()) {
                        return true;
                    }
                    data_seen += 1;
                    (data_seen - 1).is_multiple_of(u64::from(n))
                })
                .collect();
            let recorded: Vec<&Event> = sampled.events().map(|te| &te.event).collect();
            assert_eq!(recorded, kept, "sampled:{n}");
            assert_eq!(sampled.counters(), full.counters(), "sampled:{n}");
        },
    );
}
