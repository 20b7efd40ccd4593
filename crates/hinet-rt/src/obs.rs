//! Structured per-round tracing and metrics — the observability layer.
//!
//! The paper's correctness claims (Theorems 1–4) are stated per *round* and
//! per *phase*: members push max-id-first, heads broadcast min-id-first,
//! stability windows (Definitions 2–8) open and close. An end-of-run report
//! cannot show *why* a run took `⌈θ/α⌉ + 1` phases or where a stability
//! window broke, so this module records the run as it happens:
//!
//! * [`Event`] — the typed event taxonomy (round starts, token pushes,
//!   head broadcasts, phase advances, re-affiliations, stability windows,
//!   run end), stamped with their round into [`TraceEvent`]s.
//! * [`Tracer`] — the recording handle: a fixed-capacity ring-buffer event
//!   sink (overflow evicts the oldest events and is *counted*, never
//!   silent), monotonic [`Counters`], and a rounds-per-phase [`Histogram`]
//!   fed by automatic phase scoping ([`Tracer::set_phase_len`]).
//! * [`ObsConfig`] / [`ObsMode`] — off (near-zero cost: one branch per
//!   instrumentation site), sampled (structural events always recorded,
//!   high-volume data events one-in-N), or full.
//! * JSONL export/import — [`Tracer::to_jsonl`] writes the
//!   [`SCHEMA`] (`hinet-trace/v1`) artifact: the header through the
//!   [`crate::bench::json`] writer, each event line through one direct
//!   writer shared with the streaming sink; [`ParsedTrace::parse_jsonl`]
//!   reads it back; [`TraceSummary`] aggregates either side into per-phase
//!   round counts and totals.
//!
//! ```
//! use hinet_rt::obs::{Event, ObsConfig, ParsedTrace, Role, TraceSummary, Tracer};
//!
//! let mut tracer = Tracer::new(ObsConfig::full());
//! tracer.set_phase_len(2); // auto-emit PhaseAdvance every 2 rounds
//! for round in 0..4 {
//!     tracer.round_start(round);
//!     let push = Event::TokenPush { node: 5, token: 9, count: 1, role: Role::Member, dst: 0 };
//!     tracer.emit_with_bytes(round, push, 40);
//! }
//! tracer.run_end(4, true);
//!
//! let jsonl = tracer.to_jsonl();
//! assert!(jsonl.starts_with("{\"schema\":\"hinet-trace/v1\""));
//! let parsed = ParsedTrace::parse_jsonl(&jsonl).unwrap();
//! let summary = TraceSummary::from_trace(&parsed);
//! assert_eq!(summary.rounds, 4);
//! assert_eq!(summary.per_phase_rounds, vec![2, 2]);
//! assert_eq!(summary.counters.tokens_sent, 4);
//! ```

pub mod diff;

use crate::bench::json::Json;
use std::collections::BTreeMap;
use std::io::Write;

/// Trace artifact schema identifier (bump on breaking JSONL changes).
pub const SCHEMA: &str = "hinet-trace/v1";

/// Default ring capacity: generous for CLI-scale runs (hundreds of rounds,
/// ≲ a thousand packets per round) while bounding memory at a few tens of
/// megabytes in the worst case.
pub const DEFAULT_CAPACITY: usize = 1 << 18;

/// Sender role as seen by the tracer — a dependency-free mirror of the
/// cluster hierarchy's role set (hinet-rt sits below the cluster crate).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Cluster head.
    Head,
    /// Gateway between clusters.
    Gateway,
    /// Ordinary member.
    Member,
}

impl Role {
    /// Stable wire name (`"head"` / `"gateway"` / `"member"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Role::Head => "head",
            Role::Gateway => "gateway",
            Role::Member => "member",
        }
    }

    /// Index into per-role counter arrays (`[head, gateway, member]`).
    pub fn slot(self) -> usize {
        match self {
            Role::Head => 0,
            Role::Gateway => 1,
            Role::Member => 2,
        }
    }

    /// Inverse of [`Role::as_str`].
    pub fn parse(s: &str) -> Option<Role> {
        match s {
            "head" => Some(Role::Head),
            "gateway" => Some(Role::Gateway),
            "member" => Some(Role::Member),
            _ => None,
        }
    }
}

/// Which fault class dropped a delivery (see [`Event::FaultInjected`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Seeded random message loss.
    Loss,
    /// A partition window severed the link.
    Partition,
}

impl FaultKind {
    /// Stable wire name (`"loss"` / `"partition"`).
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::Loss => "loss",
            FaultKind::Partition => "partition",
        }
    }

    /// Inverse of [`FaultKind::as_str`].
    pub fn parse(s: &str) -> Option<FaultKind> {
        match s {
            "loss" => Some(FaultKind::Loss),
            "partition" => Some(FaultKind::Partition),
            _ => None,
        }
    }
}

/// `events! { … }`: the [`Event`] enum from one row per variant, and
/// everything read off a row. A row is
///
/// ```text
/// /// docs
/// Variant("wire_name", data | structural, counter += amount, …) {
///     /// docs
///     field: Type,
///     …
/// },
/// ```
///
/// The wire name is the JSONL `ev` value ([`Event::kind`]); `data` events
/// may be thinned by [`ObsMode::Sampled`], `structural` ones never are;
/// each `counter += amount` bumps a [`Counters`] field on emission (an
/// amount may read the row's fields); each field is written and read under
/// its own name, through its type's [`Field`] codec. The writer prints the
/// `ev` name and the first key as one literal, and every further key as one
/// literal with its punctuation.
macro_rules! events {
    (@data data) => {
        true
    };
    (@data structural) => {
        false
    };
    (@write $out:ident, $name:literal) => {
        $out.push_str(concat!(r#","ev":""#, $name, r#"""#))
    };
    (@write $out:ident, $name:literal, $f0:ident $(, $f:ident)*) => {{
        $out.push_str(concat!(r#","ev":""#, $name, r#"",""#, stringify!($f0), r#"":"#));
        Field::write(*$f0, $out);
        $(
            $out.push_str(concat!(r#",""#, stringify!($f), r#"":"#));
            Field::write(*$f, $out);
        )*
    }};
    (
        $(#[$doc:meta])*
        pub enum Event {
            $(
                $(#[$vdoc:meta])*
                $V:ident($name:literal, $class:ident $(, $cnt:ident $([$idx:expr])? += $amt:expr)*)
                $({ $($(#[$fdoc:meta])* $f:ident: $t:ty),+ $(,)? })?,
            )*
        }
    ) => {
        $(#[$doc])*
        pub enum Event {
            $(
                $(#[$vdoc])*
                $V $({ $($(#[$fdoc])* $f: $t,)+ })?,
            )*
        }

        impl Event {
            /// Stable wire name of the event kind (the JSONL `ev` field).
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Event::$V { .. } => $name,)*
                }
            }

            /// Whether this event is high-volume data (eligible for
            /// sampling) rather than structural.
            fn is_data(&self) -> bool {
                match self {
                    $(Event::$V { .. } => events!(@data $class),)*
                }
            }

            /// Bump the counters this event counts.
            #[allow(unused_variables)]
            fn count(&self, c: &mut Counters) {
                match *self {
                    $(Event::$V $({ $($f),+ })? => { $(c.$cnt $([$idx])? += $amt;)* })*
                }
            }

            /// Append the `ev` name and the fields, each after its key.
            fn write_fields(&self, out: &mut String) {
                match self {
                    $(Event::$V $({ $($f),+ })? => events!(@write out, $name $($(, $f)+)?),)*
                }
            }

            /// The event of kind `kind` whose fields are read from `v`.
            fn read_fields(kind: &str, v: &Json) -> Result<Event, String> {
                Ok(match kind {
                    $($name => Event::$V $({ $($f: Field::read(v, stringify!($f))?,)+ })?,)*
                    other => return Err(format!("unknown event kind '{other}'")),
                })
            }
        }
    };
}

events! {
    /// One trace event: one row of this table per kind (see `events!`).
    /// High-volume *data* events — the two sends ([`Event::TokenPush`],
    /// [`Event::HeadBroadcast`]) and the delivery plane's
    /// [`Event::FaultInjected`], [`Event::Retransmit`], [`Event::Delayed`],
    /// [`Event::Duplicated`] and [`Event::RetransmitTimeout`] — may be
    /// sampled under [`ObsMode::Sampled`]; *structural* events (everything
    /// else) are always recorded, so per-phase round counts stay exact even
    /// in sampled traces.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum Event {
        /// A simulation round began.
        RoundStart("round_start", structural, rounds += 1),
        /// A directed token send (a member pushing toward its head).
        TokenPush(
            "token_push",
            data,
            tokens_sent += count,
            packets_sent += 1,
            tokens_by_role[role.slot()] += count
        ) {
            /// Sending node id.
            node: u64,
            /// First (max-id under Algorithm 1) token in the payload.
            token: u64,
            /// Payload size in tokens (Algorithm 1 sends 1; Algorithm 2 sends
            /// whole `TA` sets).
            count: u64,
            /// Sender's role this round.
            role: Role,
            /// Unicast target (the member's head under the HiNet algorithms).
            dst: u64,
        },
        /// A broadcast send (a head/gateway disseminating over the backbone —
        /// or any broadcaster under flat baselines).
        HeadBroadcast(
            "head_broadcast",
            data,
            tokens_sent += count,
            packets_sent += 1,
            tokens_by_role[role.slot()] += count
        ) {
            /// Sending node id.
            node: u64,
            /// First (min-id under Algorithm 1) token in the payload.
            token: u64,
            /// Payload size in tokens.
            count: u64,
            /// Sender's role this round.
            role: Role,
        },
        /// A new phase began (emitted at the phase's first round).
        PhaseAdvance("phase_advance", structural, phases += 1) {
            /// Zero-based phase index.
            phase: u64,
        },
        /// A node's cluster head changed between rounds.
        Reaffiliation("reaffiliation", structural, reaffiliations += 1) {
            /// The re-affiliating node.
            node: u64,
            /// Previous head (`None` if previously unclustered).
            from: Option<u64>,
            /// New head (`None` if now unclustered).
            to: Option<u64>,
        },
        /// A stability window (paper Definitions 2–8) opened or closed.
        ///
        /// Stability is verified *post hoc* over the captured trace, so the
        /// verdict is known at open time too; `held` carries it on both edges.
        StabilityWindow("stability_window", structural) {
            /// Definition number (2–8).
            def: u8,
            /// `true` at the window's first round, `false` at its last.
            open: bool,
            /// Whether the definition held over the window.
            held: bool,
        },
        /// The fault plane dropped a delivery.
        FaultInjected("fault_injected", data, faults_injected += 1) {
            /// Sending node id.
            node: u64,
            /// Dropped delivery's target (`None` when the whole send was
            /// suppressed rather than one receiver's copy).
            dst: Option<u64>,
            /// Which fault class fired.
            kind: FaultKind,
        },
        /// A node crashed: volatile protocol state lost, silent while down.
        Crash("crash", structural, crashes += 1) {
            /// The crashed node.
            node: u64,
            /// Whether its learned tokens survive the crash.
            durable: bool,
        },
        /// A crashed node restarted and rejoined the run.
        Recover("recover", structural, recoveries += 1) {
            /// The recovering node.
            node: u64,
        },
        /// A recovery retransmission was sent (the send itself is also traced
        /// as a [`Event::TokenPush`]/[`Event::HeadBroadcast`]; this marks it).
        Retransmit("retransmit", data, retransmits += 1) {
            /// Sending node id.
            node: u64,
            /// Payload size in tokens.
            count: u64,
            /// Unicast target, `None` for broadcasts.
            dst: Option<u64>,
        },
        /// The fault plane held a delivery back: the envelope matures into the
        /// receiver's inbox `rounds` rounds later instead of this round.
        Delayed("delayed", data, delays_injected += 1) {
            /// Sending node id.
            node: u64,
            /// The delayed delivery's receiver.
            dst: u64,
            /// How many rounds the envelope is held.
            rounds: u64,
        },
        /// The fault plane duplicated a delivery; the receive plane discards
        /// the copy, so duplication never double-counts tokens or bytes.
        Duplicated("duplicated", data, duplicates_injected += 1) {
            /// Sending node id.
            node: u64,
            /// The duplicated delivery's receiver.
            dst: u64,
        },
        /// The reliability layer's backoff timer re-sent an unacked envelope.
        RetransmitTimeout("retransmit_timeout", data, retransmit_timeouts += 1) {
            /// Sending node id.
            node: u64,
            /// The link's receiver.
            dst: u64,
            /// Retransmission attempt (1 = first re-send).
            attempt: u64,
        },
        /// The stall watchdog snapshotted a node that had made no quorum
        /// progress when it halted the run (round = the node's frontier).
        StallProbe("stall_probe", structural, stall_probes += 1) {
            /// The stalled node.
            node: u64,
        },
        /// The run finished.
        RunEnd("run_end", structural) {
            /// Rounds executed.
            rounds: u64,
            /// Whether dissemination completed (every node knows every token).
            completed: bool,
        },
    }
}

/// How an [`Event`] field's value is written after its key, and read back
/// from the parsed line. Every value fits the `Json` tree renderer's bytes:
/// integers as digits, `None` as `null`, names (`[a-z_]`, no escaping)
/// quoted.
trait Field: Sized {
    fn write(self, out: &mut String);
    fn read(v: &Json, key: &str) -> Result<Self, String>;
}

impl Field for u64 {
    fn write(self, out: &mut String) {
        push_u64(out, self);
    }
    fn read(v: &Json, key: &str) -> Result<u64, String> {
        v.get(key)
            .and_then(Json::as_u64)
            .ok_or(format!("missing '{key}'"))
    }
}

impl Field for u8 {
    fn write(self, out: &mut String) {
        push_u64(out, u64::from(self));
    }
    fn read(v: &Json, key: &str) -> Result<u8, String> {
        u64::read(v, key).map(|x| x as u8)
    }
}

impl Field for bool {
    fn write(self, out: &mut String) {
        out.push_str(if self { "true" } else { "false" });
    }
    fn read(v: &Json, key: &str) -> Result<bool, String> {
        match v.get(key) {
            Some(Json::Bool(b)) => Ok(*b),
            _ => Err(format!("missing '{key}'")),
        }
    }
}

impl Field for Option<u64> {
    fn write(self, out: &mut String) {
        match self {
            Some(x) => push_u64(out, x),
            None => out.push_str("null"),
        }
    }
    fn read(v: &Json, key: &str) -> Result<Option<u64>, String> {
        match v.get(key) {
            Some(Json::Null) => Ok(None),
            Some(x) => x.as_u64().map(Some).ok_or(format!("bad '{key}'")),
            None => Err(format!("missing '{key}'")),
        }
    }
}

/// A quoted wire name.
fn push_name(out: &mut String, name: &str) {
    out.push('"');
    out.push_str(name);
    out.push('"');
}

/// The wire name under `key`.
fn read_name<'v>(v: &'v Json, key: &str) -> Result<&'v str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or(format!("missing '{key}'"))
}

impl Field for Role {
    fn write(self, out: &mut String) {
        push_name(out, self.as_str());
    }
    fn read(v: &Json, key: &str) -> Result<Role, String> {
        let s = read_name(v, key)?;
        Role::parse(s).ok_or(format!("unknown role '{s}'"))
    }
}

impl Field for FaultKind {
    fn write(self, out: &mut String) {
        push_name(out, self.as_str());
    }
    fn read(v: &Json, key: &str) -> Result<FaultKind, String> {
        let s = read_name(v, key)?;
        FaultKind::parse(s).ok_or(format!("unknown fault kind '{s}'"))
    }
}

/// An [`Event`] stamped with the round it occurred in.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Round index.
    pub round: u64,
    /// The event.
    pub event: Event,
}

/// How much the tracer records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObsMode {
    /// Record nothing; every instrumentation site reduces to one branch.
    Off,
    /// Record every structural event but only one in `N` data events
    /// (the two sends and five delivery-plane kinds, see [`Event`]).
    /// Counters remain exact.
    Sampled(u32),
    /// Record everything.
    Full,
}

impl ObsMode {
    /// Stable wire name written into the artifact header (`"off"`,
    /// `"sampled:N"`, `"full"`). Comparable across traces, so the diff
    /// engine can refuse to compare event streams captured at different
    /// sampling rates.
    pub fn wire(self) -> String {
        match self {
            ObsMode::Off => "off".into(),
            ObsMode::Sampled(n) => format!("sampled:{n}"),
            ObsMode::Full => "full".into(),
        }
    }

    /// Inverse of [`ObsMode::wire`].
    fn parse_wire(s: &str) -> Option<ObsMode> {
        match s {
            "off" => Some(ObsMode::Off),
            "full" => Some(ObsMode::Full),
            other => other
                .strip_prefix("sampled:")
                .and_then(|n| n.parse().ok())
                .map(ObsMode::Sampled),
        }
    }
}

/// Tracer configuration.
#[derive(Clone, Copy, Debug)]
pub struct ObsConfig {
    /// Recording mode.
    pub mode: ObsMode,
    /// Ring-buffer capacity in events; older events are evicted (and
    /// counted in [`Tracer::dropped`]) once exceeded.
    pub capacity: usize,
}

impl ObsConfig {
    /// Record everything at the default capacity.
    pub fn full() -> ObsConfig {
        ObsConfig {
            mode: ObsMode::Full,
            capacity: DEFAULT_CAPACITY,
        }
    }

    /// Record structural events plus one in `n` data events.
    pub fn sampled(n: u32) -> ObsConfig {
        ObsConfig {
            mode: ObsMode::Sampled(n.max(1)),
            capacity: DEFAULT_CAPACITY,
        }
    }

    /// Record nothing.
    pub fn off() -> ObsConfig {
        ObsConfig {
            mode: ObsMode::Off,
            capacity: 0,
        }
    }

    /// Same mode, explicit ring capacity.
    pub fn capacity(mut self, capacity: usize) -> ObsConfig {
        self.capacity = capacity;
        self
    }
}

/// Monotonic counters, always exact regardless of sampling or ring
/// eviction (they are updated on *emission*, not on *recording*). Each
/// field is one row of this module's `HEADER_COUNTERS` table, which fixes
/// how the artifact header writes, reads and diffs it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Total tokens sent (the paper's communication metric).
    pub tokens_sent: u64,
    /// Total packets sent.
    pub packets_sent: u64,
    /// Total bytes on air under the run's cost weights.
    pub bytes_sent: u64,
    /// Tokens sent broken down by sender role `[head, gateway, member]`.
    pub tokens_by_role: [u64; 3],
    /// Cluster-head changes observed.
    pub reaffiliations: u64,
    /// Rounds started.
    pub rounds: u64,
    /// Phases started.
    pub phases: u64,
    /// Deliveries dropped by the fault plane (loss + partitions).
    pub faults_injected: u64,
    /// Node crashes injected.
    pub crashes: u64,
    /// Node recoveries (restarts after a crash window).
    pub recoveries: u64,
    /// Recovery retransmissions sent.
    pub retransmits: u64,
    /// Deliveries held back by the fault plane's delay knob.
    pub delays_injected: u64,
    /// Envelope duplications injected by the fault plane.
    pub duplicates_injected: u64,
    /// Reliability-layer timer retransmissions sent.
    pub retransmit_timeouts: u64,
    /// Stall-watchdog per-node snapshots taken when a run halted.
    pub stall_probes: u64,
    /// Duplicate envelopes discarded by the receive plane (a gauge fed via
    /// [`Tracer::note_dedup`] — it has no event of its own).
    pub dups_discarded: u64,
}

/// When the artifact header writes a counter.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Written {
    /// On every header; parsing requires it.
    Always,
    /// Only when nonzero, so artifacts of runs without faults or delivery
    /// chaos stay byte-identical to those written before the counter
    /// existed; parsing reads an absent key as 0.
    Nonzero,
}

/// One header counter: a row of [`HEADER_COUNTERS`].
struct HeaderCounter {
    /// Wire key in the header's `counters` object (also the field name).
    key: &'static str,
    written: Written,
    /// What it counts, as the trace diff names it.
    what: &'static str,
    /// Its values in a [`Counters`]: one, or one per role for
    /// `tokens_by_role`. Mutable so that the parser can fill them in.
    slots: fn(&mut Counters) -> &mut [u64],
}

/// `counter!(field, Written, "what")`: the [`HeaderCounter`] for a scalar
/// `Counters::field`, keyed `field` on the wire.
macro_rules! counter {
    ($field:ident, $written:ident, $what:literal) => {
        HeaderCounter {
            key: stringify!($field),
            written: Written::$written,
            what: $what,
            slots: |c| std::slice::from_mut(&mut c.$field),
        }
    };
}

/// Every header counter, in header order: the one list that the writer,
/// [`ParsedTrace::parse_jsonl`] and the trace diff iterate.
const HEADER_COUNTERS: [HeaderCounter; 16] = [
    counter!(tokens_sent, Always, "tokens sent"),
    counter!(packets_sent, Always, "packets sent"),
    counter!(bytes_sent, Always, "bytes on air"),
    HeaderCounter {
        key: "tokens_by_role",
        written: Written::Always,
        what: "tokens sent by",
        slots: |c| &mut c.tokens_by_role,
    },
    counter!(reaffiliations, Always, "re-affiliations"),
    counter!(rounds, Always, "rounds executed"),
    counter!(phases, Always, "phases started"),
    counter!(faults_injected, Nonzero, "fault-dropped deliveries"),
    counter!(crashes, Nonzero, "node crashes"),
    counter!(recoveries, Nonzero, "node recoveries"),
    counter!(retransmits, Nonzero, "recovery retransmissions"),
    counter!(delays_injected, Nonzero, "delayed deliveries"),
    counter!(duplicates_injected, Nonzero, "duplicated envelopes"),
    counter!(retransmit_timeouts, Nonzero, "timer retransmissions"),
    counter!(stall_probes, Nonzero, "stall probes"),
    counter!(dups_discarded, Nonzero, "discarded duplicates"),
];

/// A power-of-two-bucket histogram (bucket `i` counts values `v` with
/// `⌊log₂ v⌋ = i`; zero gets bucket 0). Used for rounds-per-phase
/// distributions.
///
/// ```
/// use hinet_rt::obs::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [1, 3, 3, 18] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.max(), 18);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; 64],
            count: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        let bucket = if v <= 1 {
            0
        } else {
            63 - v.leading_zeros() as usize
        };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }
}

/// Events per [`Ring`] chunk (56 KiB of events).
const RING_CHUNK: usize = 1024;

/// Fixed-capacity ring of [`TraceEvent`]s: pushing past capacity evicts the
/// oldest event and increments the drop counter — overflow is loud, never a
/// reallocation.
///
/// Events are held in chunks of [`RING_CHUNK`], not in one doubling
/// buffer, so growing never copies what is held. A full trace of a few
/// hundred thousand events in one buffer is a ~30 MiB block that glibc
/// maps on its own; freeing it raises glibc's mmap threshold, later large
/// buffers then come from the heap, and the process's peak RSS depends on
/// where they land: a traced 5 000-node Alg 1 run peaked at 70.7 or
/// 77.8 MiB with nothing but its command line changed, and at 43.3 MiB
/// with chunks.
#[derive(Clone, Debug)]
struct Ring {
    /// Held events in physical order; every chunk but the last is full.
    chunks: Vec<Vec<TraceEvent>>,
    len: usize,
    capacity: usize,
    /// Physical index of the logically-oldest element once the ring has
    /// wrapped.
    start: usize,
    dropped: u64,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring {
            chunks: Vec::new(),
            len: 0,
            capacity,
            start: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.len < self.capacity {
            match self.chunks.last_mut() {
                Some(chunk) if chunk.len() < RING_CHUNK => chunk.push(ev),
                _ => {
                    // The last chunk of a small ring holds only what fits.
                    let mut chunk = Vec::with_capacity(RING_CHUNK.min(self.capacity - self.len));
                    chunk.push(ev);
                    self.chunks.push(chunk);
                }
            }
            self.len += 1;
        } else {
            self.chunks[self.start / RING_CHUNK][self.start % RING_CHUNK] = ev;
            self.start = (self.start + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Oldest-to-newest iteration.
    fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        let held = || self.chunks.iter().flatten();
        held().skip(self.start).chain(held().take(self.start))
    }
}

/// The recording handle threaded through the engine, the runner and the
/// stability verifiers.
///
/// Cost model: with [`ObsMode::Off`] every public emission method returns
/// after one branch (`enabled()`), so a disabled tracer costs the engine's
/// hot path one predictable branch per call.
#[derive(Debug)]
pub struct Tracer {
    cfg: ObsConfig,
    ring: Ring,
    counters: Counters,
    rounds_per_phase: Histogram,
    meta: Vec<(String, String)>,
    /// Auto-phase state (see [`Tracer::set_phase_len`]).
    phase_len: Option<u64>,
    next_auto_phase: u64,
    rounds_in_phase: u64,
    /// Data-event sequence number, for sampling.
    data_seq: u64,
    /// Incremental disk sink (see [`Tracer::stream_to`]); when set,
    /// recorded events bypass the ring and go straight to the spill file.
    sink: Option<StreamSink>,
}

/// Incremental event sink: recorded events are appended to a spill file
/// (`<path>.part`) as they happen; [`Tracer::finish_stream`] prepends the
/// final header and renames into place. See [`Tracer::stream_to`].
#[derive(Debug)]
struct StreamSink {
    /// Final artifact path.
    path: std::path::PathBuf,
    /// Spill-file writer (`<path>.part`).
    writer: std::io::BufWriter<std::fs::File>,
    /// Events written so far.
    written: u64,
    /// Line buffer, reused for every event.
    line: String,
}

impl StreamSink {
    /// Append one event line to the spill file.
    fn write(&mut self, te: &TraceEvent) -> std::io::Result<()> {
        write_line(&mut self.writer, &mut self.line, te)?;
        self.written += 1;
        Ok(())
    }
}

/// Write one event's line to `w`, built in the reused `line` buffer.
fn write_line(w: &mut impl Write, line: &mut String, te: &TraceEvent) -> std::io::Result<()> {
    line.clear();
    write_event(line, te);
    line.push('\n');
    w.write_all(line.as_bytes())
}

impl Tracer {
    /// A tracer with the given configuration.
    pub fn new(cfg: ObsConfig) -> Tracer {
        let capacity = match cfg.mode {
            ObsMode::Off => 0,
            _ => cfg.capacity,
        };
        Tracer {
            cfg,
            ring: Ring::new(capacity),
            counters: Counters::default(),
            rounds_per_phase: Histogram::new(),
            meta: Vec::new(),
            phase_len: None,
            next_auto_phase: 0,
            rounds_in_phase: 0,
            data_seq: 0,
            sink: None,
        }
    }

    /// A disabled tracer: every emission is a no-op after one branch.
    pub fn disabled() -> Tracer {
        Tracer::new(ObsConfig::off())
    }

    /// Whether the tracer records anything. Instrumentation sites check
    /// this before assembling event payloads.
    #[inline]
    pub fn enabled(&self) -> bool {
        !matches!(self.cfg.mode, ObsMode::Off)
    }

    /// Attach a `key: value` pair to the artifact header (scenario
    /// parameters, seeds, algorithm names).
    pub fn meta(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.meta.push((key.into(), value.into()));
    }

    /// Declare the phase length `T`: [`Tracer::round_start`] then emits
    /// [`Event::PhaseAdvance`] automatically at rounds `0, T, 2T, …` and
    /// records each completed phase's round count in the histogram.
    pub fn set_phase_len(&mut self, t: u64) {
        if t > 0 {
            self.phase_len = Some(t);
        }
    }

    /// Emit an event at `round`, bumping the counters its row names.
    /// Structural events are always recorded; data events honour the
    /// sampling mode. The send events' on-air bytes, which no event
    /// carries, come in through [`Tracer::emit_with_bytes`].
    pub fn emit(&mut self, round: u64, event: Event) {
        if !self.enabled() {
            return;
        }
        event.count(&mut self.counters);
        let record = if event.is_data() {
            let keep = match self.cfg.mode {
                ObsMode::Off => false,
                ObsMode::Full => true,
                ObsMode::Sampled(n) => self.data_seq.is_multiple_of(n as u64),
            };
            self.data_seq += 1;
            keep
        } else {
            true
        };
        if record {
            let te = TraceEvent { round, event };
            match &mut self.sink {
                Some(sink) => {
                    // Streaming mode: the ring is bypassed entirely, so
                    // event retention no longer depends on its capacity.
                    let _ = sink.write(&te);
                }
                None => self.ring.push(te),
            }
        }
    }

    /// Emit [`Event::RoundStart`], auto-advancing the phase if a phase
    /// length was declared.
    pub fn round_start(&mut self, round: u64) {
        if !self.enabled() {
            return;
        }
        if let Some(t) = self.phase_len {
            if round.is_multiple_of(t) {
                if round > 0 {
                    self.rounds_per_phase.record(self.rounds_in_phase);
                }
                self.rounds_in_phase = 0;
                let phase = self.next_auto_phase;
                self.next_auto_phase += 1;
                self.emit(round, Event::PhaseAdvance { phase });
            }
        }
        self.rounds_in_phase += 1;
        self.emit(round, Event::RoundStart);
    }

    /// Emit `event` and add `bytes` to the on-air byte count: the entry
    /// point of the two send events ([`Event::TokenPush`],
    /// [`Event::HeadBroadcast`]), whose cost under the run's weights is
    /// not on the wire. Every other event costs 0.
    pub fn emit_with_bytes(&mut self, round: u64, event: Event, bytes: u64) {
        if !self.enabled() {
            return;
        }
        self.counters.bytes_sent += bytes;
        self.emit(round, event);
    }

    /// Record the receive plane's duplicate-discard gauge into the
    /// counters. Called once at the end of a run by both execution modes;
    /// chaos-free runs always report zero, so their artifacts are
    /// unchanged (the counter serialises only when nonzero).
    pub fn note_dedup(&mut self, dups_discarded: u64) {
        if !self.enabled() {
            return;
        }
        self.counters.dups_discarded = dups_discarded;
    }

    /// Emit [`Event::RunEnd`], closing any open auto-phase.
    pub fn run_end(&mut self, rounds: u64, completed: bool) {
        if !self.enabled() {
            return;
        }
        if self.phase_len.is_some() && self.rounds_in_phase > 0 {
            self.rounds_per_phase.record(self.rounds_in_phase);
            self.rounds_in_phase = 0;
        }
        self.emit(
            rounds.saturating_sub(1),
            Event::RunEnd { rounds, completed },
        );
    }

    /// The exact counters accumulated so far.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// The rounds-per-phase histogram (fed by auto-phases and spans).
    pub fn rounds_per_phase(&self) -> &Histogram {
        &self.rounds_per_phase
    }

    /// Events currently held in the ring, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter()
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no events are held.
    pub fn is_empty(&self) -> bool {
        self.ring.len() == 0
    }

    /// Events evicted by ring overflow or suppressed by sampling — reported
    /// so a truncated trace is never mistaken for a complete one.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped
    }

    /// The artifact's header object: schema, recording mode, metadata,
    /// the counters (written as [`HEADER_COUNTERS`] says) and the drop
    /// count.
    fn header(&self) -> Json {
        let mut c = self.counters;
        let mut counters = Vec::new();
        for f in &HEADER_COUNTERS {
            let json = match (f.slots)(&mut c) {
                [0] if f.written == Written::Nonzero => continue,
                [one] => Json::Num(*one as f64),
                all => Json::Arr(all.iter().map(|&x| Json::Num(x as f64)).collect()),
            };
            counters.push((f.key.into(), json));
        }
        let meta = self
            .meta
            .iter()
            .map(|(k, v)| (k.clone(), Json::Str(v.clone())));
        Json::Obj(vec![
            ("schema".into(), Json::Str(SCHEMA.into())),
            ("mode".into(), Json::Str(self.cfg.mode.wire())),
            ("meta".into(), Json::Obj(meta.collect())),
            ("counters".into(), Json::Obj(counters)),
            ("dropped".into(), Json::Num(self.dropped() as f64)),
        ])
    }

    /// Serialise to the `hinet-trace/v1` JSONL artifact: a header object on
    /// line 1 (schema, metadata, exact counters, drop count), then one
    /// event object per line, oldest first.
    ///
    /// The buffer is reserved once, `MAX_LINE` bytes per held event, so
    /// it never regrows; pages of the reservation that stay unwritten are
    /// never touched.
    pub fn to_jsonl(&self) -> String {
        let header = self.header().to_string();
        let mut out = String::with_capacity(header.len() + 1 + self.len() * MAX_LINE);
        out.push_str(&header);
        out.push('\n');
        for te in self.events() {
            write_event(&mut out, te);
            out.push('\n');
        }
        out
    }

    /// Write the artifact [`Tracer::to_jsonl`] returns to `w` instead,
    /// line by line through one reused line buffer, so that no buffer of
    /// the whole artifact is built.
    pub fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        writeln!(w, "{}", self.header())?;
        let mut line = String::with_capacity(MAX_LINE);
        for te in self.events() {
            write_line(w, &mut line, te)?;
        }
        Ok(())
    }

    /// Switch to incremental disk streaming: from now on, recorded events
    /// are appended to a spill file (`<path>.part`) as they are emitted
    /// instead of being held in the ring, so the trace no longer has to fit
    /// in memory (fault-heavy runs emit many more events than clean ones).
    ///
    /// Call [`Tracer::finish_stream`] after the run to assemble the final
    /// artifact at `path`: the header line — whose counters are only known
    /// at the end — followed by the spilled events. For runs that would not
    /// have overflowed the ring, the streamed artifact is byte-identical to
    /// [`Tracer::to_jsonl`].
    ///
    /// Parent directories are created. Events already held in the ring are
    /// spilled first, so switching mid-run loses nothing that was recorded.
    pub fn stream_to(&mut self, path: impl Into<std::path::PathBuf>) -> std::io::Result<()> {
        let path = path.into();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut part = path.clone().into_os_string();
        part.push(".part");
        let file = std::fs::File::create(std::path::PathBuf::from(part))?;
        let mut sink = StreamSink {
            path,
            writer: std::io::BufWriter::new(file),
            written: 0,
            line: String::new(),
        };
        for te in self.ring.iter() {
            sink.write(te)?;
        }
        self.ring = Ring::new(0);
        self.sink = Some(sink);
        Ok(())
    }

    /// Finish incremental streaming (see [`Tracer::stream_to`]): write the
    /// header with the final counters to the target path, append the
    /// spilled events, remove the spill file, and return the number of
    /// events in the artifact. Errors leave the spill file in place for
    /// inspection. No-op returning `None` if streaming was never enabled.
    pub fn finish_stream(&mut self) -> std::io::Result<Option<u64>> {
        let Some(mut sink) = self.sink.take() else {
            return Ok(None);
        };
        sink.writer.flush()?;
        drop(sink.writer);
        let mut part = sink.path.clone().into_os_string();
        part.push(".part");
        let part = std::path::PathBuf::from(part);
        let mut out = std::io::BufWriter::new(std::fs::File::create(&sink.path)?);
        writeln!(out, "{}", self.header())?;
        let mut spill = std::fs::File::open(&part)?;
        std::io::copy(&mut spill, &mut out)?;
        out.flush()?;
        std::fs::remove_file(&part)?;
        Ok(Some(sink.written))
    }

    /// Number of events written to the stream sink so far (`None` when not
    /// streaming).
    pub fn streamed(&self) -> Option<u64> {
        self.sink.as_ref().map(|s| s.written)
    }
}

/// Longest line [`write_event`] can print, newline included: a
/// `token_push` from a gateway with all five integers at 20 digits
/// (`u64::MAX`). [`Tracer::to_jsonl`] reserves this much per held event.
const MAX_LINE: usize = 175;

/// Append one event's JSONL object (without the newline) to `out`.
///
/// Each key is written as one literal together with its `,"…":`
/// punctuation, and each variant's `ev` name as one literal with its first
/// key after it, both read off the variant's row of the [`Event`] table;
/// integers go through [`push_u64`], never through `fmt`. The
/// bytes are the ones the [`Json`] tree renderer would print for the same
/// object — keys in the same order, `None` as `null` — for every integer
/// up to 2⁵³; above that this prints the exact integer where the tree
/// renderer printed the nearest `f64`. String values are fixed wire names
/// (`[a-z_]`) that need no escaping.
///
/// The bytes are pinned three ways in this module's tests: one literal
/// line per variant (`event_writer_prints_one_literal_line_per_variant`),
/// random events of every variant against the tree renderer and the
/// parser (`event_writer_matches_the_tree_renderer_and_parser`), and
/// `push_u64` against `to_string` at every digit-count boundary
/// (`push_u64_matches_to_string`).
fn write_event(out: &mut String, te: &TraceEvent) {
    out.push_str(r#"{"r":"#);
    push_u64(out, te.round);
    te.event.write_fields(out);
    out.push('}');
}

/// The two ASCII digits of every value below 100, in order: entry `i`
/// is bytes `2i` and `2i + 1`.
const DIGIT_PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Append the decimal digits of `v`: two at a time from [`DIGIT_PAIRS`],
/// least significant first, into a stack buffer, then onto `out`.
fn push_u64(out: &mut String, mut v: u64) {
    // u64::MAX has 20 digits.
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + v as u8;
    }
    // Byte by byte: each is ASCII, so no UTF-8 check is needed.
    for &digit in &buf[at..] {
        out.push(char::from(digit));
    }
}

/// A parsed `hinet-trace/v1` artifact: the header's metadata, exact
/// counters and drop count, plus the recorded events.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedTrace {
    /// Header metadata pairs, in write order.
    pub meta: Vec<(String, String)>,
    /// Recording mode the trace was captured at (header `mode`; traces
    /// written before the field existed parse as [`ObsMode::Full`]).
    pub mode: ObsMode,
    /// Exact counters snapshot from the header.
    pub counters: Counters,
    /// Events evicted or sampled out before export.
    pub dropped: u64,
    /// Recorded events, oldest first.
    pub events: Vec<TraceEvent>,
}

impl ParsedTrace {
    /// Parse an artifact produced by [`Tracer::to_jsonl`].
    pub fn parse_jsonl(text: &str) -> Result<ParsedTrace, String> {
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());
        let (_, header_line) = lines.next().ok_or("empty trace")?;
        let header = Json::parse(header_line).map_err(|e| format!("header: {e}"))?;
        let schema = header
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing 'schema'")?;
        if schema != SCHEMA {
            return Err(format!("schema '{schema}' is not '{SCHEMA}'"));
        }
        let mode = match header.get("mode") {
            None => ObsMode::Full,
            Some(v) => {
                let raw = v.as_str().ok_or("'mode' is not a string")?;
                ObsMode::parse_wire(raw).ok_or(format!("unknown mode '{raw}'"))?
            }
        };
        let meta = match header.get("meta") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .map(|(k, v)| {
                    v.as_str()
                        .map(|s| (k.clone(), s.to_string()))
                        .ok_or(format!("meta.{k} is not a string"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("missing 'meta'".into()),
        };
        let c = header.get("counters").ok_or("missing 'counters'")?;
        let mut counters = Counters::default();
        for f in &HEADER_COUNTERS {
            let slots = (f.slots)(&mut counters);
            let values = match c.get(f.key) {
                None if f.written == Written::Nonzero => continue,
                None => None,
                Some(v) if slots.len() == 1 => v.as_u64().map(|x| vec![x]),
                Some(v) => v
                    .as_arr()
                    .filter(|a| a.len() == slots.len())
                    .and_then(|a| a.iter().map(Json::as_u64).collect()),
            };
            let values = values.ok_or(format!("missing or malformed counter '{}'", f.key))?;
            slots.copy_from_slice(&values);
        }
        let dropped = header
            .get("dropped")
            .and_then(Json::as_u64)
            .ok_or("missing 'dropped'")?;

        let mut events = Vec::new();
        for (lineno, line) in lines {
            let v = Json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            events.push(parse_event(&v).map_err(|e| format!("line {}: {e}", lineno + 1))?);
        }
        Ok(ParsedTrace {
            meta,
            mode,
            counters,
            dropped,
            events,
        })
    }

    /// Metadata lookup.
    pub fn meta_get(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

fn parse_event(v: &Json) -> Result<TraceEvent, String> {
    let round = v.get("r").and_then(Json::as_u64).ok_or("missing 'r'")?;
    let kind = v.get("ev").and_then(Json::as_str).ok_or("missing 'ev'")?;
    let event = Event::read_fields(kind, v)?;
    Ok(TraceEvent { round, event })
}

/// Aggregate view of a trace: exact totals from the counters plus
/// per-phase round counts and event-kind tallies from the recorded events.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSummary {
    /// Exact counters (from the tracer or the artifact header).
    pub counters: Counters,
    /// Rounds executed (`counters.rounds`).
    pub rounds: u64,
    /// Rounds in each phase, in phase order (from structural events, so
    /// exact even for sampled traces; empty when no phases were traced).
    pub per_phase_rounds: Vec<u64>,
    /// Recorded event counts by kind name.
    pub events_by_kind: BTreeMap<&'static str, u64>,
    /// Stability windows that held / broke, by definition number.
    pub windows_held: BTreeMap<u8, (u64, u64)>,
    /// Whether the run completed (from [`Event::RunEnd`], if recorded).
    pub completed: Option<bool>,
    /// Events evicted or sampled out (nonzero means the event list — not
    /// the counters — is partial).
    pub dropped: u64,
}

impl TraceSummary {
    /// Summarise a live tracer.
    pub fn from_tracer(tracer: &Tracer) -> TraceSummary {
        Self::summarize(*tracer.counters(), tracer.dropped(), tracer.events())
    }

    /// Summarise a parsed artifact.
    pub fn from_trace(trace: &ParsedTrace) -> TraceSummary {
        Self::summarize(trace.counters, trace.dropped, trace.events.iter())
    }

    fn summarize<'a>(
        counters: Counters,
        dropped: u64,
        events: impl Iterator<Item = &'a TraceEvent>,
    ) -> TraceSummary {
        let mut s = TraceSummary {
            rounds: counters.rounds,
            counters,
            dropped,
            ..TraceSummary::default()
        };
        let mut in_phase = 0u64;
        let mut saw_phase = false;
        for te in events {
            *s.events_by_kind.entry(te.event.kind()).or_insert(0) += 1;
            match &te.event {
                Event::RoundStart => in_phase += 1,
                Event::PhaseAdvance { .. } => {
                    if saw_phase {
                        s.per_phase_rounds.push(in_phase);
                    }
                    saw_phase = true;
                    in_phase = 0;
                }
                Event::StabilityWindow {
                    def,
                    open: false,
                    held,
                } => {
                    let slot = s.windows_held.entry(*def).or_insert((0, 0));
                    if *held {
                        slot.0 += 1;
                    } else {
                        slot.1 += 1;
                    }
                }
                Event::RunEnd { completed, .. } => s.completed = Some(*completed),
                _ => {}
            }
        }
        if saw_phase {
            s.per_phase_rounds.push(in_phase);
        }
        s
    }

    /// Render a human-readable report.
    pub fn to_text(&self) -> String {
        let c = &self.counters;
        let mut out = String::new();
        out.push_str(&format!(
            "rounds: {}  phases: {}  completed: {}\n",
            c.rounds,
            c.phases,
            self.completed.map_or("?".into(), |b| b.to_string()),
        ));
        out.push_str(&format!(
            "tokens sent: {}  packets: {}  bytes: {}  (heads {}, gateways {}, members {})\n",
            c.tokens_sent,
            c.packets_sent,
            c.bytes_sent,
            c.tokens_by_role[0],
            c.tokens_by_role[1],
            c.tokens_by_role[2],
        ));
        out.push_str(&format!("re-affiliations: {}\n", c.reaffiliations));
        if c.faults_injected + c.crashes + c.recoveries + c.retransmits > 0 {
            out.push_str(&format!(
                "faults: {} dropped deliveries, {} crashes, {} recoveries, {} retransmits\n",
                c.faults_injected, c.crashes, c.recoveries, c.retransmits,
            ));
        }
        if c.delays_injected + c.duplicates_injected + c.dups_discarded + c.retransmit_timeouts > 0
        {
            out.push_str(&format!(
                "delivery chaos: {} delayed, {} duplicated ({} dups discarded), \
                 {} timer retransmits\n",
                c.delays_injected, c.duplicates_injected, c.dups_discarded, c.retransmit_timeouts,
            ));
        }
        if c.stall_probes > 0 {
            out.push_str(&format!("stall watchdog: {} node probes\n", c.stall_probes));
        }
        if !self.per_phase_rounds.is_empty() {
            out.push_str("rounds per phase:");
            for (i, r) in self.per_phase_rounds.iter().enumerate() {
                out.push_str(&format!("  p{i}={r}"));
            }
            out.push('\n');
        }
        if !self.windows_held.is_empty() {
            out.push_str("stability windows (held/broke):");
            for (def, (held, broke)) in &self.windows_held {
                out.push_str(&format!("  def{def}={held}/{broke}"));
            }
            out.push('\n');
        }
        out.push_str("recorded events:");
        for (kind, n) in &self.events_by_kind {
            out.push_str(&format!("  {kind}={n}"));
        }
        out.push('\n');
        if self.dropped > 0 {
            out.push_str(&format!(
                "note: {} events dropped (ring overflow or sampling); counters remain exact\n",
                self.dropped
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check, CaseCtx};
    use crate::rng::Rng;

    /// A member's one-token push of `token` from `node` to head 0.
    fn push(node: u64, token: u64) -> Event {
        let (count, role, dst) = (1, Role::Member, 0);
        Event::TokenPush {
            node,
            token,
            count,
            role,
            dst,
        }
    }

    /// A broadcast of `count` tokens, `token` first, by `node` as `role`.
    fn broadcast(node: u64, token: u64, count: u64, role: Role) -> Event {
        Event::HeadBroadcast {
            node,
            token,
            count,
            role,
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        assert!(!t.enabled());
        t.round_start(0);
        t.emit_with_bytes(0, push(1, 2), 40);
        t.run_end(1, true);
        assert!(t.is_empty());
        assert_eq!(t.counters(), &Counters::default());
    }

    #[test]
    fn counters_aggregate_tokens_packets_roles_and_bytes() {
        let mut t = Tracer::new(ObsConfig::full());
        t.round_start(0);
        t.emit_with_bytes(0, push(5, 9), 40);
        t.emit_with_bytes(0, broadcast(0, 3, 2, Role::Head), 56);
        t.emit_with_bytes(0, broadcast(2, 3, 1, Role::Gateway), 40);
        t.emit(
            1,
            Event::Reaffiliation {
                node: 5,
                from: Some(0),
                to: Some(2),
            },
        );
        t.run_end(1, false);
        let c = t.counters();
        assert_eq!(c.tokens_sent, 4);
        assert_eq!(c.packets_sent, 3);
        assert_eq!(c.bytes_sent, 136);
        assert_eq!(c.tokens_by_role, [2, 1, 1]);
        assert_eq!(c.reaffiliations, 1);
        assert_eq!(c.rounds, 1);
    }

    #[test]
    fn ring_overflow_evicts_oldest_and_counts_drops() {
        let mut t = Tracer::new(ObsConfig::full().capacity(4));
        for round in 0..10 {
            t.round_start(round);
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 6);
        // Oldest-first iteration after wraparound: rounds 6..10 survive.
        let rounds: Vec<u64> = t.events().map(|e| e.round).collect();
        assert_eq!(rounds, vec![6, 7, 8, 9]);
        // Counters are exact despite eviction.
        assert_eq!(t.counters().rounds, 10);
    }

    #[test]
    fn ring_keeps_order_across_chunks_and_wraparound() {
        // Unbounded, a partly filled last chunk, and a wrap that starts
        // inside a chunk and crosses chunk boundaries.
        for capacity in [usize::MAX, 2 * RING_CHUNK + 5, RING_CHUNK, 3] {
            let mut ring = Ring::new(capacity);
            let mut reference = std::collections::VecDeque::new();
            for round in 0..(3 * RING_CHUNK + 17) as u64 {
                ring.push(TraceEvent {
                    round,
                    event: Event::RoundStart,
                });
                if reference.len() == capacity {
                    reference.pop_front();
                }
                reference.push_back(round);
            }
            let held: Vec<u64> = ring.iter().map(|e| e.round).collect();
            assert_eq!(held, Vec::from(reference), "capacity {capacity}");
            assert_eq!(ring.len(), held.len());
            assert_eq!(ring.dropped as usize, 3 * RING_CHUNK + 17 - held.len());
            assert!(ring.chunks.iter().all(|c| c.capacity() <= RING_CHUNK));
        }
    }

    #[test]
    fn sampling_keeps_structural_events_and_exact_counters() {
        let mut t = Tracer::new(ObsConfig::sampled(3));
        t.set_phase_len(2);
        for round in 0..4u64 {
            t.round_start(round);
            for node in 0..5 {
                t.emit_with_bytes(round, push(node, node), 40);
            }
        }
        t.run_end(4, true);
        // 20 data events, one in three recorded.
        let pushes = t
            .events()
            .filter(|e| matches!(e.event, Event::TokenPush { .. }))
            .count();
        assert_eq!(pushes, 7);
        // Every structural event survives.
        let starts = t.events().filter(|e| e.event == Event::RoundStart).count();
        assert_eq!(starts, 4);
        let phases = t
            .events()
            .filter(|e| matches!(e.event, Event::PhaseAdvance { .. }))
            .count();
        assert_eq!(phases, 2);
        // Counters stay exact.
        assert_eq!(t.counters().tokens_sent, 20);
        // Summary's per-phase round counts stay exact too.
        let s = TraceSummary::from_tracer(&t);
        assert_eq!(s.per_phase_rounds, vec![2, 2]);
    }

    #[test]
    fn auto_phase_spans_feed_the_histogram() {
        let mut t = Tracer::new(ObsConfig::full());
        t.set_phase_len(3);
        for round in 0..7 {
            t.round_start(round);
        }
        t.run_end(7, true);
        assert_eq!(t.counters().phases, 3);
        let h = t.rounds_per_phase();
        assert_eq!(h.count(), 3, "two full phases + one partial");
        assert_eq!(h.max(), 3);
    }

    #[test]
    fn jsonl_round_trips_through_the_bench_parser() {
        let mut t = Tracer::new(ObsConfig::full());
        t.meta("algorithm", "alg1");
        t.meta("seed", "42");
        t.set_phase_len(2);
        t.round_start(0);
        t.emit_with_bytes(0, push(5, 9), 40);
        t.emit_with_bytes(0, broadcast(0, 3, 1, Role::Head), 40);
        t.round_start(1);
        t.emit(
            1,
            Event::Reaffiliation {
                node: 4,
                from: Some(0),
                to: None,
            },
        );
        t.emit(
            0,
            Event::StabilityWindow {
                def: 8,
                open: true,
                held: true,
            },
        );
        t.emit(
            1,
            Event::StabilityWindow {
                def: 8,
                open: false,
                held: true,
            },
        );
        t.run_end(2, true);

        let text = t.to_jsonl();
        // Every line is valid JSON on its own (the bench parser).
        for line in text.lines() {
            Json::parse(line).unwrap();
        }
        let parsed = ParsedTrace::parse_jsonl(&text).unwrap();
        assert_eq!(parsed.meta_get("algorithm"), Some("alg1"));
        assert_eq!(parsed.counters, *t.counters());
        assert_eq!(parsed.events.len(), t.len());
        assert_eq!(parsed.events[0].event.kind(), "phase_advance");
        let summary = TraceSummary::from_trace(&parsed);
        assert_eq!(summary, TraceSummary::from_tracer(&t));
        assert_eq!(summary.windows_held.get(&8), Some(&(1, 0)));
        assert_eq!(summary.completed, Some(true));
    }

    #[test]
    fn parse_rejects_malformed_traces() {
        assert!(ParsedTrace::parse_jsonl("").is_err());
        assert!(ParsedTrace::parse_jsonl("{}").is_err());
        let wrong_schema = Tracer::new(ObsConfig::full())
            .to_jsonl()
            .replace(SCHEMA, "other/v9");
        assert!(ParsedTrace::parse_jsonl(&wrong_schema).is_err());
        let mut t = Tracer::new(ObsConfig::full());
        t.round_start(0);
        let mut text = t.to_jsonl();
        text.push_str("{\"r\":1,\"ev\":\"mystery\"}\n");
        assert!(ParsedTrace::parse_jsonl(&text).is_err());
    }

    #[test]
    fn parse_accepts_headers_with_retired_runtime_gauges() {
        // Event-mode artifacts once carried the scheduler-dependent
        // `reassembly_stalls` / `mailbox_depth_max` counters; they still
        // parse, and the gauges are simply not part of the counters.
        let mut t = Tracer::new(ObsConfig::full());
        t.round_start(0);
        t.note_dedup(3);
        let text = t.to_jsonl();
        let old = text.replacen(
            "\"dups_discarded\":3",
            "\"reassembly_stalls\":75,\"mailbox_depth_max\":9,\"dups_discarded\":3",
            1,
        );
        assert_ne!(old, text, "the header must carry the dedup gauge");
        let parsed = ParsedTrace::parse_jsonl(&old).expect("old header parses");
        assert_eq!(parsed.counters, *t.counters());
        assert_eq!(parsed.counters.dups_discarded, 3);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.buckets[0], 2); // 0 and 1
        assert_eq!(h.buckets[1], 2); // 2 and 3
        assert_eq!(h.buckets[2], 1); // 4
        assert_eq!(h.buckets[9], 1); // 1000 in [512, 1024)
    }

    #[test]
    fn role_wire_names_round_trip() {
        for role in [Role::Head, Role::Gateway, Role::Member] {
            assert_eq!(Role::parse(role.as_str()), Some(role));
        }
        assert_eq!(Role::parse("router"), None);
    }

    #[test]
    fn fault_events_round_trip_and_count() {
        let mut t = Tracer::new(ObsConfig::full());
        t.round_start(0);
        t.emit(
            0,
            Event::FaultInjected {
                node: 3,
                dst: Some(1),
                kind: FaultKind::Loss,
            },
        );
        t.emit(
            0,
            Event::FaultInjected {
                node: 4,
                dst: None,
                kind: FaultKind::Partition,
            },
        );
        t.emit(
            1,
            Event::Crash {
                node: 2,
                durable: true,
            },
        );
        t.emit(
            2,
            Event::Retransmit {
                node: 3,
                count: 2,
                dst: Some(0),
            },
        );
        t.emit(3, Event::Recover { node: 2 });
        t.run_end(4, false);
        let c = t.counters();
        assert_eq!(c.faults_injected, 2);
        assert_eq!(c.crashes, 1);
        assert_eq!(c.recoveries, 1);
        assert_eq!(c.retransmits, 1);

        let text = t.to_jsonl();
        let parsed = ParsedTrace::parse_jsonl(&text).unwrap();
        assert_eq!(parsed.counters, *t.counters());
        assert_eq!(
            parsed.events[1].event,
            Event::FaultInjected {
                node: 3,
                dst: Some(1),
                kind: FaultKind::Loss
            }
        );
        let summary = TraceSummary::from_trace(&parsed);
        assert!(summary.to_text().contains("faults: 2 dropped deliveries"));
    }

    #[test]
    fn fault_free_artifacts_omit_fault_counters() {
        let mut t = Tracer::new(ObsConfig::full());
        t.round_start(0);
        t.run_end(1, true);
        let text = t.to_jsonl();
        assert!(
            !text.contains("faults_injected") && !text.contains("retransmits"),
            "zero fault counters must not appear on the wire"
        );
        // ... and parse back as zeros.
        let parsed = ParsedTrace::parse_jsonl(&text).unwrap();
        assert_eq!(parsed.counters.faults_injected, 0);
        assert_eq!(parsed.counters.retransmits, 0);

        let mut t = Tracer::new(ObsConfig::full());
        t.round_start(0);
        t.emit(
            0,
            Event::Crash {
                node: 1,
                durable: false,
            },
        );
        t.run_end(1, false);
        assert!(t.to_jsonl().contains("\"crashes\":1"));
    }

    #[test]
    fn fault_kinds_are_sampled_as_data_events() {
        let ev = Event::FaultInjected {
            node: 0,
            dst: None,
            kind: FaultKind::Loss,
        };
        assert!(ev.is_data());
        assert!(Event::Retransmit {
            node: 0,
            count: 1,
            dst: None
        }
        .is_data());
        assert!(!Event::Crash {
            node: 0,
            durable: false
        }
        .is_data());
        assert!(!Event::Recover { node: 0 }.is_data());
        for kind in [FaultKind::Loss, FaultKind::Partition] {
            assert_eq!(FaultKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(FaultKind::parse("gremlin"), None);
    }

    /// Slot of each `Event` variant. The match is exhaustive, so a new
    /// variant does not compile until it has a slot — and the writer table
    /// below then fails until it has a row for it.
    fn variant_slot(e: &Event) -> usize {
        match e {
            Event::RoundStart => 0,
            Event::TokenPush { .. } => 1,
            Event::HeadBroadcast { .. } => 2,
            Event::PhaseAdvance { .. } => 3,
            Event::Reaffiliation { .. } => 4,
            Event::StabilityWindow { .. } => 5,
            Event::FaultInjected { .. } => 6,
            Event::Crash { .. } => 7,
            Event::Recover { .. } => 8,
            Event::Retransmit { .. } => 9,
            Event::Delayed { .. } => 10,
            Event::Duplicated { .. } => 11,
            Event::RetransmitTimeout { .. } => 12,
            Event::StallProbe { .. } => 13,
            Event::RunEnd { .. } => 14,
        }
    }

    #[test]
    fn event_writer_prints_one_literal_line_per_variant() {
        // 2⁵³: the largest integer the `Json` tree renderer prints exactly.
        const TOP: u64 = 1 << 53;
        let rows: Vec<(u64, Event, &str)> = vec![
            (0, Event::RoundStart, r#"{"r":0,"ev":"round_start"}"#),
            (
                TOP,
                Event::TokenPush {
                    node: 0,
                    token: TOP,
                    count: 1,
                    role: Role::Member,
                    dst: TOP,
                },
                r#"{"r":9007199254740992,"ev":"token_push","node":0,"token":9007199254740992,"count":1,"role":"member","dst":9007199254740992}"#,
            ),
            (
                3,
                Event::TokenPush {
                    node: 12,
                    token: 7,
                    count: 0,
                    role: Role::Gateway,
                    dst: 0,
                },
                r#"{"r":3,"ev":"token_push","node":12,"token":7,"count":0,"role":"gateway","dst":0}"#,
            ),
            (
                7,
                Event::HeadBroadcast {
                    node: TOP,
                    token: 0,
                    count: 64,
                    role: Role::Head,
                },
                r#"{"r":7,"ev":"head_broadcast","node":9007199254740992,"token":0,"count":64,"role":"head"}"#,
            ),
            (
                0,
                Event::PhaseAdvance { phase: 0 },
                r#"{"r":0,"ev":"phase_advance","phase":0}"#,
            ),
            (
                1,
                Event::Reaffiliation {
                    node: 4,
                    from: None,
                    to: Some(TOP),
                },
                r#"{"r":1,"ev":"reaffiliation","node":4,"from":null,"to":9007199254740992}"#,
            ),
            (
                2,
                Event::Reaffiliation {
                    node: 0,
                    from: Some(0),
                    to: None,
                },
                r#"{"r":2,"ev":"reaffiliation","node":0,"from":0,"to":null}"#,
            ),
            (
                0,
                Event::StabilityWindow {
                    def: 8,
                    open: true,
                    held: false,
                },
                r#"{"r":0,"ev":"stability_window","def":8,"open":true,"held":false}"#,
            ),
            (
                9,
                Event::StabilityWindow {
                    def: 2,
                    open: false,
                    held: true,
                },
                r#"{"r":9,"ev":"stability_window","def":2,"open":false,"held":true}"#,
            ),
            (
                5,
                Event::FaultInjected {
                    node: 1,
                    dst: None,
                    kind: FaultKind::Loss,
                },
                r#"{"r":5,"ev":"fault_injected","node":1,"dst":null,"kind":"loss"}"#,
            ),
            (
                5,
                Event::FaultInjected {
                    node: 2,
                    dst: Some(0),
                    kind: FaultKind::Partition,
                },
                r#"{"r":5,"ev":"fault_injected","node":2,"dst":0,"kind":"partition"}"#,
            ),
            (
                6,
                Event::Crash {
                    node: 3,
                    durable: true,
                },
                r#"{"r":6,"ev":"crash","node":3,"durable":true}"#,
            ),
            (
                6,
                Event::Crash {
                    node: 0,
                    durable: false,
                },
                r#"{"r":6,"ev":"crash","node":0,"durable":false}"#,
            ),
            (
                8,
                Event::Recover { node: TOP },
                r#"{"r":8,"ev":"recover","node":9007199254740992}"#,
            ),
            (
                4,
                Event::Retransmit {
                    node: 1,
                    count: TOP,
                    dst: None,
                },
                r#"{"r":4,"ev":"retransmit","node":1,"count":9007199254740992,"dst":null}"#,
            ),
            (
                4,
                Event::Retransmit {
                    node: 0,
                    count: 0,
                    dst: Some(5),
                },
                r#"{"r":4,"ev":"retransmit","node":0,"count":0,"dst":5}"#,
            ),
            (
                10,
                Event::Delayed {
                    node: 1,
                    dst: 0,
                    rounds: TOP,
                },
                r#"{"r":10,"ev":"delayed","node":1,"dst":0,"rounds":9007199254740992}"#,
            ),
            (
                11,
                Event::Duplicated { node: 0, dst: TOP },
                r#"{"r":11,"ev":"duplicated","node":0,"dst":9007199254740992}"#,
            ),
            (
                12,
                Event::RetransmitTimeout {
                    node: 4,
                    dst: 5,
                    attempt: 0,
                },
                r#"{"r":12,"ev":"retransmit_timeout","node":4,"dst":5,"attempt":0}"#,
            ),
            (
                TOP,
                Event::StallProbe { node: 0 },
                r#"{"r":9007199254740992,"ev":"stall_probe","node":0}"#,
            ),
            (
                TOP,
                Event::RunEnd {
                    rounds: TOP,
                    completed: true,
                },
                r#"{"r":9007199254740992,"ev":"run_end","rounds":9007199254740992,"completed":true}"#,
            ),
            (
                0,
                Event::RunEnd {
                    rounds: 0,
                    completed: false,
                },
                r#"{"r":0,"ev":"run_end","rounds":0,"completed":false}"#,
            ),
        ];
        let mut covered = [false; 15];
        for (round, event, expected) in rows {
            covered[variant_slot(&event)] = true;
            let mut line = String::new();
            write_event(&mut line, &TraceEvent { round, event });
            assert_eq!(line, expected);
            // The tree renderer prints the same bytes for the same object.
            assert_eq!(Json::parse(expected).unwrap().to_string(), expected);
        }
        assert!(covered.iter().all(|&c| c), "a variant has no row");

        // Above 2⁵³ the writer prints the exact integer, where the tree
        // renderer printed the nearest f64 (2⁵³ + 1 came out as 2⁵³).
        for (round, expected) in [
            (TOP + 1, r#"{"r":9007199254740993,"ev":"round_start"}"#),
            (u64::MAX, r#"{"r":18446744073709551615,"ev":"round_start"}"#),
        ] {
            let mut line = String::new();
            let event = Event::RoundStart;
            write_event(&mut line, &TraceEvent { round, event });
            assert_eq!(line, expected);
        }
    }

    #[test]
    fn push_u64_matches_to_string() {
        let mut values = vec![0, u64::MAX];
        let mut power = 1u64;
        for _ in 1..=19 {
            power *= 10;
            values.extend([power - 1, power]);
        }
        // Random values of every digit count.
        let mut rng = crate::rng::Xoshiro256StarStar::seed_from_u64(34);
        for shift in 0..64 {
            for _ in 0..64 {
                values.push(rng.next_u64() >> shift);
            }
        }
        for v in values {
            let mut out = String::from("x");
            push_u64(&mut out, v);
            assert_eq!(out, format!("x{v}"));
        }
    }

    /// One event of every variant, its integers drawn by `int`, its roles,
    /// options, flags and fault kinds by `c`.
    fn every_variant(c: &mut CaseCtx, int: fn(&mut CaseCtx) -> u64) -> Vec<Event> {
        let role = |c: &mut CaseCtx| *c.pick(&[Role::Head, Role::Gateway, Role::Member]);
        let opt = |c: &mut CaseCtx| c.random_bool(0.5).then(|| int(c));
        vec![
            Event::RoundStart,
            Event::TokenPush {
                node: int(c),
                token: int(c),
                count: int(c),
                role: role(c),
                dst: int(c),
            },
            Event::HeadBroadcast {
                node: int(c),
                token: int(c),
                count: int(c),
                role: role(c),
            },
            Event::PhaseAdvance { phase: int(c) },
            Event::Reaffiliation {
                node: int(c),
                from: opt(c),
                to: opt(c),
            },
            Event::StabilityWindow {
                def: c.next_u64() as u8,
                open: c.random_bool(0.5),
                held: c.random_bool(0.5),
            },
            Event::FaultInjected {
                node: int(c),
                dst: opt(c),
                kind: *c.pick(&[FaultKind::Loss, FaultKind::Partition]),
            },
            Event::Crash {
                node: int(c),
                durable: c.random_bool(0.5),
            },
            Event::Recover { node: int(c) },
            Event::Retransmit {
                node: int(c),
                count: int(c),
                dst: opt(c),
            },
            Event::Delayed {
                node: int(c),
                dst: int(c),
                rounds: int(c),
            },
            Event::Duplicated {
                node: int(c),
                dst: int(c),
            },
            Event::RetransmitTimeout {
                node: int(c),
                dst: int(c),
                attempt: int(c),
            },
            Event::StallProbe { node: int(c) },
            Event::RunEnd {
                rounds: int(c),
                completed: c.random_bool(0.5),
            },
        ]
    }

    #[test]
    fn event_writer_matches_the_tree_renderer_and_parser() {
        let header = Tracer::new(ObsConfig::full()).to_jsonl();
        check(
            "event_writer_matches_the_tree_renderer_and_parser",
            64,
            |c| {
                // Up to 2⁵³, every digit count about equally often.
                let int = |c: &mut CaseCtx| {
                    let shift = c.random_range(11..=64u32);
                    c.next_u64().checked_shr(shift).unwrap_or(0)
                };
                let events = every_variant(c, int);
                let mut covered = [false; 15];
                for event in events {
                    covered[variant_slot(&event)] = true;
                    let te = TraceEvent {
                        round: int(c),
                        event,
                    };
                    let mut line = String::new();
                    write_event(&mut line, &te);
                    assert_eq!(Json::parse(&line).unwrap().to_string(), line);
                    let parsed = ParsedTrace::parse_jsonl(&format!("{header}{line}\n")).unwrap();
                    assert_eq!(parsed.events, vec![te], "{line}");
                }
                assert!(covered.iter().all(|&c| c), "a variant has no event");
            },
        );
    }

    #[test]
    fn max_line_bounds_every_line_and_the_reservation() {
        // The longest line: a gateway's token_push with 20-digit integers.
        let mut line = String::new();
        let worst = Event::TokenPush {
            node: u64::MAX,
            token: u64::MAX,
            count: u64::MAX,
            role: Role::Gateway,
            dst: u64::MAX,
        };
        write_event(
            &mut line,
            &TraceEvent {
                round: u64::MAX,
                event: worst,
            },
        );
        assert_eq!(line.len() + 1, MAX_LINE);
        check("max_line_bounds_every_line", 16, |c| {
            for event in every_variant(c, |_| u64::MAX) {
                let mut line = String::new();
                write_event(
                    &mut line,
                    &TraceEvent {
                        round: u64::MAX,
                        event,
                    },
                );
                assert!(line.len() < MAX_LINE, "{line}");
            }
        });
        // to_jsonl writes within the capacity it reserves.
        let mut t = Tracer::new(ObsConfig::full());
        emit_sample_run(&mut t);
        let header = t.header().to_string();
        assert!(t.to_jsonl().len() <= header.len() + 1 + t.len() * MAX_LINE);
    }

    fn emit_sample_run(t: &mut Tracer) {
        t.meta("algorithm", "alg1");
        t.set_phase_len(2);
        for round in 0..5 {
            t.round_start(round);
            t.emit_with_bytes(round, push(round, round), 40);
            if round == 2 {
                t.emit(
                    round,
                    Event::FaultInjected {
                        node: 1,
                        dst: Some(0),
                        kind: FaultKind::Loss,
                    },
                );
                t.emit(
                    round,
                    Event::Retransmit {
                        node: 1,
                        count: 1,
                        dst: Some(0),
                    },
                );
            }
        }
        t.run_end(5, true);
    }

    #[test]
    fn streamed_artifact_is_byte_identical_to_in_memory() {
        let path = std::env::temp_dir().join(format!(
            "hinet-obs-stream-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));

        let mut mem = Tracer::new(ObsConfig::full());
        emit_sample_run(&mut mem);

        let mut streamed = Tracer::new(ObsConfig::full());
        streamed.stream_to(&path).unwrap();
        assert_eq!(streamed.streamed(), Some(0));
        emit_sample_run(&mut streamed);
        assert!(streamed.streamed().unwrap() > 0);
        let written = streamed.finish_stream().unwrap().unwrap();

        let on_disk = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(on_disk, mem.to_jsonl(), "streamed bytes differ");
        assert_eq!(written as usize, mem.len());
        assert!(
            !path.with_extension("jsonl.part").exists(),
            "spill file must be cleaned up"
        );
        // Finishing twice is a no-op.
        assert_eq!(streamed.finish_stream().unwrap(), None);
    }

    #[test]
    fn switching_to_streaming_mid_run_spills_the_ring() {
        let path = std::env::temp_dir().join(format!(
            "hinet-obs-midrun-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let mut t = Tracer::new(ObsConfig::full());
        t.round_start(0);
        t.round_start(1);
        t.stream_to(&path).unwrap();
        assert_eq!(t.streamed(), Some(2), "ring events spill into the sink");
        assert!(t.is_empty(), "ring is drained after the switch");
        t.round_start(2);
        t.run_end(3, true);
        t.finish_stream().unwrap();
        let parsed = ParsedTrace::parse_jsonl(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(parsed.counters.rounds, 3);
        assert_eq!(parsed.events.len(), 4);
    }
}
