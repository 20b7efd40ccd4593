//! One-pass streaming verification of the stability definitions.
//!
//! At million-node × long-horizon scale a materialised trace no longer
//! fits in memory, so
//! [`StabilityStream`](crate::stability::stream::StabilityStream) consumes
//! a dynamics trace **one round at a time** and
//! maintains Definitions 2–8 online:
//!
//! * **Defs 2/3/4** (head set / membership / hierarchy stability) —
//!   run-length tracking against the window's first hierarchy, plus a
//!   gcd-of-change-rounds summary that answers Def 4 for *every* `T` at
//!   once (an aligned window contains no hierarchy change iff `T` divides
//!   every change round).
//! * **Defs 5/6/7** (stable head-connecting subgraph, L-hop bound) — the
//!   open window's edge-intersection, with each round folded in **in
//!   place**
//!   ([`Graph::intersect_in_place`](hinet_graph::Graph::intersect_in_place):
//!   no per-round graph allocation; the same "carry the stable subgraph
//!   forward" idiom as the LCC maintenance in
//!   [`LccMaintainer`](crate::clustering::LccMaintainer)). It is evaluated
//!   with the window's first-round head set by
//!   one [`Hierarchy::l_hop_connectivity`] call — one multi-source BFS
//!   plus a sort of the boundary edges — which answers Def 6 and, by
//!   whether a value exists, Def 5.
//! * **Def 8** — the conjunction, per aligned window.
//!
//! Verdicts follow the windowing contract on [`crate::stability`] — per
//! window, per definition, including the trailing partial window. The
//! differential property plane (`tests/prop_stream.rs`) pins them to a
//! batch restatement of each definition over a materialised trace, across
//! generated, fuzzed and fault-perturbed traces, under arbitrary chunk
//! boundaries.
//!
//! # Memory model
//!
//! Per-round state is the open window's edge-intersection (only shrinks
//! within a window), two `Arc` hierarchy handles and `O(1)` counters —
//! independent of the horizon. The optional **spectrum** mode
//! ([`with_spectrum`](crate::stability::stream::StabilityStream::with_spectrum))
//! adds an `edge → present-since` map
//! (bounded by the current snapshot's edge count) and 5 bytes per candidate
//! `T`, and answers `max_hinet_t` for *any* `L` at end-of-stream without a
//! second pass.
//! [`peak_state_bytes`](crate::stability::stream::StabilityStream::peak_state_bytes)
//! reports the
//! deterministic high-water estimate of all retained state (this is what
//! the ci long-horizon smoke gates; it is an estimate of live state, not
//! allocator RSS).

use crate::hierarchy::Hierarchy;
use crate::stability::same_structure;
use hinet_graph::graph::{Graph, GraphBuilder, NodeId};
use hinet_rt::obs::Tracer;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Verdict for one aligned window (see the windowing contract on
/// [`crate::stability`]).
///
/// `def3` is the whole-mapping membership verdict (every cluster's member
/// set unchanged); it is carried so the implication lattice (Def 4 ⇒
/// Def 2 ∧ Def 3) is checkable, but it is per-cluster rather than
/// per-window in the paper and is not emitted as an event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WindowVerdict {
    /// First round of the window.
    pub start: usize,
    /// Window length (equal to the configured `t` except for a trailing
    /// partial window).
    pub len: usize,
    /// Definition 2: head set constant over the window.
    pub def2: bool,
    /// Definition 3: every cluster's member set constant over the window.
    pub def3: bool,
    /// Definition 4: hierarchy structure constant over the window.
    pub def4: bool,
    /// Definition 5: the window's edge-intersection connects all heads.
    pub def5: bool,
    /// Definition 6: L-hop head connectivity of the intersection ≤ `l`.
    pub def6: bool,
    /// Definition 7: Def 5 ∧ Def 6.
    pub def7: bool,
    /// Definition 8: Def 4 ∧ Def 7 — the full (T, L)-HiNet predicate.
    pub def8: bool,
    /// Measured L-hop head connectivity of the window's intersection
    /// (`None` when the heads are not mutually reachable in it).
    pub l_hop: Option<usize>,
}

impl WindowVerdict {
    /// Emit this verdict as paired `stability_window` open/close events
    /// (defs 2, 4, 5, 6, 7, 8; open at the window's first round, close at
    /// its last, both carrying the verdict).
    pub fn emit_into(&self, tracer: &mut Tracer) {
        let last = (self.start + self.len - 1) as u64;
        for (def, held) in [
            (2u8, self.def2),
            (4, self.def4),
            (5, self.def5),
            (6, self.def6),
            (7, self.def7),
            (8, self.def8),
        ] {
            tracer.stability_window(self.start as u64, def, true, held);
            tracer.stability_window(last, def, false, held);
        }
    }
}

/// The first definition violation observed on the stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The smallest violated paper definition (2, 4, 5 or 6).
    pub def: u8,
    /// First round of the violating window.
    pub window_start: usize,
    /// Round at which the violation was detected. Defs 2/4 are detected at
    /// the exact round the hierarchy deviates; Defs 5/6 at the exact round
    /// the window's intersection breaks when the connectivity certificate
    /// is enabled ([`StabilityStream::with_certificate`]), otherwise at the
    /// window's last round.
    pub round: usize,
}

/// `max_hinet_t` answers for every candidate `T`, built in spectrum mode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpectrumReport {
    len: usize,
    change_gcd: u64,
    /// Indexed by `t - 1`: worst window L-hop value for `t`, `None` when
    /// some window's intersection disconnects the heads.
    worst: Vec<Option<u32>>,
}

impl SpectrumReport {
    /// Largest `t ≤ len` such that the streamed trace was a (t, l)-HiNet
    /// over aligned windows, or `None` if not even (1, l).
    fn max_t_for(&self, l: usize) -> Option<usize> {
        (1..=self.len).rev().find(|&t| {
            (self.change_gcd == 0 || self.change_gcd % t as u64 == 0)
                && matches!(self.worst.get(t - 1), Some(Some(w)) if *w as usize <= l)
        })
    }
}

/// End-of-stream summary.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamReport {
    /// Rounds consumed.
    pub rounds: usize,
    /// Aligned windows closed (including a trailing partial window).
    pub windows: usize,
    /// Windows in which Definition 8 held; the trace is a (t, l)-HiNet iff
    /// this equals `windows`.
    pub hinet_windows: usize,
    /// Smallest `l` making the trace a (t, l)-HiNet connectivity-wise for
    /// the configured `t` (the worst window's L-hop head connectivity), or
    /// `None` if some window's intersection splits the heads.
    pub min_hinet_l: Option<usize>,
    /// Largest sliding-window hierarchy stability: the largest `t` such
    /// that every `t` consecutive rounds share one hierarchy structure.
    pub max_sliding_hierarchy_t: usize,
    /// Whether the head set never changed (Remark 1's precondition).
    pub heads_forever_stable: bool,
    /// First observed definition violation, if any.
    pub violation: Option<Violation>,
    /// Deterministic high-water estimate of retained state, in bytes.
    pub peak_state_bytes: usize,
    /// Per-`T` spectrum (present only in spectrum mode).
    pub spectrum: Option<SpectrumReport>,
}

impl StreamReport {
    /// Largest `t` such that the trace was a (t, l)-HiNet, answered from
    /// the spectrum. Returns `None` when the stream ran without
    /// [`StabilityStream::with_spectrum`] or when no `t` works.
    pub fn max_hinet_t(&self, l: usize) -> Option<usize> {
        self.spectrum.as_ref().and_then(|s| s.max_t_for(l))
    }
}

/// State of the currently open aligned window.
struct WindowState {
    start: usize,
    first: Arc<Hierarchy>,
    inter: Graph,
    /// Intersection edge count after the previous round, for certificate
    /// shrink detection.
    last_m: usize,
    def2: bool,
    def3: bool,
    def4: bool,
}

/// Incremental one-pass verifier for Definitions 2–8 over aligned windows.
///
/// Feed rounds with [`push`](Self::push) (or [`push_chunk`](Self::push_chunk)
/// — chunk boundaries never change verdicts); each window close returns
/// that window's [`WindowVerdict`], and [`finish`](Self::finish) closes the trailing partial window and
/// returns the [`StreamReport`].
///
/// ```
/// use hinet_cluster::hierarchy::single_cluster;
/// use hinet_cluster::stability::stream::StabilityStream;
/// use hinet_graph::graph::{Graph, NodeId};
/// use std::sync::Arc;
///
/// let g = Arc::new(Graph::star(5));
/// let h = Arc::new(single_cluster(5, NodeId(0)));
/// let mut stream = StabilityStream::new(2, 1);
/// let mut verdicts = Vec::new();
/// for _ in 0..5 {
///     verdicts.extend(stream.push(&g, &h));
/// }
/// let (last, report) = stream.finish();
/// verdicts.extend(last); // trailing partial window [4, 5)
/// assert_eq!(verdicts.len(), 3);
/// assert!(verdicts.iter().all(|v| v.def8));
/// assert_eq!(report.hinet_windows, 3);
/// assert_eq!(report.min_hinet_l, Some(0));
/// ```
pub struct StabilityStream {
    t: usize,
    l: usize,
    spectrum_on: bool,
    certificate: bool,
    n: Option<usize>,
    round: usize,
    prev: Option<Arc<Hierarchy>>,
    first_heads: Option<Vec<NodeId>>,
    heads_forever: bool,
    min_run: Option<usize>,
    run: usize,
    change_gcd: u64,
    last_change: usize,
    win: Option<WindowState>,
    windows: usize,
    hinet_windows: usize,
    min_l_worst: usize,
    min_l_dead: bool,
    violation: Option<Violation>,
    present_since: BTreeMap<(u32, u32), u32>,
    worst: Vec<Option<u32>>,
    peak_state_bytes: usize,
}

impl StabilityStream {
    /// Start a stream verifying aligned windows of length `t` against an
    /// L-hop bound of `l`.
    ///
    /// # Panics
    /// Panics if `t == 0`.
    pub fn new(t: usize, l: usize) -> Self {
        assert!(t >= 1);
        StabilityStream {
            t,
            l,
            spectrum_on: false,
            certificate: false,
            n: None,
            round: 0,
            prev: None,
            first_heads: None,
            heads_forever: true,
            min_run: None,
            run: 1,
            change_gcd: 0,
            last_change: 0,
            win: None,
            windows: 0,
            hinet_windows: 0,
            min_l_worst: 0,
            min_l_dead: false,
            violation: None,
            present_since: BTreeMap::new(),
            worst: Vec::new(),
            peak_state_bytes: 0,
        }
    }

    /// Additionally maintain the per-`T` spectrum so
    /// [`StreamReport::max_hinet_t`] is answerable for **any** `l` at
    /// end-of-stream. Costs an `edge → present-since` map plus
    /// `O(d(f))` window evaluations at round `f` (scheduled on the
    /// divisors of `f + 1`, pruned by the change-round gcd).
    pub fn with_spectrum(mut self) -> Self {
        self.spectrum_on = true;
        self
    }

    /// Additionally re-check head connectivity whenever the open window's
    /// intersection loses edges, so Def 5/6 violations are pinned to the
    /// exact round the stable subgraph broke (the fault-plane oracle mode)
    /// instead of the window's close. Verdicts are unaffected —
    /// connectivity only degrades as an intersection shrinks, so the
    /// early answer and the close answer agree.
    pub fn with_certificate(mut self) -> Self {
        self.certificate = true;
        self
    }

    /// Rounds consumed so far.
    pub fn rounds(&self) -> usize {
        self.round
    }

    /// First observed definition violation, if any (available mid-stream —
    /// this is what the engine's runtime oracle polls).
    pub fn violation(&self) -> Option<Violation> {
        self.violation
    }

    /// Deterministic high-water estimate of retained state, in bytes.
    pub fn peak_state_bytes(&self) -> usize {
        self.peak_state_bytes
    }

    /// Edge → first-round-of-current-presence map (spectrum mode only);
    /// shared with the streaming audit's flat-connectivity pass.
    pub(crate) fn edge_ages(&self) -> &BTreeMap<(u32, u32), u32> {
        &self.present_since
    }

    /// Consume one round. Returns the window verdict when this round
    /// closes an aligned window (always, for `t = 1`).
    ///
    /// # Panics
    /// Panics if the node count differs from earlier rounds.
    pub fn push(&mut self, g: &Arc<Graph>, h: &Arc<Hierarchy>) -> Option<WindowVerdict> {
        let round = self.round;
        match self.n {
            Some(n) => assert_eq!(g.n(), n, "node count changed mid-stream"),
            None => self.n = Some(g.n()),
        }

        // Trace-wide trackers: sliding run lengths, change-round gcd,
        // ∞-stable head set.
        if round == 0 {
            self.first_heads = Some(h.heads().to_vec());
        } else {
            let prev = self.prev.as_ref().expect("round > 0 has a predecessor");
            if same_structure(prev, h) {
                self.run += 1;
            } else {
                self.min_run = Some(self.min_run.map_or(self.run, |m| m.min(self.run)));
                self.run = 1;
                self.change_gcd = gcd(self.change_gcd, round as u64);
                self.last_change = round;
            }
            if self.heads_forever
                && h.heads() != self.first_heads.as_deref().expect("set at round 0")
            {
                self.heads_forever = false;
            }
        }

        // Configured-t window: open on the boundary, otherwise fold this
        // round into the running state.
        let opened = round % self.t == 0;
        if opened {
            debug_assert!(self.win.is_none(), "previous window left open");
            self.win = Some(WindowState {
                start: round,
                first: Arc::clone(h),
                inter: (**g).clone(),
                last_m: usize::MAX,
                def2: true,
                def3: true,
                def4: true,
            });
        } else {
            let mut win = self.win.take().expect("window opened at the boundary");
            let heads_eq = h.heads() == win.first.heads();
            let clusters_eq = (0..h.n()).all(|i| {
                let u = NodeId::from_index(i);
                h.cluster_of(u) == win.first.cluster_of(u)
            });
            if win.def2 && !heads_eq {
                win.def2 = false;
                self.record_violation(2, win.start, round);
            }
            win.def3 &= clusters_eq;
            if win.def4 && !(heads_eq && clusters_eq) {
                win.def4 = false;
                self.record_violation(4, win.start, round);
            }
            win.inter.intersect_in_place(g);
            self.win = Some(win);
        }

        // Connectivity certificate: re-check the head subgraph the moment
        // the window's intersection loses an edge (and once at open).
        if self.certificate && self.violation.is_none() {
            let win = self.win.as_ref().expect("window open");
            if win.inter.m() < win.last_m {
                match win.first.l_hop_connectivity(&win.inter) {
                    None if win.first.heads().len() > 1 => {
                        let start = win.start;
                        self.record_violation(5, start, round);
                    }
                    Some(actual) if actual > self.l => {
                        let start = win.start;
                        self.record_violation(6, start, round);
                    }
                    _ => {}
                }
            }
        }
        if let Some(win) = self.win.as_mut() {
            win.last_m = win.inter.m();
        }

        if self.spectrum_on {
            self.update_spectrum(g, h, round);
        }

        self.prev = Some(Arc::clone(h));
        self.round = round + 1;
        self.peak_state_bytes = self.peak_state_bytes.max(self.state_bytes());

        if round % self.t == self.t - 1 {
            Some(self.close_window())
        } else {
            None
        }
    }

    /// Consume a chunk of rounds, returning the verdicts of all windows
    /// closed inside it. Feeding a trace round-by-round or in arbitrary
    /// chunks yields identical verdict sequences (chunk-boundary
    /// invariance, pinned by `tests/prop_stream.rs`).
    pub fn push_chunk<'a, I>(&mut self, rounds: I) -> Vec<WindowVerdict>
    where
        I: IntoIterator<Item = (&'a Arc<Graph>, &'a Arc<Hierarchy>)>,
    {
        rounds
            .into_iter()
            .filter_map(|(g, h)| self.push(g, h))
            .collect()
    }

    /// Close the trailing partial window (if any) and summarise.
    pub fn finish(mut self) -> (Option<WindowVerdict>, StreamReport) {
        let last = self.win.is_some().then(|| self.close_window());
        let len = self.round;
        if self.spectrum_on {
            self.finish_spectrum(len);
        }
        let report = StreamReport {
            rounds: len,
            windows: self.windows,
            hinet_windows: self.hinet_windows,
            min_hinet_l: if self.min_l_dead {
                None
            } else {
                Some(self.min_l_worst)
            },
            max_sliding_hierarchy_t: self.min_run.unwrap_or(usize::MAX).min(self.run).min(len),
            heads_forever_stable: self.heads_forever,
            violation: self.violation,
            peak_state_bytes: self.peak_state_bytes,
            spectrum: self.spectrum_on.then(|| SpectrumReport {
                len,
                change_gcd: self.change_gcd,
                worst: self.worst.clone(),
            }),
        };
        (last, report)
    }

    fn record_violation(&mut self, def: u8, window_start: usize, round: usize) {
        if self.violation.is_none() {
            self.violation = Some(Violation {
                def,
                window_start,
                round,
            });
        }
    }

    /// Close the open window: evaluate Defs 5/6 on its edge-intersection
    /// and fold the verdict into the stream summaries.
    fn close_window(&mut self) -> WindowVerdict {
        let win = self.win.take().expect("no window open");
        let len = self.round - win.start;
        let l_hop = win.first.l_hop_connectivity(&win.inter);
        // Def 5 is "the heads are mutually reachable", which is exactly
        // when the L-hop value exists.
        let def5 = win.first.heads().len() <= 1 || l_hop.is_some();
        let def6 = match l_hop {
            Some(actual) => actual <= self.l,
            None => false,
        };
        let def7 = def5 && def6;
        let def8 = win.def4 && def7;
        self.windows += 1;
        if def8 {
            self.hinet_windows += 1;
        }
        match l_hop {
            Some(l) => self.min_l_worst = self.min_l_worst.max(l),
            None => self.min_l_dead = true,
        }
        if !def8 {
            let last = win.start + len - 1;
            let def = if !win.def2 {
                2
            } else if !win.def4 {
                4
            } else if !def5 {
                5
            } else {
                6
            };
            self.record_violation(def, win.start, last);
        }
        WindowVerdict {
            start: win.start,
            len,
            def2: win.def2,
            def3: win.def3,
            def4: win.def4,
            def5,
            def6,
            def7,
            def8,
            l_hop,
        }
    }

    /// Spectrum maintenance for round `f`: refresh the `edge →
    /// present-since` map from the current snapshot, then evaluate every
    /// full window ending at `f` (one per divisor `t'` of `f + 1`, pruned
    /// by the change-round gcd).
    ///
    /// A `t'` surviving the gcd prune has had no hierarchy change inside
    /// `(f + 1 - t', f]` — change rounds are multiples of `t'` and the
    /// next one past the window start would be `f + 1` — so the current
    /// hierarchy's head set equals the window-first head set and no
    /// snapshot is needed.
    fn update_spectrum(&mut self, g: &Graph, h: &Hierarchy, f: usize) {
        let mut next = BTreeMap::new();
        for e in g.edges() {
            let key = (e.a.0, e.b.0);
            let ps = self.present_since.get(&key).copied().unwrap_or(f as u32);
            next.insert(key, ps);
        }
        self.present_since = next;
        for t in divisors(f + 1) {
            if self.change_gcd != 0 && self.change_gcd % t as u64 != 0 {
                continue; // Def 4 already dead for this t, permanently.
            }
            let s = f + 1 - t;
            debug_assert!(
                self.last_change <= s,
                "change inside a gcd-surviving window"
            );
            self.eval_spectrum_window(t, s, h);
        }
    }

    /// Evaluate the window `[s, f]` for candidate `t`: L-hop connectivity
    /// of the head set on the edges continuously present since `s`.
    fn eval_spectrum_window(&mut self, t: usize, s: usize, h: &Hierarchy) {
        let mut b = GraphBuilder::new(self.n.expect("pushed at least one round"));
        for (&(u, v), &ps) in &self.present_since {
            if ps as usize <= s {
                b.add_edge(NodeId(u), NodeId(v));
            }
        }
        let inter = b.build();
        if self.worst.len() < t {
            self.worst.resize(t, Some(0));
        }
        match (self.worst[t - 1], h.l_hop_connectivity(&inter)) {
            (Some(cur), Some(actual)) => self.worst[t - 1] = Some(cur.max(actual as u32)),
            (Some(_), None) => self.worst[t - 1] = None,
            (None, _) => {}
        }
    }

    /// Evaluate the trailing partial windows of every still-alive `t` that
    /// does not divide the final length.
    fn finish_spectrum(&mut self, len: usize) {
        if let Some(h) = self.prev.clone() {
            for t in 1..=len {
                if len % t == 0 {
                    continue; // All windows of t were full, already scored.
                }
                if self.change_gcd != 0 && self.change_gcd % t as u64 != 0 {
                    continue;
                }
                let s = len - len % t;
                debug_assert!(
                    self.last_change <= s,
                    "change inside a gcd-surviving window"
                );
                self.eval_spectrum_window(t, s, &h);
            }
        }
        if self.worst.len() < len {
            self.worst.resize(len, Some(0));
        }
    }

    /// Deterministic estimate of currently retained state.
    fn state_bytes(&self) -> usize {
        use std::mem::size_of;
        fn hierarchy_bytes(h: &Hierarchy) -> usize {
            h.n() * 9 + h.heads().len() * size_of::<NodeId>()
        }
        let mut b = size_of::<Self>();
        if let Some(w) = &self.win {
            b += w.inter.n() * size_of::<usize>() + 2 * w.inter.m() * size_of::<NodeId>();
            b += hierarchy_bytes(&w.first);
        }
        if let Some(h) = &self.prev {
            b += hierarchy_bytes(h);
        }
        if let Some(hs) = &self.first_heads {
            b += hs.len() * size_of::<NodeId>();
        }
        b += self.present_since.len() * (size_of::<(u32, u32)>() + size_of::<u32>());
        b += self.worst.len() * size_of::<Option<u32>>();
        b
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

/// All divisors of `x ≥ 1`, unordered beyond small-then-complement.
fn divisors(x: usize) -> Vec<usize> {
    let mut small = Vec::new();
    let mut large = Vec::new();
    let mut i = 1;
    while i * i <= x {
        if x % i == 0 {
            small.push(i);
            if i != x / i {
                large.push(x / i);
            }
        }
        i += 1;
    }
    small.extend(large.into_iter().rev());
    small
}

/// Stream a materialised trace at `(t, l)` in spectrum mode: every window
/// verdict, the trailing partial one included, and the report.
#[cfg(test)]
pub(crate) fn stream_trace(
    trace: &crate::ctvg::CtvgTrace,
    t: usize,
    l: usize,
) -> (Vec<WindowVerdict>, StreamReport) {
    let mut s = StabilityStream::new(t, l).with_spectrum();
    let mut v = s.push_chunk(trace.iter());
    let (last, report) = s.finish();
    v.extend(last);
    (v, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctvg::CtvgTrace;
    use crate::hierarchy::{single_cluster, ClusterId, Role};
    use hinet_graph::trace::TvgTrace;

    fn nid(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

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

    fn fixture_graph() -> Graph {
        Graph::from_edges(6, [(0, 1), (0, 2), (2, 3), (3, 4), (3, 5)])
    }

    fn constant_trace(len: usize) -> CtvgTrace {
        let g = Arc::new(fixture_graph());
        let h = Arc::new(fixture_hierarchy());
        let t = TvgTrace::new((0..len).map(|_| Arc::clone(&g)).collect());
        CtvgTrace::new(t, (0..len).map(|_| Arc::clone(&h)).collect())
    }

    #[test]
    fn certificate_pins_connectivity_breaks_to_the_exact_round() {
        // Three-round window: the backbone edge disappears at round 1, the
        // window closes at round 2. The certificate reports round 1.
        let h = Arc::new(fixture_hierarchy());
        let g0 = Arc::new(fixture_graph());
        let g1 = Arc::new(Graph::from_edges(
            6,
            [(0, 1), (0, 2), (1, 3), (3, 4), (3, 5)],
        ));
        let mut s = StabilityStream::new(3, 3).with_certificate();
        s.push(&g0, &h);
        s.push(&g1, &h);
        assert_eq!(
            s.violation(),
            Some(Violation {
                def: 5,
                window_start: 0,
                round: 1
            })
        );
        s.push(&g1, &h);
        let (_, report) = s.finish();
        assert_eq!(report.violation.unwrap().round, 1);
    }

    #[test]
    fn head_change_detected_at_exact_round() {
        let g = Arc::new(Graph::complete(4));
        let h1 = Arc::new(single_cluster(4, nid(0)));
        let h2 = Arc::new(single_cluster(4, nid(1)));
        let mut s = StabilityStream::new(4, 1);
        s.push(&g, &h1);
        s.push(&g, &h1);
        assert_eq!(s.violation(), None);
        s.push(&g, &h2);
        assert_eq!(
            s.violation(),
            Some(Violation {
                def: 2,
                window_start: 0,
                round: 2
            })
        );
        let v = s.push(&g, &h2).expect("4th round closes the t=4 window");
        assert!(!v.def2 && !v.def4 && !v.def8);
        let (last, report) = s.finish();
        assert!(last.is_none());
        assert!(!report.heads_forever_stable);
    }

    #[test]
    fn membership_change_is_def4_not_def2() {
        let g = Arc::new(Graph::complete(6));
        let h1 = Arc::new(fixture_hierarchy());
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
        let h2 = Arc::new(Hierarchy::new(roles, vec![c0, c3, c0, c3, c3, c3]));
        let mut s = StabilityStream::new(2, 2);
        s.push(&g, &h1);
        let v = s.push(&g, &h2).unwrap();
        assert!(v.def2 && !v.def3 && !v.def4);
        let (_, report) = s.finish();
        assert_eq!(
            report.violation,
            Some(Violation {
                def: 4,
                window_start: 0,
                round: 1
            })
        );
    }

    #[test]
    fn empty_stream_summarises_like_batch() {
        let s = StabilityStream::new(3, 1).with_spectrum();
        let (last, report) = s.finish();
        assert!(last.is_none());
        assert_eq!(report.windows, 0);
        assert_eq!(report.min_hinet_l, Some(0));
        assert_eq!(report.max_hinet_t(1), None);
        assert_eq!(report.max_sliding_hierarchy_t, 0);
        assert_eq!(report.violation, None);
    }

    #[test]
    fn chunked_and_per_round_feeds_agree() {
        let trace = constant_trace(7);
        let mut a = StabilityStream::new(3, 2).with_spectrum();
        let mut b = StabilityStream::new(3, 2).with_spectrum();
        let mut va = Vec::new();
        for (g, h) in trace.iter() {
            va.extend(a.push(g, h));
        }
        let mut vb = b.push_chunk(trace.iter());
        let (la, ra) = a.finish();
        let (lb, rb) = b.finish();
        va.extend(la);
        vb.extend(lb);
        assert_eq!(va, vb);
        assert_eq!(ra, rb);
    }

    #[test]
    fn peak_state_is_tracked() {
        let trace = constant_trace(4);
        let mut s = StabilityStream::new(2, 2);
        s.push_chunk(trace.iter());
        assert!(s.peak_state_bytes() > 0);
        let peak = s.peak_state_bytes();
        let (_, report) = s.finish();
        assert_eq!(report.peak_state_bytes, peak);
    }

    #[test]
    fn divisors_and_gcd_helpers() {
        assert_eq!(divisors(1), vec![1]);
        assert_eq!(divisors(12), vec![1, 2, 3, 4, 6, 12]);
        assert_eq!(divisors(7), vec![1, 7]);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(12, 18), 6);
    }
}
