#!/usr/bin/env bash
# Tier-1 gate, runnable with no network access.
#
# The workspace's dependency graph is 100% in-tree (see DESIGN.md §3), so
# `--offline` must always succeed: any accidental reintroduction of a
# registry dependency fails this script immediately instead of passing
# locally and breaking in a sandbox.
#
# `./ci.sh --update-golden` re-records the golden traces under
# tests/golden/ instead of failing on divergence — the escape hatch for
# *intentional* behaviour changes (review the resulting diff like any other
# code change).
set -euo pipefail
cd "$(dirname "$0")"

update_golden=0
if [[ "${1:-}" == "--update-golden" ]]; then
    update_golden=1
fi

cargo fmt --check

# Lint gate: clippy over every target of the workspace (libraries, binary,
# tests, examples), warnings as errors. perfbench is its own workspace and
# is not linted here.
cargo clippy --all-targets --offline --workspace -- -D warnings

# Orphan-API gate: every `pub fn` in crates/*/src (outside `#[cfg(test)]`
# items) must be named in some other .rs file under crates/, src/,
# examples/, tests/ or perfbench/ — otherwise it is public surface nothing
# uses — and must have a non-test caller: non-test code (outside tests/,
# perfbench/tests/ and `#[cfg(test)]` items, its own file included) must
# name it beyond its definition. Comment lines (`//`, `///`, `//!`, doc
# examples included) name nothing: a doctest or a prose mention is not a
# caller. Give it a caller that earns it, make it private, or delete it;
# a function only tests call moves into tests/common/, or behind
# `#[cfg(test)]` when only its own crate's tests call it. An intended
# exception goes in ALLOW or ALLOW_FILES with its reason.
#
# Limit: the gate matches names, not paths. A `pub fn` whose name is also
# declared elsewhere in non-test code (about 50 are: `new`, `len`, `parse`,
# `to_text`, …) passes on the other declarations' callers, as
# `Gf2Basis::is_complete` once passed on `ParsedTrace::is_complete`'s.
# Telling which declaration a call reaches needs types, which a text scan
# does not have; requiring a caller file that also names the function's
# `impl` type catches that case but flags eight working functions
# (free functions and methods reached through a field), so such names are
# left to review.
python3 - <<'PY'
import pathlib, re, sys

ALLOW = {
    # Algorithm 2's round counts under Theorems 3 and 4. The ROADMAP item
    # "Check Theorems 3 and 4 against real runs" gives them their callers
    # (a completion property and `fuzz::analytic_bound`).
    "alg2_rounds_theorem3": "Theorem 3 bound, awaiting the Theorems 3/4 ROADMAP item",
    "alg2_rounds_theorem4": "Theorem 4 bound, awaiting the Theorems 3/4 ROADMAP item",
    # `Json::as_f64`: the benchmark's tests read its report's float fields
    # with it. The benchmark package stays unedited, so its only caller is
    # perfbench/tests/bench.rs.
    "as_f64": "bench JSON accessor, read by perfbench/tests/bench.rs",
    # The model-claim checkers: the crate doctests of hinet-graph and
    # hinet-cluster show them, and crate unit tests (the generator tests
    # of both crates, the clustering tests) check outputs with them;
    # tests/common/ is not visible to crate unit tests.
    "is_always_connected": "1-interval connectivity check, hinet-graph doctest and generator tests",
    "is_t_interval_connected": "T-interval connectivity check, hinet-graph doctest and generator tests",
    "backbone_connects_heads": "backbone reachability of heads, hinet-cluster doctest and clustering tests",
    # `Gf2Basis::rank`: tests/prop_extensions.rs checks every `insert`
    # against the basis dimension, which only the crate can compute (the
    # rows are private), so it cannot move to tests/common/.
    "rank": "GF(2) basis dimension, the oracle of tests/prop_extensions.rs's insert properties",
}
ALLOW_FILES = {
    # `hinet_rt::check`, the property-test harness: tests in every crate
    # and in tests/ are its callers by design.
    "crates/hinet-rt/src/check.rs": "the property-test harness",
}

def non_test_lines(text):
    """Lines outside `#[cfg(test)]` items (brace-matched)."""
    out, depth, skipping, opened = [], 0, False, False
    for line in text.splitlines():
        if skipping:
            depth += line.count("{") - line.count("}")
            opened = opened or "{" in line
            if (opened and depth <= 0) or (not opened and line.rstrip().endswith(";")):
                skipping = False
            continue
        if line.strip().startswith("#[cfg(test)]"):
            skipping, depth, opened = True, 0, False
            continue
        out.append(line)
    return out

files = [p for d in ("crates", "src", "examples", "tests", "perfbench")
         for p in pathlib.Path(d).rglob("*.rs")]
def uncommented(text):
    """The text without its comment lines."""
    return "\n".join(l for l in text.splitlines() if not l.lstrip().startswith("//"))

texts = {p: uncommented(p.read_text()) for p in files}
code = {p: "\n".join(non_test_lines(t)) for p, t in texts.items()
        if p.parts[0] != "tests" and p.parts[:2] != ("perfbench", "tests")}
orphans = []
for p in files:
    if p.parts[0] != "crates" or "src" not in p.parts or str(p) in ALLOW_FILES:
        continue
    for line in non_test_lines(texts[p]):
        m = re.match(r"\s*pub fn (\w+)", line)
        if not m or m.group(1) in ALLOW:
            continue
        name = re.compile(r"\b%s\b" % m.group(1))
        if not any(name.search(t) for q, t in texts.items() if q != p):
            orphans.append(f"{p}: pub fn {m.group(1)} (nothing else names it)")
        elif len(name.findall(code[p])) < 2 and not any(
            name.search(t) for q, t in code.items() if q != p
        ):
            orphans.append(f"{p}: pub fn {m.group(1)} (only tests call it)")
if orphans:
    print("orphan-API gate: public functions without a caller:", file=sys.stderr)
    print("\n".join(sorted(orphans)), file=sys.stderr)
    sys.exit(1)
PY
echo "orphan-API gate: OK"

cargo build --release --offline --workspace
# Every crate's tests gate, not only the root package's.
cargo test -q --offline --workspace

# Docs gate: every public item is documented (hinet-rt denies missing docs),
# no intra-doc link is broken, and every doc example compiles and runs.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace >/dev/null
cargo test --doc -q --offline --workspace

# Scale smoke: the scale_point example at a CI-sized point (its default
# is n=10^6, k=10^4) must complete both star workloads, Algorithm 2 and
# KLO flooding, on the packed-bitset engine.
scale="$(cargo run --release --offline -q --example scale_point -- 20000 200)"
for row in "alg2 single-cluster" "klo-flood flat"; do
    echo "$scale" | grep -q "$row *completed" || {
        echo "scale smoke: $row did not complete:" >&2
        echo "$scale" >&2
        exit 1
    }
done
echo "scale smoke: OK"

# Quickstart smoke: the Fig. 1 / Fig. 3 walkthrough reads token 0's
# journey from the run's trace, and the journey must be the paper's walk:
# member 1 pushes to head 0, head 0, gateway 3 and head 4 broadcast it in
# turn, and the three broadcast it again in phase 2.
journey="$(cargo run --release --offline -q --example quickstart | grep '^  round .*: node ')"
expected="  round  0: node 1 unicast → node 0
  round  1: node 0 broadcast
  round  2: node 3 broadcast
  round  3: node 4 broadcast
  round  5: node 0 broadcast
  round  5: node 3 broadcast
  round  5: node 4 broadcast"
if [[ "$journey" != "$expected" ]]; then
    echo "quickstart smoke: token 0's journey changed:" >&2
    diff <(echo "$expected") <(echo "$journey") >&2 || true
    exit 1
fi
echo "quickstart smoke: OK"

# Trace smoke: a traced seeded run must produce a hinet-trace/v1 artifact
# whose summary is internally consistent with the engine's own run report.
rm -rf target/ci-trace
./target/release/hinet run --n 40 --k 4 --seed 3 --trace \
    --trace-out target/ci-trace/run.jsonl >/dev/null
head -1 target/ci-trace/run.jsonl | grep -q '"schema":"hinet-trace/v1"'
./target/release/hinet trace --in target/ci-trace/run.jsonl --summary >/dev/null
summary="$(./target/release/hinet trace --n 40 --k 4 --seed 3 --summary)"
echo "$summary" | grep -q 'consistency:'
if echo "$summary" | grep -q MISMATCH; then
    echo "trace smoke: summary inconsistent with run report" >&2
    exit 1
fi
echo "trace smoke: OK"

# Golden self-diff: every pinned trace under tests/golden/ must reproduce
# byte-for-byte behaviour when its scenario (read from the artifact's own
# metadata) is re-run live. A non-empty diff names the first diverging
# round and fails the gate; bless intentional changes with --update-golden.
for golden in tests/golden/*.jsonl; do
    if [[ "$update_golden" == 1 ]]; then
        ./target/release/hinet trace --diff "$golden" --update-golden
    else
        ./target/release/hinet trace --diff "$golden" >/dev/null || {
            echo "golden self-diff: $golden diverged (run ./ci.sh --update-golden to bless intentional changes):" >&2
            ./target/release/hinet trace --diff "$golden" >&2 || true
            exit 1
        }
    fi
done
echo "golden self-diff: OK"

# Chaos smoke: the fault plane must be invisible when disabled — spelling
# every fault flag out at its default value must yield a byte-identical
# artifact — and a seeded lossy run must complete under retransmission,
# report fault counters, and replay byte-for-byte under the same
# --fault-seed. (The golden self-diff above already pins the zero-fault
# path against the pre-fault-plane corpus.)
rm -rf target/ci-chaos
./target/release/hinet trace --n 24 --k 3 --seed 7 \
    --out target/ci-chaos/plain.jsonl >/dev/null
./target/release/hinet trace --n 24 --k 3 --seed 7 \
    --loss 0 --crash-rate 0 --fault-seed 0 \
    --out target/ci-chaos/zeroed.jsonl >/dev/null
cmp -s target/ci-chaos/plain.jsonl target/ci-chaos/zeroed.jsonl || {
    echo "chaos smoke: zero-valued fault flags perturbed the trace" >&2
    exit 1
}
for i in 1 2; do
    ./target/release/hinet run --algorithm alg2 --n 24 --k 3 --seed 7 \
        --loss 0.1 --retransmit --fault-seed 1 \
        --trace-out "target/ci-chaos/lossy$i.jsonl" >"target/ci-chaos/lossy$i.txt"
done
grep -q 'completed: true' target/ci-chaos/lossy1.txt || {
    echo "chaos smoke: lossy alg2 run with --retransmit did not complete" >&2
    exit 1
}
grep -q 'retransmits' target/ci-chaos/lossy1.txt || {
    echo "chaos smoke: lossy run reported no fault counters" >&2
    exit 1
}
cmp -s target/ci-chaos/lossy1.jsonl target/ci-chaos/lossy2.jsonl || {
    echo "chaos smoke: the same --fault-seed produced different traces" >&2
    exit 1
}
echo "chaos smoke: OK"

# Delivery-plane smoke: the adversarial delivery plane (delay, duplication,
# reorder) must replay byte-for-byte under the same --fault-seed and report
# its counters, and the generalised reliability layer must complete a
# chaotic lossy event-mode run with the armed watchdog staying quiet (a
# watchdog halt exits 1).
rm -rf target/ci-delivery
mkdir -p target/ci-delivery
for i in 1 2; do
    ./target/release/hinet run --algorithm alg2 --n 24 --k 3 --seed 7 \
        --delay 0.05 --max-delay 3 --dup 0.03 --reorder --fault-seed 2 \
        --trace-out "target/ci-delivery/chaos$i.jsonl" \
        >"target/ci-delivery/chaos$i.txt"
done
cmp -s target/ci-delivery/chaos1.jsonl target/ci-delivery/chaos2.jsonl || {
    echo "delivery smoke: the same --fault-seed produced different chaos traces" >&2
    exit 1
}
grep -q 'delivery plane:' target/ci-delivery/chaos1.txt || {
    echo "delivery smoke: chaos run reported no delivery-plane counters" >&2
    exit 1
}
./target/release/hinet run --algorithm klo-flood --n 32 --k 4 --seed 5 \
    --mode event --loss 0.05 --delay 0.03 --max-delay 3 --reliable \
    --stall-rounds 64 --fault-seed 3 --budget 96 \
    >target/ci-delivery/reliable.txt || {
    echo "delivery smoke: chaotic reliable event-mode run failed (watchdog halt?)" >&2
    cat target/ci-delivery/reliable.txt >&2
    exit 1
}
grep -q 'completed: true' target/ci-delivery/reliable.txt || {
    echo "delivery smoke: reliability layer did not complete the chaotic run" >&2
    exit 1
}
echo "delivery smoke: OK"

# Event-runtime smoke: a seeded event-mode run must produce the same
# dissemination result as the lock-step engine — the artifacts differ
# only by the `mode` meta stamp the event driver adds, so with exactly
# that stamp stripped they must be byte-identical (any other drift, meta
# included, fails) — and report wall-clock metrics. The chaos case runs
# loss, delay, duplication, reorder and the reliability layer's acks and
# timer retransmits across the event runtime's worker threads.
rm -rf target/ci-event
mkdir -p target/ci-event
event_matches_lockstep() {
    local name=$1
    shift
    ./target/release/hinet trace "$@" --out "target/ci-event/$name-lockstep.jsonl" >/dev/null
    ./target/release/hinet trace "$@" --mode event --out "target/ci-event/$name-event.jsonl" >/dev/null
    sed '1s/,"mode":"event"//' "target/ci-event/$name-event.jsonl" >"target/ci-event/$name-unstamped.jsonl"
    cmp -s "target/ci-event/$name-lockstep.jsonl" "target/ci-event/$name-unstamped.jsonl" || {
        echo "event smoke: $name event-mode run diverged from lock-step beyond the mode stamp" >&2
        ./target/release/hinet trace --diff "target/ci-event/$name-lockstep.jsonl" \
            "target/ci-event/$name-unstamped.jsonl" >&2 || true
        exit 1
    }
}
event_matches_lockstep clean --algorithm alg2 --n 32 --k 4 --seed 5
event_matches_lockstep chaos --algorithm alg2 --n 48 --k 6 --seed 5 --loss 0.05 --delay 0.03 \
    --max-delay 3 --dup 0.02 --reorder --reliable --fault-seed 9
# Oracle case: the in-engine (T, L) stability oracle runs in both modes
# on the rounds each closes, so a crash run's trace (stability_window
# verdicts included) matches lock-step beyond the mode stamp, and so do
# its outcome and oracle summary. (`hinet trace` above verifies post hoc
# and never reaches the engine oracle.)
for mode in lockstep event; do
    ./target/release/hinet run --algorithm alg2 --n 48 --k 6 --seed 5 --crash-at 2:0 \
        --down-rounds 99 --stability-stream --mode "$mode" --trace \
        --trace-out "target/ci-event/oracle-$mode.jsonl" >"target/ci-event/oracle-$mode.txt"
done
sed '1s/,"mode":"event"//' target/ci-event/oracle-event.jsonl |
    cmp -s - target/ci-event/oracle-lockstep.jsonl || {
    echo "event smoke: oracle event-mode run diverged from lock-step beyond the mode stamp" >&2
    exit 1
}
for key in 'outcome:' 'stability oracle:'; do
    lock_line="$(grep "^$key" target/ci-event/oracle-lockstep.txt)" || {
        echo "event smoke: oracle lock-step run printed no '$key' line" >&2
        exit 1
    }
    if [[ "$(grep "^$key" target/ci-event/oracle-event.txt)" != "$lock_line" ]]; then
        echo "event smoke: oracle event-mode '$key' line differs from lock-step" >&2
        exit 1
    fi
done
./target/release/hinet run --algorithm klo-flood --n 32 --k 4 --seed 5 \
    --mode event >target/ci-event/klo.txt
grep -q 'completed: true' target/ci-event/klo.txt || {
    echo "event smoke: klo-flood did not complete in event mode" >&2
    exit 1
}
grep -q 'token latency' target/ci-event/klo.txt || {
    echo "event smoke: event-mode run reported no latency metrics" >&2
    exit 1
}
echo "event smoke: OK"

# Fuzz smoke: a fixed-seed adversarial campaign must be deterministic —
# two runs with the same seed classify and shrink identically and find at
# least one offender — and archiving into a scratch directory twice must
# not rewrite anything (the second campaign re-finds the same shrunk
# offenders byte-for-byte and reports them as already known).
rm -rf target/ci-fuzz
./target/release/hinet fuzz --seed 1 --cases 25 --out target/ci-fuzz \
    >target/ci-fuzz-first.txt
./target/release/hinet fuzz --seed 1 --cases 25 --out target/ci-fuzz \
    >target/ci-fuzz-second.txt
grep -q 'offender' target/ci-fuzz-first.txt || {
    echo "fuzz smoke: seed 1 found no offenders" >&2
    exit 1
}
grep -q '(new)' target/ci-fuzz-first.txt || {
    echo "fuzz smoke: first campaign archived nothing" >&2
    exit 1
}
if grep -q '(new)' target/ci-fuzz-second.txt; then
    echo "fuzz smoke: second identical campaign re-archived an offender" >&2
    exit 1
fi
if ! diff <(sed 's/(already known)/(new)/' target/ci-fuzz-second.txt) \
        target/ci-fuzz-first.txt >/dev/null; then
    echo "fuzz smoke: the same --seed produced different campaigns" >&2
    exit 1
fi
echo "fuzz smoke: OK"

# Corpus replay: every offender the fuzzer has archived under tests/corpus/
# must still reproduce its recorded outcome classification exactly. Bless
# an intentional behaviour change by deleting the stale file and re-running
# the recorded fuzz seed (see docs/SCENARIOS.md).
./target/release/hinet fuzz --replay tests/corpus || {
    echo "corpus replay: an archived scenario no longer reproduces its recorded outcome" >&2
    exit 1
}
echo "corpus replay: OK"

# Streaming-verifier gate: every archived corpus scenario must trace its
# stability_window verdicts through the one-pass verifier. (That these
# verdicts equal the reference batch verifier's, event for event, is the
# tier-1 test tests/prop_stream.rs::stream_verdicts_match_batch_on_corpus.)
rm -rf target/ci-stream
mkdir -p target/ci-stream
for sc in tests/corpus/*.scenario; do
    stem=$(basename "$sc" .scenario)
    ./target/release/hinet trace --scenario "$sc" --stability-stream \
        --out "target/ci-stream/$stem.stream.jsonl" >/dev/null
    grep -q 'stability_window' "target/ci-stream/$stem.stream.jsonl" || {
        echo "stream gate: $stem streamed no stability_window events" >&2
        exit 1
    }
done
# Provider constant-memory smoke: the mobility providers keep one round, so
# the audit's peak RSS on waypoint dynamics must not grow with the horizon:
# at 400 rounds it must stay within 1.25x of the 100-round peak.
# `peak_rss_to FILE CMD...` runs CMD with its stdout in FILE under its own
# python3 process and prints its peak RSS (ru_maxrss of that one child, KB).
peak_rss_to() {
    python3 - "$@" <<'PY'
import resource, subprocess, sys
with open(sys.argv[1], "w") as out:
    subprocess.run(sys.argv[2:], check=True, stdout=out)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
PY
}
rss100=$(peak_rss_to /dev/null ./target/release/hinet audit --dynamics waypoint --n 300 --rounds 100)
rss400=$(peak_rss_to /dev/null ./target/release/hinet audit --dynamics waypoint --n 300 --rounds 400)
if [ $((rss400 * 4)) -gt $((rss100 * 5)) ]; then
    echo "stream gate: audit peak RSS grew with the horizon ($rss100 -> $rss400 KB)" >&2
    exit 1
fi
# Long-horizon constant-memory smoke: n=20k with a full-run partition (so
# the run exhausts its budget) at two horizons. The streaming verifier's
# retained state must not grow with the horizon — its peak gauge at 512
# rounds must stay within 50% of the 128-round peak.
for budget in 128 512; do
    ./target/release/hinet trace --algorithm klo-flood --dynamics hinet \
        --n 20000 --k 2 --theta 30 --seed 9 --budget "$budget" \
        --partition "0:$budget:1" --sample 100000 --stability-stream \
        --out "target/ci-stream/long$budget.jsonl" >/dev/null
done
peak128=$(grep -o '"stability_stream_peak_bytes":"[0-9]*"' \
    target/ci-stream/long128.jsonl | grep -o '[0-9]*')
peak512=$(grep -o '"stability_stream_peak_bytes":"[0-9]*"' \
    target/ci-stream/long512.jsonl | grep -o '[0-9]*')
test -n "$peak128" && test -n "$peak512" || {
    echo "stream gate: long-horizon runs stamped no peak gauge" >&2
    exit 1
}
if [ $((peak512 * 2)) -gt $((peak128 * 3)) ]; then
    echo "stream gate: peak state grew with the horizon ($peak128 -> $peak512 bytes)" >&2
    exit 1
fi
# (1, L) oracle smoke at scale: every round closes a window, so this run
# evaluates the L-hop oracle on all 12 rounds at n = 20 000. With one
# multi-source BFS per window it takes well under a second; the timeout
# catches a return to a BFS per head (about 50 s on a 2-core VM).
timeout 60 ./target/release/hinet run --algorithm alg2 --n 20000 --k 64 --seed 3 \
    --stability-stream >target/ci-stream/oracle-1l.txt || {
    echo "stream gate: (1, L) oracle smoke failed or timed out" >&2
    exit 1
}
grep -q 'stability oracle: 12/12 windows' target/ci-stream/oracle-1l.txt || {
    echo "stream gate: (1, L) oracle smoke did not verify 12/12 windows" >&2
    cat target/ci-stream/oracle-1l.txt >&2
    exit 1
}
echo "stream gate: OK"

# Event-mode memory smoke: round reassembly must stay O(envelopes in
# flight + nodes). A chaotic reliable event-mode run at n = 20 000 must
# complete in 15 rounds and peak within 10% of 158 140 KB (ru_maxrss),
# the most that run reached in four runs with per-node round maps on a
# 2-core VM (two event workers); the per-shard reassembly peaks near
# 147 000 KB there.
rm -rf target/ci-memory
mkdir -p target/ci-memory
event_rss=$(peak_rss_to target/ci-memory/event.txt ./target/release/hinet run \
    --algorithm alg2 --n 20000 --k 64 --seed 3 --mode event --loss 0.05 --delay 0.03 \
    --max-delay 3 --dup 0.02 --reorder --reliable --fault-seed 3 --budget 40)
grep -q 'completed in 15 rounds' target/ci-memory/event.txt || {
    echo "memory smoke: the event-mode run did not complete in 15 rounds:" >&2
    cat target/ci-memory/event.txt >&2
    exit 1
}
if [ "$event_rss" -gt $((158140 * 11 / 10)) ]; then
    echo "memory smoke: event-mode peak RSS $event_rss KB exceeds 110% of 158140 KB" >&2
    exit 1
fi
echo "memory smoke: OK ($event_rss KB)"
# Clean lock-step memory smoke: a trivial plan keeps no per-node message
# buffers (one flat outbox per round; each receiver gathers its inbox into
# a per-worker scratch buffer), so an n = 20 000 Algorithm 1 run must
# complete in 214 rounds and peak within 10% of 14 100 KB (ru_maxrss), the
# most that run reached in four runs on a 2-core VM at the default thread
# count; with per-node inboxes it peaked near 17 000 KB.
clean_rss=$(peak_rss_to target/ci-memory/clean.txt ./target/release/hinet run \
    --algorithm alg1 --n 20000 --k 64 --seed 3)
grep -q 'completed in 214 rounds' target/ci-memory/clean.txt || {
    echo "memory smoke: the clean lock-step run did not complete in 214 rounds:" >&2
    cat target/ci-memory/clean.txt >&2
    exit 1
}
if [ "$clean_rss" -gt $((14100 * 11 / 10)) ]; then
    echo "memory smoke: clean lock-step peak RSS $clean_rss KB exceeds 110% of 14100 KB" >&2
    exit 1
fi
echo "memory smoke: OK ($clean_rss KB clean lock-step)"

# Benchmark gate: perfbench is a separate package that nothing above
# builds, so a library change could break it unseen. Its tests must pass,
# and every workload's seed-42 run must report `"correct":true` (the
# pins, the theorem bound and digest stability).
CARGO_TARGET_DIR=target/perfbench cargo test -q --offline --manifest-path perfbench/Cargo.toml
for workload in alg1-churn alg1-audit alg2-chaos-event; do
    result="$(CARGO_TARGET_DIR=target/perfbench python3 perfbench/run.py \
        --workload "$workload" --seconds 0 | tail -1)"
    echo "$result" | grep -q '"correct":true' || {
        echo "perfbench gate: $workload is not correct:" >&2
        echo "$result" >&2
        exit 1
    }
done
echo "perfbench gate: OK"
