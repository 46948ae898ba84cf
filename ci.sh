#!/usr/bin/env bash
# Local CI gate: build, test, lint, format. Run from the repo root;
# everything must pass before a change lands (see CONTRIBUTING.md).
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
cargo build --release -p mpx-bench
# The scheduler suite first and under a hard wall-clock limit: what it
# guards against is a lost wake-up, and a lost wake-up hangs.
timeout 120 cargo test -q --test scheduler
# Beside it, the stream executor's golden order and the drain's allocation
# count: a stream-lock inversion does not fail either, it hangs.
timeout 120 cargo test -q --test stream_golden --test alloc_free_drain
# Every name a PUT's issue hands out is a `Label`, rendered only if read.
# The interpreter's three `format!`s all sit inside the recorder-only tail;
# a fourth is an eager name back on the issue path (put_interp -30 %).
# A tripwire only: the allocation ceilings of alloc_free_drain above are
# the real guard (an eager name per chunk is two allocations per chunk).
[ "$(awk '/fn execute_plan_at_obs/ { on = 1 } /#\[cfg\(test\)\]/ { on = 0 } on' \
  crates/ucx/src/pipeline.rs | grep -c 'format!')" = 3 ] ||
  { echo "pipeline.rs: execute_plan_at_obs must hold exactly three format!s" >&2; exit 1; }
# Likewise tripwires: a program reaches a stream through `Stream::submit`
# alone (its crate-private predecessor must not come back beside it), and
# the staged chunk walk in pipeline.rs owns the ring arithmetic — the graph
# compiler lowers from it and never reads the ring depth itself.
if grep -rn 'enqueue_batch' crates/; then
  echo "crates/: enqueue_batch is gone; submit a Program" >&2; exit 1
fi
# Rounding to the nanosecond lives once, in `SimTime::from_secs`, without
# libm: `ceil` is a function call on baseline x86-64, and was a tenth of a
# fabric event.
if awk 'FNR == 1 { live = 1 } /^#\[cfg\(test\)\]/ { live = 0 }
  live && !/^ *\/\// && /\.ceil\(\)/ { print FILENAME ":" FNR ": " $0; found = 1 }
  END { exit !found }' crates/sim/src/*.rs; then
  echo "crates/sim/src: round with SimTime::from_secs, not .ceil()" >&2; exit 1
fi
[ "$(awk '/#\[cfg\(test\)\]/ { exit } { print }' crates/ucx/src/compile.rs |
  grep -c 'RING_DEPTH')" = 0 ] ||
  { echo "compile.rs: the chunk walk owns RING_DEPTH; lower from StagedWalk" >&2; exit 1; }
# The names a trace, a recorder and a deadlock panic read, and the two
# ledger smokes (the second runs a broker on rank threads: it can hang).
timeout 120 cargo test -q --test label_golden --test ledgers
bash -n scripts/bench_pairs.sh
# Likewise the payload plane: two buffer locks held at once can deadlock.
timeout 120 cargo test -q --test payload_plane
# The engine goldens and invariants before the workspace suites: an engine
# divergence fails here in seconds, with the scenario's name on it.
timeout 120 cargo test -q --test engine_golden --test engine_invariants
# The static tuner's goldens beside them: winners, bandwidth bits and both
# search counts (considered, simulated), plus the soundness of the bound
# it prunes with, on the inputs the paper sweep tunes.
timeout 180 cargo test -q --test tuner_golden
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check

# ROADMAP aim 2: crates/ shrinks this round. Raising the ceiling is an edit
# a change makes on purpose; lower it when a deletion lands.
crates_lines="$(find crates -name '*.rs' | xargs cat | wc -l)"
echo "crates/: $crates_lines .rs lines"
[ "$crates_lines" -le 33250 ] ||
  { echo "crates/ grew past its 33250-line ceiling" >&2; exit 1; }

# Fault-matrix smoke: each canned degradation scenario must complete with
# intact data (mpx exits nonzero otherwise) and must actually exercise the
# recovery loop (nonzero retry stats).
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
for scenario in degrade flap kill; do
  ./target/release/mpx fault-plan --topo beluga --paths 3_GPUs --size 64M \
    --scenario "$scenario" > "$tmp/$scenario.json"
  out="$(./target/release/mpx resilient --topo beluga --paths 3_GPUs --size 64M \
    --faults "$tmp/$scenario.json")"
  echo "$out"
  case "$out" in
    *"retries=0"*) echo "fault-matrix: $scenario did not trigger recovery" >&2; exit 1 ;;
    *"faults_fired=0"*) echo "fault-matrix: $scenario fault never fired" >&2; exit 1 ;;
  esac
done
# The same canned fault plans once more through the partitioned parallel
# engine: `mpx partition` replays each plan on a multi-component cluster
# scenario serial AND parallel and exits nonzero unless the two runs are
# bit-identical (and the faults actually fired).
for scenario in degrade flap kill; do
  out="$(./target/release/mpx partition --faults "$tmp/$scenario.json")"
  echo "$out"
  case "$out" in
    *"faults=0"*) echo "fault-matrix: $scenario never fired in the parallel engine" >&2; exit 1 ;;
    *"bit-identical"*) ;;
    *) echo "fault-matrix: $scenario parallel run not verified" >&2; exit 1 ;;
  esac
done
echo "fault-matrix smoke: ok"

# Figure-determinism smoke: the quick fig5/6/7 sweeps, twice, must write
# byte-identical JSON — the rank threads, the tuner and the wait order may
# change how long a figure takes, never a digit of it.
for run in a b; do
  for fig in fig5_bw fig6_bibw fig7_collectives; do
    MPX_RESULTS_DIR="$tmp/fig-$run" "./target/release/$fig" > /dev/null
  done
done
for fig in fig5_bw fig6_bibw fig7_collectives; do
  cmp "$tmp/fig-a/$fig.json" "$tmp/fig-b/$fig.json"
done
echo "figure-determinism smoke: ok"

# Trace-export smoke: `mpx trace` must exit cleanly, its trace.json must
# parse as JSON, and every instrumented phase must contribute at least
# one event (spans/instants carry the phase label in their `cat` field).
./target/release/mpx trace --topo beluga --size 64M \
  --trace-out "$tmp/trace.json" --metrics-out "$tmp/metrics.json"
python3 -c "import json, sys; json.load(open(sys.argv[1])); json.load(open(sys.argv[2]))" \
  "$tmp/trace.json" "$tmp/metrics.json"
for phase in plan probe transfer chunk-leg recovery collective fault tune graph.capture graph.replay health hedge broker partition; do
  if ! grep -q "\"cat\": \"$phase\"" "$tmp/trace.json"; then
    echo "trace smoke: no $phase events in trace.json" >&2; exit 1
  fi
done
echo "trace-export smoke: ok"

# Benchmark smoke: bench_e2e (its own workspace, declared in
# BENCHMARK.json) is the only host-time ruler in the tree and the one the
# pipeline judges a change with, so build it against this checkout and run
# all seven workloads for a second each. It exits nonzero on any failed
# operation: a replay count off its put_replayed calls, a graph fallback, a
# serial/parallel equivalence diff, a payload byte read back wrong, an
# invalidation count off. Its timings are not gated here; pairs of runs
# against the parent are (scripts/bench_pairs.sh).
cargo build --release --offline --manifest-path bench_e2e/Cargo.toml
./bench_e2e/target/release/bench_e2e --seed 7 --seconds 1
echo "bench_e2e smoke: ok"

# Chaos-soak smoke: two fixed seeds of randomized degrade/flap/kill over
# concurrent resilient, plain/replayed, and hedged PUTs. Exits nonzero on
# data corruption, unbounded recovery (virtual-time ceiling), an
# unbalanced breaker ledger, a graph replay served while the pair's
# breaker was open, or a degraded hedged-PUT p99 above 2x the healthy
# p99. Never rewrites results/BENCH_chaos.json (full runs do that).
# With MPX_DUMP_DIR set, the soak's anomaly engine also writes each
# black-box dump to disk; the storm must leave at least one breaker dump
# whose cause carries the breaker's reason, and every dump must render
# through `mpx report`.
MPX_DUMP_DIR="$tmp/dumps" ./target/release/chaos_soak --quick
dump_count="$(find "$tmp/dumps" -name 'dump-*.json' | wc -l)"
if [ "$dump_count" -eq 0 ]; then
  echo "chaos-soak smoke: storm produced no black-box dump" >&2; exit 1
fi
if ! grep -l '"trigger": "breaker.trip"' "$tmp/dumps"/seed-*/dump-*.json \
    | xargs grep -q '"cause": "why='; then
  echo "chaos-soak smoke: no breaker dump carries its trigger cause" >&2; exit 1
fi
for dump in "$tmp/dumps"/seed-*/dump-*.json; do
  ./target/release/mpx report --dump "$dump" > /dev/null
done
echo "chaos-soak smoke: ok ($dump_count black-box dumps rendered)"

# OpenMetrics smoke: the exposition must carry histogram quantiles and
# pass a line-format check (TYPE lines, sane sample lines, EOF last).
./target/release/mpx metrics --topo beluga --size 8M --openmetrics > "$tmp/metrics.om"
python3 - "$tmp/metrics.om" <<'PY'
import re, sys
lines = open(sys.argv[1]).read().splitlines()
assert lines, "empty exposition"
assert lines[-1] == "# EOF", "exposition must end with # EOF"
sample = re.compile(r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+-]+$')
types = 0
for ln in lines[:-1]:
    if ln.startswith("# TYPE "):
        types += 1
        continue
    assert sample.match(ln), f"bad OpenMetrics line: {ln!r}"
assert types > 0, "no # TYPE lines"
text = "\n".join(lines)
assert '_bucket{le="' in text, "no histogram buckets"
assert '+Inf' in text, "no +Inf bucket"
PY
echo "openmetrics smoke: ok"

# Broker-saturation smoke: a short bench_broker run driving the multi-tenant
# admission broker at 2x fabric capacity. Exits nonzero if overload sheds
# nothing (admission control inert), if the admitted p99 sojourn exceeds 2x
# the unloaded p99 (queues growing without bound), if per-tenant goodput
# drifts off the configured 3:2:1 weights, or if the accounting invariant
# (submitted = admitted + shed, admitted all terminal) breaks. Never
# rewrites results/BENCH_broker.json (full runs do that).
./target/release/bench_broker --quick
echo "bench_broker smoke: ok"
