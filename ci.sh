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
# Beside it, the golden retirement order of stream programs (run by the
# engine's lanes) and the drain's allocation count: a lost release does
# not fail either, it hangs. The plan table's golden plans (every bit of
# 2 952 plans recorded before the table existed) and its plan-hit /
# plan-miss allocation counts run here too.
timeout 120 cargo test -q --test stream_golden --test alloc_free_drain --test plan_table
# Every name a PUT's launch hands out is a `Label`, rendered only if read.
# The lowering (compile.rs) and the launch (graph.rs) hold three `format!`s
# between them, all in the recorder-only record of the whole-message tail;
# a fourth is an eager name back on the issue path (put_interp -30 %). A
# tripwire only: the allocation ceilings of alloc_free_drain above are the
# real guard (an eager name per chunk is two allocations per chunk).
[ "$(for f in crates/ucx/src/compile.rs crates/gpu/src/graph.rs; do
  awk '/#\[cfg\(test\)\]/ { exit } { print }' "$f"; done | grep -c 'format!')" = 3 ] ||
  { echo "compile.rs + graph.rs: the launch must hold exactly three format!s" >&2; exit 1; }
# One walk: a plan's chunk loop is lowered in one place, the lowering every
# PUT launches, interpreted or replayed.
[ "$(for f in $(grep -rl 'StagedWalk::new(' crates/); do
  awk '/#\[cfg\(test\)\]/ { exit } { print }' "$f"; done | grep -c 'StagedWalk::new(')" = 1 ] ||
  { echo "crates/: StagedWalk::new( must have exactly one non-test call site" >&2; exit 1; }
# Likewise tripwires: a program reaches a stream through `Stream::submit`
# alone (its crate-private predecessor must not come back beside it), and
# the staged chunk walk in pipeline.rs owns the ring arithmetic — the graph
# compiler lowers from it and never reads the ring depth itself.
if grep -rn 'enqueue_batch' crates/; then
  echo "crates/: enqueue_batch is gone; submit a Program" >&2; exit 1
fi
# A stream and an event are front ends over engine lanes and flags, which
# the event loop runs under its own lock: neither holds a lock of its own.
if awk '/#\[cfg\(test\)\]/ { nextfile } /Mutex/ { print FILENAME ":" FNR ": " $0; found = 1 }
  END { exit !found }' crates/gpu/src/stream.rs crates/gpu/src/event.rs; then
  echo "stream.rs / event.rs: no lock of their own; use the engine's lanes" >&2; exit 1
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
# Every PUT driver is a task: `UcxContext::transfer` awaits its handles on
# the engine, so the transport keeps no `SimThread` and the CLI registers
# no thread of its own.
if grep -rn 'SimThread' crates/ucx/src || grep -n 'register_thread' src/bin/mpx.rs; then
  echo "crates/ucx/src, src/bin/mpx.rs: drive transfers from a task, not a SimThread" >&2; exit 1
fi
# One PUT request, one launcher: every launch of a lowering takes a
# `PutRequest` and goes through `compile::launch`, so no transport function
# needs a long argument list, and the offset-taking PUT is gone for good.
if grep -rn 'too_many_arguments' crates/ucx/src || grep -rn 'put_async_at' crates/ src/; then
  echo "crates/ucx/src: pass a PutRequest to the one launcher; put_async_at is put(&PutRequest)" >&2
  exit 1
fi
# One observation per PUT: prediction meets measurement in one consumer,
# `UcxContext::observe`, fed the prediction its launch or transfer already
# holds. The public `record_observation` forward has no caller in the
# crates, and the consumer never resolves a plan.
if awk '/#\[cfg\(test\)\]/ { nextfile } /record_observation\(/ && !/pub fn record_observation\(/ {
  print FILENAME ":" FNR ": " $0; found = 1 } END { exit !found }' $(find crates -name '*.rs' -path '*/src/*') ||
  awk '/pub\(crate\) fn observe\(.*-> bool/ { on = 1 } on && /^    }$/ { exit } on' crates/ucx/src/context.rs |
  grep -E 'plan_for(_inner)?\('; then
  echo "crates/: record_observation( is a forward only; observe must not resolve a plan" >&2; exit 1
fi
# One scenario runner: `run_serial` and `run_parallel`'s workers build their
# engines in one place (`Scenario::simulate`), which checks each flow's id
# at its start, so no id map or captured (local, global) pairs come back.
if [ "$(awk '/#\[cfg\(test\)\]/ { exit } { print }' crates/sim/src/parallel.rs |
  grep -c 'Engine::with_tracing(')" != 1 ] ||
  awk '/#\[cfg\(test\)\]/ { exit } { print }' crates/sim/src/parallel.rs | grep -q 'HashMap'; then
  echo "parallel.rs: one Engine::with_tracing( and no HashMap; build engines in simulate" >&2
  exit 1
fi
# The names a trace, a recorder and a deadlock panic read, and the
# breaker-ledger smoke (a killed link drives a context through recovery).
timeout 120 cargo test -q --test label_golden --test ledgers
bash -n scripts/bench_pairs.sh
# Likewise the payload plane: two buffer locks held at once can deadlock.
timeout 120 cargo test -q --test payload_plane
# The engine goldens and invariants before the workspace suites: an engine
# divergence fails here in seconds, with the scenario's name on it.
timeout 120 cargo test -q --test engine_golden --test engine_invariants
# And the engine's own key-order tests: the single-link re-share against
# the general one on random programs, every key compared after every event.
timeout 120 cargo test -q -p mpx-sim --lib queue_tests
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
[ "$crates_lines" -le 29386 ] ||
  { echo "crates/ grew past its 29386-line ceiling" >&2; exit 1; }

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
# The same canned fault plans through `mpx partition` (serial against
# partitioned, bit for bit) run in tier-1: tests/cli.rs.
echo "fault-matrix smoke: ok"

# Figure-determinism smoke: the quick fig5/6/7 sweeps, twice, must write
# byte-identical JSON — the rank tasks' executor, the tuner and the wait
# order may change how long a figure takes, never a digit of it.
for run in a b; do
  for fig in fig5_bw fig6_bibw fig7_collectives; do
    MPX_RESULTS_DIR="$tmp/fig-$run" "./target/release/$fig" > /dev/null
  done
done
for fig in fig5_bw fig6_bibw fig7_collectives; do
  cmp "$tmp/fig-a/$fig.json" "$tmp/fig-b/$fig.json"
done
echo "figure-determinism smoke: ok"

# Example smokes: the two examples whose rank bodies are application code
# (a halo exchange, a data-parallel training step) run to completion as
# rank tasks; a deadlock or a rank panic exits nonzero.
cargo build --release --examples
for example in halo_exchange collective_training; do
  "./target/release/examples/$example" > /dev/null
done
echo "example smoke: ok"

# Trace-export smoke: `mpx trace` must exit cleanly, its trace.json must
# parse as JSON, and every instrumented phase must contribute at least
# one event (spans/instants carry the phase label in their `cat` field).
./target/release/mpx trace --topo beluga --size 64M \
  --trace-out "$tmp/trace.json" --metrics-out "$tmp/metrics.json"
python3 -c "import json, sys; json.load(open(sys.argv[1])); json.load(open(sys.argv[2]))" \
  "$tmp/trace.json" "$tmp/metrics.json"
for phase in plan probe transfer chunk-leg recovery collective fault tune graph.capture graph.replay health hedge partition; do
  if ! grep -q "\"cat\": \"$phase\"" "$tmp/trace.json"; then
    echo "trace smoke: no $phase events in trace.json" >&2; exit 1
  fi
done
echo "trace-export smoke: ok"

# Trace-repeat smoke: every actor of `mpx trace` runs in a fixed order, so
# 20 runs must write the same simulated metrics (the host-timed
# `ucx.plan.cost_secs.*` histogram aside) and the same trace records (the
# host-timed `wall_us=` field masked). tests/cli.rs pins the same at 8M.
for run in $(seq 1 20); do
  ./target/release/mpx trace --topo beluga --size 64M \
    --trace-out "$tmp/repeat-trace-$run.json" \
    --metrics-out "$tmp/repeat-metrics-$run.json" > /dev/null
done
python3 - "$tmp" <<'PY'
import json, re, sys
tmp = sys.argv[1]
def simulated(run):
    m = json.load(open(f"{tmp}/repeat-metrics-{run}.json"))
    entries = [e for e in m["entries"] if not e["name"].startswith("ucx.plan.cost_secs.")]
    trace = re.sub(r"wall_us=[0-9.]+", "wall_us=", open(f"{tmp}/repeat-trace-{run}.json").read())
    return entries, trace
first = simulated(1)
for run in range(2, 21):
    entries, trace = simulated(run)
    assert entries == first[0], f"run {run}: simulated metrics differ from run 1"
    assert trace == first[1], f"run {run}: trace records differ from run 1"
PY
echo "trace-repeat smoke: ok (20 runs)"

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
