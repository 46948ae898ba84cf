#!/usr/bin/env bash
# Alternating parent/change pairs of one bench_e2e workload, summarised the
# way a perf claim is judged (the choosing-metrics guide, section 8): per
# metric each side's median and quartiles, how many pairs the change won,
# the ratio of medians, and how that sits against the metric's bound in
# BENCHMARK.json (which this script only reads).
#
#   scripts/bench_pairs.sh <parent-dir> <change-dir> <workload> [pairs] [seed]
#
# Both directories are checkouts with bench_e2e already built:
#   cargo build --release --offline --quiet --manifest-path bench_e2e/Cargo.toml
# Odd pairs run the parent first, even pairs the change. Every raw line is
# echoed to stderr as it arrives; the summary goes to stdout. Run it on a
# quiet machine: a concurrent cargo halves the numbers.
set -euo pipefail

if [ $# -lt 3 ]; then
  sed -n '2,15p' "$0" >&2
  exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
workload="$3"
pairs="${4:-10}"
seed="${5:-7}"
spec="$(cd "$(dirname "$0")/.." && pwd)/BENCHMARK.json"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$spec")"

# One run: "<pair> <side> <metric> <value>" per metric, plus the failed count.
run() {
  (cd "$2" && ./bench_e2e/target/release/bench_e2e \
    --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) |
    awk -v pair="$3" -v side="$1" -v w="$workload" '
      $1 == w { print pair, side, $2, $4 }
      $1 == "#" && /failed=/ { sub(/.*failed=/, ""); print pair, side, "failed", $1 }'
}

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT
for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) = 1 ]; then order="parent change"; else order="change parent"; fi
  for side in $order; do
    if [ "$side" = parent ]; then dir="$parent"; else dir="$change"; fi
    run "$side" "$dir" "$i" | tee -a "$raw" >&2
  done
done

echo "# $workload seed=$seed seconds=$seconds pairs=$pairs nproc=$(nproc)"
# "name better bound" for each end-to-end metric, in BENCHMARK.json order.
sed -n '/"end_to_end"/,/\]/s/.*"name": *"\([^"]*\)".*"better": *"\([^"]*\)".*"bound": *\([0-9.]*\).*/\1 \2 \3/p' "$spec" |
  awk -v raw="$raw" '
    function quantile(v, n, p,    pos, lo) {
      pos = (n - 1) * p + 1; lo = int(pos)
      return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
    }
    function summary(side, metric, out,    n, i, j, x, v) {
      n = 0
      for (i = 1; i <= pairs; i++) if ((i, side, metric) in val) {
        x = val[i, side, metric] + 0
        for (j = n++; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
        v[j + 1] = x
      }
      out["q1"] = quantile(v, n, 0.25); out["med"] = quantile(v, n, 0.5); out["q3"] = quantile(v, n, 0.75)
    }
    BEGIN {
      while ((getline line < raw) > 0) {
        split(line, f, " ")
        val[f[1], f[2], f[3]] = f[4]
        if (f[1] + 0 > pairs) pairs = f[1] + 0
        if (f[3] == "failed") failed[f[2]] += f[4]
      }
      printf "%-14s %38s %38s %6s %7s  %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "ratio", "against bound"
    }
    {
      metric = $1; higher = ($2 == "higher"); bound = $3
      summary("parent", metric, p); summary("change", metric, c)
      wins = 0; ties = 0
      for (i = 1; i <= pairs; i++) {
        a = val[i, "parent", metric] + 0; b = val[i, "change", metric] + 0
        if (a == b) ties++; else if (higher ? b > a : b < a) wins++
      }
      ratio = p["med"] == 0 ? 1 : c["med"] / p["med"]
      worse = higher ? 1 - ratio : ratio - 1
      if (ties == pairs) verdict = "identical"
      else if (worse > bound) verdict = sprintf("WORSE by %.1f%% (bound %.0f%%)", worse * 100, bound * 100)
      else if (worse > 0) verdict = sprintf("worse by %.1f%% (bound %.0f%%)", worse * 100, bound * 100)
      else verdict = sprintf("better by %.1f%%%s", -worse * 100, \
        (higher ? c["med"] - p["med"] : p["med"] - c["med"]) > p["q3"] - p["q1"] ? ", beyond the parent quartile spread" : "")
      printf "%-14s %14.6g [%9.6g, %9.6g] %14.6g [%9.6g, %9.6g] %3d/%-2d %7.3f  %s\n", \
        metric, p["med"], p["q1"], p["q3"], c["med"], c["q1"], c["q3"], wins, pairs - ties, ratio, verdict
    }
    END { printf "failed operations: parent %d, change %d\n", failed["parent"], failed["change"] }'
