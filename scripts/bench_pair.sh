#!/usr/bin/env bash
# Paired benchmark comparison of a parent commit against the working tree —
# the rule of the choosing-metrics guide, section 8, that a change claiming a
# gain (or none) has to be checked by: at least ten parent/change pairs in
# alternating order, each side's median and quartiles, the win count, and
# whether the medians differ by more than the parent's own run-to-run spread.
# A developer tool, not a CI step.
#
# Usage:
#   scripts/bench_pair.sh <parent-ref> <workload> [pairs=10] [seed=42]
#
# Both sides are built and run with BENCHMARK.json's `command`, each from its
# own source directory with its own target directory under target/bench_pair/
# (the parent's committed files are exported there with `git archive`, which
# leaves nothing behind in .git). Every run is one `--trace 0` run of
# `run_seconds`; its output is kept under target/bench_pair/runs/. A closing
# step runs one `--trace 1` per side and lists the per-layer work metrics
# (unit `count` or `bytes`, and retract.useful_share) that differ.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 2 || $# -gt 4 ]]; then
  sed -n '2,16p' "$0" | sed 's/^# \{0,1\}//'
  exit 2
fi
parent_ref=$1
workload=$2
pairs=${3:-10}
seed=${4:-42}

root=$PWD
work=$root/target/bench_pair
parent_rev=$(git rev-parse --short "$parent_ref^{commit}")
parent_src=$work/parent-$parent_rev
runs=$work/runs/$workload-seed$seed-$parent_rev
mkdir -p "$work" "$runs"

# BENCHMARK.json: the command (one word per array element), the run length,
# and per end-to-end metric its direction and bound.
read -r -a command < <(sed -n 's/.*"command": *\[\(.*\)\].*/\1/p' BENCHMARK.json | tr -d '",')
seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)
metrics=$(sed -n 's/.*"name": *"\([^"]*\)".*"better": *"\([^"]*\)".*"bound": *\([0-9.]*\).*/\1 \2 \3/p' BENCHMARK.json)
[[ ${#command[@]} -gt 0 && -n $seconds && -n $metrics ]] || {
  echo "bench_pair: cannot read command/run_seconds/end_to_end from BENCHMARK.json" >&2
  exit 1
}

if [[ ! -d $parent_src ]]; then
  mkdir -p "$parent_src"
  git archive "$parent_rev" | tar -x -C "$parent_src"
fi

# run_side <side> <source dir> <output file> <trace> [extra args]: one
# benchmark run.
run_side() {
  local side=$1 src=$2 out=$3 trace=$4
  shift 4
  (cd "$src" && CARGO_TARGET_DIR=$work/target-$side "${command[@]}" \
    --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" "$@") >"$out" 2>&1 || {
    echo "bench_pair: the $side run failed, see $out" >&2
    exit 1
  }
}

echo "== building parent ($parent_rev) and change (working tree)"
run_side parent "$parent_src" "$runs/build_parent.txt" 0 --smoke
run_side change "$root" "$runs/build_change.txt" 0 --smoke

for ((i = 1; i <= pairs; i++)); do
  if ((i % 2)); then order=(parent change); else order=(change parent); fi
  for side in "${order[@]}"; do
    if [[ $side == parent ]]; then src=$parent_src; else src=$root; fi
    run_side "$side" "$src" "$runs/${side}_$i.txt" 0
  done
  echo "== pair $i/$pairs (${order[*]}):" \
    "$(awk -v w="$workload" '$1 == w && $2 == "rows_per_s" { printf "parent %.1f", $3 }' "$runs/parent_$i.txt")" \
    "$(awk -v w="$workload" '$1 == w && $2 == "rows_per_s" { printf "change %.1f rows/s", $3 }' "$runs/change_$i.txt")"
done

# One line per metric: each side's median [q1, q3], the pairs the change won,
# and the verdict.
echo
echo "$workload, seed $seed, $pairs pairs of ${seconds}s runs: parent $parent_rev vs working tree"
while read -r name better bound; do
  for ((i = 1; i <= pairs; i++)); do
    for side in parent change; do
      awk -v w="$workload" -v m="$name" -v s="$side" -v i="$i" \
        '$1 == w && $2 == m { print s, i, $3 }' "$runs/${side}_$i.txt"
    done
  done | awk -v name="$name" -v better="$better" -v bound="$bound" -v pairs="$pairs" '
    function quantile(v, n, q,    h, lo) {
      h = (n - 1) * q + 1; lo = int(h)
      return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
    }
    function summarise(side, out,    n, i, j, x, sorted) {
      n = 0
      for (i = 1; i <= pairs; i++) {
        if (!((side, i) in value)) continue
        x = value[side, i]
        for (j = n++; j >= 1 && sorted[j] > x; j--) sorted[j + 1] = sorted[j]
        sorted[j + 1] = x
      }
      out["n"] = n
      out["q1"] = quantile(sorted, n, 0.25)
      out["med"] = quantile(sorted, n, 0.5)
      out["q3"] = quantile(sorted, n, 0.75)
    }
    { value[$1, $2] = $3 + 0 }
    END {
      summarise("parent", p); summarise("change", c)
      if (p["n"] != pairs || c["n"] != pairs) {
        printf "%-24s missing from %d parent and %d change runs\n", name, pairs - p["n"], pairs - c["n"]
        exit
      }
      sign = better == "higher" ? 1 : -1
      for (i = 1; i <= pairs; i++) {
        d = sign * (value["change", i] - value["parent", i])
        if (d > 0) wins++; else if (d < 0) losses++
      }
      gain = sign * (c["med"] - p["med"])
      iqr = p["q3"] - p["q1"]
      if (gain > iqr && wins >= 0.9 * pairs) verdict = "better (median gap > parent IQR, wins >= 9/10)"
      else if (-gain > bound * p["med"]) verdict = sprintf("WORSE than the %g%% bound", bound * 100)
      else if (iqr > bound * p["med"]) verdict = sprintf("unresolved (parent IQR wider than the %g%% bound)", bound * 100)
      else if (gain > iqr || -gain > iqr) verdict = "moved, within bound, rule not met"
      else verdict = "unchanged (median gap <= parent IQR)"
      printf "%-24s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  x%.3f  won %d lost %d of %d  %s\n",
        name, p["med"], p["q1"], p["q3"], c["med"], c["q1"], c["q3"],
        c["med"] / p["med"], wins, losses, pairs, verdict
    }'
done <<<"$metrics"

# Same work? The traced mirror replays a fixed number of rows, so its
# per-layer metrics of unit `count` or `bytes`, and retract.useful_share, are
# exact: one traced run per side, and every one of them that differs.
run_side parent "$parent_src" "$runs/trace_parent.txt" 1
run_side change "$root" "$runs/trace_change.txt" 1
echo
echo "per-layer work metrics that differ (one --trace 1 run per side):"
awk -v w="$workload" '
  $1 != w || !($4 == "count" || $4 == "bytes" || $2 == "retract.useful_share") { next }
  FNR == NR { parent[$2] = $3; next }
  { seen[$2] = 1 }
  !($2 in parent) || parent[$2] != $3 {
    printf "  %-28s parent %s  change %s\n", $2, ($2 in parent ? parent[$2] : "-"), $3; differing++
  }
  END {
    for (m in parent) if (!(m in seen)) { printf "  %-28s parent %s  change -\n", m, parent[m]; differing++ }
    if (!differing) print "  none: equal to the unit"
  }' "$runs/trace_parent.txt" "$runs/trace_change.txt"
grep -h -e '_reply_hash=' -e '^{"correct"' "$runs/trace_parent.txt" "$runs/trace_change.txt" | cut -c1-64
