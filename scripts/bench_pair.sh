#!/usr/bin/env bash
# Paired benchmark comparison of a parent commit against the working tree —
# the rule of the choosing-metrics guide, section 8, that a change claiming a
# gain (or none) has to be checked by: at least ten parent/change pairs in
# alternating order, each side's median and quartiles, the win count with
# its one-sided sign-test p-value, and whether the medians differ by more
# than the parent's own run-to-run spread. A developer tool, not a CI step.
#
# Usage:
#   scripts/bench_pair.sh <parent-ref> <workload> [pairs=10] [seed=42]
#   scripts/bench_pair.sh --self-test
#
# Both sides are built and run with BENCHMARK.json's `command`, each from its
# own source directory with its own target directory under target/bench_pair/
# (the parent's committed files are exported there with `git archive`, which
# leaves nothing behind in .git). Every run is one `--trace 0` run of
# `run_seconds`; its output is kept under target/bench_pair/runs/. When a
# metric reads WORSE or unresolved, the workload runs a second block of pairs
# that starts with the other side, and the final verdict is WORSE only where
# both blocks say so: a metric with two modes (a few slow draws on one side)
# cannot sink a change alone. A closing step runs one `--trace 1` per side and
# lists the per-layer work metrics (unit `count` or `bytes`, and
# retract.useful_share) that differ. `--self-test` runs the verdict rules on
# canned runs and exits non-zero if one misjudges.
set -euo pipefail
cd "$(dirname "$0")/.."

# verdict <name> <better> <bound> <pairs>: judges one metric from "side pair
# value" lines on stdin (side: parent or change). Prints one line — medians
# [quartiles], ratio, the pairs the change won and lost with the one-sided
# sign-test p-value of that many wins, and "=> verdict" — and, for a WORSE
# or unresolved verdict, a "runs" line with each side's values sorted, so a
# metric's modes are visible.
verdict() {
  awk -v name="$1" -v better="$2" -v bound="$3" -v pairs="$4" '
    function quantile(v, n, q,    h, lo) {
      h = (n - 1) * q + 1; lo = int(h)
      return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
    }
    function summarise(side, out, sorted,    n, i, j, x) {
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
    # P(at least `wins` of wins + losses fair coin flips), ties excluded.
    function sign_test(wins, losses,    n, k, c, p) {
      n = wins + losses
      if (n == 0) return 1
      c = 1; p = 0
      for (k = 0; k <= n; k++) {
        if (k >= wins) p += c
        c = c * (n - k) / (k + 1)
      }
      return p / 2 ^ n
    }
    function joined(v, n,    i, s) {
      for (i = 1; i <= n; i++) s = s (i > 1 ? " " : "") sprintf("%.6g", v[i])
      return s
    }
    { value[$1, $2] = $3 + 0 }
    END {
      summarise("parent", p, ps); summarise("change", c, cs)
      if (p["n"] != pairs || c["n"] != pairs) {
        printf "%-24s missing from %d parent and %d change runs => unresolved\n", name, pairs - p["n"], pairs - c["n"]
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
      printf "%-24s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  x%.3f  won %d lost %d of %d (p %.3f) => %s\n",
        name, p["med"], p["q1"], p["q3"], c["med"], c["q1"], c["q3"],
        c["med"] / p["med"], wins, losses, pairs, sign_test(wins, losses), verdict
      if (verdict ~ /^(WORSE|unresolved)/)
        printf "  runs %-19s parent %s | change %s\n", "(sorted)", joined(ps, pairs), joined(cs, pairs)
    }'
}

# final_verdicts <block 1 report> <block 2 report>: one line per metric of
# block 1. WORSE only where both blocks read WORSE; a metric block 1 left
# unresolved takes block 2's verdict; any other keeps block 1's.
final_verdicts() {
  awk '
    FNR == 1 { block++ }
    $1 == "runs" || !/ => / { next }
    {
      text = substr($0, index($0, " => ") + 4)
      said[$1, block] = text
      if (block == 1) order[++n] = $1
    }
    END {
      for (i = 1; i <= n; i++) {
        m = order[i]; a = said[m, 1]; b = said[m, 2]
        if (a ~ /^WORSE/ && b ~ /^WORSE/) f = "WORSE in both blocks"
        else if (a ~ /^WORSE/) f = "not worse: WORSE in block 1 only, block 2: " b
        else if (b ~ /^WORSE/) f = "not worse: WORSE in block 2 only, block 1: " a
        else if (a ~ /^unresolved/) f = "block 2: " b
        else f = "block 1: " a
        printf "%-24s %s\n", m, f
      }
    }' <(printf '%s\n' "$1") <(printf '%s\n' "$2")
}

# The verdict rules on canned runs. The bimodal case is thin_durable
# setup_s as recorded: the parent reads 0.045–0.062 s seven times and
# 0.069–0.082 s three times, and an A/A change side draws from the same two
# modes.
self_test() {
  local failed=0
  # canned <parent values> <change values>: "side pair value" lines.
  canned() {
    local side values i
    for side in parent change; do
      if [[ $side == parent ]]; then values=($1); else values=($2); fi
      for i in "${!values[@]}"; do echo "$side $((i + 1)) ${values[$i]}"; done
    done
  }
  # expect <what> <extended regex> <text> [absent]: the text matches (or,
  # with a fourth argument, does not match) the pattern.
  expect() {
    local hit=0
    grep -qE -- "$2" <<<"$3" && hit=1
    if [[ $hit != "${4:-1}" ]]; then
      echo "FAIL $1:"
      printf '%s\n' "$3"
      failed=1
    else
      echo "ok   $1"
    fi
  }
  local parent="0.045 0.052 0.048 0.075 0.058 0.050 0.082 0.055 0.069 0.062"
  local unlucky="0.071 0.047 0.080 0.056 0.088 0.051 0.074 0.060 0.089 0.078"
  local recorded="0.045 0.060 0.049 0.053 0.088 0.047 0.055 0.051 0.089 0.058"
  local b1 b2 final
  b1=$(canned "$parent" "$unlucky" | verdict setup_s lower 0.25 10)
  b2=$(canned "$parent" "$recorded" | verdict setup_s lower 0.25 10)
  expect "an unlucky A/A block of a bimodal metric reads WORSE" '=> WORSE' "$b1"
  expect "a flagged metric prints its sorted runs" \
    'runs \(sorted\) +parent 0.045 0.048 0.05 0.052 0.055 0.058 0.062 0.069 0.075 0.082 \| change 0.047' "$b1"
  final=$(final_verdicts "$b1" "$b2")
  expect "the A/A change does not end WORSE" 'WORSE in both' "$final" 0
  expect "the A/A change ends not worse" '^setup_s +not worse: WORSE in block 1 only' "$final"

  local slower
  slower=$(awk '{ for (i = 1; i <= NF; i++) printf "%s%.4f", (i > 1 ? " " : ""), $i * 1.3 }' <<<"$parent")
  b1=$(canned "$parent" "$slower" | verdict setup_s lower 0.25 10)
  expect "a planted 30 % regression reads WORSE" '=> WORSE' "$b1"
  final=$(final_verdicts "$b1" "$b1")
  expect "a planted 30 % regression stays WORSE" '^setup_s +WORSE in both blocks' "$final"

  b1=$(canned "1 2 3 4 5 6 7 8 9 10" "2 3 4 5 6 7 8 9 10 0" | verdict rows_per_s higher 0.2 10)
  expect "9 of 10 pairs won is p 0.011" 'won 9 lost 1 of 10 \(p 0\.011\)' "$b1"
  b1=$(canned "1 2 3 4 5 6 7 8 9 10" "2 3 4 5 6 7 8 9 10 11" | verdict rows_per_s higher 0.2 10)
  expect "10 of 10 pairs won is p 0.001" 'won 10 lost 0 of 10 \(p 0\.001\)' "$b1"
  return $failed
}

if [[ ${1:-} == --self-test ]]; then
  self_test
  exit
fi

if [[ $# -lt 2 || $# -gt 4 ]]; then
  sed -n '2,25p' "$0" | sed 's/^# \{0,1\}//'
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

# run_block <block> <side that runs first>: `pairs` alternating pairs, kept
# as $runs/block<block>/<side>_<pair>.txt.
run_block() {
  local block=$1 first=$2 second i side src order
  if [[ $first == parent ]]; then second=change; else second=parent; fi
  mkdir -p "$runs/block$block"
  for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then order=("$first" "$second"); else order=("$second" "$first"); fi
    for side in "${order[@]}"; do
      if [[ $side == parent ]]; then src=$parent_src; else src=$root; fi
      run_side "$side" "$src" "$runs/block$block/${side}_$i.txt" 0
    done
    echo "== block $block pair $i/$pairs (${order[*]}):" \
      "$(awk -v w="$workload" '$1 == w && $2 == "rows_per_s" { printf "parent %.1f", $3 }' "$runs/block$block/parent_$i.txt")" \
      "$(awk -v w="$workload" '$1 == w && $2 == "rows_per_s" { printf "change %.1f rows/s", $3 }' "$runs/block$block/change_$i.txt")"
  done
}

# report_block <block>: one verdict per end-to-end metric.
report_block() {
  local block=$1 name better bound i side
  while read -r name better bound; do
    for ((i = 1; i <= pairs; i++)); do
      for side in parent change; do
        awk -v w="$workload" -v m="$name" -v s="$side" -v i="$i" \
          '$1 == w && $2 == m { print s, i, $3 }' "$runs/block$block/${side}_$i.txt"
      done
    done | verdict "$name" "$better" "$bound" "$pairs"
  done <<<"$metrics"
}

echo "== building parent ($parent_rev) and change (working tree)"
run_side parent "$parent_src" "$runs/build_parent.txt" 0 --smoke
run_side change "$root" "$runs/build_change.txt" 0 --smoke

run_block 1 parent
report1=$(report_block 1)
echo
echo "$workload, seed $seed, block 1 ($pairs pairs of ${seconds}s runs, parent first): parent $parent_rev vs working tree"
printf '%s\n' "$report1"
if grep -qE '=> (WORSE|unresolved)' <<<"$report1"; then
  echo
  echo "== a metric is WORSE or unresolved: block 2 starts with the change"
  run_block 2 change
  report2=$(report_block 2)
  echo
  echo "$workload, seed $seed, block 2 ($pairs pairs, change first)"
  printf '%s\n' "$report2"
  echo
  echo "final verdicts (WORSE only where both blocks say so):"
  final_verdicts "$report1" "$report2"
fi

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
