#!/usr/bin/env bash
# Paired A/B timing of the repository benchmark (perfbench): a base
# revision against the working tree, on one machine, interleaved.
#
#   scripts/perf_ab.sh <base-rev> <workload> [pairs] [first-seed]
#
#   base-rev    any git revision, e.g. HEAD, HEAD~1, a commit id
#   workload    a workload BENCHMARK.json declares (perfbench checks it)
#   pairs       number of pairs to run (default 10)
#   first-seed  seed of the first pair; pair i uses first-seed + i
#               (default 1). Both sides of a pair use the same seed.
#
# Builds perfbench fresh from `git archive <base-rev>` and from the
# working tree (uncommitted changes included), then runs the pairs at
# the `run_seconds` BENCHMARK.json fixes (25 s). Even pairs run the base
# first and odd pairs the working tree first, so a drift in host load
# falls on both sides alike. Prints every end-to-end metric of every
# pair, then per metric each side's median [Q1, Q3], the ratio of the
# medians (working tree / base) and how many pairs the working tree won
# (ties count for neither side). A run is two builds plus about a minute
# per pair. Nothing is left behind: the exported base tree and the run
# directories live in a temporary directory removed at exit.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 2 || $# -gt 4 ]]; then
  sed -n '5,12p' "$0" >&2
  exit 2
fi
base_rev="$1"
workload="$2"
pairs="${3:-10}"
seed0="${4:-1}"
secs="$(sed -n 's/^ *"run_seconds": *\([0-9][0-9]*\).*$/\1/p' BENCHMARK.json)"
[[ -n "$secs" ]] || { echo "perf_ab: no run_seconds in BENCHMARK.json" >&2; exit 2; }
[[ "$pairs" =~ ^[1-9][0-9]*$ && "$seed0" =~ ^[0-9]+$ ]] || {
  echo "perf_ab: pairs and first-seed must be whole numbers" >&2
  exit 2
}
rev="$(git rev-parse --verify "$base_rev^{commit}")"

work="$(mktemp -d -t perf_ab.XXXXXX)"
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/base" "$work/run-base" "$work/run-head"

echo "==> building perfbench at $base_rev ($rev)" >&2
git archive "$rev" | tar -x -C "$work/base"
cargo build --release --offline --quiet --manifest-path "$work/base/perfbench/Cargo.toml"
echo "==> building perfbench from the working tree" >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
bin_base="$work/base/perfbench/target/release/perfbench"
bin_head="$work/perfbench-head"
cp perfbench/target/release/perfbench "$bin_head"

# Runs one side; appends "<side> <pair> <metric> <value>" lines to the
# results file, or "<side> <pair> FAILED <exit code>" and the run's
# stderr tail (e.g. perfbench naming an unknown workload).
run_side() {
  local side="$1" pair="$2" seed="$3" bin out code=0
  [[ "$side" == base ]] && bin="$bin_base" || bin="$bin_head"
  out="$(cd "$work/run-$side" && "$bin" --workload "$workload" --seed "$seed" \
    --seconds "$secs" --trace 0 2>"$work/stderr")" || code=$?
  if [[ $code -ne 0 ]]; then
    echo "$side $pair FAILED $code" >>"$work/results"
    tail -n 3 "$work/stderr" >&2
    return
  fi
  tail -n 1 <<<"$out" | grep -o '"[A-Za-z0-9_.-]*":{"value":[^,}]*' |
    sed 's/^"\([^"]*\)":{"value":\(.*\)$/\1 \2/' |
    while read -r name value; do echo "$side $pair $name $value"; done >>"$work/results"
}

: >"$work/results"
for ((i = 0; i < pairs; i++)); do
  seed=$((seed0 + i))
  if ((i % 2 == 0)); then order="base head"; else order="head base"; fi
  for side in $order; do run_side "$side" "$i" "$seed"; done
  echo "pair $i (seed $seed, $order first): $(grep -c "^[a-z]* $i " "$work/results") values" >&2
done

echo "perf_ab: $workload, $pairs pairs from seed $seed0, --seconds $secs, base $base_rev ($rev) vs working tree"
awk '
  function better(m) { return (m == "sim_mops" || m == "cells_per_s") ? 1 : -1 }
  # Linear-interpolated quantile of the sorted values a[1..n].
  function quant(a, n, q,   p, lo) {
    p = 1 + (n - 1) * q; lo = int(p)
    return lo >= n ? a[n] : a[lo] + (p - lo) * (a[lo + 1] - a[lo])
  }
  function sorted(side, m, a,   n, i, j, t) {
    n = 0
    for (i = 0; i < npairs; i++) if ((side, i, m) in v) a[++n] = v[side, i, m]
    for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    return n
  }
  $3 == "FAILED" { failed[$1]++; next }
  {
    v[$1, $2, $3] = $4
    if (!($3 in seen)) { seen[$3] = 1; names[++nm] = $3 }
    if ($2 + 1 > npairs) npairs = $2 + 1
  }
  END {
    for (k = 1; k <= nm; k++) {
      m = names[k]
      printf "\n%s (%s is better)\n", m, (better(m) > 0 ? "higher" : "lower")
      printf "  %-5s %14s %14s %8s\n", "pair", "base", "head", "ratio"
      wins = 0; both = 0
      for (i = 0; i < npairs; i++) {
        if (!((("base", i, m) in v) && (("head", i, m) in v))) continue
        b = v["base", i, m]; h = v["head", i, m]; both++
        if ((h - b) * better(m) > 0) wins++
        printf "  %-5d %14.6g %14.6g %8.4f\n", i, b, h, b != 0 ? h / b : 0
      }
      nb = sorted("base", m, ab); nh = sorted("head", m, ah)
      if (nb == 0 || nh == 0) continue
      mb = quant(ab, nb, 0.5); mh = quant(ah, nh, 0.5)
      printf "  base median %.6g [%.6g, %.6g]  head median %.6g [%.6g, %.6g]\n",
        mb, quant(ab, nb, 0.25), quant(ab, nb, 0.75), mh, quant(ah, nh, 0.25), quant(ah, nh, 0.75)
      printf "  ratio of medians %.4f; head won %d of %d pairs\n", mb != 0 ? mh / mb : 0, wins, both
    }
    printf "\nfailed runs: base %d, head %d\n", failed["base"] + 0, failed["head"] + 0
  }
' "$work/results"
