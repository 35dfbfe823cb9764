#!/usr/bin/env bash
# A/B benchmark gate: runs uvmbench/run_benchmark.py on a parent commit and
# on the working tree in 10 interleaved pairs per workload, alternating which
# side runs first, then judges the pairs by the merge rule
# (scripts/bench_verdict.py, docs/PERF.md).
#
#   scripts/bench.sh [--baseline-ref REF] [--workload W] [--seed N] [--seconds S]
#
# --baseline-ref  the parent (default HEAD, so uncommitted edits are the
#                 change), unpacked with git archive into a temp dir
# --workload, --seed, --seconds
#                 passed to the runner; without --workload every
#                 BENCHMARK.json workload runs
#
# Each tree builds under its own CARGO_TARGET_DIR. The results stay in
# .bench_build/ab/{parent,change}/: WORKLOAD.jsonl holds one runner result
# line per run, WORKLOAD.trace.json one --trace 1 result. Exit status: 0
# pass, 1 a worse metric or a larger failed-op share, 2 a usage or build
# error.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: scripts/bench.sh [--baseline-ref REF] [--workload W] [--seed N] [--seconds S]" >&2
  exit 2
}
REF=HEAD
PASS=()
WORKLOADS=()
while [[ $# -gt 0 ]]; do
  [[ $# -ge 2 ]] || usage
  case "$1" in
    --baseline-ref) REF="$2" ;;
    --workload) WORKLOADS=("$2") ;;
    --seed | --seconds) PASS+=("$1" "$2") ;;
    *) usage ;;
  esac
  shift 2
done
PAIRS=10  # the merge rule's count, as in scripts/bench_verdict.py
git rev-parse -q --verify "$REF^{commit}" > /dev/null || {
  echo "bench: $REF names no commit" >&2; exit 2; }
[[ ${#WORKLOADS[@]} -gt 0 ]] || mapfile -t WORKLOADS < <(python3 -c 'import json
for w in json.load(open("BENCHMARK.json"))["workloads"]: print(w["name"])')

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
mkdir "$TMP/parent"
git archive "$REF" | tar -x -C "$TMP/parent"
OUT=.bench_build/ab
rm -rf "$OUT"
mkdir -p "$OUT/parent" "$OUT/change"

runner() {  # SIDE ARGS...
  if [[ $1 == parent ]]; then
    (cd "$TMP/parent" && CARGO_TARGET_DIR="$TMP/build" python3 uvmbench/run_benchmark.py "${@:2}")
  else
    python3 uvmbench/run_benchmark.py "${@:2}"
  fi
}

# Both trees build, and every workload passes its output checks, before any
# timing starts.
for side in parent change; do
  echo "== bench: building the $side"
  for w in "${WORKLOADS[@]}"; do
    runner "$side" --smoke --workload "$w" > "$TMP/smoke" 2>&1 || {
      tail -n 20 "$TMP/smoke" >&2
      echo "bench: the $side fails to build or to pass the $w smoke run" >&2
      exit 2
    }
  done
done

run() {  # SIDE WORKLOAD FILE [--trace 1]: appends the runner's result line to FILE
  local log="$OUT/$1/$2.log"
  if ! runner "$1" --workload "$2" "${PASS[@]}" "${@:4}" 2>> "$log" | tee -a "$log" |
      tail -n 1 >> "$3"; then
    echo "bench: a $1 run of $2 failed, see $log" >&2
    [[ $1 == change ]] && exit 1 || exit 2
  fi
}

for w in "${WORKLOADS[@]}"; do
  for ((i = 0; i < PAIRS; i++)); do
    order=(parent change)
    ((i % 2 == 0)) || order=(change parent)
    for side in "${order[@]}"; do
      echo "== bench: $w pair $((i + 1))/$PAIRS, $side"
      run "$side" "$w" "$OUT/$side/$w.jsonl"
    done
  done
  for side in parent change; do
    echo "== bench: $w traced run, $side"
    run "$side" "$w" "$OUT/$side/$w.trace.json" --trace 1
  done
done
python3 scripts/bench_verdict.py "$OUT/parent" "$OUT/change"
