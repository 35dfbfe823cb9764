#!/usr/bin/env bash
# ci.sh — the full verification pipeline: build + test every preset
# (default, asan, ubsan, tsan), smoke an audited oversubscribed run under
# each sanitizer, then static analysis (uvmsim-analyze rule engine,
# clang-tidy when installed).
#
#   scripts/ci.sh            # everything
#   scripts/ci.sh --quick    # default preset + analysis only
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 2)
quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

presets=(default asan ubsan tsan)
[[ $quick -eq 1 ]] && presets=(default)

declare -A build_dir=(
  [default]=build [asan]=build-asan [ubsan]=build-ubsan [tsan]=build-tsan)

for preset in "${presets[@]}"; do
  echo "==> [$preset] configure + build"
  cmake --preset "$preset" > /dev/null
  cmake --build --preset "$preset" -j "$jobs"

  echo "==> [$preset] ctest"
  ctest --preset "$preset" -j "$jobs"

  # Audit smoke: bfs at 75 % residency (working set / capacity = 4/3) with
  # the invariant auditor fail-fast — any violation fails the pipeline.
  echo "==> [$preset] audited oversubscription smoke"
  "${build_dir[$preset]}/tools/uvmsim" --workload bfs --policy adaptive \
      --oversub 1.3333 --scale 0.1 --audit | grep '^audit:'
done

# Fig contract (src/report/figures.hpp): Figs 1 and 4-8 are slices of the
# evaluation sweep, Figs 2 and 3 are bench binaries. A full-scale sweep and
# the two binaries, run in an empty directory, must write every tracked
# figure file byte-identical to artifacts/.
echo "==> fig contract (uvmsim-sweep --scale 1.0, fig2, fig3 vs artifacts/)"
figdir=$(mktemp -d)
bin=$PWD/build
(cd "$figdir" && "$bin/tools/uvmsim-sweep" --scale 1.0 --jobs "$jobs" --out sweep.csv > /dev/null \
    && "$bin/bench/fig2_access_distribution" > /dev/null \
    && "$bin/bench/fig3_access_pattern" > /dev/null)
nfig=0
for f in artifacts/fig*; do
  cmp "$f" "$figdir/${f#artifacts/}" || { echo "${f#artifacts/} differs from $f"; exit 1; }
  nfig=$((nfig + 1))
done
rm -rf "$figdir"
echo "fig contract: the $nfig figure files match artifacts/"

# Bench verdict (docs/PERF.md): the judging step of scripts/bench.sh on
# synthetic saved results, so it needs no second build. The 'slow' set moves
# a higher-is-better, a lower-is-better and a 10 %-bound metric past their
# bounds, and setup_s by 1.15x, inside its 25 % bound: exactly three fail.
# In 'gain', 0.7x p50 in every pair is a gain; 0.995x, inside the spread, or
# 0.7x in only 8 pairs is not.
echo "==> bench verdict (scripts/bench_verdict.py on synthetic runs)"
rm -rf /tmp/uvmsim_verdict
python3 - /tmp/uvmsim_verdict <<'PY'
import json, pathlib, sys
spec = json.load(open("BENCHMARK.json"))
def runs(change, scale={}, spread=0.0, failed=0, pairs=10, ties=0):
    """One side's result lines; scale (after the first `ties` runs) and failed
    apply to the change only."""
    for i in range(pairs):
        f = 1 + 0.002 * i + spread * (i - 4.5) / 4.5
        s = scale if change and i >= ties else {}
        yield {"attempted": 50, "failed": failed if change and i == 0 else 0, "metrics": {
            m["name"]: {"value": 100 * f * s.get(m["name"], 1), "unit": m["unit"]}
            for m in spec["end_to_end"]}}
sets = {"same": {}, "failed": {"thrash": {"failed": 1}}, "wide": {"thrash": {"spread": 0.3}},
        "gain": {"thrash": {"scale": {"run_ns_per_access_p50": 0.7}},
                 "replay": {"scale": {"run_ns_per_access_p50": 0.995}},
                 "fuzz": {"scale": {"run_ns_per_access_p50": 0.7}, "ties": 2}},
        "few": {w["name"]: {"pairs": 9} for w in spec["workloads"]},
        "slow": {"paper-grid": {"scale": {"setup_s": 1.15}},
                 "thrash": {"scale": {"accesses_per_sec": 0.6}},
                 "replay": {"scale": {"run_ns_per_access_p50": 1.5}},
                 "fuzz": {"scale": {"peak_rss_mb": 1.15}}}}
for name, changed in sets.items():
    for w in spec["workloads"]:
        for side in ("parent", "change"):
            d = pathlib.Path(sys.argv[1], name, side)
            d.mkdir(parents=True, exist_ok=True)
            (d / f"{w['name']}.jsonl").write_text("".join(json.dumps(r) + "\n" for r in runs(
                side == "change", **changed.get(w["name"], {}))))
PY
verdict() {  # SET WANT_RC WANT_FAILURES PATTERN...: FAILURES are the gate's, joined by ';'
  local d=/tmp/uvmsim_verdict/$1 rc=0 got p
  python3 scripts/bench_verdict.py "$d/parent" "$d/change" > "$d.log" 2>&1 || rc=$?
  got=$(grep -E '^(worse|failed ops):' "$d.log" | paste -sd ';') || true
  for p in "${@:4}"; do grep -q "$p" "$d.log" || got+=" (no '$p')"; done
  if [[ $rc -ne $2 || "$got" != "$3" ]]; then
    cat "$d.log"
    echo "bench verdict on the '$1' set: rc=$rc and '$got', want $2 and '$3'"; exit 1
  fi
}
verdict same 0 "" "^gate: pass"
verdict slow 1 "worse: thrash accesses_per_sec;worse: replay run_ns_per_access_p50;worse: fuzz peak_rss_mb" "^gate: FAIL"
verdict failed 1 "failed ops: thrash share rose" "^gate: FAIL"
verdict wide 0 "" "unresolved"
verdict gain 0 "" "p50 .* wins 10/10  gain$" "p50 .* wins 10/10  same$" \
    "p50 .* wins 8/10  same$"
verdict few 2 "" "too few pairs, 9"
echo "bench verdict: identical, slow, failed-op, wide-spread, gain and too-few-pairs sets judged as expected"

# Benchmark smoke (uvmbench/README.md): one small pass of every BENCHMARK.json
# workload, untraced and traced, with the benchmark's own output checks —
# traced and untraced SimStats equal, the Fig 6 ratios, the capture's replay
# equal to the recorded run, zero fuzz divergences. It must end with the
# runner's {"smoke": "ok"} line.
echo "==> benchmark smoke (uvmbench/run_benchmark.py --smoke)"
python3 uvmbench/run_benchmark.py --smoke | tee /tmp/uvmsim_benchmark_smoke.log
tail -n 1 /tmp/uvmsim_benchmark_smoke.log | python3 -c '
import json, sys
doc = json.loads(sys.stdin.read())
assert doc.get("smoke") == "ok", f"benchmark smoke did not finish ok: {doc}"
print("benchmark smoke: ok")'

# Observability smoke: an audited oversubscribed run with the Chrome trace
# writer and the registry-complete metrics recorder attached must produce a
# parseable trace (monotone timestamps, every event family present) and a
# metrics CSV whose header carries the registry's cumulative+delta columns
# (docs/OBSERVABILITY.md).
echo "==> observability smoke (--chrome-trace / --metrics)"
build/tools/uvmsim --workload bfs --policy oversub --oversub 1.3333 \
    --scale 0.1 --audit --set mem.counter_count_bits=8 \
    --chrome-trace /tmp/uvmsim_trace.json --metrics /tmp/uvmsim_metrics.csv \
    | grep '^audit:'
python3 - /tmp/uvmsim_trace.json /tmp/uvmsim_metrics.csv <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
events = [e for e in doc["traceEvents"] if e["ph"] != "M"]
assert events, "trace has no events"
ts = [e["ts"] for e in events]
assert ts == sorted(ts), "trace timestamps are not monotone"
names = {e["name"] for e in events}
for need in ("fault_batch", "migrate", "evict", "counter_halving",
             "pcie_dma_occupancy"):
    assert need in names, f"trace is missing {need} events"
header = open(sys.argv[2]).readline().strip().split(",")
assert header[:2] == ["cycle", "occupancy"], header[:2]
assert "far_faults" in header and "far_faults_delta" in header, \
    "metrics CSV header is missing registry columns"
print(f"observability smoke: {len(events)} trace events, "
      f"{len(header)} metric columns")
PY
# Under --json, stdout carries the run object alone — the --metrics and
# --chrome-trace notices stay off it — and observation moves no number: the
# JSON equals the unobserved run's byte for byte.
build/tools/uvmsim --workload bfs --policy oversub --oversub 1.3333 \
    --scale 0.1 --json > /tmp/uvmsim_obs_plain.json
build/tools/uvmsim --workload bfs --policy oversub --oversub 1.3333 \
    --scale 0.1 --json --metrics /tmp/uvmsim_metrics_j.csv \
    --chrome-trace /tmp/uvmsim_trace_j.json > /tmp/uvmsim_obs.json
python3 -c 'import json, sys; json.load(open(sys.argv[1]))' /tmp/uvmsim_obs.json
cmp /tmp/uvmsim_obs_plain.json /tmp/uvmsim_obs.json || {
  echo "observed run's --json output differs from the unobserved run's"; exit 1; }

# Config boundary (sim/config_parse.hpp): a shorthand flag and --set of its
# key run the same experiment, and a value its key cannot hold, or one that
# SimConfig::validate() rejects, exits 2 with a message naming the key
# instead of running something else. So does a workload name that no
# generator registers, the retired zoo slugs among them.
echo "==> config boundary (shorthand == --set, hostile values and workloads rc=2)"
same_run() {  # WHAT, then the two argument lists separated by --
  local what=$1 a=() b=(); shift
  while [[ $1 != -- ]]; do a+=("$1"); shift; done; shift; b=("$@")
  build/tools/uvmsim --workload bfs --scale 0.05 --json "${a[@]}" > /tmp/uvmsim_cfg_a.json
  build/tools/uvmsim --workload bfs --scale 0.05 --json "${b[@]}" > /tmp/uvmsim_cfg_b.json
  cmp /tmp/uvmsim_cfg_a.json /tmp/uvmsim_cfg_b.json || { echo "$what"; exit 1; }
}
same_run "--set mem.oversubscription=1.25 ran differently from --oversub 1.25" \
    --set mem.oversubscription=1.25 -- --oversub 1.25
same_run "--set mem.eviction=lru ran differently from --eviction lru" \
    --policy adaptive --set mem.eviction=lru -- --policy adaptive --eviction lru
for kv in gpu.tlb_entries_per_sm=-1 gpu.num_sms=4294967297 \
          mem.oversubscription=1.25xyz gpu.core_clock_ghz=nan \
          xfer.pcie_bandwidth_gbps=inf mem.device_capacity_bytes=17592186044418MB \
          gpu.num_sms=0 mem.device_capacity_bytes=0 kernel_launch_overhead_us=-5; do
  rc=0
  build/tools/uvmsim --workload bfs --scale 0.05 --set "$kv" \
      > /dev/null 2> /tmp/uvmsim_cfg_err.txt || rc=$?
  if [[ $rc -ne 2 ]] || ! grep -qF "${kv%%=*}" /tmp/uvmsim_cfg_err.txt; then
    echo "uvmsim --set $kv: rc=$rc, want 2 and a message naming the key"; exit 1
  fi
done
for wl in nosuch pchase; do
  rc=0
  build/tools/uvmsim --workload "$wl" --scale 0.05 > /dev/null 2> /tmp/uvmsim_cfg_err.txt || rc=$?
  if [[ $rc -ne 2 ]] || ! grep -qF "'$wl'" /tmp/uvmsim_cfg_err.txt; then
    echo "uvmsim --workload $wl: rc=$rc, want 2 and a message naming it"; exit 1
  fi
done

# Every tool answers --help with its usage on stdout and rc 0.
echo "==> tool help (--help rc=0, usage on stdout)"
for tool in uvmsim uvmsim-sweep uvmsim-fuzz uvmsim-tournament uvmsim-trace uvmsim-analyze; do
  rc=0
  build/tools/$tool --help > /tmp/uvmsim_help.txt 2> /dev/null || rc=$?
  if [[ $rc -ne 0 || ! -s /tmp/uvmsim_help.txt ]]; then
    echo "$tool --help: rc=$rc, want 0 and the usage on stdout"; exit 1
  fi
done

# Victim-parity audit: the auditor cross-validates the incremental eviction
# index against the reference scan (check_eviction_index); any divergence is
# a violation and fails the pipeline.
echo "==> victim-parity audit smoke"
build/tools/uvmsim --workload sssp --policy adaptive \
    --oversub 1.3333 --scale 0.1 --audit | grep '^audit:' | tee /tmp/parity_audit.log
grep -q 'violations=0' /tmp/parity_audit.log || {
  echo "victim-parity audit reported violations"; exit 1; }

# Differential fuzz smoke: N seeded sim-vs-model iterations must end with
# zero divergences (the oracle self-tests that prove the harness CAN detect
# divergences run inside ctest, tests/check/test_fuzz_selftest.cpp).
echo "==> fuzz smoke (differential oracle, seed 1)"
build/tools/uvmsim-fuzz --seed 1 --iters 500 --quiet
if [[ $quick -eq 0 ]]; then
  build-asan/tools/uvmsim-fuzz --seed 1 --iters 50 --quiet
fi
# The CLI must reject garbage flags loudly (exit 2), never run a degenerate
# campaign silently.
rc=0
build/tools/uvmsim-fuzz --seed nope > /dev/null 2>&1 || rc=$?
if [[ $rc -ne 2 ]]; then
  echo "uvmsim-fuzz accepted a garbage --seed (rc=$rc, want 2)"; exit 1
fi
rc=0
build/tools/uvmsim-fuzz --policy no-such-policy > /dev/null 2>&1 || rc=$?
if [[ $rc -ne 2 ]]; then
  echo "uvmsim-fuzz accepted an unknown --policy (rc=$rc, want 2)"; exit 1
fi

# Record/replay smoke (docs/TRACES.md): an oversubscribed bfs run recorded
# to a binary UVMTRB1 trace and replayed under the same configuration must
# report byte-identical JSON; the capture and every fuzz-corpus entry must
# verify (content hash and structure); a trace-seeded fuzz campaign must
# stay divergence-free; and the CLIs must reject, with exit 2, a garbage
# file and the capture relabelled with the retired legacy format's magic.
echo "==> record/replay smoke (UVMTRB1 round trip)"
build/tools/uvmsim --workload bfs --policy adaptive --oversub 1.3333 \
    --scale 0.1 --record /tmp/uvmsim_ci.trb --json > /tmp/uvmsim_ci_rec.json
build/tools/uvmsim --replay /tmp/uvmsim_ci.trb --policy adaptive \
    --oversub 1.3333 --json > /tmp/uvmsim_ci_rep.json
cmp /tmp/uvmsim_ci_rec.json /tmp/uvmsim_ci_rep.json || {
  echo "replayed stats JSON differs from the recorded run"; exit 1; }
build/tools/uvmsim-trace verify /tmp/uvmsim_ci.trb > /dev/null
for entry in tests/data/fuzz_corpus/*.trb; do
  build/tools/uvmsim-trace verify "$entry" > /dev/null
done
build/tools/uvmsim-fuzz --trace /tmp/uvmsim_ci.trb --iters 8 --quiet
echo "garbage" > /tmp/uvmsim_ci_garbage.trb
# Byte 5 of the magic 'B' -> 'C' gives the legacy magic.
cp /tmp/uvmsim_ci.trb /tmp/uvmsim_ci_legacy.trb
printf 'C' | dd of=/tmp/uvmsim_ci_legacy.trb bs=1 seek=5 conv=notrunc status=none
for bad in /tmp/uvmsim_ci_garbage.trb /tmp/uvmsim_ci_legacy.trb; do
  for cmd in "uvmsim --replay" "uvmsim-trace info" "uvmsim-trace verify" \
             "uvmsim-fuzz --iters 1 --quiet --trace"; do
    rc=0
    # shellcheck disable=SC2086  # $cmd is a tool plus its flags
    build/tools/$cmd "$bad" > /dev/null 2>&1 || rc=$?
    if [[ $rc -ne 2 ]]; then
      echo "$cmd accepted $bad (rc=$rc, want 2)"; exit 1
    fi
  done
done

# Granularity smoke (docs/GRANULARITY.md): the 2 MB coalescing state
# machine is off by default, so exercise it explicitly — an audited
# oversubscribed run with coalescing + splinter-on-evict must report zero
# violations (the granularity audit pass covers the read-mostly gate, the
# O(1) coalesced count and the conservation law), and targeted fuzz
# campaigns on the two churn stream families must stay divergence-free.
echo "==> granularity smoke (mem.coalescing audited + churn fuzz)"
build/tools/uvmsim --workload bfs --policy adaptive --oversub 1.3333 \
    --scale 0.1 --audit --set mem.coalescing=true \
    --set mem.splinter_on_evict=true | grep '^audit:' | tee /tmp/gran_audit.log
grep -q 'violations=0' /tmp/gran_audit.log || {
  echo "granularity audit reported violations"; exit 1; }
build/tools/uvmsim-fuzz --seed 1 --iters 200 --coalescing on \
    --pattern coalesce-churn --quiet
build/tools/uvmsim-fuzz --seed 1 --iters 200 --coalescing on \
    --pattern splinter-storm --quiet

# Adaptive-policy fuzz smoke: force every case onto an online-adaptive
# policy; the oracle runs in skip-decision mode (decisions adopted from the
# driver, memory-state invariants still verified) and must stay clean.
echo "==> fuzz smoke (adaptive policy, oracle skip-decision mode)"
build/tools/uvmsim-fuzz --seed 1 --iters 200 --policy learned --quiet

# Tournament smoke: a small grid over every registered policy must produce a
# schema-valid JSON leaderboard, and the CSV artifact must be byte-identical
# for --jobs 1 and --jobs 2 (determinism contract, docs/POLICIES.md).
echo "==> tournament smoke (all registered policies)"
build/tools/uvmsim-tournament --seed 1 --scenarios 4 --jobs 1 \
    --out-csv /tmp/uvmsim_tournament_j1.csv --out-json /tmp/uvmsim_tournament.json --quiet
build/tools/uvmsim-tournament --seed 1 --scenarios 4 --jobs 2 \
    --out-csv /tmp/uvmsim_tournament_j2.csv --quiet > /dev/null
cmp /tmp/uvmsim_tournament_j1.csv /tmp/uvmsim_tournament_j2.csv || {
  echo "tournament CSV differs between --jobs 1 and --jobs 2"; exit 1; }
python3 - /tmp/uvmsim_tournament.json /tmp/uvmsim_tournament_j1.csv <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
for key in ("seed", "scenarios", "cells", "leaderboard"):
    assert key in doc, f"tournament JSON missing {key}"
assert any(s["thrash"] for s in doc["scenarios"]), "no oversubscribed thrash scenario"
policies = {row["policy"] for row in doc["leaderboard"]}
assert len(policies) >= 6, f"expected >=6 policies on the leaderboard, got {policies}"
assert len(doc["cells"]) == len(doc["scenarios"]) * len(doc["leaderboard"])
for cell in doc["cells"]:
    assert cell["ok"], f"tournament cell failed: {cell}"
ranks = [row["rank"] for row in doc["leaderboard"]]
assert ranks == list(range(1, len(ranks) + 1)), ranks
costs = [row["fault_cost"] for row in doc["leaderboard"]]
assert costs == sorted(costs), "leaderboard not ranked by fault_cost"
header = open(sys.argv[2]).readline().strip()
assert header.startswith("rank,policy,wins,failed,fault_cost"), header
print(f"tournament smoke: {len(doc['leaderboard'])} policies x "
      f"{len(doc['scenarios'])} scenarios ok")
PY
rc=0
build/tools/uvmsim-tournament --policies no-such-policy > /dev/null 2>&1 || rc=$?
if [[ $rc -ne 2 ]]; then
  echo "uvmsim-tournament accepted an unknown --policies entry (rc=$rc, want 2)"; exit 1
fi

if [[ $quick -eq 0 ]]; then
  echo "==> coverage gate (src/policy, src/check, src/trace vs scripts/coverage_baseline.txt)"
  scripts/coverage.sh
fi

# Static analysis (uvmsim-analyze, docs/ANALYSIS.md): the full rule set over
# the tree must be clean modulo the checked-in baseline — which ships empty,
# so in practice: clean. The JSON report must be byte-stable across runs
# (no timestamps, sorted findings) so CI artifacts diff cleanly, and the CLI
# must reject garbage flags with exit 2 like every other uvmsim tool.
echo "==> static analysis (uvmsim-analyze)"
build/tools/uvmsim-analyze --root . --baseline tools/uvmsim_analyze.baseline
build/tools/uvmsim-analyze --root . --json > /tmp/uvmsim_analyze_1.json
build/tools/uvmsim-analyze --root . --json > /tmp/uvmsim_analyze_2.json
cmp /tmp/uvmsim_analyze_1.json /tmp/uvmsim_analyze_2.json || {
  echo "uvmsim-analyze --json is not byte-stable across runs"; exit 1; }
rc=0
build/tools/uvmsim-analyze --rules no-such-rule > /dev/null 2>&1 || rc=$?
if [[ $rc -ne 2 ]]; then
  echo "uvmsim-analyze accepted an unknown --rules entry (rc=$rc, want 2)"; exit 1
fi
rc=0
build/tools/uvmsim-analyze --max-findings nope > /dev/null 2>&1 || rc=$?
if [[ $rc -ne 2 ]]; then
  echo "uvmsim-analyze accepted a garbage --max-findings (rc=$rc, want 2)"; exit 1
fi

if command -v clang-tidy > /dev/null 2>&1; then
  echo "==> clang-tidy (curated checks over compile_commands.json)"
  # Presets export compile_commands.json; reconfigure only if it is missing.
  [[ -f build/compile_commands.json ]] || cmake --preset default > /dev/null
  # shellcheck disable=SC2046
  clang-tidy -p build --quiet $(find src tools -name '*.cpp') | tee /tmp/ct.log
  if grep -qE "error:|warning:" /tmp/ct.log; then
    echo "clang-tidy reported findings (curated set must stay clean)"
    exit 1
  fi
else
  echo "==> clang-tidy not installed; skipping (config: .clang-tidy)"
fi

echo "CI: all green"
