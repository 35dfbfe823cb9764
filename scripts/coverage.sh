#!/usr/bin/env bash
# coverage.sh — line-coverage gate for the layers the differential fuzzer
# protects: src/policy (migration decisions) and src/check (oracle, stream
# generator, shrinker, auditor), and for src/trace (the UVMTRB1 codec and
# replay, which the record/replay and golden-trace suites cover). Builds
# with UVMSIM_COVERAGE=ON, runs the test suite, aggregates gcov line
# coverage per layer, and fails when any layer drops below
# scripts/coverage_baseline.txt.
#
#   scripts/coverage.sh            # gate against the recorded baseline
#   scripts/coverage.sh --record   # rewrite the baseline from this run
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 2)
record=0
[[ "${1:-}" == "--record" ]] && record=1

builddir=build-cov
echo "==> [coverage] configure + build ($builddir)"
cmake -S . -B "$builddir" -DCMAKE_BUILD_TYPE=Debug -DUVMSIM_COVERAGE=ON \
  -DUVMSIM_BUILD_BENCH=OFF -DUVMSIM_BUILD_EXAMPLES=OFF > /dev/null
cmake --build "$builddir" -j "$jobs" > /dev/null

echo "==> [coverage] ctest"
# Stale counters from a previous run would inflate the numbers.
find "$builddir" -name '*.gcda' -delete
ctest --test-dir "$builddir" -j "$jobs" --output-on-failure > /dev/null

echo "==> [coverage] aggregate (gcov)"
python3 - "$builddir" "$record" <<'PY'
import collections
import json
import pathlib
import subprocess
import sys

build, record = sys.argv[1], sys.argv[2] == "1"
layers = ["src/policy", "src/check", "src/trace"]
baseline_path = pathlib.Path("scripts/coverage_baseline.txt")
repo = pathlib.Path.cwd()

covered = collections.defaultdict(set)
instrumented = collections.defaultdict(set)
for gcda in pathlib.Path(build).rglob("*.gcda"):
    proc = subprocess.run(
        ["gcov", "--json-format", "--stdout", str(gcda.resolve())],
        capture_output=True, cwd=gcda.parent, check=False)
    for line in proc.stdout.splitlines():
        if not line.strip():
            continue
        doc = json.loads(line)
        for f in doc.get("files", []):
            try:
                rel = pathlib.Path(f["file"]).resolve().relative_to(repo).as_posix()
            except ValueError:
                continue
            layer = next((l for l in layers if rel.startswith(l + "/")), None)
            if layer is None:
                continue
            for ln in f["lines"]:
                key = (rel, ln["line_number"])
                instrumented[layer].add(key)
                if ln["count"] > 0:
                    covered[layer].add(key)

current = {}
for layer in layers:
    total = len(instrumented[layer])
    hit = len(covered[layer])
    if total == 0:
        sys.exit(f"coverage: no instrumented lines found for {layer} "
                 "(build not instrumented?)")
    current[layer] = 100.0 * hit / total
    print(f"  {layer}: {current[layer]:.2f}% ({hit}/{total} lines)")

if record:
    baseline_path.write_text(
        "".join(f"{layer} {current[layer]:.2f}\n" for layer in layers))
    print(f"coverage: baseline recorded to {baseline_path}")
    sys.exit(0)

if not baseline_path.exists():
    sys.exit(f"coverage: {baseline_path} missing; run scripts/coverage.sh --record")
baseline = {}
for line in baseline_path.read_text().splitlines():
    name, pct = line.rsplit(None, 1)
    baseline[name] = float(pct)

# Allow a sliver of slack for gcov attribution shifts across compiler
# releases; real regressions are whole uncovered branches, not 0.2 %.
slack = 0.25
failed = False
for layer in layers:
    base = baseline.get(layer)
    if base is None:
        sys.exit(f"coverage: {baseline_path} has no entry for {layer}")
    if current[layer] < base - slack:
        print(f"coverage: {layer} dropped to {current[layer]:.2f}% "
              f"(baseline {base:.2f}%)")
        failed = True
if failed:
    sys.exit(1)
print("coverage: no layer below baseline")
PY
