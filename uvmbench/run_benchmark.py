#!/usr/bin/env python3
"""The uvmsim benchmark: builds uvmsim_bench, runs workloads, checks outputs.

Run from the repository root:

  python3 uvmbench/run_benchmark.py --workload NAME --seed N --seconds S --trace 0|1
      One workload in its own process. The last stdout line is one JSON
      object: {"correct", "attempted", "failed", "metrics"}, with every
      end-to-end metric of BENCHMARK.json (--trace 0) or every per-layer
      metric (--trace 1), each as {"value", "unit"}.
  python3 uvmbench/run_benchmark.py [--seed N] [--seconds S] [--trace 0|1]
      Every workload, one process each, one after the other.
  python3 uvmbench/run_benchmark.py --repeat K [--workload NAME] [--seed N]
      K runs per workload (seeds N, N+1, ...): each metric's median, quartiles
      and spread (IQR / median) against its bound in BENCHMARK.json.
  python3 uvmbench/run_benchmark.py --smoke
      One small pass per workload, untraced and traced; fails unless every
      metric of BENCHMARK.json comes out with its unit.

The runner is built under $CARGO_TARGET_DIR (default .bench_build) in the
repository. Exit status: 0 when the benchmark ran (a failed output check
makes "correct" false), 1 when it could not run, 2 on a usage error.
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
FIG6_CSV = ROOT / "artifacts" / "fig6_oversub_runtime.csv"
DEFAULT_SEED = 0x5EED
RUN_TIMEOUT_S = 170
# Fig 6 columns in the order uvmsim_bench reports each workload's ratios.
FIG6_COLUMNS = ("baseline", "always", "oversub", "adaptive")


class BenchError(Exception):
    """The benchmark could not produce a result."""

    def __init__(self, message, code=1):
        super().__init__(message)
        self.code = code


def load_spec():
    with open(SPEC_PATH, encoding="utf-8") as f:
        return json.load(f)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return base if base.is_absolute() else ROOT / base


def build():
    """Configures (once) and builds uvmsim_bench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no uvmsim sources under {ROOT}", code=2)
    out = build_dir() / "uvmbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "uvmbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "uvmsim_bench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=False).returncode:
            raise BenchError("build failed: " + " ".join(cmd))
    return out / "uvmsim_bench"


def run_runner(exe, workload, seed, seconds, traced, smoke):
    """Runs one workload in its own process; returns the runner's JSON."""
    build_dir().mkdir(parents=True, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=build_dir())
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--scratch", scratch]
    if traced:
        cmd.append("--traced")
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload}: runner exceeded {RUN_TIMEOUT_S} s") from e
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{workload}: runner exited with {proc.returncode}",
                         code=2 if proc.returncode == 2 else 1)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError) as e:
        raise BenchError(f"{workload}: runner printed no result") from e


def read_fig6_csv():
    rows = {}
    with open(FIG6_CSV, encoding="utf-8") as f:
        header = f.readline().strip().split(",")
        if tuple(header[1:]) != FIG6_COLUMNS:
            raise BenchError(f"unexpected header in {FIG6_CSV}")
        for line in f:
            cells = line.strip().split(",")
            rows[cells[0]] = cells[1:]
    return rows


def fig6_mismatches(measured):
    """Cells whose ratio differs from the artifact at its 3 decimals."""
    expected = read_fig6_csv()
    bad = []
    for workload, cells in expected.items():
        got = measured.get(workload)
        if got is None:
            bad.append(f"{workload}: missing")
            continue
        for column, want, value in zip(FIG6_COLUMNS, cells, got):
            if f"{value:.3f}" != want:
                bad.append(f"{workload}/{column}: {value:.3f} != {want}")
    return bad


def evaluate(raw, spec, seed, traced, smoke):
    """Checks the runner's output; returns the result object and failures."""
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise BenchError(f"{raw['workload']}: metric {m['name']} missing or not in {m['unit']}")
        if not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            raise BenchError(f"{raw['workload']}: metric {m['name']} is not a number")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    attempted, failed = raw["ops"], raw["failed_ops"]
    failures = list(raw["failures"])
    # The checked-in Fig 6 artifact was made at the default seed and scale.
    if raw["workload"] == "paper-grid" and not traced and not smoke and seed == DEFAULT_SEED:
        bad = fig6_mismatches(raw["info"]["fig6"])
        attempted += 1
        if bad:
            failed += 1
            failures.append(f"Fig 6 differs from {FIG6_CSV.name}: " + "; ".join(bad[:5]))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, failures


def print_summary(workload, result, failures, info):
    print(f"== {workload}: ops {result['attempted']}, failed_ops {result['failed']}")
    for name, m in result["metrics"].items():
        print(f"   {name:30s} {m['value']:>16.6g} {m['unit']}")
    for key in ("passes", "runs", "job_wall_s", "run_ns_per_access_p90", "fig6_log_error",
                "attribution_sum", "trace_unencodable_inputs"):
        if key in info:
            print(f"   ({key} = {info[key]})")
    for f in failures:
        print(f"   FAILED: {f}")


def run_one(exe, spec, workload, seed, seconds, traced, smoke=False):
    raw = run_runner(exe, workload, seed, seconds, traced, smoke)
    result, failures = evaluate(raw, spec, seed, traced, smoke)
    print_summary(workload, result, failures, raw["info"])
    return result, raw["info"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(exe, spec, workloads, seed, seconds, traced, k):
    """K runs per workload; prints each metric's median and spread."""
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {}
    for workload in workloads:
        runs = []
        for i in range(k):
            result, info = run_one(exe, spec, workload, seed + i, seconds, traced)
            runs.append((result, info))
        print(f"== {workload}: {k} runs, seeds {seed}..{seed + k - 1}")
        rows = {}
        for name in runs[0][0]["metrics"]:
            values = [r["metrics"][name]["value"] for r, _ in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  <-- spread above a third of the bound"
            print(f"   {name:30s} median {med:>14.6g}  q1 {q1:>14.6g}  q3 {q3:>14.6g}"
                  f"  spread {spread:7.2%}" + (f"  bound {bound:.0%}" if bound else "") + flag)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        errors = [info.get("fig6_log_error") for _, info in runs if "fig6_log_error" in info]
        if errors:
            print(f"   fig6_log_error per run: {errors}")
        failed = sum(r["failed"] for r, _ in runs)
        print(f"   failed ops over all runs: {failed}")
        summary[workload] = {"metrics": rows, "failed": failed}
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, metavar="K")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload is not None and args.workload not in names:
            raise BenchError(f"unknown workload {args.workload}; one of {names}", code=2)
        if args.repeat is not None and args.repeat < 1:
            raise BenchError("--repeat must be at least 1", code=2)
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        workloads = [args.workload] if args.workload else names
        exe = build()

        if args.smoke:
            for workload in workloads:
                for traced in (False, True):
                    result, _ = run_one(exe, spec, workload, args.seed, 0, traced, smoke=True)
                    if not result["correct"]:
                        raise BenchError(f"{workload}: smoke run failed its checks")
            print(json.dumps({"smoke": "ok", "workloads": workloads}))
        elif args.repeat is not None:
            summary = repeat(exe, spec, workloads, args.seed, seconds, args.trace == 1,
                             args.repeat)
            print(json.dumps(summary))
        elif args.workload is not None:
            result, _ = run_one(exe, spec, args.workload, args.seed, seconds, args.trace == 1)
            print(json.dumps(result))
        else:
            results = {}
            for workload in workloads:
                results[workload], _ = run_one(exe, spec, workload, args.seed, seconds,
                                               args.trace == 1)
            print(json.dumps(results))
    except BenchError as e:
        print(f"run_benchmark: {e}", file=sys.stderr)
        return e.code
    return 0


if __name__ == "__main__":
    sys.exit(main())
