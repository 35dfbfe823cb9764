#!/usr/bin/env python3
"""Judges paired benchmark runs of a parent and a change by the merge rule.

  scripts/bench_verdict.py PARENT_DIR CHANGE_DIR

Each directory holds WORKLOAD.jsonl: one line per run, as
`uvmbench/run_benchmark.py --workload WORKLOAD` prints it last. Line i of the
two files is pair i. For every end-to-end metric of BENCHMARK.json it prints
each side's median and quartiles, the change's wins and a verdict:

  worse       the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  the parent's quartile spread exceeds the bound, and not every
              change run beats every parent run
  gain        at least 9 in 10 pairs won, and the medians differ by more
              than the parent's quartile spread
  same        none of the above

WORKLOAD.trace.json on both sides (the runner's --trace 1 result) adds a
report of whether the simulated ratios are identical; it does not gate.
Exit status: 1 on any worse metric or when the change's failed-op share
exceeds the parent's, 2 on a usage error or fewer than 10 pairs, 0 otherwise.
"""
import json
import sys
from pathlib import Path

# The spread and the spec come from the runner itself, so that --repeat and
# the gate agree on the same runs. Importing it leaves no bytecode behind.
sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "uvmbench"))
from run_benchmark import load_spec, quartiles  # noqa: E402

PAIRS = 10  # the merge rule's count
# Counts and ratios of the simulated system: a change that claims only speed
# leaves them exactly as they are.
SIM_RATIOS = ("gpu.tlb_hit_rate", "policy.decisions", "policy.migrate_ratio",
              "core.faults_per_batch", "mem.thrash_ratio", "mem.writeback_ratio",
              "xfer.prefetch_ratio", "xfer.h2d_bytes_per_access")


def usage_error(message):
    print(f"bench_verdict: {message}", file=sys.stderr)
    sys.exit(2)


def read_runs(path):
    try:
        with open(path, encoding="utf-8") as f:
            runs = [json.loads(line) for line in f if line.strip()]
    except (OSError, ValueError) as e:
        usage_error(f"{path}: {e}")
    if not runs:
        usage_error(f"{path}: no runs")
    return runs


def judge(metric, parent, change):
    """The verdict for one metric over paired runs, and the change's wins."""
    sign = 1 if metric["better"] == "higher" else -1
    bound = metric["bound"]
    p1, pm, p3 = quartiles(parent)
    cm = quartiles(change)[1]
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    if sign * (cm - pm) < -bound * pm:
        return "worse", wins
    if p3 - p1 > bound * pm and min(sign * c for c in change) <= max(sign * p for p in parent):
        return "unresolved", wins
    if wins * 10 >= 9 * len(parent) and sign * (cm - pm) > p3 - p1:
        return "gain", wins
    return "same", wins


def judge_workload(spec, workload, parent_dir, change_dir):
    """Prints one workload's table; returns the reasons it fails the gate."""
    parent = read_runs(parent_dir / f"{workload}.jsonl")
    change = read_runs(change_dir / f"{workload}.jsonl")
    if len(parent) != len(change):
        usage_error(f"{workload}: {len(parent)} parent and {len(change)} change runs")
    if len(parent) < PAIRS:
        usage_error(f"{workload}: too few pairs, {len(parent)}; the rule judges {PAIRS}")
    print(f"== {workload}: {len(parent)} pairs, median [q1, q3] of parent | change")
    failures = []
    for m in spec["end_to_end"]:
        try:
            pv, cv = ([r["metrics"][m["name"]]["value"] for r in runs] for runs in (parent, change))
        except (KeyError, TypeError):
            usage_error(f"{workload}: a run lacks {m['name']}")
        verdict, wins = judge(m, pv, cv)
        cells = [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]" for q in (quartiles(pv), quartiles(cv))]
        print(f"   {m['name']:22s} {cells[0]:>26s} | {cells[1]:<26s} {m['unit']:>3s}"
              f"  wins {wins}/{len(parent)}  {verdict}")
        if verdict == "worse":
            failures.append(f"worse: {workload} {m['name']}")
    (pf, pa), (cf, ca) = ((sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
                          for runs in (parent, change))
    print(f"   failed ops: parent {pf} of {pa}, change {cf} of {ca}")
    if cf * pa > pf * ca:
        failures.append(f"failed ops: {workload} share rose")
    traces = [d / f"{workload}.trace.json" for d in (parent_dir, change_dir)]
    if all(t.is_file() for t in traces):
        p, c = (read_runs(t)[-1]["metrics"] for t in traces)
        moved = [name for name in SIM_RATIOS if p.get(name) != c.get(name)]
        print("   simulated ratios: " + ("DIFFER in " + ", ".join(moved) if moved else "identical"))
    return failures


def main(argv):
    if len(argv) != 3 or not all(Path(a).is_dir() for a in argv[1:]):
        usage_error("usage: scripts/bench_verdict.py PARENT_DIR CHANGE_DIR")
    parent_dir, change_dir = Path(argv[1]), Path(argv[2])
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]
                 if any((d / f"{w['name']}.jsonl").is_file() for d in (parent_dir, change_dir))]
    if not workloads:
        usage_error("no WORKLOAD.jsonl results")
    failures = [f for w in workloads for f in judge_workload(spec, w, parent_dir, change_dir)]
    for f in failures:
        print(f)
    print("gate: " + ("FAIL" if failures else "pass"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
