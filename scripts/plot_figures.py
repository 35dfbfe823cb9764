#!/usr/bin/env python3
"""Plot the paper's figures from their CSV artifacts.

Usage:
    # after a sweep, which writes Figs 1 and 4-8 as figN_*.csv to the cwd
    # (build/tools/uvmsim-sweep; artifacts/ holds the scale-1.0 copies):
    python3 scripts/plot_figures.py [--dir DIR] [--out DIR]

Produces one PNG per available figure CSV. Requires matplotlib; degrades to
a text summary when it is not installed (the CSVs are the ground truth).
"""

import argparse
import csv
import pathlib
import sys

FIGS = {
    "fig1_oversub_sensitivity.csv": {
        "title": "Fig 1: Baseline runtime vs oversubscription",
        "ylabel": "runtime (normalized to fits)",
        "log": True,
    },
    "fig4_static_threshold.csv": {
        "title": "Fig 4: sensitivity to static threshold ts (Always)",
        "ylabel": "runtime (normalized to ts=8)",
        "log": False,
    },
    "fig5_no_oversub.csv": {
        "title": "Fig 5: no oversubscription",
        "ylabel": "runtime (normalized to Baseline)",
        "log": False,
    },
    "fig6_oversub_runtime.csv": {
        "title": "Fig 6: runtime at 125% oversubscription",
        "ylabel": "runtime (normalized to Baseline)",
        "log": False,
    },
    "fig7_thrashing.csv": {
        "title": "Fig 7: pages thrashed at 125% oversubscription",
        "ylabel": "pages thrashed (normalized to Baseline)",
        "log": False,
        "drop_cols": ["base_pages"],
    },
    "fig8_penalty_sensitivity.csv": {
        "title": "Fig 8: sensitivity to migration penalty p",
        "ylabel": "runtime (normalized to Baseline)",
        "log": False,
    },
}


def load(path):
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    return rows


def text_summary(name, rows):
    print(f"== {name} ==")
    if not rows:
        print("  (empty)")
        return
    cols = list(rows[0].keys())
    print("  " + "  ".join(f"{c:>10}" for c in cols))
    for r in rows:
        print("  " + "  ".join(f"{r[c]:>10}" for c in cols))


def plot(name, rows, spec, outdir):
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    workloads = [r["workload"] for r in rows]
    series = [c for c in rows[0] if c != "workload" and c not in spec.get("drop_cols", [])]

    x = range(len(workloads))
    width = 0.8 / max(1, len(series))
    fig, ax = plt.subplots(figsize=(9, 4))
    for i, s in enumerate(series):
        vals = [float(r[s]) for r in rows]
        ax.bar([xi + i * width for xi in x], vals, width, label=s)
    ax.set_xticks([xi + 0.4 - width / 2 for xi in x])
    ax.set_xticklabels(workloads, rotation=20)
    ax.set_ylabel(spec["ylabel"])
    ax.set_title(spec["title"])
    if spec.get("log"):
        ax.set_yscale("log")
    ax.axhline(1.0, color="gray", linewidth=0.8, linestyle="--")
    ax.legend(fontsize=8)
    fig.tight_layout()
    out = outdir / (pathlib.Path(name).stem + ".png")
    fig.savefig(out, dpi=150)
    plt.close(fig)
    print(f"wrote {out}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--dir", default=".", help="directory containing the figN CSVs")
    ap.add_argument("--out", default=".", help="output directory for PNGs")
    args = ap.parse_args()

    indir = pathlib.Path(args.dir)
    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    try:
        import matplotlib  # noqa: F401

        have_mpl = True
    except ImportError:
        have_mpl = False
        print("matplotlib not available; printing text summaries instead", file=sys.stderr)

    found = 0
    for name, spec in FIGS.items():
        path = indir / name
        if not path.exists():
            continue
        found += 1
        rows = load(path)
        if have_mpl:
            plot(name, rows, spec, outdir)
        else:
            text_summary(name, rows)
    if found == 0:
        print(
            "no figure CSVs found — run build/tools/uvmsim-sweep first, "
            "or pass --dir artifacts",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
