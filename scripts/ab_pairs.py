#!/usr/bin/env python3
"""Run the benchmark in pairs on two checkouts, a parent and a change.

    python3 scripts/ab_pairs.py PARENT_DIR CHANGE_DIR --workload table \\
        --seed 1 --pairs 10

Each checkout runs its own ``perfbench/run.py`` as it is, with the same
workload and seed and the run length of ``BENCHMARK.json``, one run per
side per pair.  The side that
runs first alternates from pair to pair, so a slow period of the machine
falls on both.  For every end-to-end metric of ``BENCHMARK.json`` it
prints each side's median and quartiles, the number of pairs the change
won (ties count for neither side), and whether a gain may be claimed:
the change won at least nine tenths of the pairs, and its median is
better than the parent's by more than the distance between the parent's
quartiles.  Each run's wall time is printed with its metrics, and the
summary gives each side's median wall time, so a change that makes the
benchmark's runs take longer shows up here.  A run that exits non-zero
or reports a wrong output stops the script with exit status 1.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarise(parent: list[float], change: list[float], better: str) -> dict:
    """Compare paired runs of one metric; ``better`` is "lower" or "higher".

    ``parent[k]`` and ``change[k]`` are the two runs of pair k.  ``gap`` is
    the change's median minus the parent's, signed so that a positive gap
    is an improvement; ``claim`` holds when the change won at least 9/10
    of the pairs and the gap exceeds the parent's interquartile range.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs on each side")
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gap = sign * (cm - pm)
    iqr = p3 - p1
    return {"parent": {"median": pm, "q1": p1, "q3": p3},
            "change": {"median": cm, "q1": c1, "q3": c3},
            "pairs": len(parent), "wins": wins, "gap": gap, "parent_iqr": iqr,
            "claim": 10 * wins >= 9 * len(parent) and gap > iqr}


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> tuple[dict, float]:
    """One ``perfbench/run.py`` run in ``checkout``: its end-to-end metrics
    and its wall time in seconds."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"]:
        sys.exit(f"{checkout}: {workload} seed {seed} exited {proc.returncode}\n"
                 f"{proc.stderr[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}, wall


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    walls: dict[str, list[float]] = {"parent": [], "change": []}
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            metrics, wall = run_once(getattr(args, side), args.workload,
                                     args.seed, seconds)
            runs[side].append(metrics)
            walls[side].append(wall)
            print(f"pair {k + 1:2d} {side:6s} wall {wall:.1f} s  " + "  ".join(
                f"{name} {value:.6g}" for name, value in metrics.items()), flush=True)

    print(f"\n{args.workload}, seed {args.seed}: {args.pairs} pairs of {seconds:g} s")
    print(f"  {'wall_s':24s} parent {statistics.median(walls['parent']):.1f}"
          f"  change {statistics.median(walls['change']):.1f} s (median per run)")
    for m in spec["end_to_end"]:
        name = m["name"]
        s = summarise([r[name] for r in runs["parent"]],
                      [r[name] for r in runs["change"]], m["better"])
        p, c = s["parent"], s["change"]
        print(f"  {name:24s} parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]"
              f"  change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}] {m['unit']}"
              f"  ({c['median'] / p['median'] - 1:+.1%})"
              f"  wins {s['wins']}/{s['pairs']}"
              f"  gap {s['gap']:.4g} vs parent IQR {s['parent_iqr']:.4g}"
              f"  claim {'holds' if s['claim'] else 'does not hold'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
