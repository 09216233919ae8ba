"""Repeat mode: run workloads several times and summarise each metric.

    python3 perfbench/repeat.py --runs 10 --seed 1            # every workload
    python3 perfbench/repeat.py --workload cli --runs 5 --trace 1

Run k uses seed + k; each run is a fresh ``run.py`` process, and the
workloads take turns so that slow periods of the machine spread over all
of them.  For every metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median.  With --trace 0
each spread is compared against a third of the metric's bound in
BENCHMARK.json.  --out writes the runs and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from common import ROOT
from run import WORKLOADS


def summarise(values: list[float]) -> dict[str, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    workloads = args.workload or list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    ok = True
    for k in range(args.runs):
        for w in workloads:
            cmd = [sys.executable, str(Path(__file__).with_name("run.py")),
                   "--workload", w, "--seed", str(args.seed + k),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            start = perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            wall = perf_counter() - start
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
            if proc.returncode != 0 or result is None or not result["correct"]:
                ok = False
                print(f"{w} seed {args.seed + k}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
            samples = re.search(r"(\d+) latency samples", proc.stdout)
            if result is not None:
                result.update(seed=args.seed + k, wall_s=wall,
                              latency_samples=int(samples[1]) if samples else None)
                runs[w].append(result)
            print(f"{w:9s} seed {args.seed + k:4d}  wall {wall:6.1f} s  "
                  f"attempted {result['attempted'] if result else '-'}  "
                  f"latency samples {samples[1] if samples else '-'}", flush=True)

    summary: dict[str, dict] = {}
    for w, results in runs.items():
        if not results:
            continue
        print(f"\n{w}: {len(results)} runs, seeds {results[0]['seed']}..{results[-1]['seed']}")
        summary[w] = {}
        for name, first in results[0]["metrics"].items():
            s = summarise([r["metrics"][name]["value"] for r in results])
            summary[w][name] = s
            flag = ""
            if name in bounds and name != "setup_s" and s["spread"] > bounds[name] / 3:
                flag = f"  spread above a third of the bound {bounds[name]}"
            print(f"  {name:32s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} {first['unit']}{flag}")
        walls = [r["wall_s"] for r in results]
        print(f"  {'wall per run':32s} median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s")

    if args.out:
        args.out.write_text(json.dumps({
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine(), "seconds": args.seconds, "trace": args.trace,
            "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
