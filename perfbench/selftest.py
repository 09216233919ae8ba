"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload on its tiny input, traced and untraced, and checks
that each run passes its output checks and prints exactly the metric
names and units BENCHMARK.json lists.  Then copies BENCHMARK.json and the
benchmark's directories into a scratch directory with no src/ and checks
that the benchmark refuses to run there.  Exits non-zero on any failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from common import ROOT, RUN_DIR
from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / HERE.name / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{label}: no JSON result (exit {proc.returncode})\n{proc.stderr}")
                continue
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{label}: exit {proc.returncode}, {result['failed']} failed\n"
                                f"{proc.stderr}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{label}: metrics {sorted(set(got) ^ set(want[trace]))} "
                                "or their units differ from BENCHMARK.json")
            print(f"{label}: exit {proc.returncode}, attempted {result['attempted']}, "
                  f"failed {result['failed']}, {len(got)} metrics")

    bare = RUN_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, WORKLOADS[0], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"without src/: exit {proc.returncode}, stdout {proc.stdout!r}")
        print(f"without src/: exit {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
