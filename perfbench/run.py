"""knotfish benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload statesum --seed 1 --seconds 30 --trace 0

Runs against the checkout's src/ (the package need not be installed).
Set-up (import, input generation, warm-up) is repeated SETUPS times and
its median reported; then whole units of the workload run until at least
--seconds of timed work is done.  Every reported time is scaled by a
reference loop timed next to it (see common.reference_loop); the unscaled
figures are printed too.  Outputs are checked after timing.  With
--trace 0 the last line of stdout is the end-to-end metrics, with --trace 1
the per-layer ones, as one JSON object.  A wrong output makes the run exit
1; a checkout without src/knotfish makes it exit 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

from common import (PER_LAYER, REFERENCE_S, RUN_DIR, SRC, fresh_import, layer_metrics,
                    peak_rss_mb, quantile, reference_loop)
from spans import Tracer

WORKLOADS = ("statesum", "table", "cli")
SETUPS = 9


def _load(name: str):
    import cliwork
    import statesum
    import tablework
    return {"statesum": statesum, "table": tablework, "cli": cliwork}[name].Workload


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    args = ap.parse_args(argv)

    if not (SRC / "knotfish" / "__init__.py").is_file():
        print(f"error: no knotfish sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("VASSILIEV_CROSSING_CAP", None)   # every input is under the default cap
    work = RUN_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path) -> int:
    setups, raw_setups = [], []
    for _ in range(SETUPS):
        before = reference_loop()
        start = perf_counter()
        fresh_import()
        wl = _load(args.workload)(args.seed, args.tiny, work)
        wl.setup()
        took = perf_counter() - start
        raw_setups.append(took)
        setups.append(took * REFERENCE_S / ((before + reference_loop()) / 2))
    setup_s = statistics.median(setups)

    if args.trace:
        tracer = Tracer()
        values = layer_metrics(tracer, wl.traced(tracer))
        metrics = {name: (values[name], unit) for name, unit in PER_LAYER.items()}
        tracer.dump(RUN_DIR / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        # Each step is scaled by REFERENCE_S over the mean of the reference
        # loop timed just before and just after it.  Whole units run, so
        # every run measures the same mix.
        raw, scaled, ref, items = [], [], [reference_loop()], 0
        lat, raw_lat = [], []          # ms per step, or per unit for table
        while sum(raw) < args.seconds or not raw:
            first = len(raw)
            for i in range(wl.steps):
                start = perf_counter()
                items += wl.step(i)
                raw.append(perf_counter() - start)
                ref.append(reference_loop())
                scaled.append(raw[-1] * REFERENCE_S * 2 / (ref[-2] + ref[-1]))
            wl.after_unit()
            if wl.latency_per_unit:
                lat.append(sum(scaled[first:]) * 1000.0)
                raw_lat.append(sum(raw[first:]) * 1000.0)
            else:
                lat += [t * 1000.0 for t in scaled[first:]]
                raw_lat += [t * 1000.0 for t in raw[first:]]
        metrics = {
            "setup_s": (setup_s, "s"),
            "throughput_items_per_s": (items / sum(scaled), "items/s"),
            "latency_p50_ms": (quantile(lat, 50), "ms"),
            "latency_p90_ms": (quantile(lat, 90), "ms"),
            "peak_rss_mb": (peak_rss_mb(children=args.workload == "cli"), "MB"),
        }

    attempted, failed, messages = wl.check()
    for m in messages[:20]:
        print(f"check failed: {m}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"python={sys.version.split()[0]} nproc={os.cpu_count()}")
    print(f"  {'set-up':32s} median of {SETUPS}, unscaled {statistics.median(raw_setups):.6g} s")
    if not args.trace:
        print(f"  {'timed':32s} {sum(raw):.6g} s, {items} {wl.unit_label}, "
              f"{len(lat)} latency samples")
        print(f"  {'reference loop':32s} median {statistics.median(ref) * 1000:.4g} ms "
              f"(times below are scaled to {REFERENCE_S * 1000:g} ms)")
        print(f"  {'unscaled':32s} {items / sum(raw):.6g} items/s, "
              f"p50 {quantile(raw_lat, 50):.6g} ms, p90 {quantile(raw_lat, 90):.6g} ms")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    print(f"  {'failed_ratio':32s} {failed / attempted:.6g} ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
