"""Paths, import, statistics and per-layer metrics shared by the workloads."""

from __future__ import annotations

import importlib
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"


def fresh_import() -> None:
    """Import knotfish (and its CLI) from the checkout's src/, dropping any
    copy already loaded, so that each set-up pays for the import."""
    for name in [n for n in sys.modules if n == "knotfish" or n.startswith("knotfish.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("knotfish")
    importlib.import_module("knotfish.cli")
    if Path(pkg.__file__).resolve().parent != SRC / "knotfish":
        raise ImportError(f"knotfish was imported from {pkg.__file__}, not {SRC}")


def mod(name: str):
    """The loaded submodule ``knotfish.<name>`` (the package re-exports a
    function called ``jones``, so attribute access would give that)."""
    return sys.modules[f"knotfish.{name}"]


def run_unit(wl) -> int:
    """Every step of one unit of a workload; returns the items done.  The
    caller times it, then calls ``wl.after_unit()``."""
    return sum(wl.step(i) for i in range(wl.steps))


def trace_one_unit(wl, tracer) -> dict[str, float]:
    """One unit untraced, then the same unit traced; the difference in wall
    time is the tracing overhead."""
    start = perf_counter()
    run_unit(wl)
    plain = perf_counter() - start
    wl.after_unit()
    instrument(tracer)
    start = perf_counter()
    try:
        run_unit(wl)
    finally:
        tracer.restore()
    took = perf_counter() - start
    wl.after_unit()
    return {"trace.overhead_s": took - plain}


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# The reference loop below takes about this long on the machine the bounds
# were set on (2 vCPUs, Python 3.11); reported times are scaled to it.
REFERENCE_S = 0.005


def reference_loop() -> float:
    """Seconds taken by a fixed piece of interpreter work, independent of
    knotfish: union-find over small lists, like the state sum's inner loop.

    On a shared host the CPU's speed moves by 20% and more within seconds
    when other tenants load it.  Timing this loop next to every step and scaling the
    step by REFERENCE_S / (loop time) cancels most of that movement, and
    leaves what the program itself changes.
    """
    start = perf_counter()
    for mask in range(1500):
        parent = list(range(32))
        for k in range(16):
            x, y = (k * 5 + mask) & 31, (k * 11 + (mask >> 3)) & 31
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            while parent[y] != y:
                parent[y] = parent[parent[y]]
                y = parent[y]
            if x != y:
                parent[x] = y
    return perf_counter() - start


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0   # Linux reports KiB


# -- per-layer metrics ---------------------------------------------------------

CLI_SUBCOMMANDS = ("invariants", "table", "plot", "torus", "pseudo", "generate", "curves")

# name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "jones.kauffman_bracket_s": "s", "jones.jones_s": "s", "jones.v2_v3_s": "s",
    "jones.normalize_self_s": "s", "jones.derive_self_s": "s",
    "jones.bracket_share": "ratio",
    "laurent.falling_factorial_sum_s": "s", "laurent.jones_terms_total": "count",
    "diagram.parse_pd_s": "s", "table.load_table_s": "s", "table.compute_all_s": "s",
    "table.audits_s": "s", "plots.emit_csv_s": "s", "plots.emit_fish_svg_s": "s",
    "plots.emit_torus_overlay_svg_s": "s", "torus.torus_report_s": "s",
    "cli.interpreter_s": "s", "cli.import_s": "s", "cli.cli_main_s": "s",
    **{f"cli.{sub}_ms": "ms" for sub in CLI_SUBCOMMANDS},
    "diagram.crossings_total": "count", "jones.brute_states_total": "count",
    "table.records": "count", "table.error_records": "count",
    "table.violations": "count", "plots.csv_bytes": "count",
    "plots.svg_bytes": "count", "trace.overhead_s": "s",
}

_AUDITS = ("crossing_maxima", "bound_audit", "amphicheiral_candidates",
           "printed_bound_check")


def instrument(tracer) -> None:
    """Put spans and counters on every layer boundary the metrics use."""
    D, J, L, T, P, TO = (mod(n) for n in ("diagram", "jones", "laurent", "table",
                                          "plots", "torus"))

    def count(key, f):
        def on_result(args, result):
            tracer.counts[key] += f(args, result)
        return on_result

    def file_bytes(key):
        return count(key, lambda args, path: path.stat().st_size)

    tracer.instrument(D, "parse_pd", "parse_pd",
                      count("diagram.crossings_total", lambda a, d: d.crossing_count))
    tracer.instrument(J, "kauffman_bracket", "kauffman_bracket",
                      count("jones.brute_states_total",
                            lambda a, r: 1 << a[0].crossing_count if a[0].crossing_count else 0))
    tracer.instrument(J, "jones", "jones",
                      count("laurent.jones_terms_total", lambda a, j: len(j)))
    tracer.instrument(J, "v2_v3", "v2_v3")
    tracer.instrument(L.LaurentPoly, "falling_factorial_sum", "falling_factorial_sum")
    tracer.instrument(T, "load_table", "load_table")

    def on_compute_all(args, recs):
        tracer.counts["table.records"] += len(recs)
        tracer.counts["table.error_records"] += sum(r.error is not None for r in recs)

    tracer.instrument(T, "compute_all", "compute_all", on_compute_all)
    for name in _AUDITS:
        tracer.instrument(T, name, name, count("table.violations", lambda a, v: len(v))
                          if name == "bound_audit" else None)
    tracer.instrument(P, "emit_csv", "emit_csv", file_bytes("plots.csv_bytes"))
    tracer.instrument(P, "emit_fish_svg", "emit_fish_svg", file_bytes("plots.svg_bytes"))
    tracer.instrument(P, "emit_torus_overlay_svg", "emit_torus_overlay_svg",
                      file_bytes("plots.svg_bytes"))
    tracer.instrument(TO, "torus_report", "torus_report")


def layer_metrics(tracer, extra: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric; layers this workload never calls read 0.
    Counts are exact integers and repeat from run to run on one seed."""
    t = tracer.total
    bracket, jones, v2v3 = t("kauffman_bracket"), t("jones"), t("v2_v3")
    values = {
        "jones.kauffman_bracket_s": bracket,
        "jones.jones_s": jones,
        "jones.v2_v3_s": v2v3,
        "jones.normalize_self_s": jones - tracer.child_total("jones", "kauffman_bracket"),
        "jones.derive_self_s": v2v3 - tracer.child_total("v2_v3", "jones"),
        "jones.bracket_share": bracket / jones if jones else 0.0,
        "laurent.falling_factorial_sum_s": t("falling_factorial_sum"),
        "diagram.parse_pd_s": t("parse_pd"),
        "table.load_table_s": t("load_table"),
        "table.compute_all_s": t("compute_all"),
        "table.audits_s": sum(t(n) for n in _AUDITS),
        "plots.emit_csv_s": t("emit_csv"),
        "plots.emit_fish_svg_s": t("emit_fish_svg"),
        "plots.emit_torus_overlay_svg_s": t("emit_torus_overlay_svg"),
        "torus.torus_report_s": t("torus_report"),
    }
    values.update(tracer.counts)
    values.update(extra)
    return {name: (int if unit == "count" else float)(values.get(name, 0))
            for name, unit in PER_LAYER.items()}
