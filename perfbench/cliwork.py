"""cli: ``python -m knotfish`` subprocesses in a closed loop with one client.

A step is one invocation, timed from start to exit, so it includes the
interpreter start and ``import knotfish.cli`` that every user pays.  A
unit is a pass over a fixed mix of 20; the next call starts when the
previous one has exited.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import re
import statistics
import subprocess
import sys
import xml.etree.ElementTree as ET
from time import perf_counter

import gen
from common import CLI_SUBCOMMANDS, SRC, instrument, mod

TIMEOUT_S = 60


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("VASSILIEV_CROSSING_CAP", None)   # every input is under the default cap
    return env


class Workload:
    unit_label = "invocations"
    latency_per_unit = False

    def __init__(self, seed: int, tiny: bool, work_dir):
        self.seed, self.tiny, self.work = seed, tiny, work_dir
        self.runs: list[tuple[int, int, str, str]] = []    # (index, rc, stdout, stderr)
        self.digests: list[dict[str, str]] = []

    def setup(self) -> None:
        self.table_file = self.work / "cli_table.txt"
        gen.write_table(self.table_file, gen.table_items(self.seed, gen.TABLE_TINY), self.seed)
        self.mix = gen.cli_mix(self.seed, str(self.table_file), str(self.work), self.tiny)
        self.steps = len(self.mix)
        self.env = child_env()
        self._call(["pseudo", "1", "1"])

    def _call(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "knotfish", *argv], env=self.env,
                              capture_output=True, text=True, timeout=TIMEOUT_S)

    def step(self, k: int) -> int:
        try:
            r = self._call(self.mix[k][1])
            self.runs.append((k, r.returncode, r.stdout, r.stderr))
        except subprocess.TimeoutExpired:
            self.runs.append((k, -1, "", f"timed out after {TIMEOUT_S} s"))
        return 1

    def _out_files(self) -> list[str]:
        return [a for _, argv, _ in self.mix for a in argv
                if a.startswith(str(self.work)) and a.endswith((".csv", ".svg"))]

    def after_unit(self) -> None:
        digests = {}
        for path in self._out_files():
            with contextlib.suppress(OSError):
                digests[path] = hashlib.sha256(open(path, "rb").read()).hexdigest()
        self.digests.append(digests)

    # -- checks ----------------------------------------------------------------

    def check(self) -> tuple[int, int, list[str]]:
        self.cache, self.expected_files = {}, {}
        self.records = mod("table").compute_all(mod("table").load_table(self.table_file))
        verdicts: dict[tuple[int, str], str | None] = {}
        failed, messages = 0, []
        for k, rc, out, err in self.runs:
            sub, argv, ref = self.mix[k]
            if rc != 0:
                why = f"exit {rc}: {err.strip()[:200]}"
            else:
                if (k, out) not in verdicts:
                    verdicts[(k, out)] = self._check_stdout(sub, argv, ref, out)
                why = verdicts[(k, out)]
            if why:
                failed += 1
                messages.append(f"{' '.join(argv)[:80]}: {why}")
        for n, digests in enumerate(self.digests):
            for path, digest in digests.items():
                if digest != self._expected_digest(path):
                    messages.append(f"pass {n}: {path} differs from the library's output")
                    failed += 1
        return len(self.runs), failed, messages

    def _expected_digest(self, path: str) -> str:
        """The library's own output for the invocation that wrote ``path``."""
        if path not in self.expected_files:
            P = mod("plots")
            sub, argv, _ = next(m for m in self.mix if path in m[1])
            ref = self.work / ("expected_" + os.path.basename(path))
            if sub == "table":
                P.emit_csv(self.records, ref)
            elif sub == "plot":
                P.emit_fish_svg(self.records, int(argv[argv.index("--crossing") + 1]), ref)
            else:
                u = argv[argv.index("--unknotting") + 1]
                lo, hi = map(int, u.split(".."))
                cs = [int(x) for x in argv[argv.index("--crossing") + 1].split(",")]
                P.emit_torus_overlay_svg(list(range(lo, hi + 1)), cs, ref)
            data = ref.read_bytes()
            if ref.suffix == ".svg":
                ET.fromstring(data)
            else:
                rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
                if len(rows) != len(self.records) + 1:
                    raise AssertionError("library CSV has the wrong row count")
            self.expected_files[path] = hashlib.sha256(data).hexdigest()
        return self.expected_files[path]

    def _check_stdout(self, sub, argv, ref, out) -> str | None:
        kf = sys.modules["knotfish"]
        if sub == "invariants":
            code = argv[1]
            d = kf.parse_pd(code) if code.startswith("PD[") else kf.parse_gauss(code)
            pair, jones = kf.v2_v3(d), kf.jones(d)
            want = {"crossings": str(d.crossing_count), "writhe": str(kf.writhe(d)),
                    "jones": str(jones), "v2": str(pair.v2), "v3": str(pair.v3),
                    "arf": str(kf.arf(pair))}
            got = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
            if got != want:
                return f"stdout {got} differs from the library {want}"
            exp = gen.expected_values(ref, self.cache)
            if exp is not None and ((pair.v2, pair.v3) != exp[:2]
                                    or (exp[2] is not None and jones.terms != exp[2])):
                return f"library value ({pair.v2}, {pair.v3}) differs from the reference {exp[:2]}"
            return None
        if sub == "torus":
            pair = kf.torus_v2v3((ref[1], ref[2]))
            if f"(v2,v3) = ({pair.v2}, {pair.v3})" not in out or "FAIL" in out:
                return "torus report wrong or failing"
            return None
        if sub == "pseudo":
            t = (ref[1], ref[2])
            got = re.findall(r"^([uc])~ = (\S+)$", out, re.M)
            want = [("u", str(kf.torus_unknotting(t))), ("c", str(kf.torus_crossing(t)))]
            lib = kf.pseudo_invariants(kf.torus_v2v3(t))
            if got != want or tuple(int(v) for _, v in got) != lib:
                return f"pseudo-invariants {got}, expected {want}"
            return None
        if sub == "generate":
            d = kf.torus_pd((ref[1], ref[2])) if ref[0] == "torus" else kf.whitehead_pd(ref[1])
            return None if out.strip() == kf.to_pd_text(d) else "PD text differs from the library"
        if sub == "table":
            T = mod("table")
            if "bound audit: no violations" not in out:
                return "audit did not report 'no violations'"
            rows = [tuple(int(x) for x in line.split()[:3])
                    for line in out.splitlines() if re.match(r"^\d+\s+\d+\s+\d+\s", line)]
            want = [row[:3] for row in T.crossing_maxima(self.records)]
            return None if rows == want else f"maxima {rows} differ from the library {want}"
        return None if out.startswith("wrote ") else f"unexpected stdout {out[:80]!r}"

    # -- traced run ------------------------------------------------------------

    def traced(self, tracer) -> dict[str, float]:
        """Interpreter and import cost, one subprocess pass for the
        per-subcommand medians, and the mix in-process through cli_main,
        untraced and then traced."""
        def median_s(argv):
            times = []
            for _ in range(5):
                start = perf_counter()
                subprocess.run([sys.executable, *argv], env=self.env, check=True,
                               capture_output=True, timeout=TIMEOUT_S)
                times.append(perf_counter() - start)
            return statistics.median(times)

        interpreter = median_s(["-c", "pass"])
        imported = median_s(["-c", "import knotfish.cli"])
        by_sub = {sub: [] for sub in CLI_SUBCOMMANDS}
        for k in range(self.steps):
            start = perf_counter()
            self.step(k)
            by_sub[self.mix[k][0]].append((perf_counter() - start) * 1000.0)
        self.after_unit()

        def in_process():
            cli_main = mod("cli").cli_main
            start = perf_counter()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                codes = [cli_main(list(argv)) for _, argv, _ in self.mix]
            if any(codes):
                raise RuntimeError(f"cli_main exit codes {codes}")
            return perf_counter() - start

        plain = in_process()
        instrument(tracer)
        try:
            took = in_process()
        finally:
            tracer.restore()
        extra = {"cli.interpreter_s": interpreter,
                 "cli.import_s": imported - interpreter,
                 "cli.cli_main_s": plain,
                 "trace.overhead_s": took - plain}
        extra.update({f"cli.{sub}_ms": statistics.median(v) for sub, v in by_sub.items() if v})
        return extra
