"""table: the paper's fish pipeline over a seeded table of 1200 records.

One unit is one pass: load_table -> compute_all -> the four audits ->
emit_csv -> emit_fish_svg per crossing number -> a torus_report sweep and
emit_torus_overlay_svg.  Items are records; latency is per pass.

The pass is cut into steps so that the reference loop can be timed often
(see run.py): compute_all runs over consecutive slices of CHUNK records,
which gives the same records as one call, since it treats each record on
its own.
"""

from __future__ import annotations

import csv
import hashlib
import io
import xml.etree.ElementTree as ET
from math import gcd

import gen
from common import mod, trace_one_unit

TORUS_SWEEP = [(p, q) for p in range(2, 8) for q in range(p + 1, 16) if gcd(p, q) == 1]
OVERLAY_U = list(range(1, 10))
OVERLAY_C = [3, 5, 7, 9, 11, 13, 15, 17]
CHUNK = 50


class Workload:
    unit_label = "records"
    latency_per_unit = True

    def __init__(self, seed: int, tiny: bool, work_dir):
        self.seed, self.tiny, self.work = seed, tiny, work_dir
        self.table_file = work_dir / "table.txt"
        self.passes: list[dict] = []

    def setup(self) -> None:
        counts = gen.TABLE_TINY if self.tiny else gen.TABLE_COUNTS
        self.items = gen.table_items(self.seed, counts)
        gen.write_table(self.table_file, self.items, self.seed)
        self.crossings = sorted(counts)
        self.chunks = -(-len(self.items) // CHUNK)
        self.steps = self.chunks + 3
        warm = self.work / "warm.txt"
        warm.write_text("3_1\tPD[X(1,4,2,5),X(3,6,4,1),X(5,2,6,3)]\n", encoding="utf-8")
        mod("table").compute_all(mod("table").load_table(warm))

    def step(self, i: int) -> int:
        T, P, TO = mod("table"), mod("plots"), mod("torus")
        if i == 0:
            self._loaded, self._records = T.load_table(self.table_file), []
            return 0
        if i <= self.chunks:
            done = T.compute_all(self._loaded[(i - 1) * CHUNK:i * CHUNK])
            self._records += done
            return len(done)
        records = self._records
        if i == self.chunks + 1:
            self._audits = (T.crossing_maxima(records), T.bound_audit(records))
            T.amphicheiral_candidates(records)
            T.printed_bound_check()
            P.emit_csv(records, self.work / "table.csv")
            for c in self.crossings:
                P.emit_fish_svg(records, c, self.work / f"fish{c}.svg")
            return 0
        reports = [TO.torus_report(pq) for pq in TORUS_SWEEP]
        P.emit_torus_overlay_svg(OVERLAY_U, OVERLAY_C, self.work / "overlay.svg")
        self._last = (records, *self._audits, reports)
        return 0

    def _outputs(self) -> list:
        return [self.work / "table.csv", self.work / "overlay.svg"] + [
            self.work / f"fish{c}.svg" for c in self.crossings]

    def after_unit(self) -> None:
        """Keep what the checks need; the files are overwritten next pass."""
        records, maxima, violations, reports = self._last
        bad = {r.name for r in records if r.invariants is None}
        bad |= {name for name, _ in violations}
        summary = {
            "bad": bad,
            "maxima": maxima,
            "torus_inconsistent": [r.params for r in reports if not r.consistent],
            "digests": [hashlib.sha256(p.read_bytes()).hexdigest() for p in self._outputs()],
            "records": len(records),
        }
        if not self.passes:
            summary["file_errors"] = self._check_files(records)
            summary["value_errors"] = self._check_values(records)
        self.passes.append(summary)
        del self._last

    def _check_files(self, records) -> list[str]:
        errors = []
        rows = list(csv.reader(io.StringIO((self.work / "table.csv").read_text("utf-8"))))
        want = [["name", "crossings", "v2", "v3"]] + [
            [r.name, str(r.crossing_number), str(r.invariants.v2), str(r.invariants.v3)]
            for r in records if r.invariants is not None]
        if len(rows) != len(self.items) + 1:
            errors.append(f"CSV has {len(rows) - 1} rows for {len(self.items)} records")
        elif rows != want:
            errors.append("CSV rows differ from the computed records")
        for path in self._outputs()[1:]:
            try:
                ET.fromstring(path.read_bytes())
            except ET.ParseError as exc:
                errors.append(f"{path.name} is not well-formed XML: {exc}")
        return errors

    def _check_values(self, records) -> dict[str, str]:
        """Records whose reference fixes (v2, v3): torus, Whitehead, sums."""
        errors, cache = {}, {}
        if [r.name for r in records] != [it.key for it in self.items]:
            errors["*"] = "records are not the table's rows in order"
            return errors
        for it, rec in zip(self.items, records):
            exp = gen.expected_values(it.ref, cache, with_jones=False)
            if exp is None or rec.invariants is None:
                continue
            if tuple(rec.invariants) != exp[:2]:
                errors[it.key] = f"(v2, v3) = {tuple(rec.invariants)}, reference {exp[:2]}"
        return errors

    def check(self) -> tuple[int, int, list[str]]:
        failed, messages = 0, []
        first = self.passes[0]
        for k, s in enumerate(self.passes):
            bad = set(s["bad"]) | set(first["value_errors"])
            whole = (s["digests"] != first["digests"] or s["maxima"] != first["maxima"]
                     or s["torus_inconsistent"] or first["file_errors"])
            failed += s["records"] if whole else len(bad)
            if whole:
                messages.append(f"pass {k}: outputs wrong or not repeatable "
                                f"{first['file_errors'] or s['torus_inconsistent']}")
            messages += [f"pass {k}: {name} failed" for name in sorted(s["bad"])]
        messages += [f"{k}: {v}" for k, v in first["value_errors"].items()]
        return sum(s["records"] for s in self.passes), failed, messages

    traced = trace_one_unit
