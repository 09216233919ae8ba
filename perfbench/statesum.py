"""statesum: the full record ``knotfish invariants`` prints, per diagram.

Each item is PD text at 11-16 crossings, taken through parse_pd -> v2_v3 ->
jones -> writhe and arf, as the CLI does; the 2^c bracket runs twice per
item.  A step is one diagram; a unit is the block of 40.
"""

from __future__ import annotations

import gen
from common import mod, trace_one_unit


class Workload:
    unit_label = "diagrams"
    latency_per_unit = False

    def __init__(self, seed: int, tiny: bool, work_dir):
        self.seed, self.tiny = seed, tiny
        self.results: list[list] = []       # per unit: (v2, v3, J) or an error

    def setup(self) -> None:
        self.items = gen.statesum_items(self.seed, self.tiny)
        self.steps = len(self.items)
        self._record("PD[X(1,4,2,5),X(3,6,4,1),X(5,2,6,3)]")

    @staticmethod
    def _record(text: str):
        D, J = mod("diagram"), mod("jones")
        try:
            d = D.parse_pd(text)
            pair = J.v2_v3(d)
            jones = J.jones(d)
            D.writhe(d)
            J.arf(pair)
            return pair.v2, pair.v3, jones
        except Exception as exc:   # counted as a failed item
            return exc

    def step(self, i: int) -> int:
        if i == 0:
            self.results.append([])
        self.results[-1].append(self._record(self.items[i].text))
        return 1

    def after_unit(self) -> None:
        pass

    def check(self) -> tuple[int, int, list[str]]:
        """(items attempted, items failed, messages) over every unit run."""
        cache: dict = {}
        expected = {it.key: gen.expected_values(it.ref, cache) for it in self.items}
        failed, messages = 0, []
        for out in self.results:
            by_key = {it.key: r for it, r in zip(self.items, out)}
            for it, r in zip(self.items, out):
                why = self._check_item(it, r, expected[it.key], by_key)
                if why:
                    failed += 1
                    messages.append(f"{it.key} {it.ref[:2]}: {why}")
        return sum(len(out) for out in self.results), failed, messages

    @staticmethod
    def _check_item(it, r, exp, by_key) -> str | None:
        if isinstance(r, Exception):
            return f"raised {type(r).__name__}: {r}"
        v2, v3, jones = r
        j = jones.terms
        why = gen.record_relations(j, v2, v3)
        if why:
            return why
        if exp is not None:
            if (v2, v3) != exp[:2]:
                return f"(v2, v3) = ({v2}, {v3}), reference {exp[:2]}"
            if exp[2] is not None and j != exp[2]:
                return f"Jones {jones} differs from the reference"
        if it.ref[0] == "mirror":
            twin = by_key[it.ref[1]]
            if isinstance(twin, Exception):
                return "mirror twin raised"
            if (v2, v3) != (twin[0], -twin[1]):
                return f"mirror gives ({v2}, {v3}), twin ({twin[0]}, {twin[1]})"
            if j != gen.poly_invert(twin[2].terms):
                return "mirror Jones is not J(1/q) of the twin"
        return None

    traced = trace_one_unit
