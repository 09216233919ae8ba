"""Spans around calls into knotfish's public functions, taken from outside.

The tracer rebinds a function in every loaded knotfish module that refers
to it (and on its class, for a method), so calls made inside the package
are caught too: v2_v3 -> jones -> kauffman_bracket nest as spans.  Nothing
under src/ changes.  Spans are kept in memory as [name, start, end, parent
index] and written out by ``dump`` when the run ends.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def instrument(self, owner, attr: str, name: str, on_result=None) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``on_result(args, result)`` may add to ``counts``.
        """
        orig = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None])
            stack.append(idx)
            start = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1], spans[idx][2] = start, end
            if on_result is not None:
                on_result(args, result)
            return result

        targets = [owner] if isinstance(owner, type) else []
        targets += [m for n, m in list(sys.modules.items())
                    if n == "knotfish" or n.startswith("knotfish.")]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is orig:
                    self._undo.append((target, key, value))
                    setattr(target, key, traced)

    def restore(self) -> None:
        for target, key, value in reversed(self._undo):
            setattr(target, key, value)
        self._undo.clear()

    # -- derived times ---------------------------------------------------

    def total(self, name: str) -> float:
        """Wall time inside spans called ``name`` (outermost calls only)."""
        spans = self.spans
        out = 0.0
        for s in spans:
            if s[0] != name:
                continue
            p = s[3]
            while p is not None and spans[p][0] != name:
                p = spans[p][3]
            if p is None:
                out += s[2] - s[1]
        return out

    def child_total(self, parent: str, child: str) -> float:
        """Time of ``child`` spans whose direct parent is a ``parent`` span."""
        spans = self.spans
        return sum(s[2] - s[1] for s in spans
                   if s[0] == child and s[3] is not None and spans[s[3]][0] == parent)

    def dump(self, path) -> None:
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent"],
                                    "spans": self.spans,
                                    "counts": dict(self.counts)}))
