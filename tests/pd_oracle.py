"""Reference PD reader: the token-by-token ``parse_pd`` and the dict-based
``Diagram.from_tuples`` and ``_check_planar`` as they stood before parsing
and validation moved to one flat pass, kept so the tests can compare the
two on generated codes.

The reference builds no library ``Diagram``, so it does not depend on how
one is stored.  It returns its own data, ``(edge count, [(edges, sign)],
walk)``, with the walk traced crossing by crossing, for the tests to compare
with the crossings the library stores and the walk it derives from the edge
labels.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from knotfish.errors import PDSyntaxError, ValidationError


@dataclass(frozen=True)
class Crossing:
    """One crossing: edges counterclockwise from the incoming under-strand."""

    edges: tuple[int, int, int, int]
    sign: int

    @property
    def incoming_under(self) -> int:
        return self.edges[0]

    @property
    def outgoing_under(self) -> int:
        return self.edges[2]

    @property
    def incoming_over(self) -> int:
        return self.edges[1] if self.sign > 0 else self.edges[3]

    @property
    def outgoing_over(self) -> int:
        return self.edges[3] if self.sign > 0 else self.edges[1]


Outcome = tuple[int, list[tuple[tuple[int, int, int, int], int]],
                tuple[tuple[int, bool], ...]]


def from_tuples(tuples) -> Outcome:
    tuples = [tuple(t) for t in tuples]
    if not tuples:
        return 0, [], ()
    n = len(tuples)
    ne = 2 * n

    counts: dict[int, int] = {}
    for t in tuples:
        if len(t) != 4:
            raise ValidationError(f"crossing tuple {t} does not have 4 edges")
        for e in t:
            if e < 1:
                raise ValidationError(f"edge label {e} is not positive")
            counts[e] = counts.get(e, 0) + 1
    bad = sorted(e for e in set(counts) | set(range(1, ne + 1))
                 if e > ne or counts.get(e, 0) != 2)
    if bad:
        raise ValidationError(
            f"every edge label in 1..{ne} must appear exactly twice; "
            f"offending labels: {bad}")

    crossings = []
    for t in tuples:
        crossings.append(Crossing(t, _derive_sign(t, ne)))

    # Every edge must be the in-edge of exactly one crossing.
    entered: dict[int, tuple[int, bool]] = {}
    for i, c in enumerate(crossings):
        for edge, over in ((c.incoming_under, False), (c.incoming_over, True)):
            if edge in entered:
                raise ValidationError(
                    f"edge {edge} enters two crossings; orientation inconsistent")
            entered[edge] = (i, over)
    if len(entered) != ne:
        missing = sorted(set(range(1, ne + 1)) - set(entered))
        raise ValidationError(
            f"edges {missing} never enter a crossing; orientation inconsistent")

    # Orientation walk: a single knot component traverses all edges once.
    visits = []
    edge = 1
    for _ in range(ne):
        i, over = entered[edge]
        visits.append((i, over))
        c = crossings[i]
        edge = c.outgoing_over if over else c.outgoing_under
    if edge != 1:
        raise ValidationError("orientation walk does not close up")
    # The walk starts at edge 1 and takes one out-edge per visit, so it
    # covers all edges iff every crossing is hit exactly twice.
    hits = [0] * n
    for i, _ in visits:
        hits[i] += 1
    if any(h != 2 for h in hits):
        raise ValidationError(
            "diagram has more than one component (walk misses crossings)")

    _check_planar(crossings, ne)
    return ne, [(c.edges, c.sign) for c in crossings], tuple(visits)


def _derive_sign(t: tuple[int, int, int, int], ne: int) -> int:
    a, b, c, d = t
    if c % ne != (a + 1) % ne:
        raise ValidationError(
            f"under-strand edges not consecutive in crossing {t}")
    if ne == 2:
        if a == d:
            return 1
        if a == b:
            return -1
        raise ValidationError(f"malformed one-crossing diagram {t}")
    if (d - b) % ne == 1:
        return 1
    if (b - d) % ne == 1:
        return -1
    raise ValidationError(
        f"over-strand edges not consecutive in crossing {t}")


def _check_planar(crossings, ne: int) -> None:
    """Euler-characteristic test: V - E + F == 2 for the induced ribbon graph."""
    n = len(crossings)
    if n == 0:
        return
    glue: dict[tuple[int, int], tuple[int, int]] = {}
    where: dict[int, list[tuple[int, int]]] = {}
    for i, c in enumerate(crossings):
        for s, e in enumerate(c.edges):
            where.setdefault(e, []).append((i, s))
    for darts in where.values():
        d1, d2 = darts
        glue[d1] = d2
        glue[d2] = d1
    unvisited = set(glue)
    faces = 0
    while unvisited:
        start = next(iter(unvisited))
        dart = start
        while True:
            unvisited.discard(dart)
            i, s = glue[dart]
            dart = (i, (s + 1) % 4)
            if dart == start:
                break
        faces += 1
    if n - ne + faces != 2:
        raise ValidationError(
            "diagram code is not realizable in the plane "
            f"(V - E + F = {n - ne + faces}, expected 2)")


_PD_TOKEN = re.compile(r"X\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)")


def parse_pd(text: str) -> Outcome:
    stripped = "".join(text.split())
    if not stripped.startswith("PD[") or not stripped.endswith("]"):
        raise PDSyntaxError("expected 'PD[...]'", 0)
    body = stripped[3:-1]
    if not body:
        return 0, [], ()
    tuples = []
    pos = 0
    while pos < len(body):
        m = _PD_TOKEN.match(body, pos)
        if not m:
            raise PDSyntaxError("expected 'X(i,j,k,l)'", pos + 3)
        try:
            tuples.append(tuple(int(g) for g in m.groups()))
        except ValueError as exc:   # more digits than int() converts
            raise PDSyntaxError("edge label too long", pos + 3) from exc
        pos = m.end()
        if pos < len(body):
            if body[pos] != ",":
                raise PDSyntaxError("expected ','", pos + 3)
            pos += 1
            if pos == len(body):
                raise PDSyntaxError("trailing comma", pos + 3)
    return from_tuples(tuples)
