"""Oriented knot-diagram codes: PD and signed Gauss.

A diagram is a list of crossings, each a 4-tuple of edge labels read
counterclockwise starting from the incoming under-strand.  Edges are
labeled 1..2n along the orientation of the knot, so the successor of
edge e is ``e % 2n + 1``.  The crossing sign is derived from the labels:
+1 when d - b == 1 (mod 2n), -1 when b - d == 1 (mod 2n); the one-crossing
kink, where both congruences hold, is resolved by which slots the loop
edge occupies (a == d gives +1, a == b gives -1).

Validation accepts only single-component diagrams (knots) whose code is
realizable in the plane; realizability is decided by tracing the faces of
the ribbon structure and checking Euler characteristic 2.  The 0-crossing
unknot is a first-class Diagram.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import GaussSyntaxError, PDSyntaxError, ValidationError

__all__ = [
    "Crossing",
    "Diagram",
    "GaussCode",
    "parse_pd",
    "parse_gauss",
    "gauss_to_diagram",
    "to_pd_text",
    "to_gauss",
    "writhe",
    "mirror",
    "connect_sum",
]


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


class Diagram:
    """A validated oriented single-component knot diagram.

    Instances are immutable; all operations on them are pure functions.
    Equality compares the crossing tuples (names are labels, not content).
    The one exception to immutability is ``_jones``, a cache that
    ``knotfish.jones.jones`` fills on first success so that the state sum
    runs at most once per diagram; equality and hashing ignore it.
    """

    __slots__ = ("crossings", "edge_count", "name", "_visits", "_jones")

    def __init__(self, crossings: tuple[Crossing, ...], edge_count: int,
                 name: str | None, visits: tuple[tuple[int, bool], ...]):
        object.__setattr__(self, "crossings", crossings)
        object.__setattr__(self, "edge_count", edge_count)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_visits", visits)
        object.__setattr__(self, "_jones", None)

    def __setattr__(self, *args):
        raise AttributeError("Diagram is immutable")

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    def __eq__(self, other) -> bool:
        # Edge labels pin the structure; the listing order of crossings is
        # presentational, so equality compares the tuple multiset.
        if not isinstance(other, Diagram):
            return NotImplemented
        return (self.edge_count == other.edge_count
                and sorted(c.edges for c in self.crossings)
                == sorted(c.edges for c in other.crossings))

    def __hash__(self) -> int:
        return hash(tuple(sorted(c.edges for c in self.crossings)))

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<Diagram{label} {to_pd_text(self)}>"

    @staticmethod
    def unknot(name: str | None = None) -> Diagram:
        return Diagram((), 0, name, ())

    @staticmethod
    def from_tuples(tuples, name: str | None = None) -> Diagram:
        """Validate raw PD tuples and build a Diagram.

        Checks, in order: every label in 1..2n appears exactly twice; the
        under-strand is label-consecutive at each crossing; the over-strand
        pair determines a sign; every edge enters exactly one crossing; the
        orientation walk is a single 2n-cycle; the faces close up to a
        sphere (planarity).
        """
        tuples = [tuple(t) for t in tuples]
        if not tuples:
            return Diagram.unknot(name)
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
        return Diagram(tuple(crossings), ne, name, tuple(visits))


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


# -- parsing ---------------------------------------------------------------

_PD_TOKEN = re.compile(r"X\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)")


def parse_pd(text: str, name: str | None = None) -> Diagram:
    """Parse ``PD[X(i,j,k,l),...]`` into a validated Diagram.

    Whitespace-insensitive; syntax errors report the character offset.
    """
    stripped = "".join(text.split())
    if not stripped.startswith("PD[") or not stripped.endswith("]"):
        raise PDSyntaxError("expected 'PD[...]'", 0)
    body = stripped[3:-1]
    if not body:
        return Diagram.unknot(name)
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
    return Diagram.from_tuples(tuples, name)


def to_pd_text(d: Diagram) -> str:
    inner = ",".join("X({},{},{},{})".format(*c.edges) for c in d.crossings)
    return f"PD[{inner}]"


@dataclass(frozen=True)
class GaussCode:
    """Signed Gauss code: (crossing id, over flag, sign) along the knot."""

    entries: tuple[tuple[int, bool, int], ...]

    def text(self) -> str:
        return "".join(
            f"{'O' if over else 'U'}{cid}{'+' if sign > 0 else '-'}"
            for cid, over, sign in self.entries)

    def __str__(self) -> str:
        return self.text()


_GAUSS_TOKEN = re.compile(r"([OU])(\d+)([+-])")


def parse_gauss(text: str, name: str | None = None) -> Diagram:
    """Parse a signed Gauss code such as ``O1+U2+O3+U1+O2+U3+``."""
    stripped = "".join(text.split())
    entries = []
    pos = 0
    while pos < len(stripped):
        m = _GAUSS_TOKEN.match(stripped, pos)
        if not m:
            raise GaussSyntaxError(
                f"unexpected token at position {pos}: {stripped[pos:pos+8]!r}")
        try:
            cid = int(m.group(2))
        except ValueError as exc:   # more digits than int() converts
            raise GaussSyntaxError(
                f"crossing id too long at position {pos}") from exc
        entries.append((cid, m.group(1) == "O",
                        1 if m.group(3) == "+" else -1))
        pos = m.end()
    return gauss_to_diagram(GaussCode(tuple(entries)), name)


def gauss_to_diagram(code: GaussCode, name: str | None = None) -> Diagram:
    entries = code.entries
    if not entries:
        return Diagram.unknot(name)
    seen: dict[int, list[tuple[int, bool, int]]] = {}
    for pos, (cid, over, sign) in enumerate(entries, start=1):
        seen.setdefault(cid, []).append((pos, over, sign))
    for cid, occ in seen.items():
        if len(occ) != 2:
            raise GaussSyntaxError(
                f"crossing {cid} appears {len(occ)} times (expected 2)")
        (_, over1, sign1), (_, over2, sign2) = occ
        if over1 == over2:
            raise GaussSyntaxError(
                f"crossing {cid} must appear once over and once under")
        if sign1 != sign2:
            raise GaussSyntaxError(f"sign mismatch for crossing {cid}")
    visits = [(cid, over) for cid, over, _ in entries]
    signs = {cid: occ[0][2] for cid, occ in seen.items()}
    return diagram_from_visits(visits, signs, name)


def to_gauss(d: Diagram) -> GaussCode:
    """Signed Gauss code along the orientation walk, crossings renumbered
    in order of first visit."""
    number: dict[int, int] = {}
    entries = []
    for i, over in d._visits:
        if i not in number:
            number[i] = len(number) + 1
        entries.append((number[i], over, d.crossings[i].sign))
    return GaussCode(tuple(entries))


def diagram_from_visits(visits, signs, name: str | None = None) -> Diagram:
    """Rebuild PD tuples from a visit sequence.

    ``visits`` lists (crossing key, over flag) along the knot; edge j is the
    in-edge of the j-th visit (1-based, wrapping).  ``signs`` maps each key
    to its crossing sign, which fixes the slot of the incoming over-strand.
    Crossings are emitted in order of first visit.
    """
    ne = len(visits)
    ports: dict[object, dict[bool, tuple[int, int]]] = {}
    order = []
    for pos, (key, over) in enumerate(visits, start=1):
        if key not in ports:
            ports[key] = {}
            order.append(key)
        if over in ports[key]:
            raise ValidationError(f"crossing {key} visited twice as "
                                  f"{'over' if over else 'under'}")
        ports[key][over] = (pos, pos % ne + 1)
    tuples = []
    for key in order:
        if len(ports[key]) != 2:
            raise ValidationError(f"crossing {key} not visited twice")
        u_in, u_out = ports[key][False]
        o_in, o_out = ports[key][True]
        if signs[key] > 0:
            tuples.append((u_in, o_in, u_out, o_out))
        else:
            tuples.append((u_in, o_out, u_out, o_in))
    return Diagram.from_tuples(tuples, name)


# -- operations ------------------------------------------------------------

def renamed(d: Diagram, name: str | None) -> Diagram:
    """Same diagram under a different label."""
    return Diagram(d.crossings, d.edge_count, name, d._visits)


def writhe(d: Diagram) -> int:
    """Sum of crossing signs."""
    return sum(c.sign for c in d.crossings)


def mirror(d: Diagram) -> Diagram:
    """Switch every crossing over/under; the projection is unchanged.

    The new incoming under-strand is the old incoming over-strand, so each
    tuple rotates to start there; all signs flip.
    """
    tuples = []
    for c in d.crossings:
        a, b, cc, dd = c.edges
        tuples.append((b, cc, dd, a) if c.sign > 0 else (dd, a, b, cc))
    name = f"mirror({d.name})" if d.name else None
    return Diagram.from_tuples(tuples, name)


def connect_sum(d1: Diagram, d2: Diagram) -> Diagram:
    """Connected sum: splice d2's walk into d1's closing edge and relabel."""
    visits = [(("a", i), over) for i, over in d1._visits]
    visits += [(("b", i), over) for i, over in d2._visits]
    signs = {("a", i): c.sign for i, c in enumerate(d1.crossings)}
    signs.update({("b", i): c.sign for i, c in enumerate(d2.crossings)})
    name = None
    if d1.name and d2.name:
        name = f"{d1.name}#{d2.name}"
    return diagram_from_visits(visits, signs, name)
