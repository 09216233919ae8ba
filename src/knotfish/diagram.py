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

Reading a PD code is one flat pass.  One regular expression matches the
longest well-formed ``X(i,j,k,l),...`` prefix of the body, and a syntax
error is read off where that prefix stops.  The labels are split out of
the prefix with string methods.  The checks then run on flat integer lists
indexed by edge label and by dart (crossing, slot); ``Crossing`` objects
are built only once every check has passed.  Once the labels and signs
pass, the orientation walk is edges 1, 2, ..., 2n in order, so it needs
no check of its own.

``Crossing`` and ``GaussCode`` are ``typing.NamedTuple`` records: immutable,
with named fields, and equal to the plain tuple of their values.
"""

from __future__ import annotations

import re
from typing import NamedTuple

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


class Crossing(NamedTuple):
    """One crossing: edges counterclockwise from the incoming under-strand.

    The under-strand runs edges[0] -> edges[2]; the over-strand runs
    edges[1] -> edges[3] when sign is +1 and edges[3] -> edges[1] when -1.
    """

    edges: tuple[int, int, int, int]
    sign: int


class Diagram:
    """A validated oriented single-component knot diagram.

    Instances are immutable; all operations on them are pure functions.
    Equality compares the crossing tuples (names are labels, not content).
    """

    __slots__ = ("crossings", "edge_count", "name", "_visits")

    def __init__(self, crossings: tuple[Crossing, ...], edge_count: int,
                 name: str | None, visits: tuple[tuple[int, bool], ...]):
        object.__setattr__(self, "crossings", crossings)
        object.__setattr__(self, "edge_count", edge_count)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_visits", visits)

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

        Checks, in order: every tuple has four labels, each an ``int`` (not
        a ``bool``) and positive; every label in 1..2n appears exactly
        twice; the under-strand is label-consecutive at each crossing; the
        over-strand pair determines a sign; no edge enters two crossings;
        the faces close up to a sphere (planarity).  The checks run on flat
        integer lists indexed by edge label, so no Crossing is built until
        all of them pass.

        Once the labels and signs pass, each strand entered by edge e
        leaves by edge e % 2n + 1, and the 2n in-edges are distinct, so
        every edge enters exactly one crossing and the orientation walk is
        1, 2, ..., 2n: one component, with no walk left to check.
        """
        tuples = [tuple(t) for t in tuples]
        if not tuples:
            return Diagram.unknot(name)
        ne = 2 * len(tuples)

        counts = [0] * (ne + 1)     # counts[e] for the labels 1..ne
        above: dict[int, int] = {}  # counts of the labels above ne
        for t in tuples:
            if len(t) != 4:
                raise ValidationError(f"crossing tuple {t} does not have 4 edges")
            for e in t:
                if type(e) is not int:
                    raise ValidationError(f"edge label {e!r} is not an integer")
                if e < 1:
                    raise ValidationError(f"edge label {e} is not positive")
                if e <= ne:
                    counts[e] += 1
                else:
                    above[e] = above.get(e, 0) + 1
        if above or counts.count(2) != ne:
            bad = [e for e in range(1, ne + 1) if counts[e] != 2] + sorted(above)
            raise ValidationError(
                f"every edge label in 1..{ne} must appear exactly twice; "
                f"offending labels: {bad}")

        signs = [_derive_sign(t, ne) for t in tuples]

        # Strand 2*i + over runs through crossing i; entered[e] is the
        # strand that edge e enters.
        entered = [-1] * (ne + 1)
        for i, (a, b, _, d) in enumerate(tuples):
            if signs[i] < 0:
                b = d           # the over-strand enters by d
            if entered[a] >= 0:
                raise ValidationError(
                    f"edge {a} enters two crossings; orientation inconsistent")
            entered[a] = 2 * i
            if entered[b] >= 0:
                raise ValidationError(
                    f"edge {b} enters two crossings; orientation inconsistent")
            entered[b] = 2 * i + 1

        _check_planar(tuples, ne)
        # The walk takes edges 1, 2, ..., 2n in order (see the docstring).
        return Diagram(tuple(map(Crossing, tuples, signs)), ne, name,
                       tuple([(s >> 1, (s & 1) == 1) for s in entered[1:]]))


def _derive_sign(t: tuple[int, int, int, int], ne: int) -> int:
    a, b, c, d = t
    if c % ne != (a + 1) % ne:
        raise ValidationError(
            f"under-strand edges not consecutive in crossing {t}")
    if ne == 2:
        # The labels are 1, 1, 2, 2 and c != a, so b or d holds a.
        return 1 if a == d else -1
    if (d - b) % ne == 1:
        return 1
    if (b - d) % ne == 1:
        return -1
    raise ValidationError(
        f"over-strand edges not consecutive in crossing {t}")


def _check_planar(tuples: list[tuple[int, int, int, int]], ne: int) -> None:
    """Euler-characteristic test: V - E + F == 2 for the induced ribbon graph.

    Dart 4*i + s is slot s of crossing i.  ``glue`` pairs the two darts
    that carry one edge label; a face is an orbit of "cross the edge, then
    turn to the next slot counterclockwise".
    """
    n = len(tuples)
    first = [-1] * (ne + 1)
    glue = [0] * (4 * n)
    dart = 0
    for t in tuples:
        for e in t:
            other = first[e]
            if other < 0:
                first[e] = dart
            else:
                glue[dart] = other
                glue[other] = dart
            dart += 1
    seen = bytearray(4 * n)
    faces = 0
    for start in range(4 * n):
        if seen[start]:
            continue
        faces += 1
        dart = start
        while not seen[dart]:
            seen[dart] = 1
            dart = glue[dart]
            dart = dart - 3 if (dart & 3) == 3 else dart + 1
    if n - ne + faces != 2:
        raise ValidationError(
            "diagram code is not realizable in the plane "
            f"(V - E + F = {n - ne + faces}, expected 2)")


# -- parsing ---------------------------------------------------------------

_PD_TOKEN = r"X\(\d+,\d+,\d+,\d+\)"
# The longest run of comma-separated tokens at the start of the body.
_PD_PREFIX = re.compile(rf"{_PD_TOKEN}(?:,{_PD_TOKEN})*")
_PD_LABEL = re.compile(r"\d+")


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
    # Offsets are into ``body``, which starts 3 characters into the text.
    prefix = _PD_PREFIX.match(body)
    if prefix is None:
        raise PDSyntaxError("expected 'X(i,j,k,l)'", 3)
    end = prefix.end()
    # body[:end] is "X(i,j,k,l),X(...)...": drop the outer "X(" and ")" and
    # turn each "),X(" into "," to leave the labels comma-separated.
    try:
        labels = list(map(int, body[2:end - 1].replace("),X(", ",").split(",")))
    except ValueError:          # a label with more digits than int() converts
        for label in _PD_LABEL.finditer(body, 0, end):
            try:
                int(label[0])
            except ValueError as exc:
                token = body.rfind("X", 0, label.start())
                raise PDSyntaxError("edge label too long", token + 3) from exc
        raise
    if end < len(body):
        if body[end] != ",":
            raise PDSyntaxError("expected ','", end + 3)
        if end + 1 == len(body):
            raise PDSyntaxError("trailing comma", end + 4)
        raise PDSyntaxError("expected 'X(i,j,k,l)'", end + 4)
    label = iter(labels)
    return Diagram.from_tuples(zip(label, label, label, label), name)


def to_pd_text(d: Diagram) -> str:
    inner = ",".join("X({},{},{},{})".format(*c.edges) for c in d.crossings)
    return f"PD[{inner}]"


class GaussCode(NamedTuple):
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
