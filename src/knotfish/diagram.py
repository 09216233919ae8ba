"""Oriented knot-diagram codes: PD and signed Gauss.

A diagram is a list of crossings, each a 4-tuple of edge labels read
counterclockwise starting from the incoming under-strand.  A ``Diagram`` is
exactly that PD code, stored flat: crossing i in ``labels[4i:4i+4]`` with
its sign in ``signs[i]``, and nothing else.  A knot's table name lives in
``table.KnotRecord``, not in its diagram.  Edges are labeled 1..2n along
the orientation of the knot, so the successor of edge e is ``e % 2n + 1``.
The crossing sign is derived from the labels: +1 when d - b == 1 (mod 2n),
-1 when b - d == 1 (mod 2n); the one-crossing kink, where both congruences
hold, is resolved by which slots the loop edge occupies (a == d gives +1,
a == b gives -1).  One loop over the crossings derives each sign and
marks the under and over in-edges.

Validation accepts only single-component diagrams (knots) whose code is
realizable in the plane; realizability is decided by tracing the faces of
the ribbon structure and checking Euler characteristic 2.  The 0-crossing
unknot is a first-class Diagram.

Reading a PD code is one flat pass.  One regular expression matches the
longest well-formed ``X(i,j,k,l),...`` prefix of the body, and a syntax
error is read off where that prefix stops.  The labels are split out of
the prefix with string methods, and ``_from_labels``, the one validator,
checks that flat list; ``Diagram.from_tuples`` only checks tuple lengths
and flattens.  Once the labels and signs pass, the orientation walk is
edges 1, 2, ..., 2n in order, so it needs no check of its own, and it is
not stored: edge label e is the e-th visit, so ``to_gauss`` and
``connect_sum`` derive the walk from the in-edges when they are called.

Every diagram defined by a walk is built by ``diagram_from_walk`` from its
signed walk, one (crossing key, over flag, sign) entry per visit: Gauss
codes, connected sums and the generators' braid closures and Whitehead
doubles.  It runs the Gauss-code checks once, lays out the flat labels and
the signs itself and checks planarity only: the walk already guarantees
everything else ``_from_labels`` checks.  ``mirror`` rotates each tuple
and negates the signs, which keeps a valid diagram valid, so it checks
nothing.  ``_from_labels`` is the one validator of PD labels, behind
``parse_pd`` and ``Diagram.from_tuples``.

``GaussCode`` is a ``typing.NamedTuple`` record: immutable, with a named
field, and equal to the plain tuple of its value.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import NamedTuple

from .errors import GaussSyntaxError, PDSyntaxError, ValidationError

__all__ = [
    "Diagram",
    "GaussCode",
    "parse_pd",
    "parse_gauss",
    "diagram_from_walk",
    "to_pd_text",
    "to_gauss",
    "writhe",
    "mirror",
    "connect_sum",
]


class Diagram:
    """A validated oriented single-component knot diagram.

    Instances are immutable; all operations on them are pure functions.
    Equality compares the crossing tuples.
    """

    __slots__ = ("labels", "signs")

    def __init__(self, labels: tuple[int, ...], signs: tuple[int, ...]):
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "signs", signs)

    def __setattr__(self, *args):
        raise AttributeError("Diagram is immutable")

    @property
    def edge_count(self) -> int:
        return 2 * len(self.signs)

    @property
    def crossing_count(self) -> int:
        return len(self.signs)

    def __eq__(self, other) -> bool:
        # Edge labels pin the structure; the listing order of crossings is
        # presentational, so equality compares the tuple multiset.
        if not isinstance(other, Diagram):
            return NotImplemented
        return sorted(_quads(self.labels)) == sorted(_quads(other.labels))

    def __hash__(self) -> int:
        return hash(tuple(sorted(_quads(self.labels))))

    def __repr__(self) -> str:
        return f"<Diagram {to_pd_text(self)}>"

    @staticmethod
    def unknot() -> Diagram:
        return Diagram((), ())

    @staticmethod
    def from_tuples(tuples) -> Diagram:
        """Validate raw PD tuples and build a Diagram: each tuple must have
        four labels, and ``_from_labels`` checks them flattened.  A bad label
        before a short tuple is reported first, in reading order."""
        labels: list = []
        for t in tuples:
            t = tuple(t)
            if len(t) != 4:
                _check_labels(labels)
                raise ValidationError(f"crossing tuple {t} does not have 4 edges")
            labels += t
        return _from_labels(labels)


def _quads(labels):
    """The flat labels four at a time: one (a, b, c, d) per crossing."""
    return zip(*[iter(labels)] * 4)


def _check_labels(labels: list) -> None:
    """Every label is an ``int`` (not a ``bool``) and positive."""
    for e in labels:
        if type(e) is not int:
            raise ValidationError(f"edge label {e!r} is not an integer")
        if e < 1:
            raise ValidationError(f"edge label {e} is not positive")


def _from_labels(labels: list) -> Diagram:
    """Validate flat PD labels, four per crossing, and build the Diagram.

    Checks, in order: every label is an ``int`` (not a ``bool``) and
    positive; every label in 1..2n appears exactly twice; the under-strand
    is label-consecutive at each crossing; the over-strand pair determines
    a sign; no edge enters two crossings; the faces close up to a sphere
    (planarity).  One loop over the crossings runs the two strand checks,
    derives the sign and marks the in-edges.  It notes the first edge, in
    reading order, that enters twice and reports it after the loop, so
    every strand error still comes first.  Then each strand entered by
    edge e leaves by edge e % 2n + 1, and the 2n in-edges are distinct, so
    the orientation walk is 1, 2, ..., 2n: one component, with no walk
    left to check.
    """
    _check_labels(labels)
    if not labels:
        return Diagram.unknot()
    ne = len(labels) // 2
    ordered = sorted(labels)    # 1, 1, 2, 2, ..., ne, ne when the counts pass
    if ordered[0::2] != ordered[1::2] or ordered[0::2] != list(range(1, ne + 1)):
        counts = Counter(labels)
        bad = sorted(e for e in {*range(1, ne + 1), *counts}
                     if e > ne or counts[e] != 2)
        raise ValidationError(f"every edge label in 1..{ne} must appear exactly "
                              f"twice; offending labels: {bad}")

    signs = []
    entered = bytearray(ne + 1)     # entered[e]: edge e enters a crossing
    twice = 0                       # the first edge that enters twice
    for t in _quads(labels):
        a, b, c, d = t
        if c % ne != (a + 1) % ne:
            raise ValidationError(
                f"under-strand edges not consecutive in crossing {t}")
        if ne == 2:
            # The labels are 1, 1, 2, 2 and c != a, so b or d holds a.
            sign = 1 if a == d else -1
        elif (d - b) % ne == 1:
            sign = 1
        elif (b - d) % ne == 1:
            sign = -1
        else:
            raise ValidationError(
                f"over-strand edges not consecutive in crossing {t}")
        signs.append(sign)
        if entered[a] and not twice:        # the under in-edge
            twice = a
        entered[a] = 1
        o = b if sign > 0 else d            # the over in-edge
        if entered[o] and not twice:
            twice = o
        entered[o] = 1
    if twice:
        raise ValidationError(
            f"edge {twice} enters two crossings; orientation inconsistent")

    _check_planar(labels, ne)
    return Diagram(tuple(labels), tuple(signs))


def _walk(d: Diagram) -> list[tuple[int, bool]]:
    """The orientation walk of ``d``: (crossing index, over flag) per visit.

    Edge label e is the e-th visit: edge e enters the crossing visited
    e-th, under by its first label, over by its second (sign +1) or fourth
    (sign -1).  Every builder leaves the in-edges 1..2n, once each:
    ``_from_labels`` checks it, and the walk and the mirror guarantee it.
    """
    walk = [None] * d.edge_count
    for i, ((a, b, _, dd), sign) in enumerate(zip(_quads(d.labels), d.signs)):
        walk[a - 1] = (i, False)
        walk[(b if sign > 0 else dd) - 1] = (i, True)
    return walk


def _check_planar(labels: list[int], ne: int) -> None:
    """Euler-characteristic test: V - E + F == 2 for the induced ribbon graph.

    Dart 4*i + s is slot s of crossing i, the index of its label in the
    flat ``labels``.  A face is an orbit of "cross the edge to the other
    dart with the same label, then turn to the next slot counterclockwise";
    ``step`` maps each dart to the next one on its face, or to -1 once its
    face is counted.
    """
    n = len(labels) // 4
    first = [-1] * (ne + 1)
    step = [0] * (4 * n)
    for dart, e in enumerate(labels):
        other = first[e]
        if other < 0:
            first[e] = dart
        else:
            step[dart] = other - 3 if other & 3 == 3 else other + 1
            step[other] = dart - 3 if dart & 3 == 3 else dart + 1
    faces = 0
    for start in range(4 * n):
        if step[start] >= 0:
            faces += 1
            dart = start
            while step[dart] >= 0:     # mark the face's darts in turn
                step[dart], dart = -1, step[dart]
    if n - ne + faces != 2:
        raise ValidationError(
            "diagram code is not realizable in the plane "
            f"(V - E + F = {n - ne + faces}, expected 2)")


# -- parsing ---------------------------------------------------------------

_PD_TOKEN = r"X\(\d+,\d+,\d+,\d+\)"
# The longest run of comma-separated tokens at the start of the body.
_PD_PREFIX = re.compile(rf"{_PD_TOKEN}(?:,{_PD_TOKEN})*")
_PD_LABEL = re.compile(r"\d+")


def parse_pd(text: str) -> Diagram:
    """Parse ``PD[X(i,j,k,l),...]`` into a validated Diagram.

    Whitespace-insensitive; syntax errors report the character offset.
    """
    stripped = "".join(text.split())
    if not stripped.startswith("PD[") or not stripped.endswith("]"):
        raise PDSyntaxError("expected 'PD[...]'", 0)
    body = stripped[3:-1]
    if not body:
        return Diagram.unknot()
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
    return _from_labels(labels)


def to_pd_text(d: Diagram) -> str:
    inner = ",".join(map("X({},{},{},{})".format, *[iter(d.labels)] * 4))
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


def parse_gauss(text: str) -> Diagram:
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
    return diagram_from_walk(entries)


def diagram_from_walk(walk) -> Diagram:
    """Build a Diagram from a signed walk.

    ``walk`` is a sequence of (crossing key, over flag, sign), one entry
    per visit along the knot; edge j is the in-edge of the j-th visit
    (1-based, wrapping).  Each key must appear twice, once over and once
    under, with one sign, or GaussSyntaxError is raised, key by key in
    order of first visit; the sign fixes the slot of the incoming
    over-strand, and is stored as 1 if it is > 0, else -1.  Crossings are
    emitted in order of first visit.

    Only planarity is checked once the Gauss checks pass, because the
    walk guarantees every other check of ``_from_labels``.  With ne visits:
    the in-edges are the positions 1..ne, once each, and the out-edges
    p % ne + 1, once each, so every label is a positive int that appears
    exactly twice.  The under out-edge is u_in % ne + 1.  The over pair
    differs by 1 in the direction the sign selects, and for ne = 2 the
    kink rule (a == d gives +1) gives the same sign in all four
    one-crossing walks.  The in-edges are distinct.  So ``_from_labels``
    would derive exactly these signs, or fail on planarity alone.
    """
    ne = len(walk)
    if not ne:
        return Diagram.unknot()
    occurrences: dict[object, list[tuple[int, bool, int]]] = {}
    for pos, (key, over, sign) in enumerate(walk, start=1):
        occurrences.setdefault(key, []).append((pos, over, sign))
    labels: list[int] = []
    signs: list[int] = []
    for key, occ in occurrences.items():
        if len(occ) != 2:
            raise GaussSyntaxError(
                f"crossing {key} appears {len(occ)} times (expected 2)")
        (pos1, over1, sign1), (pos2, over2, sign2) = occ
        if over1 == over2:
            raise GaussSyntaxError(
                f"crossing {key} must appear once over and once under")
        if sign1 != sign2:
            raise GaussSyntaxError(f"sign mismatch for crossing {key}")
        u_in, o_in = (pos2, pos1) if over1 else (pos1, pos2)
        u_out, o_out = u_in % ne + 1, o_in % ne + 1
        sign = 1 if sign1 > 0 else -1
        labels += ((u_in, o_in, u_out, o_out) if sign > 0
                   else (u_in, o_out, u_out, o_in))
        signs.append(sign)
    _check_planar(labels, ne)
    return Diagram(tuple(labels), tuple(signs))


def to_gauss(d: Diagram) -> GaussCode:
    """Signed Gauss code along the orientation walk, crossings renumbered
    in order of first visit."""
    number: dict[int, int] = {}
    entries = []
    for i, over in _walk(d):
        if i not in number:
            number[i] = len(number) + 1
        entries.append((number[i], over, d.signs[i]))
    return GaussCode(tuple(entries))


# -- operations ------------------------------------------------------------

def writhe(d: Diagram) -> int:
    """Sum of crossing signs."""
    return sum(d.signs)


def mirror(d: Diagram) -> Diagram:
    """Switch every crossing over/under; the projection is unchanged.

    The new incoming under-strand is the old incoming over-strand, so each
    tuple rotates to start there; all signs flip.  Nothing is re-checked:
    a cyclic rotation keeps each tuple's slots in counterclockwise order,
    so the faces and the labels are unchanged, the under and over in-edges
    swap, and the sign flips.  So ``mirror(d)`` is valid whenever ``d`` is.
    """
    labels: list[int] = []
    for (a, b, cc, dd), sign in zip(_quads(d.labels), d.signs):
        labels += (b, cc, dd, a) if sign > 0 else (dd, a, b, cc)
    return Diagram(tuple(labels), tuple(-s for s in d.signs))


def connect_sum(d1: Diagram, d2: Diagram) -> Diagram:
    """Connected sum: splice d2's walk into d1's closing edge and relabel."""
    walk = [(("a", i), over, d1.signs[i]) for i, over in _walk(d1)]
    walk += [(("b", i), over, d2.signs[i]) for i, over in _walk(d2)]
    return diagram_from_walk(walk)
