"""Diagram constructors for the parameterized knot families.

Torus knots are built as braid closures of (s1 s2 ... s_{p-1})^q with
strands left to right, generators stacked bottom to top, and closure
arcs on the right; T(p,q) with pq < 0 negates every letter, which gives
the mirror diagram.  A braid is closed by following the strand that starts
at position 1 up through the word, one pass at a time.  Twisted Whitehead
doubles of the unknot are built as a 2-crossing clasp hooked over an
antiparallel ladder of 2|i| same-sign twist crossings.  Every constructor
emits a signed walk, and ``diagram.diagram_from_walk`` turns it into the
diagram, so edge labels come from that one orientation walk.  Torus
parameters, Whitehead indices, strand counts and braid letters must each
be an ``int`` (not a ``bool``); anything else raises InputError.

Both families carry a chirality convention that a picture cannot pin
down; each is calibrated against anchor values (T(2,3) and the i = 1,
-1 doubles) and hard-coded here.  The anchor tests guard the choice.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .diagram import Diagram, diagram_from_walk
from .errors import InputError, ValidationError
from .jones import InvariantPair

__all__ = ["TorusParams", "torus_pd", "whitehead_pd", "whitehead_closed_form",
           "braid_closure"]


def _check_ints(what: str, *values) -> None:
    """Raise InputError unless every value is an ``int`` (not a ``bool``)."""
    for v in values:
        if type(v) is not int:
            raise InputError(f"{what} {v!r} is not an integer")


class _TorusPair(NamedTuple):
    p: int
    q: int


class TorusParams(_TorusPair):
    """Coprime nonzero pair (p, q) naming the torus knot T(p,q)."""

    __slots__ = ()

    def __new__(cls, p: int, q: int) -> TorusParams:
        self = super().__new__(cls, p, q)
        _check_ints("torus parameter", p, q)
        if p == 0 or q == 0:
            raise InputError(f"torus parameters must be nonzero, got {self}")
        if gcd(abs(p), abs(q)) != 1:
            raise InputError(f"torus parameters must be coprime, got {self}")
        return self

    @classmethod
    def _make(cls, iterable) -> TorusParams:
        # _replace builds through _make; both keep the checks above.
        return cls(*iterable)

    @property
    def is_unknot(self) -> bool:
        return abs(self.p) == 1 or abs(self.q) == 1


def _as_torus(t: TorusParams | tuple[int, int],
              unknot_error: str | None = None) -> TorusParams:
    """``t`` as TorusParams; with ``unknot_error``, the unknot raises
    InputError with that message."""
    t = t if isinstance(t, TorusParams) else TorusParams(*t)
    if unknot_error is not None and t.is_unknot:
        raise InputError(unknot_error)
    return t


def braid_closure(word: list[int], strands: int) -> Diagram:
    """Close a braid word into a knot diagram.

    Letters are nonzero integers: letter g crosses strands |g| and |g|+1
    (1-based positions), with the sign selecting the crossing chirality.
    The closure must be a single component or ValidationError is raised.
    """
    _check_ints("strand count", strands)
    if strands < 1:
        raise InputError("braid needs at least one strand")
    _check_ints("braid letter", *word)
    for g in word:
        if g == 0 or abs(g) >= strands:
            raise InputError(f"letter {g} invalid on {strands} strands")
    # Follow the strand that starts at position 1 up through the word, one
    # pass per trip round the closure.  At letter g it crosses when it is
    # at position |g| or |g|+1; for g > 0 the left strand passes over.
    # The closure is one component exactly when the strand needs all
    # ``strands`` passes to get back to position 1.
    walk = []
    pos = 1
    for passes in range(1, strands + 1):
        for key, g in enumerate(word):
            j = abs(g)
            if pos == j or pos == j + 1:
                walk.append((key, (pos == j) == (g > 0), 1 if g > 0 else -1))
                pos = 2 * j + 1 - pos       # swap sides
        if pos == 1:
            break
    if passes != strands:
        raise ValidationError("braid closure is not a single component")
    return diagram_from_walk(walk)


def torus_pd(t: TorusParams | tuple[int, int]) -> Diagram:
    """PD diagram of T(p,q) as a braid closure; |p| or |q| = 1 is the unknot."""
    t = _as_torus(t)
    if t.is_unknot:
        return Diagram.unknot()
    p, q = abs(t.p), abs(t.q)
    sign = 1 if t.p * t.q > 0 else -1
    return braid_closure([sign * g for g in range(1, p)] * q, p)


# Twist-region and clasp chirality per twist sign, pinned by the anchor
# values v2_v3(Wh(1)) = (1,1) and v2_v3(Wh(-2)) = (-2,1).
_WH_POSITIVE = (1, 1)
_WH_NEGATIVE = (-1, 1)


def _hook_diagram(m: int, s_ladder: int, s_clasp: int) -> Diagram:
    """Ladder of m same-sign crossings closed by a 2-crossing clasp.

    The knot runs up the ladder, through the clasp hook, back down the
    ladder, then sweeps around the outside through the clasp again.  The
    visit order of the final sweep depends on which side the hook descends,
    which alternates with the parity of m.
    """
    up = [("t", k) for k in range(1, m + 1)]
    down = [("t", k) for k in range(m, 0, -1)]
    c1, c2 = ("c", 1), ("c", 2)
    if m % 2 == 0:
        seq = up + [c1, c2] + down + [c2, c1]
    else:
        seq = up + [c1, c2] + down + [c1, c2]

    roles = {}
    for k in range(1, m + 1):
        roles[("t", k)] = (k % 2 == 1) == (s_ladder > 0)
    roles[c1] = s_clasp < 0
    roles[c2] = s_clasp > 0

    seen = set()
    walk = []
    for key in seq:
        # roles[key] is the over flag of the first visit.
        over = roles[key] != (key in seen)
        seen.add(key)
        walk.append((key, over, s_ladder if key[0] == "t" else s_clasp))
    return diagram_from_walk(walk)


def whitehead_pd(i: int) -> Diagram:
    """Diagram of the i-th twisted Whitehead double of the unknot: i full
    twists, negative i meaning -i negative twists.

    Emitted as drawn: 2|i| twist crossings plus the 2-crossing clasp,
    so i = 0 gives a 2-crossing diagram of the unknot.
    """
    _check_ints("Whitehead index", i)
    s_ladder, s_clasp = _WH_POSITIVE if i >= 0 else _WH_NEGATIVE
    return _hook_diagram(2 * abs(i), s_ladder, s_clasp)


def whitehead_closed_form(i: int) -> InvariantPair:
    """(v2, v3) of the i-th Whitehead double: (i, i(i+1)/2)."""
    _check_ints("Whitehead index", i)
    return InvariantPair(i, i * (i + 1) // 2)
