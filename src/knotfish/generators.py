"""Diagram constructors for the parameterized knot families.

Torus knots are built as braid closures of (s1 s2 ... s_{p-1})^q with
strands left to right, generators stacked bottom to top, and closure
arcs on the right; edge labels come from a single orientation walk.
Twisted Whitehead doubles of the unknot are built as a 2-crossing clasp
hooked over an antiparallel ladder of 2|i| same-sign twist crossings.

Both families carry a chirality convention that a picture cannot pin
down; each is calibrated against anchor values (T(2,3) and the i = 1,
-1 doubles) and hard-coded here.  The anchor tests guard the choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import gcd

from .diagram import Diagram, diagram_from_visits, mirror, renamed
from .errors import InputError, ValidationError
from .jones import InvariantPair

__all__ = ["TorusParams", "WhiteheadIndex", "torus_pd", "whitehead_pd",
           "whitehead_closed_form", "braid_closure"]


@dataclass(frozen=True)
class TorusParams:
    """Coprime nonzero pair (p, q) naming the torus knot T(p,q)."""

    p: int
    q: int

    def __post_init__(self):
        if self.p == 0 or self.q == 0:
            raise InputError(f"torus parameters must be nonzero, got {self}")
        if gcd(abs(self.p), abs(self.q)) != 1:
            raise InputError(f"torus parameters must be coprime, got {self}")

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


@dataclass(frozen=True)
class WhiteheadIndex:
    """Number of full twists; negative i means -i negative twists."""

    i: int


def braid_closure(word: list[int], strands: int,
                  name: str | None = None) -> Diagram:
    """Close a braid word into a knot diagram.

    Letters are nonzero integers: letter g crosses strands |g| and |g|+1
    (1-based positions), with the sign selecting the crossing chirality.
    The closure must be a single component or ValidationError is raised.
    """
    if strands < 1:
        raise InputError("braid needs at least one strand")
    for g in word:
        if g == 0 or abs(g) >= strands:
            raise InputError(f"letter {g} invalid on {strands} strands")
    if not word:
        if strands == 1:
            return Diagram.unknot(name)
        raise ValidationError("empty word on several strands closes to a link")
    touched = set()
    for g in word:
        touched.update((abs(g) - 1, abs(g)))
    if touched != set(range(strands)):
        raise ValidationError(
            "some strand is never crossed; the closure is a split link")

    # Wires are abstract arc ids; each letter consumes the two wires at its
    # positions and produces two fresh ones.
    fresh = count().__next__
    bottom = [fresh() for _ in range(strands)]
    cur = list(bottom)
    crossings = []
    for g in word:
        j = abs(g)
        u, v = cur[j - 1], cur[j]
        x, y = fresh(), fresh()
        cur[j - 1], cur[j] = x, y
        if g > 0:
            # right strand passes under: under v->x, over u->y
            crossings.append((v, x, u, y, 1))
        else:
            crossings.append((u, y, v, x, -1))

    # Closure identifies each top wire with its bottom wire.
    alias = {}
    for top, bot in zip(cur, bottom):
        alias[top] = bot

    def canon(w):
        while w in alias:
            w = alias[w]
        return w

    enter = {}
    cont = {}
    signs = {}
    for key, (u_in, u_out, o_in, o_out, sign) in enumerate(crossings):
        enter[canon(u_in)] = (key, False)
        enter[canon(o_in)] = (key, True)
        cont[(key, False)] = canon(u_out)
        cont[(key, True)] = canon(o_out)
        signs[key] = sign

    start = canon(bottom[0])
    visits = []
    wire = start
    for _ in range(2 * len(word)):
        visit = enter[wire]
        visits.append(visit)
        wire = cont[visit]
    if wire != start or len({k for k, _ in visits}) != len(word):
        raise ValidationError("braid closure is not a single component")
    return diagram_from_visits(visits, signs, name)


def torus_pd(t: TorusParams | tuple[int, int]) -> Diagram:
    """PD diagram of T(p,q) as a braid closure; |p| or |q| = 1 is the unknot."""
    t = _as_torus(t)
    name = f"T({t.p},{t.q})"
    if t.is_unknot:
        return Diagram.unknot(name)
    p, q = abs(t.p), abs(t.q)
    word = list(range(1, p)) * q
    d = braid_closure(word, p, name)
    if t.p * t.q < 0:
        d = renamed(mirror(d), name)
    return d


# Twist-region and clasp chirality per twist sign, pinned by the anchor
# values v2_v3(Wh(1)) = (1,1) and v2_v3(Wh(-2)) = (-2,1).
_WH_POSITIVE = (1, 1)
_WH_NEGATIVE = (-1, 1)


def _hook_diagram(m: int, s_ladder: int, s_clasp: int,
                  name: str | None = None) -> Diagram:
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

    first_seen = set()
    visits = []
    for key in seq:
        if key in first_seen:
            visits.append((key, not roles[key]))
        else:
            first_seen.add(key)
            visits.append((key, roles[key]))

    signs = {key: (s_ladder if key[0] == "t" else s_clasp)
             for key in first_seen}
    return diagram_from_visits(visits, signs, name)


def whitehead_pd(w: WhiteheadIndex | int) -> Diagram:
    """Diagram of the i-th twisted Whitehead double of the unknot.

    Emitted as drawn: 2|i| twist crossings plus the 2-crossing clasp,
    so i = 0 gives a 2-crossing diagram of the unknot.
    """
    i = w.i if isinstance(w, WhiteheadIndex) else int(w)
    s_ladder, s_clasp = _WH_POSITIVE if i >= 0 else _WH_NEGATIVE
    return _hook_diagram(2 * abs(i), s_ladder, s_clasp, name=f"Wh({i})")


def whitehead_closed_form(w: WhiteheadIndex | int) -> InvariantPair:
    """(v2, v3) of the i-th Whitehead double: (i, i(i+1)/2)."""
    i = w.i if isinstance(w, WhiteheadIndex) else int(w)
    return InvariantPair(i, i * (i + 1) // 2)
