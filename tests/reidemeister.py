"""Random Reidemeister I and II moves on signed walks.

A move is spliced into the signed walk of a diagram (one (crossing key,
over flag, sign) entry per visit, as ``to_gauss`` gives it), and the
result is rebuilt by ``diagram_from_walk``, which validates it.  Knot
invariants must not change, so these moves give the invariant tests
diagrams that are not braid closures, with kinks and bigons anywhere.

- **R1** adds a kink: two visits of one new crossing in a row, one over
  and one under, with one sign.  All four choices of over flag and sign
  are planar, and the writhe moves by the sign.
- **R2** proposes a bigon: two new crossings with opposite signs, entered
  one after the other at walk position i, where one strand passes over
  both, and again at position j >= i, where the other strand passes
  under both.  Both orders at j are tried, and ``diagram_from_walk``
  rejects most proposals as not planar.  A planar one is a removable
  bigon: no other crossing lies on either of its two arcs, and at each
  corner the rest of the knot leaves away from the region the arcs bound.
  The writhe is unchanged.

R3 is not covered.
"""

from __future__ import annotations

from knotfish.diagram import Diagram, diagram_from_walk, to_gauss
from knotfish.errors import ValidationError


def kink(walk: list, pos: int, over: bool, sign: int, key) -> list:
    """R1: visit the new crossing ``key`` twice in a row at ``pos``."""
    return walk[:pos] + [(key, over, sign), (key, not over, sign)] + walk[pos:]


def bigon(walk: list, i: int, j: int, over: bool, sign: int, swap: bool,
          keys: tuple) -> list:
    """R2 proposal: the new crossings ``keys`` with signs ``sign`` and
    ``-sign``, visited in order at position i with over flag ``over``, and
    at position j >= i with the other flag, in reverse order if ``swap``."""
    k1, k2 = keys
    first = [(k1, over, sign), (k2, over, -sign)]
    second = [(k1, not over, sign), (k2, not over, -sign)]
    if swap:
        second.reverse()
    return walk[:i] + first + walk[i:j] + second + walk[j:]


def apply_moves(d: Diagram, moves) -> tuple[Diagram, int, int]:
    """Apply ``moves`` to ``d`` in turn: the moved diagram, the change of
    writhe the R1 moves make, and the number of R2 moves made.

    Each move is ``("R1", pos, over, sign)`` or ``("R2", i, j, over,
    sign)``; positions are taken modulo the length of the walk plus one.
    An R2 move takes the first planar order at j, and leaves the diagram
    as it was if neither is.
    """
    walk = list(to_gauss(d).entries)
    dw = accepted = 0
    for n, (kind, *args) in enumerate(moves):
        if kind == "R1":
            pos, over, sign = args
            walk = kink(walk, pos % (len(walk) + 1), over, sign, ("r1", n))
            dw += sign
            continue
        i, j, over, sign = args
        i, j = sorted((i % (len(walk) + 1), j % (len(walk) + 1)))
        for swap in (False, True):
            proposal = bigon(walk, i, j, over, sign, swap, (("r2", n, 0), ("r2", n, 1)))
            try:
                diagram_from_walk(proposal)
            except ValidationError:
                continue
            walk = proposal
            accepted += 1
            break
    return diagram_from_walk(walk), dw, accepted
