"""Kauffman bracket state sum, Jones normalization, and (v2, v3) by
Gauss-diagram formulas.

The bracket of a diagram with c crossings is summed over all 2^c
smoothings.  Each state contributes A^(a-b) * (-A^2 - A^-2)^(loops-1),
where a and b count the two smoothing types and loops is the number of
circles left after smoothing, counted by union-find over edge labels.
States are enumerated as bit masks; since the A-exponent depends only on
the popcount, states are histogrammed by (popcount, loops) and the
polynomial is assembled once at the end, expanding
  (-A^2 - A^-2)^m = (-1)^m sum_k C(m, k) A^(2m - 4k),   m = loops - 1.

``jones`` normalizes: it multiplies by (-A^3)^(-writhe) and divides every
exponent by -4, so the positive trefoil comes out as -q^4 + q^3 + q; with
the smoothing conventions of this module that pins the divisor to -4 (the
anchor test in the suite guards the choice), and an exponent it does not
divide is an ExactnessError.  The Jones polynomial is an output only:
``knotfish invariants`` prints it and takes (v2, v3) from ``v2_v3``.  The
derivative formulas
  v2 = -J''(1)/6        v3 = -(J'''(1) + 3 J''(1))/36
live in the tests (``tests/jones_oracle.py``) as the oracle for ``v2_v3``.

``v2_v3`` runs no state sum: it counts signed arrow subdiagrams of the
Gauss diagram (Polyak-Viro, "Gauss diagram formulas for Vassiliev
invariants", IMRN 1994).  The base point is the start of the orientation
walk; crossing i is a chord with sign e_i whose endpoints are its under
visit U_i and its over visit O_i.  Reading endpoints from the base point,
with chords a, b, c labelled in order of first appearance,
  v2 = sum of e_a e_b over the pairs spelling U_a O_b O_a U_b,
  v3 = sum of e_a e_b e_c over the triples spelling one of
       U_a U_b O_c O_a U_c O_b     U_a O_b U_c O_a U_b O_c
       U_a O_b O_c U_b O_a U_c     O_a U_b U_a O_c O_b U_c
       O_a U_b O_c U_a O_b U_c,
so v2 costs O(c^2) and v3 O(c^3).  The tests check both sums against
the Jones derivatives on random braid closures, their mirrors, connected
sums, Whitehead doubles and every rotation of the base point.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .diagram import Diagram, writhe
from .errors import CrossingLimitError, ExactnessError
from .laurent import LaurentPoly

__all__ = ["InvariantPair", "kauffman_bracket", "jones", "v2_v3", "arf",
           "DEFAULT_CROSSING_CAP"]

DEFAULT_CROSSING_CAP = 20


class InvariantPair(NamedTuple):
    """The integers (v2, v3) of a knot; unpacks as ``v2, v3 = pair``."""

    v2: int
    v3: int


def kauffman_bracket(d: Diagram, cap: int = DEFAULT_CROSSING_CAP) -> LaurentPoly:
    """Bracket polynomial in A by brute-force state sum.

    The unknot (no crossings) returns 1.  Raises CrossingLimitError above
    ``cap`` crossings (2^c states; raise the cap knowingly).
    """
    n = d.crossing_count
    if n and n > cap:
        raise CrossingLimitError(
            f"{n} crossings exceeds the state-sum cap of {cap}; "
            "raise the cap to proceed (2^c states)")
    if n == 0:
        return LaurentPoly({0: 1})
    ne = d.edge_count

    joins = []
    for c in d.crossings:
        a, b, cc, dd = (e - 1 for e in c.edges)
        # type-A smoothing joins (a,d) and (b,c); type-B joins (a,b) and (c,d)
        # (assignment calibrated against the trefoil anchor)
        joins.append(((a, dd, b, cc), (a, b, cc, dd)))

    hist: dict[tuple[int, int], int] = {}
    for mask in range(1 << n):
        parent = list(range(ne))
        loops = ne
        bits = mask
        for i in range(n):
            x, y, z, w = joins[i][bits & 1]
            bits >>= 1
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            while parent[y] != y:
                parent[y] = parent[parent[y]]
                y = parent[y]
            if x != y:
                parent[x] = y
                loops -= 1
            while parent[z] != z:
                parent[z] = parent[parent[z]]
                z = parent[z]
            while parent[w] != w:
                parent[w] = parent[parent[w]]
                w = parent[w]
            if z != w:
                parent[z] = w
                loops -= 1
        key = (mask.bit_count(), loops)
        hist[key] = hist.get(key, 0) + 1

    terms: dict[int, int] = {}
    for (b_count, loops), count in hist.items():
        m = loops - 1
        signed = -count if m % 2 else count
        for k in range(m + 1):
            e = n - 2 * b_count + 2 * m - 4 * k
            terms[e] = terms.get(e, 0) + signed * comb(m, k)
    return LaurentPoly(terms)


def jones(d: Diagram, cap: int = DEFAULT_CROSSING_CAP) -> LaurentPoly:
    """Jones polynomial in q, normalized so the unknot maps to 1."""
    w = writhe(d)
    sign = -1 if w % 2 else 1
    terms = {}
    for e, c in kauffman_bracket(d, cap).terms.items():
        q, rem = divmod(e - 3 * w, -4)
        if rem:
            raise ExactnessError(
                "normalized bracket exponents not divisible by 4; "
                "diagram is not a knot diagram or conventions are broken")
        terms[q] = sign * c
    return LaurentPoly(terms)


def _chords(d: Diagram):
    """The Gauss diagram of ``d`` based at the start of its walk: one chord
    per crossing, in order of first endpoint, as parallel lists of first
    and last walk positions, whether the first visit passes under, and the
    crossing sign."""
    first, last, under_first, sign = [], [], [], []
    slot = [-1] * d.crossing_count
    for pos, (i, over) in enumerate(d._visits):
        k = slot[i]
        if k < 0:
            slot[i] = len(first)
            first.append(pos)
            last.append(pos)
            under_first.append(not over)
            sign.append(d.crossings[i].sign)
        else:
            last[k] = pos
    return first, last, under_first, sign


def v2_v3(d: Diagram) -> InvariantPair:
    """The Vassiliev invariants (v2, v3) by Gauss-diagram formulas.

    Counts the signed arrow subdiagrams listed in the module docstring;
    no state sum runs, so there is no crossing cap.
    """
    first, last, under_first, sign = _chords(d)
    n = len(first)
    v2 = v3 = 0
    # Chords a < b < c are in order of first endpoint.  In every pattern
    # b starts before a ends and c starts before b ends, so both inner
    # loops stop at the first chord that starts too late.
    for a in range(n):
        la, ua, sa = last[a], under_first[a], sign[a]
        for b in range(a + 1, n):
            if first[b] > la:
                break
            lb, ub, sab = last[b], under_first[b], sa * sign[b]
            if ua and ub:
                if la < lb:
                    # U_a U_b O_c O_a U_c O_b
                    for c in range(b + 1, n):
                        if first[c] > la:
                            break
                        if not under_first[c] and la < last[c] < lb:
                            v3 += sab * sign[c]
            elif ua:
                if la < lb:
                    v2 += sab           # U_a O_b O_a U_b
                # U_a O_b U_c O_a U_b O_c  and  U_a O_b O_c U_b O_a U_c
                end, c_under = min(la, lb), la < lb
                for c in range(b + 1, n):
                    if first[c] > end:
                        break
                    lc = last[c]
                    if lc > la and lc > lb and under_first[c] == c_under:
                        v3 += sab * sign[c]
            elif ub and la < lb:
                # O_a U_b U_a O_c O_b U_c  and  O_a U_b O_c U_a O_b U_c
                for c in range(b + 1, n):
                    if first[c] > lb:
                        break
                    if not under_first[c] and last[c] > lb:
                        v3 += sab * sign[c]
    return InvariantPair(v2, v3)


def arf(pair: InvariantPair) -> int:
    """Arf invariant: v2 reduced modulo two (nonnegative residue)."""
    return pair.v2 % 2
