"""Reference Gauss-diagram sums: ``_chords`` and ``v2_v3`` as they stood
before ``v2_v3`` unpacked its chord rows in the loop headers, kept so the
tests can compare the two on diagrams above the bracket's cap, where the
Jones-derivative route of ``jones_oracle`` is out of reach.

The chords are four parallel tuples here, indexed per chord, and the
U_a O_b branch tests one three-part condition for both of its v3
patterns; the library's ``v2_v3`` reads one sorted list of row tuples
and splits that branch in two.
"""

from __future__ import annotations

from knotfish.diagram import Diagram
from knotfish.jones import InvariantPair


def _chords(d: Diagram):
    """The Gauss diagram of ``d`` based at the start of its walk: one chord
    per crossing, in order of first endpoint, as parallel tuples of first
    and last endpoint, whether the first visit passes under, and the
    crossing sign.

    Edge label e is the e-th visit, so a chord's endpoints are the labels
    of the crossing's in-edges: for crossing i, ``labels[4i]`` under, and
    ``labels[4i+1]`` (sign +1) or ``labels[4i+3]`` (sign -1) over.
    """
    labels, rows = d.labels, []
    for a, b, dd, s in zip(labels[0::4], labels[1::4], labels[3::4], d.signs):
        o = b if s > 0 else dd
        rows.append((a, o, True, s) if a < o else (o, a, False, s))
    rows.sort()
    return tuple(zip(*rows)) or ((), (), (), ())


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
