import pytest
from hypothesis import given, settings

import gauss_oracle
from conftest import (TREFOIL_GAUSS, TREFOIL_PD, count_bracket_calls,
                      jones_module, knot_braids)
from jones_oracle import pair_from_jones
from knotfish.diagram import (Diagram, connect_sum, diagram_from_walk,
                              mirror, parse_gauss, parse_pd, to_gauss, writhe)
from knotfish.errors import CrossingLimitError, ExactnessError
from knotfish.generators import braid_closure, torus_pd, whitehead_pd
from knotfish.jones import (InvariantPair, arf, jones, kauffman_bracket,
                            v2_v3)
from knotfish.laurent import LaurentPoly
from knotfish.torus import torus_v2v3


def bracket_oracle(d):
    """Independent bracket: per-state circles counted as connected
    components of the dart graph (edge gluings plus smoothing arcs),
    found by breadth-first search over frozen sets; polynomial assembled
    with plain dicts.  Shares nothing with the engine but the smoothing
    convention."""
    n = d.crossing_count
    if n == 0:
        return {0: 1}
    glue = {}
    occurrences = {}
    for dart, e in enumerate(d.labels):     # slot s of crossing i
        occurrences.setdefault(e, []).append(divmod(dart, 4))
    for pair in occurrences.values():
        glue[pair[0]] = pair[1]
        glue[pair[1]] = pair[0]

    poly = {}
    for mask in range(2 ** n):
        arcs = {}
        for i in range(n):
            if (mask >> i) & 1:          # B: (a,b), (c,d)
                pairs = (((i, 0), (i, 1)), ((i, 2), (i, 3)))
            else:                        # A: (a,d), (b,c)
                pairs = (((i, 0), (i, 3)), ((i, 1), (i, 2)))
            for u, v in pairs:
                arcs[u] = v
                arcs[v] = u
        unseen = set(arcs)
        circles = 0
        while unseen:
            circles += 1
            stack = [next(iter(unseen))]
            while stack:
                dart = stack.pop()
                if dart not in unseen:
                    continue
                unseen.discard(dart)
                stack.append(arcs[dart])
                stack.append(glue[dart])
        b = bin(mask).count("1")
        exponent = (n - b) - b
        contrib = {0: 1}
        for _ in range(circles - 1):
            nxt = {}
            for e, c in contrib.items():
                nxt[e + 2] = nxt.get(e + 2, 0) - c
                nxt[e - 2] = nxt.get(e - 2, 0) - c
            contrib = nxt
        for e, c in contrib.items():
            key = e + exponent
            poly[key] = poly.get(key, 0) + c
    return {e: c for e, c in poly.items() if c}


def jones_from_oracle(d):
    """The oracle's bracket times (-A^3)^(-writhe), read in q = A^(-4)."""
    w = writhe(d)
    sign = -1 if w % 2 else 1
    out = {}
    for e, c in bracket_oracle(d).items():
        assert (e - 3 * w) % 4 == 0
        out[(e - 3 * w) // -4] = sign * c
    return out


FIG8_PD = "PD[X(1,7,2,6),X(5,3,6,2),X(3,8,4,1),X(7,4,8,5)]"

ORACLE_DIAGRAMS = pytest.mark.parametrize("build", [
    lambda: parse_pd(TREFOIL_PD),
    lambda: parse_pd(FIG8_PD),
    lambda: parse_pd("PD[X(1,2,2,1)]"),
    lambda: parse_pd("PD[X(1,1,2,2)]"),
    lambda: torus_pd((2, 5)),
    lambda: torus_pd((3, 4)),
    lambda: whitehead_pd(2),
    lambda: whitehead_pd(-2),
    lambda: mirror(torus_pd((2, 5))),
], ids=["trefoil", "fig8", "kink+", "kink-", "T25", "T34", "Wh2", "Wh-2",
        "mirrorT25"])


@ORACLE_DIAGRAMS
def test_bracket_matches_independent_oracle(build):
    d = build()
    assert kauffman_bracket(d).terms == bracket_oracle(d)


@ORACLE_DIAGRAMS
def test_cached_jones_matches_oracle(build):
    d = build()
    assert jones(d).terms == jones_from_oracle(d)


def test_trefoil_bracket_frozen():
    # 2^3 states collapse to three terms
    br = kauffman_bracket(parse_pd(TREFOIL_PD))
    assert br.terms == {5: -1, -3: -1, -7: 1}
    assert len(br) == 3


def test_unknot_bracket_and_jones():
    assert kauffman_bracket(Diagram.unknot()).terms == {0: 1}
    assert jones(Diagram.unknot()).terms == {0: 1}


def test_trefoil_jones_anchor():
    assert jones(parse_pd(TREFOIL_PD)).terms == {4: -1, 3: 1, 1: 1}
    assert str(jones(parse_pd(TREFOIL_PD))) == "-q^4 + q^3 + q"


def test_fig8_jones_palindromic():
    j = jones(parse_pd(FIG8_PD))
    assert j.terms == {2: 1, 1: -1, 0: 1, -1: -1, -2: 1}
    assert len(j) == 5
    assert j.terms == {-e: c for e, c in j.terms.items()}


def test_v2_v3_anchors():
    assert tuple(v2_v3(parse_pd(TREFOIL_PD))) == (1, 1)
    assert tuple(v2_v3(parse_pd(FIG8_PD))) == (-1, 0)
    assert tuple(v2_v3(Diagram.unknot())) == (0, 0)


def test_mirror_flips_v3_only():
    for d in (parse_pd(TREFOIL_PD), parse_pd(FIG8_PD), whitehead_pd(3)):
        v = v2_v3(d)
        assert tuple(v2_v3(mirror(d))) == (v.v2, -v.v3)


def test_arf():
    assert arf(InvariantPair(1, 1)) == 1
    assert arf(InvariantPair(0, 0)) == 0
    assert arf(InvariantPair(-1, 0)) == 1


def test_reidemeister_one_invariance():
    kink = parse_pd("PD[X(1,2,2,1)]")
    assert jones(kink).terms == {0: 1}
    t = parse_pd(TREFOIL_PD)
    assert jones(connect_sum(t, kink)) == jones(t)


def test_gauss_and_pd_presentations_agree():
    assert jones(parse_gauss(TREFOIL_GAUSS)) == jones(parse_pd(TREFOIL_PD))


def test_diagram_independence_torus_vs_table():
    assert v2_v3(torus_pd((2, 3))) == v2_v3(parse_pd(TREFOIL_PD))


def test_connect_sum_additivity_and_multiplicativity():
    t = parse_pd(TREFOIL_PD)
    f = parse_pd(FIG8_PD)
    s = connect_sum(t, f)
    assert tuple(v2_v3(s)) == (0, 1)
    assert jones(s) == jones(t) * jones(f)
    tt = connect_sum(t, t)
    assert tuple(v2_v3(tt)) == (2, 2)
    assert kauffman_bracket(tt) == kauffman_bracket(t) * kauffman_bracket(t)


def test_crossing_cap():
    d = torus_pd((2, 5))
    with pytest.raises(CrossingLimitError, match="cap") as bracket_error:
        kauffman_bracket(d, cap=4)
    assert str(bracket_error.value) == (
        "5 crossings exceeds the state-sum cap of 4; "
        "raise the cap to proceed (2^c states)")
    with pytest.raises(CrossingLimitError, match="cap") as error:
        jones(d, cap=4)
    assert str(error.value) == str(bracket_error.value)
    assert kauffman_bracket(parse_pd("PD[]"), cap=0) == LaurentPoly({0: 1})


def test_state_sum_runs_once_per_diagram(monkeypatch):
    calls = count_bracket_calls(monkeypatch)
    d = torus_pd((3, 4))
    assert tuple(v2_v3(d)) == (5, 10)
    assert calls == []
    jones(d)
    assert calls == [8]


def test_failed_call_caches_nothing(monkeypatch):
    d = torus_pd((2, 5))
    with pytest.raises(CrossingLimitError):
        jones(d, cap=4)
    # a bracket whose exponents cannot be normalized
    monkeypatch.setattr(jones_module, "kauffman_bracket",
                        lambda d, *args: LaurentPoly({1: 1}))
    with pytest.raises(ExactnessError) as error:
        jones(d)
    assert str(error.value) == (
        "normalized bracket exponents not divisible by 4; "
        "diagram is not a knot diagram or conventions are broken")
    monkeypatch.undo()
    calls = count_bracket_calls(monkeypatch)
    assert tuple(v2_v3(d)) == (3, 5)
    assert jones(d).terms == jones_from_oracle(d)
    assert calls == [5]


def assert_matches_jones_route(d):
    """v2_v3 equals the Jones derivatives on ``d`` and on every rotation
    of its Gauss code, i.e. from every base point."""
    expected = pair_from_jones(jones(d))
    assert v2_v3(d) == expected
    entries = to_gauss(d).entries
    for k in range(1, len(entries)):
        rotated = diagram_from_walk(entries[k:] + entries[:k])
        assert v2_v3(rotated) == expected, k


@settings(deadline=None, max_examples=40)
@given(knot_braids())
def test_gauss_formulas_match_jones_on_braid_closures(braid):
    d = braid_closure(*braid)
    assert_matches_jones_route(d)
    assert_matches_jones_route(mirror(d))


@settings(deadline=None, max_examples=15)
@given(knot_braids(max_letters=8), knot_braids(max_letters=7))
def test_gauss_formulas_match_jones_on_connected_sums(first, second):
    assert_matches_jones_route(connect_sum(braid_closure(*first),
                                           braid_closure(*second)))


def large_knot_braids():
    """3-4-strand knot braids of 21-40 letters, above the bracket's cap."""
    return knot_braids(max_letters=40, min_letters=21, min_strands=3)


@settings(deadline=None, max_examples=20)
@given(large_knot_braids(), large_knot_braids())
def test_gauss_formulas_above_the_bracket_cap(first, second):
    """Where the state sum is out of reach, v2_v3 still obeys relations
    that do not go through it: v3 changes sign under mirroring, both
    invariants add under connected sum, and neither depends on the base
    point.  Each value also equals the indexed ``v2_v3`` kept in
    ``gauss_oracle``."""
    d, e = braid_closure(*first), braid_closure(*second)
    assert d.crossing_count > 20 and e.crossing_count > 20
    (v2, v3), (w2, w3) = v2_v3(d), v2_v3(e)
    s = connect_sum(d, e)
    assert v2_v3(s) == (v2 + w2, v3 + w3) == gauss_oracle.v2_v3(s)
    for f, pair in ((d, (v2, v3)), (mirror(d), (v2, -v3))):
        entries = to_gauss(f).entries
        for k in range(len(entries)):
            rotated = diagram_from_walk(entries[k:] + entries[:k])
            assert v2_v3(rotated) == pair == gauss_oracle.v2_v3(rotated), k


@pytest.mark.parametrize("i", range(-6, 7))
def test_gauss_formulas_match_jones_on_whitehead_doubles(i):
    assert_matches_jones_route(whitehead_pd(i))


@pytest.mark.parametrize("pq", [(3, 8), (4, 7), (5, 6), (2, 61), (7, 16), (11, 12)])
def test_gauss_formulas_match_torus_closed_form_on_large_knots(pq):
    assert v2_v3(torus_pd(pq)) == torus_v2v3(pq)


def test_jones_is_a_laurent_poly():
    assert isinstance(jones(parse_pd(TREFOIL_PD)), LaurentPoly)
