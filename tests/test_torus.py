from fractions import Fraction
from math import gcd, sqrt

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from knotfish.errors import (ComputationError, ConditionError, InputError,
                             NoIntegerRootError)
from knotfish.generators import whitehead_closed_form
from knotfish.jones import InvariantPair
from knotfish.torus import (check_crossing_bounds, check_crossing_quartic,
                            check_cubic_bounds, check_unknotting_bounds,
                            crossing_recovery, pseudo_invariants, rho,
                            torus_crossing, torus_report, torus_unknotting,
                            torus_v2v3, torus_curve_samples,
                            unknotting_from_invariants)


def coprime_pairs(limit=25):
    return [(p, q) for p in range(2, limit + 1) for q in range(p + 1, limit + 1)
            if gcd(p, q) == 1]


def test_closed_forms():
    assert tuple(torus_v2v3((2, 3))) == (1, 1)
    assert tuple(torus_v2v3((2, 5))) == (3, 5)
    assert tuple(torus_v2v3((2, 7))) == (6, 14)
    assert tuple(torus_v2v3((3, 4))) == (5, 10)


def test_torus_unknotting_values():
    assert torus_unknotting((2, 3)) == 1
    assert torus_unknotting((3, 4)) == 3
    assert torus_unknotting((2, 1)) == 0


def test_torus_crossing_values():
    assert torus_crossing((2, 3)) == 3
    assert torus_crossing((3, 5)) == 10
    assert torus_crossing((4, 3)) == 8
    with pytest.raises(InputError):
        torus_crossing((2, 1))


def test_cubic_bounds_examples():
    r = check_cubic_bounds(InvariantPair(1, 1))
    assert r.all_hold and r.lower1_equality and r.upper_equality and r.lower2_equality
    assert check_cubic_bounds(InvariantPair(3, 5)).upper_equality
    assert check_cubic_bounds(InvariantPair(5, 10)).lower2_equality
    # mirrored pair: bounds hold, consecutive-family equality is chirality-bound
    m = check_cubic_bounds(InvariantPair(1, -1))
    assert m.all_hold and not m.lower2_equality


def test_unknotting_from_invariants():
    assert unknotting_from_invariants(InvariantPair(1, 1)) == 1
    assert unknotting_from_invariants(InvariantPair(5, 10)) == 3
    with pytest.raises(NoIntegerRootError):
        unknotting_from_invariants(InvariantPair(0, 0))
    with pytest.raises(NoIntegerRootError):
        unknotting_from_invariants(InvariantPair(-1, 0))   # not a torus pair


def test_unknotting_bounds_examples():
    r = check_unknotting_bounds((2, 3))
    assert r.all_hold and r.left_equality and r.right_equality
    assert check_unknotting_bounds((2, 7)).left_equality
    assert check_unknotting_bounds((3, 4)).right_equality


def test_rho():
    assert rho(InvariantPair(1, 1)) == 6
    assert rho(InvariantPair(5, 10)) == 12
    with pytest.raises(ComputationError):
        rho(InvariantPair(0, 0))


def test_crossing_recovery_exact():
    assert crossing_recovery(InvariantPair(1, 1)) == 3
    assert crossing_recovery(InvariantPair(5, 10)) == 8
    assert crossing_recovery(InvariantPair(3, 5)) == 5
    assert isinstance(crossing_recovery(InvariantPair(1, 1)), int)


def test_crossing_quartic():
    assert check_crossing_quartic((2, 3))
    assert check_crossing_quartic((3, 4))
    assert check_crossing_quartic((2, 5))


def test_crossing_bounds_examples():
    assert check_crossing_bounds((2, 7)).left_equality
    assert check_crossing_bounds((3, 4)).right_equality
    r = check_crossing_bounds((3, 5))
    assert r.all_hold and not r.left_equality and not r.right_equality


def test_crossing_corollary_derived_constants_fix_printed_failure():
    # printed form fails already on T(2,3): (sqrt(121)-5)/24 = 0.25 < 3
    v2 = 1
    assert (sqrt(25 + 96 * v2) - 5) / 24 < 3
    r = check_crossing_bounds((2, 3))
    assert r.corollary_adjusted
    assert r.corollary_left_holds and r.corollary_right_holds
    assert r.corollary_right_equality


def test_pseudo_invariants_examples():
    assert pseudo_invariants(InvariantPair(1, 1)) == (1, 3)
    assert pseudo_invariants(InvariantPair(5, 10)) == (3, 8)
    with pytest.raises(ComputationError):
        pseudo_invariants(InvariantPair(0, 0))
    with pytest.raises(ConditionError):
        pseudo_invariants(InvariantPair(2, 1))   # (6-2)^2 < 24*8


def test_pseudo_unknotting_on_whitehead_family():
    values = []
    for i in [1, 2, 3, 5, 10, 50, 100, 1000, 10 ** 4, 10 ** 5, 10 ** 6]:
        u_t, _ = pseudo_invariants(whitehead_closed_form(i))
        values.append(float(u_t))
    assert values[0] == 1.0
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(1.0 <= v < 2.0 for v in values)
    assert values[-1] > 1.99


def test_proposition_sweep_exact():
    seen = {}
    for p, q in coprime_pairs(25):
        rep = torus_report((p, q))
        assert rep.consistent, (p, q)
        # equality classes land exactly on the proof-stated families
        assert rep.cubic.upper_equality == (p == 2), (p, q)
        assert rep.cubic.lower2_equality == (q == p + 1), (p, q)
        assert rep.cubic.lower1_equality == ((p, q) == (2, 3)), (p, q)
        assert rep.unknotting_bounds.left_equality == (p == 2), (p, q)
        assert rep.unknotting_bounds.right_equality == (q == p + 1), (p, q)
        assert rep.crossing_bounds.left_equality == (p == 2), (p, q)
        assert rep.crossing_bounds.right_equality == (q == p + 1), (p, q)
        assert rep.unknotting_bounds.corollary_left_equality == (p == 2), (p, q)
        assert rep.crossing_bounds.corollary_right_equality == (p == 2), (p, q)
        pair = tuple(rep.invariants)
        assert pair not in seen, f"injectivity: {(p, q)} vs {seen.get(pair)}"
        seen[pair] = (p, q)


def test_sweep_mirrors_and_sign_variants():
    for p, q in coprime_pairs(12):
        base = torus_v2v3((p, q))
        for variant, expect in [((q, p), (base.v2, base.v3)),
                                ((-p, -q), (base.v2, base.v3)),
                                ((p, -q), (base.v2, -base.v3)),
                                ((-p, q), (base.v2, -base.v3))]:
            assert tuple(torus_v2v3(variant)) == expect
        mirrored = InvariantPair(base.v2, -base.v3)
        assert check_cubic_bounds(mirrored).all_hold
        assert unknotting_from_invariants(mirrored) == torus_unknotting((p, q))
        assert crossing_recovery(mirrored) == torus_crossing((p, q))
        assert pseudo_invariants(mirrored) == (torus_unknotting((p, q)),
                                               torus_crossing((p, q)))


def test_curve_samples_unknotting():
    assert torus_curve_samples("unknotting", 1, 2) == (
        [(1.0, 1.0), (1.0, 1.0)], [(1.0, -1.0), (1.0, -1.0)])
    plus, minus = torus_curve_samples("unknotting", 3, 5)
    assert minus == [(x, -y) for x, y in plus]
    xs = [x for x, _ in plus]
    assert len(xs) == 5
    assert xs[0] == pytest.approx(5.0)
    assert xs[-1] == pytest.approx(6.0)
    # endpoints are T(3,4) -> (5, 10) and T(2,7) -> (6, 14)
    assert plus[0][1] == pytest.approx(10.0)
    assert plus[4][1] == pytest.approx(14.0)


def test_curve_samples_crossing():
    plus, minus = torus_curve_samples("crossing", 3, 4)
    assert len(plus) == len(minus) == 4
    for x, y in plus + minus:
        assert x == pytest.approx(1.0)
        assert abs(y) == pytest.approx(1.0)
    plus, minus = torus_curve_samples("crossing", 8, 3)
    assert minus == [(x, -y) for x, y in plus]
    assert plus[0][0] == pytest.approx((8 ** 2 - 1) / 8)   # p=2 endpoint
    assert plus[2][0] == pytest.approx(5.0)                # q=p+1 endpoint: T(3,4)
    assert plus[2][1] == pytest.approx(10.0)


def test_curve_samples_lattice_points_lie_on_curve():
    for p, q in [(2, 3), (2, 5), (3, 4), (2, 7), (3, 5), (4, 5)]:
        pair = torus_v2v3((p, q))
        u = torus_unknotting((p, q))
        v2, v3 = Fraction(pair.v2), Fraction(abs(pair.v3))
        assert v3 == v2 * v2 / u + Fraction(u - 1, 6) * v2


def test_curve_samples_invalid():
    with pytest.raises(InputError):
        torus_curve_samples("unknotting", 0, 5)
    with pytest.raises(InputError):
        torus_curve_samples("unknotting", 1, 1)
    with pytest.raises(InputError):
        torus_curve_samples("crossing", 2, 5)
    with pytest.raises(InputError):
        torus_curve_samples("nope", 1, 5)


def _torus_pair(pq, mirrored):
    pair = torus_v2v3(pq)
    return InvariantPair(pair.v2, -pair.v3 if mirrored else pair.v3)


# Integer pairs near the origin, plus torus pairs and their mirrors so that
# the recovery formulas also return (most small pairs make them raise).
_coprime = st.tuples(st.integers(2, 30), st.integers(3, 60)).filter(
    lambda t: t[0] < t[1] and gcd(*t) == 1)
_pairs = st.one_of(
    st.builds(InvariantPair, st.integers(-60, 60), st.integers(-400, 400)),
    st.builds(_torus_pair, _coprime, st.booleans()))


def _outcome(f, pair):
    try:
        return f(pair)
    except ComputationError:
        return None


@given(_pairs)
def test_pseudo_crossing_is_crossing_recovery(pair):
    pseudo = _outcome(pseudo_invariants, pair)
    if pseudo is not None:
        c = crossing_recovery(pair)
        assert pseudo[1] == c and type(pseudo[1]) is type(c)


@given(_pairs)
@example(InvariantPair(16, 256))    # (rho-1)^2 - 24 v2 = 8641 is not a square
def test_unknotting_recovery_is_pseudo_unknotting(pair):
    u = _outcome(unknotting_from_invariants, pair)
    pseudo = _outcome(pseudo_invariants, pair)
    if u is not None and pseudo is not None:
        assert u == pseudo[0] and type(pseudo[0]) is int
