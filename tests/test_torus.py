from decimal import Decimal, localcontext
from fractions import Fraction
from hashlib import sha256
from math import gcd, sqrt

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from knotfish.errors import (ComputationError, ConditionError, InputError,
                             NoIntegerRootError)
from knotfish.generators import whitehead_closed_form
from knotfish.jones import InvariantPair
from knotfish.torus import _TORUS_PAIRS_LIMIT, _torus_pairs
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


def test_unknotting_curve_spans_its_v2_range_for_every_u():
    """The v2 range [u(u + sqrt(8u+1) + 2)/6, u(u+1)/2] is never empty:
    hi - lo = u(2u + 1 - sqrt(8u+1))/6, and (2u+1)^2 - (8u+1) = 4u(u-1) >= 0."""
    for u in range(1, 301):
        xs = [x for x, _ in torus_curve_samples("unknotting", u, 7)[0]]
        assert xs[0] == pytest.approx(u * (u + sqrt(8 * u + 1) + 2) / 6, rel=1e-9)
        assert xs[-1] == pytest.approx(u * (u + 1) / 2, rel=1e-9)
        assert all(a <= b for a, b in zip(xs, xs[1:]))


def test_curve_samples_invalid():
    with pytest.raises(InputError):
        torus_curve_samples("unknotting", 0, 5)
    with pytest.raises(InputError):
        torus_curve_samples("unknotting", 1, 1)
    with pytest.raises(InputError):
        torus_curve_samples("crossing", 2, 5)
    for mode in ("nope", "u", "c"):
        with pytest.raises(InputError):
            torus_curve_samples(mode, 1, 5)


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


def test_cubic_bounds_match_their_fraction_forms():
    """check_cubic_bounds compares integers scaled by 9; on a grid its
    verdicts equal the printed bounds taken in Fractions."""
    third = Fraction(1, 3)
    for v2 in range(-12, 40):
        for v3 in range(-300, 301, 5):
            sq = Fraction(v3 * v3)
            lower1 = 2 * third * v2 ** 3 + third * v2 ** 2
            upper = Fraction(8, 9) * v2 ** 3 + Fraction(1, 9) * v2 ** 2
            lower2 = 2 * third * v2 ** 3 + third * v2 * v3
            assert tuple(check_cubic_bounds(InvariantPair(v2, v3))) == (
                lower1 <= sq, sq <= upper, lower2 <= sq,
                lower1 == sq, sq == upper, lower2 == sq), (v2, v3)


def _recovery_outcomes(pairs):
    """What crossing_recovery and pseudo_invariants give on each pair: the
    repr of the value (3 and 3.0 differ) or the error class and message."""
    lines = []
    for pair in pairs:
        for f in (crossing_recovery, pseudo_invariants):
            try:
                lines.append(repr(f(pair)))
            except ComputationError as exc:
                lines.append(f"{type(exc).__name__}: {exc}")
    return "\n".join(lines)


def test_recovery_outcomes_are_pinned_on_a_grid():
    """Every value, type, error class and message of the two recoveries on
    |v2| <= 24, |v3| <= 150 and on the torus pairs p < q <= 40 and their
    mirrors, pinned by digest."""
    pairs = [InvariantPair(v2, v3)
             for v2 in range(-24, 25) for v3 in range(-150, 151)]
    for p in range(2, 40):
        for q in range(p + 1, 41):
            if gcd(p, q) == 1:
                pairs += [_torus_pair((p, q), False), _torus_pair((p, q), True)]
    digest = sha256(_recovery_outcomes(pairs).encode()).hexdigest()
    assert digest == ("2bdf363a7209653049ef4a33cc766dbc"
                      "8fa22604fb2b94ce28298371f72e8b53")


def _decimal_recovery(pair):
    """(u~, c~) in 150-digit decimal arithmetic: an independent reference
    for the once-rounded recoveries."""
    with localcontext() as ctx:
        ctx.prec = 150
        v2 = Decimal(pair.v2)
        r = abs(Decimal(6 * pair.v3) / v2)
        s_plus = ((r + 1) ** 2 - 24 * v2).sqrt()
        s_minus = ((r - 1) ** 2 - 24 * v2).sqrt()
        return (1 + r - s_plus) / 2, r - (s_minus + s_plus) / 2


def test_recoveries_are_correctly_rounded():
    """On a sample of the pinned grid and on large pairs, where rho cancels
    against roots of almost its size: an int is the exact value, and a
    float is the nearest float to the value."""
    pairs = [InvariantPair(v2, v3)
             for v2 in range(-24, 25, 2) for v3 in range(-150, 151, 3)]
    pairs += [InvariantPair(v2, v3) for v2 in (1, 3, 7, 16, 25)
              for v3 in (10 ** 8, 10 ** 20, 10 ** 40 + 1, -10 ** 60)]
    # rho = 0 and |v2| large: the roots are carried as ints, yet are not exact
    pairs += [InvariantPair(-10 ** k, v3) for k in (30, 45, 60) for v3 in (0, 1)]
    assert pseudo_invariants(InvariantPair(7, 10 ** 20)) == (4.9e-19, 9.8e-19)
    assert pseudo_invariants(InvariantPair(3, 10 ** 8)) == (
        8.999999955000005e-08, 1.8000000000000008e-07)       # 9e-08, 1.8e-07
    checked = 0
    for pair in pairs:
        got = _outcome(pseudo_invariants, pair)
        if got is None:
            continue
        assert crossing_recovery(pair) == got[1]
        for value, ref in zip(got, _decimal_recovery(pair)):
            if type(value) is int:
                assert value == ref, (pair, value, ref)
            else:
                assert type(value) is float and value == float(ref), (pair, value, ref)
                checked += 1
    assert checked > 1000


def test_recovery_beyond_the_float_range_is_a_computation_error():
    for f in (crossing_recovery, pseudo_invariants):
        with pytest.raises(ComputationError) as info:
            f(InvariantPair(-10 ** 700, 0))
        assert str(info.value) == "recovered value too large for a float"


def test_torus_pairs_match_the_linear_search():
    """Looping p - 1 to isqrt(n) finds what looping it to n finds."""
    for n in range(1, 3001):
        divisors = [a for a in range(1, n + 1) if n % a == 0]
        for shift in (0, 1):
            linear = [(a + 1, n // a + shift) for a in divisors
                      if a + 1 < n // a + shift and gcd(a + 1, n // a + shift) == 1]
            assert list(_torus_pairs(n, shift)) == linear, (n, shift)
    n = 10 ** 12                    # divisors 2^i 5^j
    divisors = sorted(2 ** i * 5 ** j for i in range(13) for j in range(13))
    assert list(_torus_pairs(n, 0)) == [
        (a + 1, n // a) for a in divisors if a + 1 < n // a and gcd(a + 1, n // a) == 1]


def test_torus_pairs_refuse_values_above_the_limit():
    """The search runs up to n = 10^12 (~0.2 s) and refuses a larger n on
    its first step, naming the value and the limit in u or c."""
    assert _TORUS_PAIRS_LIMIT == 10 ** 12
    assert next(_torus_pairs(10 ** 12, 0)) == (3, 5 * 10 ** 11)
    assert next(_torus_pairs(10 ** 12, 1)) == (2, 10 ** 12 + 1)
    for n, shift, message in [
            (10 ** 12 + 1, 0, "c = 1000000000001 is above the limit c <= 1000000000000"),
            (10 ** 12 + 2, 1, "u = 500000000001 is above the limit u <= 500000000000")]:
        pairs = _torus_pairs(n, shift)      # a generator: nothing runs yet
        with pytest.raises(InputError) as err:
            next(pairs)
        assert str(err.value) == f"torus-knot search for {message}"
