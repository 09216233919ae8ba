"""Unit coverage for the exact radical comparator underpinning every
bound verdict: one signed-square test, the sign of lhs|lhs| -
coeff|coeff| radicand, with no floats anywhere."""

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from knotfish.errors import RadicandError
from knotfish.torus import _cmp_to_root, _sqrt

F = Fraction


def test_zero_cases():
    assert _cmp_to_root(F(0), F(0), F(5)) == 0
    assert _cmp_to_root(F(0), F(1), F(0)) == 0
    assert _cmp_to_root(F(0), F(3), F(2)) == -1
    assert _cmp_to_root(F(0), F(-3), F(2)) == 1


def test_opposite_sign_shortcuts():
    assert _cmp_to_root(F(1), F(-1), F(2)) == 1
    assert _cmp_to_root(F(-1), F(1), F(2)) == -1
    assert _cmp_to_root(F(7), F(0), F(9)) == 1
    assert _cmp_to_root(F(-7), F(0), F(9)) == -1


def test_both_negative_orientation():
    # -3 vs -sqrt(8): |3| > |sqrt(8)| so -3 < -sqrt(8)
    assert _cmp_to_root(F(-3), F(-1), F(8)) == -1
    assert _cmp_to_root(F(-2), F(-1), F(8)) == 1
    assert _cmp_to_root(F(-3), F(-1), F(9)) == 0


def test_exact_equality_detected():
    assert _cmp_to_root(F(6), F(2), F(9)) == 0
    assert _cmp_to_root(F(35, 10), F(7, 2), F(1)) == 0


def test_negative_radicand_rejected():
    with pytest.raises(RadicandError):
        _cmp_to_root(F(1), F(1), F(-1))


rationals = st.fractions(min_value=-50, max_value=50)
radicands = st.fractions(min_value=0, max_value=100)


@given(rationals, rationals, radicands)
def test_comparator_agrees_with_interval_arithmetic(lhs, coeff, rad):
    """Squeeze sqrt(rad) between exact rational bounds and compare."""
    verdict = _cmp_to_root(lhs, coeff, rad)
    # rational window around sqrt(rad), exact arithmetic only
    scale = 10 ** 12
    num = rad.numerator * scale * scale // rad.denominator
    lo = F(isqrt(num), scale)
    hi = F(isqrt(num) + 1, scale)
    lo_rhs, hi_rhs = sorted((coeff * lo, coeff * hi))
    if lhs > hi_rhs:
        assert verdict == 1
    elif lhs < lo_rhs:
        assert verdict == -1
    else:
        root, exact = _sqrt(rad, 0)
        if exact:
            diff = lhs - coeff * root
            assert verdict == (0 if diff == 0 else (1 if diff > 0 else -1))


def test_sqrt_exact():
    assert _sqrt(F(49, 4), 0) == (F(7, 2), True)
    assert _sqrt(F(2), 0)[1] is False
    assert _sqrt(F(0), 0) == (0, True)
    with pytest.raises(ValueError):     # callers pass f >= 0 only
        _sqrt(F(-4), 0)


@given(st.fractions(min_value=0, max_value=10 ** 30), st.integers(0, 300))
def test_inexact_sqrt_is_below_the_root_within_its_bits(f, bits):
    """root <= sqrt(f) < root (1 + 2^-bits), checked on squares."""
    root, exact = _sqrt(f, bits)
    if exact:
        assert root * root == f
    else:
        assert root * root < f < (root * (1 + F(1, 2 ** bits))) ** 2


@given(st.integers(-10**6, 10**6), st.integers(-10**3, 10**3),
       st.integers(0, 10**6))
def test_comparator_on_ints_matches_fractions(lhs, coeff, rad):
    """The bound checks pass ints; the verdict is the same as on Fractions
    and, by the isqrt floor of coeff^2 * rad, right."""
    verdict = _cmp_to_root(lhs, coeff, rad)
    assert verdict == _cmp_to_root(F(lhs), F(coeff), F(rad))
    # coeff*sqrt(rad) = sign(coeff)*sqrt(n), and sqrt(n) lies in [s, s+1)
    n = coeff * coeff * rad
    s = isqrt(n)
    signed = lhs if coeff >= 0 else -lhs
    if s * s == n:
        expect = (signed > s) - (signed < s)
    else:
        expect = 1 if signed > s else -1
    assert verdict == (expect if coeff >= 0 else -expect)
