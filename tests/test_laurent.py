from hypothesis import given
from hypothesis import strategies as st

from knotfish.laurent import LaurentPoly

polys = st.dictionaries(st.integers(-30, 30),
                        st.integers(-10 ** 12, 10 ** 12),
                        max_size=8).map(LaurentPoly)


def _sum(p, q):
    """p + q, summed on the coefficient maps."""
    terms = p.terms
    for e, c in q.terms.items():
        terms[e] = terms.get(e, 0) + c
    return LaurentPoly(terms)


def test_monomial_cancellation():
    assert LaurentPoly({2: 1}) * LaurentPoly({-2: 1}) == LaurentPoly({0: 1})


def test_additive_cancellation_is_canonical():
    # (x + 1)(x - 1): the two x terms of the product cancel
    p = LaurentPoly({1: 1, 0: 1}) * LaurentPoly({1: 1, 0: -1})
    assert p.terms == {2: 1, 0: -1}
    assert not LaurentPoly({3: 0}).terms
    assert not LaurentPoly({3: 0})


def test_multiplicative_identity():
    p = LaurentPoly({4: -1, 3: 1, 1: 1})
    assert p * LaurentPoly({0: 1}) == p


def test_falling_factorial_single_term_vanishes():
    assert LaurentPoly({1: 1}).falling_factorial_sum(2) == 0


def test_falling_factorial_trefoil_jones():
    # -q^4 + q^3 + q, second and third derivatives at 1, term by term
    p = LaurentPoly({4: -1, 3: 1, 1: 1})
    assert p.falling_factorial_sum(2) == -6
    assert p.falling_factorial_sum(3) == -18


def test_format_matches_diagnostic_convention():
    assert str(LaurentPoly({4: -1, 3: 1, 1: 1})) == "-q^4 + q^3 + q"
    assert str(LaurentPoly()) == "0"
    assert str(LaurentPoly({0: -7})) == "-7"
    assert str(LaurentPoly({2: 3, -1: -1})) == "3*q^2 - q^-1"


@given(polys, polys)
def test_multiplication_commutes(p, q):
    assert p * q == q * p


@given(polys, polys, polys)
def test_multiplication_associates(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(polys, polys, polys)
def test_distributivity(p, q, r):
    assert p * _sum(q, r) == _sum(p * q, p * r)


@given(polys)
def test_derivative_order_zero_is_evaluation_at_one(p):
    assert p.falling_factorial_sum(0) == sum(p.terms.values())


def test_exactness_with_large_coefficients():
    big = 10 ** 40
    p = LaurentPoly({5: big}) * LaurentPoly({-5: big})
    assert p == LaurentPoly({0: big * big})
    assert p.falling_factorial_sum(0) == big * big
