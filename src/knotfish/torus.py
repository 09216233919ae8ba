"""Closed-form arithmetic for torus knots: invariants, unknotting and
crossing numbers, cubic bounds, recovery formulas, pseudo-invariants.

Every inequality verdict here is exact: values are Fractions, and
comparisons against k*sqrt(m) are resolved by sign analysis plus
squaring, never by floating point.

Int-or-float rule: the "real" quantities (crossing_recovery and both
pseudo-invariants) are exact ints when the radicands they use are perfect
squares and the value is an integer; otherwise they are floats.  The
pseudo-unknotting number uses (rho+1)^2 - 24 v2, as the exact
unknotting_from_invariants does; crossing_recovery, and so the
pseudo-crossing number, uses it and (rho-1)^2 - 24 v2.

The four report types are ``typing.NamedTuple`` records, as are
``TorusParams`` and ``InvariantPair``: immutable, with named fields, and
equal to the plain tuple of their values.  ``torus_curve_samples`` returns
the +v3 and -v3 branches of a curve as two lists.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import (ComputationError, ConditionError, InputError,
                     NoIntegerRootError, RadicandError)
from .generators import TorusParams, _as_torus
from .jones import InvariantPair

__all__ = [
    "TorusParams", "TorusReport", "CubicBoundsReport", "UnknottingBoundsReport",
    "CrossingBoundsReport", "torus_v2v3", "torus_unknotting", "torus_crossing",
    "check_cubic_bounds", "unknotting_from_invariants", "check_unknotting_bounds",
    "rho", "crossing_recovery", "check_crossing_quartic", "check_crossing_bounds",
    "pseudo_invariants", "torus_curve_samples", "torus_report",
]


def _exact_div(num: int, den: int, what: str) -> int:
    q, r = divmod(num, den)
    if r:
        raise ComputationError(f"{what}: {num}/{den} is not an integer")
    return q


def _sqrt_exact(f: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative Fraction, or None."""
    if f < 0:
        return None
    rn = math.isqrt(f.numerator)
    rd = math.isqrt(f.denominator)
    if rn * rn == f.numerator and rd * rd == f.denominator:
        return Fraction(rn, rd)
    return None


def _cmp_to_root(lhs: Fraction, coeff: Fraction, radicand: Fraction) -> int:
    """Exact sign of lhs - coeff*sqrt(radicand) (radicand >= 0)."""
    if radicand < 0:
        raise RadicandError(f"negative radicand {radicand}")
    rhs_sign = 0 if (coeff == 0 or radicand == 0) else (1 if coeff > 0 else -1)
    if lhs == 0:
        return -rhs_sign
    if lhs > 0 and rhs_sign <= 0:
        return 1
    if lhs < 0 and rhs_sign >= 0:
        return -1
    # same strict sign on both sides: compare squares, orient by that sign
    diff = lhs * lhs - coeff * coeff * radicand
    if diff == 0:
        return 0
    side = 1 if diff > 0 else -1
    return side if lhs > 0 else -side


def _int_or_float(x: Fraction) -> int | float:
    return int(x) if x.denominator == 1 else float(x)


# -- closed forms -----------------------------------------------------------

def torus_v2v3(t: TorusParams | tuple[int, int]) -> InvariantPair:
    """v2 = (p^2-1)(q^2-1)/24,  v3 = pq(p^2-1)(q^2-1)/144 (exact)."""
    t = _as_torus(t)
    p, q = t.p, t.q
    prod = (p * p - 1) * (q * q - 1)
    v2 = _exact_div(prod, 24, "torus v2")
    v3 = _exact_div(p * q * prod, 144, "torus v3")
    return InvariantPair(v2, v3)


def torus_unknotting(t: TorusParams | tuple[int, int]) -> int:
    """u = (|p|-1)(|q|-1)/2."""
    t = _as_torus(t)
    return (abs(t.p) - 1) * (abs(t.q) - 1) // 2


def torus_crossing(t: TorusParams | tuple[int, int]) -> int:
    """c = |q|(|p|-1) after sorting so |p| < |q|; rejects the unknot."""
    t = _as_torus(
        t, unknot_error="crossing-number formula does not apply to the unknot")
    p, q = sorted((abs(t.p), abs(t.q)))
    return q * (p - 1)


# -- bound reports ----------------------------------------------------------

class CubicBoundsReport(NamedTuple):
    """Cubic band checks: lower1/upper bracket v3^2 between two cubics in
    v2; lower2 is the tight alternative using the mixed v2*v3 term."""

    lower1_holds: bool
    upper_holds: bool
    lower2_holds: bool
    lower1_equality: bool
    upper_equality: bool
    lower2_equality: bool

    @property
    def all_hold(self) -> bool:
        return self.lower1_holds and self.upper_holds and self.lower2_holds


def check_cubic_bounds(pair: InvariantPair) -> CubicBoundsReport:
    """Exact verdicts for
    (2/3)v2^3 + (1/3)v2^2 <= v3^2 <= (8/9)v2^3 + (1/9)v2^2   and
    (2/3)v2^3 + (1/3)v2*v3 <= v3^2.
    """
    v2 = Fraction(pair.v2)
    v3 = Fraction(pair.v3)
    v3sq = v3 * v3
    lower1 = Fraction(2, 3) * v2 ** 3 + Fraction(1, 3) * v2 ** 2
    upper = Fraction(8, 9) * v2 ** 3 + Fraction(1, 9) * v2 ** 2
    lower2 = Fraction(2, 3) * v2 ** 3 + Fraction(1, 3) * v2 * v3
    return CubicBoundsReport(
        lower1_holds=lower1 <= v3sq,
        upper_holds=v3sq <= upper,
        lower2_holds=lower2 <= v3sq,
        lower1_equality=lower1 == v3sq,
        upper_equality=v3sq == upper,
        lower2_equality=lower2 == v3sq,
    )


def unknotting_from_invariants(pair: InvariantPair) -> int:
    """Smaller root u of v2^2 + u(u-1)v2/6 = u|v3|, as an exact integer.

    Raises NoIntegerRootError when the pair does not come from a torus knot.
    """
    if pair.v2 == 0:
        raise NoIntegerRootError("relation degenerate: v2 = 0")
    # u^2 - (1 + rho) u + 6 v2 = 0 for v2 > 0.  For v2 < 0 the product of
    # the roots, 6 v2, is negative, so the smaller root is never positive.
    r, disc, _ = _radicands(pair)
    root = _sqrt_exact(disc)
    if root is None:
        raise NoIntegerRootError(f"discriminant {disc} is not a perfect square")
    u = (1 + r - root) / 2
    if u.denominator != 1 or u <= 0:
        raise NoIntegerRootError(f"smaller root {u} is not a positive integer")
    return int(u)


class UnknottingBoundsReport(NamedTuple):
    """u(u+1)/2 >= v2 >= u(u + sqrt(8u+1) + 2)/6, plus the corollary
    sqrt(1+8v2) - 1 <= 2u <= sqrt(24v2+25) - 5."""

    left_holds: bool
    right_holds: bool
    left_equality: bool
    right_equality: bool
    corollary_left_holds: bool
    corollary_right_holds: bool
    corollary_left_equality: bool

    @property
    def all_hold(self) -> bool:
        return (self.left_holds and self.right_holds
                and self.corollary_left_holds and self.corollary_right_holds)


def check_unknotting_bounds(t: TorusParams | tuple[int, int]) -> UnknottingBoundsReport:
    t = _as_torus(t, unknot_error="bounds apply to nontrivial torus knots")
    v2 = Fraction(torus_v2v3(t).v2)
    u = torus_unknotting(t)
    left = Fraction(u * (u + 1), 2) - v2                      # >= 0
    # v2 - u(u+2)/6 >= (u/6) sqrt(8u+1)
    right_cmp = _cmp_to_root(v2 - Fraction(u * (u + 2), 6),
                             Fraction(u, 6), Fraction(8 * u + 1))
    # corollary: 2u + 1 >= sqrt(1+8v2)  and  2u + 5 <= sqrt(24v2+25)
    cor_left_cmp = _cmp_to_root(Fraction(2 * u + 1), Fraction(1), 1 + 8 * v2)
    cor_right_cmp = _cmp_to_root(Fraction(2 * u + 5), Fraction(1), 24 * v2 + 25)
    return UnknottingBoundsReport(
        left_holds=left >= 0,
        right_holds=right_cmp >= 0,
        left_equality=left == 0,
        right_equality=right_cmp == 0,
        corollary_left_holds=cor_left_cmp >= 0,
        corollary_right_holds=cor_right_cmp <= 0,
        corollary_left_equality=cor_left_cmp == 0,
    )


def rho(pair: InvariantPair) -> Fraction:
    """|6 v3 / v2|; equals |pq| on torus knots."""
    if pair.v2 == 0:
        raise ComputationError("rho undefined: v2 = 0")
    return abs(Fraction(6 * pair.v3, pair.v2))


def _radicands(pair: InvariantPair) -> tuple[Fraction, Fraction, Fraction]:
    """rho and the recovery radicands (rho+1)^2 - 24 v2, (rho-1)^2 - 24 v2."""
    r = rho(pair)
    return r, (r + 1) ** 2 - 24 * pair.v2, (r - 1) ** 2 - 24 * pair.v2


def crossing_recovery(pair: InvariantPair) -> int | float:
    """c = rho - (sqrt((rho-1)^2 - 24 v2) + sqrt((rho+1)^2 - 24 v2)) / 2."""
    r, rad_plus, rad_minus = _radicands(pair)
    if rad_plus < 0 or rad_minus < 0:
        raise RadicandError("crossing recovery radicand negative")
    s_plus = _sqrt_exact(rad_plus)
    s_minus = _sqrt_exact(rad_minus)
    if s_plus is not None and s_minus is not None:
        return _int_or_float(r - (s_minus + s_plus) / 2)
    return float(r) - (math.sqrt(rad_minus) + math.sqrt(rad_plus)) / 2


def check_crossing_quartic(t: TorusParams | tuple[int, int]) -> bool:
    """Exact check of 24 v2 (c-rho)^2 = c((c-rho)^2 - 1)(2 rho - c)."""
    t = _as_torus(t, unknot_error="quartic applies to nontrivial torus knots")
    pair = torus_v2v3(t)
    c = torus_crossing(t)
    r = rho(pair)
    lhs = 24 * pair.v2 * (c - r) ** 2
    rhs = c * ((c - r) ** 2 - 1) * (2 * r - c)
    return lhs == rhs


class CrossingBoundsReport(NamedTuple):
    """(c^2-1)/8 >= v2 >= c(c+1+2 sqrt(c+1))/24, plus the corollary in the
    derived form (sqrt(96 v2 + 25) - 5)/2 >= c >= sqrt(8 v2 + 1).

    The corollary constants differ from the printed source, which fails on
    T(2,3); rederiving from the stated weakening v2 >= c(c+5)/24 gives the
    form used here, tight on the (2,q) family.  ``corollary_adjusted``
    records that this correction is in effect.
    """

    left_holds: bool
    right_holds: bool
    left_equality: bool
    right_equality: bool
    corollary_left_holds: bool
    corollary_right_holds: bool
    corollary_right_equality: bool
    corollary_adjusted: bool = True

    @property
    def all_hold(self) -> bool:
        return (self.left_holds and self.right_holds
                and self.corollary_left_holds and self.corollary_right_holds)


def check_crossing_bounds(t: TorusParams | tuple[int, int]) -> CrossingBoundsReport:
    t = _as_torus(t, unknot_error="bounds apply to nontrivial torus knots")
    v2 = Fraction(torus_v2v3(t).v2)
    c = torus_crossing(t)
    left = Fraction(c * c - 1, 8) - v2                        # >= 0
    # v2 - c(c+1)/24 >= (c/12) sqrt(c+1)
    right_cmp = _cmp_to_root(v2 - Fraction(c * (c + 1), 24),
                             Fraction(c, 12), Fraction(c + 1))
    # derived corollary: 2c + 5 <= sqrt(96 v2 + 25)  and  c >= sqrt(8 v2 + 1)
    cor_left_cmp = _cmp_to_root(Fraction(2 * c + 5), Fraction(1), 96 * v2 + 25)
    cor_right_cmp = _cmp_to_root(Fraction(c), Fraction(1), 8 * v2 + 1)
    return CrossingBoundsReport(
        left_holds=left >= 0,
        right_holds=right_cmp >= 0,
        left_equality=left == 0,
        right_equality=right_cmp == 0,
        corollary_left_holds=cor_left_cmp <= 0,
        corollary_right_holds=cor_right_cmp >= 0,
        corollary_right_equality=cor_right_cmp == 0,
    )


# -- pseudo-invariants ------------------------------------------------------

def pseudo_invariants(pair: InvariantPair) -> tuple[int | float, int | float]:
    """Pseudo-unknotting and pseudo-crossing numbers from (v2, v3).

    Requires (6|v3| - |v2|)^2 >= 24 v2^3 and v2 != 0; on torus pairs the
    result equals (u, c) exactly.
    """
    if pair.v2 == 0:
        raise ComputationError("pseudo-invariants undefined: v2 = 0")
    if (6 * abs(pair.v3) - abs(pair.v2)) ** 2 < 24 * pair.v2 ** 3:
        raise ConditionError(
            f"(6|v3|-|v2|)^2 >= 24 v2^3 fails for {tuple(pair)}")
    c = crossing_recovery(pair)   # first: a negative radicand raises here
    r, rad_plus, _ = _radicands(pair)
    s_plus = _sqrt_exact(rad_plus)
    if s_plus is not None:
        return _int_or_float((1 + r - s_plus) / 2), c
    return (1 + float(r) - math.sqrt(rad_plus)) / 2, c


# -- curve sampling (fish-plot overlays) ------------------------------------

def torus_curve_samples(mode: str, value: int, n: int
                        ) -> tuple[list[tuple[float, float]], list[tuple[float, float]]]:
    """Sample the fixed-u or fixed-c torus curves in the (v2, v3)-plane.

    mode "unknotting": |v3| = v2^2/u + (u-1)v2/6 over the v2 interval where
    the unknotting bounds are tight.  mode "crossing": the parametric curve
    through (v2(p), v3(p)) with q = c/(p-1), p in [2, sqrt(c+1)].  Returns
    the branches ``(plus, minus)``: n points (v2, v3) with v3 >= 0, and the
    same n points with v3 negated.
    """
    if n < 2:
        raise InputError("need at least 2 samples")
    if value < 1:
        raise InputError("curve parameter must be >= 1")
    pts_pos: list[tuple[float, float]] = []
    if mode in ("unknotting", "u"):
        u = value
        lo = u * (u + math.sqrt(8 * u + 1) + 2) / 6
        hi = u * (u + 1) / 2
        if hi < lo:
            raise InputError(f"empty v2 range for u = {u}")
        for k in range(n):
            v2 = lo + (hi - lo) * k / (n - 1)
            v3 = v2 * v2 / u + (u - 1) * v2 / 6
            pts_pos.append((v2, v3))
    elif mode in ("crossing", "c"):
        c = value
        p_hi = math.sqrt(c + 1)
        if p_hi < 2:
            raise InputError(f"empty parameter range for c = {c} (need c >= 3)")
        for k in range(n):
            p = 2 + (p_hi - 2) * k / (n - 1)
            q = c / (p - 1)
            v2 = (p * p - 1) * (q * q - 1) / 24
            v3 = p * q * (p * p - 1) * (q * q - 1) / 144
            pts_pos.append((v2, v3))
    else:
        raise InputError(f"unknown curve mode {mode!r}")
    return pts_pos, [(v2, -v3) for v2, v3 in pts_pos]


# -- combined report --------------------------------------------------------

class TorusReport(NamedTuple):
    """Everything this module can say about one torus knot."""

    params: TorusParams
    invariants: InvariantPair
    unknotting: int
    crossing: int
    rho: Fraction
    cubic: CubicBoundsReport
    unknotting_bounds: UnknottingBoundsReport
    crossing_bounds: CrossingBoundsReport
    quartic_holds: bool
    recovered_unknotting: int
    recovered_crossing: int | float
    pseudo: tuple[int | float, int | float]

    @property
    def consistent(self) -> bool:
        return (self.cubic.all_hold and self.unknotting_bounds.all_hold
                and self.crossing_bounds.all_hold and self.quartic_holds
                and self.recovered_unknotting == self.unknotting
                and self.recovered_crossing == self.crossing
                and self.pseudo == (self.unknotting, self.crossing))


def torus_report(t: TorusParams | tuple[int, int]) -> TorusReport:
    t = _as_torus(t, unknot_error="report applies to nontrivial torus knots")
    pair = torus_v2v3(t)
    return TorusReport(
        params=t,
        invariants=pair,
        unknotting=torus_unknotting(t),
        crossing=torus_crossing(t),
        rho=rho(pair),
        cubic=check_cubic_bounds(pair),
        unknotting_bounds=check_unknotting_bounds(t),
        crossing_bounds=check_crossing_bounds(t),
        quartic_holds=check_crossing_quartic(t),
        recovered_unknotting=unknotting_from_invariants(pair),
        recovered_crossing=crossing_recovery(pair),
        pseudo=pseudo_invariants(pair),
    )
