"""Closed-form arithmetic for torus knots: invariants, unknotting and
crossing numbers, cubic bounds, recovery formulas, pseudo-invariants.

Every inequality verdict here is exact, in integers scaled by each bound's
denominator: lhs against k*sqrt(m) is the sign of lhs|lhs| - k|k|m, never
a float.  Only rho, the recovery radicands and the quartic are Fractions.

One-rounding rule: crossing_recovery and both pseudo-invariants are
Fractions from exact square roots, or from roots carried far enough past
rho's size to cover the cancellation, rounded once: an int when the roots
used are exact and the value is integral, else the nearest float, and
ComputationError beyond the float range.  They use (rho+1)^2 - 24 v2, as
unknotting_from_invariants does, and c~ also (rho-1)^2 - 24 v2.

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


def _sqrt(f: Fraction, bits: int) -> tuple[Fraction, bool]:
    """(root, exact) for f >= 0: sqrt(f) when f is the square of a Fraction,
    else sqrt(f) rounded down to within 2^-bits of it, relative."""
    m = f.numerator * f.denominator             # sqrt(f) = sqrt(m) / denominator
    k = max(0, bits - (m.bit_length() - 1) // 2)    # so sqrt(m) 2^k >= 2^bits
    s = math.isqrt(m << 2 * k)
    return Fraction(s, f.denominator << k), s * s == m << 2 * k


def _cmp_to_root(lhs: Fraction, coeff: Fraction, radicand: Fraction) -> int:
    """Exact sign of lhs - coeff*sqrt(radicand), radicand >= 0, in ints or
    Fractions: as x|x| increases with x, it is the sign of
    lhs|lhs| - coeff|coeff| radicand."""
    if radicand < 0:
        raise RadicandError(f"negative radicand {radicand}")
    diff = lhs * abs(lhs) - coeff * abs(coeff) * radicand
    return (diff > 0) - (diff < 0)


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
    v2, v3 = pair                   # every side below is scaled by 9
    v3sq = 9 * v3 * v3
    lower1 = 6 * v2 ** 3 + 3 * v2 ** 2
    upper = 8 * v2 ** 3 + v2 ** 2
    lower2 = 6 * v2 ** 3 + 3 * v2 * v3
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
    root, exact = _sqrt(disc, 0) if disc >= 0 else (None, False)
    if not exact:
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
    v2 = torus_v2v3(t).v2
    u = torus_unknotting(t)
    left = u * (u + 1) - 2 * v2                               # >= 0, scaled by 2
    # 6 v2 - u(u+2) >= u sqrt(8u+1), scaled by 6
    right_cmp = _cmp_to_root(6 * v2 - u * (u + 2), u, 8 * u + 1)
    # corollary: 2u + 1 >= sqrt(1+8v2)  and  2u + 5 <= sqrt(24v2+25)
    cor_left_cmp = _cmp_to_root(2 * u + 1, 1, 1 + 8 * v2)
    cor_right_cmp = _cmp_to_root(2 * u + 5, 1, 24 * v2 + 25)
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
    if rad_minus < 0:           # rad_plus = rad_minus + 4 rho >= rad_minus
        raise RadicandError("crossing recovery radicand negative")
    return _recovered(r, rad_plus, rad_minus)[1]


def _recovered(r: Fraction, rad_plus: Fraction, rad_minus: Fraction):
    """(u~, c~) from rho and its radicands, rad_minus >= 0.  Each is ~|v2|/rho
    or more, so roots good to 2^-bits leave it good to ~rho^2 2^-bits < 2^-64."""
    bits = 64 + 2 * (r.numerator.bit_length() + r.denominator.bit_length())
    s_plus, plus_exact = _sqrt(rad_plus, bits)
    s_minus, minus_exact = _sqrt(rad_minus, bits)
    values = (((1 + r - s_plus) / 2, plus_exact),
              (r - (s_minus + s_plus) / 2, plus_exact and minus_exact))
    try:
        return tuple(int(x) if exact and x.denominator == 1 else float(x)
                     for x, exact in values)
    except OverflowError:
        raise ComputationError("recovered value too large for a float") from None


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
    form used here, tight on the (2,q) family.
    """

    left_holds: bool
    right_holds: bool
    left_equality: bool
    right_equality: bool
    corollary_left_holds: bool
    corollary_right_holds: bool
    corollary_right_equality: bool

    @property
    def all_hold(self) -> bool:
        return (self.left_holds and self.right_holds
                and self.corollary_left_holds and self.corollary_right_holds)


def check_crossing_bounds(t: TorusParams | tuple[int, int]) -> CrossingBoundsReport:
    t = _as_torus(t, unknot_error="bounds apply to nontrivial torus knots")
    v2 = torus_v2v3(t).v2
    c = torus_crossing(t)
    left = c * c - 1 - 8 * v2                                 # >= 0, scaled by 8
    # 24 v2 - c(c+1) >= 2c sqrt(c+1), scaled by 24
    right_cmp = _cmp_to_root(24 * v2 - c * (c + 1), 2 * c, c + 1)
    # derived corollary: 2c + 5 <= sqrt(96 v2 + 25)  and  c >= sqrt(8 v2 + 1)
    cor_left_cmp = _cmp_to_root(2 * c + 5, 1, 96 * v2 + 25)
    cor_right_cmp = _cmp_to_root(c, 1, 8 * v2 + 1)
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
    r, rad_plus, rad_minus = _radicands(pair)
    if rad_minus < 0:           # rad_minus v2^2 = (6|v3|-|v2|)^2 - 24 v2^3
        raise ConditionError(
            f"(6|v3|-|v2|)^2 >= 24 v2^3 fails for {tuple(pair)}")
    return _recovered(r, rad_plus, rad_minus)


# -- curve sampling (fish-plot overlays) ------------------------------------

def torus_curve_samples(mode: str, value: int, n: int
                        ) -> tuple[list[tuple[float, float]], list[tuple[float, float]]]:
    """Sample the fixed-u or fixed-c torus curves in the (v2, v3)-plane.

    mode "unknotting": |v3| = v2^2/u + (u-1)v2/6 over the v2 interval where
    the unknotting bounds are tight.  mode "crossing": the parametric curve
    through (v2(p), v3(p)) with q = c/(p-1), p in [2, sqrt(c+1)].  Returns
    the branches ``(plus, minus)``: n points (v2, v3) with v3 >= 0, and the
    same n points with v3 negated.  A sample that is not a finite float
    raises ComputationError.
    """
    if n < 2:
        raise InputError("need at least 2 samples")
    if value < 1:
        raise InputError("curve parameter must be >= 1")
    pts_pos: list[tuple[float, float]] = []
    try:
        if mode == "unknotting":
            u = value
            lo = u * (u + math.sqrt(8 * u + 1) + 2) / 6
            hi = u * (u + 1) / 2
            for k in range(n):
                v2 = lo + (hi - lo) * k / (n - 1)
                v3 = v2 * v2 / u + (u - 1) * v2 / 6
                pts_pos.append((v2, v3))
        elif mode == "crossing":
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
        if not all(math.isfinite(v2) and math.isfinite(v3) for v2, v3 in pts_pos):
            raise OverflowError     # float products overflow to inf, not raise
    except OverflowError:
        raise ComputationError(f"{mode} curve samples do not fit in a float") from None
    return pts_pos, [(v2, -v3) for v2, v3 in pts_pos]


# The loop below takes ~0.2 s at n = 10^12 (Python 3.11, one x86-64 core)
# and grows as sqrt(n); factoring n would not bound it either, as n may be
# a product of two large primes.
_TORUS_PAIRS_LIMIT = 10 ** 12


def _torus_pairs(n: int, shift: int):
    """Coprime 2 <= p < q with q = n/(p-1) + shift: the torus knots T(p, q)
    with unknotting number n/2 (shift 1) or crossing number n (shift 0).
    InputError for n above ``_TORUS_PAIRS_LIMIT``, raised on the first
    ``next``."""
    if n > _TORUS_PAIRS_LIMIT:
        name, value, limit = (("u", n // 2, _TORUS_PAIRS_LIMIT // 2) if shift
                              else ("c", n, _TORUS_PAIRS_LIMIT))
        raise InputError(f"torus-knot search for {name} = {value} is above "
                         f"the limit {name} <= {limit}")
    for a in range(1, math.isqrt(n) + 1):       # p < q forces (p-1)^2 < n
        p, q = a + 1, n // a + shift
        if n % a == 0 and p < q and math.gcd(p, q) == 1:
            yield p, q


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
    def checks(self) -> tuple[tuple[str, bool], ...]:
        """The labelled relation checks that ``torus --report`` prints."""
        return (("cubic bounds", self.cubic.all_hold),
                ("unknotting bounds + corollary", self.unknotting_bounds.all_hold),
                ("crossing bounds + corollary (derived constants)",
                 self.crossing_bounds.all_hold),
                ("crossing quartic", self.quartic_holds),
                ("pseudo-invariants coincide",
                 self.pseudo == (self.unknotting, self.crossing)))

    @property
    def consistent(self) -> bool:
        return (all(ok for _, ok in self.checks)
                and self.recovered_unknotting == self.unknotting
                and self.recovered_crossing == self.crossing)


def torus_report(t: TorusParams | tuple[int, int]) -> TorusReport:
    t = _as_torus(t, unknot_error="report applies to nontrivial torus knots")
    pair = torus_v2v3(t)
    # (rho-1)^2 - 24 v2 = (q-p)^2 >= 0 and v2 != 0 on a torus pair, so this
    # cannot raise, and crossing_recovery(pair) would return pseudo[1].
    pseudo = pseudo_invariants(pair)
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
        recovered_crossing=pseudo[1],
        pseudo=pseudo,
    )
