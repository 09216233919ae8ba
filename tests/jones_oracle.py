"""Reference route from the Jones polynomial to (v2, v3): the derivative
formulas
  v2 = -J''(1)/6        v3 = -(J'''(1) + 3 J''(1))/36
read off ``jones(d)``.  ``v2_v3`` counts Gauss-diagram subdiagrams
instead; the tests and ``scripts/make_knot_table.py`` check it against
this route, which shares nothing with it but the diagram.
"""

from __future__ import annotations

from knotfish.errors import ExactnessError
from knotfish.jones import InvariantPair
from knotfish.laurent import LaurentPoly


def pair_from_jones(j: LaurentPoly) -> InvariantPair:
    """(v2, v3) from the derivatives at 1 of the Jones polynomial ``j``."""
    j2 = j.falling_factorial_sum(2)
    j3 = j.falling_factorial_sum(3)
    v2, rem = divmod(-j2, 6)
    if rem:
        raise ExactnessError(f"v2 division not exact: J''(1) = {j2}")
    v3, rem = divmod(-(j3 + 3 * j2), 36)
    if rem:
        raise ExactnessError(
            f"v3 division not exact: J'''(1) = {j3}, J''(1) = {j2}")
    return InvariantPair(v2, v3)
