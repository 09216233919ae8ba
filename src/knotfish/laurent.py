"""Exact Laurent polynomials in one variable with integer coefficients.

``LaurentPoly`` is the value ``kauffman_bracket`` and ``jones`` return,
which they build in plain dicts.  It compares, multiplies (the product
checks J(K1 # K2) = J(K1) J(K2)) and prints in the variable q.  It also
takes derivatives at 1, which no library route reads: the tests' Jones
oracle (``tests/jones_oracle.py``) calls them, and the benchmark's tracer
wraps ``falling_factorial_sum`` by name.

The representation is a sparse map exponent -> coefficient with no stored
zeros, so equality is map equality.  Coefficients are plain Python ints
(arbitrary precision); bracket coefficients overflow 64 bits well before
the crossing cap, so exactness here is non-negotiable.
"""

from __future__ import annotations

__all__ = ["LaurentPoly"]


class LaurentPoly:
    """Immutable sparse Laurent polynomial ``sum c_k * x^k``."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, int] | None = None):
        self._terms = {e: c for e, c in (terms or {}).items() if c != 0}

    @property
    def terms(self) -> dict[int, int]:
        """Copy of the exponent -> coefficient map (canonical, no zeros)."""
        return dict(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __len__(self) -> int:
        return len(self._terms)

    def __mul__(self, other: LaurentPoly) -> LaurentPoly:
        result: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                result[e] = result.get(e, 0) + c1 * c2
        return LaurentPoly(result)

    def falling_factorial_sum(self, n: int) -> int:
        """Value of the n-th derivative at 1: sum c_k * k(k-1)...(k-n+1).

        Read by the tests' Jones oracle and wrapped by the benchmark's
        tracer; the library itself takes (v2, v3) from ``v2_v3``.
        """
        if n < 0:
            raise ValueError("derivative order must be nonnegative")
        total = 0
        for e, c in self._terms.items():
            prod = 1
            for j in range(n):
                prod *= e - j
            total += c * prod
        return total

    def __str__(self) -> str:
        """Terms in decreasing exponent order, e.g. ``-q^4 + q^3 + q``."""
        if not self._terms:
            return "0"
        pieces = []
        for e in sorted(self._terms, reverse=True):
            c = self._terms[e]
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                power = "q" if e == 1 else f"q^{e}"
                body = power if mag == 1 else f"{mag}*{power}"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"LaurentPoly({self._terms!r})"

