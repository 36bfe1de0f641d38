"""q-integers, Gaussian binomials and complete homogeneous sums.

Everything returns a LaurentPoly; all divisions are exact by construction.
Gaussian binomials are memoized, which is safe because results are immutable
and recomputation is idempotent.
"""

from __future__ import annotations

from functools import lru_cache

from .laurent import LaurentPoly, NotDivisible


def qint(n: int) -> LaurentPoly:
    """[n] = 1 + q + ... + q**(n-1); [0] = 0."""
    if n < 0:
        raise ValueError("q-integer of a negative number")
    return LaurentPoly({e: 1 for e in range(n)})


@lru_cache(maxsize=None)
def qbinomial(big: int, small: int) -> LaurentPoly:
    """Gaussian binomial [big choose small]; 0 outside 0 <= small <= big.

    Computed by the incremental product [big-small+i]/[i], i = 1..small;
    every intermediate value is itself a Gaussian binomial so each division
    is exact.
    """
    if big < 0:
        raise ValueError("upper index must be nonnegative")
    if small < 0 or small > big:
        return LaurentPoly.zero()
    small = min(small, big - small)
    result = LaurentPoly.one()
    for i in range(1, small + 1):
        try:
            result = (result * qint(big - small + i)).exact_div(qint(i))
        except NotDivisible as exc:  # impossible for valid indices
            raise RuntimeError("Gaussian binomial recurrence lost exactness") from exc
    return result


def h_complete(r: int, m: int) -> LaurentPoly:
    """Complete homogeneous sum of degree r in the variables 1, q, ..., q**(m-1).

    Equals the Gaussian binomial [m+r-1 choose r]; 0 for r < 0, 1 for r = 0.
    """
    if m < 1:
        raise ValueError("need at least one variable")
    if r < 0:
        return LaurentPoly.zero()
    return qbinomial(m + r - 1, r)
