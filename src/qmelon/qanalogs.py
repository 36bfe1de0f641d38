"""Gaussian binomials on a dense list, complete homogeneous values.

Everything returns a LaurentPoly.  A Gaussian binomial is built on one
dense list of ints and wrapped once; every division in that loop is exact
and checked.  Gaussian binomials are memoized, which is safe because
results are immutable and recomputation is idempotent.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from operator import sub

from .laurent import _MAX_DENSE_COEFFS, _MAX_SERIES_WORK, LaurentPoly
from .partitions import check_int


# typed, so that a cached int key cannot answer a float or a bool key
@lru_cache(maxsize=None, typed=True)
def qbinomial(big: int, small: int) -> LaurentPoly:
    """Gaussian binomial [big choose small]; 0 outside 0 <= small <= big.

    With k = min(small, big - small) and r = big - k, this is the product
    of (1 - q**(r+i)) / (1 - q**i) over i = 1..k, and every partial product
    is itself the Gaussian binomial [r+i choose i].  The coefficients live
    in one list of length k*(r+1) + 1, the largest degree any step reaches
    plus one.  Step i multiplies by (1 - q**(r+i)) with one shifted slice
    subtraction, then divides by (1 - q**i) with a prefix sum along each
    residue class mod i.  That prefix sum is the power series of the
    quotient, so the division was exact if and only if the i top slots it
    vacates read zero; anything else raises RuntimeError.  A list longer
    than ``laurent._MAX_DENSE_COEFFS``, or k passes over it past
    ``laurent._MAX_SERIES_WORK`` slot-passes, raises ValueError first.
    """
    check_int(big, "upper index")
    check_int(small, "lower index")
    if big < 0:
        raise ValueError("upper index must be nonnegative")
    if small < 0 or small > big:
        return LaurentPoly.zero()
    small = min(small, big - small)
    rest = big - small
    length = small * (rest + 1) + 1
    if length > _MAX_DENSE_COEFFS:
        raise ValueError(f"Gaussian binomial [{big} choose {small}] needs {length} "
                         f"coefficients, over the limit of {_MAX_DENSE_COEFFS}")
    if small * length > _MAX_SERIES_WORK:
        raise ValueError(f"Gaussian binomial [{big} choose {small}] would take {small * length} "
                         f"slot-passes, over the limit of {_MAX_SERIES_WORK}")
    coeffs = [1] + [0] * (length - 1)
    deg = 0
    for i in range(1, small + 1):
        e = rest + i
        deg += e
        coeffs[e:deg + 1] = map(sub, coeffs[e:deg + 1], coeffs[:deg + 1 - e])
        for r in range(i):
            coeffs[r:deg + 1:i] = accumulate(coeffs[r:deg + 1:i])
        deg -= i
        if any(coeffs[deg + 1:deg + 1 + i]):  # impossible for valid indices
            raise RuntimeError("Gaussian binomial recurrence lost exactness")
    return LaurentPoly(dict(enumerate(coeffs[:deg + 1])))


def h_complete(r: int, m: int) -> LaurentPoly:
    """Complete homogeneous sum of degree r in the variables 1, q, ..., q**(m-1).

    Equals the Gaussian binomial [m+r-1 choose r]; 0 for r < 0, and 1 for
    r = 0 in any number m >= 0 of variables.  A nonzero degree needs m >= 1.
    """
    check_int(r, "degree")
    check_int(m, "number of variables")
    if r == 0 and m == 0:
        return LaurentPoly.one()
    if m < 1:
        raise ValueError("need at least one variable")
    if r < 0:
        return LaurentPoly.zero()
    return qbinomial(m + r - 1, r)
