"""Gaussian binomials on a dense list, their determinants, complete homogeneous values.

Everything returns a LaurentPoly.  A Gaussian binomial is built on one
dense list of ints and wrapped once; every division in that loop is exact
and checked.  Gaussian binomials are memoized, which is safe because
results are immutable and recomputation is idempotent.  Every determinant
of twisted Gaussian binomials q**s * [A choose b], monomials (A = 0)
among them, is ``_qbinomial_det``, which but for the smallest (see
there) builds none of them: it feeds ``laurent._det_core`` their
closed-form facts and the values of [A choose b] at q = +-Y, from one
chain of ints per ``_qbinomial_chain``; the core applies every shift.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import accumulate
from math import comb
from operator import sub

from . import laurent
from .laurent import (
    _MAX_DENSE_COEFFS,
    _MAX_SERIES_WORK,
    LaurentPoly,
    PolyMatrix,
    _det_core,
    det_fraction_free,
)
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


def _qbinomial_det(entries: list[list[tuple[int, int, int]]], *,
                   _nonnegative: bool = False) -> LaurentPoly:
    """det(q**s_ij * [A_ij choose b_ij]) of the n x n triples entries[i][j] = (s, A, b), A >= 0.

    Below 3 rows, 0 included, the entries are built, q**s * [A choose b]
    and 0 outside 0 <= b <= A, and ``laurent.det_fraction_free`` expands
    them directly, several times faster than the core at 1 row (CPython
    3.11); the flag is not read there.  From 3 rows no Gaussian binomial
    is built.  ``laurent._det_core`` reads four facts of an entry, and
    each is known in closed form: with k = min(b, A - b) and r = A - k,
    the entry is 0 outside 0 <= b <= A, and otherwise has valuation s,
    degree s + k * r, and value C(A, b) at q = 1, which is also its |a|_1,
    its coefficients being positive.  So the Leibniz width, and det M(1)
    with ``_nonnegative`` (which the caller sets only with a proof, as
    ``schur.h_determinant`` and ``schur.gv_determinant`` have), follow
    from binomial coefficients, and the charge runs before any value is
    computed.  The values at q = +-Y of the entry over q**s are step k of
    ``_qbinomial_chain`` at r.  A monomial q**s, the triple (s, 0, 0) of
    ``schur._alternant``, has the facts (s, s, 1) and the value 1, from a
    chain of no step.
    """
    if len(entries) < 3:
        return det_fraction_free(PolyMatrix([[qbinomial(big, small).shift(s)
                                              for s, big, small in row] for row in entries]))
    facts, keys = [], []
    for row in entries:
        row_facts, row_keys = [], []
        for s, big, small in row:
            if 0 <= small <= big:
                k = min(small, big - small)
                row_facts.append((s, s + k * (big - k), comb(big, small)))
                row_keys.append((big - k, k))
            else:
                row_facts.append(None)
                row_keys.append(None)
        facts.append(row_facts)
        keys.append(row_keys)
    return _det_core(facts, partial(_chain_values, keys), _nonnegative)


def _chain_values(keys: list[list[tuple[int, int] | None]],
                  half: int) -> tuple[list[list[int]], list[list[int]]]:
    """Values of [r + k choose k] at q = +-2**(8*half), for each key (r, k); 0 for None.

    One chain runs per r, to the largest k asked of it.
    """
    longest: dict[int, int] = {}
    for row in keys:
        for key in row:
            if key and longest.get(key[0], -1) < key[1]:
                longest[key[0]] = key[1]
    chains = {r: _qbinomial_chain(r, k, half) for r, k in longest.items()}
    plus = [[chains[key[0]][0][key[1]] if key else 0 for key in row] for row in keys]
    minus = [[chains[key[0]][1][key[1]] if key else 0 for key in row] for row in keys]
    return plus, minus


def _qbinomial_chain(r: int, k: int, half: int) -> tuple[list[int], list[int]]:
    """[r + i choose i] at q = Y and at q = -Y, Y = 2**(8*half), for i = 0..k.

    The paths' last-step recurrence [r + i choose i] = [r + i - 1 choose
    i - 1] * (1 - q**(r + i)) / (1 - q**i), run on ints at each point: a
    product by the two-term 1 - y**(r + i) is one shift and one
    subtraction, and the exact quotient by 1 - y**i is ``_div_one_minus``,
    checked by multiplying back.  Before it runs, the chain is charged
    against ``laurent._MAX_BIGINT_WORK`` as two points times k steps times
    the doublings of a division, (r + 1).bit_length(), times the bytes of
    its last value, half * k * r; past the limit it raises ValueError.
    """
    work = 2 * k * (r + 1).bit_length() * half * k * r
    if work > laurent._MAX_BIGINT_WORK:
        raise ValueError(f"the Gaussian binomial chain [{r} + i choose i] to i = {k} at "
                         f"{half}-byte points would take {work} steps, over the limit of "
                         f"{laurent._MAX_BIGINT_WORK}")
    unit = 8 * half
    at_plus, at_minus = [1], [1]
    for values, sign in ((at_plus, 1), (at_minus, -1)):
        value = 1
        for i in range(1, k + 1):
            # y**j is negative at y = -Y for odd j
            top = value << unit * (r + i)
            value = _div_one_minus(value + top if sign < 0 and (r + i) & 1 else value - top,
                                   unit * i, sign < 0 and i & 1)
            values.append(value)
    return at_plus, at_minus


def _div_one_minus(num: int, shift: int, negative: bool) -> int:
    """The exact quotient num / (1 - t), t = -2**shift if negative else 2**shift, shift >= 1.

    |num / (1 - t)| < 2**(b - 1), b = max(num.bit_length() - shift + 2, 1),
    so the quotient is its residue mod 2**b, read as signed.  That residue is
    num * (1 + t) (1 + t**2) (1 + t**4) ..., which is num / (1 - t) mod
    2**(2 * shift * 2**j) after the factor t**(2**j): each factor doubles
    the precision and costs one shift and one addition, so no divmod runs.
    The quotient is then multiplied back, one shift and one subtraction;
    a mismatch means that num was no multiple of 1 - t, and raises
    RuntimeError.
    """
    bits = max(num.bit_length() - shift + 2, 1)
    mask = (1 << bits) - 1
    quot = num & mask
    step = shift
    if step < bits:
        quot = (quot - (quot << step) if negative else quot + (quot << step)) & mask
        step <<= 1
    while step < bits:
        quot = (quot + (quot << step)) & mask
        step <<= 1
    if quot >> (bits - 1):
        quot -= 1 << bits
    if (quot + (quot << shift) if negative else quot - (quot << shift)) != num:
        raise RuntimeError("Gaussian binomial chain lost exactness")
    return quot
