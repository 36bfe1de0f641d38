"""Schur polynomials specialized at geometric points x_j = q**a_j.

Five independent evaluation routes are provided on purpose; their exact
agreement is part of the test contract:

* ``bialternant``     -- ratio of two alternant determinants,
* ``tableau_sum``     -- sum over semistandard tableaux, one horizontal strip
                         per letter (the branching rule),
* ``principal_product`` -- hook-style product for the point (1, q, ..., q**(m-1)),
* ``h_determinant``   -- determinant of complete homogeneous sums,
* ``gv_determinant``  -- determinant of twisted Gaussian binomials coming
                         from counting nonintersecting lattice paths.

Points are given as exponent tuples (ints, possibly negative).  Repeated
exponents make the bialternant denominator vanish and are rejected with
DegeneratePoint rather than handled by a limit.

An alternant at a geometric point is a determinant of monomials,
det(q**(a_j * e_k)).  Up to ``_LEIBNIZ_MAX_ROWS`` rows it is the Leibniz
expansion, a signed sum of n! monomials collected into one term dict;
above that, n! outgrows the polynomial work of fraction-free (Bareiss)
elimination, which computes it instead.  ``bialternant`` and the divisor
of the Schur pairing of ``identities`` build on this one alternant.  The
pairing's numerators, the alternants of every shape in a box, are the
maximal minors of one monomial matrix, which ``_maximal_minors`` computes
all at once.

``bialternant`` refuses a quotient whose degree span passes
``laurent._MAX_DENSE_COEFFS``, and ``tableau_sum`` a branching of more
than ``_MAX_BRANCHING_STEPS`` steps, before any polynomial is built.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate, permutations, product
from math import prod
from operator import getitem, sub
from typing import Callable, Sequence

from .laurent import _MAX_DENSE_COEFFS, LaurentPoly, PolyMatrix, det_fraction_free, q_ratio
from .partitions import Partition, check_partition, n_statistic, pad, strip
from .qanalogs import h_complete, qbinomial

GeometricPoint = tuple[int, ...]


class DegeneratePoint(ValueError):
    """A geometric point with repeated exponents where distinct ones are required."""


def _require_distinct(exponents: Sequence[int]) -> None:
    if len(set(exponents)) != len(exponents):
        raise DegeneratePoint(f"exponents must be distinct: {tuple(exponents)}")


# Alternants with at most this many rows use the Leibniz expansion.  One
# alternant at a principal point, CPython 3.11: 6 rows take 0.3-0.5 ms by
# Leibniz and 1.5-2.3 ms by Bareiss, 7 rows 4 ms and 5-7 ms, 8 rows 25-39 ms
# and 8-22 ms.  At 7 rows the gain does not repay building the 5040-entry
# permutation table in a one-shot call.
_LEIBNIZ_MAX_ROWS = 6


@cache
def _signed_permutations(n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Every permutation of range(n) with its sign; only n <= _LEIBNIZ_MAX_ROWS."""
    out = []
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        out.append((-1 if inversions & 1 else 1, perm))
    return tuple(out)


def _alternant(exponents: Sequence[int], lam: Sequence[int]) -> LaurentPoly:
    """The alternant det(q**(a_j * e_k)), e = lam + delta, at the point q**a.

    delta = (n-1, ..., 1, 0) with n = len(exponents), and lam is padded to
    n parts (ValueError if it has more).  A repeated exponent gives 0.
    """
    n = len(exponents)
    powers = [part + n - 1 - k for k, part in enumerate(pad(lam, n))]
    if n > _LEIBNIZ_MAX_ROWS:
        return det_fraction_free(PolyMatrix(
            [[LaurentPoly.q_power(x * e) for e in powers] for x in exponents]))
    rows = [[x * e for e in powers] for x in exponents]
    terms: dict[int, int] = {}
    for sign, perm in _signed_permutations(n):
        e = sum(map(getitem, rows, perm))
        terms[e] = terms.get(e, 0) + sign
    return LaurentPoly(terms)


def _maximal_minors(exponents: Sequence[int], cols: int, width: int,
                    fixed: int = 0) -> tuple[int, dict[int, int]]:
    """Every maximal minor of the monomial matrix (q**(a_j * c)), packed.

    The matrix has one row per exponent a_j and the columns c = 0..cols-1.
    Row j is shifted by q**(-low_j), low_j = min(0, a_j * (cols - 1)), so
    every entry is a polynomial, and the minors are returned as their
    values at X = 2**(8*width), keyed by their column set as a bitmask,
    with the columns in increasing order.  Only the column sets that
    contain the columns 0..fixed-1 are computed.  The first value
    returned is sum_j low_j, the exponent the minors were shifted by.

    One Laplace dynamic program over the rows: the state after r rows is
    a set T of r columns with the minor of those rows on T, and row r
    extends it by each free column c, whose sign is (-1) to the number of
    columns of T above c.  A state that holds more than n - fixed
    columns from fixed on, n = len(exponents), cannot reach a wanted set
    and is never built.  The
    values are exact ints whatever the width; it only has to be the same
    for every minor that is later combined with these.
    """
    n = len(exponents)
    free = n - fixed
    level = {0: 1}
    low_sum = 0
    for x in exponents:
        low = min(0, x * (cols - 1))
        low_sum += low
        shifts = [8 * width * (x * c - low) for c in range(cols)]
        nxt: dict[int, int] = {}
        for mask, value in level.items():
            top = cols if (mask >> fixed).bit_count() < free else fixed
            odd = (mask >> top).bit_count() & 1
            for c in range(top - 1, -1, -1):
                bit = 1 << c
                if mask & bit:
                    odd ^= 1
                    continue
                term = -(value << shifts[c]) if odd else value << shifts[c]
                key = mask | bit
                nxt[key] = nxt.get(key, 0) + term
        level = nxt
    return low_sum, level


def _require_quotient_span(lam: Sequence[int], exponents: Sequence[int]) -> None:
    """Refuse a bialternant quotient of more than ``_MAX_DENSE_COEFFS`` coefficients.

    S_lam(q**a) has degree sum_i lam_i * a_(i) with a sorted decreasing and
    valuation the same sum with a sorted increasing (the monomial x**lam
    dominates every other), so the span is known in n log n steps.  It
    bounds the quotient's terms, so the steps of its long division, and
    the digits of its Kronecker division.
    """
    span = sum(part * (hi - lo) for part, hi, lo
               in zip(lam, sorted(exponents, reverse=True), sorted(exponents))) + 1
    if span > _MAX_DENSE_COEFFS:
        raise ValueError(f"shape {strip(lam)} in {len(exponents)} letters has a quotient of "
                         f"{span} coefficients, over the limit of {_MAX_DENSE_COEFFS}")


def bialternant(lam: Sequence[int], exponents: Sequence[int]) -> LaurentPoly:
    """Alternant ratio det(x_j**(lam_k + N - k)) / det(x_j**(N - k)) at x_j = q**a_j.

    Both alternants come from ``_alternant`` (Leibniz up to
    ``_LEIBNIZ_MAX_ROWS`` variables, Bareiss above) with the same column
    order, so the value does not depend on any sign convention.  The
    division is exact.  A quotient that would span more than
    ``laurent._MAX_DENSE_COEFFS`` exponents raises ValueError before any
    work.
    """
    _require_distinct(exponents)
    lam = check_partition(lam)
    _require_quotient_span(lam, exponents)
    return _alternant(exponents, lam).exact_div(_alternant(exponents, ()))


def tableau_sum(lam: Sequence[int], exponents: Sequence[int]) -> LaurentPoly:
    """Sum of q**(sum of a over entries) over all SSYT of shape lam, entries <= len(exponents).

    Computed by the branching rule, see ``_tableau_series``; the exponents
    may be negative or repeated.  A shape whose branching would take more
    than ``_MAX_BRANCHING_STEPS`` steps raises ValueError before any
    polynomial is built.
    """
    lam = strip(check_partition(lam))
    m = len(exponents)
    if len(lam) > m:
        raise ValueError(f"shape {lam} needs more than {m} letters")
    return _tableau_series(exponents, _MAX_BRANCHING_STEPS)(lam)


# The most steps tableau_sum may take, counted as in _tableau_series.  A
# step is one term added to a series; making an interlacing pair (its tuple,
# its strip and its memo entry) costs about _PAIR_STEPS of them.  CPython
# 3.11 takes 40-140 ns a step and keeps every level's series: (1,) in 3000
# letters counts 4.5 * 10**6 steps and takes 0.65 s and 300 MB of peak
# RSS, and (300000,) in 2 letters, just past the limit, 2 s and 320 MB.
_MAX_BRANCHING_STEPS = 10**7
_PAIR_STEPS = 16


def _tableau_series(exponents: Sequence[int],
                    limit: int | None = None) -> Callable[[Sequence[int]], LaurentPoly]:
    """``tableau_sum`` at one point, as a function of the shape.

    The cells of letter r in an SSYT form a horizontal strip lam / mu, and
    the letters below r fill an SSYT of mu, so

        S_lam(x_1..x_r) = sum over mu < lam of x_r**|lam / mu| * S_mu(x_1..x_{r-1}),

    where mu < lam means lam_1 >= mu_1 >= lam_2 >= mu_2 >= ... with at most
    r - 1 parts (Macdonald, Symmetric Functions and Hall Polynomials,
    I (5.11)).  Each S_mu in r letters is computed once, for every shape
    asked of the returned function, so the shapes of one caller share
    their smaller shapes.  A shape must have at most len(exponents) parts.
    The levels run bottom-up in a loop, not by recursion, so the number of
    letters is not capped by the recursion limit.

    With a ``limit``, each level counts its steps before it builds the
    list of its pairs, and so before any polynomial: a shape mu on level r
    has prod_i (mu_i - mu_(i+1) + 1) interlacing nu, each a pair of
    ``_PAIR_STEPS`` steps, and the series of nu has at most
    |nu| * (max - min of a_1..a_(r-1)) + 1 terms to add.  Past the limit
    the call raises ValueError.
    """
    a = tuple(exponents)
    top = len(a)
    memo: dict[tuple[Partition, int], dict[int, int]] = {((), r): {0: 1} for r in range(top + 1)}
    # spreads[r]: max - min of the first r exponents
    spreads = [0, *map(sub, accumulate(a, max), accumulate(a, min))]

    def series(lam: Sequence[int]) -> LaurentPoly:
        lam = strip(lam)
        # the shapes each level needs that are not known yet, top level first
        levels: list[dict[Partition, list[Partition]]] = []
        pending = set() if (lam, top) in memo else {lam}
        steps = 0
        for r in range(top, 0, -1):
            ranges = {mu: _interlacing_ranges(mu, r - 1) for mu in pending}
            if limit is not None:
                for rs in ranges.values():
                    count = prod(map(len, rs))
                    # the sum of |nu| over the count nu: each range is run count / len times
                    size = count * sum(rg.start + rg.stop - 1 for rg in rs) // 2
                    steps += count * (_PAIR_STEPS + 1) + size * spreads[r - 1]
                if steps > limit:
                    raise ValueError(f"shape {lam} in {top} letters would take {steps} or more "
                                     f"branching steps, over the limit of {limit}")
            level = {mu: [strip(nu) for nu in product(*rs)] for mu, rs in ranges.items()}
            levels.append(level)
            pending = {nu for nus in level.values() for nu in nus if (nu, r - 1) not in memo}
        for r, level in enumerate(reversed(levels), start=1):
            x = a[r - 1]
            for mu, nus in level.items():
                size = sum(mu)
                acc: dict[int, int] = {}
                for nu in nus:
                    shift = x * (size - sum(nu))
                    for e, c in memo[nu, r - 1].items():
                        acc[e + shift] = acc.get(e + shift, 0) + c
                memo[mu, r] = acc
        return LaurentPoly(memo[lam, top])

    return series


def _interlacing_ranges(mu: Partition, parts: int) -> list[range]:
    """The ranges of nu_i for the nu with at most ``parts`` parts and mu_i >= nu_i >= mu_{i+1}."""
    return [range(mu[i + 1] if i + 1 < len(mu) else 0, mu[i] + 1)
            for i in range(min(len(mu), parts))]


def principal_product(lam: Sequence[int], m: int) -> LaurentPoly:
    """Product form of the specialization at (1, q, ..., q**(m-1)).

    q**n(lam) * prod over i < j <= m of (1 - q**(lam_i - lam_j - i + j)) / (1 - q**(j - i)),
    with lam padded to m parts.  Exact division of the two full products.
    """
    lam = pad(check_partition(lam), m)
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    ratio = q_ratio((lam[i] - lam[j] + j - i for i, j in pairs), (j - i for i, j in pairs))
    return ratio.shift(n_statistic(lam))


def h_determinant(lam: Sequence[int], m: int) -> LaurentPoly:
    """Jacobi-Trudi style determinant det(h(lam_i - i + j)) in m variables.

    Zero parts are stripped first: their trailing block of the matrix is
    unitriangular, so it does not change the determinant.
    """
    lam = strip(check_partition(lam))
    n = len(lam)
    if n > m:
        raise ValueError(f"shape {lam} needs more than {m} letters")
    if n == 0:
        return LaurentPoly.one()
    entries = [[h_complete(lam[i] - (i + 1) + (j + 1), m) for j in range(n)] for i in range(n)]
    return det_fraction_free(PolyMatrix(entries))


def gv_determinant(lam: Sequence[int], m: int) -> LaurentPoly:
    """Nonintersecting-path determinant of twisted Gaussian binomials.

    Entry (i, j) is q**((j-1)(lam_i + j - i)) * [lam_i + m - i choose m - j]
    over the nonzero parts of lam; requires m >= their number.
    """
    lam = strip(check_partition(lam))
    n = len(lam)
    if n == 0:
        return LaurentPoly.one()
    if m < n:
        raise ValueError(f"need at least {n} variables for {lam}")
    rows = [[qbinomial(lam[i - 1] + m - i, m - j).shift((j - 1) * (lam[i - 1] + j - i))
             for j in range(1, n + 1)] for i in range(1, n + 1)]
    return det_fraction_free(PolyMatrix(rows))

