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
det(q**(a_j * e_k)), so the alternants of all shapes at one point are the
maximal minors of one monomial matrix.  ``_maximal_minors`` computes them
with one dynamic program over column sets, packed as ints; it gives
``bialternant`` both of its alternants up to ``_MINORS_MAX_ROWS`` rows,
where fraction-free (Bareiss) elimination takes over, and
``_schur_pairing`` every alternant of a box, its divisor included.

``bialternant`` refuses a quotient whose degree span passes
``laurent._MAX_DENSE_COEFFS`` and an alternant of more than
``_MAX_ALTERNANT_WORK`` steps, ``tableau_sum`` a branching of more than
``_MAX_BRANCHING_STEPS`` steps, and ``_schur_pairing`` a box sum of more
than ``laurent._MAX_DENSE_COEFFS`` packed bytes or more than
``_MAX_ALTERNANT_WORK`` minor steps, before any polynomial is built.
"""

from __future__ import annotations

from itertools import accumulate, product
from math import comb, factorial, prod
from operator import sub
from typing import Callable, Sequence

from .laurent import (
    _MAX_DENSE_COEFFS,
    LaurentPoly,
    NotDivisible,
    PolyMatrix,
    _evaluate,
    _packed_quotient,
    det_fraction_free,
    q_ratio,
)
from .partitions import Partition, check_partition, n_statistic, pad, strip
from .qanalogs import h_complete, qbinomial

GeometricPoint = tuple[int, ...]


class DegeneratePoint(ValueError):
    """A geometric point with repeated exponents where distinct ones are required."""


def _require_distinct(exponents: Sequence[int]) -> None:
    if len(set(exponents)) != len(exponents):
        raise DegeneratePoint(f"exponents must be distinct: {tuple(exponents)}")


# Alternants with at most this many rows are one maximal minor, above it
# Bareiss eliminations.  bialternant at (0, ..., n-1) for (2,1), (3,2,1) and
# (5,5,5), CPython 3.11, minors time over Bareiss time: 0.30-0.54 from 6 to
# 12 rows, 0.61-0.84 at 14 (0.33-0.46 s) and 1.02-1.18 at 15 (0.9-1.3 s).
_MINORS_MAX_ROWS = 14

# The most work of an alternant, about 3 s of CPython 3.11; see _alternant.
_MAX_ALTERNANT_WORK = 10**10


def _alternant(exponents: Sequence[int], lam: Sequence[int], width: int) -> tuple[int, int]:
    """The alternant det(q**(a_j * e_k)), e = lam + delta, at q**a, packed.

    delta = (n-1, ..., 1, 0), n = len(exponents); lam is padded to n parts
    (ValueError if it has more).  Returns (low, value): value is q**(-low)
    times the alternant, a polynomial, at q = 2**(8*width); the width must
    hold n!, which bounds its coefficients.  A repeated exponent gives 0.
    Up to ``_MINORS_MAX_ROWS`` rows it is one maximal minor, above that a
    Bareiss elimination, and its work is predicted as their big-int steps
    times the bytes of the packed value.
    """
    n = len(exponents)
    columns = [part + k for k, part in enumerate(reversed(pad(lam, n)))]
    span = (columns[-1] - columns[0]) * sum(map(abs, exponents)) if n else 0
    low = sum(x * columns[0 if x >= 0 else -1] for x in exponents)
    minor = n <= _MINORS_MAX_ROWS
    # n * 2**(n-1) minor steps, or n**3 Bareiss steps of a product and a division,
    # 31-47 times as slow per byte at 14-15 rows, at the width of n**n < 2**(n bits(n))
    work = span * ((n << n >> 1) * width if minor else 32 * n**3 * (n * n.bit_length() // 8 + 1))
    if work > _MAX_ALTERNANT_WORK:
        raise ValueError(f"shape {strip(lam)} in {n} letters would take {work} alternant "
                         f"steps, over the limit of {_MAX_ALTERNANT_WORK}")
    if minor:
        value = _maximal_minors(exponents, columns, width)[(1 << n) - 1]
        # the minor lists its columns increasing, the alternant decreasing
        return low, -value if n & 2 else value
    det = det_fraction_free(PolyMatrix(
        [[LaurentPoly.q_power(x * e) for e in reversed(columns)] for x in exponents]))
    return low, _evaluate(dict(det.terms()), low, width)


def _maximal_minors(exponents: Sequence[int], columns: Sequence[int], width: int,
                    fixed: int = 0) -> dict[int, int]:
    """Every maximal minor of the monomial matrix (q**(a_j * c)), packed.

    One row per exponent a_j, one column per c in the increasing
    ``columns``; row j is shifted by q**(-low_j), low_j the least a_j * c.
    The minors are values at X = 2**(8*width), keyed by their column
    positions as a bitmask, the columns in increasing order; only the sets
    that hold the first ``fixed`` positions are computed.

    One Laplace dynamic program over the rows: the state after r rows is
    a set T of r columns with the minor of those rows on T, and row r
    extends it by each free column c, with the sign (-1) to the number of
    columns of T above c.  No state holds more than n - fixed columns
    past the fixed ones, n = len(exponents).  Any width gives exact ints,
    as long as it is the one of every minor they are combined with.
    """
    cols = len(columns)
    free = len(exponents) - fixed
    level = {0: 1}
    for x in exponents:
        low = x * columns[0 if x >= 0 else -1]
        # (bit, shift) per column, the highest column first
        steps = [(1 << c, 8 * width * (x * columns[c] - low)) for c in reversed(range(cols))]
        head = steps[cols - fixed:]
        nxt: dict[int, int] = {}
        get = nxt.get
        for mask, value in level.items():
            if (mask >> fixed).bit_count() < free:
                run, odd = steps, 0
            else:
                run, odd = head, (mask >> fixed).bit_count() & 1
            for bit, shift in run:
                if mask & bit:
                    odd ^= 1
                elif odd:
                    nxt[mask | bit] = get(mask | bit, 0) - (value << shift)
                else:
                    nxt[mask | bit] = get(mask | bit, 0) + (value << shift)
        level = nxt
    return level


def _schur_pairing(m: int, a: Sequence[int], b: Sequence[int]) -> LaurentPoly:
    """Sum of S_lam(q^a) S_lam(q^b) over lam inside the m**len(a) box.

    By the bialternant formula S_lam(q^a) = A_{lam+delta}(q^a) / A_delta(q^a)
    (Macdonald, Symmetric Functions and Hall Polynomials, I.3), the box sum
    of the numerator products is divided once by A_delta(q^a) A_delta(q^b),
    lam padded to len(a) and len(b) parts.  Each alternant is a maximal
    minor of (q^(a_j c)), c < m + len(a), on the columns lam + delta; on
    the b side, k = len(b) - len(a), on those shifted up by k plus 0..k-1.
    A minor's coefficients have absolute sum at most len(a)! or len(b)!
    (Leibniz), so the box sum's are at most B = C(m + len(a), len(a))
    len(a)! len(b)!, and packed at the least W with 2**(8W-1) > B its
    digits are its coefficients.  Row shifts and column-order signs are
    the same in the sum and the divisor, and cancel.  The packed sum is
    divided by the packed product of the two delta minors at that width
    (``laurent._packed_quotient``), and the quotient is proven from B and
    the divisor's absolute sum, at most len(a)! len(b)!; a quotient too
    large for that proof is divided again by ``LaurentPoly.exact_div``.
    A remainder means corrupted arithmetic and raises RuntimeError; a
    repeated exponent raises DegeneratePoint.  Needs len(a) <= len(b).

    Row j of a side is shifted by |x_j| (c - 1) digits at most, c its
    column count, so the box sum has at most the sum of those shifts over
    both sides plus one digit; when those digits times W pass
    ``laurent._MAX_DENSE_COEFFS`` bytes, ValueError is raised before any
    minor is built.  It is raised likewise when the two DPs' predicted
    work passes ``_MAX_ALTERNANT_WORK``: their states, (1 + 2**k) times
    the sum of C(m + len(a), j) over j <= len(a), each visiting
    m + len(b) columns, times those bytes, as ``_alternant`` charges.
    """
    _require_distinct(a)
    _require_distinct(b)
    na, nb = len(a), len(b)
    k = nb - na
    if not na:
        return LaurentPoly.one()  # the box of no rows holds only the empty shape
    norm = factorial(na) * factorial(nb)
    bound = comb(m + na, na) * norm
    width = bound.bit_length() // 8 + 1
    size = width * (sum(map(abs, a)) * (m + na - 1) + sum(map(abs, b)) * (m + nb - 1) + 1)
    if size > _MAX_DENSE_COEFFS:
        raise ValueError(f"the Schur pairing over the {m}**{na} box at {tuple(a)} and {tuple(b)} "
                         f"would pack {size} bytes, over the limit of {_MAX_DENSE_COEFFS}")
    # the a side's DP holds every set of at most na of its m + na columns, the
    # b side's any of its k fixed columns besides; each visits m + nb columns
    states = (1 + (1 << k)) * sum(comb(m + na, j) for j in range(na + 1))
    work = states * (m + nb) * size
    if work > _MAX_ALTERNANT_WORK:
        raise ValueError(f"the Schur pairing over the {m}**{na} box at {tuple(a)} and {tuple(b)} "
                         f"would take {work} minor steps, over the limit of {_MAX_ALTERNANT_WORK}")
    minors_a = _maximal_minors(a, range(m + na), width)
    minors_b = _maximal_minors(b, range(m + nb), width, fixed=k)
    below = (1 << k) - 1
    value = sum(minor * minors_b[(cols << k) | below] for cols, minor in minors_a.items())
    delta = minors_a[(1 << na) - 1] * minors_b[(1 << nb) - 1]
    try:
        return _packed_quotient(value, delta, 0, width, bound, norm)
    except NotDivisible as exc:
        raise RuntimeError("Schur pairing lost exactness") from exc


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

    Both alternants come from ``_alternant`` at one width, and the quotient
    is one integer division.  S_lam(q**a) has a term q**e per tableau, so
    its coefficients are at most S_lam(1, ..., 1) = prod over i < j of
    (lam_i - lam_j + j - i) / (j - i) (Weyl); a width that holds that and
    N! makes the quotient's digits its coefficients.  A remainder raises
    RuntimeError; a quotient spanning more than ``laurent._MAX_DENSE_COEFFS``
    exponents, or an alternant of more than ``_MAX_ALTERNANT_WORK`` steps,
    raises ValueError before any work.
    """
    _require_distinct(exponents)
    lam = strip(check_partition(lam))
    _require_quotient_span(lam, exponents)
    n = len(exponents)
    full = pad(lam, n)
    # a pair of zero parts adds a factor 1 to S_lam(1, ..., 1)
    pairs = [(i, j) for i in range(len(lam)) for j in range(i + 1, n)]
    dim = prod(full[i] - full[j] + j - i for i, j in pairs) // prod(j - i for i, j in pairs)
    width = max(dim, factorial(n)).bit_length() // 8 + 1
    low, top = _alternant(exponents, full, width)
    low_delta, bottom = _alternant(exponents, (), width)
    try:
        return _packed_quotient(top, bottom, low - low_delta, width)
    except NotDivisible as exc:
        raise RuntimeError("bialternant lost exactness") from exc


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

