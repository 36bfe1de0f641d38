"""Schur polynomials specialized at geometric points x_j = q**a_j.

Five independent evaluation routes are provided on purpose; their exact
agreement is part of the test contract:

* ``bialternant``     -- ratio of two alternant determinants,
* ``tableau_sum``     -- sum over semistandard tableaux, one horizontal strip
                         per letter (the branching rule), as sweeps over the
                         shapes of each level,
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

The branching rule runs on packed ints too.  ``_tableau_series`` builds
the tableau series of every shape between two bounds, letter by letter:
each level's sum over interlacing shapes is one shift-add per state and
coordinate, and ``_weyl_dim`` bounds the coefficients a priori.  It gives
``tableau_sum`` its one shape and ``paths.watermelon_genfunc`` both nests
of every interface; it shares nothing with the pairing but the unpacking.

``bialternant`` refuses a quotient whose degree span passes
``laurent._MAX_DENSE_COEFFS`` and an alternant of more than
``laurent._MAX_BIGINT_WORK`` steps, and ``_schur_pairing`` a box sum of
more than ``laurent._MAX_DENSE_COEFFS`` packed bytes or more than
``laurent._MAX_BIGINT_WORK`` minor steps, before any polynomial is built
(a Bareiss alternant by a lower bound, then by ``det_fraction_free``'s
charge before any entry is packed); the packed quotient both end in
refuses a divmod past that same limit before it runs.
``tableau_sum`` refuses a branching and unpacking of more than
``_MAX_BRANCHING_STEPS`` steps before it sweeps the level that passes the
limit.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, starmap
from math import comb, factorial, perm, prod
from operator import sub
from typing import Sequence

from .laurent import (
    _MAX_BIGINT_WORK,
    _MAX_DENSE_COEFFS,
    LaurentPoly,
    NotDivisible,
    PolyMatrix,
    _dense,
    _det_work,
    _pack,
    _packed_quotient,
    _unpack_poly,
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


def _alternant(exponents: Sequence[int], lam: Sequence[int], width: int) -> tuple[int, int]:
    """The alternant det(q**(a_j * e_k)), e = lam + delta, at q**a, packed.

    delta = (n-1, ..., 1, 0), n = len(exponents); lam is padded to n parts
    (ValueError if it has more).  Returns (low, value): value is q**(-low)
    times the alternant, a polynomial, at q = 2**(8*width); the width must
    hold n!, which bounds its coefficients.  A repeated exponent gives 0.
    Up to ``_MINORS_MAX_ROWS`` rows it is one maximal minor, whose work is
    predicted as its n * 2**(n-1) big-int steps times the bytes of the
    packed value; above that it is ``det_fraction_free`` of the monomial
    matrix, which charges it once, and a lower bound of that charge, the
    elimination of n x n constants, is charged before the matrix is built.
    """
    n = len(exponents)
    columns = [part + k for k, part in enumerate(reversed(pad(lam, n)))]
    span = (columns[-1] - columns[0]) * sum(map(abs, exponents)) if n else 0
    low = sum(x * columns[0 if x >= 0 else -1] for x in exponents)
    minor = n <= _MINORS_MAX_ROWS
    if minor:
        work = span * (n << n >> 1) * width
    else:
        # every minor holds a coefficient, so eliminating n x n constants at
        # det_fraction_free's width of n**n bounds its charge from below
        work = _det_work([[0] * n] * n, (n**n).bit_length() // 8 + 1, 0)[2]
    if work > _MAX_BIGINT_WORK:
        raise ValueError(f"shape {strip(lam)} in {n} letters would take {work} alternant "
                         f"steps, over the limit of {_MAX_BIGINT_WORK}")
    if minor:
        value = _maximal_minors(exponents, columns, width)[(1 << n) - 1]
        # the minor lists its columns increasing, the alternant decreasing
        return low, -value if n & 2 else value
    det = det_fraction_free(PolyMatrix(
        [[LaurentPoly.q_power(x * e) for e in reversed(columns)] for x in exponents]))
    low, coeffs = _dense(det._terms) if det else (low, [])
    return low, _pack(coeffs, width)


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
    large for that proof is divided again at a wider width.
    A remainder means corrupted arithmetic and raises RuntimeError; a
    repeated exponent raises DegeneratePoint.  Needs len(a) <= len(b).

    Row j of a side is shifted by |x_j| (c - 1) digits at most, c its
    column count, so the box sum has at most the sum of those shifts over
    both sides plus one digit; when those digits times W pass
    ``laurent._MAX_DENSE_COEFFS`` bytes, ValueError is raised before any
    minor is built.  It is raised likewise when the two DPs' predicted
    work passes ``laurent._MAX_BIGINT_WORK``: their states, (1 + 2**k) times
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
    if work > _MAX_BIGINT_WORK:
        raise ValueError(f"the Schur pairing over the {m}**{na} box at {tuple(a)} and {tuple(b)} "
                         f"would take {work} minor steps, over the limit of {_MAX_BIGINT_WORK}")
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
    exponents, or an alternant of more than ``laurent._MAX_BIGINT_WORK``
    steps, raises ValueError before it is computed, and a quotient past
    that limit before its divmod.
    """
    _require_distinct(exponents)
    lam = strip(check_partition(lam))
    _require_quotient_span(lam, exponents)
    n = len(exponents)
    full = pad(lam, n)
    width = max(_weyl_dim(lam, n), factorial(n)).bit_length() // 8 + 1
    low, top = _alternant(exponents, full, width)
    low_delta, bottom = _alternant(exponents, (), width)
    try:
        return _packed_quotient(top, bottom, low - low_delta, width)
    except NotDivisible as exc:
        raise RuntimeError("bialternant lost exactness") from exc


def tableau_sum(lam: Sequence[int], exponents: Sequence[int]) -> LaurentPoly:
    """Sum of q**(sum of a over entries) over all SSYT of shape lam, entries <= len(exponents).

    Computed by the branching rule, see ``_tableau_series``, as one packed
    int: the sweep between the bounds lo = hi = lam.  The exponents may be
    negative or repeated.  Its coefficients are at most the number of
    tableaux, S_lam(1, ..., 1) (``_weyl_dim``), so a width that holds that
    makes the digits the coefficients.  A shape whose branching and
    unpacking would take more than ``_MAX_BRANCHING_STEPS`` steps raises
    ValueError before any shift-add of the level past the limit runs, or
    before the unpacking, which is charged by the digits of the dense
    result: a point with a wide gap between its exponents pays for the
    zero digits between its terms.
    """
    lam = strip(check_partition(lam))
    m = len(exponents)
    if len(lam) > m:
        raise ValueError(f"shape {lam} needs more than {m} letters")
    width = _weyl_dim(lam, m).bit_length() // 8 + 1
    [value] = _tableau_series(exponents, lam, lam, width, _MAX_BRANCHING_STEPS).values()
    return _unpack_poly(value, min(exponents, default=0) * sum(lam),
                        value.bit_length() // (8 * width) + 1, width)


# typed, as qanalogs.qbinomial: a cached int key cannot answer a bool key
@lru_cache(maxsize=None, typed=True)
def _weyl_dim(lam: tuple[int, ...], n: int) -> int:
    """S_lam(1, ..., 1) in n letters, the number of SSYT of shape lam with entries <= n.

    Weyl's product over 0 <= i < j < n of (lam_i - lam_j + j - i) / (j - i),
    lam a partition with at most n nonzero parts.  With l_i = lam_i - i over
    the p nonzero parts, the pairs of part i with the zero parts give
    (l_i + n - 1)! / (l_i + p - 1)! over (n - 1 - i)! / (p - 1 - i)!, and the
    pairs of two nonzero parts give l_i - l_j over (p - 1 - i)! in all.  Per
    part that is C(l_i + n - 1, lam_i) over the falling factorial
    (l_i + p - 1) ... (lam_i + 1), so a long alphabet builds no large
    factorial; p parts make C(p, 2) pairs, and a remainder raises
    RuntimeError.  Memoized: watermelon width bounds ask for the same shapes.
    """
    parts = len(lam) - lam.count(0)
    shifted = list(map(sub, lam, range(parts)))
    value = prod(starmap(sub, combinations(shifted, 2)))
    for x, part in zip(shifted, lam):
        value *= comb(x + n - 1, part)
    value, rem = divmod(value, prod(perm(x + parts - 1, parts - 1 - i)
                                    for i, x in enumerate(shifted)))
    if rem:
        raise RuntimeError("Weyl's product lost exactness")
    return value


# The most steps tableau_sum may take, counted as in _tableau_series.  A
# visit builds one state of a level or sweeps one coordinate of it, and
# costs _VISIT_STEPS plus a step per _VISIT_BYTES bytes of the series it
# reads or makes.  CPython 3.11 on a shared 2-core VM, least squares over
# 18 shapes of 3 to 3000 letters: 395 ns a visit and 0.26 ns a byte, so a
# step is about 23 ns and 10**7 steps about 0.25 s.  A byte is charged six
# times its time, so that the series of one call stay below
# _VISIT_BYTES * 10**7 = 160 MB.  Unpacking the result costs 50 to 700 ns
# a digit (700 at the widths with no native cast), _DIGIT_STEPS steps, so
# a sparse point pays for the zero digits between its terms.  Charged so,
# 18 shapes from (140000,) in 2 letters to (1,) in 6000 took 4 to 24 ns a
# step: (90000,) in 2 letters, about 0.2 s, and (10, 10, 10) in 20
# letters, 0.02 s, are accepted, and (1,) at (0, 4 * 10**5), two terms
# 400,000 digits apart, is refused.
_MAX_BRANCHING_STEPS = 10**7
_VISIT_STEPS = 17
_VISIT_BYTES = 16
_DIGIT_STEPS = 30

# The rise of a floor over its states' lower bound up to which the states
# below it keep running sums.  The halvings pay a list and a few passes per
# line, so running sums are faster at small rises and the halvings at large
# ones (microseconds, running vs halvings, width 3): (32,) at (0, 1) 41 vs
# 54, at (0, 7) 49 vs 56, (32, 32) at (0, 3, 7) 580 vs 729, (64,) at (0, 7)
# 102 vs 86, (256,) at (0, 1) 240 vs 205, (1024,) at (0, 1) 2972 vs 829.
_RUNNING_SUM_RISE = 32


def _tableau_series(exponents: Sequence[int], lo: Sequence[int], hi: Sequence[int],
                    width: int, limit: int | None = None) -> dict[Partition, int]:
    """The tableau series of every shape between the partitions lo and hi, packed.

    Maps each partition nu with lo_i <= nu_i <= hi_i, padded to len(hi)
    parts, to q**(-a_1 |nu|) S_nu(q**a) at q = 2**(8*width), a the
    exponents sorted increasing (S_nu is symmetric, so the order is free)
    and a_1 the least.  hi must have at most len(exponents) parts and
    contain lo.  A value is only ever shifted and added, so the ints are
    exact at any width; the digits are the coefficients when the width
    holds the largest coefficient asked for.

    The cells of letter r in an SSYT form a horizontal strip mu / nu, and
    the letters below r fill an SSYT of nu, so

        S_mu(x_1..x_r) = sum over nu < mu of x_r**|mu / nu| * S_nu(x_1..x_{r-1}),

    where nu < mu means mu_i >= nu_i >= mu_(i+1) for every i, nu with at
    most r - 1 parts (Macdonald, Symmetric Functions and Hall Polynomials,
    I (5.11)).  Level r holds the shapes of r letters that lie below a
    target in a Gelfand-Tsetlin chain: lo_(i+N-r) <= nu_i <= hi_i, N the
    number of letters.  The sum over the box of nu runs one coordinate at
    a time, i = r, ..., 1.  Part r of nu is 0, so a new last coordinate is
    set at once to x_r**mu_r times the shape above it.  Every other one is
    swept in place, over the states in increasing lexicographic order:

        H(v) = H(v) + (H(v - e_i) << 8 * width * (a_r - a_1)),

    which turns coordinate i from nu_i into mu_i, nu_i running from
    mu_(i+1) (the state's next coordinate, already turned) up to mu_i, and
    mu_i no more than nu_(i-1) (the state's previous coordinate, not yet
    turned).  The states take level r - 1's lower bounds low_i and level
    r's upper bounds.  A state below level r's lower bound f_i is read only
    by the state at f_i on its line.  When f_i - low_i is at most
    ``_RUNNING_SUM_RISE``, such states keep their running sums like any
    other; past that, a running sum per state would cost the line's length
    squared, so the state at f_i takes the sum of its line up to f_i at
    once, by halves (``_stacked``), and the states below f_i are dropped.
    Every state below f_i lies on a line that reaches f_i, so the sums at
    f_i drop them all: its coordinate i - 1 (i > 1), not yet turned, is at
    least level r - 1's lower bound there, which is f_i, and hi_i >= f_i,
    while the sweeps of later coordinates drop states by those coordinates
    alone, so whole lines of i.  The new last coordinate's factor
    x_r**mu_r, the same along every line, then waits for the sweeps, so
    the dropped states never carry it.  The next level, and the targets at
    the end, read only the shapes of their own bounds.  A state is one
    int, its coordinates digits in base hi_1 + 1, so v - e_i is one
    subtraction.  Coordinates past len(hi) are 0 and are not kept, and one
    whose bounds are equal is not swept, so a long alphabet does not build
    long states.

    With a ``limit``, each level is charged as its states are generated,
    before any of them is swept.  A visit is ``_VISIT_STEPS`` steps plus a
    step per ``_VISIT_BYTES`` bytes of the series it reads or makes, at
    most width * (s' |hi| + (s - s') t + 1) bytes: s = a_r - a_1 and
    s' = a_(r-1) - a_1 are the spreads of levels r and r - 1, |hi| runs
    over the level's coordinates and t is the sum of hi_j - low_j over the
    coordinates j turned so far (hi_j for a new one).  A state costs one
    visit to build, and per swept coordinate i one visit after the sweep
    of i.  Past the rise, a state below f_i costs instead two visits
    before the sweep (its share of the halvings) and is dropped, and a
    state at f_i ceil(log2(f_i - low_i + 1)) more (one per halving); a new
    coordinate's factor is then one more visit for each state not dropped,
    with every coordinate turned.  After the last level, the caller's
    unpacking of one target is charged ``_DIGIT_STEPS`` a digit,
    (a_N - a_1) |hi| + 1 digits.  Past the limit the call raises
    ValueError.
    """
    a = sorted(exponents)
    top = len(a)
    hi = strip(hi)
    lo = pad(strip(lo), top + 1)
    radix = hi[0] + 1 if hi else 1
    level = {0: 1}
    kept = 0
    steps = 0
    for r in range(1, top + 1):
        kept = min(r, len(hi))
        grown = r <= len(hi)
        # level r - 1's lower bounds, level r's upper bounds; a new last
        # coordinate was 0 on level r - 1 and takes level r's bounds
        bounds = [(lo[c + top - r + (c < kept - 1 or not grown)], hi[c]) for c in range(kept)]
        free = [c for c in range(kept - 1 if grown else kept) if bounds[c][0] < bounds[c][1]]
        spread = a[r - 1] - a[0]
        shift = 8 * width * spread
        # a new last coordinate's factor x_r**mu_r is the same along every
        # line of a sweep; it waits for the sweeps that drop states
        late = grown and any(lo[c + top - r] - bounds[c][0] > _RUNNING_SUM_RISE for c in free)
        if limit is not None:
            prev = a[r - 2] - a[0] if r > 1 else 0
            fixed = prev * sum(hi[:kept]) + 1

            def visit(turned: int) -> int:
                return _VISIT_STEPS + width * (fixed + (spread - prev) * turned) // _VISIT_BYTES

            turned = hi[kept - 1] if grown and not late else 0
        states = [0]
        for c, (low, high) in enumerate(bounds):
            if limit is not None:
                # each prefix extends to a state, so a level has at least as
                # many states as prefixes
                count = (sum(min(high, key % radix) for key in states) if c else high) \
                    - (low - 1) * len(states)
                _check_branching(hi, top, steps + count * visit(turned), limit)
            if c:
                states = [key * radix + v for key in states
                          for v in range(low, min(high, key % radix) + 1)]
            else:
                states = list(range(low, high + 1))
        if limit is not None:
            steps += len(states) * visit(turned)
            alive = [True] * len(states)
            for c in reversed(free):
                low, high = bounds[c]
                floor = lo[c + top - r]
                before = visit(turned)
                turned += high - low
                if floor - low <= _RUNNING_SUM_RISE:
                    steps += len(states) * visit(turned)
                    continue
                stride = radix ** (kept - 1 - c)
                digits = [key // stride % radix for key in states]
                under = sum(d < floor for d in digits)
                halvings = digits.count(floor) * (floor - low).bit_length()
                steps += 2 * under * before + (len(states) - under + halvings) * visit(turned)
                alive = [up and d >= floor for up, d in zip(alive, digits)]
            if late:
                steps += sum(alive) * visit(turned + hi[kept - 1])
            _check_branching(hi, top, steps, limit)
        old = level.get
        if late:
            series = {key: old(key // radix, 0) for key in states}
        elif grown:
            # every cell of the new row holds r: x_r**mu_r times the shape above it
            series = {key: old(key // radix, 0) << shift * (key % radix) for key in states}
        else:
            series = {key: old(key, 0) for key in states}
        get = series.get
        for c in reversed(free):
            stride = radix ** (kept - 1 - c)
            floor = lo[c + top - r]
            if floor - bounds[c][0] <= _RUNNING_SUM_RISE:
                for key in states:
                    below = get(key - stride)
                    if below:
                        series[key] += below << shift
                continue
            # the states below the floor go into the sums at the floor
            rising = []
            for key in states:
                digit = key // stride % radix
                if digit > floor:
                    below = get(key - stride)
                    if below:
                        series[key] += below << shift
                elif digit == floor:
                    line = [series[key]]
                    key_below = key - stride
                    while key_below in series:
                        line.append(series.pop(key_below))
                        key_below -= stride
                    series[key] = _stacked(line, shift)
                else:
                    continue
                rising.append(key)
            states = rising
        if late:
            series = {key: value << shift * (key % radix) for key, value in series.items()}
        level = series
    if limit is not None:
        # the caller unpacks a target of up to (a_N - a_1) |hi| + 1 digits
        steps += _DIGIT_STEPS * ((a[-1] - a[0] if a else 0) * sum(hi) + 1)
        _check_branching(hi, top, steps, limit)
    # the targets, level N's shapes, with their keys
    shapes = [((), 0)]
    for c in range(kept):
        shapes = [(shape + (v,), key * radix + v) for shape, key in shapes
                  for v in range(lo[c], min(hi[c], shape[-1] if c else hi[0]) + 1)]
    return {shape: level[key] for shape, key in shapes}


def _stacked(values: list[int], shift: int) -> int:
    """The sum of values[t] << shift * t, added by halves.

    n ints of b bytes at a shift of s bytes cost about 2 n b + n s log2(n)
    bytes of shift-adds, where adding them one by one costs about n**2 s / 2.
    """
    while len(values) > 1:
        pairs = [low + (high << shift) for low, high in zip(values[::2], values[1::2])]
        if len(values) % 2:
            pairs.append(values[-1])
        values = pairs
        shift *= 2
    return values[0]


def _check_branching(lam: Partition, letters: int, steps: int, limit: int) -> None:
    if steps > limit:
        raise ValueError(f"shape {lam} in {letters} letters would take {steps} or more "
                         f"branching steps, over the limit of {limit}")


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

    The determinant has nonnegative coefficients, so ``det_fraction_free``
    packs it at the width of its value at q = 1.  Entry (i, j) is the
    weight sum of the north-east lattice paths from S_j = (-j, 1) to
    T_i = (lam_i - i, m), an east step at height y weighing q**(y-1): the
    lam_i - i + j east steps choose their heights as a multiset, which is
    h(lam_i - i + j) at (1, q, ..., q**(m-1)).  The sources lie on y = 1
    and the sinks on y = m in the same order (lam_i - i decreases), so by
    the Lindstrom-Gessel-Viennot lemma the determinant is the weight sum of
    the nonintersecting families joining S_i to T_i, each a power of q.
    """
    lam = strip(check_partition(lam))
    n = len(lam)
    if n > m:
        raise ValueError(f"shape {lam} needs more than {m} letters")
    if n == 0:
        return LaurentPoly.one()
    entries = [[h_complete(lam[i] - (i + 1) + (j + 1), m) for j in range(n)] for i in range(n)]
    return det_fraction_free(PolyMatrix(entries), _nonnegative=True)


def gv_determinant(lam: Sequence[int], m: int) -> LaurentPoly:
    """Nonintersecting-path determinant of twisted Gaussian binomials.

    Entry (i, j) is q**((j-1)(lam_i + j - i)) * [lam_i + m - i choose m - j]
    over the nonzero parts of lam; requires m >= their number.

    The determinant has nonnegative coefficients, so ``det_fraction_free``
    packs it at the width of its value at q = 1.  Entry (i, j) is the
    weight sum of the north-east lattice paths from A_j = (-j, j - 1) to
    T_i = (lam_i - i, m - 1), an east step at height y weighing q**y: such
    a path has lam_i + j - i east steps and m - j north steps, and its
    weights sum to q**((j-1)(lam_i + j - i)) times the Gaussian binomial.
    Every path stays in the strip x + y >= -1, y <= m - 1, whose boundary
    meets A_1, ..., A_n on the line x + y = -1 and then T_n, ..., T_1 on
    the line y = m - 1, so by the Lindstrom-Gessel-Viennot lemma the
    determinant is the weight sum of the nonintersecting families joining
    A_i to T_i, each a power of q.
    """
    lam = strip(check_partition(lam))
    n = len(lam)
    if n == 0:
        return LaurentPoly.one()
    if m < n:
        raise ValueError(f"need at least {n} variables for {lam}")
    rows = [[qbinomial(lam[i - 1] + m - i, m - j).shift((j - 1) * (lam[i - 1] + j - i))
             for j in range(1, n + 1)] for i in range(1, n + 1)]
    return det_fraction_free(PolyMatrix(rows), _nonnegative=True)

