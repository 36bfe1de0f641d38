import itertools
import math
import operator
import re
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmelon import laurent, qanalogs, schur
from qmelon.laurent import LaurentPoly, PolyMatrix, det_fraction_free
from qmelon.partitions import enumerate_in_box, strip, weight
from qmelon.paths import watermelon_genfunc
from qmelon.qanalogs import qbinomial
from qmelon.schur import (
    DegeneratePoint,
    bialternant,
    gv_determinant,
    h_determinant,
    principal_product,
    tableau_sum,
)
from qmelon.tableaux import count_ssyt, enumerate_ssyt
from test_laurent import perm_det


def tableau_oracle(lam, exponents):
    """Sum of q**(a_v summed over the entries v) over every SSYT, one at a time."""
    total = LaurentPoly.zero()
    for t in enumerate_ssyt(lam, len(exponents)):
        total = total + LaurentPoly.q_power(sum(exponents[v - 1] for row in t for v in row))
    return total


def test_empty_shape():
    assert bialternant((), (0, 1)) == LaurentPoly.one()
    assert principal_product((), 2) == LaurentPoly.one()
    assert tableau_sum((), (0, 1)) == LaurentPoly.one()


def test_single_box():
    # S_(1)(1, q) = 1 + q
    expect = LaurentPoly({0: 1, 1: 1})
    assert bialternant((1,), (0, 1)) == expect
    assert principal_product((1,), 2) == expect
    assert h_determinant((1,), 2) == expect
    assert gv_determinant((1,), 2) == expect


def test_frozen_hook_value():
    # S_(2,1)(1, q, q^2) = q + 2q^2 + 2q^3 + 2q^4 + q^5
    expect = LaurentPoly({1: 1, 2: 2, 3: 2, 4: 2, 5: 1})
    assert bialternant((2, 1), (0, 1, 2)) == expect
    assert tableau_sum((2, 1), (0, 1, 2)) == expect
    assert principal_product((2, 1), 3) == expect
    assert h_determinant((2, 1), 3) == expect
    assert gv_determinant((2, 1), 3) == expect


def test_gv_determinant_strips_zero_parts():
    assert gv_determinant((0, 0), 1) == LaurentPoly.one()
    assert gv_determinant((0,), 0) == LaurentPoly.one()
    assert h_determinant((0,), 0) == LaurentPoly.one()
    assert h_determinant((0, 0), 0) == LaurentPoly.one()
    for lam in enumerate_in_box(3, 3):
        for extra in range(3):
            padded = lam + (0,) * extra
            for m in range(len(strip(lam)), 5):
                value = gv_determinant(padded, m)
                assert value == h_determinant(padded, m), (padded, m)
                assert value == tableau_sum(padded, tuple(range(m))), (padded, m)


@pytest.mark.parametrize("n, l, m", [(4, 5, 11), (5, 5, 10), (6, 5, 11), (6, 7, 10)])
def test_h_determinant_packs_each_distinct_entry_once(n, l, m):
    # entry (i, j) is h(c) = [m - 1 + c choose c], c = l - i + j, so with
    # k = min(c, m - 1) every c below m lies on the one chain r = m - 1,
    # and each larger c (10, 11 and 12 in 10 variables) on a chain of its
    # own; every row and column shift is 0, so each chain value is an
    # entry as it is, and no Gaussian binomial is built, packed or scanned
    spies = {name: mock.Mock(wraps=getattr(laurent, name))
             for name in ("_evaluate_halves", "_dense", "_minors_det")}
    chain = mock.Mock(wraps=qanalogs._qbinomial_chain)
    built = mock.Mock(wraps=qbinomial)
    with mock.patch.multiple(laurent, **spies), \
            mock.patch.multiple(qanalogs, _qbinomial_chain=chain, qbinomial=built):
        value = h_determinant((l,) * n, m)
    assert chain.call_count == (4 if (n, l, m) == (6, 7, 10) else 1)
    assert spies["_minors_det"].call_count == 2
    assert spies["_evaluate_halves"].call_count == spies["_dense"].call_count == 0
    assert built.call_count == 0
    assert value == gv_determinant((l,) * n, m) == principal_product((l,) * n, m)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=9), min_size=3, max_size=7)
       .map(lambda parts: tuple(sorted(parts, reverse=True))),
       st.integers(min_value=0, max_value=5), st.booleans())
@example((9, 9, 9, 9, 9, 9, 9), 5, True)  # the 7 x 9 x 5 box, in 12 variables
def test_qbinomial_det_equals_det_fraction_free_of_its_gaussian_binomials(lam, extra, flagged):
    # the h and gv matrices (gv's twisted shifts included), flagged and
    # unflagged, of 3 to 7 rows in at most 12 variables: the chains at
    # q = +-Y against the Gaussian binomials' coefficients, at the Leibniz
    # width
    m = len(lam) + extra
    for route in (h_determinant, gv_determinant):
        matrix = PolyMatrix(path_matrix(route, lam, m))
        want = det_fraction_free(matrix)
        assert qanalogs._qbinomial_det(path_triples(route, lam, m), _nonnegative=flagged) == want
        assert route(lam, m) == want


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=6).flatmap(lambda n: st.lists(
    st.lists(st.tuples(st.integers(min_value=-4, max_value=12),
                       st.integers(min_value=0, max_value=12),
                       st.integers(min_value=-1, max_value=13)), min_size=n, max_size=n),
    min_size=n, max_size=n)))
@example([[(0, 3, 1)] * 3] * 3)  # equal rows: D = 0
@example([[(0, 3, 4)] * 3] * 3)  # no nonzero entry
def test_qbinomial_det_of_any_triples(entries):
    # signed in general: zero entries where b < 0 or b > A, negative and
    # repeated shifts, the Leibniz width; below 3 rows, the Gaussian
    # binomials built and expanded directly
    matrix = PolyMatrix([[qbinomial(big, small).shift(s) for s, big, small in row]
                         for row in entries])
    core = mock.Mock(wraps=laurent._det_core)
    with mock.patch.object(qanalogs, "_det_core", core):
        assert qanalogs._qbinomial_det(entries) == det_fraction_free(matrix)
    assert core.called == (len(entries) >= 3)


def path_triples(route, lam, m):
    """The entries of h_determinant or gv_determinant as triples (s, A, b)."""
    n = len(lam)
    if route is h_determinant:
        return [[(0, m - 1 + lam[i] - i + j, lam[i] - i + j) for j in range(n)]
                for i in range(n)]
    return [[(j * (lam[i] + j - i), lam[i] + m - 1 - i, m - 1 - j) for j in range(n)]
            for i in range(n)]


def path_matrix(route, lam, m):
    """The entries of h_determinant or gv_determinant as Gaussian binomials."""
    return [[qbinomial(big, small).shift(s) for s, big, small in row]
            for row in path_triples(route, lam, m)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=7)
       .map(lambda parts: tuple(sorted(parts, reverse=True))),
       st.integers(min_value=0, max_value=5), st.booleans())
@example((5,) * 7, 3, False)  # the 7 x 5 x 3 box
@example((9, 9, 9), 1, True)  # the 3 x 9 x 1 box
@example((4,), 2, False)
@example((3, 1), 1, False)
def test_path_determinants_flagged_nonnegative_equal_the_unflagged_route(lam, extra, rectangle):
    # each determinant of 1 to 7 rows is one _qbinomial_det, flagged
    # nonnegative, so packed from 3 rows at the width of its value at
    # q = 1; the same triples unflagged, at the Leibniz width, must agree
    if rectangle:
        lam = (lam[0],) * len(lam)
    m = len(strip(lam)) + extra
    calls = []
    real = qanalogs._qbinomial_det

    def spy(entries, **flag):
        calls.append((entries, flag))
        return real(entries, **flag)

    with mock.patch.object(schur, "_qbinomial_det", spy):
        values = [h_determinant(lam, m), gv_determinant(lam, m)]
    assert values[0] == values[1] == principal_product(lam, m)
    assert [flag for _, flag in calls] == [{"_nonnegative": True}] * (2 if strip(lam) else 0)
    assert [real(entries) for entries, _ in calls] == values[:len(calls)]


@pytest.mark.parametrize("m", [3, 4])
def test_five_routes_agree_in_box(m):
    exps = tuple(range(m))
    for lam in enumerate_in_box(3, 3):
        values = {
            bialternant(lam, exps),
            tableau_sum(lam, exps),
            principal_product(lam, m),
            h_determinant(lam, m),
            gv_determinant(lam, m),
        }
        assert len(values) == 1, (lam, m)
        assert values.pop() == tableau_oracle(lam, exps)


@pytest.mark.parametrize("m", [3, 4])
def test_eval_at_one_counts_tableaux(m):
    for lam in enumerate_in_box(3, 3):
        assert bialternant(lam, tuple(range(m))).eval_at_one() == count_ssyt(lam, m)


def test_generic_point_matches_tableau_sum():
    exps = (0, 2, 5)
    for lam in [(1,), (2, 1), (2, 2), (3, 1, 1)]:
        assert bialternant(lam, exps) == tableau_sum(lam, exps)


def test_negative_exponents():
    exps = (-1, 0, 2)
    for lam in [(1,), (2, 1)]:
        assert bialternant(lam, exps) == tableau_sum(lam, exps)


@st.composite
def branching_inputs(draw):
    """Up to 5 letters with exponents in -5..9, repeats allowed, and a shape
    in the 4 x 4 box with no more parts than letters."""
    m = draw(st.integers(min_value=0, max_value=5))
    exps = draw(st.lists(st.integers(min_value=-5, max_value=9), min_size=m, max_size=m))
    parts = draw(st.lists(st.integers(min_value=0, max_value=4), max_size=min(m, 4)))
    return tuple(sorted(parts, reverse=True)), tuple(exps)


@settings(deadline=None, max_examples=200)
@given(branching_inputs())
@example(((4, 4, 4, 4), (-5, 9, 9, -5, 0)))
@example(((3, 1), (2, 2)))
def test_tableau_sum_matches_enumeration(case):
    lam, exps = case
    assert tableau_sum(lam, exps) == tableau_oracle(lam, exps)


@st.composite
def bounded_series_inputs(draw):
    """Up to 4 letters with exponents in -5..9, repeats allowed, and partitions
    lo inside hi, hi with at most 3 nonzero parts of at most 3 and no more
    parts than letters."""
    n = draw(st.integers(min_value=0, max_value=4))
    exps = draw(st.lists(st.integers(min_value=-5, max_value=9), min_size=n, max_size=n))
    hi = sorted(draw(st.lists(st.integers(min_value=1, max_value=3), max_size=min(n, 3))),
                reverse=True)
    # the k-th largest of parts drawn below hi_1, hi_2, ... is below hi_k
    lo = sorted((draw(st.integers(min_value=0, max_value=part)) for part in hi), reverse=True)
    return tuple(exps), tuple(lo), tuple(hi)


@settings(deadline=None, max_examples=150)
@given(bounded_series_inputs())
@example(((-2, -1, 0), (2, 0, 0), (2, 2, 2)))  # the B side of watermelon_genfunc(3, 2, 1)
@example(((3, -1, 3, 0), (1, 1, 0), (3, 2, 1)))
@example(((7, -5), (2, 1), (3, 3)))
@example(((2, -3), (34, 0), (36, 2)))  # floors 34 above the states below them
@example(((1, -1, 4), (34, 1, 0), (35, 2, 1)))
@example(((), (), ()))
def test_tableau_series_between_bounds_matches_enumeration(case):
    # every shape between the bounds, none other, each packed from q**(min a |nu|)
    exps, lo, hi = case
    shapes = [nu for nu in itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi)))
              if list(nu) == sorted(nu, reverse=True)]
    width = max(count_ssyt(nu, len(exps)) for nu in shapes).bit_length() // 8 + 1
    series = schur._tableau_series(exps, lo, hi, width)
    assert sorted(series) == shapes
    for nu, value in series.items():
        low = min(exps, default=0) * weight(nu)
        digits = value.bit_length() // (8 * width) + 1
        assert laurent._unpack_poly(value, low, digits, width) == tableau_oracle(strip(nu), exps)


@pytest.mark.parametrize("lam, n, dim, width", [((5,), 5, 126, 1), ((5, 1), 4, 140, 2),
                                                ((4, 4, 2), 7, 31752, 2), ((5, 3), 8, 33264, 3)])
def test_tableau_sum_on_both_sides_of_a_width_byte(lam, n, dim, width):
    # S_lam(1, ..., 1) on both sides of 2**7 and 2**15; at a point of n
    # equal exponents it is the one coefficient
    assert schur._weyl_dim(lam, n) == dim
    assert dim.bit_length() // 8 + 1 == width
    assert tableau_sum(lam, (3,) * n) == LaurentPoly({3 * weight(lam): dim})
    assert tableau_sum(lam, tuple(range(n))) == principal_product(lam, n)
    point = tuple(range(-(n // 2), n - n // 2))
    assert tableau_sum(lam, point) == bialternant(lam, point)


def test_tableau_sum_width_bound_is_live(monkeypatch):
    # coefficients up to 1998 do not fit one byte: with the bound forced to
    # 1, the digits are read wrong or refused
    lam, point = (4, 4, 2), tuple(range(7))
    want = principal_product(lam, 7)
    assert max(c for _, c in want.terms()) >= 2**8
    monkeypatch.setattr(schur, "_weyl_dim", lambda shape, n: 1)
    try:
        value = tableau_sum(lam, point)
    except (OverflowError, ValueError):
        return
    assert value != want


def test_tableau_sum_long_row_single_letter():
    # one letter fills the row in one horizontal strip: no cell-by-cell work
    start = time.process_time()
    assert tableau_sum((10**12,), (3,)) == LaurentPoly.q_power(3 * 10**12)
    assert time.process_time() - start < 0.5


def test_degenerate_point_rejected():
    with pytest.raises(DegeneratePoint):
        bialternant((1,), (1, 1))
    with pytest.raises(DegeneratePoint):
        bialternant((2, 1), (0, 3, 3))
    # the monomial sum has no Vandermonde to divide by, so it still works
    assert tableau_sum((1,), (1, 1)) == LaurentPoly({1: 2})


def test_too_many_parts_rejected():
    with pytest.raises(ValueError):
        bialternant((1, 1, 1), (0, 1))
    with pytest.raises(ValueError, match="needs more than 2 letters"):
        tableau_sum((1, 1, 1), (0, 1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_weight_shift(n):
    # the value at (q, ..., q**n) is q**|lam| times the value at (1, ..., q**(n-1))
    for lam in enumerate_in_box(n, 3):
        shifted = bialternant(lam, tuple(range(1, n + 1)))
        assert shifted == bialternant(lam, tuple(range(n))).shift(weight(lam))


def test_weight_shift_meaning():
    # S_lam(q, .., q^n) = q^{|lam|} S_lam(1, .., q^{n-1})
    lam = (2, 1)
    lhs = bialternant(lam, (1, 2, 3))
    rhs = bialternant(lam, (0, 1, 2)).shift(weight(lam))
    assert lhs == rhs


def test_principal_product_rejects_short_alphabet():
    with pytest.raises(ValueError):
        principal_product((1, 1, 1), 2)


def alternant(exps, lam):
    """schur._alternant unpacked, at the width that holds n!."""
    width = math.factorial(len(exps)).bit_length() // 8 + 1
    low, value = schur._alternant(exps, lam, width)
    return laurent._unpack_poly(value, low, value.bit_length() // (8 * width) + 1, width)


@st.composite
def alternant_inputs(draw):
    """A point, a partition with as many parts, and a minors cutoff."""
    n = draw(st.integers(min_value=0, max_value=5))
    exps = draw(st.lists(st.integers(min_value=-5, max_value=9), min_size=n, max_size=n))
    parts = draw(st.lists(st.integers(min_value=0, max_value=4), min_size=n, max_size=n))
    cutoff = draw(st.integers(min_value=0, max_value=6))
    return tuple(exps), tuple(sorted(parts, reverse=True)), cutoff


@settings(deadline=None, max_examples=200)
@given(alternant_inputs())
@example(((-5, 9, 0, 2, -1), (4, 2, 2, 1, 0), 4))
@example(((3, 1, 3), (2, 1, 0), 6))
def test_alternant_matches_permutation_expansion(case):
    # the cutoff is drawn on both sides of n, so each size runs through
    # the maximal minor and through Bareiss; a repeated exponent gives 0
    exps, lam, cutoff = case
    n = len(exps)
    rows = [[LaurentPoly.q_power(x * (part + n - 1 - k)) for k, part in enumerate(lam)]
            for x in exps]
    with mock.patch.object(schur, "_MINORS_MAX_ROWS", cutoff):
        assert alternant(exps, lam) == perm_det(rows)


@pytest.mark.parametrize("extra", [0, 1])
def test_bialternant_on_both_sides_of_the_minors_cutoff(monkeypatch, extra):
    n = schur._MINORS_MAX_ROWS + extra
    sizes = []
    original = schur._det_core

    def counted(facts, values):
        sizes.append(len(facts))
        return original(facts, values)

    monkeypatch.setattr(schur, "_det_core", counted)
    # centred on 0, the point has half the span of (0, ..., n-1); S_lam is
    # homogeneous of degree |lam|, so shifting the point shifts the value
    point = tuple(range(-(n // 2), n - n // 2))
    shapes = [(), (1,), (2, 1), (3, 2, 1)]
    for lam in shapes:
        value = bialternant(lam, point)
        assert value == principal_product(lam, n).shift(-(n // 2) * weight(lam))
        assert value == tableau_sum(lam, point)
    # Bareiss runs only above the cutoff, for both alternants of each shape
    assert sizes == [n] * (2 * len(shapes) * extra)


@st.composite
def minors_inputs(draw):
    """Exponent rows with negatives, zeros and repeats, increasing columns with gaps
    and negatives, and a fixed prefix."""
    n = draw(st.integers(min_value=0, max_value=4))
    exps = draw(st.lists(st.integers(min_value=-4, max_value=5), min_size=n, max_size=n))
    cols = n + draw(st.integers(min_value=0, max_value=3))
    columns = draw(st.lists(st.integers(min_value=-3, max_value=9), min_size=cols,
                            max_size=cols, unique=True))
    fixed = draw(st.integers(min_value=0, max_value=n))
    return tuple(exps), sorted(columns), fixed


@settings(deadline=None, max_examples=150)
@given(minors_inputs())
@example(((0, -3, 0, 5), [0, 1, 2, 3, 4, 5, 6], 0))
@example(((-4, 2, 0), [-2, 0, 3, 4, 8], 2))
@example(((2, -1), [1, 7], 0))
@example(((), [0, 1], 0))
def test_maximal_minors_match_permutation_expansion(case):
    exps, columns, fixed = case
    n = len(exps)
    width = math.factorial(n).bit_length() // 8 + 1  # every coefficient is at most n!
    minors = schur._maximal_minors(exps, columns, width, fixed)
    low = sum(min((x * c for c in columns), default=0) for x in exps)
    span = (columns[-1] - columns[0]) * sum(map(abs, exps)) if columns else 0
    wanted = [s for s in itertools.combinations(range(len(columns)), n)
              if set(range(fixed)) <= set(s)]
    assert sorted(minors) == sorted(sum(1 << c for c in s) for s in wanted)
    for positions in wanted:
        digits = laurent._unpack(minors[sum(1 << c for c in positions)], span + 1, width)
        minor = LaurentPoly({low + e: c for e, c in enumerate(digits)})
        rows = [[LaurentPoly.q_power(x * columns[c]) for c in positions] for x in exps]
        assert minor == perm_det(rows)


def test_bialternant_refuses_a_quotient_past_the_dense_limit(monkeypatch):
    # the predicted span is the quotient's exact span; one past the limit is
    # refused before any alternant is built
    point = (7, 0, 3, -2)
    for lam in enumerate_in_box(4, 2):
        value = tableau_oracle(lam, point)
        span = max(value._terms) - min(value._terms) + 1
        monkeypatch.setattr(schur, "_MAX_DENSE_COEFFS", span)
        assert bialternant(lam, point) == value
        monkeypatch.setattr(schur, "_MAX_DENSE_COEFFS", span - 1)
        monkeypatch.setattr(schur, "_alternant", None)
        with pytest.raises(ValueError, match=f"^shape {re.escape(str(strip(lam)))} in 4 letters "
                                             f"has a quotient of {span} coefficients, over the "
                                             f"limit of {span - 1}$"):
            bialternant(lam, point)
        monkeypatch.undo()


def test_bialternant_quotient_is_charged_before_its_divmod(monkeypatch):
    # (1,) at (0, 100) divides 200 by 100 packed bytes: a quarter of their
    # product is 5000 steps, met exactly at the limit and refused one below,
    # before the divmod runs
    want = LaurentPoly({0: 1, 100: 1})
    monkeypatch.setattr(laurent, "_MAX_BIGINT_WORK", 5000)
    assert bialternant((1,), (0, 100)) == want
    monkeypatch.setattr(laurent, "_MAX_BIGINT_WORK", 4999)
    monkeypatch.setattr(laurent, "divmod", None, raising=False)
    with pytest.raises(ValueError, match="^a packed quotient of 200 by 100 bytes would take "
                                         "5000 division steps, over the limit of 4999$"):
        bialternant((1,), (0, 100))


def test_bialternant_quotient_budget_at_the_measured_points():
    # (0, 10**5) costs 5 * 10**9 steps, about 1.2 s of one divmod with CPython
    # 3.11, and is kept; (0, 10**6) would take minutes and is refused at once
    assert bialternant((1,), (0, 10**5)) == LaurentPoly({0: 1, 10**5: 1})
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^a packed quotient of 2000000 by 1000000 bytes "):
        bialternant((1,), (0, 10**6))
    assert time.perf_counter() - start < 1.0


def minor_work(n, lam, exponents):
    """The work _alternant charges one maximal minor."""
    powers = [part + n - 1 - k for k, part in enumerate(lam + (0,) * (n - len(lam)))]
    span = (max(powers) - min(powers)) * sum(map(abs, exponents))
    return n * 2 ** (n - 1) * (math.factorial(n).bit_length() // 8 + 1) * span


def bareiss_charge(n, lam, exponents):
    """det_fraction_free's charge of the alternant's monomial matrix: (minors, bytes, work)."""
    powers = [part + n - 1 - k for k, part in enumerate(lam + (0,) * (n - len(lam)))]
    span = (max(powers) - min(powers)) * sum(map(abs, exponents))
    rows = [[x * e for e in powers] for x in exponents]
    lows = [min(row) for row in rows]
    cols = [min(x - low for x, low in zip(col, lows)) for col in zip(*rows)]
    degrees = [[x - low - c for x, c in zip(row, cols)] for row, low in zip(rows, lows)]
    return laurent._det_work(degrees, (n**n).bit_length() // 8 + 1, span)


def lower_charge(n):
    """_alternant's charge above the minors cutoff: n x n constants at the width of n**n."""
    return laurent._det_work([[0] * n] * n, (n**n).bit_length() // 8 + 1, 0)[2]


@pytest.mark.parametrize("cutoff", [0, 99])
def test_alternant_refuses_work_past_the_limit(monkeypatch, cutoff):
    # the limit is met exactly at the charged work on both routes; one below
    # it, the call is refused before any minor or entry is built
    monkeypatch.setattr(schur, "_MINORS_MAX_ROWS", cutoff)
    for point in [(7, 0, 3, -2), (-1, 4, 2)]:
        n = len(point)
        for lam in enumerate_in_box(n, 2):
            rows = [[LaurentPoly.q_power(x * (part + n - 1 - k)) for k, part in enumerate(lam)]
                    for x in point]
            if cutoff > n:
                work = minor_work(n, lam, point)
                monkeypatch.setattr(schur, "_MAX_BIGINT_WORK", work)
                assert alternant(point, lam) == perm_det(rows)
                monkeypatch.setattr(schur, "_MAX_BIGINT_WORK", work - 1)
                monkeypatch.setattr(schur, "_maximal_minors", None)
            else:
                # _alternant charges its lower bound, laurent._det_core the
                # matrix's own degrees, once, from facts: no PolyMatrix is
                # built, and no entry is evaluated before the charge
                _, size, work = bareiss_charge(n, lam, point)
                lower = lower_charge(n)
                assert lower <= work
                charges = []
                real = laurent._det_work

                def spy(degrees, width, span):
                    charges.append(span)
                    return real(degrees, width, span)

                monkeypatch.setattr(laurent, "_det_work", spy)
                monkeypatch.setattr(laurent.PolyMatrix, "__init__", None)
                monkeypatch.setattr(schur, "_MAX_BIGINT_WORK", lower)
                monkeypatch.setattr(laurent, "_MAX_BIGINT_WORK", work)
                assert alternant(point, lam) == perm_det(rows)
                monkeypatch.setattr(laurent, "_MAX_BIGINT_WORK", work - 1)
                monkeypatch.setattr(schur, "_monomial_values",
                                    lambda *args: pytest.fail("an entry was evaluated"))
                with pytest.raises(ValueError, match=f"^a determinant of {n} rows and {size} bytes "
                                                     f"would take {work} elimination steps, over "
                                                     f"the limit of {work - 1}$"):
                    alternant(point, lam)
                assert len(charges) == 2 and all(charges)
                work = lower
                monkeypatch.setattr(schur, "_MAX_BIGINT_WORK", work - 1)
                monkeypatch.setattr(schur, "_det_core", None)
            with pytest.raises(ValueError, match=f"^shape {re.escape(str(strip(lam)))} in {n} "
                                                 f"letters would take {work} alternant steps, "
                                                 f"over the limit of {work - 1}$"):
                alternant(point, lam)
            monkeypatch.undo()
            monkeypatch.setattr(schur, "_MINORS_MAX_ROWS", cutoff)


@settings(deadline=None, max_examples=100)
@given(st.integers(min_value=15, max_value=60).flatmap(lambda n: st.tuples(
    st.lists(st.integers(min_value=-200, max_value=200), min_size=n, max_size=n, unique=True),
    st.lists(st.integers(min_value=0, max_value=8), max_size=n))))
def test_alternant_lower_bound_is_below_the_exact_charge(case):
    # every Bareiss step divides minors of at least one coefficient, so the
    # charge of n x n constants never passes that of the monomial matrix
    point, parts = case
    n = len(point)
    assert lower_charge(n) <= bareiss_charge(n, tuple(sorted(parts, reverse=True)), point)[2]


class Eliminated(Exception):
    pass


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=15, max_value=60).flatmap(lambda n: st.tuples(
    st.lists(st.integers(min_value=-200, max_value=200), min_size=n, max_size=n, unique=True),
    st.lists(st.integers(min_value=0, max_value=8), max_size=n))))
def test_alternant_is_charged_as_its_monomial_matrix(case):
    # _alternant feeds laurent._det_core the facts of each q**(x * e) in
    # closed form; the charge is the one det_fraction_free computes from
    # the built matrix's coefficients
    point, parts = case
    n = len(point)
    lam = tuple(sorted(parts, reverse=True)) + (0,) * (n - len(parts))
    charges = []
    real = laurent._det_work

    def stop(degrees, width, span):
        charges.append(real(degrees, width, span))
        raise Eliminated

    with mock.patch.object(laurent, "_det_work", stop):
        with pytest.raises(Eliminated):
            schur._alternant(point, lam, 1)
        with pytest.raises(Eliminated):
            det_fraction_free(PolyMatrix([[LaurentPoly.q_power(x * (part + n - 1 - k))
                                           for k, part in enumerate(lam)] for x in point]))
    assert charges[0] == charges[1] == bareiss_charge(n, lam, point)


@pytest.mark.parametrize("lam, n, accepted", [
    ((3, 2, 1), 18, True), ((5, 5, 5), 18, True), ((3, 2, 1), 19, False), ((2, 1), 20, False)])
def test_bareiss_alternant_is_charged_once(monkeypatch, lam, n, accepted):
    # above the minors cutoff _alternant charges the elimination of n x n
    # constants, and laurent._det_core then charges the monomial matrix
    # once, from its degrees: the 18-letter ones, 3-5 s of elimination,
    # are accepted, the longer ones refused before any entry is packed,
    # at the step counts _alternant charged them before it had a bound
    charges = []
    real = laurent._det_work

    def spy(degrees, width, span):
        charges.append((span, real(degrees, width, span)))
        return charges[-1][1]

    def stop(*args):
        raise Eliminated

    monkeypatch.setattr(schur, "_det_work", spy)
    monkeypatch.setattr(laurent, "_det_work", spy)
    monkeypatch.setattr(laurent, "_two_point_det", stop)
    if accepted:
        with pytest.raises(Eliminated):
            bialternant(lam, tuple(range(n)))
    else:
        steps = {19: 12021137478, 20: 17525291193}[n]
        with pytest.raises(ValueError, match=f"^a determinant of {n} rows and \\d+ bytes would "
                                             f"take {steps} elimination steps, over the limit "
                                             f"of 10000000000$"):
            bialternant(lam, tuple(range(n)))
    [(zero, lower), (span, exact)] = charges
    assert zero == 0 < span and lower[2] <= exact[2]
    assert (exact[2] <= laurent._MAX_BIGINT_WORK) == accepted


def test_alternant_budget_accepts_the_measured_cases():
    # 0.4 s and 1.3 s on Bareiss, and 10 ms on the minors
    for lam, n in [((3, 2, 1), 14), ((2, 1), 16), ((5, 5, 5), 10)]:
        assert bialternant(lam, tuple(range(n))) == principal_product(lam, n)


@pytest.mark.parametrize("lam, n", [((1, 1, 1), 200), ((1,), 2000)])
def test_alternant_budget_refuses_a_long_alphabet(lam, n):
    # small quotients, but Bareiss on 200 or 2000 rows
    with pytest.raises(ValueError, match=f"^shape {re.escape(str(lam))} in {n} letters would "
                                         f"take \\d+ alternant steps, over the limit of "
                                         f"10000000000$"):
        bialternant(lam, tuple(range(n)))


def test_bialternant_turns_a_remainder_into_an_error(monkeypatch):
    # a numerator off by one in its lowest digit is no multiple of the
    # delta minor
    real_alternant = schur._alternant

    def corrupted(exponents, lam, width):
        low, value = real_alternant(exponents, lam, width)
        return low, value + 1 if any(lam) else value

    monkeypatch.setattr(schur, "_alternant", corrupted)
    with pytest.raises(RuntimeError, match="^bialternant lost exactness$"):
        bialternant((2, 1), (0, 1, 2))


def branching_steps(lam, exponents):
    """The steps tableau_sum charges, level by level; asserts each level's series bound.

    Level r of N letters sweeps the shapes rho inside lam with at most r
    parts, rho_i >= lam_(i+N-r+1) =: low_i for i < r and rho_r >= lam_N,
    and keeps those with rho_i >= lam_(i+N-r) =: f_i, w the width.  A
    visit is 17 steps and a step per 16 bytes of w * (s' |lam| + (s - s') t
    + 1), s and s' the spreads a_r - a_1 and a_(r-1) - a_1, |lam| over r
    parts and t the sum of lam_j - low_j over the parts turned so far.
    Each shape is built in one visit, with a new part r turned unless
    the level has a rise past 32 (below).  Each part i < r with
    low_i < lam_i, last first, costs a shape one visit with part i
    turned, when f_i - low_i <= 32.  Past that rise it costs a shape two
    visits if rho_i < f_i, with the parts after i turned, and drops it,
    and otherwise one, plus ceil(log2(f_i - low_i + 1)) if rho_i = f_i,
    with part i turned too.  When a new part r waits for such a rise, each
    shape not dropped is one more visit with every part turned.  Unpacking the result is 30
    steps a digit, (a_N - a_1) |lam| + 1 digits.
    """
    a = sorted(exponents)
    top = len(a)
    lam = strip(lam)
    low = lam + (0,) * (top + 1 - len(lam))
    width = count_ssyt(lam, top).bit_length() // 8 + 1
    steps = 0
    for r in range(1, top + 1):
        parts = min(r, len(lam))
        grown = r <= len(lam)
        bounds = [(low[i + top - r + 1] if i < r - 1 else low[top - 1], lam[i])
                  for i in range(parts)]
        floors = low[top - r:top - r + parts]
        shapes = [rho for rho in itertools.product(*(range(l, h + 1) for l, h in bounds))
                  if list(rho) == sorted(rho, reverse=True)]
        spread, below = a[r - 1] - a[0], (a[r - 2] - a[0] if r > 1 else 0)
        fixed = below * sum(lam[:parts]) + 1

        def visit(turned):
            return 17 + width * (fixed + (spread - below) * turned) // 16

        swept = [i for i in range(parts - 1 if grown else parts) if bounds[i][0] < lam[i]]
        late = grown and any(floors[i] - bounds[i][0] > 32 for i in swept)
        turned = lam[parts - 1] if grown and not late else 0
        steps += len(shapes) * visit(turned)
        dropped = set()
        for i in reversed(swept):
            (l, h), f = bounds[i], floors[i]
            before, after = visit(turned), visit(turned + h - l)
            turned += h - l
            if f - l <= 32:
                steps += len(shapes) * after
                continue
            for rho in shapes:
                if rho[i] < f:
                    steps += 2 * before
                    dropped.add(rho)
                else:
                    steps += after * (1 + (rho[i] == f) * (f - l).bit_length())
        if late:
            turned += lam[parts - 1]
            steps += (len(shapes) - len(dropped)) * visit(turned)
        for rho in shapes:
            if not all(map(operator.ge, rho, floors)):
                continue
            terms = tableau_oracle(rho, a[:r])._terms
            assert max(terms) - a[0] * sum(rho) < fixed + (spread - below) * turned
    return steps + 30 * ((a[-1] - a[0]) * sum(lam) + 1)


def test_tableau_sum_refuses_past_the_branching_limit(monkeypatch):
    # the limit is met exactly at the counted steps, and each level's series
    # bound holds; the second point has a negative and a repeated exponent,
    # and the third floors more than 32 above the states below them, which
    # are summed by halves
    for point, lams in (((0, 2, 3, 7), enumerate_in_box(4, 2)),
                        ((4, -1, 0, 0), enumerate_in_box(3, 4)),
                        ((3, -2, 3), [(40,), (35, 30), (34, 34, 1), (40, 2, 1), (50, 9)])):
        for lam in lams:
            steps = branching_steps(lam, point)
            monkeypatch.setattr(schur, "_MAX_BRANCHING_STEPS", steps)
            assert tableau_sum(lam, point) == tableau_oracle(lam, point)
            monkeypatch.setattr(schur, "_MAX_BRANCHING_STEPS", steps - 1)
            with pytest.raises(ValueError, match=f"^shape {re.escape(str(strip(lam)))} in "
                                                 f"{len(point)} letters would take \\d+ or more branching "
                                                 f"steps, over the limit of {steps - 1}$"):
                tableau_sum(lam, point)
            monkeypatch.undo()


def test_budgets_accept_many_tableaux_of_little_work():
    # 1,313,400 tableaux, but at most 4 shapes a level and series of 592 terms
    assert tableau_sum((1, 1, 1), tuple(range(200))) == qbinomial(200, 3).shift(3)
    # about 1.6 * 10**7 tableaux, but a 10-row alternant and a quotient of 136 terms
    assert bialternant((5, 5, 5), tuple(range(10))) == principal_product((5, 5, 5), 10)
    # a single row in 2 letters has as many terms as tableaux
    for route in (bialternant, tableau_sum):
        with pytest.raises(ValueError, match="over the limit of 10000000$"):
            route((99999999999,), (0, 1))


def test_long_row_in_two_letters_keeps_no_running_sum_below_its_floor():
    # every shape of letter 1 is summed into the one target at once, by
    # halves: about 2.3 * 10**6 steps, where a running sum per shape would
    # hold 4 * 10**8 bytes
    start = time.process_time()
    assert tableau_sum((20000,), (0, 1)) == bialternant((20000,), (0, 1))
    assert time.process_time() - start < 2


def test_sparse_point_is_charged_its_dense_digits():
    # the packed series of (1,) at (0, g) has g + 1 digits, two of them
    # nonzero, and unpacking costs each digit: refused past about 3 * 10**5,
    # and at 10**8 by the 10**8 bytes of its one sweep, before it runs
    assert tableau_sum((1,), (0, 10**5)) == LaurentPoly({0: 1, 10**5: 1})
    for gap in (10**6, 10**8):
        start = time.process_time()
        with pytest.raises(ValueError, match="^shape \\(1,\\) in 2 letters would take "):
            tableau_sum((1,), (0, gap))
        assert time.process_time() - start < 0.5


def test_watermelon_genfunc_does_not_pay_for_the_branching_limit(monkeypatch):
    want = watermelon_genfunc(3, 2, 1)
    monkeypatch.setattr(schur, "_MAX_BRANCHING_STEPS", 0)
    with pytest.raises(ValueError):
        tableau_sum((1,), (0, 1))
    assert watermelon_genfunc(3, 2, 1) == want


def test_branching_limit_stops_at_the_first_level_over_it():
    # the full count over 10**5 letters would be about 4 * 10**9 steps; the
    # check stops at the first level past the limit, about 4,200 levels down
    with pytest.raises(ValueError, match="^shape \\(1,\\) in 100000 letters would take"):
        tableau_sum((1,), tuple(range(10**5)))
