import itertools
import math
import re
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmelon import laurent, schur
from qmelon.laurent import LaurentPoly
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
    original = schur.det_fraction_free

    def counted(matrix):
        sizes.append(matrix.rows)
        return original(matrix)

    monkeypatch.setattr(schur, "det_fraction_free", counted)
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


def alternant_work(n, lam, exponents, minors):
    """The work _alternant predicts, from the widths of its two routes."""
    powers = [part + n - 1 - k for k, part in enumerate(lam + (0,) * (n - len(lam)))]
    span = (max(powers) - min(powers)) * sum(map(abs, exponents))
    if minors:
        return n * 2 ** (n - 1) * (math.factorial(n).bit_length() // 8 + 1) * span
    return 32 * n**3 * (n * n.bit_length() // 8 + 1) * span


@pytest.mark.parametrize("cutoff", [0, 99])
def test_alternant_refuses_work_past_the_limit(monkeypatch, cutoff):
    # the limit is met exactly at the predicted work on both routes; one
    # below it, the call is refused before any minor or matrix is built
    monkeypatch.setattr(schur, "_MINORS_MAX_ROWS", cutoff)
    for point in [(7, 0, 3, -2), (-1, 4, 2)]:
        n = len(point)
        for lam in enumerate_in_box(n, 2):
            work = alternant_work(n, lam, point, cutoff > n)
            rows = [[LaurentPoly.q_power(x * (part + n - 1 - k)) for k, part in enumerate(lam)]
                    for x in point]
            monkeypatch.setattr(schur, "_MAX_ALTERNANT_WORK", work)
            assert alternant(point, lam) == perm_det(rows)
            monkeypatch.setattr(schur, "_MAX_ALTERNANT_WORK", work - 1)
            monkeypatch.setattr(schur, "_maximal_minors", None)
            monkeypatch.setattr(schur, "det_fraction_free", None)
            with pytest.raises(ValueError, match=f"^shape {re.escape(str(strip(lam)))} in {n} "
                                                 f"letters would take {work} alternant steps, "
                                                 f"over the limit of {work - 1}$"):
                alternant(point, lam)
            monkeypatch.undo()
            monkeypatch.setattr(schur, "_MINORS_MAX_ROWS", cutoff)


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
    """The steps tableau_sum counts, pair by pair; asserts each series bound."""
    a = tuple(exponents)
    steps, pending, known = 0, {strip(lam)} - {()}, set()
    for r in range(len(a), 0, -1):
        spread = max(a[:r - 1], default=0) - min(a[:r - 1], default=0)
        nxt = set()
        for mu in pending:
            for nu in itertools.product(*(range(mu[i + 1] if i + 1 < len(mu) else 0, mu[i] + 1)
                                         for i in range(min(len(mu), r - 1)))):
                nu = strip(nu)
                terms = weight(nu) * spread + 1
                assert len(tableau_oracle(nu, a[:r - 1])._terms) <= terms
                steps += schur._PAIR_STEPS + terms
                if nu and (nu, r - 1) not in known:
                    known.add((nu, r - 1))
                    nxt.add(nu)
        pending = nxt
    return steps


def test_tableau_sum_refuses_past_the_branching_limit(monkeypatch):
    # the limit is met exactly at the counted steps, and each pair's series
    # bound holds
    point = (0, 2, 3, 7)
    for lam in enumerate_in_box(4, 2):
        steps = branching_steps(lam, point)
        monkeypatch.setattr(schur, "_MAX_BRANCHING_STEPS", steps)
        assert tableau_sum(lam, point) == tableau_oracle(lam, point)
        monkeypatch.setattr(schur, "_MAX_BRANCHING_STEPS", steps - 1)
        with pytest.raises(ValueError, match=f"^shape {re.escape(str(strip(lam)))} in 4 letters "
                                             f"would take \\d+ or more branching steps, over the "
                                             f"limit of {steps - 1}$"):
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


def test_watermelon_genfunc_does_not_pay_for_the_branching_limit(monkeypatch):
    want = watermelon_genfunc(3, 2, 1)
    monkeypatch.setattr(schur, "_MAX_BRANCHING_STEPS", 0)
    with pytest.raises(ValueError):
        tableau_sum((1,), (0, 1))
    assert watermelon_genfunc(3, 2, 1) == want


def test_branching_limit_stops_at_the_first_level_over_it():
    # the full count over 10**5 letters would be about 5 * 10**9 steps; the
    # check stops at the first level past the limit, about 4,500 levels down
    with pytest.raises(ValueError, match="^shape \\(1,\\) in 100000 letters would take"):
        tableau_sum((1,), tuple(range(10**5)))
