import itertools
import math
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmelon import laurent, qanalogs, schur
from qmelon.laurent import LaurentPoly, q_ratio
from qmelon.qanalogs import h_complete, qbinomial


def qint(n: int) -> LaurentPoly:
    """[n] = 1 + q + ... + q**(n-1); [0] = 0."""
    if n < 0:
        raise ValueError("q-integer of a negative number")
    return LaurentPoly({e: 1 for e in range(n)})


def qbinomial_product_oracle(big: int, small: int) -> LaurentPoly:
    """[big choose small] as the product of [big-small+i] / [i], i = 1..small.

    One LaurentPoly product and one exact division per step; every partial
    product is a Gaussian binomial, so each division is exact.
    """
    if big < 0:
        raise ValueError("upper index must be nonnegative")
    if small < 0 or small > big:
        return LaurentPoly.zero()
    small = min(small, big - small)
    result = LaurentPoly.one()
    for i in range(1, small + 1):
        result = (result * qint(big - small + i)).exact_div(qint(i))
    return result


def h_oracle(r: int, m: int) -> LaurentPoly:
    """Sum q**(e1+...+er) over weakly increasing exponent tuples below m."""
    terms: dict[int, int] = {}
    for combo in itertools.combinations_with_replacement(range(m), r):
        e = sum(combo)
        terms[e] = terms.get(e, 0) + 1
    return LaurentPoly(terms)


def qbinomial_oracle(big: int, small: int) -> LaurentPoly:
    """Pascal-triangle oracle built from scratch."""
    row = [LaurentPoly.one()]
    for n in range(1, big + 1):
        new = [LaurentPoly.one()]
        for k in range(1, n):
            new.append(row[k - 1] + row[k].shift(k))
        new.append(LaurentPoly.one())
        row = new
    if small < 0 or small > big:
        return LaurentPoly.zero()
    return row[small]


def test_qint_values():
    assert qint(0).is_zero()
    assert qint(1) == LaurentPoly.one()
    assert qint(4) == LaurentPoly({0: 1, 1: 1, 2: 1, 3: 1})
    with pytest.raises(ValueError):
        qint(-1)


def test_qbinomial_frozen_values():
    assert qbinomial(2, 1) == LaurentPoly({0: 1, 1: 1})
    # [4 choose 2] = 1+q+2q^2+q^3+q^4
    assert qbinomial(4, 2) == LaurentPoly({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})
    assert qbinomial(5, 0) == LaurentPoly.one()
    assert qbinomial(5, 5) == LaurentPoly.one()
    assert qbinomial(3, 4).is_zero()
    assert qbinomial(3, -1).is_zero()
    with pytest.raises(ValueError):
        qbinomial(-1, 0)


@pytest.mark.parametrize("big", range(0, 13))
def test_qbinomial_against_pascal_oracle(big):
    for small in range(-1, big + 2):
        assert qbinomial(big, small) == qbinomial_oracle(big, small)


@pytest.mark.parametrize("big", range(1, 13))
def test_pascal_recurrence(big):
    # [big, small] = [big-1, small-1] + q**small [big-1, small]
    for small in range(0, big + 1):
        rhs = qbinomial(big - 1, small - 1) + qbinomial(big - 1, small).shift(small)
        assert qbinomial(big, small) == rhs


@pytest.mark.parametrize("big", range(0, 13))
def test_symmetry_and_palindromicity(big):
    for small in range(0, big + 1):
        p = qbinomial(big, small)
        assert p == qbinomial(big, big - small)
        terms = dict(p.terms())
        deg = small * (big - small)
        assert all(terms.get(e, 0) == terms.get(deg - e, 0) for e in range(deg + 1))


def test_qbinomial_counts_at_one():
    for big in range(0, 41):
        for small in range(0, big + 1):
            assert qbinomial(big, small).eval_at_one() == math.comb(big, small)


@given(st.integers(min_value=0, max_value=40).flatmap(
    lambda big: st.tuples(st.just(big), st.integers(min_value=-1, max_value=big + 1))))
def test_qbinomial_matches_product_oracle(args):
    assert qbinomial(*args) == qbinomial_product_oracle(*args)


@pytest.mark.parametrize("big", range(0, 41, 4))
def test_qbinomial_matches_q_ratio(big):
    for small in range(0, big + 1):
        expect = q_ratio(range(big - small + 1, big + 1), range(1, small + 1))
        assert qbinomial(big, small) == expect, (big, small)


def test_qbinomial_exactness_check_is_live():
    # without the division the vacated top slots are nonzero, so the check fires
    qbinomial.cache_clear()
    with mock.patch.object(qanalogs, "accumulate", lambda xs: xs):
        with pytest.raises(RuntimeError, match="lost exactness"):
            qbinomial(7, 3)
    assert qbinomial(7, 3) == qbinomial_product_oracle(7, 3)


def test_qbinomial_limit_is_on_the_buffer_length():
    # [N choose 1] runs on a buffer of N + 1 coefficients
    qbinomial.cache_clear()
    with mock.patch.object(qanalogs, "_MAX_DENSE_COEFFS", 50):
        assert qbinomial(49, 1) == qint(49)
        assert qbinomial(49, 48) == qint(49)
        with pytest.raises(ValueError, match=r"\[50 choose 1\] needs 51 coefficients, "
                                             r"over the limit of 50$"):
            qbinomial(50, 1)
    assert qbinomial(50, 1) == qint(50)


def test_qbinomial_refuses_past_the_pass_limit():
    # [10 choose 4] makes 4 steps over a list of 4 * 7 + 1 = 29 slots
    qbinomial.cache_clear()
    with mock.patch.object(qanalogs, "_MAX_SERIES_WORK", 116):
        assert qbinomial(10, 4) == qbinomial_product_oracle(10, 4)
        assert qbinomial(10, 6) == qbinomial(10, 4)
    qbinomial.cache_clear()
    with mock.patch.object(qanalogs, "_MAX_SERIES_WORK", 115):
        with pytest.raises(ValueError, match=r"^Gaussian binomial \[10 choose 4\] would take 116 "
                                             r"slot-passes, over the limit of 115$"):
            qbinomial(10, 6)
        assert qbinomial(10, 3) == qbinomial_product_oracle(10, 3)
    qbinomial.cache_clear()
    # at the real limit: [600 choose 300] charges 300 * 90,301 slot-passes,
    # and [2000 choose 1000], a list of 10**6 slots, 1000 passes over it
    for big, passes in ((600, 27090300), (2000, 1001001000)):
        with pytest.raises(ValueError, match=f"would take {passes} slot-passes, over the "
                                             f"limit of {laurent._MAX_SERIES_WORK}$"):
            qbinomial(big, big // 2)


def test_qbinomial_result_does_not_depend_on_the_cache():
    qbinomial.cache_clear()
    for _ in range(2):
        with pytest.raises(ValueError):
            qbinomial(2.0, 1)
        with pytest.raises(ValueError):
            qbinomial(2, 1.0)
        with pytest.raises(ValueError):
            qbinomial(True, 1)
        with pytest.raises(ValueError):
            h_complete(1.0, 2)
        with pytest.raises(ValueError):
            h_complete(1, True)
        assert qbinomial(2, 1) == LaurentPoly({0: 1, 1: 1})


@given(st.integers(min_value=0, max_value=7), st.integers(min_value=1, max_value=5))
def test_h_complete_matches_enumeration(r, m):
    assert h_complete(r, m) == h_oracle(r, m)


def test_h_complete_edges():
    assert h_complete(-2, 3).is_zero()
    assert h_complete(0, 3) == LaurentPoly.one()
    assert h_complete(0, 0) == LaurentPoly.one()
    with pytest.raises(ValueError):
        h_complete(1, 0)
    with pytest.raises(ValueError):
        h_complete(0, -1)


def at(poly: LaurentPoly, y: int) -> int:
    return sum(c * y**e for e, c in poly.terms())


@pytest.mark.parametrize("half", [1, 2, 3, 5])
def test_qbinomial_chain_is_the_gaussian_binomials_at_plus_and_minus_y(half):
    # every [A choose k] with A <= 40, at widths whose points Y = 2**(8*half)
    # are below, at and above the binomials' largest coefficients
    y = 1 << 8 * half
    for r in range(41):
        at_plus, at_minus = qanalogs._qbinomial_chain(r, 40 - r, half)
        assert len(at_plus) == len(at_minus) == 41 - r
        for i, (plus, minus) in enumerate(zip(at_plus, at_minus)):
            assert (plus, minus) == (at(qbinomial(r + i, i), y), at(qbinomial(r + i, i), -y))


@pytest.mark.parametrize("shift", [2, 8, 24])
@pytest.mark.parametrize("negative", [False, True])
def test_div_one_minus_is_exact_or_raises(shift, negative):
    t = -(1 << shift) if negative else 1 << shift
    for quot in (0, 1, -1, 12345, -(1 << 200) + 7, (1 << 1000) - 1):
        assert qanalogs._div_one_minus(quot * (1 - t), shift, negative) == quot
    with pytest.raises(RuntimeError, match="^Gaussian binomial chain lost exactness$"):
        qanalogs._div_one_minus(12345 * (1 - t) + 1, shift, negative)


def test_qbinomial_chain_multiplies_back_each_quotient():
    # a quotient off by one at step 3 is no Gaussian binomial, so the next
    # step's product is no multiple of 1 - y**4
    real = qanalogs._div_one_minus
    calls = []

    def corrupted(num, shift, negative):
        calls.append(shift)
        quot = real(num, shift, negative)
        return quot + 1 if len(calls) == 3 else quot

    with mock.patch.object(qanalogs, "_div_one_minus", corrupted):
        with pytest.raises(RuntimeError, match="^Gaussian binomial chain lost exactness$"):
            schur.h_determinant((6, 6, 6), 8)
    assert len(calls) == 4


def test_path_determinant_tripwire_sees_a_corrupted_chain_value():
    # h((6, 6, 6)) in 8 variables reads [7 + i choose i] at i = 4 to 8 off
    # the one chain r = 7; its last value plus 2 at both points is the
    # entry [15 choose 8] + 2, a polynomial, so the two-point recovery
    # holds and only the tripwire's sum sees the change
    real = qanalogs._qbinomial_chain

    def corrupted(r, k, half):
        at_plus, at_minus = real(r, k, half)
        return at_plus[:-1] + [at_plus[-1] + 2], at_minus[:-1] + [at_minus[-1] + 2]

    with mock.patch.object(qanalogs, "_qbinomial_chain", corrupted):
        with pytest.raises(RuntimeError, match="^a determinant flagged nonnegative lost "
                                               "exactness$"):
            schur.h_determinant((6, 6, 6), 8)
    assert schur.h_determinant((6, 6, 6), 8) == schur.principal_product((6, 6, 6), 8)


def test_qbinomial_chain_is_charged_before_it_runs():
    # [399 + i choose i] to i = 8 at 9-byte points: 2 * 8 * 9 * 9 * 8 * 399
    work = 2 * 8 * (400).bit_length() * 9 * 8 * 399
    assert work == 4136832
    with mock.patch.object(laurent, "_MAX_BIGINT_WORK", work):
        at_plus, at_minus = qanalogs._qbinomial_chain(399, 8, 9)
    assert at_plus[-1] == at(qbinomial(407, 8), 1 << 72)
    with mock.patch.object(laurent, "_MAX_BIGINT_WORK", work - 1), \
            mock.patch.object(qanalogs, "_div_one_minus", None):
        with pytest.raises(ValueError, match=rf"^the Gaussian binomial chain \[399 \+ i choose i\] "
                                             rf"to i = 8 at 9-byte points would take {work} "
                                             rf"steps, over the limit of {work - 1}$"):
            qanalogs._qbinomial_chain(399, 8, 9)


def test_huge_path_determinant_is_refused_before_any_chain():
    # [2, 2, 2] in 10**5 variables: entries of degree up to 4 * 99,999, whose
    # determinant's charge refuses it before a chain or a binomial is built
    with mock.patch.object(qanalogs, "_qbinomial_chain", None), \
            mock.patch.object(qanalogs, "qbinomial", None):
        for route in (schur.h_determinant, schur.gv_determinant):
            with pytest.raises(ValueError, match="^a determinant of 3 rows and .* minor steps, "
                                                 "over the limit of 10000000000$"):
                route((2, 2, 2), 10**5)
