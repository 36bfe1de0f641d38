import itertools
import math
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmelon import laurent, qanalogs
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
