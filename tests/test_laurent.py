import itertools
import math
import re
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmelon.laurent import (
    LaurentPoly,
    NotDivisible,
    PolyMatrix,
    _dense_series,
    _kronecker_div,
    _kronecker_mul,
    _sparse_series,
    det_cofactor,
    det_fraction_free,
    geometric_sum,
    q_ratio,
    vandermonde,
)


def naive_mul(a: dict, b: dict) -> dict:
    """Dict-convolution oracle, independent of the class under test."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def naive_div(a: dict, b: dict) -> dict:
    """Long-division oracle over the Laurent ring; raises NotDivisible."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a:
        return {}
    av, bv = min(a), min(b)
    rem = {e - av: c for e, c in a.items()}
    div = {e - bv: c for e, c in b.items()}
    bdeg = max(div)
    quot = {}
    while rem:
        rdeg = max(rem)
        if rdeg < bdeg:
            raise NotDivisible("remainder after division")
        if rem[rdeg] % div[bdeg] != 0:
            raise NotDivisible("leading coefficient not divisible")
        t = rem[rdeg] // div[bdeg]
        quot[rdeg - bdeg] = t
        for e, c in div.items():
            k = e + rdeg - bdeg
            rem[k] = rem.get(k, 0) - t * c
            if not rem[k]:
                del rem[k]
    return {e + av - bv: c for e, c in quot.items()}


def ratio_oracle(num, den) -> dict:
    """prod (1 - q**a) / prod (1 - q**b) as two products and a long division."""
    def product(exps):
        out = {0: 1}
        for e in exps:
            factor = {0: 1}
            factor[e] = factor.get(e, 0) - 1
            out = naive_mul(out, {k: c for k, c in factor.items() if c})
        return out
    return naive_div(product(num), product(den))


def perm_det(rows):
    """Permutation-expansion determinant oracle."""
    n = len(rows)
    total = LaurentPoly.zero()
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = LaurentPoly.const(sign)
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


terms_st = st.dictionaries(
    st.integers(min_value=-6, max_value=9),
    st.integers(min_value=-9, max_value=9),
    max_size=6,
)
poly_st = terms_st.map(LaurentPoly)


# Operands large enough for the packed kernels: coefficients past 10**100
# next to small ones, negative exponents, and gaps in the support.
big_terms_st = st.dictionaries(
    st.integers(min_value=-20, max_value=40),
    st.one_of(st.integers(min_value=-9, max_value=9),
              st.integers(min_value=-10**120, max_value=10**120)),
    min_size=1, max_size=30,
).map(lambda d: {e: c for e, c in d.items() if c}).filter(bool)


def test_zero_and_one():
    assert LaurentPoly.zero().is_zero()
    assert not LaurentPoly.one().is_zero()
    assert LaurentPoly({3: 0, 1: 2}).terms() == ((1, 2),)
    assert str(LaurentPoly.zero()) == "0"


def test_const_and_monomial():
    assert LaurentPoly.const(-3).coeff(0) == -3
    assert LaurentPoly.monomial(-2, 5).terms() == ((-2, 5),)
    assert LaurentPoly.q_power(4) == LaurentPoly({4: 1})


@given(terms_st, terms_st)
def test_mul_matches_naive(a, b):
    got = LaurentPoly(a) * LaurentPoly(b)
    assert dict(got.terms()) == naive_mul(
        {e: c for e, c in a.items() if c}, {e: c for e, c in b.items() if c})


@settings(max_examples=200, deadline=None)
@given(big_terms_st, big_terms_st)
def test_kronecker_mul_matches_schoolbook(a, b):
    got = _kronecker_mul(a, b)
    assert got._terms == naive_mul(a, b)
    assert LaurentPoly(a) * LaurentPoly(b) == got


@settings(max_examples=200, deadline=None)
@given(big_terms_st, big_terms_st)
def test_kronecker_div_matches_long_division(p, r):
    a = naive_mul(p, r)
    got = _kronecker_div(a, r)
    assert got is not None
    assert got._terms == naive_div(a, r) == p
    assert LaurentPoly(a).exact_div(LaurentPoly(r)) == got


@settings(max_examples=200, deadline=None)
@given(big_terms_st, big_terms_st, big_terms_st)
def test_kronecker_div_never_accepts_a_remainder(p, r, extra):
    a = naive_mul(p, r)
    for e, c in extra.items():
        a[e] = a.get(e, 0) + c
    a = {e: c for e, c in a.items() if c}
    assume(a)
    try:
        expected = naive_div(a, r)
    except NotDivisible as exc:
        assert _kronecker_div(a, r) is None
        with pytest.raises(NotDivisible, match=re.escape(str(exc))):
            LaurentPoly(a).exact_div(LaurentPoly(r))
    else:
        assert _kronecker_div(a, r)._terms == expected


def test_kronecker_div_widens_for_a_large_quotient():
    # (1 + q) times an alternating tent of height 2000 C has every coefficient
    # in {-C, 0, C}: the quotient needs 11 more bits than the dividend
    n, big = 4000, 10**40
    quotient = {i: (-1) ** i * min(i + 1, n - i) * big for i in range(n)}
    for divisor in ({0: 1, 1: 1}, {-3: 1, -2: 1}):
        dividend = naive_mul(quotient, divisor)
        assert max(map(abs, dividend.values())) == big
        assert _kronecker_div(dividend, divisor)._terms == quotient


def test_large_non_divisible_dividend_raises():
    divisor = {e - 10: (-3) ** e * 10**30 + e for e in range(60)}
    dividend = naive_mul({e: 7**e - 5 for e in range(80)}, divisor)
    dividend[17] += 1
    assert _kronecker_div(dividend, divisor) is None
    with pytest.raises(NotDivisible) as oracle:
        naive_div(dividend, divisor)
    with pytest.raises(NotDivisible, match=re.escape(str(oracle.value))):
        LaurentPoly(dividend).exact_div(LaurentPoly(divisor))
    dividend[17] -= 1
    assert LaurentPoly(dividend).exact_div(LaurentPoly(divisor)) == LaurentPoly(
        {e: 7**e - 5 for e in range(80)})


def test_kronecker_div_packs_a_divisor_wider_than_the_dividend():
    # the pack width has to fit the divisor's coefficients, not only the dividend's
    dividend = {e: 1 for e in range(200)}
    divisor = {e: 10**30 for e in range(20)}
    assert _kronecker_div(dividend, divisor) is None
    with pytest.raises(NotDivisible) as oracle:
        naive_div(dividend, divisor)
    with pytest.raises(NotDivisible, match=re.escape(str(oracle.value))):
        LaurentPoly(dividend).exact_div(LaurentPoly(divisor))
    # prod (1 + q**a) divides prod (1 - q**(2a)), and its coefficients, near
    # 2**40 / 40**1.5, are over 10**6 times those of the dividend
    divisor, quotient = {0: 1}, {e: 1 for e in range(1500)}
    for a in range(1, 41):
        divisor = naive_mul(divisor, {0: 1, a: 1})
        quotient = naive_mul(quotient, {0: 1, a: -1})
    dividend = naive_mul(divisor, quotient)
    assert max(map(abs, divisor.values())) > 10**6 * max(map(abs, dividend.values()))
    assert _kronecker_div(dividend, divisor)._terms == quotient
    assert LaurentPoly(dividend).exact_div(LaurentPoly(divisor))._terms == quotient


@pytest.mark.parametrize("terms", [{0: True}, {True: 3}, {2: False}, {False: 0}])
def test_rejects_bool(terms):
    with pytest.raises(TypeError):
        LaurentPoly(terms)


@pytest.mark.parametrize("pair", [
    [0, "1_0"], [0, " 5 "], [0, "5 "], [0, "+5"], [0, "5\n"], [0, "\u0663"],
    [0, ""], [0, "-"], [0, "5.0"], [0, "0x5"], [0, 5], [True, "1"], ["3", "1"],
    [2.0, "1"], [0, "0"], [0, "-0"], [0, "007"], [0, "-00"], [0, "-07"],
])
def test_from_pairs_rejects_malformed(pair):
    with pytest.raises(ValueError):
        LaurentPoly.from_pairs([[-1, "2"], pair])


@given(poly_st, poly_st, poly_st)
def test_ring_axioms(p, r, s):
    assert p + r == r + p
    assert p * r == r * p
    assert (p + r) + s == p + (r + s)
    assert (p * r) * s == p * (r * s)
    assert p * (r + s) == p * r + p * s
    assert p + LaurentPoly.zero() == p
    assert p * LaurentPoly.one() == p
    assert p - p == LaurentPoly.zero()


@given(poly_st)
def test_int_coercion(p):
    assert p + 1 == p + LaurentPoly.one()
    assert 2 * p == p + p
    assert 1 - p == LaurentPoly.one() - p


@given(poly_st, poly_st)
def test_exact_div_round_trip(p, r):
    if r.is_zero():
        with pytest.raises(ZeroDivisionError):
            (p * r).exact_div(r)
    else:
        assert (p * r).exact_div(r) == p


def test_exact_div_failure():
    q = LaurentPoly.q_power
    with pytest.raises(NotDivisible):
        (1 + q(1)).exact_div(1 - q(1))
    with pytest.raises(NotDivisible):
        LaurentPoly.const(3).exact_div(LaurentPoly.const(2))


def test_exact_div_laurent_units():
    # dividing by a monomial only shifts
    p = LaurentPoly({0: 1, 2: 5})
    assert p.exact_div(LaurentPoly.q_power(3)) == LaurentPoly({-3: 1, -1: 5})


@given(poly_st, st.integers(min_value=-5, max_value=5))
def test_shift_is_monomial_mul(p, e):
    assert p.shift(e) == p * LaurentPoly.q_power(e)


@given(poly_st)
def test_eval_at_one_is_coeff_sum(p):
    assert p.eval_at_one() == sum(c for _, c in p.terms())


@given(poly_st)
def test_wire_round_trip_bit_exact(p):
    pairs = p.to_pairs()
    back = LaurentPoly.from_pairs(pairs)
    assert back == p
    assert back.to_pairs() == pairs
    # exponents ascending, coefficients nonzero decimal strings
    exps = [e for e, _ in pairs]
    assert exps == sorted(exps)
    assert all(c.lstrip("-").isdigit() and int(c) != 0 for _, c in pairs)


def test_degree_valuation():
    p = LaurentPoly({-2: 1, 5: -3})
    assert p.valuation() == -2
    assert p.degree() == 5


def test_geometric_sum_small():
    assert geometric_sum(2, 3) == LaurentPoly({0: 1, 2: 1, 4: 1})
    assert geometric_sum(0, 4) == LaurentPoly.const(4)
    assert geometric_sum(-1, 3) == LaurentPoly({0: 1, -1: 1, -2: 1})
    assert geometric_sum(5, 0) == LaurentPoly.zero()


@given(st.integers(min_value=-4, max_value=4), st.integers(min_value=0, max_value=8))
def test_geometric_sum_telescopes(step, count):
    s = geometric_sum(step, count)
    q = LaurentPoly.q_power(step)
    assert s * (1 - q) == 1 - LaurentPoly.q_power(step * count)


def test_q_ratio():
    q = LaurentPoly.q_power
    assert q_ratio((), ()) == LaurentPoly.one()
    assert q_ratio((3,), (1,)) == 1 + q(1) + q(2)
    assert q_ratio((2, 3), (1, 2)) == q_ratio((3,), (1,))
    assert q_ratio((1, 1), ()) == 1 - 2 * q(1) + q(2)
    with pytest.raises(NotDivisible):
        q_ratio((1,), (2,))
    # non-polynomial ratios whose degree and value at q = 1 look fine
    with pytest.raises(NotDivisible):
        q_ratio((1, 1), (2,))
    with pytest.raises(NotDivisible):
        q_ratio((1, 3), (2, 2))
    assert q_ratio((0,), (5,)) == LaurentPoly.zero()
    with pytest.raises(ZeroDivisionError):
        q_ratio((0,), (0,))
    with pytest.raises(ZeroDivisionError):
        q_ratio((2,), (0,))
    assert q_ratio((-3,), (1,)) == -q(-3) * (1 + q(1) + q(2))
    assert q_ratio((3,), (-1,)) == -q(1) * (1 + q(1) + q(2))
    assert q_ratio((4, 6), (2,)) == (1 + q(2)) * (1 - q(6))
    with pytest.raises(TypeError):
        q_ratio((True,), ())


exps_st = st.lists(st.integers(min_value=-8, max_value=12), max_size=5)


def assert_ratio_agrees(num, den):
    try:
        expected = ratio_oracle(num, den)
    except (NotDivisible, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            q_ratio(num, den)
    else:
        assert dict(q_ratio(num, den).terms()) == expected


@settings(max_examples=300, deadline=None)
@given(exps_st, exps_st)
def test_q_ratio_matches_oracle(num, den):
    assert_ratio_agrees(num, den)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=-6, max_value=9), max_size=5),
       st.lists(st.sampled_from((-3, -2, -1, 1, 2, 3)), min_size=5, max_size=5),
       exps_st)
def test_q_ratio_matches_oracle_on_multiples(den, ks, extra):
    # each (1 - q**(k*b)) is divisible by (1 - q**b), so most cases are polynomials
    assert_ratio_agrees([b * k for b, k in zip(den, ks)] + extra, den)


# exponents at two scales, so that some ratios are sparse with a large degree
two_scale_exps_st = st.lists(
    st.one_of(st.integers(min_value=-8, max_value=12),
              st.integers(min_value=-3, max_value=4).map(lambda k: 200 * k),
              st.integers(min_value=1, max_value=3).map(lambda k: 200 * k + 1)),
    max_size=5)


@settings(max_examples=300, deadline=None)
@given(two_scale_exps_st, st.lists(st.integers(min_value=1, max_value=4), max_size=4),
       st.lists(st.sampled_from((1, 2, 3)), min_size=4, max_size=4))
def test_q_ratio_matches_oracle_at_two_scales(extra, den, ks):
    large = [200 * b * k for b, k in zip(den, ks)]
    assert_ratio_agrees(large + extra, den)
    assert_ratio_agrees(extra, [])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=9), max_size=5),
       st.lists(st.sampled_from((1, 2, 3)), min_size=5, max_size=5),
       st.lists(st.integers(min_value=1, max_value=12), max_size=4))
def test_sparse_and_dense_series_agree(den, ks, extra):
    num = [b * k for b, k in zip(den, ks)] + extra
    try:
        expected = ratio_oracle(num, den)
    except NotDivisible:
        assume(False)
    net = Counter(num)
    net.subtract(den)
    net = {e: k for e, k in net.items() if k}
    deg = sum(e * k for e, k in net.items())
    dense = {k: c for k, c in enumerate(_dense_series(net, deg)) if c}
    assert dict(_sparse_series(net, math.inf)) == dense == expected


def test_q_ratio_sparse_result_of_huge_degree(monkeypatch):
    # a dense series of degree 10**9 would need a 10**9-entry list
    def no_dense(net, deg):
        raise AssertionError("dense series of degree %d" % deg)
    monkeypatch.setattr("qmelon.laurent._dense_series", no_dense)
    q = LaurentPoly.q_power
    n = 10**9
    assert q_ratio((n, 1), ()) == (1 - q(n)) * (1 - q(1))
    assert q_ratio((2 * n, 3), (n, 1)) == (1 + q(n)) * (1 + q(1) + q(2))
    assert q_ratio((-2 * n, 3), (n, -1)) == q_ratio((2 * n, 3), (n, 1)).shift(1 - 2 * n)


matrix_st = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(poly_st, min_size=n, max_size=n), min_size=n, max_size=n))


@settings(max_examples=40, deadline=None)
@given(matrix_st)
def test_bareiss_matches_cofactor(rows):
    m = PolyMatrix(rows)
    assert det_fraction_free(m) == det_cofactor(m)


@settings(max_examples=40, deadline=None)
@given(matrix_st)
def test_bareiss_matches_permutation_expansion(rows):
    assert det_fraction_free(PolyMatrix(rows)) == perm_det(rows)


def test_det_edge_cases():
    assert det_fraction_free(PolyMatrix([])) == LaurentPoly.one()
    assert det_cofactor(PolyMatrix([])) == LaurentPoly.one()
    one = LaurentPoly.one()
    zero = LaurentPoly.zero()
    assert det_fraction_free(PolyMatrix([[zero, one], [zero, one]])).is_zero()
    # zero column early, nonzero later rows
    m = PolyMatrix([[zero, one], [zero, LaurentPoly.q_power(2)]])
    assert det_fraction_free(m).is_zero()


def test_det_singular_with_zero_leading_column():
    q = LaurentPoly.q_power
    m = PolyMatrix([
        [LaurentPoly.zero(), q(1), q(2)],
        [LaurentPoly.zero(), q(2), q(3)],
        [q(1), q(1), q(1)],
    ])
    assert det_fraction_free(m) == det_cofactor(m)


def test_vandermonde_explicit():
    # prod_{i<j} (q^{e_j} - q^{e_i})
    assert vandermonde(()) == LaurentPoly.one()
    assert vandermonde((3,)) == LaurentPoly.one()
    assert vandermonde((0, 1)) == LaurentPoly.q_power(1) - 1
    e = (0, 1, 3)
    expect = ((LaurentPoly.q_power(1) - 1)
              * (LaurentPoly.q_power(3) - 1)
              * (LaurentPoly.q_power(3) - LaurentPoly.q_power(1)))
    assert vandermonde(e) == expect


@given(st.lists(st.integers(min_value=-4, max_value=6), min_size=1, max_size=4,
                unique=True))
def test_vandermonde_is_power_matrix_det(exps):
    n = len(exps)
    rows = [[LaurentPoly.q_power(e * j) for j in range(n)] for e in exps]
    det = det_fraction_free(PolyMatrix(rows))
    assert det == vandermonde(tuple(exps))


def test_polymatrix_validation():
    with pytest.raises(ValueError):
        PolyMatrix([[LaurentPoly.one()], [LaurentPoly.one(), LaurentPoly.one()]])
    m = PolyMatrix([[1, 0], [2, LaurentPoly.q_power(1)]])
    assert m.entry(0, 0) == LaurentPoly.one()


def test_pow():
    p = 1 + LaurentPoly.q_power(1)
    assert p ** 0 == LaurentPoly.one()
    assert p ** 3 == p * p * p
    with pytest.raises(ValueError):
        p ** -1
