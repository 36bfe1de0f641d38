import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmelon.laurent import (
    LaurentPoly,
    NotDivisible,
    PolyMatrix,
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
