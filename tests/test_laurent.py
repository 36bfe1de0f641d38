import itertools
import math
import random
import time
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cauchy_oracle import geometric_sum, vandermonde
from series_oracle import full_series
from qmelon import laurent, qanalogs
from qmelon.laurent import (
    LaurentPoly,
    NotDivisible,
    PolyMatrix,
    _kronecker_mul,
    det_fraction_free,
    q_ratio,
)
from qmelon.paths import closed_genfunc, genfunc_det_forms


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
    assert LaurentPoly.q_power(4) == LaurentPoly({4: 1})


def test_constant_hashes_like_its_int():
    assert LaurentPoly.const(3) == 3
    assert hash(LaurentPoly.const(3)) == hash(3)
    assert hash(LaurentPoly.const(-1)) == hash(-1)
    assert hash(LaurentPoly.zero()) == hash(0)
    assert len({3, LaurentPoly.const(3)}) == 1
    assert len({0, LaurentPoly.zero()}) == 1
    assert len({LaurentPoly({0: 3}), LaurentPoly({1: 3})}) == 2


def test_bool_is_not_a_constant():
    assert (LaurentPoly.one() == True) is False  # noqa: E712
    assert LaurentPoly.one() != True  # noqa: E712
    assert True not in [LaurentPoly.one()]
    with pytest.raises(TypeError):
        LaurentPoly.one() + True
    with pytest.raises(TypeError):
        True * LaurentPoly.one()


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


def long_div_spy():
    """A patch of laurent._long_div that records each call; returns it and the record."""
    real = laurent._long_div
    calls = []

    def spy(a, b):
        calls.append((a, b))
        return real(a, b)

    return mock.patch.object(laurent, "_long_div", spy), calls


def packed_route():
    """A patch that sends every exact_div whose quotient has a digit to the packed route."""
    return mock.patch.object(laurent, "_KRONECKER_CUTOFF", -math.inf)


def quotient_widths(module=laurent, forced=False):
    """A patch of module's _packed_quotient that records the widths each call divides at.

    A call divides at its caller's width first, then at each wider width
    it packs both operands at; returns the patch and one list of widths per
    call.  forced: a numerator bound of X leaves the proof no room at the
    caller's width, so every quotient proven after the fact is widened.
    """
    real = laurent._packed_quotient
    calls = []

    def spy(num, den, low, width, num_max=None, den_norm=0):
        widths = [width]
        calls.append(widths)
        real_pack = laurent._pack

        def pack(coeffs, w):
            if w != widths[-1]:
                widths.append(w)
            return real_pack(coeffs, w)

        if forced and num_max is not None:
            num_max = 1 << 8 * width
        with mock.patch.object(laurent, "_pack", pack):
            return real(num, den, low, width, num_max, den_norm)

    return mock.patch.object(module, "_packed_quotient", spy), calls


@settings(max_examples=200, deadline=None)
@given(big_terms_st, big_terms_st)
def test_kronecker_div_matches_long_division(p, r):
    # every divisible pair is decided on the packed route, without long division
    a = naive_mul(p, r)
    spy, slow = long_div_spy()
    with packed_route(), spy:
        got = LaurentPoly(a).exact_div(LaurentPoly(r))
    assert got._terms == naive_div(a, r) == p
    assert slow == []


@settings(max_examples=200, deadline=None)
@given(big_terms_st, big_terms_st, big_terms_st)
# 2 q**-2 - 1 over -2 q**-1: the one-byte candidate 32767 has the digits
# -1 and 128, so it takes three digits, one more than its bit length gives
@example({-1: -1}, {-1: -2}, {0: -1})
def test_kronecker_div_never_accepts_a_remainder(p, r, extra):
    a = naive_mul(p, r)
    for e, c in extra.items():
        a[e] = a.get(e, 0) + c
    a = {e: c for e, c in a.items() if c}
    assume(a)
    spy, slow = long_div_spy()
    patch, widths = quotient_widths()
    try:
        expected = naive_div(a, r)
    except NotDivisible:
        with packed_route(), spy, patch, pytest.raises(NotDivisible):
            LaurentPoly(a).exact_div(LaurentPoly(r))
        if widths:
            # a packed remainder is the proof: long division runs only
            # once _packed_quotient's three widths have run out
            [divided] = widths
            assert slow == [] or (len(slow) == 1 and len(divided) == 3)
        else:
            # the quotient has no digit to pack, and long division decides
            assert len(slow) == 1
    else:
        with packed_route(), spy:
            assert LaurentPoly(a).exact_div(LaurentPoly(r))._terms == expected
        assert slow == []


def test_kronecker_div_widens_for_a_large_quotient():
    # (1 + q) times an alternating tent of height 2000 C has every coefficient
    # in {-C, 0, C}: the quotient needs 11 more bits than the dividend
    n, big = 4000, 10**40
    quotient = {i: (-1) ** i * min(i + 1, n - i) * big for i in range(n)}
    for divisor in ({0: 1, 1: 1}, {-3: 1, -2: 1}):
        dividend = naive_mul(quotient, divisor)
        assert max(map(abs, dividend.values())) == big
        spy, slow = long_div_spy()
        patch, widths = quotient_widths()
        with packed_route(), spy, patch:
            assert LaurentPoly(dividend).exact_div(LaurentPoly(divisor))._terms == quotient
        [[first, *wider]] = widths
        assert len(wider) == 1 and wider[0] > first and slow == []


def test_large_non_divisible_dividend_raises():
    divisor = {e - 10: (-3) ** e * 10**30 + e for e in range(60)}
    dividend = naive_mul({e: 7**e - 5 for e in range(80)}, divisor)
    dividend[17] += 1
    with pytest.raises(NotDivisible):
        naive_div(dividend, divisor)
    spy, slow = long_div_spy()
    patch, widths = quotient_widths()
    with spy, patch, pytest.raises(NotDivisible, match="^remainder in packed division$"):
        LaurentPoly(dividend).exact_div(LaurentPoly(divisor))
    # the packed divmod leaves a remainder, which proves that there is no
    # quotient: no long division runs
    assert len(widths) == 1 and slow == []
    dividend[17] -= 1
    with spy, patch:
        assert LaurentPoly(dividend).exact_div(LaurentPoly(divisor)) == LaurentPoly(
            {e: 7**e - 5 for e in range(80)})
    assert len(widths) == 2 and slow == []


def test_exact_div_refuses_a_divmod_past_the_quotient_limit():
    # (1 - q)**2 divides 1 - 2 q**200 + q**400 on the packed route at one
    # byte, 400 by 2 bytes (work 200); the tent quotient, up to 200, carries
    # there, so the proof widens to two bytes: 800 by 4 bytes (work 800)
    tent = naive_mul({e: 1 for e in range(200)}, {e: 1 for e in range(200)})
    dividend, divisor = LaurentPoly({0: 1, 200: -2, 400: 1}), LaurentPoly({0: 1, 1: -2, 2: 1})
    patch, widths = quotient_widths()
    with packed_route(), patch, mock.patch.object(laurent, "_MAX_BIGINT_WORK", 800):
        assert dividend.exact_div(divisor)._terms == tent
    assert widths == [[1, 2]]
    message = ("a packed quotient of 800 by 4 bytes would take 800 division steps, "
               "over the limit of 799")
    with packed_route(), mock.patch.object(laurent, "_MAX_BIGINT_WORK", 799):
        with pytest.raises(ValueError, match=f"^{message}$"):
            dividend.exact_div(divisor)
    with packed_route(), mock.patch.object(laurent, "_MAX_BIGINT_WORK", 199):
        with pytest.raises(ValueError, match="^a packed quotient of 400 by 2 bytes "):
            dividend.exact_div(divisor)


def test_long_division_is_charged_as_it_runs(monkeypatch):
    # q**3 - 1 over q - 1 takes three quotient terms, each scanning a
    # remainder of two terms and updating the divisor's two, at 24 steps an
    # update: exact at the limit, and one below it refused as the third
    # term is charged
    steps = 3 * (2 + 2 * 24)
    dividend, divisor = LaurentPoly({0: -1, 3: 1}), LaurentPoly({0: -1, 1: 1})
    monkeypatch.setattr(laurent, "_MAX_SERIES_WORK", steps)
    assert dividend.exact_div(divisor) == LaurentPoly({0: 1, 1: 1, 2: 1})
    monkeypatch.setattr(laurent, "_MAX_SERIES_WORK", steps - 1)
    with pytest.raises(ValueError, match=f"^a long division of 2 by 2 terms would take {steps} "
                                         f"or more steps, over the limit of {steps - 1}$"):
        dividend.exact_div(divisor)


def sparse_pair(rng, quotient_terms, divisor_terms, span):
    """A random sparse quotient and divisor over span exponents, and their product."""
    quotient = {rng.randrange(span): rng.randint(1, 10**6) for _ in range(quotient_terms)}
    divisor = {rng.randrange(span): rng.randint(1, 10**6) for _ in range(divisor_terms)}
    return naive_mul(quotient, divisor), divisor, quotient


def test_long_division_budget_at_the_measured_points():
    # a 1,000-term quotient by a 10-term divisor, 5.5 * 10**6 steps, is kept;
    # at 3,000 terms the scans alone pass 2 * 10**7, and the call is refused
    # after about that much work instead of running for 1.6 s
    rng = random.Random(61)
    dividend, divisor, quotient = sparse_pair(rng, 1000, 10, 3 * 10**5)
    assert LaurentPoly(dividend).exact_div(LaurentPoly(divisor))._terms == quotient
    dividend, divisor, quotient = sparse_pair(rng, 3000, 10, 3 * 10**5)
    start = time.process_time()
    with pytest.raises(ValueError, match=f"^a long division of {len(dividend)} by "):
        LaurentPoly(dividend).exact_div(LaurentPoly(divisor))
    assert time.process_time() - start < 1.5


@settings(deadline=None, max_examples=100)
@given(st.integers(min_value=1, max_value=9).flatmap(lambda width: st.tuples(
    st.just(width),
    st.lists(st.integers(min_value=-2**(8 * width - 1), max_value=2**(8 * width - 1) - 1),
             min_size=1, max_size=12))))
def test_unpack_inverts_pack_at_every_width(case):
    # widths 1, 2, 4 and 8 are read by a native cast, the others digit by
    # digit; a host without the cast (big-endian) reads them all digit by digit
    width, coeffs = case
    for native in (dict(laurent._NATIVE_SIGNED), {}):
        with mock.patch.object(laurent, "_NATIVE_SIGNED", native):
            assert laurent._unpack(laurent._pack(coeffs, width), len(coeffs), width) == coeffs
            with pytest.raises(OverflowError):
                laurent._unpack(1 << (8 * width * len(coeffs)), len(coeffs), width)


def packed_at(terms: dict, low: int, width: int) -> int:
    """terms at q = X = 2**(8*width) times X**(-low); every exponent is at least low."""
    return sum(c << (8 * width * (e - low)) for e, c in terms.items())


small_terms_st = st.dictionaries(st.integers(min_value=-6, max_value=6),
                                 st.integers(min_value=-9, max_value=9), min_size=1,
                                 max_size=6).map(lambda d: {e: c for e, c in d.items() if c})


@settings(max_examples=200, deadline=None)
@given(small_terms_st, small_terms_st, st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=3))
def test_packed_quotient_matches_long_division(p, r, pad_a, pad_b):
    # powers of X below both operands are stripped; the width holds A and B,
    # so the a-priori route, the proven route and its widening all give p
    assume(p and r)
    a = naive_mul(p, r)
    bound = max(map(abs, a.values()))
    norm = sum(map(abs, r.values()))
    width = max(bound, norm).bit_length() // 8 + 1
    num = packed_at(a, min(a) - pad_a, width)
    den = packed_at(r, min(r) - pad_b, width)
    low = min(a) - pad_a - (min(r) - pad_b)
    proven = bound + norm * max(map(abs, p.values())) < 1 << 8 * width
    spy, slow = long_div_spy()
    patch, widths = quotient_widths()
    with spy, patch:
        assert laurent._packed_quotient(num, den, low, width, bound, norm)._terms == p
        [divided] = widths
        assert (len(divided) == 1) == proven and slow == []
        if proven:
            assert laurent._packed_quotient(num, den, low, width)._terms == p
    if len(r) > 1:
        with pytest.raises(NotDivisible):
            laurent._packed_quotient(num + (1 << 8 * width * pad_a), den, low, width, bound, norm)


def test_packed_quotient_proof_rejects_a_carried_digit():
    # (1 - q)**2 times the tent (1 + ... + q**199)**2 is 1 - 2 q**200 + q**400:
    # A and B fit in one byte, but the tent's middle coefficients, up to 200,
    # carry into the next digit, so the one-byte candidate is wrong and only
    # the proof keeps it out; at two bytes the tent is proven
    tent = naive_mul({e: 1 for e in range(200)}, {e: 1 for e in range(200)})
    num = packed_at({0: 1, 200: -2, 400: 1}, 0, 1)
    den = packed_at({0: 1, 1: -2, 2: 1}, 0, 1)
    assert laurent._packed_quotient(num, den, 0, 1)._terms != tent
    spy, slow = long_div_spy()
    patch, widths = quotient_widths()
    with spy, patch:
        assert laurent._packed_quotient(num, den, 0, 1, 2, 4)._terms == tent
    assert widths == [[1, 2]] and slow == []


def test_packed_quotient_widens_to_the_width_of_its_bound():
    # 100 (1 + q**3000) / (1 + q) is 100 times the alternating 1 - q + ...,
    # whose absolute sum 300,000 fails the proof at one byte: the bound,
    # 100 + 300,000, takes three bytes, more than twice the last width
    ones = {e: 100 * (-1) ** e for e in range(3000)}
    num = packed_at(naive_mul(ones, {0: 1, 1: 1}), 0, 1)
    den = packed_at(ones, 0, 1)
    patch, widths = quotient_widths()
    with patch:
        assert laurent._packed_quotient(num, den, 0, 1, 100, 300000)._terms == {0: 1, 1: 1}
    assert widths == [[1, 3]]


def test_kronecker_div_packs_a_divisor_wider_than_the_dividend():
    # the pack width has to fit the divisor's coefficients, not only the dividend's
    dividend = {e: 1 for e in range(200)}
    divisor = {e: 10**30 for e in range(20)}
    with pytest.raises(NotDivisible):
        naive_div(dividend, divisor)
    spy, slow = long_div_spy()
    patch, widths = quotient_widths()
    with packed_route(), spy, patch, pytest.raises(NotDivisible):
        LaurentPoly(dividend).exact_div(LaurentPoly(divisor))
    # one divmod at a width that holds 10**30 decides, with no long division
    [[width]] = widths
    assert 10**30 < 1 << 8 * width - 1 and slow == []
    # prod (1 + q**a) divides prod (1 - q**(2a)), and its coefficients, near
    # 2**40 / 40**1.5, are over 10**6 times those of the dividend
    divisor, quotient = {0: 1}, {e: 1 for e in range(1500)}
    for a in range(1, 41):
        divisor = naive_mul(divisor, {0: 1, a: 1})
        quotient = naive_mul(quotient, {0: 1, a: -1})
    dividend = naive_mul(divisor, quotient)
    assert max(map(abs, divisor.values())) > 10**6 * max(map(abs, dividend.values()))
    spy, slow = long_div_spy()
    with packed_route(), spy:
        assert LaurentPoly(dividend).exact_div(LaurentPoly(divisor))._terms == quotient
    assert slow == []


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
    for bad in (float(e), e == 0):
        with pytest.raises(TypeError):
            p.shift(bad)


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


def test_q_ratio_sparse_result_of_huge_degree(monkeypatch):
    # a dense series of degree 10**9 would need a 10**9-entry list, so the
    # ratio is refused before any list is built
    def no_dense(net, deg):
        raise AssertionError("dense series of degree %d" % deg)
    monkeypatch.setattr("qmelon.laurent._dense_series", no_dense)
    n = 10**9
    for num, den in (((n, 1), ()), ((2 * n, 3), (n, 1)), ((-2 * n, 3), (n, -1))):
        with pytest.raises(ValueError, match=r"degree D = 100000000[0-9] in q\*\*1; "
                                             r"its D \+ 1 coefficients exceed the limit"):
            q_ratio(num, den)


def test_q_ratio_limit_is_on_the_coefficient_count(monkeypatch):
    monkeypatch.setattr(laurent, "_MAX_DENSE_COEFFS", 10)
    # 1 + q + ... + q**9: D + 1 = 10 coefficients, at the limit
    assert q_ratio((10,), (1,)) == geometric_sum(1, 10)
    # D counts powers of t = q**g, not of q
    assert q_ratio((30,), (3,)) == geometric_sum(3, 10)
    with pytest.raises(ValueError, match=r"D = 10 in q\*\*1;.* limit of 10$"):
        q_ratio((11,), (1,))


def test_q_ratio_refuses_past_the_series_pass_limit(monkeypatch):
    # (1 - q**2)**2 * (1 - q**3): D = 7, so 4 slots and 3 passes, the
    # factor of exponent 3 included; (1 - q**6)(1 - q**4) / ((1 - q)(1 - q**2))
    # passes over its 4 slots only for the two denominators
    monkeypatch.setattr(laurent, "_MAX_SERIES_WORK", 12)
    assert q_ratio((2, 2, 3), ()) == LaurentPoly(ratio_oracle((2, 2, 3), ()))
    assert q_ratio((6, 4), (1, 2)) == LaurentPoly(ratio_oracle((6, 4), (1, 2)))
    monkeypatch.setattr(laurent, "_MAX_SERIES_WORK", 11)
    with pytest.raises(ValueError, match=r"^ratio of q-products has degree D = 7 in q\*\*1; its "
                                         r"series would take 12 slot-passes, over the limit of 11$"):
        q_ratio((2, 2, 3), ())
    assert q_ratio((6, 4), (1, 2)) == LaurentPoly(ratio_oracle((6, 4), (1, 2)))
    monkeypatch.setattr(laurent, "_MAX_SERIES_WORK", 7)
    with pytest.raises(ValueError, match="8 slot-passes, over the limit of 7$"):
        q_ratio((6, 4), (1, 2))


def series_calls(num, den):
    """The (net, deg) pairs q_ratio hands to its series; none when it raises first."""
    calls = []
    real = laurent._dense_series

    def spy(net, deg):
        calls.append((dict(net), deg))
        return real(net, deg)

    with mock.patch.object(laurent, "_dense_series", spy):
        try:
            q_ratio(num, den)
        except (NotDivisible, ZeroDivisionError):
            pass
    return calls


# Products of (1 - t**e)**k with k >= 0: every one a polynomial of degree
# sum e * k, zero multiplicities and exponents past half the degree included.
product_net_st = st.dictionaries(st.integers(min_value=1, max_value=12),
                                 st.integers(min_value=0, max_value=3), max_size=6)


@settings(max_examples=300, deadline=None)
@given(product_net_st)
def test_half_series_matches_full_series_on_products(net):
    deg = sum(e * k for e, k in net.items())
    assert laurent._dense_series(net, deg) == full_series(net, deg)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=-6, max_value=9), max_size=5),
       st.lists(st.sampled_from((-3, -2, -1, 1, 2, 3)), min_size=5, max_size=5),
       exps_st)
@example([1, 2], [6, 2, 1, 1, 1], [])
@example([1], [-3, 1, 1, 1, 1], [5])
def test_half_series_matches_full_series_through_q_ratio(den, ks, extra):
    # the nets q_ratio builds, denominators and negative exponents included
    for net, deg in series_calls([b * k for b, k in zip(den, ks)] + extra, den):
        assert laurent._dense_series(net, deg) == full_series(net, deg)


# (num, den, D, F): odd and even degree, odd and even sign exponent, a
# negative exponent, a factor cancelled to a zero net multiplicity, and
# factors with an exponent in (D/2, D]
@pytest.mark.parametrize("num, den, deg, flips", [
    ((10,), (1,), 9, 0),
    ((6, 4), (1, 2), 7, 0),
    ((2, 2, 3), (), 7, 1),
    ((1, 3), (), 4, 0),
    ((1, 1, 2), (), 4, 1),
    ((-3, 5), (1,), 7, 1),
    ((2, 6, 7), (2, 1), 12, 1),
])
def test_half_series_cases(num, den, deg, flips):
    [(net, got_deg)] = series_calls(num, den)
    assert (got_deg, sum(net.values()) & 1) == (deg, flips)
    half = laurent._dense_series(net, deg)
    assert half == full_series(net, deg)
    assert half == [(-1) ** flips * c for c in reversed(half)]
    assert dict(q_ratio(num, den).terms()) == ratio_oracle(num, den)


matrix_st = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(poly_st, min_size=n, max_size=n), min_size=n, max_size=n))


@settings(max_examples=40, deadline=None)
@given(matrix_st)
def test_bareiss_matches_permutation_expansion(rows):
    assert det_fraction_free(PolyMatrix(rows)) == perm_det(rows)


# Entries for the determinant: small and huge coefficients, negative
# exponents, zeros, and plain ints, which PolyMatrix embeds as constants.
det_entry_st = st.one_of(
    poly_st, big_terms_st.map(LaurentPoly), st.just(0),
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-10**120, max_value=10**120))


@st.composite
def det_matrix_st(draw):
    """Square matrices up to 5 x 5, some with a zero row or column or a repeated row."""
    n = draw(st.integers(min_value=1, max_value=5))
    rows = draw(st.lists(st.lists(det_entry_st, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    index = st.integers(min_value=0, max_value=n - 1)
    shape = draw(st.sampled_from(("full", "zero row", "zero column", "repeated row")))
    if shape == "zero row":
        rows[draw(index)] = [0] * n
    elif shape == "zero column":
        j = draw(index)
        rows = [row[:j] + [0] + row[j + 1:] for row in rows]
    elif shape == "repeated row":
        rows[draw(index)] = list(rows[draw(index)])
    return rows


@settings(max_examples=60, deadline=None)
@given(det_matrix_st())
def test_det_of_mixed_entries_matches_permutation_expansion(rows):
    det = det_fraction_free(PolyMatrix(rows))
    assert det == perm_det([[LaurentPoly.const(x) if isinstance(x, int) else x
                             for x in row] for row in rows])


# Rows of sizes medium, small and large, so the size order (1, 0, 2) is one
# transposition and the minors expansion must fold in its odd sign; the
# large row has a negative exponent.
ODD_ORDER_ROWS = [[10**50, 1, 1], [1, 2, 3],
                  [LaurentPoly({-2: 10**100}), LaurentPoly({3: 1}), 7]]

PACKED_ROUTES = {"minors": {"_MINORS_DET_MAX_ROWS": math.inf, "_MINORS_DET_MIN_BYTES": 0},
                 "bareiss": {"_MINORS_DET_MAX_ROWS": 0}}

q = LaurentPoly.q_power
# Matrices of width W >= 2 for the minors route at q = Y and q = -Y, with
# (W, S) = (2, 4), (3, 5), (2, 5) and (3, 6): odd and even widths and
# spans, negative coefficients, a negative exponent and entries of one
# odd-exponent term
TWO_POINT_ROWS = [
    [[200, 0, q(3)], [0, -1, 0], [q(1), 0, 1 + q(1)]],
    [[-(10**4), q(-2) * 7, 0], [0, q(1) * -3, 1], [q(2), 2, 5]],
    [[300 * q(1), 1, 0], [-1, q(4), 2], [0, 0, -1]],
    [[q(2) * 10**5, q(1), -1], [3, 0, q(3) * -5], [1, q(1), -q(1)]],
]
# Matrices of width 1 and positive span, (W, S) = (1, 2) and (1, 3)
WIDTH_ONE_ROWS = [
    [[1, q(2), 0], [0, -1, 0], [1, 0, 1]],
    [[q(-1), 0, 1], [0, 1 - q(2), 0], [1, 0, -1]],
]


@pytest.mark.parametrize("route", sorted(PACKED_ROUTES))
@settings(max_examples=60, deadline=None)
@given(det_matrix_st())
@example(ODD_ORDER_ROWS)
@example([[10**50, 1, 1], [1, 2, 3], [10**100, 10**100 + 1, 7]])
@example(TWO_POINT_ROWS[0])
@example(TWO_POINT_ROWS[1])
@example(TWO_POINT_ROWS[2])
@example(TWO_POINT_ROWS[3])
@example(WIDTH_ONE_ROWS[0])
@example(WIDTH_ONE_ROWS[1])
def test_packed_det_by_both_routes_matches_permutation_expansion(route, rows):
    # every matrix of positive span packed, then expanded by minors always
    # or never
    minors = mock.Mock(wraps=laurent._minors_det)
    unpacks = mock.Mock(wraps=laurent._unpack)
    with mock.patch.multiple(laurent, _minors_det=minors, _unpack=unpacks,
                             **PACKED_ROUTES[route]):
        det = det_fraction_free(PolyMatrix(rows))
    assert det == perm_det([[LaurentPoly.const(x) if isinstance(x, int) else x
                             for x in row] for row in rows])
    packed = len(rows) >= 3 and all(any(row) for row in rows) and det_span(rows) > 0
    # both routes evaluate at q = Y and q = -Y, at every width, and unpack
    # the even and the odd coefficients; a matrix of zero span is not packed
    assert minors.call_count == (2 if packed and route == "minors" else 0)
    if len(rows) >= 3:
        assert unpacks.call_count == (2 if packed else 0)


@st.composite
def shifted_matrix_st(draw):
    """Matrices of 3 to 5 rows times q**v_i on row i and q**c_j on column j.

    The shifts may be negative, and some matrices have an all-zero column,
    so the minors route's column shifts meet each case they handle.
    """
    n = draw(st.integers(min_value=3, max_value=5))
    rows = draw(st.lists(st.lists(det_entry_st, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    shifts = st.lists(st.integers(min_value=-40, max_value=40), min_size=n, max_size=n)
    row_shifts, col_shifts = draw(shifts), draw(shifts)
    if draw(st.booleans()):
        j = draw(st.integers(min_value=0, max_value=n - 1))
        rows = [row[:j] + [0] + row[j + 1:] for row in rows]
    return [[LaurentPoly._coerce(x).shift(v + c) for x, c in zip(row, col_shifts)]
            for row, v in zip(rows, row_shifts)]


# One entry object at row shifts 0 and -2, which must be packed once at
# each shift
SHARED = LaurentPoly({0: 10**40, 3: 7})


@pytest.mark.parametrize("route", sorted(PACKED_ROUTES))
@settings(max_examples=80, deadline=None)
@given(shifted_matrix_st())
@example([[q(5) * 10**40, q(7), q(9)], [q(-3), q(-1) * 2, q(1) * 3],
          [q(20) * 4, q(22) * 5 + q(30), q(24) * 6]])
@example([[SHARED, SHARED, q(1)], [q(-2), SHARED, SHARED], [SHARED, 5, SHARED]])
@example([[q(3), 0, q(5)], [0, q(4), 0], [q(3), q(4), -q(6)]])  # W = 1, c = (0, 0, 2)
def test_packed_det_of_row_and_column_shifted_matrices(route, rows):
    with mock.patch.multiple(laurent, **PACKED_ROUTES[route]):
        det = det_fraction_free(PolyMatrix(rows))
    assert det == perm_det(rows)


def shifted_span(rows):
    """S' and the column shifts c_j of det_fraction_free's packed routes."""
    terms = [[LaurentPoly._coerce(x)._terms for x in row] for row in rows]
    lows = [min(e for t in row for e in t) for row in terms]
    cols = [min([min(t) - low for t, low in zip(col, lows) if t], default=0)
            for col in zip(*terms)]
    return sum(max(max(t) - low - c for t, c in zip(row, cols) if t)
               for row, low in zip(terms, lows)), cols


@st.composite
def wide_sparse_matrix_st(draw):
    """Matrices of 3 to 5 rows, width 1 and W * S >= 512, with column shifts.

    Each row holds two terms +-q**e, e up to 300, so every row norm is at
    most 2 and B at most 32; row i is shifted by q**v_i and column j by
    q**c_j, which spreads the rows far apart.  The column shifts shorten
    the span: S' < S.
    """
    n = draw(st.integers(min_value=3, max_value=5))
    rows = [[0] * n for _ in range(n)]
    for row in rows:
        for _ in range(2):
            row[draw(st.integers(min_value=0, max_value=n - 1))] += (
                draw(st.sampled_from([-1, 1])) * q(draw(st.integers(min_value=0, max_value=300))))
    shifts = st.lists(st.integers(min_value=-400, max_value=400), min_size=n, max_size=n)
    row_shifts, col_shifts = draw(shifts), draw(shifts)
    rows = [[LaurentPoly._coerce(x).shift(v + c) for x, c in zip(row, col_shifts)]
            for row, v in zip(rows, row_shifts)]
    assume(all(any(row) for row in rows))
    assume(det_span(rows) >= 512 and shifted_span(rows)[0] < det_span(rows))
    return rows


@pytest.mark.parametrize("route", sorted(PACKED_ROUTES))
@settings(max_examples=60, deadline=None)
@given(wide_sparse_matrix_st())
def test_width_one_sparse_matrices_by_both_routes_match_permutation_expansion(route, rows):
    # both packed routes shift the columns and unpack S' + 1 digits, the
    # minors route as even and odd halves
    assert det_width(rows) == 1
    unpacks = mock.Mock(wraps=laurent._unpack)
    with mock.patch.multiple(laurent, _unpack=unpacks, **PACKED_ROUTES[route]):
        det = det_fraction_free(PolyMatrix(rows))
    assert det == perm_det(rows)
    assert sum(call.args[1] for call in unpacks.call_args_list) == shifted_span(rows)[0] + 1


def test_minors_route_unpacks_the_column_shifted_span():
    # q**(2j) on column j: the row-shifted span is 3 * 4 = 12, the shifted
    # one 0, so a 10**40 scalar matrix unpacks one digit
    base = [[10**40, 1, 2], [3, 4 * 10**40, 5], [6, 7, 8 * 10**40]]
    rows = [[q(2 * j) * x for j, x in enumerate(row)] for row in base]
    unpacks = mock.Mock(wraps=laurent._unpack)
    with mock.patch.multiple(laurent, _unpack=unpacks, **PACKED_ROUTES["minors"]):
        det = det_fraction_free(PolyMatrix(rows))
    assert det == perm_det(rows) == q(6) * det_fraction_free(PolyMatrix(base)).coeff(0)
    assert sum(call.args[1] for call in unpacks.call_args_list) == 1


def det_width(rows):
    """det_fraction_free's width W, the least with 2**(8W-1) > prod of the row L1 norms."""
    return math.prod(sum(abs(c) for x in row for c in LaurentPoly._coerce(x)._terms.values())
                     for row in rows).bit_length() // 8 + 1


def det_span(rows):
    """S, the sum over the rows of the degree minus the least exponent."""
    span = 0
    for row in rows:
        exps = [e for x in row for e in LaurentPoly._coerce(x)._terms]
        span += max(exps) - min(exps)
    return span


def test_two_point_cases_cover_both_parities():
    assert {(det_width(rows) & 1, det_span(rows) & 1) for rows in TWO_POINT_ROWS} == {
        (0, 0), (0, 1), (1, 0), (1, 1)}
    assert all(det_width(rows) >= 2 for rows in TWO_POINT_ROWS)
    assert {(det_width(rows), det_span(rows) & 1) for rows in WIDTH_ONE_ROWS} == {(1, 0), (1, 1)}


@pytest.mark.parametrize("call", [0, 1])
@pytest.mark.parametrize("offset", ["1", "Y"])
def test_two_point_det_detects_a_corrupted_expansion(call, offset):
    # D(Y) - D(-Y) is a multiple of 2Y; one expansion off by 1 or by Y
    # breaks that, whichever point it was
    rows = TWO_POINT_ROWS[1]
    half = (det_width(rows) + 1) // 2
    real = laurent._minors_det
    calls = []

    def corrupted(a):
        calls.append(a)
        value = real(a)
        return value + (1 if offset == "1" else 1 << 8 * half) if len(calls) == call + 1 else value

    with mock.patch.multiple(laurent, _minors_det=corrupted, **PACKED_ROUTES["minors"]):
        with pytest.raises(RuntimeError, match="^fraction-free elimination lost exactness$") as info:
            det_fraction_free(PolyMatrix(rows))
    assert isinstance(info.value.__cause__, NotDivisible)
    assert len(calls) == 2


def test_width_one_takes_the_two_point_route():
    # B = 2, 126 and 127 give W = 1 and B = 128 gives W = 2; each is
    # recovered once from its expansions at q = Y and q = -Y, Y = 2**8
    for corner in (1, 125, 126, 127):
        rows = [[corner, 0, q(600)], [0, 1, 0], [0, 0, 1]]
        assert det_width(rows) == 1 + (corner == 127)
        minors = mock.Mock(wraps=laurent._minors_det)
        two_point = mock.Mock(wraps=laurent._two_point_det)
        with mock.patch.multiple(laurent, _minors_det=minors, _two_point_det=two_point):
            det = det_fraction_free(PolyMatrix(rows))
        assert det == corner
        assert minors.call_count == 2 and two_point.call_count == 1


def test_minors_det_folds_the_sign_of_the_row_order():
    # sizes order the rows (1, 0): one transposition
    assert laurent._minors_det([[10**50, 1], [2, 3]]) == 3 * 10**50 - 2
    # (1, 2, 0), a 3-cycle, and (1, 0, 2), a transposition
    for rows in ([[10**90, 5, 7], [1, 2, 3], [4, 10**30, 6]],
                 [[4, 10**30, 6], [1, 2, 3], [10**90, 5, 7]]):
        assert laurent._minors_det(rows) == laurent._bareiss([list(row) for row in rows])


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, 7]), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_int_bareiss_pivots_past_zero_leading_entries(rows):
    # mostly zero entries, so leading entries vanish and rows are swapped,
    # and some pivot columns are all zero
    assert laurent._bareiss([list(row) for row in rows]) == perm_det(rows).coeff(0)


def test_minors_route_thresholds():
    minors = mock.Mock(wraps=laurent._minors_det)

    def expanded(m):
        minors.reset_mock()
        with mock.patch.object(laurent, "_minors_det", minors):
            det = det_fraction_free(m)
        with mock.patch.object(laurent, "_MINORS_DET_MAX_ROWS", 0):
            assert det_fraction_free(m) == det
        return minors.call_count

    # width 1 (B = 2) and one row of span s: W * S = s bytes; expanded at
    # q = Y and q = -Y
    assert expanded(PolyMatrix([[1, 0, q(512)], [0, 1, 0], [0, 0, 1]])) == 2
    assert expanded(PolyMatrix([[1, 0, q(511)], [0, 1, 0], [0, 0, 1]])) == 0
    # width 5 (B = n**n) and spans of 1485 and 1980 digits: only the one
    # within the row limit is expanded, at q = Y and q = -Y
    assert expanded(alternant_matrix(tuple(range(0, 30, 3)), (2, 1))) == 2
    assert expanded(alternant_matrix(tuple(range(0, 33, 3)), (2, 1))) == 0


@pytest.mark.parametrize("route,work,kind", [
    ("minors", 2**3 * 605 * 24, "minor"),
    ("bareiss", (606 + 602) * 602 // 4, "elimination"),
])
def test_packed_det_work_limit_is_charged_before_packing(route, work, kind):
    # B = 5 * 3 * 6 = 90, so W = 1, half = 1.  Once column 2 is shifted by
    # q**-3, the degrees are [[600, 0, 4], [-, 0, 7], [0, -, 4]]: row
    # maxima u = (600, 7, 4), then v = (0, -7, 0), and u stays, so
    # d = 604 and M = W * (d + 1) = 605 bytes.  Minors: 2**n * M * isqrt(M).
    # Bareiss divides once, at step 1, the order-3 minor of degree at most
    # 600 + 7 - 7 + 4 = 604 (606 bytes) by the pivot of degree 600 (602
    # bytes): a quarter of (606 + 602) * 602.
    rows = [[1 + q(600), 2, q(7)], [0, 1, q(3) + q(10)], [5, 0, q(7)]]
    assert (det_width(rows), det_span(rows), shifted_span(rows)[0]) == (1, 617, 611)
    packs = mock.Mock(wraps=laurent._pack)
    with mock.patch.multiple(laurent, _pack=packs, **PACKED_ROUTES[route]):
        with mock.patch.object(laurent, "_MAX_BIGINT_WORK", work):
            assert det_fraction_free(PolyMatrix(rows)) == perm_det(rows)
        assert packs.call_count > 0
        packs.reset_mock()
        with mock.patch.object(laurent, "_MAX_BIGINT_WORK", work - 1):
            with pytest.raises(ValueError, match=f"^a determinant of 3 rows and 605 bytes "
                                                 f"would take {work} {kind} steps, over the limit "
                                                 f"of {work - 1}$"):
                det_fraction_free(PolyMatrix(rows))
    assert packs.call_count == 0


def test_zero_span_det_is_charged_before_elimination():
    # an int matrix: every degree is 0, so the one division of step 1 is
    # charged 2 * half bytes for the quotient and for the pivot; W = 7
    # (B = 3 * 2 * 10**15 * 3), half = 4, and M = W * (0 + 1)
    rows = [[2, 1, 0], [10**15, 7, 10**15 - 7], [1, 1, 1]]
    assert det_width(rows) == 7 and det_span(rows) == 0
    work = (8 + 8) * 8 // 4
    bareiss = mock.Mock(wraps=laurent._bareiss)
    with mock.patch.multiple(laurent, _bareiss=bareiss):
        with mock.patch.object(laurent, "_MAX_BIGINT_WORK", work):
            assert det_fraction_free(PolyMatrix(rows)) == perm_det(rows)
        assert bareiss.call_count == 1
        with mock.patch.object(laurent, "_MAX_BIGINT_WORK", work - 1):
            with pytest.raises(ValueError, match=f"^a determinant of 3 rows and 7 bytes would "
                                                 f"take {work} elimination steps"):
                det_fraction_free(PolyMatrix(rows))
    assert bareiss.call_count == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10, 11, 16, 25])
@pytest.mark.parametrize("width", [1, 2, 7, 30])
def test_zero_span_charge_is_the_elimination_charge_of_zero_degrees(n, width):
    # at zero span the charge is summed in closed form; at a span of 1 and
    # W < 512 the same zero degrees go through the Bareiss loop
    flat = [[0] * n] * n
    assert laurent._det_work(flat, width, 0) == laurent._det_work(flat, width, 1)


def test_bareiss_charge_follows_the_degrees_of_the_minors():
    # The h matrix of the 14x1x1 box, h(1 - i + j) in 15 variables, is
    # Hessenberg and Toeplitz: its shifted row spans sum to 1470 degrees,
    # but u_i + v_j is its degree 14 * (1 - i + j), so d = 14 * 14 and
    # each minor of the elimination is charged its own degree.  Its
    # determinant has nonnegative coefficients, so the width is that of
    # det M(1) = 15, the box's plane partitions: W = 1, where the Leibniz
    # bound gives W = 30; M(1)'s own Leibniz bound is the same, as every
    # coefficient is positive, and charges the elimination of M(1) first
    charges = []
    real = laurent._det_work

    def spy(degrees, width, span):
        charges.append(real(degrees, width, span))
        return charges[-1]

    with mock.patch.object(laurent, "_det_work", spy):
        assert genfunc_det_forms(14, 1, 1, form=2) == closed_genfunc(14, 1, 1)
    total = closed_genfunc(14, 1, 1).eval_at_one()
    width = total.bit_length() // 8 + 1
    [at_one, (minors, size, work)] = charges
    assert at_one[1] == 30 * (0 + 1)
    assert (total, width) == (15, 1)
    assert (minors, size) == (False, width * (14 * 14 + 1))
    assert work < laurent._MAX_BIGINT_WORK // 20


def gaussian_rows(entries):
    """The matrix q**s * [A choose b] of the triples (s, A, b) of ``qanalogs._qbinomial_det``."""
    return [[qanalogs.qbinomial(big, small).shift(s) for s, big, small in row]
            for row in entries]


# (0, 0, 1) is [0 choose 1] = 0
Z = (0, 0, 1)


@pytest.mark.parametrize("route,work,kind", [
    ("minors", 2**3 * 601 * 24, "minor"),
    ("bareiss", (602 + 602) * 602 // 4, "elimination"),
])
def test_nonnegative_det_is_charged_at_the_width_of_its_value_at_one(route, work, kind):
    # [[q**600, 0, [12 choose 6]], [1, 1, q**3 [8 choose 4]], [0, 0, q**7]]:
    # every permutation but the identity meets a zero, so D = q**607 and
    # D(1) = 1: W = 1, where the Leibniz bound 925 * 72 * 1 gives W = 3.
    # The degrees are [[600, -, 36], [0, 0, 19], [-, -, 0]]: u = (600, 19,
    # 0), v = (0, -19, 0), d = 600 and M = 601 bytes.  Minors: 2**n * M *
    # isqrt(M); Bareiss divides once, the order-3 minor of degree 600 (602
    # bytes at half = 1) by the pivot of degree 600.  det M(1) is eliminated
    # first, charged as a matrix of zero span at the width of its Leibniz
    # bound, the same 925 * 72 * 1, W = 3: one division of 2 * half = 4
    # bytes by 4 bytes, 8 steps.  No value is computed before both charges
    entries = [[(600, 0, 0), Z, (0, 12, 6)], [(0, 0, 0), (0, 0, 0), (3, 8, 4)],
               [Z, Z, (7, 0, 0)]]
    rows = gaussian_rows(entries)
    assert (det_width(rows), det_span(rows)) == (3, 619)
    chains = mock.Mock(wraps=qanalogs._qbinomial_chain)
    bareiss = mock.Mock(wraps=laurent._bareiss)
    with mock.patch.multiple(laurent, _bareiss=bareiss, **PACKED_ROUTES[route]), \
            mock.patch.object(qanalogs, "_qbinomial_chain", chains):
        with mock.patch.object(laurent, "_MAX_BIGINT_WORK", work):
            assert qanalogs._qbinomial_det(entries, _nonnegative=True) == perm_det(rows) == q(607)
        assert chains.call_count > 0
        chains.reset_mock()
        bareiss.reset_mock()
        with mock.patch.object(laurent, "_MAX_BIGINT_WORK", work - 1):
            with pytest.raises(ValueError, match=f"^a determinant of 3 rows and 601 bytes "
                                                 f"would take {work} {kind} steps, over the limit "
                                                 f"of {work - 1}$"):
                qanalogs._qbinomial_det(entries, _nonnegative=True)
        assert chains.call_count == 0 and bareiss.call_count == 1
        bareiss.reset_mock()
        with mock.patch.object(laurent, "_MAX_BIGINT_WORK", 7):
            with pytest.raises(ValueError, match="^a determinant of 3 rows and 3 bytes would "
                                                 "take 8 elimination steps"):
                qanalogs._qbinomial_det(entries, _nonnegative=True)
        assert chains.call_count == 0 and bareiss.call_count == 0


def test_nonnegative_det_of_a_path_matrix_packs_at_its_value_at_one():
    # (14,5,1) form 2, the h matrix of 14 rows, has the Leibniz width 41,
    # and form 1, the gv matrix of the same polynomial, 22; both are
    # evaluated at the width of D(1) = C(19, 5) = 11,628, the box's plane
    # partitions: W = 2, from the entries' binomial coefficients
    widths = []
    real = laurent._two_point_det

    def spy(plus, minus, low, span, width, det):
        widths.append(width)
        return real(plus, minus, low, span, width, det)

    want = closed_genfunc(14, 5, 1)
    with mock.patch.object(laurent, "_two_point_det", spy):
        assert [genfunc_det_forms(14, 5, 1, form=f) for f in (1, 2)] == [want, want]
    assert want.eval_at_one() == math.comb(19, 5)
    assert widths == [2, 2]


@pytest.mark.parametrize("rows,value", [
    # [[1 + q, 1 + q], [1, q]] and a unit: D = q**2 - 1, D(1) = 0
    ([[(0, 2, 1), (0, 2, 1), Z], [(0, 0, 0), (1, 0, 0), Z], [Z, Z, (0, 0, 0)]], 0),
    # [[1, 1 + q], [1, 1]] and a unit: D = -q, D(1) = -1
    ([[(0, 0, 0), (0, 2, 1), Z], [(0, 0, 0), (0, 0, 0), Z], [Z, Z, (0, 0, 0)]], -1),
])
def test_nonnegative_det_refuses_a_value_at_one_below_one(rows, value):
    assert qanalogs._qbinomial_det(rows).eval_at_one() == value
    with pytest.raises(RuntimeError, match=f"^a determinant flagged nonnegative has the value "
                                           f"{value} at q = 1$"):
        qanalogs._qbinomial_det(rows, _nonnegative=True)


@pytest.mark.parametrize("corner", [(2, 0, 0)])
def test_nonnegative_det_tripwire_fires_on_a_signed_matrix(corner):
    # [[1 + q, q**2], [1, 1]] and a unit: D = 1 + q - q**2 and D(1) = 1, so
    # W = 1, and D is recovered with its negative coefficient
    rows = [[(0, 2, 1), corner, Z], [(0, 0, 0), (0, 0, 0), Z], [Z, Z, (0, 0, 0)]]
    assert qanalogs._qbinomial_det(rows) == 1 + q(1) - q(2)
    with pytest.raises(RuntimeError, match="^a determinant flagged nonnegative lost exactness$"):
        qanalogs._qbinomial_det(rows, _nonnegative=True)


@settings(max_examples=200, deadline=None)
@given(big_terms_st, st.integers(min_value=1, max_value=3))
@example({0: 1, 3: -(1 << 47)}, 3)  # the least coefficient that 6 bytes hold
@example({0: 1, 1: 1 << 15}, 1)  # the least that 2 bytes do not
@example({-3: 5, 2: -7}, 1)  # a negative valuation and an odd span
def test_evaluate_halves_of_wide_coefficients_is_a_horner_evaluation(terms, half):
    # q**(-v) * terms = P(q) = E(q**2) + q * O(q**2), v the valuation, so
    # P(Y) = E + Y * O and P(-Y) = E - Y * O at Y**2: one _pack per half,
    # at 2 * half bytes, and a coefficient such as 10**120 that does not fit
    # in them overflows
    low = min(terms)
    y = 1 << 8 * half

    def horner(point):
        value = 0
        for e in range(max(terms), low - 1, -1):
            value = value * point + terms.get(e, 0)
        return value

    if not all(-y * y // 2 <= c < y * y // 2 for c in terms.values()):
        with pytest.raises(OverflowError):
            laurent._evaluate_halves(terms, half)
        return
    packs = mock.Mock(wraps=laurent._pack)
    with mock.patch.object(laurent, "_pack", packs):
        even, odd = laurent._evaluate_halves(terms, half)
    assert (even + y * odd, even - y * odd) == (horner(y), horner(-y))
    assert packs.call_count == 2


def alternant_matrix(exponents, lam):
    n = len(exponents)
    powers = [part + n - 1 - k for k, part in enumerate(lam + (0,) * (n - len(lam)))]
    return PolyMatrix([[LaurentPoly.q_power(x * e) for e in powers] for x in exponents])


@pytest.mark.parametrize("rows", [3, 5, 8, 12])
def test_packed_det_unpacks_once(rows):
    m = alternant_matrix(tuple(range(rows)), (2, 1))
    unpacks = mock.Mock(wraps=laurent._unpack)
    minors = mock.Mock(wraps=laurent._minors_det)
    with mock.patch.multiple(laurent, _unpack=unpacks, _minors_det=minors):
        det = det_fraction_free(m)
    # 8 rows are expanded by minors at q = Y and -Y, the others eliminated
    # there; either way each of the S' + 1 digits is unpacked once, as an
    # even or an odd coefficient
    assert minors.call_count == (2 if rows == 8 else 0)
    assert unpacks.call_count == 2
    assert sum(call.args[1] for call in unpacks.call_args_list) == shifted_span(list(m))[0] + 1
    with mock.patch.multiple(laurent, **PACKED_ROUTES["bareiss" if rows == 8 else "minors"]):
        assert det_fraction_free(m) == det


def test_packed_det_of_integers_is_one_digit():
    # an integer matrix has zero span: its determinant is one coefficient,
    # eliminated on the ints themselves
    packs = mock.Mock(wraps=laurent._pack)
    unpacks = mock.Mock(wraps=laurent._unpack)
    with mock.patch.multiple(laurent, _pack=packs, _unpack=unpacks):
        det = det_fraction_free(PolyMatrix([[2, 0, 1], [1, 3, 0], [0, 1, 10**50]]))
    assert det == LaurentPoly.const(6 * 10**50 + 1)
    assert packs.call_count == 0 and unpacks.call_count == 0


# Matrices of monomial rows, c_ij * q**v_i: distinct and negative degrees,
# a zero entry, and a singular matrix of two proportional rows
ZERO_SPAN_ROWS = [
    [[q(-3) * 2, q(-3) * -5, q(-3)], [q(7) * 10**60, q(7) * 3, q(7) * -1],
     [q(0) * 4, 9, -2]],
    [[q(2) * 3, 0, q(2) * 7, q(2)], [-1, 2, 0, 5], [q(-9) * 6, q(-9), q(-9) * 2, 0],
     [q(4), q(4) * 10**30, q(4) * -3, q(4) * 2]],
    [[q(5), q(5) * 2, q(5) * 3], [q(-1) * 2, q(-1) * 4, q(-1) * 6], [q(1), 0, q(1) * 8]],
]


@pytest.mark.parametrize("rows", ZERO_SPAN_ROWS, ids=["degrees", "zero entry", "singular"])
def test_zero_span_det_is_not_packed(rows):
    assert det_span(rows) == 0
    packs = mock.Mock(wraps=laurent._pack)
    unpacks = mock.Mock(wraps=laurent._unpack)
    with mock.patch.multiple(laurent, _pack=packs, _unpack=unpacks):
        det = det_fraction_free(PolyMatrix(rows))
    assert det == perm_det(rows)
    assert packs.call_count == 0 and unpacks.call_count == 0


def test_zero_span_det_detects_a_corrupted_division():
    # the second pivot step divides by the first pivot, 2: a numerator off
    # by one leaves a remainder
    real = laurent._int_exact_div
    rows = [[q(-1) * 2, q(-1), q(-1)], [q(3), q(3) * 3, q(3)], [1, 1, 4]]
    with mock.patch.object(laurent, "_int_exact_div", lambda num, den: real(num + 1, den)):
        with pytest.raises(RuntimeError, match="^fraction-free elimination lost exactness$") as info:
            det_fraction_free(PolyMatrix(rows))
    assert isinstance(info.value.__cause__, NotDivisible)


def test_det_edge_cases():
    assert det_fraction_free(PolyMatrix([])) == LaurentPoly.one()
    assert perm_det([]) == LaurentPoly.one()
    one = LaurentPoly.one()
    zero = LaurentPoly.zero()
    assert det_fraction_free(PolyMatrix([[zero, one], [zero, one]])).is_zero()
    # zero column early, nonzero later rows
    m = PolyMatrix([[zero, one], [zero, LaurentPoly.q_power(2)]])
    assert det_fraction_free(m).is_zero()


def test_det_singular_with_zero_leading_column():
    q = LaurentPoly.q_power
    rows = [
        [LaurentPoly.zero(), q(1), q(2)],
        [LaurentPoly.zero(), q(2), q(3)],
        [q(1), q(1), q(1)],
    ]
    assert det_fraction_free(PolyMatrix(rows)) == perm_det(rows)


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
