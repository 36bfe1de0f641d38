import json
import random
import time
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from box_oracle import box_terms
from cauchy_oracle import cauchy_det
from qmelon import identities, laurent, schur
from qmelon.laurent import LaurentPoly, NotDivisible
from qmelon.cli import build_cases
from qmelon.partitions import enumerate_in_box
from qmelon.paths import genfunc_det_forms
from qmelon.identities import (
    GOLDEN_POINTS,
    IdentityReport,
    report_json_line,
    run_cases,
    verify_binet_cauchy,
    verify_deviation_binet_cauchy,
    verify_gessel_viennot,
    verify_kuperberg,
    verify_q_binet_cauchy,
    verify_qbinomial_det,
    verify_watermelon_suite,
    verify_zq_equals_w,
)
from qmelon.schur import DegeneratePoint, bialternant
from test_laurent import long_div_spy, quotient_widths


def test_binet_cauchy_trivial_point():
    r = verify_binet_cauchy(1, 1, (1,), (1,))
    assert r.equal
    assert r.lhs == LaurentPoly({0: 1, 2: 1})
    assert r.identity == "binet-cauchy"
    assert r.params["a"] == (1,)


def test_binet_cauchy_spec_points():
    assert verify_binet_cauchy(2, 2, (0, 1), (1, 2)).equal
    assert verify_binet_cauchy(2, 1, (0, 3), (1, 5)).equal


def test_binet_cauchy_rejects_degenerate():
    with pytest.raises(DegeneratePoint):
        verify_binet_cauchy(2, 1, (0, 0), (1, 2))
    with pytest.raises(DegeneratePoint):
        verify_binet_cauchy(2, 1, (0, 1), (2, 2))
    with pytest.raises(DegeneratePoint):
        verify_binet_cauchy(2, 1, (-1, 0), (1, 2))   # a_1 + b_1 = 0
    with pytest.raises(ValueError):
        verify_binet_cauchy(2, 1, (0,), (1, 2))      # wrong length


@pytest.mark.parametrize("verify,args", [
    (verify_binet_cauchy, (2, 1, (0.7, 2.2), ("1", 3))),
    (verify_binet_cauchy, (2, 1, (0, 2), ("1", 3))),
    (verify_deviation_binet_cauchy, (2, 2, 1, (True,), (1, 2))),
    (verify_gessel_viennot, ((2.9, True), 2)),
    (verify_gessel_viennot, ((2, 1.0), 2)),
])
def test_identity_arguments_must_be_ints(verify, args):
    # int() would truncate 0.7 to 0 and read "1" and True as 1
    with pytest.raises(ValueError, match="int"):
        verify(*args)


def test_q_binet_cauchy_small():
    r = verify_q_binet_cauchy(1, 1)
    assert r.equal
    assert r.lhs == LaurentPoly({0: 1, 1: 1})
    for n in (1, 2, 3):
        for m in (1, 2):
            assert verify_q_binet_cauchy(n, m).equal


def test_kuperberg_small_and_macmahon():
    for n in (1, 2, 3):
        for m in (1, 2):
            r = verify_kuperberg(n, m)
            assert r.equal
            assert dict(r.rhs.terms()) == box_terms(n, n, m)


def test_qbinomial_det_small():
    r = verify_qbinomial_det(1, 1)
    assert r.equal
    assert r.params["prefactor_exponent"] == 0
    assert verify_qbinomial_det(2, 2).equal
    assert verify_qbinomial_det(1, 3).equal
    assert verify_qbinomial_det(1, 3).params["prefactor_exponent"] == -3


def test_deviation_reduces_to_plain_at_k0():
    plain = verify_binet_cauchy(2, 2, (0, 1), (1, 2))
    dev = verify_deviation_binet_cauchy(2, 2, 0, (0, 1), (1, 2))
    assert dev.equal
    assert dev.lhs == plain.lhs
    assert dev.rhs == plain.rhs


def test_deviation_spec_cases():
    assert verify_deviation_binet_cauchy(2, 2, 1, (0,), (1, 2)).equal
    assert verify_deviation_binet_cauchy(3, 1, 2, (0,), (1, 2, 3)).equal
    # negative exponents in the surviving block
    assert verify_deviation_binet_cauchy(3, 2, 1, (-1, 1), (2, 3, 7)).equal
    # full deviation leaves only the monomial block
    assert verify_deviation_binet_cauchy(2, 3, 2, (), (1, 2)).equal


def test_deviation_rejects_bad_k():
    with pytest.raises(ValueError):
        verify_deviation_binet_cauchy(2, 1, 3, (), (1, 2))
    with pytest.raises(DegeneratePoint):
        verify_deviation_binet_cauchy(3, 1, 1, (0, 0), (1, 2, 3))


# (14, 1, 13): 14 paths of one step, whose h determinant of 14 rows is
# banded and is charged the degrees of its minors, not its row spans
@pytest.mark.parametrize("n,m,k", [(1, 1, 0), (2, 2, 0), (3, 2, 1), (2, 2, 2), (14, 1, 13)])
def test_watermelon_suite(n, m, k):
    reports = verify_watermelon_suite(n, m, k)
    assert len(reports) == 5
    assert all(r.equal for r in reports)
    names = [r.identity for r in reports]
    assert names == [
        "watermelon-enum-vs-schur-sum",
        "watermelon-enum-vs-product",
        "watermelon-product-vs-qbinom-det",
        "watermelon-product-vs-h-det",
        "watermelon-product-vs-specialization",
    ]


def test_watermelon_suite_computes_each_side_once(monkeypatch):
    calls = {"watermelon_genfunc": 0, "closed_genfunc": 0}

    def counted(name):
        original = getattr(identities, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(identities, name, counted(name))
    assert all(r.equal for r in verify_watermelon_suite(3, 2, 1))
    assert calls == {"watermelon_genfunc": 1, "closed_genfunc": 1}


def test_watermelon_suite_values():
    reports = verify_watermelon_suite(1, 1, 0)
    assert reports[0].lhs == LaurentPoly({0: 1, 1: 1})
    reports = verify_watermelon_suite(2, 2, 0)
    assert reports[1].lhs.eval_at_one() == 20
    spec = verify_watermelon_suite(2, 2, 0)[4]
    assert spec.params["offset"] == 2


def test_gessel_viennot():
    assert verify_gessel_viennot((1,), 2).equal
    r = verify_gessel_viennot((2, 1), 3)
    assert r.equal
    assert r.lhs == LaurentPoly.const(8)
    assert r.params["schur_at_one"] == 8
    assert verify_gessel_viennot((2, 2), 2).lhs == LaurentPoly.const(1)


def test_gessel_viennot_of_a_long_row():
    # (3000) in 2 letters: its 3001 tableaux once failed the report with a
    # RecursionError, a frame per cell
    r = verify_gessel_viennot((3000,), 2)
    assert r.equal and r.error is None
    assert r.lhs == LaurentPoly.const(3001)


def test_zq_equals_w():
    r = verify_zq_equals_w(1, 1, 1)
    assert r.equal and r.lhs == LaurentPoly({0: 1, 1: 1})
    r = verify_zq_equals_w(2, 2, 2)
    assert r.equal and r.lhs.degree() == 8 and r.lhs.eval_at_one() == 20
    assert verify_zq_equals_w(3, 2, 2).equal
    with pytest.raises(ValueError):
        verify_zq_equals_w(1, 2, 1)


def test_golden_points_are_generic():
    for n, pairs in GOLDEN_POINTS.items():
        for a, b in pairs:
            assert len(a) == len(set(a)) == n
            assert len(b) == len(set(b)) == n
            assert all(x + y != 0 for x in a for y in b)


def random_points(n: int, seed: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Seeded generic exponent pair for fuzzing: distinct entries, no zero sums."""
    rng = random.Random(seed)
    while True:
        a = tuple(rng.sample(range(-3, 7), n))
        b = tuple(rng.sample(range(1, 10), n))
        if all(x + y != 0 for x in a for y in b):
            return a, b


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2 ** 31))
def test_random_points_are_generic(n, seed):
    a, b = random_points(n, seed)
    assert len(set(a)) == n and len(set(b)) == n
    assert all(x + y != 0 for x in a for y in b)
    assert random_points(n, seed) == (a, b)   # seeded determinism


@settings(deadline=None, max_examples=10)
@given(st.integers(min_value=0, max_value=10_000))
def test_binet_cauchy_fuzz(seed):
    a, b = random_points(2, seed)
    assert verify_binet_cauchy(2, 2, a, b).equal


def test_report_json_shape():
    r = verify_q_binet_cauchy(2, 1)
    line = report_json_line(r)
    data = json.loads(line)
    assert set(data) == {"identity", "params", "lhs", "rhs", "equal", "elapsed_ms"}
    assert data["equal"] is True
    assert data["lhs"] == r.lhs.to_pairs()
    assert data["params"] == {"N": 2, "M": 1}


def test_reports_deterministic_modulo_timing():
    a = verify_kuperberg(2, 2)
    b = verify_kuperberg(2, 2)
    assert report_json_line(a, timing=False) == report_json_line(b, timing=False)
    assert "elapsed_ms" not in json.loads(report_json_line(a, timing=False))


# Polynomial sides for the byte-level oracle: the zero polynomial, negative
# exponents and coefficients past 2**64.
wire_poly_st = st.dictionaries(
    st.integers(min_value=-30, max_value=30),
    st.one_of(st.integers(min_value=-9, max_value=9),
              st.integers(min_value=-2**200, max_value=2**200)),
    max_size=12,
).map(LaurentPoly)

# params as the cases build them and beyond: tuples, nested lists, strings
# with quotes, backslashes and non-ASCII text
wire_text_st = st.one_of(st.text(max_size=12),
                         st.sampled_from(['"', "\\", 'q"\\', "λ→μ", "\x00\n"]))
wire_params_st = st.dictionaries(
    wire_text_st,
    st.recursive(
        st.one_of(st.integers(min_value=-2**70, max_value=2**70), wire_text_st, st.booleans(),
                  st.none()),
        lambda inner: st.one_of(st.lists(inner, max_size=3),
                                st.lists(inner, max_size=3).map(tuple)),
        max_leaves=8),
    max_size=5,
)


@settings(max_examples=300)
@given(identity=wire_text_st, params=wire_params_st, lhs=wire_poly_st,
       rhs=st.one_of(wire_poly_st, st.none()), equal=st.booleans(),
       elapsed_ms=st.floats(), error=st.one_of(st.none(), wire_text_st))
@example(identity="probe", params={"a": (1, -2), "b": [[3, (4,)], "x"]},
         lhs=LaurentPoly({-3: 2**64 + 1, 5: -(2**65)}), rhs=None, equal=False,
         elapsed_ms=0.0005, error='ValueError: \'q\' "quoted" \\ λ')
@example(identity="probe", params={}, lhs=LaurentPoly(), rhs=None, equal=True,
         elapsed_ms=1.0, error=None)
def test_report_json_line_is_json_dumps_byte_for_byte(identity, params, lhs, rhs, equal,
                                                      elapsed_ms, error):
    # rhs None stands for equal sides held as distinct objects; the equal
    # flag is drawn on its own, so equal sides also come with equal=False
    rhs = LaurentPoly(dict(lhs.terms())) if rhs is None else rhs
    r = IdentityReport(identity=identity, params=params, lhs=lhs, rhs=rhs, equal=equal,
                       elapsed_ms=elapsed_ms, error=error)
    want = r.to_json_dict()
    assert report_json_line(r) == json.dumps(want, sort_keys=True)
    del want["elapsed_ms"]
    assert report_json_line(r, timing=False) == json.dumps(want, sort_keys=True)


def test_run_cases_orders_and_parallelism():
    cases = [
        ("q-binet-cauchy", {"n": 1, "m": 1}),
        ("watermelon-suite", {"n": 1, "m": 1, "k": 0}),
        ("gessel-viennot", {"lam": (1,), "n": 2}),
    ]
    serial = run_cases(cases, workers=None)
    parallel = run_cases(cases, workers=2)
    assert len(serial) == 1 + 5 + 1
    assert [r.identity for r in serial] == [r.identity for r in parallel]
    for s, p in zip(serial, parallel):
        assert s.lhs == p.lhs and s.rhs == p.rhs and s.params == p.params


def test_failure_report_carries_both_sides():
    # force a false identity through the report machinery
    r = IdentityReport(
        identity="probe", params={}, lhs=LaurentPoly.one(),
        rhs=LaurentPoly.zero(), equal=False, elapsed_ms=0.0)
    data = json.loads(report_json_line(r))
    assert data["equal"] is False
    assert data["lhs"] == [[0, "1"]]
    assert data["rhs"] == []


def pairing_oracle(m, a, b):
    """Box sum of bialternant products, one division per Schur value."""
    total = LaurentPoly.zero()
    for lam in enumerate_in_box(len(a), m):
        total = total + bialternant(lam, a) * bialternant(lam, b)
    return total


@st.composite
def pairing_inputs(draw):
    """Distinct exponents with negatives allowed and len(a) <= len(b).

    Either len(b) <= 4 and m <= 3, or len(b) = 7 and m <= 1: seven rows
    give minors of up to 7! terms and a width of up to four bytes.
    """
    exps = st.integers(min_value=-4, max_value=8)
    rows = draw(st.sampled_from([1, 2, 3, 4, 7]))
    b = draw(st.lists(exps, min_size=rows, max_size=rows, unique=True))
    a = draw(st.lists(exps, max_size=len(b), unique=True))
    return draw(st.integers(min_value=0, max_value=1 if rows == 7 else 3)), tuple(a), tuple(b)


@settings(deadline=None, max_examples=100)
@given(pairing_inputs(), st.booleans())
@example((3, (-1, 1), (2, 3, 7)), False)
@example((3, (-1, 1), (2, 3, 7)), True)
@example((3, (-1, 1, 4), (2, 3, 7)), False)
@example((2, (), (1, 2)), True)
@example((1, (-4, -2, 0, 1, 3, 5, 8), (-3, -1, 0, 2, 4, 6, 7)), False)
@example((1, (5, -3), (8, -4, 0, 2, 7, -1, 3)), False)
@example((3, (-4, -3), (-2, -1, 5)), False)
@example((3, (-4, -3), (-2, -1, 5)), True)
def test_schur_pairing_matches_per_lambda_oracle(case, forced):
    # forced: the quotient proof is made to fail at the caller's width, so
    # the quotient is divided again at a wider one
    m, a, b = case
    expected = pairing_oracle(m, a, b)
    if not forced:
        assert schur._schur_pairing(m, a, b) == expected
        return
    patch, widths = unproven(schur)
    spy, slow = long_div_spy()
    with patch, spy:
        assert schur._schur_pairing(m, a, b) == expected
    assert len(widths) == (1 if a else 0)
    assert all(len(divided) == 2 for divided in widths) and slow == []


@pytest.mark.parametrize("a,b", [((1, 1), (0, 2)), ((0, 2), (3, 3)),
                                 ((-2,), (5, -1, 5)), ((4, 0, 4), (1, 2, 3))])
def test_schur_pairing_rejects_repeated_exponent(a, b):
    with pytest.raises(DegeneratePoint):
        schur._schur_pairing(2, a, b)


def unproven(module):
    """Patch module's packed division so that its quotient proof fails at the caller's width.

    A numerator bound of X leaves no room for the proof there, so every
    quotient is divided again at a wider width; returns the patch and one
    list per call of the widths it divided at.
    """
    return quotient_widths(module, forced=True)


def test_schur_pairing_turns_a_corrupted_sum_into_an_error():
    # one off in the lowest digit of the packed box sum adds a constant to
    # the numerator, which the product of the two delta minors cannot divide
    real = laurent._packed_quotient
    sums = []

    def corrupted(num, den, *args):
        sums.append(num)
        return real(num + 1, den, *args)

    assert schur._schur_pairing(2, (0, 1), (1, 2)) == pairing_oracle(2, (0, 1), (1, 2))
    # the packed remainder is an error at once, with no long division
    spy, slow = long_div_spy()
    with mock.patch.object(schur, "_packed_quotient", corrupted), spy:
        with pytest.raises(RuntimeError, match="^Schur pairing lost exactness$") as info:
            schur._schur_pairing(2, (0, 1), (1, 2))
    assert isinstance(info.value.__cause__, NotDivisible)
    assert len(sums) == 1 and slow == []


def test_schur_pairing_corrupted_on_the_fallback_route_is_an_error():
    # with the proof forced to fail the sum's digits are packed again at a
    # wider width; one more in its lowest digit there leaves a remainder too
    real_pack = laurent._pack
    patch, widths = unproven(schur)
    packed = []

    def corrupted(coeffs, width):
        packed.append(width)
        # the numerator is packed first, then the divisor
        return real_pack(coeffs, width) + (len(packed) == 1)

    with mock.patch.object(laurent, "_pack", corrupted), patch:
        with pytest.raises(RuntimeError, match="^Schur pairing lost exactness$") as info:
            schur._schur_pairing(2, (0, 1), (1, 2))
    assert isinstance(info.value.__cause__, NotDivisible)
    assert widths == [[1, 2]] and packed == [2, 2]


@st.composite
def cauchy_inputs(draw):
    """(m, a, b) with 0 <= len(a) <= len(b) <= 4 and m <= 4, distinct exponents.

    Negative exponents and a_i + b_j = 0 are allowed, as in the deviation
    identity; k = len(b) - len(a) runs from 0 to len(b).
    """
    exps = st.integers(min_value=-4, max_value=6)
    b = draw(st.lists(exps, max_size=4, unique=True))
    a = draw(st.lists(exps, max_size=len(b), unique=True))
    return draw(st.integers(min_value=0, max_value=4)), tuple(a), tuple(b)


@settings(deadline=None, max_examples=150)
@given(cauchy_inputs(), st.booleans())
@example((0, (), ()), False)
@example((2, (-1, 1), (1, 2)), False)        # a_1 + b_1 = 0
@example((3, (-4,), (-3, 4, 0)), False)       # k = 2, negative steps
@example((4, (-4, -3, 5, 6), (-2, 4, 3, -1)), False)
@example((4, (-4, -3, 5, 6), (-2, 4, 3, -1)), True)
@example((1, (), (5, -4, 0, 2)), True)       # full deviation: monomial rows only
def test_cauchy_det_matches_laurent_oracle(case, forced):
    m, a, b = case
    expected = cauchy_det(m, a, b)
    if not forced:
        assert identities._cauchy_det(m, a, b) == expected
        return
    patch, widths = unproven(identities)
    spy, slow = long_div_spy()
    with patch, spy:
        assert identities._cauchy_det(m, a, b) == expected
    assert len(widths) == (1 if b else 0)
    assert all(len(divided) == 2 for divided in widths) and slow == []


def test_cauchy_det_takes_the_proven_route_on_the_golden_points():
    points = [pair for pairs in GOLDEN_POINTS.values() for pair in pairs]
    expected = [cauchy_det(2, a, b) for a, b in points]
    patch, widths = quotient_widths(identities)
    with patch:
        assert [identities._cauchy_det(2, a, b) for a, b in points] == expected
    assert len(widths) == len(points) and all(len(divided) == 1 for divided in widths)


@pytest.mark.parametrize("verify,n,m", [(verify_q_binet_cauchy, 5, 5), (verify_kuperberg, 7, 7)])
def test_quotient_past_the_numerator_width_is_divided_again(verify, n, m):
    # at these sizes the pairing (width 3) and the determinant side (width 5)
    # have quotient coefficients of 24 and 50 bits: the one-width candidate
    # carries, so only a sound proof widens it, and a report against the
    # other side (closed_genfunc for Kuperberg) catches one that does not
    pairing, pairing_widths = quotient_widths(schur)
    cauchy, cauchy_widths = quotient_widths(identities)
    with pairing, cauchy:
        report = verify(n, m)
    assert report.equal
    assert any(len(divided) > 1 for divided in pairing_widths + cauchy_widths)


def test_cauchy_det_turns_a_corrupted_entry_into_an_error():
    # one more in the constant digit of one packed geometric entry changes
    # the determinant by a cofactor, which is no multiple of V(a) V(b)
    real = identities._geometric
    entries = []

    def corrupted(step, count, width):
        entries.append(step)
        value = real(step, count, width)
        return value + 1 if len(entries) == 1 else value

    assert identities._cauchy_det(2, (0, 1), (1, 2)) == cauchy_det(2, (0, 1), (1, 2))
    with mock.patch.object(identities, "_geometric", corrupted):
        with pytest.raises(RuntimeError, match="^Cauchy determinant lost exactness$") as info:
            identities._cauchy_det(2, (0, 1), (1, 2))
    assert isinstance(info.value.__cause__, NotDivisible)
    assert entries == [1, 2, 2, 3]


def test_cauchy_det_turns_a_corrupted_determinant_into_an_error():
    real = identities._bareiss

    def corrupted(rows):
        return real(rows) + 1

    with mock.patch.object(identities, "_bareiss", corrupted):
        with pytest.raises(RuntimeError, match="^Cauchy determinant lost exactness$") as info:
            identities._cauchy_det(3, (-1, 1, 4), (2, 3, 7))
    assert isinstance(info.value.__cause__, NotDivisible)


def test_run_cases_reports_an_oversized_zq_box_as_failed():
    [report] = run_cases([("zq-equals-w", {"n": 10, "l": 10, "m": 10})])
    assert report.identity == "zq-equals-w" and not report.equal
    assert report.error.startswith("ValueError: zq of the box 10x10x10 needs ")


def test_verify_grid_determinants_are_eliminated_not_expanded():
    # the packed determinants of the default grid have 3 or 4 rows and at
    # most 228 bytes, below the minors threshold; a det form of the 5x5x5
    # box, at 1.8 K bytes, is above it
    minors = mock.Mock(wraps=laurent._minors_det)
    eliminated = []
    real = laurent._bareiss

    def spy(rows):
        eliminated.append(len(rows))
        return real(rows)

    with mock.patch.multiple(laurent, _minors_det=minors, _bareiss=spy):
        reports = run_cases(build_cases("all", None, None, None, None))
        assert all(r.equal for r in reports)
        assert minors.call_count == 0 and set(eliminated) == {3, 4}
        genfunc_det_forms(5, 5, 5, form=1)
        # expanded at q = Y and at q = -Y
        assert minors.call_count == 2


def test_run_cases_refuses_an_oversized_binet_cauchy_point():
    # one row shifted by 10**8 digits on each side; the pairing runs first
    # and refuses before it builds a minor
    start = time.perf_counter()
    [report] = run_cases([("binet-cauchy", {"n": 1, "m": 1, "a": (10**8,), "b": (1,)})])
    assert time.perf_counter() - start < 1
    assert report.identity == "binet-cauchy" and not report.equal
    assert report.error.startswith("ValueError: the Schur pairing over the 1**1 box at "
                                   "(100000000,) and (1,) would pack 100000002 bytes")


def test_run_cases_refuses_a_pairing_of_too_many_minors():
    # C(304, 4) column sets, every one of which the minors DP would hold,
    # although the box sum packs only 24,245 bytes
    start = time.perf_counter()
    [report] = run_cases([("q-binet-cauchy", {"n": 4, "m": 300})])
    assert time.perf_counter() - start < 1
    assert report.identity == "q-binet-cauchy" and not report.equal
    assert report.error.startswith("ValueError: the Schur pairing over the 300**4 box at "
                                   "(0, 1, 2, 3) and (1, 2, 3, 4) would take ")


def test_pairing_work_limit_is_checked_before_any_minor():
    # m = 2, a = (1, 2) and b = (0, 1, 3): k = 1, W = 1 (B = 72), 3 * 3 +
    # 4 * 4 + 1 digits, (1 + 2) * (1 + 4 + 6) states visiting 5 columns
    work = 3 * 11 * 5 * 26
    with mock.patch.object(schur, "_MAX_BIGINT_WORK", work):
        assert schur._schur_pairing(2, (1, 2), (0, 1, 3)) == cauchy_det(2, (1, 2), (0, 1, 3))
    with mock.patch.object(schur, "_MAX_BIGINT_WORK", work - 1), \
            mock.patch.object(schur, "_maximal_minors") as minors:
        with pytest.raises(ValueError, match=f"would take {work} minor steps, over the limit"):
            schur._schur_pairing(2, (1, 2), (0, 1, 3))
    assert minors.call_count == 0


BINET_CAUCHY_SIDES = {"pairing": (schur, schur._schur_pairing),
                      "determinant": (identities, identities._cauchy_det)}


@pytest.mark.parametrize("side", sorted(BINET_CAUCHY_SIDES))
def test_binet_cauchy_side_refuses_past_the_packed_limit(side):
    module, compute = BINET_CAUCHY_SIDES[side]
    with pytest.raises(ValueError, match=r"would pack 100000002 bytes, over the limit of 10000000$"):
        compute(1, (10**8,), (1,))
    # at (3,), (1,) and m = 1 both sides predict 5 one-byte digits
    with mock.patch.object(module, "_MAX_DENSE_COEFFS", 5):
        assert compute(1, (3,), (1,)) == cauchy_det(1, (3,), (1,))
    with mock.patch.object(module, "_MAX_DENSE_COEFFS", 4):
        with pytest.raises(ValueError, match=r"would pack 5 bytes, over the limit of 4$"):
            compute(1, (3,), (1,))


@pytest.mark.parametrize("side", sorted(BINET_CAUCHY_SIDES))
@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=3).flatmap(lambda nb: st.tuples(
    st.integers(min_value=0, max_value=nb),
    st.integers(min_value=1, max_value=3),
    st.lists(st.integers(min_value=-6, max_value=9), min_size=nb, max_size=nb, unique=True))))
def test_binet_cauchy_size_prediction_bounds_the_packed_operands(side, case):
    # a limit one byte below the largest packed operand of the quotient
    # must be refused, so the prediction is never below what is built
    k, m, b = case
    a = tuple(x + 1 for x in b[k:])
    module, compute = BINET_CAUCHY_SIDES[side]
    sizes = []
    real = module._packed_quotient

    def spy(num, den, *args):
        sizes.extend((abs(num).bit_length() + 7) // 8 for num in (num, den))
        return real(num, den, *args)

    with mock.patch.object(module, "_packed_quotient", spy):
        compute(m, a, tuple(b))
    assume(sizes)  # the pairing of no rows packs nothing
    with mock.patch.object(module, "_MAX_DENSE_COEFFS", max(sizes) - 1):
        with pytest.raises(ValueError, match="would pack"):
            compute(m, a, tuple(b))


@pytest.mark.parametrize("workers", [None, 2])
def test_run_cases_isolates_a_failing_case(workers):
    bad_case = ("binet-cauchy", {"n": 2, "m": 1, "a": (1, 1), "b": (1, 2)})
    cases = [
        ("q-binet-cauchy", {"n": 2, "m": 1}),
        bad_case,
        ("gessel-viennot", {"lam": (1,), "n": 2}),
    ]
    reports = run_cases(cases, workers=workers)
    assert [r.identity for r in reports] == [
        "q-binet-cauchy", "binet-cauchy", "gessel-viennot"]
    first, bad, last = reports
    assert first.equal and last.equal
    assert first.error is None and last.error is None
    assert not bad.equal
    assert bad.lhs.is_zero() and bad.rhs.is_zero()
    assert bad.params == bad_case[1]
    assert bad.error == "DegeneratePoint: a has repeated exponents: (1, 1)"
    data = json.loads(report_json_line(bad))
    assert data["error"] == bad.error
    assert data["equal"] is False and data["lhs"] == [] and data["rhs"] == []
    assert "error" not in json.loads(report_json_line(first))
