"""Acceptance gate: one checked criterion per test, one printed verdict line each."""

import json
import time

from box_oracle import box_terms
from qmelon.identities import (
    GOLDEN_POINTS,
    verify_binet_cauchy,
    verify_gessel_viennot,
    verify_kuperberg,
    verify_q_binet_cauchy,
    verify_qbinomial_det,
    verify_watermelon_suite,
    verify_zq_equals_w,
)
from qmelon.laurent import LaurentPoly
from qmelon.partitions import enumerate_in_box, strip
from qmelon.paths import (
    closed_genfunc,
    count_deviation,
    genfunc_det_forms,
    gv_count,
    volume_offset,
    watermelon_genfunc,
)
from qmelon.planepartitions import (
    enumerate_box,
    gradient_bijection,
    gradient_bijection_inverse,
    zq,
)
from qmelon.qanalogs import qbinomial
from qmelon.schur import (
    bialternant,
    gv_determinant,
    h_determinant,
    principal_product,
    tableau_sum,
)
from qmelon.tableaux import count_ssyt


def _verdict(num: int, label: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_1_cauchy_pairings_within_budget():
    started = time.perf_counter()
    ok = True
    for n in range(1, 4):
        for a, b in GOLDEN_POINTS[n]:
            for m in range(1, 4):
                ok = ok and verify_binet_cauchy(n, m, a, b).equal
    for n in range(1, 5):
        for m in range(1, 5):
            ok = ok and verify_q_binet_cauchy(n, m).equal
    elapsed = time.perf_counter() - started
    _verdict(1, f"Cauchy pairings on the golden grid in {elapsed:.1f}s",
             ok and elapsed < 60.0)


def test_criterion_2_geometric_determinant_is_box_product():
    ok = True
    for n in range(1, 5):
        for m in range(1, 5):
            report = verify_kuperberg(n, m)
            ok = ok and report.equal
            ok = ok and dict(report.rhs.terms()) == box_terms(n, n, m)
    _verdict(2, "normalized geometric determinant equals the box product", ok)


def test_criterion_3_q_binomial_determinant():
    ok = True
    for n in range(1, 4):
        for m in range(1, 5):
            report = verify_qbinomial_det(n, m)
            ok = ok and report.equal
            ok = ok and report.params["prefactor_exponent"] == n * m * (1 - m) // 2
    _verdict(3, "q-binomial determinant with recorded prefactor", ok)


def test_criterion_4_watermelon_forms_coincide():
    ok = True
    for n in range(1, 4):
        for m in range(1, 4):
            for k in range(0, n + 1):
                reports = verify_watermelon_suite(n, m, k)
                ok = ok and all(r.equal for r in reports)
                offset = reports[4].params["offset"]
                ok = ok and offset == volume_offset(n, n - k)
    _verdict(4, "all watermelon partition function forms agree, offset constant", ok)


def test_criterion_5_watermelon_numbers_and_nest_counts():
    ok = True
    for n, expected in ((2, 20), (3, 980)):
        values = {
            count_deviation(n, n, n),
            gv_count((n,) * n, 2 * n),
            genfunc_det_forms(n, n, n, form=2).eval_at_one(),
            closed_genfunc(n, n, n).eval_at_one(),
        }
        ok = ok and values == {expected}
    for lam in enumerate_in_box(3, 3):
        ok = ok and verify_gessel_viennot(lam, 3).equal
    _verdict(5, "frozen watermelon numbers and exhaustive nest-count determinants", ok)


def test_criterion_6_plane_partition_bridge():
    ok = True
    for n in range(1, 4):
        for l in range(1, n + 1):
            for m in range(1, 4):
                ok = ok and verify_zq_equals_w(n, l, m).equal
                z = zq(n, l, m)
                ok = ok and z == watermelon_genfunc(n, m, n - l)
                ok = ok and dict(z.terms()) == box_terms(n, l, m)
    for n in range(0, 4):
        for l in range(0, n + 1):
            for m in range(0, 4):
                seen = set()
                total = 0
                for pp in enumerate_box(n, l, m):
                    w = gradient_bijection(pp, n, l, m)
                    ok = ok and gradient_bijection_inverse(w) == pp
                    ok = ok and w.volume == sum(map(sum, pp))
                    seen.add((w.interface, w.c_tableau, w.b_tableau))
                    total += 1
                ok = ok and len(seen) == total == count_deviation(n, l, m)
    _verdict(6, "plane partition generating function and gradient bijection", ok)


def test_criterion_7_schur_route_consensus():
    ok = True
    for lam in enumerate_in_box(3, 3):
        for m in (3, 4):
            exps = tuple(range(m))
            values = [
                bialternant(lam, exps),
                tableau_sum(lam, exps),
                principal_product(lam, m),
                h_determinant(lam, m),
                gv_determinant(lam, m),
            ]
            ok = ok and all(v == values[0] for v in values)
            ok = ok and values[0].eval_at_one() == count_ssyt(strip(lam), m)
    _verdict(7, "five Schur evaluation routes agree and count tableaux at q=1", ok)


def test_criterion_8_ring_and_triangle_properties():
    ok = True
    for big in range(0, 13):
        for small in range(0, big + 1):
            p = qbinomial(big, small)
            ok = ok and p == qbinomial(big, big - small)
            if big > 0 and small > 0:
                ok = ok and p == (qbinomial(big - 1, small - 1)
                                  + qbinomial(big - 1, small).shift(small))
            top = small * (big - small)
            ok = ok and all(p.coeff(e) == p.coeff(top - e)
                            for e in range(top + 1))
    samples = (
        LaurentPoly({-2: 3, 0: -1, 5: 2}),
        LaurentPoly({0: 1, 1: 1}),
        LaurentPoly({-1: -4, 3: 7}),
    )
    a, b, c = samples
    ok = ok and (a + b) * c == a * c + b * c
    ok = ok and a * b == b * a
    ok = ok and (a * b) * c == a * (b * c)
    ok = ok and a + LaurentPoly.zero() == a
    ok = ok and a * LaurentPoly.one() == a
    for num in samples:
        for den in samples:
            ok = ok and (num * den).exact_div(den) == num
        wire = num.to_pairs()
        ok = ok and LaurentPoly.from_pairs(wire) == num
        ok = ok and json.dumps(wire) == json.dumps(
            LaurentPoly.from_pairs(json.loads(json.dumps(wire))).to_pairs())
    _verdict(8, "ring axioms, exact division, triangle symmetries, wire format", ok)
