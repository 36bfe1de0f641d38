"""Executable checks of the determinant and generating-function identities.

Every verify_* function computes both sides of one identity from scratch,
through independent code paths, and returns an IdentityReport with the two
serialized polynomials.  A report never asserts; callers decide what a
failed equality means.  All checks are exact, no floating point anywhere.

The identities share the two sides of the Binet-Cauchy formula for Schur
functions: schur._schur_pairing, the box sum of S_lam(q^a) S_lam(q^b)
from a minors dynamic program, divided by its own alternants of delta,
and _cauchy_det, the geometric-entry determinant from Bareiss
elimination, divided by the Vandermonde products multiplied out factor by
factor.  Both sides are packed ints at X = 2**(8W) and share only their
last step, laurent._packed_quotient, which proves the quotient it returns.

The q-binomial determinant and the det forms of the watermelon suite come
from qanalogs._qbinomial_det, which reads each Gaussian binomial's
valuation, degree and value at q = 1 in closed form and its values at
q = Y and at q = -Y off one chain of ints, and laurent._det_core shifts
those values by the rows' and columns' powers of q and recovers the even
and the odd coefficients from the two integer determinants; a
large matrix of few rows is expanded by minors (laurent._minors_det), any
other eliminated by laurent._bareiss, the integer elimination _cauchy_det
runs too.  That expansion is a Laplace expansion like the pairing's
schur._maximal_minors, but separate code: it takes arbitrary int entries
in a row order by size and returns one determinant, where
_maximal_minors shifts monomials and returns every maximal minor.  A
bialternant past schur._MINORS_MAX_ROWS letters meets _qbinomial_det too,
but its triples q**(x * e) * [0 choose 0] run chains of no step.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from math import factorial
from typing import Sequence

from .laurent import (
    _MAX_DENSE_COEFFS,
    LaurentPoly,
    NotDivisible,
    _bareiss,
    _packed_quotient,
    det_fraction_free,  # noqa: F401  kept for perfbench's TRACE_PROBE, which checks this binding
)
from .partitions import check_int, check_partition, strip
from .paths import (
    closed_genfunc,
    genfunc_det_forms,
    gv_count,
    volume_offset,
    watermelon_genfunc,
)
from .qanalogs import _qbinomial_det
from .schur import DegeneratePoint, _schur_pairing, bialternant, principal_product
from .tableaux import count_ssyt


@dataclass(frozen=True)
class IdentityReport:
    """One checked equality; ``error`` is set only when the case raised."""

    identity: str
    params: dict
    lhs: LaurentPoly
    rhs: LaurentPoly
    equal: bool
    elapsed_ms: float
    error: str | None = None

    def to_json_dict(self) -> dict:
        params = {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in self.params.items()
        }
        out = {
            "identity": self.identity,
            "params": params,
            "lhs": self.lhs.to_pairs(),
            "rhs": self.rhs.to_pairs(),
            "equal": self.equal,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
        if self.error is not None:
            out["error"] = self.error
        return out


_ENCODER = json.JSONEncoder(sort_keys=True)


def report_json_line(report: IdentityReport, timing: bool = True) -> str:
    """One report as a JSON line, byte for byte ``json.dumps(to_json_dict(), sort_keys=True)``.

    The keys come in sorted order: elapsed_ms, equal, error, identity, lhs,
    params, rhs.  The head before ``lhs`` and the params are encoded by
    one shared encoder, and each polynomial side is written straight from
    its terms; equal sides are written once.  With ``timing`` false,
    ``elapsed_ms`` is left out, so the line depends on the case alone.
    """
    head = {"equal": report.equal, "identity": report.identity}
    if timing:
        head["elapsed_ms"] = round(report.elapsed_ms, 3)
    if report.error is not None:
        head["error"] = report.error
    lhs = report.lhs._wire_json()
    rhs = lhs if report.lhs == report.rhs else report.rhs._wire_json()
    return (f'{_ENCODER.encode(head)[:-1]}, "lhs": {lhs}, '
            f'"params": {_ENCODER.encode(report.params)}, "rhs": {rhs}}}')


def _report(identity: str, params: dict, lhs: LaurentPoly, rhs: LaurentPoly,
            started: float) -> IdentityReport:
    return IdentityReport(
        identity=identity,
        params=params,
        lhs=lhs,
        rhs=rhs,
        equal=lhs == rhs,
        elapsed_ms=(time.perf_counter() - started) * 1000.0,
    )


def _checked_point(point: Sequence[int], size: int, label: str) -> tuple[int, ...]:
    exps = tuple(check_int(v, f"{label} exponent") for v in point)
    if len(exps) != size:
        raise ValueError(f"{label} must have {size} exponents, got {len(exps)}")
    if len(set(exps)) != len(exps):
        raise DegeneratePoint(f"{label} has repeated exponents: {exps}")
    return exps


def _cauchy_det(m: int, a: Sequence[int], b: Sequence[int]) -> LaurentPoly:
    """Geometric-entry determinant over both Vandermondes, k = len(b) - len(a).

    The first k rows are the monomial rows (q^{b_j s})_j for s = 0..k-1;
    row i after them is (sum_{t<c} q^{(a_i+b_j)t})_j, c = m + len(b).  The
    quotient by V(a) V(b) is shifted by -k * sum(a).

    Everything is an int at X = 2**(8W), each row shifted as in
    ``det_fraction_free``: row r is multiplied by q**(-L_r), L_r its least exponent, so a monomial
    is a shift and a geometric sum of step d is c digits 1 spaced |d|
    apart, shifted by (c - 1) * min(d, 0) - L_r.  Bareiss runs on those
    ints.  By Leibniz the shifted determinant's coefficients are at most
    len(b)! c**len(a), which fixes W.  Each factor q^{a_l} - q^{a_j}, j < l,
    is q**min * (q**|a_l - a_j| - 1) up to its sign, so V(a) V(b) packs as
    a product of ints X**d - 1, whose coefficients have absolute sum at
    most len(a)! len(b)! (Leibniz again).  The determinant is divided by
    it with ``laurent._packed_quotient``, proven from those two bounds.  A
    remainder means corrupted arithmetic and raises RuntimeError.

    The shifted rows span (max(b) - min(b)) s digits for monomial row s and
    (c - 1) (max(0, a_i + max(b)) - min(0, a_i + min(b))) for geometric row
    i, and the determinant, every intermediate value of Bareiss and the
    divisor (which divides the nonzero determinant) have at most their
    sum plus one digit.  When those digits times W pass
    ``laurent._MAX_DENSE_COEFFS`` bytes, ValueError is raised before any
    entry is built.
    """
    na, nb = len(a), len(b)
    k, count = nb - na, m + nb
    if not nb:
        return LaurentPoly.one()
    norm = factorial(na) * factorial(nb)
    bound = factorial(nb) * count**na
    width = bound.bit_length() // 8 + 1
    unit = 8 * width
    low_b, high_b = min(b), max(b)
    size = width * ((high_b - low_b) * k * (k - 1) // 2 + 1 + (count - 1) * sum(
        max(0, x + high_b) - min(0, x + low_b) for x in a))
    if size > _MAX_DENSE_COEFFS:
        raise ValueError(f"the Cauchy determinant of {count} terms at {tuple(a)} and {tuple(b)} "
                         f"would pack {size} bytes, over the limit of {_MAX_DENSE_COEFFS}")
    rows = [[1 << unit * s * (y - low_b) for y in b] for s in range(k)]
    shift = low_b * k * (k - 1) // 2
    for x in a:
        row_low = (count - 1) * min(0, x + low_b)
        shift += row_low
        rows.append([_geometric(x + y, count, width)
                     << unit * ((count - 1) * min(0, x + y) - row_low) for y in b])
    sign, divisor = 1, 1
    for point in (a, b):
        for l, y in enumerate(point):
            for x in point[:l]:
                shift -= min(x, y)
                if y < x:
                    sign = -sign
                divisor *= (1 << unit * abs(y - x)) - 1
    try:
        det = _bareiss(rows)
        return _packed_quotient(sign * det, divisor, shift - k * sum(a), width, bound, norm)
    except NotDivisible as exc:
        raise RuntimeError("Cauchy determinant lost exactness") from exc


def _geometric(step: int, count: int, width: int) -> int:
    """sum X**(|step| t) over t < count at X = 2**(8*width), read off its bytes."""
    if not step:
        return count
    return int.from_bytes((b"\x01" + bytes(abs(step) * width - 1)) * count, "little")


def verify_binet_cauchy(n: int, m: int, a: Sequence[int], b: Sequence[int]) -> IdentityReport:
    """Schur pairing over the box against the geometric-entry determinant.

    LHS sums S_lam(q^a) S_lam(q^b) over lam inside the m**n box; RHS is
    det(sum_{t<m+n} q^{(a_k+b_j)t}) divided by both Vandermonde products.
    Points with a repeated exponent, or with a_k + b_j = 0 for some pair,
    are rejected.
    """
    start = time.perf_counter()
    av = _checked_point(a, n, "a")
    bv = _checked_point(b, n, "b")
    if any(x + y == 0 for x in av for y in bv):
        raise DegeneratePoint(f"a_k + b_j = 0 for some pair of {av} and {bv}")
    return _report("binet-cauchy", {"N": n, "M": m, "a": av, "b": bv},
                   _schur_pairing(m, av, bv), _cauchy_det(m, av, bv), start)


def verify_q_binet_cauchy(n: int, m: int) -> IdentityReport:
    """The box pairing at the adjacent principal points q^(0..n-1), q^(1..n)."""
    inner = verify_binet_cauchy(n, m, tuple(range(n)), tuple(range(1, n + 1)))
    return replace(inner, identity="q-binet-cauchy", params={"N": n, "M": m})


def verify_kuperberg(n: int, m: int) -> IdentityReport:
    """Normalized geometric determinant against the box product.

    LHS is det(sum_{t<m+n} q^{t(j+k-1)}) divided by the Vandermondes of
    the exponent points (1..n) and (0..n-1); RHS is the double product
    over j, k <= n of (1 - q^{m+j+k-1}) / (1 - q^{j+k-1}), which is the
    box product closed_genfunc(n, m, n).
    """
    start = time.perf_counter()
    lhs = _cauchy_det(m, tuple(range(1, n + 1)), tuple(range(n)))
    rhs = closed_genfunc(n, m, n)
    return _report("kuperberg", {"N": n, "M": m}, lhs, rhs, start)


def verify_qbinomial_det(n: int, m: int) -> IdentityReport:
    """Schur pairing at adjacent principal points against an m x m q-binomial determinant.

    RHS is q^(nm(1-m)/2) det([2n+i-1 choose n+j-1]) with i, j running to m.
    The prefactor exponent is recorded in the params.  The determinant is
    ``qanalogs._qbinomial_det``, at the Leibniz width
    prod_i sum_j C(2n+i-1, n+j-1).
    """
    start = time.perf_counter()
    lhs = _schur_pairing(m, tuple(range(1, n + 1)), tuple(range(n)))
    prefactor = n * m * (1 - m) // 2
    rhs = _qbinomial_det([[(0, 2 * n + i - 1, n + j - 1) for j in range(1, m + 1)]
                          for i in range(1, m + 1)]).shift(prefactor)
    return _report(
        "q-binomial-det",
        {"N": n, "M": m, "prefactor_exponent": prefactor},
        lhs, rhs, start)


def verify_deviation_binet_cauchy(n: int, m: int, k: int,
                                  a: Sequence[int], b: Sequence[int]) -> IdentityReport:
    """Box pairing with k vanished variables against the confluent determinant.

    The sum runs over lam inside the m**(n-k) box, pairing S_lam in the
    n - k surviving x-variables with S_lam in all n y-variables.  The
    determinant is _cauchy_det, whose k leading monomial rows replace the
    collapsed rows.  At k = 0 this is verify_binet_cauchy without its
    a_k + b_j = 0 check.
    """
    start = time.perf_counter()
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    av = _checked_point(a, n - k, "a")
    bv = _checked_point(b, n, "b")
    return _report(
        "deviation-binet-cauchy",
        {"N": n, "M": m, "k": k, "a": av, "b": bv},
        _schur_pairing(m, av, bv), _cauchy_det(m, av, bv), start)


def verify_watermelon_suite(n: int, m: int, k: int) -> list[IdentityReport]:
    """Five cross-checks of the watermelon partition function at one (n, m, k).

    The enumerated generating function (tableau series per interface)
    against the interface Schur sum of bialternants and the closed
    product; the closed product against both determinant forms and the
    rectangle-shape specialization.  The enumeration and the closed
    product are each computed once and shared by the reports that use
    them.

    The interface Schur sum weights each lam by q**|lam| S_lam(q^(0..L-1))
    S_lam(q^(0..n-1)).  S_lam is homogeneous of degree |lam|, so
    q**|lam| S_lam(q^(0..L-1)) = S_lam(q^(1..L)), and the sum is the Schur
    pairing at (1..L) and (0..n-1).

    The specialization is shifted down by the level-reading offset,
    recorded in the params.  Cell (i, c) of the rectangle tableau of the
    matching plane partition pi sits on level (n - i) + pi[c][i], so the
    level statistic is l * n(n-1)/2 + |pi| = volume_offset(n, l) + volume
    on every watermelon; the tests check this through the bijection.
    """
    lines = n - k
    params = {"N": n, "M": m, "k": k}
    reports = []

    start = time.perf_counter()
    enum = watermelon_genfunc(n, m, k)
    schur_sum = _schur_pairing(m, tuple(range(1, lines + 1)), tuple(range(n)))
    reports.append(_report(
        "watermelon-enum-vs-schur-sum", params, enum, schur_sum, start))

    start = time.perf_counter()
    product = closed_genfunc(n, lines, m)
    reports.append(_report(
        "watermelon-enum-vs-product", params, enum, product, start))

    start = time.perf_counter()
    reports.append(_report(
        "watermelon-product-vs-qbinom-det", params,
        product, genfunc_det_forms(n, lines, m, form=1), start))

    start = time.perf_counter()
    reports.append(_report(
        "watermelon-product-vs-h-det", params,
        product, genfunc_det_forms(n, lines, m, form=2), start))

    start = time.perf_counter()
    offset = volume_offset(n, lines)
    spec = principal_product((lines,) * n, n + m).shift(-offset)
    reports.append(_report(
        "watermelon-product-vs-specialization", dict(params, offset=offset),
        product, spec, start))

    return reports


def verify_gessel_viennot(lam: Sequence[int], n: int) -> IdentityReport:
    """Binomial determinant against the tableau count and the Schur value at 1.

    All three integers must agree; the polynomials in the report are the
    constant embeddings of the determinant and the tableau count, and the
    Schur value is recorded in the params.
    """
    start = time.perf_counter()
    shape = strip(check_partition(lam))
    det = gv_count(shape, n)
    nests = count_ssyt(shape, n)
    schur_at_one = bialternant(shape, tuple(range(n))).eval_at_one()
    lhs = LaurentPoly.const(det)
    rhs = LaurentPoly.const(nests)
    report = _report(
        "gessel-viennot",
        {"lambda": shape, "N": n, "schur_at_one": schur_at_one},
        lhs, rhs, start)
    if report.equal and det != schur_at_one:
        report = replace(report, equal=False)
    return report


def verify_zq_equals_w(n: int, l: int, m: int) -> IdentityReport:
    """Boxed plane partition generating function against the watermelon one."""
    from .planepartitions import zq

    start = time.perf_counter()
    if l > n:
        raise ValueError("need l <= n so the deviation k = n - l is nonnegative")
    lhs = zq(n, l, m)
    rhs = watermelon_genfunc(n, m, n - l)
    return _report("zq-equals-w", {"N": n, "L": l, "M": m}, lhs, rhs, start)


# Fixed generic exponent points for the determinant identities, per size.
# Chosen small, pairwise distinct within each tuple, with a_k + b_j never 0;
# one pair per size exercises negative exponents.
GOLDEN_POINTS: dict[int, tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]] = {
    1: (((1,), (1,)), ((0,), (2,)), ((-2,), (3,))),
    2: (((0, 1), (1, 2)), ((0, 3), (1, 5)), ((-1, 2), (3, 4))),
    3: (((0, 1, 2), (1, 2, 3)), ((0, 2, 5), (1, 3, 4)), ((-1, 1, 4), (2, 3, 7))),
}


_CASE_FUNCS = {
    "binet-cauchy": verify_binet_cauchy,
    "q-binet-cauchy": verify_q_binet_cauchy,
    "kuperberg": verify_kuperberg,
    "q-binomial-det": verify_qbinomial_det,
    "deviation-binet-cauchy": verify_deviation_binet_cauchy,
    "watermelon-suite": verify_watermelon_suite,
    "gessel-viennot": verify_gessel_viennot,
    "zq-equals-w": verify_zq_equals_w,
}

Case = tuple[str, dict]


def _dispatch(case: Case) -> list[IdentityReport]:
    """Run one case; an exception inside it becomes one failed report.

    The failed report carries the case name, its keyword arguments as
    params, zero on both sides and ``"<ExceptionType>: <message>"`` as
    its error, so one bad case cannot stop the others.
    """
    name, kwargs = case
    start = time.perf_counter()
    try:
        result = _CASE_FUNCS[name](**kwargs)
    except Exception as exc:
        return [IdentityReport(
            identity=name, params=dict(kwargs), lhs=LaurentPoly.zero(),
            rhs=LaurentPoly.zero(), equal=False,
            elapsed_ms=(time.perf_counter() - start) * 1000.0,
            error=f"{type(exc).__name__}: {exc}")]
    return result if isinstance(result, list) else [result]


def run_cases(cases: Sequence[Case], workers: int | None = None) -> list[IdentityReport]:
    """Run verification cases, one report list per case, input order preserved.

    With workers > 1 the cases go through a process pool; results are
    merged in submission order, so the output is identical either way.
    A case that raises yields one failed report with an ``error`` field,
    serially and in the pool alike, and the other cases still run.
    """
    if workers is not None and workers > 1:
        # imported here: concurrent.futures.process pulls in multiprocessing,
        # which a serial run never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            groups = list(pool.map(_dispatch, cases))
    else:
        groups = [_dispatch(case) for case in cases]
    out: list[IdentityReport] = []
    for group in groups:
        out.extend(group)
    return out
