"""Independent oracles for every op, run outside the timed region.

Nothing here calls into qmelon: the box polynomial is rebuilt as a dense
truncated power series, the box count as a product of Fractions, and the
n x n x n counts come frozen from OEIS A008793.  Each checker returns the
list of problems it found (empty when the op is correct) and the op's
timing-free output text, which feeds the per-seed digest.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

# OEIS A008793 (https://oeis.org/A008793): plane partitions in an n x n x n box.
A008793 = (1, 2, 20, 980, 232848, 267227532, 1478619421136, 39405996318420160)


def box_count(n: int, l: int, m: int) -> int:
    """MacMahon's count of B(n, l, m): prod (l + i + j - 1) / (i + j - 1)."""
    value = Fraction(1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            value *= Fraction(l + i + j - 1, i + j - 1)
    return int(value)


def box_genfunc(n: int, l: int, m: int) -> list[int]:
    """Coefficients of prod (1 - q^(l+i+j-1)) / (1 - q^(i+j-1)), index = exponent.

    The product is a polynomial of degree n*l*m, so working modulo
    q^(n*l*m + 1) is exact: multiply by each numerator factor in place, and
    divide by each denominator factor as a strided prefix sum.
    """
    deg = n * l * m
    c = [0] * (deg + 1)
    c[0] = 1
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            a = l + i + j - 1
            for e in range(deg, a - 1, -1):
                c[e] -= c[e - a]
            b = i + j - 1
            for e in range(b, deg + 1):
                c[e] += c[e - b]
    return c


def _pairs_problems(pairs) -> tuple[list[str], dict[int, int]]:
    """Parse the wire format strictly: ascending int exponents, decimal strings."""
    problems, coeffs, last = [], {}, None
    for pair in pairs:
        if (not isinstance(pair, list) or len(pair) != 2 or type(pair[0]) is not int
                or not isinstance(pair[1], str) or not re.fullmatch(r"-?[1-9]\d*", pair[1])):
            problems.append(f"malformed wire pair {pair!r}")
            continue
        if last is not None and pair[0] <= last:
            problems.append("wire exponents not strictly increasing")
        last = pair[0]
        coeffs[pair[0]] = int(pair[1])
    return problems, coeffs


def box_poly_problems(pairs, n: int, l: int, m: int) -> list[str]:
    """Checks of a claimed B(n, l, m) generating function in wire format."""
    problems, coeffs = _pairs_problems(pairs)
    if problems:
        return problems
    deg = n * l * m
    if sum(coeffs.values()) != box_count(n, l, m):
        problems.append("value at q=1 is not the box count")
    if min(coeffs, default=None) != 0 or max(coeffs, default=None) != deg:
        problems.append(f"valuation/degree are not 0/{deg}")
    if any(coeffs.get(e, 0) != coeffs.get(deg - e, 0) for e in coeffs):
        problems.append("coefficients are not palindromic")
    if n == l == m and n < len(A008793) and sum(coeffs.values()) != A008793[n]:
        problems.append(f"cube count differs from A008793({n})")
    expected = {e: c for e, c in enumerate(box_genfunc(n, l, m)) if c}
    if coeffs != expected:
        problems.append("coefficients differ from the dense product")
    return problems


def _report_box(report) -> tuple[int, int, int] | None:
    """The box whose generating function a report side must equal, if any."""
    p = report["params"]
    if report["identity"] == "watermelon-enum-vs-product":
        return p["N"], p["N"] - p["k"], p["M"]
    if report["identity"] == "zq-equals-w":
        return p["N"], p["L"], p["M"]
    if report["identity"] == "kuperberg":
        return p["N"], p["M"], p["N"]
    return None


def check_case(op: dict, out) -> tuple[list[str], str]:
    """out = (reports, json lines): every report equal, box sides match the oracle."""
    reports, lines = out
    problems, texts = [], []
    if not reports or len(lines) != len(reports):
        problems.append("no report, or one JSON line per report missing")
    for report, line in zip(reports, lines):
        data = json.loads(line)
        data.pop("elapsed_ms", None)
        texts.append(json.dumps(data, sort_keys=True))
        if report.equal is not True or data["equal"] is not True:
            problems.append(f"{data['identity']} {data['params']} is not equal")
        box = _report_box(data)
        if box is not None:
            problems += box_poly_problems(data["rhs"], *box)
    return problems, "\n".join(texts)


def check_count(op: dict, out) -> tuple[list[str], str]:
    """out = (exit code, stdout) of ``qmelon count --what genfunc --format json``."""
    code, text = out
    n, l, m = op["box"]
    if code != 0:
        return [f"exit code {code}"], text
    data = json.loads(text)
    if [data.get("n"), data.get("l"), data.get("m"), data.get("what")] != [n, l, m, "genfunc"]:
        return ["count echoes the wrong box"], text
    return box_poly_problems(data["value"], n, l, m), text


def check_det(op: dict, out) -> tuple[list[str], str]:
    """out = the LaurentPoly from genfunc_det_forms."""
    pairs = out.to_pairs()
    return box_poly_problems(pairs, *op["box"]), json.dumps(pairs)


def check_roundtrip(op: dict, out) -> tuple[list[str], str]:
    """out = (watermelon, plane partition back from the inverse bijection)."""
    melon, back = out
    n, l, m = op["box"]
    pp = op["pp"]
    problems = []
    if [list(row) for row in back] != pp:
        problems.append("inverse bijection did not return the input")
    if melon.volume != sum(map(sum, pp)):
        problems.append("bijection did not preserve the volume")
    if (melon.n, melon.m, melon.k) != (n, m, n - l):
        problems.append("watermelon has the wrong N, M or k")
    return problems, json.dumps(melon.to_dict(), sort_keys=True)


def check_render(op: dict, out) -> tuple[list[str], str]:
    """out = (exit code, stdout) of ``qmelon render``: header and body match the input."""
    code, text = out
    n, l, m = op["box"]
    pp = op["pp"]
    if code != 0:
        return [f"exit code {code}"], text
    header = f"plane partition N={n} L={l} M={m} volume={sum(map(sum, pp))}"
    problems = []
    if op["style"] == "ascii":
        head, _, body = text.partition("\n")
        rows = [[int(v) for v in line.split()] for line in body.splitlines()]
        if head != header:
            problems.append("ascii header does not match the input")
        if rows != pp:
            problems.append("ascii body does not match the input")
    else:
        if f"<title>{header}</title>" not in text:
            problems.append("svg title does not match the input")
        if text.count("<polygon") != l * n + 3 * sum(map(sum, pp)):
            problems.append("svg face count does not match the input")
    return problems, text


CHECKERS = {
    "case": check_case,
    "count": check_count,
    "det": check_det,
    "roundtrip": check_roundtrip,
    "render": check_render,
}
