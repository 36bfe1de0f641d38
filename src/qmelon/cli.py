"""Command-line front end.

Subcommands: schur (evaluate one Schur polynomial, optionally through every
algorithm), verify (run identity suites over a parameter grid, JSON-lines
out), count (watermelon numbers and generating functions), render (ASCII or
SVG pictures of watermelons and boxed plane partitions).

Exit codes: 0 success, 1 an identity or cross-check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from contextlib import nullcontext
from functools import cache
from typing import Sequence

from .identities import GOLDEN_POINTS, report_json_line, run_cases
from .partitions import check_int, enumerate_in_box, parse_partition, strip
from .paths import (
    Watermelon,
    b_phase_points,
    c_phase_points,
    closed_genfunc,
    count_deviation,
    watermelon_from_dict,
)
from .planepartitions import check_plane_partition, pp_from_dict, volume, zq
from .schur import (
    bialternant,
    gv_determinant,
    h_determinant,
    principal_product,
    tableau_sum,
)

_SUITES = ("all", "binet", "qbinet", "devbinet", "kuperberg", "qbinom",
           "melon", "gv", "zq")

# Each route evaluates the Schur polynomial at (1, q, ..., q**(m-1)).
_SCHUR_ROUTES = {
    "bialternant": lambda lam, m: bialternant(lam, tuple(range(m))),
    "tableaux": lambda lam, m: tableau_sum(lam, tuple(range(m))),
    "product": lambda lam, m: principal_product(lam, m),
    "hdet": lambda lam, m: h_determinant(lam, m),
    "gvdet": lambda lam, m: gv_determinant(lam, m),
}


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------- schur

def cmd_schur(args) -> int:
    algs = list(_SCHUR_ROUTES) if args.alg == "all" else [args.alg]
    try:
        lam = strip(parse_partition(args.shape))
        m = args.vars if args.vars is not None else max(1, len(lam))
        if m < len(lam):
            return _fail_usage(f"shape has {len(lam)} parts but only {m} variables")
        values = {name: _SCHUR_ROUTES[name](lam, m) for name in algs}
    except ValueError as exc:
        return _fail_usage(str(exc))
    agree = len(set(values.values())) == 1
    if args.format == "json":
        payload = {
            "shape": list(lam),
            "vars": m,
            "values": {name: p.to_pairs() for name, p in values.items()},
            "agree": agree,
        }
        print(json.dumps(payload, sort_keys=True))
    elif len(values) == 1:
        print(str(next(iter(values.values()))))
    else:
        for name, value in values.items():
            print(f"{name}: {value}")
        print(f"verdict: {'OK' if agree else 'DISAGREE'}")
    return 0 if agree else 1


# ---------------------------------------------------------------- verify

def build_cases(suite: str, max_n: int | None, max_m: int | None,
                max_k: int | None, shapes_box: tuple[int, int] | None) -> list:
    """Grid of verification cases, ordered by suite then parameter tuple.

    Per-suite default bounds match the documented desk-scale grid, so the
    full run with no overrides is the reference check.
    """

    def top(value, default):
        return default if value is None else value

    cases = []
    if suite in ("all", "binet"):
        for n in range(1, top(max_n, 3) + 1):
            for a, b in GOLDEN_POINTS.get(n, ()):
                for m in range(1, top(max_m, 3) + 1):
                    cases.append(("binet-cauchy", {"n": n, "m": m, "a": a, "b": b}))
    if suite in ("all", "qbinet"):
        for n in range(1, top(max_n, 4) + 1):
            for m in range(1, top(max_m, 4) + 1):
                cases.append(("q-binet-cauchy", {"n": n, "m": m}))
    if suite in ("all", "devbinet"):
        for n in range(1, top(max_n, 3) + 1):
            for k in range(0, min(n, top(max_k, n)) + 1):
                for a, b in GOLDEN_POINTS.get(n, ()):
                    for m in range(1, top(max_m, 3) + 1):
                        cases.append(("deviation-binet-cauchy",
                                      {"n": n, "m": m, "k": k, "a": a[:n - k], "b": b}))
    if suite in ("all", "kuperberg"):
        for n in range(1, top(max_n, 4) + 1):
            for m in range(1, top(max_m, 4) + 1):
                cases.append(("kuperberg", {"n": n, "m": m}))
    if suite in ("all", "qbinom"):
        for n in range(1, top(max_n, 3) + 1):
            for m in range(1, top(max_m, 4) + 1):
                cases.append(("q-binomial-det", {"n": n, "m": m}))
    if suite in ("all", "melon"):
        for n in range(1, top(max_n, 3) + 1):
            for m in range(1, top(max_m, 3) + 1):
                for k in range(0, min(n, top(max_k, n)) + 1):
                    cases.append(("watermelon-suite", {"n": n, "m": m, "k": k}))
    if suite in ("all", "gv"):
        rows, cols = shapes_box if shapes_box is not None else (3, 3)
        for lam in enumerate_in_box(rows, cols):
            cases.append(("gessel-viennot", {"lam": lam, "n": rows}))
    if suite in ("all", "zq"):
        for n in range(1, top(max_n, 3) + 1):
            for l in range(1, n + 1):
                for m in range(1, top(max_m, 3) + 1):
                    cases.append(("zq-equals-w", {"n": n, "l": l, "m": m}))
    return cases


_BOX_RE = re.compile(r"\s*([0-9]+)\s*,\s*([0-9]+)\s*")


def _parse_box(text: str) -> tuple[int, int]:
    match = _BOX_RE.fullmatch(text)
    if match is None:
        raise ValueError(f"expected ROWS,COLS in ASCII digits, got {text!r}")
    return int(match[1]), int(match[2])


def cmd_verify(args) -> int:
    if any(v is not None and v < 0 for v in (args.max_n, args.max_m, args.max_k)):
        return _fail_usage("verify bounds must be nonnegative")
    try:
        shapes_box = _parse_box(args.shapes_in_box) if args.shapes_in_box else None
    except ValueError as exc:
        return _fail_usage(str(exc))
    if args.workers is not None and args.workers < 1:
        return _fail_usage("worker count must be >= 1")
    # open the report file before the grid runs, so a bad path costs no work
    try:
        sink = open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout)
    except OSError as exc:
        return _fail_usage(str(exc))
    with sink as fh:
        cases = build_cases(args.suite, args.max_n, args.max_m, args.max_k, shapes_box)
        reports = run_cases(cases, args.workers)
        timing = not args.no_timing
        for r in reports:
            fh.write(report_json_line(r, timing) + "\n")
    passed = sum(1 for r in reports if r.equal)
    print(f"# passed {passed}/{len(reports)}")
    return 0 if passed == len(reports) else 1


# ---------------------------------------------------------------- count

def cmd_count(args) -> int:
    n, l, m = args.n, args.l, args.m
    route = {"number": count_deviation, "genfunc": closed_genfunc, "zq": zq}[args.what]
    try:
        value = route(n, l, m)
    except (ValueError, ArithmeticError) as exc:
        return _fail_usage(str(exc))
    if args.what == "number" and hasattr(sys, "set_int_max_str_digits"):
        # count_deviation charges the decimal form: the digit limit is lifted for it alone
        digits = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        value = str(value)
        sys.set_int_max_str_digits(digits)
    if args.format == "json":
        # the keys of json.dumps(..., sort_keys=True), the value written directly
        wire = value if args.what == "number" else value._wire_json()
        print(f'{{"l": {l}, "m": {m}, "n": {n}, "value": {wire}, "what": "{args.what}"}}')
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["n", "l", "m", "what", "value"])
        writer.writerow([n, l, m, args.what, value])
    else:
        print(str(value))
    return 0


# ---------------------------------------------------------------- render

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#17becf", "#8c564b", "#e377c2")


# The most items a figure may draw: the cells of a boxed plane partition,
# N * L, with three faces per unit cube in svg, or the N * M tableau cells
# and N * (N + M) path vertices of a watermelon.  CPython 3.11, peak RSS of
# the whole command: the ascii figure of the full 1000 x 1000 x 1 box
# (10**6 cells) took 0.7 s and 42 MB, the svg of the full 300 x 300 x 3 box
# (9 * 10**5 tiles and faces) 3.4 s and 382 MB, and both figures of the
# watermelon N = 400, M = 800 (8 * 10**5) 0.9-1.1 s and 140-192 MB; the
# svg of 1000 x 1000 x 1 (4 * 10**6) would take 15.5 s and 1.76 GB.
_MAX_FIGURE_ITEMS = 10**6


def _require_figure(items: int, what: str) -> None:
    if items > _MAX_FIGURE_ITEMS:
        raise ValueError(f"the figure would draw {items} {what}, over the limit of "
                         f"{_MAX_FIGURE_ITEMS}")


def _melon_point_lists(w: Watermelon) -> list[list[tuple[int, int]]]:
    """Glued path vertices in picture coordinates, interface at column 0.

    The contraction phase is drawn to the left (line j at column 1 - j),
    the expansion phase to the right (line j at column j - 1).
    """
    out = []
    for c_pts, b_pts in zip(c_phase_points(w), b_phase_points(w)):
        seq = [(1 - line, h) for line, h in c_pts]
        seq += [(line - 1, h) for line, h in b_pts[1:]]
        out.append(seq)
    return out


def _ascii_watermelon(w: Watermelon) -> str:
    header = f"watermelon N={w.n} M={w.m} k={w.k} volume={w.volume}"
    pts = _melon_point_lists(w)
    if not pts:
        return header + "\n"
    xmin = min(x for seq in pts for x, _ in seq)
    xmax = max(x for seq in pts for x, _ in seq)
    ymax = max(y for seq in pts for _, y in seq)
    grid = [[" "] * ((xmax - xmin) * 2 + 1) for _ in range(ymax * 2 + 1)]
    for i, seq in enumerate(pts, start=1):
        for (x0, y0), (x1, y1) in zip(seq, seq[1:]):
            if y0 == y1:
                grid[(ymax - y0) * 2][(min(x0, x1) - xmin) * 2 + 1] = "-"
            else:
                grid[(ymax - min(y0, y1)) * 2 - 1][(x0 - xmin) * 2] = "|"
        for x, y in seq:
            grid[(ymax - y) * 2][(x - xmin) * 2] = str(i % 10)
    body = "\n".join("".join(row).rstrip() for row in grid)
    return header + "\n" + body + "\n"


def _svg_watermelon(w: Watermelon) -> str:
    pts = _melon_point_lists(w)
    scale, pad = 24, 12
    xmin = min((x for seq in pts for x, _ in seq), default=0)
    xmax = max((x for seq in pts for x, _ in seq), default=0)
    ymax = max((y for seq in pts for _, y in seq), default=0)
    width = (xmax - xmin) * scale + 2 * pad
    height = ymax * scale + 2 * pad

    def at(x: int, y: int) -> tuple[int, int]:
        return (x - xmin) * scale + pad, (ymax - y) * scale + pad

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        f'<title>watermelon N={w.n} M={w.m} k={w.k} volume={w.volume}</title>',
    ]
    for i, seq in enumerate(pts, start=1):
        color = _PALETTE[(i - 1) % len(_PALETTE)]
        coords = " ".join(f"{u},{v}" for u, v in (at(x, y) for x, y in seq))
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="3" stroke-linejoin="round" stroke-linecap="round"/>')
    for i, seq in enumerate(pts, start=1):
        color = _PALETTE[(i - 1) % len(_PALETTE)]
        for x, y in seq:
            u, v = at(x, y)
            parts.append(f'<circle cx="{u}" cy="{v}" r="4" fill="{color}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _ascii_pp(full, n: int, l: int, m: int) -> str:
    header = f"plane partition N={n} L={l} M={m} volume={sum(map(sum, full))}"
    if n == 0 or l == 0:
        return header + "\n(empty)\n"
    width = len(str(m)) if m > 0 else 1
    rows = [" ".join(str(v).rjust(width) for v in row) for row in full]
    return header + "\n" + "\n".join(rows) + "\n"


def _svg_pp(full, n: int, l: int, m: int) -> str:
    # 2:1 dimetric cube projection; all vertex coordinates are integers,
    # so output bytes are reproducible.  Painter order: ascending i+j+k
    # is front-correct for this projection (kernel has all-positive parts).
    w_u, w_v, w_z = 24, 12, 20

    def proj(a: int, b: int, c: int) -> tuple[int, int]:
        return (b - a) * w_u + l * w_u, (a + b) * w_v - c * w_z + m * w_z

    def face(corners, fill: str) -> str:
        coords = " ".join(f"{u},{v}" for u, v in (proj(*p) for p in corners))
        return (f'<polygon points="{coords}" fill="{fill}" '
                f'stroke="#4a3b28" stroke-width="1"/>')

    width = max((n + l) * w_u, 1)
    height = max((n + l) * w_v + m * w_z, 1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        f'<title>plane partition N={n} L={l} M={m} '
        f'volume={sum(map(sum, full))}</title>',
    ]
    for i in range(1, l + 1):
        for j in range(1, n + 1):
            parts.append(face(
                [(i - 1, j - 1, 0), (i, j - 1, 0), (i, j, 0), (i - 1, j, 0)],
                "#f2efe6"))
    cubes = [(i + j + k, i, j, k)
             for i in range(1, l + 1)
             for j in range(1, n + 1)
             for k in range(1, full[i - 1][j - 1] + 1)]
    for _, i, j, k in sorted(cubes):
        parts.append(face(
            [(i - 1, j - 1, k), (i, j - 1, k), (i, j, k), (i - 1, j, k)],
            "#e8d28a"))
        parts.append(face(
            [(i, j - 1, k), (i, j, k), (i, j, k - 1), (i, j - 1, k - 1)],
            "#9c7a4f"))
        parts.append(face(
            [(i - 1, j, k), (i, j, k), (i, j, k - 1), (i - 1, j, k - 1)],
            "#c2a066"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_render(args) -> int:
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        return _fail_usage(str(exc))
    try:
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("top-level JSON value must be an object")
        # each figure is sized before any padding, tableau or picture exists
        if "parts" in data:
            n, l = (max(check_int(data[key], key), 0) for key in ("N", "L"))
            if args.style == "ascii":
                _require_figure(n * l, "cells")
            else:
                _require_figure(n * l + 3 * volume(check_plane_partition(data["parts"])),
                                "tiles and faces")
            full, n, l, m = pp_from_dict(data)
            out = _ascii_pp(full, n, l, m) if args.style == "ascii" \
                else _svg_pp(full, n, l, m)
        elif "c_steps" in data:
            n, m = (max(check_int(data[key], key), 0) for key in ("N", "M"))
            _require_figure(n * m + n * (n + m), "tableau cells and path vertices")
            w = watermelon_from_dict(data)
            out = _ascii_watermelon(w) if args.style == "ascii" \
                else _svg_watermelon(w)
        else:
            raise ValueError("object is neither a plane partition nor a watermelon")
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        return _fail_usage(str(exc))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out)
        except OSError as exc:
            return _fail_usage(str(exc))
    else:
        sys.stdout.write(out)
    return 0


# ---------------------------------------------------------------- wiring

@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Parsing does not change the parser, so one instance serves every call
    of ``main``.  Each subcommand's handler is bound when the parser is
    built: a ``cmd_*`` function replaced after that is not reached.
    """
    parser = argparse.ArgumentParser(
        prog="qmelon",
        description="Exact watermelon path counting, boxed plane partitions, "
                    "and the determinant identities tying them together.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schur", help="evaluate a principally specialized Schur polynomial")
    p.add_argument("--shape", required=True, help="partition, e.g. [2,1] or []")
    p.add_argument("--vars", type=int, default=None, help="number of variables")
    p.add_argument("--alg", choices=(*_SCHUR_ROUTES, "all"), default="bialternant")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_schur)

    p = sub.add_parser("verify", help="run identity suites, one JSON report per line")
    p.add_argument("--suite", choices=_SUITES, default="all")
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--max-m", type=int, default=None)
    p.add_argument("--max-k", type=int, default=None)
    p.add_argument("--shapes-in-box", default=None, metavar="ROWS,COLS",
                   help="shape box for the gv suite (default 3,3)")
    p.add_argument("--workers", type=int, default=None,
                   help="process count (default 1)")
    p.add_argument("--out", default=None, help="write the JSON lines to a file")
    p.add_argument("--no-timing", action="store_true",
                   help="leave elapsed_ms out of every report line")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("count", help="watermelon numbers and generating functions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--what", choices=("number", "genfunc", "zq"), default="number")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("render", help="draw a watermelon or plane partition from JSON")
    p.add_argument("--input", required=True, help="JSON file path, or - for stdin")
    p.add_argument("--style", choices=("ascii", "svg"), default="ascii")
    p.add_argument("--out", default=None, help="write the figure to a file")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
