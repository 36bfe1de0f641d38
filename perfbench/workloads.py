"""Seeded op lists for the three workloads.

Everything here is made from the seed with the standard library alone, so
the program under test only ever sees the generated inputs.  An op is a
JSON-ready dict with a ``kind``; ``ops.RUNNERS`` maps each kind to the
program call that is timed.

Sizes are drawn from strata: each slot of a pass picks one member of a
small set of inputs that cost about the same at the seed commit, so two
seeds differ in their inputs but not much in their total work.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("verify-grid", "genfunc-boxes", "melon-enum")

# ---------------------------------------------------------------- verify-grid


def random_points(n: int, seed: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Generic exponent pair: distinct entries, no a_k + b_j = 0.

    Same draw as ``qmelon.identities.random_points``, frozen here so the
    workload does not change when the program does.
    """
    rng = random.Random(seed)
    while True:
        a = tuple(rng.sample(range(-3, 7), n))
        b = tuple(rng.sample(range(1, 10), n))
        if all(x + y != 0 for x in a for y in b):
            return a, b


def _partitions_in_box(n: int, m: int):
    """Padded partitions with at most n parts, each at most m."""
    for parts in itertools.combinations_with_replacement(range(m + 1), n):
        yield tuple(reversed(parts))


def verify_grid(seed: int, small: bool = False) -> list[dict]:
    """The ``qmelon verify --suite all`` grid of the seed commit, 217 cases.

    The golden binet/devbinet points are replaced by three seeded pairs per
    size, and the case order is shuffled.  ``small`` keeps sizes <= 2.
    """
    rng = random.Random(seed)
    top = 2 if small else None

    def upto(default: int) -> range:
        return range(1, (top or default) + 1)

    points = {n: [random_points(n, rng.randrange(2**32)) for _ in range(3)]
              for n in upto(3)}
    cases = []
    for n in upto(3):
        for a, b in points[n]:
            for m in upto(3):
                cases.append(("binet-cauchy", {"n": n, "m": m, "a": a, "b": b}))
    for n in upto(4):
        for m in upto(4):
            cases.append(("q-binet-cauchy", {"n": n, "m": m}))
    for n in upto(3):
        for k in range(n + 1):
            for a, b in points[n]:
                for m in upto(3):
                    cases.append(("deviation-binet-cauchy",
                                  {"n": n, "m": m, "k": k, "a": a[:n - k], "b": b}))
    for n in upto(4):
        for m in upto(4):
            cases.append(("kuperberg", {"n": n, "m": m}))
    for n in upto(3):
        for m in upto(4):
            cases.append(("q-binomial-det", {"n": n, "m": m}))
    for n in upto(3):
        for m in upto(3):
            for k in range(n + 1):
                cases.append(("watermelon-suite", {"n": n, "m": m, "k": k}))
    rows = top or 3
    for lam in _partitions_in_box(rows, rows):
        cases.append(("gessel-viennot", {"lam": lam, "n": rows}))
    for n in upto(3):
        for l in range(1, n + 1):
            for m in upto(3):
                cases.append(("zq-equals-w", {"n": n, "l": l, "m": m}))
    rng.shuffle(cases)
    return [{"kind": "case", "identity": name, "params": params} for name, params in cases]


# ---------------------------------------------------------------- genfunc-boxes

# Count strata, sides 8..12 written n <= l <= m, volumes 648..1296: one box
# per stratum, about 0.35, 0.65 and 1.0 CPU seconds each at the seed commit.
_COUNT_STRATA = (
    ((8, 9, 10), (9, 9, 9), (8, 10, 10), (8, 8, 11)),
    ((9, 9, 11), (8, 10, 12), (9, 10, 11), (10, 10, 10), (8, 11, 12)),
    ((10, 11, 11), (9, 11, 12), (10, 10, 12), (9, 12, 12)),
)
# Determinant-form boxes (n, l, m) by cost, about 0.06, 0.11 and 0.32 CPU
# seconds per form: two distinct small boxes, three distinct middle ones and
# two distinct large ones.  The median op of a pass then falls inside the
# eight middle-box and cube ops, and the p75 tail inside the four large-box
# ops and the smallest count op, which cost alike.
_DET_SMALL = ((4, 5, 7), (4, 6, 6), (4, 7, 5))
_DET_MIDDLE = ((6, 3, 5), (5, 7, 3), (6, 4, 3), (5, 6, 4), (6, 5, 2))
_DET_LARGE = ((6, 6, 4), (6, 4, 7), (6, 5, 5))
# Always run: the 5x5x5 cube, whose count is an OEIS A008793 term.
_DET_CUBE = (5, 5, 5)


def genfunc_boxes(seed: int, small: bool = False) -> list[dict]:
    """Three ``qmelon count --what genfunc`` boxes and sixteen det-form ops."""
    rng = random.Random(seed)
    if small:
        counts = [(2, 2, 3)]
        dets = [(2, 3, 2), (2, 2, 2)]
    else:
        counts = [rng.choice(stratum) for stratum in _COUNT_STRATA]
        dets = [*rng.sample(_DET_SMALL, 2), *rng.sample(_DET_MIDDLE, 3),
                *rng.sample(_DET_LARGE, 2), _DET_CUBE]
    ops = [{"kind": "count", "box": list(box)} for box in counts]
    ops += [{"kind": "det", "box": list(box), "form": form}
            for box in dets for form in (1, 2)]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- melon-enum

# Watermelon-suite cells (n, m, k) in four strata of about 0.16, 0.36, 0.55
# and 1.2 CPU seconds in a fresh process at the seed commit (490 to 4116
# watermelons each); enumeration dominates every one of them.  No other
# cell near 4000 watermelons costs within 20% of (3, 4, 0).
_CELL_STRATA = (
    ((2, 7, 0), (3, 4, 1), (4, 2, 1), (4, 3, 2)),
    ((2, 9, 0), (3, 5, 1), (6, 1, 1)),
    ((5, 3, 3), (2, 10, 0), (4, 2, 0)),
    ((3, 4, 0),),
)
# zq-equals-w cells (n, l, m): box enumeration against watermelon enumeration.
_ZQ_CELLS = ((5, 2, 3), (4, 4, 2), (4, 2, 4))
_ROUND_TRIPS = 150
_RENDERS = 96


def random_plane_partition(rng: random.Random, n: int, l: int, m: int) -> list[list[int]]:
    """An l x n matrix in B(n, l, m), weakly decreasing along rows and columns."""
    grid = [[0] * n for _ in range(l)]
    for i in range(l):
        for j in range(n):
            cap = m
            if i:
                cap = min(cap, grid[i - 1][j])
            if j:
                cap = min(cap, grid[i][j - 1])
            grid[i][j] = rng.randint(0, cap)
    return grid


def melon_enum(seed: int, small: bool = False) -> list[dict]:
    """Suite cells, one zq cell, bijection round trips, ascii/svg renders."""
    rng = random.Random(seed)
    if small:
        cells, zq = [(2, 2, 0), (2, 2, 1)], (2, 1, 2)
        trips, renders, sides = 4, 4, (1, 3)
    else:
        cells, zq = [rng.choice(stratum) for stratum in _CELL_STRATA], rng.choice(_ZQ_CELLS)
        trips, renders, sides = _ROUND_TRIPS, _RENDERS, (2, 6)
    ops = [{"kind": "case", "identity": "watermelon-suite",
            "params": {"n": n, "m": m, "k": k}} for n, m, k in cells]
    ops.append({"kind": "case", "identity": "zq-equals-w",
                "params": {"n": zq[0], "l": zq[1], "m": zq[2]}})
    for i in range(trips + renders):
        n = rng.randint(*sides)
        l = rng.randint(1, n)
        m = rng.randint(*sides)
        pp = random_plane_partition(rng, n, l, m)
        if i < trips:
            ops.append({"kind": "roundtrip", "box": [n, l, m], "pp": pp})
        else:
            style = ("ascii", "svg")[i % 2]
            ops.append({"kind": "render", "box": [n, l, m], "pp": pp, "style": style})
    rng.shuffle(ops)
    return ops


GENERATORS = {
    "verify-grid": verify_grid,
    "genfunc-boxes": genfunc_boxes,
    "melon-enum": melon_enum,
}
