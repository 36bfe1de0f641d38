"""Nests of nonintersecting lattice paths and watermelon configurations.

A nest of paths drawn against the vertical lines x = 1, 2, ... is encoded
by a semistandard tableau: row i describes path i, and the number of
north steps path i takes on a given line is a letter count of that row.
A watermelon record holds its interface partition and the two tableaux
of the nests glued there:

* the C tableau, of shape lam with letters up to L: path i starts at
  the staircase point (L - i + 1, L - i) and climbs west to the wall
  x = 1, ending at height lam_i + L - i.  North steps on line j come
  from the letter L - j + 1 in row i, so the area statistic is
  sum (j - 1) * l_j with l_j the total north steps on line j.
* the B tableau, of the box-complement shape with letters up to N: the
  N paths live in a box of height M, and path i leaves the wall at the
  height where the matching C path stopped and climbs east to
  (i, N + M - i).  Row N + 1 - i drives path i and the letter N - j + 1
  gives norths on line j; the area statistic is sum (j - 1) * (M - l_j).

A watermelon with deviation k uses L = N - k active C lines (start
points shifted east by k) and an interface partition lam inside the
M**L box.  Its volume is |lam| plus both area statistics; the empty
interface gives the unique minimal watermelon of volume 0.  Because the
volume splits this way, watermelon_genfunc sums, per interface, q**|lam|
times one tableau series per nest.  The series of every interface come
from two sweeps of the branching rule (schur._tableau_series), one per
nest, on ints packed at q = 2**(8W), so no tableau, no interlacing pair
and no watermelon object is built; enumerate_watermelons yields the
objects one by one.

Column strictness of the tableaux makes each half-nest a family of
pairwise vertex-disjoint staircases.  When the two halves are overlaid
in one picture, a C portion of one path may touch or share an edge with
a B portion of another; that is an artifact of flattening two nests
into one drawing, and the configuration itself is always the pair of
disjoint nests.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, e, log2
from typing import Iterator, Sequence

from .laurent import (_MAX_BIGINT_WORK, LaurentPoly, PolyMatrix, _unpack_poly,
                      det_fraction_free, q_ratio)
from .partitions import (
    Partition,
    check_box,
    check_int,
    check_partition,
    enumerate_in_box,
    pad,
    strip,
    weight,
)
from .schur import _tableau_series, _weyl_dim, gv_determinant, h_determinant
from .tableaux import (
    Tableau,
    enumerate_ssyt,
    first_ssyt_with_counts,
    is_ssyt,
    letter_counts,
    shape_of,
)


def complement_shape(lam: Sequence[int], n: int, m: int) -> Partition:
    """Rotated complement of lam inside the m**n box: parts m - lam_{n+1-i}."""
    full = pad(check_partition(lam), n)
    if full and full[0] > m:
        raise ValueError(f"{tuple(lam)} does not fit in a {m}**{n} box")
    return tuple(m - full[n - 1 - i] for i in range(n))


@dataclass(frozen=True)
class Watermelon:
    """A C-nest glued to a B-nest across a shared interface partition.

    Each nest is one semistandard tableau: c_tableau has the interface
    shape and letters 1..L, b_tableau the box-complement shape and
    letters 1..n.  make_watermelon is the checked constructor.
    """

    n: int
    m: int
    k: int
    interface: Partition
    c_tableau: Tableau
    b_tableau: Tableau

    @property
    def lines(self) -> int:
        """Active C-side lines, L = n - k."""
        return self.n - self.k

    @property
    def volume(self) -> int:
        """|lam| + sum (j - 1) * (l^C_j + M - l^B_j) over the lines j = 1..n."""
        return weight(self.interface) + sum(
            j * (c + self.m - b)
            for j, (c, b) in enumerate(zip(self.c_steps(), self.b_steps())))

    def c_steps(self) -> tuple[int, ...]:
        """C-side step counts on lines 1..n; the last k are forced to 0."""
        return letter_counts(self.c_tableau, self.lines)[::-1] + (0,) * self.k

    def b_steps(self) -> tuple[int, ...]:
        """B-side north steps on lines 1..n: l_j counts the letter n - j + 1."""
        return letter_counts(self.b_tableau, self.n)[::-1]

    def to_dict(self) -> dict:
        return {
            "N": self.n,
            "M": self.m,
            "k": self.k,
            "lambda": list(pad(self.interface, self.lines)),
            "c_steps": list(self.c_steps()),
            "b_steps": list(self.b_steps()),
            "volume": self.volume,
        }


def make_watermelon(n: int, m: int, k: int, interface: Sequence[int],
                    c_tab: Tableau, b_tab: Tableau) -> Watermelon:
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    lam = strip(check_partition(interface))
    lines = n - k
    if len(lam) > lines or (lam and lam[0] > m):
        raise ValueError(f"interface {lam} does not fit in the {m}**{lines} box")
    if strip(shape_of(c_tab)) != lam:
        raise ValueError("C tableau shape does not match the interface")
    if strip(shape_of(b_tab)) != strip(complement_shape(lam, n, m)):
        raise ValueError("B tableau shape must be the box complement of the interface")
    if not is_ssyt(c_tab, lines):
        raise ValueError("C tableau is not semistandard within the line count")
    if not is_ssyt(b_tab, n):
        raise ValueError("B tableau is not semistandard within the path count")
    return Watermelon(n, m, k, lam, c_tab, b_tab)


def enumerate_watermelons(n: int, m: int, k: int = 0) -> Iterator[Watermelon]:
    """All watermelons with deviation k, grouped by interface partition.

    Interfaces run in ascending lexicographic box order; for each interface
    the C tableaux vary first, then the B tableaux, both in row-major
    lexicographic order.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    lines = n - k
    for lam in enumerate_in_box(lines, m):
        lam_s = strip(lam)
        comp = strip(complement_shape(lam_s, n, m))
        for c_tab in enumerate_ssyt(lam_s, lines):
            for b_tab in enumerate_ssyt(comp, n):
                yield make_watermelon(n, m, k, lam_s, c_tab, b_tab)


def watermelon_genfunc(n: int, m: int, k: int = 0) -> LaurentPoly:
    """Volume generating function, one pair of tableau series per interface.

    A watermelon is a C-nest and a B-nest glued at an interface lam in the
    m**L box, L = n - k, and its volume is |lam| plus one statistic of each
    nest, so the sum over all watermelons factorises per interface.  In the
    C-nest a cell of letter v is a north step on line j = L - v + 1, so the
    statistic sum (j - 1) * l_j adds L - v per cell.  In the B-nest a cell
    of letter v lies on line j = n - v + 1, and the statistic
    sum (j - 1) * (m - l_j) = m * n(n-1)/2 - sum (j - 1) * l_j loses n - v
    per cell.  Hence

        sum over lam of q**|lam| * C_lam(q) * B_lam(q), shifted by m * n(n-1)/2,

    where C_lam = tableau_sum(lam, (L-1, ..., 0)) and B_lam is tableau_sum of
    the box complement of lam at (1-n, ..., 0).  One call of
    ``schur._tableau_series`` gives every C_lam, the shapes between 0 and
    m**L, and one every B_lam, the shapes between (m**k) and m**n; each
    level of a call is swept once for all the interfaces, and no tableau is
    enumerated.  The sum is taken on the packed ints and unpacked once.
    Every coefficient is at most the number of watermelons, the sum over
    lam of S_lam(1**L) S_lam^c(1**n), each factor Weyl's product
    (``schur._weyl_dim``), so the width that holds it is proven a priori.
    """
    n, m, k = check_int(n, "n"), check_int(m, "m"), check_int(k, "k")
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    lines = n - k
    if not m:
        return LaurentPoly.one()  # the empty box holds only the empty interface
    # every coefficient of the sum is at most its number of watermelons, so
    # this width makes the digits the coefficients; the box complement of
    # lam has as many tableaux in n letters as lam (GL_n duality)
    bound = sum(_weyl_dim(lam, lines) * _weyl_dim(lam, n) for lam in enumerate_in_box(lines, m))
    width = bound.bit_length() // 8 + 1
    c_series = _tableau_series(range(lines), (), (m,) * lines, width)
    b_series = _tableau_series(range(1 - n, 1), (m,) * k, (m,) * n, width)
    unit = 8 * width
    top = (m,) * k
    total = 0
    for lam, c_side in c_series.items():
        comp = top + tuple(m - part for part in reversed(lam))
        total += c_side * b_series[comp] << unit * n * sum(lam)
    # B_mu is packed from q**((1 - n)|mu|), |mu| = n m - |lam|, and C_lam from
    # q**0, so the term of lam sits n |lam| digits above q**((1 - n) n m)
    low = (1 - n) * n * m + m * n * (n - 1) // 2
    return _unpack_poly(total, low, total.bit_length() // unit + 1, width)


def closed_genfunc(n: int, l: int, m: int) -> LaurentPoly:
    """Box product form: prod over i<=n, j<=m of (1 - q^(l+i+j-1)) / (1 - q^(i+j-1))."""
    n, l, m = check_box(n, l, m)
    hooks = [i + j - 1 for i in range(1, n + 1) for j in range(1, m + 1)]
    return q_ratio((l + h for h in hooks), hooks)


def count_deviation(n: int, l: int, m: int) -> int:
    """Number of watermelons, the plane partitions in the n x l x m box.

    ``planepartitions.rect_tableau`` maps the box onto the SSYT of shape l**n
    in n + m letters, so this is Weyl's product ``schur._weyl_dim``, exact by
    its own check and not cached, on the sides sorted so that its C(n, 2)
    pairs are fewest.  The count has at most s = n l log2(e (l + m) / l) / 8
    bytes, and computing and printing it takes up to 0.6 ns per s**2 (CPython
    3.11), so a box charged 2 s**2 steps past ``laurent._MAX_BIGINT_WORK``
    raises ValueError first.  No identity may size its other side from it.
    """
    n, l, m = sorted(check_box(n, l, m))
    size = int(n * l * (log2(l + m) - log2(l) + log2(e))) // 8 + 1 if n else 1
    if 2 * size * size > _MAX_BIGINT_WORK:
        raise ValueError(f"the count of the box {n}x{l}x{m} has up to {size} bytes, "
                         f"{2 * size * size} steps, over the limit of {_MAX_BIGINT_WORK}")
    return _weyl_dim.__wrapped__((l,) * n, n + m)


def volume_offset(n: int, l: int) -> int:
    """Exponent gap between the horizontal-reading statistic and the volume.

    Equals l * n * (n - 1) / 2; independent of the box height.
    """
    return l * n * (n - 1) // 2


def genfunc_det_forms(n: int, l: int, m: int, form: int = 1) -> LaurentPoly:
    """Volume generating function as a rectangle-shape Schur determinant.

    The watermelon function is the principal specialization of the Schur
    function of the rectangle l**n in n + m variables (Jacobi-Trudi), so
    form 1 is schur.gv_determinant (twisted Gaussian binomials) and form 2
    is schur.h_determinant (complete homogeneous sums) at that shape.  The
    result is divided by q**volume_offset(n, l) to put the minimal
    watermelon at volume 0.  Equals closed_genfunc(n, l, m).
    """
    n, l, m = check_box(n, l, m)
    routes = {1: gv_determinant, 2: h_determinant}
    if check_int(form, "form") not in routes:
        raise ValueError("form must be 1 or 2")
    return routes[form]((l,) * n, n + m).shift(-volume_offset(n, l))


def gv_count(lam: Sequence[int], n: int) -> int:
    """Nonintersecting nest count: det(binom(lam_i + n - i, n - j)).

    Equals the number of C-nests of shape lam on n lines, that is the
    number of semistandard tableaux of shape lam with entries at most n.
    """
    full = pad(check_partition(lam), n)
    rows = [[comb(full[i - 1] + n - i, n - j) for j in range(1, n + 1)]
            for i in range(1, n + 1)]
    return det_fraction_free(PolyMatrix(rows)).coeff(0)


# ---- geometric reconstruction (for rendering and the test-only validator) ----

Point = tuple[int, int]


def wall_heights(w: Watermelon) -> tuple[int, ...]:
    """Height at which path i meets the wall x = 1: interface_i + n - i."""
    lam = pad(w.interface, w.n)
    return tuple(lam[i - 1] + w.n - i for i in range(1, w.n + 1))


def c_phase_points(w: Watermelon) -> list[list[Point]]:
    """Vertex lists of the west-climbing phase, path i from its start to the wall.

    Path i starts at (n - i + 1 + k, n - i).  A letter v in row i of the
    C tableau is a north step on line n + 1 - v - k; letters populate the
    lines 1..L only, the k easternmost lines carry no steps.
    """
    n, k = w.n, w.k
    rows = list(w.c_tableau)
    heights = wall_heights(w)
    out = []
    for i in range(1, n + 1):
        row = rows[i - 1] if i - 1 < len(rows) else ()
        norths = [0] * (n + k + 1)
        for v in row:
            norths[n + 1 - v - k] += 1
        x, y = n - i + 1 + k, n - i
        pts: list[Point] = [(x, y)]
        for line in range(x, 0, -1):
            for _ in range(norths[line]):
                y += 1
                pts.append((x, y))
            if line > 1:
                x -= 1
                pts.append((x, y))
        assert (x, y) == (1, heights[i - 1])
        out.append(pts)
    return out


def b_phase_points(w: Watermelon) -> list[list[Point]]:
    """Vertex lists of the east-climbing phase, path i from the wall to (i, n+m-i).

    Path i is driven by row n + 1 - i of the B tableau; a letter v there
    is a north step on line n + 1 - v.
    """
    n, m = w.n, w.m
    rows = list(w.b_tableau)
    heights = wall_heights(w)
    out = []
    for i in range(1, n + 1):
        row = rows[n - i] if n - i < len(rows) else ()
        norths = [0] * (n + 1)
        for v in row:
            norths[n + 1 - v] += 1
        x, y = 1, heights[i - 1]
        pts: list[Point] = [(x, y)]
        for line in range(1, i + 1):
            for _ in range(norths[line]):
                y += 1
                pts.append((x, y))
            if line < i:
                x += 1
                pts.append((x, y))
        assert (x, y) == (i, n + m - i)
        out.append(pts)
    return out


def watermelon_from_dict(data: dict) -> Watermelon:
    """Rebuild a watermelon from its JSON form, choosing canonical tableaux.

    The step-count vectors pin the letter multiset of each tableau but not
    the full filling; the lexicographically first tableau realizing the
    counts is used.  The volume depends on the counts alone, so it agrees
    across realizations; a stored volume field is checked.
    """
    n, m, k = (check_int(data[key], key) for key in ("N", "M", "k"))
    lam = strip(check_partition(data["lambda"]))
    lines = n - k
    c_steps = tuple(check_int(v, "c_steps entry") for v in data["c_steps"])
    b_steps = tuple(check_int(v, "b_steps entry") for v in data["b_steps"])
    if len(c_steps) != n or len(b_steps) != n:
        raise ValueError("step vectors must have length N")
    if any(c_steps[lines:]):
        raise ValueError(f"the last {k} C-side step counts must be 0")
    c_counts = tuple(c_steps[lines - v] for v in range(1, lines + 1))
    b_counts = tuple(b_steps[n - v] for v in range(1, n + 1))
    c_tab = first_ssyt_with_counts(lam, c_counts)
    if c_tab is None:
        raise ValueError("C step counts are not realizable for the interface shape")
    comp = strip(complement_shape(lam, n, m))
    b_tab = first_ssyt_with_counts(comp, b_counts)
    if b_tab is None:
        raise ValueError("B step counts are not realizable for the complement shape")
    w = make_watermelon(n, m, k, lam, c_tab, b_tab)
    if "volume" in data and check_int(data["volume"], "volume") != w.volume:
        raise ValueError(
            f"stored volume {data['volume']} does not match computed {w.volume}")
    return w
