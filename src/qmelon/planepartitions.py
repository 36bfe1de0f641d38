"""Boxed plane partitions and their bijection with watermelon configurations.

A plane partition here is a rectangular matrix of nonnegative integers,
weakly decreasing along every row and down every column.  The box
B(n, l, m) holds matrices with l rows, n columns, and parts at most m.

The bijection with watermelons (l <= n) counts parts along the diagonals
of the matrix pp, rows i and columns j counted from 0, parts outside it
read as 0.  The slices eps_t = (pp[t][0], pp[t + 1][1], ...) on and below
the main diagonal shrink from eps_0 to eps_l = () and interlace, so giving
the cells of eps_(t-1) / eps_t the letter l + 1 - t makes a column-strict
tableau, the watermelon's C tableau.  Cell c of row r lies in eps_t
exactly when pp[r + t][r] > c, hence

    C[r][c] = l + 1 - #{i >= r : pp[i][r] > c}     for c < pp[r][r],

and back, pp[i][j] = #{c : C[j][c] <= l - i + j} for i > j.  The slices
on and above the diagonal make a tableau U with letters up to n in the
same way, and the B tableau is its complement in the m**n box, letter by
letter: the cells of B with letters at most s fill m - U_s[s - 1 - i]
cells of row i, where U_s[r] = pp[r][r + n - s] counts the cells of row r
of U with letters at most s.  So row i of B holds
m - pp[s - 1 - i][n - 1 - i] letters at most s, hence

    B[i][c] = i + 1 + #{j : pp[j][n - 1 - i] >= m - c}
                                    for c < m - pp[n - 1 - i][n - 1 - i],

and back, pp[i][j] = m - #{c : B[n - 1 - j][c] <= n + i - j} for i <= j.
Both maps read these counts directly.  Summing l + 1 - C[r][c] over the
cells gives the parts on and below the diagonal, and likewise for U above
it, so |pi| = (n + l + 1)|shape| - entries(U) - entries(C) and the
correspondence preserves volume cell for cell.
"""

from __future__ import annotations

from math import comb
from typing import Iterator, Sequence

from .laurent import _MAX_BIGINT_WORK, LaurentPoly, _unpack_poly
from .partitions import Partition, check_box, check_int, enumerate_in_box, strip
from .paths import (
    Watermelon,
    closed_genfunc,  # noqa: F401  re-exported: MacMahon's product for the box
    make_watermelon,
)
from .tableaux import Tableau, letter_counts

PlanePartition = tuple[tuple[int, ...], ...]


class BoxMismatch(ValueError):
    """A plane partition does not fit the stated box."""


def check_plane_partition(parts: Sequence[Sequence[int]]) -> PlanePartition:
    """Validate and freeze a rectangular weakly decreasing matrix."""
    pp = tuple(tuple(row) for row in parts)
    widths = {len(row) for row in pp}
    if len(widths) > 1:
        raise ValueError("rows must all have the same length")
    for i, row in enumerate(pp):
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"part at ({i + 1}, {j + 1}) is not a nonnegative integer")
            if j > 0 and row[j - 1] < v:
                raise ValueError(f"row {i + 1} increases at column {j + 1}")
            if i > 0 and pp[i - 1][j] < v:
                raise ValueError(f"column {j + 1} increases at row {i + 1}")
    return pp


def volume(pp: Sequence[Sequence[int]]) -> int:
    return sum(sum(row) for row in pp)


def in_box(pp: PlanePartition, n: int, l: int, m: int) -> bool:
    if len(pp) > l or any(len(row) > n for row in pp):
        return False
    return all(v <= m for row in pp for v in row)


def _require_box(pp: Sequence[Sequence[int]], n: int, l: int, m: int) -> PlanePartition:
    """Check the matrix and pad it to the full l x n grid of the box."""
    checked = check_plane_partition(pp)
    if not in_box(checked, n, l, m):
        raise BoxMismatch(f"plane partition does not fit in B({n}, {l}, {m})")
    width = len(checked[0]) if checked else 0
    rows = [row + (0,) * (n - width) for row in checked]
    rows += [(0,) * n] * (l - len(rows))
    return tuple(rows)


def enumerate_box(n: int, l: int, m: int) -> Iterator[PlanePartition]:
    """All plane partitions in B(n, l, m) as full l x n matrices.

    Ascending lexicographic order on the row-major flattened matrix; the
    all-zero matrix comes first and the all-m matrix last.
    """
    if n < 0 or l < 0 or m < 0:
        raise ValueError("box dimensions must be nonnegative")
    if n == 0 or l == 0:
        yield tuple(() for _ in range(l))
        return
    # the next matrix raises the last part below its bound, the least of m
    # and of the parts left of it and above it, and clears the parts after it
    parts = [0] * (n * l)
    while True:
        yield tuple(tuple(parts[i:i + n]) for i in range(0, n * l, n))
        pos = n * l - 1
        while pos >= 0 and parts[pos] == min(m, parts[pos - 1] if pos % n else m,
                                             parts[pos - n] if pos >= n else m):
            pos -= 1
        if pos < 0:
            return
        parts[pos] += 1
        parts[pos + 1:] = [0] * (n * l - 1 - pos)


def _count_text(x: int) -> str:
    """x in decimal, or past 1000 bits a power of ten below it: log10(2) > 0.30102."""
    if x.bit_length() <= 1000:
        return str(x)
    return f"more than 10**{(x.bit_length() - 1) * 30102 // 100000}"


def zq(n: int, l: int, m: int) -> LaurentPoly:
    """Volume generating function of the box, by a transfer matrix over columns.

    The columns of a plane partition are partitions in the m**l box, each
    contained in the one before it, and its volume is the sum of their
    sizes.  So with f_1(nu) = q**|nu| and

        f_{j+1}(nu) = q**|nu| * sum over mu containing nu of f_j(mu),

    the box sums to sum over nu of f_n(nu) (Stanley, Enumerative
    Combinatorics 1, 4.7).  Permuting the three axes of the stack of unit
    cubes is a volume-preserving bijection between boxes, so the two
    shortest sides span the states and the longest counts the columns.
    A polynomial is packed into one Python int, a digit of whole bytes
    per coefficient, so q**|nu| is a shift.
    Equals MacMahon's product ``closed_genfunc(n, l, m)`` exactly.
    The C(rows + height, rows) states hold ``slots`` digits of ``size``
    bytes; each of the columns - 1 passes adds at most rows int pairs per
    state and shifts every state.  So (columns - 1) * (rows + 1) * slots *
    size bounds the bytes the passes touch, and a box that charges more
    than ``laurent._MAX_BIGINT_WORK`` (at one byte per digit, when that
    alone passes it) is refused with a ValueError before any state is
    built.  When 2**rows, a lower bound on the states, already gives more
    than 1000 bits of slots, the charge is taken from that bound, which the
    message prints as a power of ten below it.  CPython 3.11 takes 0.1 to
    0.5 ns per unit: 8x8x8 charges 5.0 * 10**9 in 1.6 to 2.3 s and
    (1, 1, 20000) 3.2 * 10**9 in 0.3 to 0.5 s; 9x9x9 would charge
    4.5 * 10**10 for 16.5 s and 1.2 GB.  Peak
    memory, about slots * size bytes, is at most the charge over
    (columns - 1) * (rows + 1).
    """
    n, l, m = check_box(n, l, m)
    rows, height, columns = sorted((n, l, m))
    digits = rows * height * columns + 1
    # rows <= height, so C(rows + height, rows) >= 2**rows; a box refused
    # on that bound alone is refused without the binomial
    if (digits << rows).bit_length() > 1000:
        count = 1 << rows
    else:
        count = comb(rows + height, rows)
    slots = count * digits
    work = (columns - 1) * (rows + 1) * slots
    if work <= _MAX_BIGINT_WORK:
        # A chain of columns is fixed by its multiset of states, so no
        # coefficient exceeds the multiset count, which is below
        # 2**(8*size - 1): a signed digit of `size` bytes holds it.
        size = comb(count + columns - 1, columns).bit_length() // 8 + 1
        work *= size
    if work > _MAX_BIGINT_WORK:
        raise ValueError(f"zq of the box {n}x{l}x{m} needs {_count_text(work)} byte steps, "
                         f"{columns - 1} passes over {_count_text(slots)} state slots; "
                         f"the limit is {_MAX_BIGINT_WORK}")
    states = list(enumerate_in_box(rows, height))
    weights = [sum(nu) for nu in states]
    steps = _containment_steps(states, weights, height)
    width = 8 * size
    f = [1 << (w * width) for w in weights]
    for _ in range(columns - 1):
        for s, t in steps:
            f[s] += f[t]
        f = [g << (w * width) for g, w in zip(f, weights)]
    return _unpack_poly(sum(f), 0, digits, size)


def _containment_steps(states: list[Partition], weights: list[int],
                       height: int) -> list[tuple[int, int]]:
    """Index pairs (s, t) such that running g[s] += g[t] in order turns f into
    g(nu) = sum of f(mu) over the states mu containing nu.

    ``states`` are all partitions in the height**rows box, padded to rows
    parts, and ``weights`` their sizes.  The sum runs one coordinate at a
    time.  After coordinates 1..i, g(v) sums f(mu) over the partitions mu
    with mu_j >= v_j for j <= i and mu_j = v_j beyond.  For a vector v
    that is no partition, that set is the one of the partition v' with
    v'_j = max(v_j, ..., v_{i+1}).  So coordinate i needs only
    g(nu) += g(nu raised at i), where raising sets the i-th part to
    nu_i + 1 and lifts the parts before it to at least that.  Summing over
    partitions alone without the lift loses chains such as
    (1, 1) < (2, 1) < (2, 2).  Raising grows the size, so each coordinate
    runs from the largest state down.
    """
    index = {nu: s for s, nu in enumerate(states)}
    order = sorted(range(len(states)), key=weights.__getitem__, reverse=True)
    steps = []
    for i in range(len(states[0])):
        for s in order:
            nu = states[s]
            x = nu[i] + 1
            if x <= height:
                steps.append((s, index[tuple(max(v, x) for v in nu[:i]) + (x,) + nu[i + 1:]]))
    return steps


def gradient_bijection(pp: Sequence[Sequence[int]], n: int, l: int, m: int) -> Watermelon:
    """Watermelon of a boxed plane partition, volume preserved exactly.

    Needs l <= n; the deviation of the result is k = n - l.  The tableaux
    are the counts C[r][c] and B[i][c] of the module docstring.
    """
    if l > n:
        raise ValueError("the box must have at least as many columns as rows")
    full = _require_box(pp, n, l, m)
    diag = [full[r][r] for r in range(l)] + [0] * (n - l)
    c_tab = tuple(
        tuple(l + 1 - sum(full[i][r] > c for i in range(r, l)) for c in range(diag[r]))
        for r in range(l) if diag[r])
    b_tab = tuple(
        tuple(i + 1 + sum(full[j][n - 1 - i] >= m - c for j in range(l))
              for c in range(m - diag[n - 1 - i]))
        for i in range(n) if diag[n - 1 - i] < m)
    w = make_watermelon(n, m, n - l, strip(tuple(diag[:l])), c_tab, b_tab)
    assert w.volume == volume(full)
    return w


def gradient_bijection_inverse(w: Watermelon) -> PlanePartition:
    """Boxed plane partition of a watermelon; inverse of gradient_bijection.

    Each part counts the small letters of one tableau row, as in the
    module docstring.
    """
    n, l, m = w.n, w.lines, w.m
    c_rows = w.c_tableau + ((),) * (l - len(w.c_tableau))
    b_rows = w.b_tableau + ((),) * (n - len(w.b_tableau))
    pp = tuple(
        tuple(sum(v <= l - i + j for v in c_rows[j]) if i > j
              else m - sum(v <= n + i - j for v in b_rows[n - 1 - j])
              for j in range(n))
        for i in range(l))
    assert volume(pp) == w.volume
    return pp


def rect_tableau(pp: Sequence[Sequence[int]], n: int, l: int, m: int) -> Tableau:
    """Column-strict rectangle encoding the box: T[i][c] = m + i - pp[c][i].

    Shape is n rows of length l, entries run from 1 to n + m; the map is a
    bijection from B(n, l, m) onto tableaux of that rectangle.
    """
    full = _require_box(pp, n, l, m)
    return tuple(
        tuple(m + i - full[c - 1][i - 1] for c in range(1, l + 1))
        for i in range(1, n + 1)
    )


def horizontal_steps(w: Watermelon) -> tuple[int, ...]:
    """East steps m_1..m_{n+m} of the level reading of the watermelon.

    m_j is the count of the letter n + m + 1 - j in the rectangle tableau
    of the matching plane partition.  The statistic sum (j-1) m_j exceeds
    the watermelon volume by the constant l * n * (n - 1) / 2.
    """
    n, m = w.n, w.m
    pp = gradient_bijection_inverse(w)
    t = rect_tableau(pp, n, w.lines, m)
    counts = letter_counts(t, n + m)
    return tuple(counts[n + m - j] for j in range(1, n + m + 1))


def pp_to_dict(pp: Sequence[Sequence[int]], n: int, l: int, m: int) -> dict:
    full = _require_box(pp, n, l, m)
    return {
        "N": n,
        "L": l,
        "M": m,
        "parts": [list(row) for row in full],
        "volume": volume(full),
    }


def pp_from_dict(data: dict) -> tuple[PlanePartition, int, int, int]:
    """Read {N, L, M, parts[, volume]}; returns (matrix, n, l, m)."""
    n, l, m = (check_int(data[key], key) for key in ("N", "L", "M"))
    full = _require_box(data["parts"], n, l, m)
    if "volume" in data and check_int(data["volume"], "volume") != volume(full):
        raise ValueError(
            f"stored volume {data['volume']} does not match computed {volume(full)}")
    return full, n, l, m
