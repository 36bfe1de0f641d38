"""Semistandard Young tableaux: validation, letter counts and enumeration.

A tableau is a tuple of row tuples, weakly increasing along rows and
strictly increasing down columns; its shape is the tuple of row lengths.
enumerate_ssyt lists every tableau of a shape with bounded entries, and
first_ssyt_with_counts finds the first one with a given letter multiset.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterator, Sequence

from .partitions import Partition, check_partition, strip

Tableau = tuple[tuple[int, ...], ...]


def shape_of(t: Tableau) -> Partition:
    return tuple(len(row) for row in t)


def letter_counts(t: Tableau, max_entry: int) -> tuple[int, ...]:
    """Occurrences of each letter 1..max_entry, as a tuple indexed by letter-1."""
    counts = [0] * max_entry
    for row in t:
        for v in row:
            counts[v - 1] += 1
    return tuple(counts)


def is_ssyt(t: Tableau, max_entry: int) -> bool:
    shape = shape_of(t)
    if any(a < b for a, b in zip(shape, shape[1:])):
        return False
    for r, row in enumerate(t):
        for c, v in enumerate(row):
            if not 1 <= v <= max_entry:
                return False
            if c > 0 and row[c - 1] > v:
                return False
            if r > 0 and t[r - 1][c] >= v:
                return False
    return True


def _cells(sh: Partition, max_entry: int) -> list[tuple[int, int, int]]:
    """Cells (r, c, stop) of sh in row-major order, stop - 1 the largest entry of the cell.

    A cell with d cells below it in its column holds at most max_entry - d,
    since the column strictly increases down to an entry of at most max_entry.
    """
    cells = []
    for r, width in enumerate(sh):
        below = len(sh) - 1 - r
        for c in range(width):
            # rows r + 1 .. r + below are the ones that reach column c
            while sh[r + below] <= c:
                below -= 1
            cells.append((r, c, max_entry + 1 - below))
    return cells


def enumerate_ssyt(shape: Sequence[int], max_entry: int) -> Iterator[Tableau]:
    """All SSYT of the given shape with entries <= max_entry.

    Cells are filled row-major trying smaller entries first, so tableaux
    appear in lexicographic order of the row-reading word.  A shape with
    more rows than max_entry yields nothing; the empty shape yields the
    single empty tableau.

    Cell (r, c) takes values from the larger of its left neighbour and one
    more than the cell above, up to u(r, c) = max_entry - (h_c - 1 - r),
    h_c the length of column c; no tableau has a larger entry there.  The
    search is output-sensitive: every partial filling it makes extends to
    a tableau, so each node lies on the path to a tableau it yields, and
    it visits at most 1 + count * cells nodes.  Proof: u increases by one
    down a column and weakly along a row (h_c does not grow with c), and
    1 <= u <= max_entry, since h_c <= len(shape) <= max_entry; so giving
    every empty cell its u completes the filling to a tableau.  The cells
    left of or above an empty cell are filled first in row-major order,
    and a filled neighbour x of an empty cell y, to its left or above it,
    holds at most u(x), which is at most u(y) to its left and below u(y)
    above it.  The same argument shows that each cell's range is nonempty.
    """
    sh = strip(check_partition(shape))
    if not sh:
        yield ()
        return
    if len(sh) > max_entry:
        return
    rows = [[0] * width for width in sh]
    cells = _cells(sh, max_entry)

    def fill(idx: int) -> Iterator[Tableau]:
        if idx == len(cells):
            yield tuple(tuple(row) for row in rows)
            return
        r, c, stop = cells[idx]
        lo = rows[r][c - 1] if c > 0 else 1
        if r > 0:
            lo = max(lo, rows[r - 1][c] + 1)
        for v in range(lo, stop):
            rows[r][c] = v
            yield from fill(idx + 1)
        rows[r][c] = 0

    yield from fill(0)


def count_ssyt(shape: Sequence[int], max_entry: int) -> int:
    return sum(1 for _ in enumerate_ssyt(shape, max_entry))


def first_ssyt_with_counts(shape: Sequence[int], counts: Sequence[int]) -> Tableau | None:
    """Lexicographically first SSYT of `shape` using letter v exactly counts[v-1] times.

    Returns None if no such tableau exists.  One exists exactly when the
    counts, sorted in decreasing order, are dominated by the shape, that
    is when the Kostka number is positive; counts with a negative entry
    never are.  Other counts are refused before the search, which could
    otherwise backtrack for a time exponential in the number of rows.

    The search is that of ``enumerate_ssyt``, with the same upper bound on
    each cell, and it skips a letter with no occurrences left.  The bound
    drops only values that no tableau of the shape has in that cell, so
    the result is the same; every partial filling still extends to a
    tableau of the shape, though not always to one with these counts.
    """
    sh = strip(check_partition(shape))
    if sum(counts) != sum(sh):
        return None
    if any(c > s for c, s in zip(accumulate(sorted(counts, reverse=True)), accumulate(sh))):
        return None
    if not sh:
        return ()
    left = list(counts)
    rows = [[0] * width for width in sh]
    cells = _cells(sh, len(counts))

    def fill(idx: int) -> Tableau | None:
        if idx == len(cells):
            return tuple(tuple(row) for row in rows)
        r, c, stop = cells[idx]
        lo = rows[r][c - 1] if c > 0 else 1
        if r > 0:
            lo = max(lo, rows[r - 1][c] + 1)
        for v in range(lo, stop):
            if left[v - 1] == 0:
                continue
            left[v - 1] -= 1
            rows[r][c] = v
            found = fill(idx + 1)
            if found is not None:
                return found
            rows[r][c] = 0
            left[v - 1] += 1
        return None

    return fill(0)

