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
from .schur import _weyl_dim

Tableau = tuple[tuple[int, ...], ...]

# The most tableau-cells count_ssyt may enumerate, tableaux times cells.
# CPython 3.11 takes 0.16 to 0.21 us a tableau-cell: (5, 4, 3, 2, 1) in 7
# letters charges 7.1 * 10**6 for 1.25 s, (6, 4, 2) in 8 letters 1.75 * 10**7
# for 2.75 s, and (12**4 6**4) in 8 letters, 6.7 * 10**8, is refused.
_MAX_SSYT_CELLS = 2 * 10**7


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


def _search(sh: Partition, counts: Sequence[int]) -> Iterator[Tableau]:
    """Every tableau of the nonempty shape sh in len(counts) letters, in the order of
    ``enumerate_ssyt``'s search, that uses each letter v at most counts[v-1] times."""
    left = [0, *counts]  # indexed by the letter
    rows = [[0] * width for width in sh]
    cells = _cells(sh, len(counts))
    # a depth-first search on an explicit stack: cells[:idx] are filled,
    # and cell idx tries the letters from v on, v = 0 for its least one
    idx, v = 0, 0
    while idx >= 0:
        r, c, stop = cells[idx]
        row = rows[r]
        if not v:
            v = row[c - 1] if c > 0 else 1
            if r > 0:
                v = max(v, rows[r - 1][c] + 1)
        while v < stop and not left[v]:
            v += 1
        if v >= stop:
            # every letter of cell idx is tried: back to the cell before it
            idx -= 1
            if idx >= 0:
                r, c, _ = cells[idx]
                v = rows[r][c]
                left[v] += 1
                v += 1
            continue
        left[v] -= 1
        row[c] = v
        if idx + 1 < len(cells):
            idx, v = idx + 1, 0
        else:
            yield tuple(map(tuple, rows))
            left[v] += 1
            v += 1


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
    # a letter fills at most every cell
    yield from _search(sh, [sum(sh)] * max_entry)


def count_ssyt(shape: Sequence[int], max_entry: int) -> int:
    """Number of SSYT of the shape with entries <= max_entry, by enumeration.

    A count known from Weyl's product (``schur._weyl_dim``) to make more
    than ``_MAX_SSYT_CELLS`` tableau-cells raises ValueError before any.
    """
    sh = strip(check_partition(shape))
    if len(sh) <= max_entry:
        count = _weyl_dim(sh, max_entry)
        if count * sum(sh) > _MAX_SSYT_CELLS:
            raise ValueError(f"shape {sh} in {max_entry} letters has {count} tableaux of "
                             f"{sum(sh)} cells, {count * sum(sh)} tableau-cells over the "
                             f"limit of {_MAX_SSYT_CELLS}")
    return sum(1 for _ in enumerate_ssyt(sh, max_entry))


def first_ssyt_with_counts(shape: Sequence[int], counts: Sequence[int]) -> Tableau | None:
    """Lexicographically first SSYT of `shape` using letter v exactly counts[v-1] times.

    Returns None if no such tableau exists.  One exists exactly when the
    counts, sorted in decreasing order, are dominated by the shape, that
    is when the Kostka number is positive; counts with a negative entry
    never are.  Other counts are refused before the search, which could
    otherwise backtrack for a time exponential in the number of rows.

    It takes the first tableau of ``enumerate_ssyt``'s search that uses
    no letter more often than its count, so each exactly its count.  Every
    partial filling still extends to a tableau of the shape, though not
    always to one with these counts.
    """
    sh = strip(check_partition(shape))
    if sum(counts) != sum(sh):
        return None
    if any(c > s for c, s in zip(accumulate(sorted(counts, reverse=True)), accumulate(sh))):
        return None
    if not sh:
        return ()
    return next(_search(sh, counts), None)
