"""Semistandard Young tableaux: enumeration, weights and chain encodings.

A tableau is a tuple of row tuples, weakly increasing along rows and
strictly increasing down columns.  A tableau with entries bounded by m is
equivalent to an ascending chain of partitions

    () = shape(entries <= 0)  subset of ... subset of  shape(entries <= m)

in which consecutive shapes differ by a horizontal strip.  Several
constructions here (diagonal slices of plane partitions, box complements)
are easiest to state on the chain and are implemented that way.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .partitions import Partition, check_partition, pad, strip

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


def enumerate_ssyt(shape: Sequence[int], max_entry: int) -> Iterator[Tableau]:
    """All SSYT of the given shape with entries <= max_entry.

    Cells are filled row-major trying smaller entries first, so tableaux
    appear in lexicographic order of the row-reading word.  A shape with
    more rows than max_entry yields nothing; the empty shape yields the
    single empty tableau.
    """
    sh = strip(check_partition(shape))
    if not sh:
        yield ()
        return
    if len(sh) > max_entry:
        return
    rows = [[0] * width for width in sh]
    cells = [(r, c) for r in range(len(sh)) for c in range(sh[r])]

    def fill(idx: int) -> Iterator[Tableau]:
        if idx == len(cells):
            yield tuple(tuple(row) for row in rows)
            return
        r, c = cells[idx]
        lo = rows[r][c - 1] if c > 0 else 1
        if r > 0:
            lo = max(lo, rows[r - 1][c] + 1)
        for v in range(lo, max_entry + 1):
            rows[r][c] = v
            yield from fill(idx + 1)
        rows[r][c] = 0

    yield from fill(0)


def count_ssyt(shape: Sequence[int], max_entry: int) -> int:
    return sum(1 for _ in enumerate_ssyt(shape, max_entry))


def first_ssyt_with_counts(shape: Sequence[int], counts: Sequence[int]) -> Tableau | None:
    """Lexicographically first SSYT of `shape` using letter v exactly counts[v-1] times.

    Returns None if no such tableau exists.
    """
    sh = strip(check_partition(shape))
    if sum(counts) != sum(sh):
        return None
    if not sh:
        return ()
    max_entry = len(counts)
    left = list(counts)
    rows = [[0] * width for width in sh]
    cells = [(r, c) for r in range(len(sh)) for c in range(sh[r])]

    def fill(idx: int) -> Tableau | None:
        if idx == len(cells):
            return tuple(tuple(row) for row in rows)
        r, c = cells[idx]
        lo = rows[r][c - 1] if c > 0 else 1
        if r > 0:
            lo = max(lo, rows[r - 1][c] + 1)
        for v in range(lo, max_entry + 1):
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


# ---- chain encodings ----


def ascending_chain(t: Tableau, max_entry: int) -> list[Partition]:
    """Shapes of entries <= s for s = 0..max_entry (stripped partitions)."""
    chain = [()]
    for s in range(1, max_entry + 1):
        shape = []
        for row in t:
            width = sum(1 for v in row if v <= s)
            shape.append(width)
        chain.append(strip(tuple(shape)))
    return chain


def _is_horizontal_strip(inner: Partition, outer: Partition) -> bool:
    n = max(len(inner), len(outer))
    a = pad(inner, n + 1)
    b = pad(outer, n + 1)
    for i in range(n):
        if b[i] < a[i]:
            return False
        if i + 1 <= n and b[i + 1] > a[i]:
            return False
    return True


def from_ascending_chain(chain: Sequence[Partition]) -> Tableau:
    """Rebuild the tableau whose level-s shape is chain[s].

    chain[0] must be empty and consecutive shapes must differ by
    horizontal strips.
    """
    if not chain or strip(chain[0]):
        raise ValueError("chain must start at the empty partition")
    final = strip(chain[-1])
    rows = [[0] * width for width in final]
    prev: Partition = ()
    for s in range(1, len(chain)):
        cur = strip(chain[s])
        if not _is_horizontal_strip(prev, cur):
            raise ValueError(f"chain step {s} is not a horizontal strip")
        for r in range(len(cur)):
            start = prev[r] if r < len(prev) else 0
            for c in range(start, cur[r]):
                rows[r][c] = s
        prev = cur
    if prev != final:
        raise ValueError("chain does not close on its final shape")
    return tuple(tuple(row) for row in rows)


def from_descending_slices(slices: Sequence[Partition], max_entry: int) -> Tableau:
    """Tableau from a weakly decreasing interlacing chain.

    ``slices[0]`` is the full shape and ``slices[t]`` shrinks to empty by
    index max_entry; cells in slices[t-1] / slices[t] receive the entry
    max_entry + 1 - t.  This is the unique labelling that makes the result
    semistandard.
    """
    padded = list(slices) + [()] * (max_entry + 1 - len(slices))
    if strip(padded[max_entry]):
        raise ValueError("slices must be empty by index max_entry")
    chain = [strip(padded[max_entry - s]) for s in range(max_entry + 1)]
    return from_ascending_chain(chain)


def descending_slices(t: Tableau, max_entry: int) -> list[Partition]:
    """Inverse of from_descending_slices: slices[t] = shape(entries <= max_entry - t)."""
    chain = ascending_chain(t, max_entry)
    return [chain[max_entry - s] for s in range(max_entry + 1)]


def box_complement(t: Tableau, rows: int, height: int) -> Tableau:
    """Complement of an SSYT inside the rows x height box.

    Sends SSYT of shape lam (lam inside height**rows, entries <= rows) to
    an SSYT of the rotated complement shape whose letter counts are
    height minus the original counts.  Realized on chains: the level-s
    shape of the image is the complement of the level-s shape of the
    input inside the height**s box.  The map is an involution.
    """
    lam = pad(shape_of(t), rows)
    if lam and lam[0] > height:
        raise ValueError("tableau does not fit in the box")
    chain = ascending_chain(t, rows)
    comp_chain: list[Partition] = [()]
    for s in range(1, rows + 1):
        level = pad(chain[s], s)
        comp = tuple(height - level[s - 1 - i] for i in range(s))
        comp_chain.append(strip(comp))
    return from_ascending_chain(comp_chain)
