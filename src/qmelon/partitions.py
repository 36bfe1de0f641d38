"""Integer partitions with an explicit length context.

Partitions are plain tuples of weakly decreasing nonnegative ints.
Trailing zeros are permitted and significant: helpers that need a fixed
number of parts state the length explicitly instead of guessing.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Sequence

Partition = tuple[int, ...]


def check_int(value, what: str) -> int:
    """Return value if it is an int and not a bool; raise ValueError otherwise."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an int, got {value!r}")
    return value


def check_box(n, l, m) -> tuple[int, int, int]:
    """The sides n, l, m of a box; ValueError names a side that is not an int.

    A negative side raises ValueError too.
    """
    sides = (check_int(n, "n"), check_int(l, "l"), check_int(m, "m"))
    if min(sides) < 0:
        raise ValueError("box dimensions must be nonnegative")
    return sides


def check_partition(parts: Iterable[int]) -> Partition:
    lam = tuple(parts)
    for x in lam:
        if not isinstance(x, int) or isinstance(x, bool) or x < 0:
            raise ValueError(f"partition parts must be nonnegative ints: {lam}")
    for a, b in zip(lam, lam[1:]):
        if a < b:
            raise ValueError(f"partition parts must be weakly decreasing: {lam}")
    return lam


def weight(lam: Sequence[int]) -> int:
    """Total number of cells."""
    return sum(lam)


def n_statistic(lam: Sequence[int]) -> int:
    """sum of (i-1) * lam_i over rows i, 1-indexed."""
    return sum(i * x for i, x in enumerate(lam))


def pad(lam: Sequence[int], n: int) -> Partition:
    if len(lam) > n:
        if any(lam[n:]):
            raise ValueError(f"partition {tuple(lam)} has more than {n} nonzero parts")
        return tuple(lam[:n])
    return tuple(lam) + (0,) * (n - len(lam))


def strip(lam: Sequence[int]) -> Partition:
    """Drop trailing zero parts."""
    out = list(lam)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def enumerate_in_box(n: int, m: int) -> Iterator[Partition]:
    """All partitions with at most n parts, each at most m, padded to length n.

    Order: ascending lexicographic on the padded part vector, so the zero
    partition comes first and (m,...,m) last.  Yields exactly
    binomial(n+m, n) partitions.
    """
    if n < 0 or m < 0:
        raise ValueError("box dimensions must be nonnegative")
    # the next partition raises the last part below its bound, the part
    # before it or m, and clears the parts after it
    parts = [0] * n
    while True:
        yield tuple(parts)
        i = n - 1
        while i >= 0 and parts[i] == (parts[i - 1] if i else m):
            i -= 1
        if i < 0:
            return
        parts[i] += 1
        parts[i + 1:] = [0] * (n - 1 - i)


_PARTITION_RE = re.compile(r"^\[\s*(?:[0-9]+\s*(?:,\s*[0-9]+\s*)*)?\]$")


def parse_partition(text: str) -> Partition:
    """Parse the bracketed textual form, e.g. '[5,5,3,2,2,0]' or '[]'."""
    text = text.strip()
    if not _PARTITION_RE.match(text):
        raise ValueError(f"malformed partition literal: {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return ()
    return check_partition(int(x) for x in inner.split(","))
