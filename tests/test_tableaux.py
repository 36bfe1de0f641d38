import inspect
import itertools
import sys
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmelon import tableaux
from qmelon.partitions import enumerate_in_box, strip
from qmelon.tableaux import (
    count_ssyt,
    enumerate_ssyt,
    first_ssyt_with_counts,
    is_ssyt,
    letter_counts,
    shape_of,
)


def brute_ssyt(shape, max_entry):
    """Filter all fillings; independent of the enumerator under test."""
    shape = strip(shape)
    cells = [(i, j) for i, row in enumerate(shape) for j in range(row)]
    out = []
    for fill in itertools.product(range(1, max_entry + 1), repeat=len(cells)):
        grid = {}
        for (i, j), v in zip(cells, fill):
            grid[i, j] = v
        ok = True
        for (i, j), v in grid.items():
            if j > 0 and grid[i, j - 1] > v:
                ok = False
            if i > 0 and (i - 1, j) in grid and grid[i - 1, j] >= v:
                ok = False
        if ok:
            out.append(tuple(
                tuple(grid[i, j] for j in range(row))
                for i, row in enumerate(shape)))
    return out


def test_shape_entry_sum_counts():
    t = ((1, 2, 2), (2,))
    assert shape_of(t) == (3, 1)
    # the entry sum, read off the letter counts
    assert sum(v * c for v, c in enumerate(letter_counts(t, 3), start=1)) == 7
    assert letter_counts(t, 3) == (1, 3, 0)
    with pytest.raises(IndexError):
        letter_counts(t, 1)


def test_is_ssyt():
    assert is_ssyt(((1, 1), (2,)), 2)
    assert not is_ssyt(((1, 2), (2, 2)), 2)   # column repeat
    assert not is_ssyt(((2, 1),), 2)          # row decrease
    assert not is_ssyt(((1, 3),), 2)          # entry above bound
    assert is_ssyt((), 1)


@pytest.mark.parametrize("shape,max_entry", [
    ((), 1), ((1,), 2), ((2,), 2), ((1, 1), 2), ((2, 1), 3),
    ((2, 2), 2), ((2, 2), 3), ((3, 1), 3), ((1, 1, 1), 3),
])
def test_enumeration_matches_brute_force(shape, max_entry):
    got = list(enumerate_ssyt(shape, max_entry))
    expect = brute_ssyt(shape, max_entry)
    assert sorted(got) == sorted(expect)
    assert got == sorted(got)           # row-major lexicographic
    assert len(got) == count_ssyt(shape, max_entry)
    assert all(is_ssyt(t, max_entry) for t in got)


def test_known_counts():
    assert count_ssyt((2, 1), 3) == 8
    assert count_ssyt((2, 2), 2) == 1
    assert count_ssyt((1,), 5) == 5
    assert count_ssyt((), 3) == 1
    assert count_ssyt((1, 1, 1), 2) == 0


def test_count_ssyt_refuses_past_the_tableau_cell_limit():
    # (3, 2) in 4 letters has 60 tableaux of 5 cells
    with mock.patch.object(tableaux, "_MAX_SSYT_CELLS", 300):
        assert count_ssyt((3, 2, 0), 4) == len(brute_ssyt((3, 2), 4)) == 60
        # more rows than letters counts 0, with no count to charge: Weyl's
        # product does not apply there, and raises on some of those shapes
        assert count_ssyt((1, 1, 1, 1, 1), 4) == count_ssyt((1,) * 6, 2) == 0
        assert count_ssyt((2, 1), 0) == 0
        assert count_ssyt((), 0) == 1
    with mock.patch.object(tableaux, "_MAX_SSYT_CELLS", 299):
        with pytest.raises(ValueError, match=r"^shape \(3, 2\) in 4 letters has 60 tableaux of "
                                             r"5 cells, 300 tableau-cells over the limit of 299$"):
            count_ssyt((3, 2), 4)
    # (12**4 6**4) in 8 letters: 9,343,620 tableaux of 72 cells, refused at once
    start = time.process_time()
    with pytest.raises(ValueError, match=r" 9343620 tableaux of 72 cells, 672740640 "):
        count_ssyt((12,) * 4 + (6,) * 4, 8)
    assert time.process_time() - start < 0.5


def test_first_ssyt_with_counts():
    t = first_ssyt_with_counts((2, 1), (1, 1, 1))
    assert t == ((1, 2), (3,))
    assert first_ssyt_with_counts((2, 1), (2, 1, 0)) == ((1, 1), (2,))
    assert first_ssyt_with_counts((2, 1), (3, 0, 0)) is None
    assert first_ssyt_with_counts((), ()) == ()
    # counts must total the shape weight
    assert first_ssyt_with_counts((2, 1), (1, 1, 0)) is None


def test_first_is_lex_least():
    for shape in [(2, 1), (2, 2), (3, 1)]:
        for t in enumerate_ssyt(shape, 3):
            counts = letter_counts(t, 3)
            first = first_ssyt_with_counts(shape, counts)
            candidates = [u for u in enumerate_ssyt(shape, 3)
                          if letter_counts(u, 3) == counts]
            assert first == min(candidates)


def test_first_ssyt_refuses_exactly_the_unrealizable_counts():
    # every shape with at most 3 rows of length at most 3, and every count
    # vector of up to 3 letters with each count at most 3
    for lam in enumerate_in_box(3, 3):
        shape = strip(lam)
        for letters in range(4):
            brute = {letter_counts(t, letters): t for t in reversed(brute_ssyt(shape, letters))}
            for counts in itertools.product(range(4), repeat=letters):
                assert first_ssyt_with_counts(shape, counts) == brute.get(counts)
    # a negative count is never realizable, even when the counts sum to the shape
    assert first_ssyt_with_counts((2, 1), (2, 2, -1)) is None



def search_nodes(call):
    """call()'s result and the number of partial fillings ``_search`` made, the empty one included.

    The search makes a filling each time it places a letter, on its line
    ``left[v] -= 1``; the line events of a trace on its frames count them.
    A generator frame reports a fresh "call" event at every resumption, and
    each is traced again.
    """
    lines, first = inspect.getsourcelines(tableaux._search)
    [place] = [first + k for k, line in enumerate(lines) if line.strip() == "left[v] -= 1"]
    placed = 0

    def trace(frame, event, arg):
        nonlocal placed
        if frame.f_code is not tableaux._search.__code__:
            return None
        if event == "line" and frame.f_lineno == place:
            placed += 1
        return trace

    sys.settrace(trace)
    try:
        result = call()
    finally:
        sys.settrace(None)
    return result, 1 + placed


@pytest.mark.parametrize("shape,max_entry", [
    ((1,), 3), ((2, 1), 3), ((3, 3), 2), ((3, 2, 2), 4), ((2, 2, 1, 1), 5),
    ((4, 1), 3), ((7,) * 6, 6), ((3, 3, 3), 3), ((5, 3, 1), 4),
])
def test_enumeration_visits_only_prefixes_of_tableaux(shape, max_entry):
    # every partial filling extends to a tableau, so the search visits
    # exactly the prefixes of the row-reading words it yields
    got, nodes = search_nodes(lambda: list(enumerate_ssyt(shape, max_entry)))
    cells = sum(shape)
    words = [sum(t, ()) for t in got]
    assert nodes == len({w[:k] for w in words for k in range(cells + 1)})
    assert nodes <= 1 + len(got) * cells
    assert got == sorted(got) and all(is_ssyt(t, max_entry) for t in got)


def test_first_ssyt_search_of_a_forced_filling_never_backtracks():
    # the one tableau of 8**6 in 6 letters: one node per cell and the root
    shape = (8,) * 6
    found, nodes = search_nodes(lambda: first_ssyt_with_counts(shape, (8,) * 6))
    assert found == tuple((v,) * 8 for v in range(1, 7))
    assert nodes == 1 + sum(shape)


def test_search_takes_no_frame_per_cell():
    # a frame per cell passed the recursion limit at about 1,000 cells; one
    # row of 3000 cells in 2 letters charges 9 * 10**6 of the 2 * 10**7
    # tableau-cells
    assert count_ssyt((1000,), 1) == 1
    assert count_ssyt((3000,), 2) == 3001
    assert first_ssyt_with_counts((1000,), (400, 600)) == ((1,) * 400 + (2,) * 600,)
    assert first_ssyt_with_counts((50,) * 50, (50,) * 50) == tuple((v,) * 50 for v in range(1, 51))
