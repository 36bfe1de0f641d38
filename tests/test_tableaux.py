import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmelon.partitions import enumerate_in_box, strip, weight
from qmelon.tableaux import (
    ascending_chain,
    box_complement,
    count_ssyt,
    descending_slices,
    enumerate_ssyt,
    first_ssyt_with_counts,
    from_ascending_chain,
    from_descending_slices,
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


def test_ascending_chain_round_trip():
    t = ((1, 1, 2), (2, 3))
    chain = ascending_chain(t, 3)
    assert chain[0] == ()
    assert strip(chain[-1]) == (3, 2)
    assert from_ascending_chain(chain) == t
    for inner, outer in zip(chain, chain[1:]):
        # horizontal strips: at most one new cell per column
        con_i, con_o = ([sum(x >= c for x in lam) for c in range(1, max(lam, default=0) + 1)]
                        for lam in (inner, outer))
        pad_i = tuple(con_i) + (0,) * (len(con_o) - len(con_i))
        assert all(o - i in (0, 1) for i, o in zip(pad_i, con_o))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 1), (2, 2), (3, 2, 1), (1, 1), (3,)]),
       st.integers(min_value=3, max_value=4))
def test_chain_round_trip_everywhere(shape, max_entry):
    for t in enumerate_ssyt(shape, max_entry):
        assert from_ascending_chain(ascending_chain(t, max_entry)) == t


def test_descending_slices_round_trip():
    for shape in [(2, 1), (2, 2), (3, 1, 1)]:
        for t in enumerate_ssyt(shape, 3):
            slices = descending_slices(t, 3)
            assert len(slices) == 4
            assert strip(slices[0]) == strip(shape_of(t))
            assert from_descending_slices(slices, 3) == t


def test_descending_slices_semantics():
    # letter v occupies the slices indexed 0..max_entry-v
    t = ((1, 2), (2,))
    slices = descending_slices(t, 2)
    assert [strip(s) for s in slices] == [(2, 1), (1,), ()]


def test_box_complement_involution_and_counts():
    rows, height = 2, 3
    shapes = [strip(lam) for lam in enumerate_in_box(rows, height)]
    for shape in shapes:
        for t in enumerate_ssyt(shape, rows):
            c = box_complement(t, rows, height)
            assert is_ssyt(c, rows)
            assert weight(shape_of(c)) + weight(shape_of(t)) == rows * height
            assert box_complement(c, rows, height) == t
            before = letter_counts(t, rows)
            after = letter_counts(c, rows)
            assert all(b + a == height for b, a in zip(before, after))


def test_box_complement_rejects_overflow():
    with pytest.raises(ValueError):
        box_complement(((1, 1, 1),), 1, 2)   # row longer than the box height
    with pytest.raises(ValueError):
        box_complement(((1,), (2,), (3,)), 2, 3)   # more rows than fit
