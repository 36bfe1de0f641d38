import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmelon.partitions import (
    check_int,
    check_partition,
    enumerate_in_box,
    n_statistic,
    pad,
    parse_partition,
    strip,
    weight,
)

partition_st = st.lists(
    st.integers(min_value=0, max_value=8), min_size=0, max_size=6,
).map(lambda xs: tuple(sorted(xs, reverse=True)))


def test_check_partition():
    assert check_partition([3, 1, 0]) == (3, 1, 0)
    with pytest.raises(ValueError):
        check_partition([1, 2])
    with pytest.raises(ValueError):
        check_partition([2, -1])
    for bad in ((True, 0), (1, False), (2.0, 1), ("1",)):
        with pytest.raises(ValueError):
            check_partition(bad)


def test_check_int():
    assert check_int(3, "N") == 3
    assert check_int(-2, "k") == -2
    for bad in (True, False, 2.9, 2.0, "2", None):
        with pytest.raises(ValueError, match="N must be an int"):
            check_int(bad, "N")


def test_weight_and_n_statistic():
    assert weight((5, 5, 3)) == 13
    assert weight(()) == 0
    # n(lam) = sum (i-1) lam_i
    assert n_statistic((3, 2, 1)) == 0 * 3 + 1 * 2 + 2 * 1
    assert n_statistic(()) == 0


def test_pad_strip():
    assert pad((2, 1), 4) == (2, 1, 0, 0)
    assert strip((2, 1, 0, 0)) == (2, 1)
    assert strip((0, 0)) == ()
    with pytest.raises(ValueError):
        pad((2, 1, 1), 2)


@pytest.mark.parametrize("n,m", [(0, 0), (0, 3), (2, 0), (1, 4), (2, 2), (3, 3), (4, 2)])
def test_enumerate_in_box_count_and_order(n, m):
    out = list(enumerate_in_box(n, m))
    assert len(out) == math.comb(n + m, n)
    assert len(set(out)) == len(out)
    assert out == sorted(out)
    assert all(len(lam) == n for lam in out)
    for lam in out:
        assert check_partition(lam) == lam and max(lam, default=0) <= m


def test_enumerate_in_box_takes_no_frame_per_part():
    # a frame per part passed the recursion limit at about 1,000 parts
    out = list(enumerate_in_box(1000, 1))
    assert out == [(1,) * t + (0,) * (1000 - t) for t in range(1001)]


def test_parse_format():
    assert parse_partition("[5,5,3,2,2,0]") == (5, 5, 3, 2, 2, 0)
    assert parse_partition("[]") == ()
    assert parse_partition(" [ 2 , 1 ] ") == (2, 1)
    assert parse_partition("[2,1]") == (2, 1)
    for bad in ("2,1", "[2,1", "[a]", "[1,2]", "[-1]", "[\u0663]"):
        with pytest.raises(ValueError):
            parse_partition(bad)


@given(partition_st)
def test_parse_format_round_trip(lam):
    assert parse_partition("[" + ",".join(map(str, lam)) + "]") == lam
