import itertools
import json
import math
from fractions import Fraction

import pytest

from qmelon.laurent import LaurentPoly
from qmelon.partitions import enumerate_in_box, strip, weight
from qmelon.paths import (
    BNest,
    CNest,
    Watermelon,
    b_phase_points,
    c_phase_points,
    closed_genfunc,
    complement_shape,
    count_deviation,
    count_deviation_det,
    enumerate_watermelons,
    genfunc_det_forms,
    gv_count,
    make_watermelon,
    volume_offset,
    wall_heights,
    watermelon_from_dict,
    watermelon_genfunc,
    watermelon_paths,
)
from qmelon.planepartitions import horizontal_steps
from qmelon.tableaux import count_ssyt

SMALL_GRID = [(n, m, k) for n in range(1, 4) for m in range(1, 3)
              for k in range(0, n + 1)]


def count_oracle(n: int, l: int, m: int) -> Fraction:
    """Closed product count, written directly from the double product."""
    out = Fraction(1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            out *= Fraction(l + i + j - 1, i + j - 1)
    return out


# ---- nests ----

def test_cnest_example():
    nest = CNest(lines=2, tableau=((1,),))
    assert nest.shape == (1,)
    assert nest.step_counts == (0, 1)
    assert nest.path_volume == 1
    assert nest.weighted_volume == 2


def test_cnest_rejects_bad_tableau():
    with pytest.raises(ValueError):
        CNest(lines=2, tableau=((2, 1),))
    with pytest.raises(ValueError):
        CNest(lines=1, tableau=((1,), (1,)))   # column repeat


def test_bnest_example():
    nest = BNest(paths=2, height=1, tableau=((1,),))
    assert nest.step_counts == (0, 1)
    assert nest.path_volume == 0
    with pytest.raises(ValueError):
        BNest(paths=2, height=1, tableau=((1, 1),))   # row exceeds height


def test_nest_from_large_shape():
    # (5,5,3,2,2,0) drawn against 6 lines; row r filled with the letter r
    t = tuple(tuple(1 + r for _ in range(width)) for r, width in enumerate((5, 5, 3, 2, 2)))
    nest = CNest(lines=6, tableau=t)
    assert nest.shape == (5, 5, 3, 2, 2)
    assert nest.weighted_volume == weight((5, 5, 3, 2, 2)) + nest.path_volume


def test_complement_shape():
    assert complement_shape((1,), 2, 1) == (1, 0)
    assert complement_shape((2, 1), 3, 2) == (2, 1, 0)
    assert complement_shape((2, 2, 1), 3, 2) == (1, 0, 0)
    assert complement_shape((), 2, 2) == (2, 2)
    with pytest.raises(ValueError):
        complement_shape((3,), 2, 2)


# ---- watermelons ----

def test_make_watermelon_validation():
    with pytest.raises(ValueError):
        make_watermelon(2, 1, 3, (), (), ())
    with pytest.raises(ValueError):
        make_watermelon(2, 1, 0, (2,), ((1, 1),), ((1,),))   # interface too wide
    with pytest.raises(ValueError):
        make_watermelon(2, 1, 0, (1,), ((1, 1),), ((1,),))   # C shape mismatch
    with pytest.raises(ValueError):
        make_watermelon(2, 1, 0, (1,), ((1,),), ((1, 1),))   # B shape mismatch


def test_minimal_genfunc():
    assert watermelon_genfunc(1, 1, 0) == LaurentPoly({0: 1, 1: 1})
    assert watermelon_genfunc(1, 1, 1) == LaurentPoly.one()
    assert watermelon_genfunc(0, 3, 0) == LaurentPoly.one()


def test_enumeration_sizes():
    assert sum(1 for _ in enumerate_watermelons(2, 2, 0)) == 20
    assert sum(1 for _ in enumerate_watermelons(3, 3, 0)) == 980


@pytest.mark.parametrize("n,m,k", SMALL_GRID)
def test_enumeration_matches_product(n, m, k):
    assert watermelon_genfunc(n, m, k) == closed_genfunc(n, n - k, m)


@pytest.mark.parametrize("n,m,k", SMALL_GRID)
def test_volume_minimum_zero(n, m, k):
    poly = watermelon_genfunc(n, m, k)
    assert poly.coeff(0) == 1
    assert poly.valuation() == 0


@pytest.mark.parametrize("n,l,m", [(1, 1, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2),
                                   (3, 2, 2), (3, 3, 3)])
def test_genfunc_degree_and_palindrome(n, l, m):
    poly = closed_genfunc(n, l, m)
    deg = n * l * m
    assert poly.degree() == deg
    assert all(poly.coeff(e) == poly.coeff(deg - e) for e in range(deg + 1))


# ---- counting ----

def test_frozen_counts():
    assert count_deviation(2, 2, 2) == 20
    assert count_deviation(3, 3, 3) == 980
    assert count_deviation(0, 5, 5) == 1
    assert count_deviation(2, 0, 3) == 1


# OEIS A008793 (https://oeis.org/A008793): plane partitions in an n x n x n box.
A008793 = (1, 2, 20, 980, 232848, 267227532, 1478619421136, 39405996318420160)


@pytest.mark.parametrize("n", range(len(A008793)))
def test_cube_genfuncs_match_oeis_a008793(n):
    assert closed_genfunc(n, n, n).eval_at_one() == A008793[n]
    assert genfunc_det_forms(n, n, n, form=1).eval_at_one() == A008793[n]
    assert genfunc_det_forms(n, n, n, form=2).eval_at_one() == A008793[n]


@pytest.mark.parametrize("n", range(0, 4))
@pytest.mark.parametrize("l", range(0, 4))
@pytest.mark.parametrize("m", range(0, 4))
def test_count_routes_agree(n, l, m):
    a = count_deviation(n, l, m)
    assert a == count_oracle(n, l, m)
    assert a == count_deviation_det(n, l, m, form=1)
    assert a == count_deviation_det(n, l, m, form=2)
    assert a == closed_genfunc(n, l, m).eval_at_one()


@pytest.mark.parametrize("n,m,k", SMALL_GRID)
def test_det_genfuncs_match_product(n, m, k):
    l = n - k
    w = closed_genfunc(n, l, m)
    assert genfunc_det_forms(n, l, m, form=1) == w
    assert genfunc_det_forms(n, l, m, form=2) == w


def test_volume_offset_values():
    assert volume_offset(2, 2) == 2
    assert volume_offset(3, 2) == 6
    assert volume_offset(1, 5) == 0


def test_gv_count_values():
    assert gv_count((1,), 2) == 2
    assert gv_count((2, 1), 3) == 8
    assert gv_count((2, 2), 2) == 1
    assert gv_count((), 3) == 1


def test_gv_count_matches_tableaux():
    for lam in enumerate_in_box(3, 3):
        assert gv_count(strip(lam), 3) == count_ssyt(lam, 3)


# ---- geometry ----

def assert_pairwise_vertex_disjoint(path_lists):
    seen: dict = {}
    for idx, pts in enumerate(path_lists):
        for p in pts:
            assert p not in seen or seen[p] == idx, (p, seen[p], idx)
            seen[p] = idx


@pytest.mark.parametrize("n,m,k", [(1, 1, 0), (2, 1, 0), (2, 2, 0), (2, 2, 1),
                                   (3, 1, 0), (3, 2, 1), (3, 2, 2), (2, 3, 0)])
def test_phase_geometry(n, m, k):
    """Per-phase staircase endpoints, monotone steps, and disjointness.

    Each phase of the nest is checked separately; the glued flattening may
    let one path touch another's already-finished phase, which the tableau
    encoding resolves, so no cross-phase assertion is made.
    """
    for w in enumerate_watermelons(n, m, k):
        c_paths = c_phase_points(w)
        b_paths = b_phase_points(w)
        heights = wall_heights(w)
        assert len(set(heights)) == n  # wall heights all distinct
        assert list(heights) == sorted(heights, reverse=True)
        for i in range(1, n + 1):
            c = c_paths[i - 1]
            b = b_paths[i - 1]
            assert c[0] == (n - i + 1 + k, n - i)
            assert c[-1] == (1, heights[i - 1]) == b[0]
            assert b[-1] == (i, n + m - i)
            for (x0, y0), (x1, y1) in zip(c, c[1:]):
                assert (x1 - x0, y1 - y0) in ((-1, 0), (0, 1))
            for (x0, y0), (x1, y1) in zip(b, b[1:]):
                assert (x1 - x0, y1 - y0) in ((1, 0), (0, 1))
        assert_pairwise_vertex_disjoint(c_paths)
        assert_pairwise_vertex_disjoint(b_paths)
        glued = watermelon_paths(w)
        assert [p[0] for p in glued] == [c[0] for c in c_paths]
        assert [p[-1] for p in glued] == [b[-1] for b in b_paths]
        assert all(len(g) == len(c) + len(b) - 1
                   for g, c, b in zip(glued, c_paths, b_paths))


def test_volume_counts_north_steps_weighted():
    # volume = |interface| + sum (j-1) l^C_j + sum (j-1) (M - l^B_j)
    for w in enumerate_watermelons(2, 2, 0):
        c = w.c_steps()
        b = w.b_steps()
        expect = (weight(w.interface)
                  + sum((j - 1) * s for j, s in enumerate(c, start=1))
                  + sum((j - 1) * (w.m - s) for j, s in enumerate(b, start=1)))
        assert w.volume == expect


# ---- serialization ----

@pytest.mark.parametrize("n,m,k", [(1, 1, 0), (2, 1, 0), (2, 2, 1), (3, 2, 1)])
def test_dict_round_trip(n, m, k):
    for w in enumerate_watermelons(n, m, k):
        data = json.loads(json.dumps(w.to_dict()))
        back = watermelon_from_dict(data)
        assert back.n == w.n and back.m == w.m and back.k == w.k
        assert back.interface == w.interface
        assert back.volume == w.volume
        assert back.c_steps() == w.c_steps()
        assert back.b_steps() == w.b_steps()


def test_from_dict_canonical_tableau():
    # counts pin the tableau only up to rearrangement; the lex-first one is chosen
    data = {"N": 2, "M": 1, "k": 0, "lambda": [1, 0],
            "c_steps": [0, 1], "b_steps": [0, 1], "volume": 2}
    w = watermelon_from_dict(data)
    assert w.c_nest.tableau == ((1,),)
    assert w.b_nest.tableau == ((1,),)


def test_from_dict_rejects_bad_data():
    good = {"N": 2, "M": 1, "k": 0, "lambda": [1, 0],
            "c_steps": [0, 1], "b_steps": [0, 1], "volume": 2}
    bad_volume = dict(good, volume=5)
    with pytest.raises(ValueError):
        watermelon_from_dict(bad_volume)
    with pytest.raises(ValueError):
        watermelon_from_dict(dict(good, c_steps=[0, 1, 0]))
    with pytest.raises(ValueError):
        watermelon_from_dict(dict(good, k=1, c_steps=[0, 1]))  # trailing steps must vanish
    with pytest.raises(ValueError):
        watermelon_from_dict(dict(good, b_steps=[9, 0]))  # unrealizable counts


# ---- level reading ----

@pytest.mark.parametrize("n,m,k", [(1, 1, 0), (2, 1, 0), (2, 2, 0), (2, 2, 1),
                                   (3, 2, 0), (3, 2, 1), (3, 2, 2)])
def test_horizontal_reading_offset_constant(n, m, k):
    l = n - k
    expect = volume_offset(n, l)
    for w in enumerate_watermelons(n, m, k):
        steps = horizontal_steps(w)
        assert len(steps) == n + m
        assert sum(steps) == l * n  # total east steps across levels
        stat = sum(j * s for j, s in enumerate(steps))
        assert stat - w.volume == expect
