import hashlib
import itertools
import json
import math
import time
from fractions import Fraction
from functools import cache

import pytest
from box_oracle import box_terms

from qmelon import paths, schur
from qmelon.cli import _melon_point_lists, main
from qmelon.laurent import LaurentPoly
from qmelon.partitions import enumerate_in_box, strip, weight
from qmelon.paths import (
    Watermelon,
    b_phase_points,
    c_phase_points,
    closed_genfunc,
    complement_shape,
    count_deviation,
    enumerate_watermelons,
    genfunc_det_forms,
    gv_count,
    make_watermelon,
    volume_offset,
    wall_heights,
    watermelon_from_dict,
    watermelon_genfunc,
)
from qmelon.planepartitions import gradient_bijection_inverse, horizontal_steps, zq
from qmelon.planepartitions import volume as pp_volume
from qmelon.tableaux import count_ssyt, enumerate_ssyt

# Arguments that are not strict ints, with the name each error must give.
NOT_INT_SIDES = [((True, 2, 2), "n"), ((2, True, 2), "l"), ((2, 2.5, 2), "l"),
                 ((2, 2, "2"), "m"), ((2.0, 2, 2), "n")]

SMALL_GRID = [(n, m, k) for n in range(1, 4) for m in range(1, 3)
              for k in range(0, n + 1)]


def count_oracle(n: int, l: int, m: int) -> Fraction:
    """Closed product count, written directly from the double product."""
    out = Fraction(1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            out *= Fraction(l + i + j - 1, i + j - 1)
    return out


# ---- the two nests of a watermelon ----

def test_cnest_example():
    w = make_watermelon(2, 1, 0, (1,), ((1,),), ((1,),))
    assert w.c_tableau == ((1,),) and w.b_tableau == ((1,),)
    assert w.c_steps() == (0, 1)
    assert w.volume == 2   # |lam| = 1, C area 1, B area 0


def test_cnest_rejects_bad_tableau():
    with pytest.raises(ValueError, match="C tableau is not semistandard"):
        make_watermelon(2, 2, 0, (2,), ((2, 1),), ((1, 1),))   # decreasing row
    with pytest.raises(ValueError, match="C tableau is not semistandard"):
        make_watermelon(2, 1, 0, (1, 1), ((1,), (1,)), ())   # column repeat
    with pytest.raises(ValueError, match="C tableau is not semistandard"):
        make_watermelon(2, 1, 1, (1,), ((2,),), ((1,),))   # letter beyond L


def test_bnest_example():
    w = make_watermelon(2, 1, 0, (1,), ((1,),), ((1,),))
    assert w.b_steps() == (0, 1)
    b_area = sum(j * (w.m - b) for j, b in enumerate(w.b_steps()))
    assert b_area == 0
    with pytest.raises(ValueError, match="box complement"):
        make_watermelon(2, 1, 0, (), (), ((1, 1),))   # B row longer than M
    with pytest.raises(ValueError, match="B tableau is not semistandard"):
        make_watermelon(2, 1, 0, (1,), ((1,),), ((3,),))   # letter beyond N


def test_nest_from_large_shape():
    # (5,5,3,2,2,0) drawn against 6 lines; row r filled with the letter r + 1
    lam = (5, 5, 3, 2, 2)
    t = tuple(tuple(1 + r for _ in range(width)) for r, width in enumerate(lam))
    b_tab = next(enumerate_ssyt(strip(complement_shape(lam, 6, 5)), 6))
    w = make_watermelon(6, 5, 0, lam, t, b_tab)
    assert w.interface == lam and w.c_tableau == t
    assert w.c_steps() == (0, 2, 2, 3, 5, 5)
    c_area = sum(j * c for j, c in enumerate(w.c_steps()))
    b_area = sum(j * (w.m - b) for j, b in enumerate(w.b_steps()))
    assert w.volume == weight(lam) + c_area + b_area
    assert pp_volume(gradient_bijection_inverse(w)) == w.volume


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


def enumeration_oracle(n: int, m: int, k: int) -> LaurentPoly:
    """Sum of q**volume over every watermelon object, one at a time."""
    acc: dict[int, int] = {}
    for w in enumerate_watermelons(n, m, k):
        acc[w.volume] = acc.get(w.volume, 0) + 1
    return LaurentPoly(acc)


ORACLE_GRID = ([(n, m, k) for n in range(0, 5) for m in range(0, 4)
                for k in range(0, n + 1)]
               + [(3, 4, 0), (2, 10, 0), (5, 3, 3)])


@pytest.mark.parametrize("n,m,k", ORACLE_GRID)
def test_genfunc_matches_enumeration_oracle(n, m, k):
    assert watermelon_genfunc(n, m, k).to_pairs() == enumeration_oracle(n, m, k).to_pairs()


@pytest.mark.parametrize("n,m,k,width", [(4, 5, 3, 1), (3, 8, 2, 2), (4, 7, 2, 2),
                                         (3, 11, 1, 3)])
def test_genfunc_on_both_sides_of_a_width_byte(n, m, k, width):
    # 126, 165, 32670 and 41405 watermelons: the bound on the coefficients
    # crosses 2**7 and 2**15
    bound = sum(schur._weyl_dim(lam, n - k) * schur._weyl_dim(lam, n)
                for lam in enumerate_in_box(n - k, m))
    assert bound == count_deviation(n, n - k, m)
    assert bound.bit_length() // 8 + 1 == width
    assert dict(watermelon_genfunc(n, m, k).terms()) == box_terms(n, n - k, m)


def test_genfunc_width_bound_is_memoized():
    # a second call on the same box computes no Weyl count again
    watermelon_genfunc(3, 3, 1)
    before = schur._weyl_dim.cache_info()
    watermelon_genfunc(3, 3, 1)
    after = schur._weyl_dim.cache_info()
    assert after.misses == before.misses
    assert after.hits == before.hits + 2 * len(list(enumerate_in_box(2, 3)))


def test_genfunc_width_bound_is_live(monkeypatch):
    # coefficients up to 11408 do not fit one byte: with every Weyl count
    # forced to 1, the digits are read wrong or refused
    want = box_terms(4, 4, 4)
    assert max(want.values()) >= 2**8
    monkeypatch.setattr(paths, "_weyl_dim", lambda shape, n: 1)
    try:
        value = watermelon_genfunc(4, 4, 0)
    except (OverflowError, ValueError):
        return
    assert dict(value.terms()) != want


@pytest.mark.parametrize("n,k", [(0, -1), (0, 1), (2, -1), (2, 3), (4, 5)])
def test_genfunc_rejects_deviation_out_of_range(n, k):
    with pytest.raises(ValueError):
        watermelon_genfunc(n, 2, k)


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
    if n <= 5:
        assert watermelon_genfunc(n, n, 0).eval_at_one() == A008793[n]
        assert zq(n, n, n).eval_at_one() == A008793[n]


def test_cube_genfunc_matches_dense_box_oracle():
    assert dict(watermelon_genfunc(4, 4, 0).terms()) == box_terms(4, 4, 4)


@pytest.mark.parametrize("n", range(0, 4))
@pytest.mark.parametrize("l", range(0, 4))
@pytest.mark.parametrize("m", range(0, 4))
def test_count_routes_agree(n, l, m):
    a = count_deviation(n, l, m)
    assert a == count_oracle(n, l, m)
    assert a == gv_count((l,) * n, n + m)
    assert a == genfunc_det_forms(n, l, m, form=2).eval_at_one()
    assert a == closed_genfunc(n, l, m).eval_at_one()


@pytest.mark.parametrize("box", [(10, 7, 13), (30, 30, 30), (1, 10**6, 3)])
def test_count_deviation_is_the_exact_int(box):
    value = count_deviation(*box)
    assert type(value) is int and value == count_oracle(*box)


def test_count_deviation_raises_on_a_remainder(monkeypatch):
    # the box 1 x 1 x 1 is Weyl's C(2, 1) = 2 over a divisor of 1: with a
    # divisor of 3, the remainder is not dropped
    monkeypatch.setattr(schur, "perm", lambda n, k: 3)
    schur._weyl_dim.cache_clear()
    with pytest.raises(RuntimeError, match=r"^Weyl's product lost exactness$"):
        count_deviation(1, 1, 1)


# Every box with sides in this set and at most 2 * 10**6 cells: 508 boxes,
# closed under permuting the sides.
WEYL_GRID = [box for box in itertools.product((0, 1, 2, 3, 10, 30, 100, 200), repeat=3)
             if math.prod(box) <= 2 * 10**6]


@cache
def sorted_box_oracle(sides: tuple[int, int, int]) -> Fraction:
    # the double product over the two shortest sides has the fewest factors
    n, m, l = sides
    return count_oracle(n, l, m)


@pytest.mark.parametrize("box", WEYL_GRID)
def test_count_deviation_is_the_double_product_in_every_side_order(box):
    want = sorted_box_oracle(tuple(sorted(box)))
    for sides in itertools.permutations(box):
        assert count_deviation(*sides) == want


@pytest.mark.parametrize("box", [(1000, 1, 1), (1, 1, 10**6), (200, 10, 200)])
def test_count_deviation_sorts_the_sides(box):
    # unsorted, Weyl's product of (1,) * 1000 multiplies C(1000, 2) pairs,
    # about 40 s; the hook product of (1, 1, 10**6) ran past a minute
    schur._weyl_dim.cache_clear()
    start = time.process_time()
    value = count_deviation(*box)
    assert time.process_time() - start < 0.5
    assert value == sorted_box_oracle(tuple(sorted(box)))


def test_count_deviation_work_limit_boundary(monkeypatch):
    # 10 x 20 x 30: at most 200 * log2(e * 50 / 20) = 552.9 bits, so 70
    # bytes and 2 * 70**2 = 9800 steps, charged before the product runs
    want = sorted_box_oracle((10, 20, 30))
    monkeypatch.setattr(paths, "_MAX_BIGINT_WORK", 9800)
    for sides in itertools.permutations((10, 20, 30)):
        assert count_deviation(*sides) == want
    monkeypatch.setattr(paths, "_MAX_BIGINT_WORK", 9799)
    monkeypatch.setattr(paths, "_weyl_dim", None)
    for sides in itertools.permutations((10, 20, 30)):
        with pytest.raises(ValueError, match=r"^the count of the box 10x20x30 has up to 70 "
                                             r"bytes, 9800 steps, over the limit of 9799$"):
            count_deviation(*sides)


@pytest.mark.parametrize("box", [(1000, 1000, 1000), (1, 10**9, 10**9), (10**9, 10**9, 1)])
def test_count_deviation_refuses_a_huge_count_at_once(box, monkeypatch):
    monkeypatch.setattr(paths, "_weyl_dim", None)
    start = time.process_time()
    with pytest.raises(ValueError, match=r"^the count of the box \d+x\d+x\d+ has up to \d+ "
                                         r"bytes, \d+ steps, over the limit of 10000000000$"):
        count_deviation(*box)
    assert time.process_time() - start < 0.5


@pytest.mark.parametrize("box", [(-1, 2, 2), (2, -1, 2), (2, 2, -1)])
def test_det_genfuncs_reject_negative_dimensions(box):
    for form in (1, 2):
        with pytest.raises(ValueError, match="dimensions must be nonnegative"):
            genfunc_det_forms(*box, form=form)


@pytest.mark.parametrize("args,name", NOT_INT_SIDES)
def test_count_deviation_takes_strict_ints(args, name):
    with pytest.raises(ValueError, match=f"^{name} must be an int"):
        count_deviation(*args)


@pytest.mark.parametrize("args,name", NOT_INT_SIDES)
def test_closed_genfunc_takes_strict_ints(args, name):
    with pytest.raises(ValueError, match=f"^{name} must be an int"):
        closed_genfunc(*args)


@pytest.mark.parametrize("args,name", NOT_INT_SIDES + [((2, 2, 2, True), "form")])
def test_genfunc_det_forms_takes_strict_ints(args, name):
    with pytest.raises(ValueError, match=f"^{name} must be an int"):
        genfunc_det_forms(*args)


@pytest.mark.parametrize("args,name", [((True, 2, 0), "n"), ((2, True, 0), "m"),
                                       ((2, 2, False), "k"), ((2, 2, 0.0), "k"),
                                       ((2, 2.5, 0), "m")])
def test_watermelon_genfunc_takes_strict_ints(args, name):
    with pytest.raises(ValueError, match=f"^{name} must be an int"):
        watermelon_genfunc(*args)


# sha256 of one JSON line per determinant: [n, l, m, form, to_pairs()] for
# both genfunc_det_forms over every box with sides 0..5, then
# [lam, n, gv_count(lam, n)] for every lam in the 4 x 4 box and every n
# from its length to 4.  Computed before the determinant was packed.
DET_OUTPUTS_SHA256 = "b5d317d04d8619cf2da6f5eb2cb9898aaa0ce47faf92f5ee0b6f11c7beb05d34"


def test_det_outputs_frozen():
    digest = hashlib.sha256()
    for n, l, m in itertools.product(range(6), repeat=3):
        for form in (1, 2):
            pairs = genfunc_det_forms(n, l, m, form).to_pairs()
            digest.update((json.dumps([n, l, m, form, pairs]) + "\n").encode())
    for lam in enumerate_in_box(4, 4):
        for n in range(len(strip(lam)), 5):
            digest.update((json.dumps([list(lam), n, gv_count(lam, n)]) + "\n").encode())
    assert digest.hexdigest() == DET_OUTPUTS_SHA256


# The 7x7x7 box, whose two forms pack 13,650 and 17,290 bytes before the
# column shifts and are expanded by minors, and the 11x2x1 box, whose form
# 2 packs 17,787 bytes and is eliminated by Bareiss, both at q = +-Y.
@pytest.mark.parametrize("n,m,k", SMALL_GRID + [(7, 7, 0), (11, 1, 9)])
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
        # the render glues the phases: C drawn leftwards, B rightwards
        glued = _melon_point_lists(w)
        assert [p[0] for p in glued] == [(1 - x, y) for x, y in (c[0] for c in c_paths)]
        assert [p[-1] for p in glued] == [(x - 1, y) for x, y in (b[-1] for b in b_paths)]
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
    assert w.c_tableau == ((1,),)
    assert w.b_tableau == ((1,),)


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


# sha256 over json.dumps(to_dict(), sort_keys=True) + newline for every
# watermelon of enumerate_watermelons(n, m, k) with n <= 3, m <= 2 and
# 0 <= k <= n (327 objects, in that loop order), followed after every 7th
# object, from the first on, by its `qmelon render` output in the ascii and
# then the svg style.  Computed before the watermelon record held its
# tableaux directly, when each nest was a separate object.
WIRE_AND_RENDER_SHA256 = "05cd3430c4f9fd1711809ecf223a4999b6191060def9910807b135da02fa7096"


def test_wire_format_and_renders_frozen(tmp_path, capsys):
    digest = hashlib.sha256()
    src = tmp_path / "melon.json"
    count = 0
    for n, m in itertools.product(range(4), range(3)):
        for k in range(n + 1):
            for w in enumerate_watermelons(n, m, k):
                line = json.dumps(w.to_dict(), sort_keys=True)
                digest.update((line + "\n").encode())
                if count % 7 == 0:
                    src.write_text(line)
                    for style in ("ascii", "svg"):
                        assert main(["render", "--input", str(src), "--style", style]) == 0
                        digest.update(capsys.readouterr().out.encode())
                count += 1
    assert count == 327
    assert digest.hexdigest() == WIRE_AND_RENDER_SHA256


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
