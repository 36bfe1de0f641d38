import hashlib
import json
import math

import pytest

from box_oracle import box_count, box_terms
from qmelon import planepartitions
from qmelon.laurent import LaurentPoly
from qmelon.paths import closed_genfunc, volume_offset, watermelon_genfunc
from qmelon.planepartitions import (
    BoxMismatch,
    check_plane_partition,
    enumerate_box,
    gradient_bijection,
    gradient_bijection_inverse,
    in_box,
    pp_from_dict,
    pp_to_dict,
    rect_tableau,
    volume,
    zq,
)
from qmelon.tableaux import is_ssyt

BIJECTION_GRID = [(n, l, m) for n in range(0, 4) for l in range(0, n + 1)
                  for m in range(0, 4)]


def test_check_plane_partition():
    assert check_plane_partition([[2, 1], [1, 0]]) == ((2, 1), (1, 0))
    assert check_plane_partition([]) == ()
    with pytest.raises(ValueError):
        check_plane_partition([[1, 2]])          # row increases
    with pytest.raises(ValueError):
        check_plane_partition([[1], [2]])        # column increases
    with pytest.raises(ValueError):
        check_plane_partition([[1, 0], [1]])     # ragged
    with pytest.raises(ValueError):
        check_plane_partition([[-1]])


def test_volume_and_in_box():
    pp = ((2, 1), (1, 0))
    assert volume(pp) == 4
    assert in_box(pp, 2, 2, 2)
    assert not in_box(pp, 2, 2, 1)
    assert not in_box(pp, 1, 2, 2)


def test_enumerate_box_counts():
    assert sum(1 for _ in enumerate_box(2, 2, 2)) == 20
    assert sum(1 for _ in enumerate_box(1, 1, 4)) == 5
    assert list(enumerate_box(0, 2, 3)) == [((), ())]
    assert list(enumerate_box(2, 0, 3)) == [()]


def test_enumerate_box_order_and_validity():
    out = list(enumerate_box(2, 2, 2))
    flat = [tuple(v for row in pp for v in row) for pp in out]
    assert flat == sorted(flat)
    assert len(set(flat)) == len(flat)
    for pp in out:
        check_plane_partition(pp)
        assert in_box(pp, 2, 2, 2)


def test_enumerate_box_takes_no_frame_per_cell():
    # a frame per cell passed the recursion limit at about 1,000 cells
    out = list(enumerate_box(2000, 1, 1))
    assert out == [((1,) * t + (0,) * (2000 - t),) for t in range(2001)]


def zq_oracle(n, l, m):
    """Sum of q**volume over every plane partition in the box, one at a time."""
    acc = {}
    for pp in enumerate_box(n, l, m):
        v = volume(pp)
        acc[v] = acc.get(v, 0) + 1
    return LaurentPoly(acc)


# every box with sides at most 3, zero sides included: 64 boxes, so the
# grid is exhaustive rather than sampled
SMALL_BOXES = [(n, l, m) for n in range(4) for l in range(4) for m in range(4)]


@pytest.mark.parametrize("n,l,m", SMALL_BOXES)
def test_zq_equals_macmahon(n, l, m):
    z = zq(n, l, m)
    assert z == zq_oracle(n, l, m)
    assert dict(z.terms()) == box_terms(n, l, m)


@pytest.mark.parametrize("n,l,m", [(2, 3, 7), (7, 2, 3), (3, 7, 2), (1, 1, 9),
                                   (4, 4, 5), (5, 4, 6), (5, 5, 5)])
def test_zq_matches_dense_product_beyond_enumeration(n, l, m):
    # the states span the two shortest sides whichever argument they are
    assert dict(zq(n, l, m).terms()) == box_terms(n, l, m)


@pytest.mark.parametrize("args,name", [((True, 2, 2), "n"), ((2, True, 2), "l"),
                                       ((2, 2.5, 2), "l"), ((2, 2, "2"), "m")])
def test_zq_takes_strict_ints(args, name):
    with pytest.raises(ValueError, match=f"^{name} must be an int"):
        zq(*args)


@pytest.mark.parametrize("box", [(-1, 2, 2), (2, -1, 2), (2, 2, -1)])
def test_zq_rejects_negative_side(box):
    with pytest.raises(ValueError, match="box dimensions must be nonnegative"):
        zq(*box)


def test_zq_box_symmetry():
    # the box count is symmetric under swapping the two base sides
    assert zq(3, 2, 2) == zq(2, 3, 2)
    assert closed_genfunc(1, 3, 2) == closed_genfunc(3, 1, 2)


class StatesBuilt(Exception):
    pass


def test_count_text_bounds_a_long_count_below():
    assert planepartitions._count_text(2**1000 - 1) == str(2**1000 - 1)
    # 2**13301 is just below 10**4004, which log10(2) rounded up to 0.30103 would give
    for x in (2**1000, 10**302 - 1, 2**13301, 3 * 10**60000):
        text = planepartitions._count_text(x)
        k = int(text.removeprefix("more than 10**"))
        assert text == f"more than 10**{k}" and 10**k < x < 10**(k + 3)


def test_zq_refuses_an_oversized_box_before_building_states(monkeypatch):
    def no_states(*args):
        raise StatesBuilt
    monkeypatch.setattr(planepartitions, "enumerate_in_box", no_states)
    # 8 passes of 10 int pairs per state over C(18, 9) = 48,620 states of 730
    # digits of 16 bytes
    with pytest.raises(ValueError, match="^zq of the box 9x9x9 needs 45430528000 byte steps, "
                                         "8 passes over 35492600 state slots; the limit is "
                                         "10000000000$"):
        zq(9, 9, 9)
    # 9 * 11 * 184,940,756 slot-passes are past the limit at one byte per digit
    with pytest.raises(ValueError, match="^zq of the box 10x10x10 needs 18309134844 byte steps, "
                                         "9 passes over 184940756 state slots; "):
        zq(10, 10, 10)
    for box in ((12, 10, 9), (1, 1, 40000), (1, 1, 10**6)):
        with pytest.raises(ValueError, match=f"^zq of the box {'x'.join(map(str, box))} needs"):
            zq(*box)
    # C(2 * 10**5, 10**5) and C(2 * 10**6, 10**6) states: counts too long to
    # print are bounded below, by 2**rows states, without the binomial
    with monkeypatch.context() as patch:
        patch.setattr(planepartitions, "comb", None)
        with pytest.raises(ValueError, match=r"^zq of the box 100000x100000x100000 needs more than "
                                             r"10\*\*\d+ byte steps, 99999 passes over more than "
                                             r"10\*\*\d+ state slots; the limit is 10000000000$"):
            zq(100000, 100000, 100000)
        with pytest.raises(ValueError, match=r"^zq of the box 1000000x1000000x1000000 needs more "
                                             r"than 10\*\*\d+ byte steps, 999999 passes over more "
                                             r"than 10\*\*\d+ state slots; the limit is "
                                             r"10000000000$"):
            zq(1000000, 1000000, 1000000)
    # 7x7x7, 8x8x8 (5.0 * 10**9), 8x8x9 (7.5 * 10**9) and (1, 1, 20000)
    # (3.2 * 10**9) pass the check and go on to build
    for box in ((7, 7, 7), (8, 8, 8), (8, 8, 9), (1, 1, 20000)):
        with pytest.raises(StatesBuilt):
            zq(*box)


def test_zq_work_limit_boundary(monkeypatch):
    # the states span the two shortest sides: C(2 + 3, 2) = 10 states of
    # 2 * 3 * 4 + 1 = 25 digits of 2 bytes (C(13, 4) = 715 chains), and the
    # 3 passes add 2 int pairs per state and shift it: 3 * 3 * 250 * 2
    monkeypatch.setattr(planepartitions, "_MAX_BIGINT_WORK", 4500)
    assert zq(4, 2, 3) == closed_genfunc(4, 2, 3)
    monkeypatch.setattr(planepartitions, "_MAX_BIGINT_WORK", 4499)
    with pytest.raises(ValueError, match="needs 4500 byte steps, 3 passes over 250 state slots; "
                                         "the limit is 4499$"):
        zq(4, 2, 3)
    # past the limit at 2250 slot-passes, the digits are charged at one byte
    # and the chains are not counted
    monkeypatch.setattr(planepartitions, "_MAX_BIGINT_WORK", 2249)
    monkeypatch.setattr(planepartitions, "comb", lambda n, k: math.comb(n, k) if k == 2 else None)
    with pytest.raises(ValueError, match="needs 2250 byte steps, 3 passes over 250 state slots; "
                                         "the limit is 2249$"):
        zq(4, 2, 3)


def test_zq_frozen_small():
    assert zq(1, 1, 1) == LaurentPoly({0: 1, 1: 1})
    assert zq(2, 2, 2).degree() == 8
    assert zq(2, 2, 2).eval_at_one() == 20


@pytest.mark.parametrize("n,l,m", BIJECTION_GRID)
def test_gradient_bijection_exhaustive(n, l, m):
    """Round trip both ways, volume preservation, and injectivity."""
    seen = set()
    total = 0
    for pp in enumerate_box(n, l, m):
        w = gradient_bijection(pp, n, l, m)
        assert w.n == n and w.m == m and w.k == n - l
        assert w.volume == volume(pp)
        key = (w.interface, w.c_tableau, w.b_tableau)
        assert key not in seen
        seen.add(key)
        assert gradient_bijection_inverse(w) == pp
        total += 1
    assert total == box_count(n, l, m)


# sha256 over repr((interface, C tableau, B tableau)) + newline for every
# plane partition of every BIJECTION_GRID box, in enumerate_box order;
# computed with the diagonal-slice construction the counting formulas replaced
BIJECTION_SHA256 = "7fe89053637346bd33fd9b8f25591aa5e55d34cd339c6c0b3233f5409913b071"


def test_gradient_bijection_output_frozen():
    digest = hashlib.sha256()
    for n, l, m in BIJECTION_GRID:
        for pp in enumerate_box(n, l, m):
            w = gradient_bijection(pp, n, l, m)
            key = (w.interface, w.c_tableau, w.b_tableau)
            digest.update(repr(key).encode() + b"\n")
    assert digest.hexdigest() == BIJECTION_SHA256


def test_gradient_bijection_rejects_wide_base():
    with pytest.raises(ValueError):
        gradient_bijection([[1]], 1, 2, 1)   # l > n has no watermelon image


def test_gradient_bijection_rejects_box_overflow():
    with pytest.raises(BoxMismatch):
        gradient_bijection([[3]], 1, 1, 2)


@pytest.mark.parametrize("n,l,m", [(2, 2, 1), (2, 2, 2), (3, 2, 2)])
def test_rect_tableau_is_ssyt_and_injective(n, l, m):
    images = set()
    for pp in enumerate_box(n, l, m):
        t = rect_tableau(pp, n, l, m)
        assert len(t) == n and all(len(row) == l for row in t)
        assert is_ssyt(t, n + m)
        images.add(t)
    assert len(images) == box_count(n, l, m)


def test_rect_tableau_example():
    # entries m + i - pi[c][i] down each column of the transposed base
    pp = ((2, 1), (1, 0))
    t = rect_tableau(pp, 2, 2, 2)
    assert t == ((1, 2), (3, 4))


@pytest.mark.parametrize("n,l,m", [(2, 2, 1), (1, 1, 1), (2, 1, 2)])
def test_level_statistic_offset(n, l, m):
    from qmelon.planepartitions import horizontal_steps

    for pp in enumerate_box(n, l, m):
        w = gradient_bijection(pp, n, l, m)
        steps = horizontal_steps(w)
        stat = sum(j * s for j, s in enumerate(steps))
        assert stat - volume(pp) == volume_offset(n, l)


@pytest.mark.parametrize("n,l,m", [(1, 1, 1), (2, 2, 2), (3, 2, 1)])
def test_watermelon_genfunc_agrees(n, l, m):
    assert zq(n, l, m) == watermelon_genfunc(n, m, n - l)


def test_pp_dict_round_trip():
    pp = [[2, 1], [1, 0]]
    data = pp_to_dict(pp, 2, 2, 2)
    assert data["volume"] == 4
    full, n, l, m = pp_from_dict(json.loads(json.dumps(data)))
    assert full == ((2, 1), (1, 0))
    assert (n, l, m) == (2, 2, 2)


def test_pp_dict_pads_partial_matrix():
    full, n, l, m = pp_from_dict({"N": 3, "L": 2, "M": 2, "parts": [[2]]})
    assert full == ((2, 0, 0), (0, 0, 0))


def test_pp_dict_rejects_bad():
    with pytest.raises(ValueError):
        pp_from_dict({"N": 2, "L": 2, "M": 2, "parts": [[2, 1], [1, 0]], "volume": 9})
    with pytest.raises(BoxMismatch):
        pp_from_dict({"N": 1, "L": 1, "M": 1, "parts": [[2]]})
    with pytest.raises(KeyError):
        pp_from_dict({"parts": [[1]]})
