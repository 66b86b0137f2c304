import json
import random
from importlib import resources
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2bounds import ComplementResult, GeneratorSet, complement, member
from sl2bounds.semigroup import SemigroupError, _partition_fill

GENS9 = [(0, 2), (0, 17), (4, 0), (6, 0), (15, 0), (5, 1), (1, 3), (7, 1),
         (1, 6)]
GENS6 = [(0, 2), (0, 17), (4, 0), (15, 0), (5, 1), (1, 3)]


def _fixture(name):
    with resources.files("sl2bounds.data").joinpath(name).open() as f:
        return json.load(f)


def test_zero_is_member():
    gs = GeneratorSet(GENS9)
    assert member(gs, (0, 0))


def test_membership_examples():
    gs = GeneratorSet(GENS9)
    assert not member(gs, (1, 0))
    assert member(gs, (4, 0))


def test_numerical_semigroup_2_3():
    gs = GeneratorSet([(2,), (3,)])
    res = complement(gs, 10)
    assert res.certified
    assert res.points == ((1,),)


def test_nine_generator_complement_matches_golden():
    gs = GeneratorSet(GENS9)
    res = complement(gs, 64)
    assert res.certified
    gold = [tuple(p) for p in _fixture("g2_semigroup_complement9.json")["points"]]
    assert list(res.points) == gold
    assert len(res.points) == 73


def test_six_generator_complement_certified():
    gs = GeneratorSet(GENS6)
    res = complement(gs, 64)
    assert res.certified
    # DP output is authoritative for this set; the nine-generator semigroup
    # is larger, so its complement embeds in this one
    nine = set(complement(GeneratorSet(GENS9), 64).points)
    assert nine <= set(res.points)


def test_complement_soundness():
    gs = GeneratorSet(GENS9)
    res = complement(gs, 64)
    pts = set(res.points)
    for p in res.points:
        assert not member(gs, p)
    rng = random.Random(7)
    checked = 0
    while checked < 1000:
        v = (rng.randrange(65), rng.randrange(65))
        if v in pts:
            continue
        assert member(gs, v), v
        checked += 1


@given(st.integers(0, 40), st.integers(0, 40),
       st.sampled_from(GENS9))
@settings(max_examples=60, deadline=None)
def test_generator_absorption(x, y, g):
    gs = GeneratorSet(GENS9)
    if member(gs, (x, y)):
        assert member(gs, (x + g[0], y + g[1]))


def test_missing_axis_generator_rejected():
    gs = GeneratorSet([(1, 1), (0, 2)])
    with pytest.raises(SemigroupError):
        complement(gs, 10)


def test_uncertified_when_box_too_small():
    # box 17 barely fits gmax=17 but the shell is not fully covered
    gs = GeneratorSet(GENS6)
    res = complement(gs, 17)
    assert isinstance(res, ComplementResult)
    assert not res.certified


def test_box_past_cap_is_refused_before_allocating():
    # (10^6 + 1)^2 cells would take about 1 TB as bools
    gs = GeneratorSet([(1, 0), (0, 1)])
    with pytest.raises(SemigroupError, match="exceeds cap 10000000"):
        member(gs, (10**6, 10**6))


def test_invalid_generators_rejected():
    with pytest.raises(SemigroupError):
        GeneratorSet([])
    with pytest.raises(SemigroupError):
        GeneratorSet([(0, 0)])
    with pytest.raises(SemigroupError):
        GeneratorSet([(1, -1)])
    # r is the common length of the generators, so lengths must agree
    with pytest.raises(SemigroupError, match="wrong dimension"):
        GeneratorSet([(1, 0), (1, 2, 3)])


def test_r_is_read_off_the_generators():
    assert GeneratorSet([(2,), (3,)]).r == 1
    assert GeneratorSet(GENS9).r == 2
    with pytest.raises(AttributeError):
        GeneratorSet(GENS9).r = 3


def _combinations(gens, bound):
    """Every N-combination of gens with all coordinates <= bound, by
    enumerating the coefficient vectors."""
    r = len(gens[0])
    out = set()
    for n in product(*(range(bound // max(g) + 1) for g in gens)):
        v = tuple(sum(c * g[i] for c, g in zip(n, gens)) for i in range(r))
        if max(v) <= bound:
            out.add(v)
    return out


@pytest.mark.parametrize("r", [1, 2, 3])
def test_against_brute_force(r):
    # Small axis generators give some certified complements in r = 1, 2
    # (16 and 6 of the 20 sets); r = 3 checks the box alone.
    rng = random.Random(r)
    bound = (15, 8, 5)[r - 1]
    for _ in range(20):
        gens = [tuple(rng.randint(1, 3) if i == a else 0
                      for i in range(r)) for a in range(r)]
        gens += [tuple(rng.randint(0, 3) for _ in range(r))
                 for _ in range(rng.randint(0, 2))]
        gens.append(tuple(bound + rng.randint(1, 3) for _ in range(r)))
        gs = GeneratorSet([g for g in gens if any(g)])
        members = _combinations(gs.gens, bound)
        for v in product(range(bound + 1), repeat=r):
            assert member(gs, v) == (v in members), (gs.gens, v)
        # the generator past the box leaves the complement's box too
        fits = GeneratorSet([g for g in gs.gens if max(g) <= bound])
        res = complement(fits, bound)
        assert set(res.points) == set(product(range(bound + 1), repeat=r)) \
            - members
        if res.certified:
            wider = _combinations(gs.gens, 2 * bound)
            assert all(v in wider for v in product(range(2 * bound + 1),
                                                   repeat=r)
                       if v not in res.points)


def _fill_row_by_row(grid, gens):
    """Reference for _partition_fill: the running sum one row at a time,
    along the first axis where g is positive."""
    shape = grid.shape
    for g in gens:
        if any(x >= s for x, s in zip(g, shape)):
            continue
        ax = next(i for i, x in enumerate(g) if x)
        dst = [slice(x, None) for x in g]
        src = [slice(None, s - x) for x, s in zip(g, shape)]
        for t in range(g[ax], shape[ax]):
            dst[ax], src[ax] = t, t - g[ax]
            grid[tuple(dst)] += grid[tuple(src)]


@pytest.mark.parametrize("dtype", [bool, np.int64])
def test_blocked_fill_matches_row_by_row(dtype):
    # 300 seeded grids per dtype, rank 1-3, with generators that may not
    # fit the box; an int grid counts the representations exactly.
    rng = np.random.default_rng(7)
    for _ in range(300):
        r = int(rng.integers(1, 4))
        shape = tuple(int(x) for x in rng.integers(1, (40, 14, 8)[r - 1],
                                                   size=r))
        gens = [tuple(int(x) for x in rng.integers(0, max(shape) + 2, size=r))
                for _ in range(rng.integers(1, 6))]
        gens = [g for g in gens if any(g)]
        grid = rng.integers(0, 3, size=shape).astype(dtype)
        want = grid.copy()
        _fill_row_by_row(want, gens)
        _partition_fill(grid, gens)
        assert np.array_equal(grid, want), (shape, gens)


@pytest.mark.parametrize("v,reason", [((1, 2, 3), "wrong dimension"),
                                      ((-1, 2), "not in N")])
def test_member_refuses_a_vector_outside_n_r(v, reason):
    with pytest.raises(SemigroupError, match=reason):
        member(GeneratorSet(GENS9), v)


def test_non_integral_vectors_are_refused_not_truncated():
    with pytest.raises(TypeError):
        GeneratorSet([(2.5,)])
    with pytest.raises(TypeError):
        member(GeneratorSet([(2,)]), (2.5,))
