import itertools

import pytest

from sl2bounds import (
    Weight, build, dominant_character, full_weight_values, weyl_dimension,
    weyl_alternating_character,
)
from sl2bounds.rootsys import RootSystemError


def mults_by_coords(ch):
    return {mu.coords: m for mu, m in ch.mults.items()}


def test_a1_adjoint():
    rs = build([("A", 1)])
    ch = dominant_character(rs, Weight((2,)))
    assert mults_by_coords(ch) == {(2,): 1, (0,): 1}


def test_a2_adjoint_against_oracle():
    rs = build([("A", 2)])
    lam = Weight((1, 1))
    ch = dominant_character(rs, lam)
    assert mults_by_coords(ch) == {(1, 1): 1, (0, 0): 2}
    assert ch.mults == weyl_alternating_character(rs, lam).mults


def test_g2_adjoint_dimension():
    rs = build([("G", 2)])
    ch = dominant_character(rs, Weight((0, 1)))
    assert ch.dimension(rs) == 14


def test_trivial_character():
    rs = build([("B", 2)])
    ch = dominant_character(rs, Weight((0, 0)))
    assert mults_by_coords(ch) == {(0, 0): 1}
    assert weyl_alternating_character(rs, Weight((0, 0))).mults == ch.mults


def test_highest_weight_present_with_mult_one():
    rs = build([("G", 2)])
    for lam in [(2, 0), (1, 1), (3, 2)]:
        ch = dominant_character(rs, Weight(lam))
        assert ch.mults[Weight(lam)] == 1


def test_oracle_agrees_a1_string():
    rs = build([("A", 1)])
    lam = Weight((5,))
    assert dominant_character(rs, lam).mults == \
        weyl_alternating_character(rs, lam).mults


@pytest.mark.parametrize("lam", list(itertools.product(range(4), repeat=2)))
def test_oracle_agrees_g2_small(lam):
    rs = build([("G", 2)])
    assert dominant_character(rs, Weight(lam)).mults == \
        weyl_alternating_character(rs, Weight(lam)).mults


def test_conservation_g2_box():
    rs = build([("G", 2)])
    for lam in itertools.product(range(0, 20, 3), repeat=2):
        ch = dominant_character(rs, Weight(lam))
        assert ch.dimension(rs) == weyl_dimension(rs, Weight(lam))


@pytest.mark.parametrize("fam,rank,lam", [
    ("A", 2, (2, 3)), ("A", 3, (1, 0, 2)), ("B", 2, (2, 2)),
    ("C", 3, (1, 1, 1)), ("A", 3, (0, 3, 1)), ("B", 2, (4, 1)),
])
def test_conservation_random_types(fam, rank, lam):
    rs = build([(fam, rank)])
    ch = dominant_character(rs, Weight(lam))
    assert ch.dimension(rs) == weyl_dimension(rs, Weight(lam))


def test_support_is_saturated_g2():
    # support must be exactly the dominant mu below lambda; cross-check the
    # key set against the oracle
    rs = build([("G", 2)])
    lam = Weight((2, 1))
    ch = dominant_character(rs, lam)
    oracle = weyl_alternating_character(rs, lam)
    assert set(ch.mults) == set(oracle.mults)
    assert all(m > 0 for m in ch.mults.values())


def test_full_weight_values_a1_string():
    rs = build([("A", 1)])
    assert full_weight_values(rs, Weight((3,)), (2,)) == \
        {3: 1, 1: 1, -1: 1, -3: 1}


def test_full_weight_values_g2_seven_dim_string():
    rs = build([("G", 2)])
    N = full_weight_values(rs, Weight((1, 0)), (2, 2))
    assert N == {6: 1, 4: 1, 2: 1, 0: 1, -2: 1, -4: 1, -6: 1}


def test_full_weight_values_zero_marks():
    rs = build([("A", 2)])
    lam = Weight((1, 1))
    assert full_weight_values(rs, lam, (0, 0)) == {0: 8}


def test_full_weight_values_rejects_bad_marks_length():
    rs = build([("A", 2)])
    with pytest.raises(RootSystemError):
        full_weight_values(rs, Weight((1, 0)), (2,))


def test_dominant_character_rejects_nondominant():
    rs = build([("A", 2)])
    with pytest.raises(RootSystemError):
        dominant_character(rs, Weight((-1, 0)))


def test_box_memo_is_bounded_and_shared_across_builds():
    from sl2bounds import character
    info = character._freudenthal_box.cache_info
    assert info().maxsize is not None
    lam = Weight((4, 3))
    first = dominant_character(build([("G", 2)]), lam)
    hits = info().hits
    again = dominant_character(build([("G", 2)]), lam)
    assert info().hits == hits + 1
    assert again == first
