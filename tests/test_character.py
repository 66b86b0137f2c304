import contextlib
import io
import itertools
from fractions import Fraction

import pytest

from sl2bounds import (
    CharacterError, Weight, build, dominant_character, full_weight_values,
    inner_product, root_to_weight_coords, weyl_dimension,
    weyl_alternating_character, weyl_orbit,
)
from sl2bounds import character, cli
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
    from sl2bounds import character, cli
    info = character._freudenthal_box.cache_info
    assert info().maxsize is not None
    lam = Weight((4, 3))
    first = dominant_character(build([("G", 2)]), lam)
    hits = info().hits
    again = dominant_character(build([("G", 2)]), lam)
    assert info().hits == hits + 1
    assert again == first


def _principal_values_from(rs, ch):
    """Weight-value histogram for h = 2 rho_vee from a dominant character,
    expanding each dominant weight to its Weyl orbit.  mu(h) is summed as
    <mu, alpha_vee> over the positive roots, independently of the coroot
    solve in full_weight_values."""
    d = rs.symmetrizers
    two_rho_vee = [Fraction(0)] * rs.rank  # coroot coordinates
    for r in rs.positive_roots:
        wr = root_to_weight_coords(rs, r)
        norm = inner_product(rs, wr, wr)
        for i in range(rs.rank):
            two_rho_vee[i] += Fraction(2 * r[i] * d[i]) / norm
    out = {}
    for mu, m in ch.mults.items():
        for nu in weyl_orbit(rs, mu):
            v = sum(c * x for c, x in zip(two_rho_vee, nu.coords))
            assert v.denominator == 1
            out[int(v)] = out.get(int(v), 0) + m
    return out


def _assert_three_ways(rs, lam):
    lam = Weight(lam)
    product = character._principal_weight_values(rs, lam)
    box = character._box_weight_values(rs, lam, [2] * rs.rank)
    oracle = _principal_values_from(rs, weyl_alternating_character(rs, lam))
    assert product == box == oracle, lam
    assert full_weight_values(rs, lam, (2,) * rs.rank) == product


def test_principal_values_three_ways_g2_box():
    rs = build([("G", 2)])
    for lam in itertools.product(range(8), repeat=2):
        _assert_three_ways(rs, lam)


@pytest.mark.parametrize("fam,rank,lam", [
    ("A", 1, (5,)), ("A", 2, (2, 1)), ("A", 3, (1, 0, 2)),
    ("A", 4, (1, 0, 1, 0)), ("B", 2, (1, 2)), ("B", 3, (1, 0, 1)),
    ("B", 4, (0, 1, 0, 1)), ("C", 2, (2, 1)), ("C", 3, (0, 1, 1)),
    ("C", 4, (1, 0, 0, 1)), ("D", 3, (1, 1, 0)), ("D", 4, (1, 0, 1, 1)),
    ("F", 4, (0, 0, 0, 1)), ("G", 2, (3, 2)),
], ids=lambda v: "".join(map(str, v)) if isinstance(v, tuple) else str(v))
def test_principal_values_three_ways_simple_types(fam, rank, lam):
    _assert_three_ways(build([(fam, rank)]), lam)


def test_principal_values_three_ways_non_simple():
    rs = build([("A", 1), ("G", 2)])
    for lam in [(0, 0, 0), (1, 1, 0), (2, 0, 1), (1, 2, 1)]:
        _assert_three_ways(rs, lam)


def test_principal_values_e6_against_freudenthal():
    # W(E6) has 51840 elements, past the alternating-sum oracle's cap, so
    # E6 is checked against Freudenthal and the Weyl dimension only.
    rs = build([("E", 6)])
    for lam in [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 1)]:
        lam = Weight(lam)
        product = character._principal_weight_values(rs, lam)
        assert product == character._box_weight_values(rs, lam, [2] * 6)
        assert sum(product.values()) == weyl_dimension(rs, lam)


def test_principal_values_reject_inexact_quotient(monkeypatch):
    # Without the highest root the product over the remaining positive
    # roots is not a polynomial, and the exactness check must say so.
    rs = build([("G", 2)])
    for key in ("roots", "roots_norm"):
        monkeypatch.setitem(rs._np, key, rs._np[key][:-1])
    with pytest.raises(CharacterError, match="not a polynomial"):
        character._principal_weight_values(rs, Weight((1, 0)))


def test_int64_headroom_check_fires(monkeypatch):
    rs = build([("G", 2)])
    lam = Weight((2, 1))
    uncached = character._freudenthal_box.__wrapped__
    assert uncached(rs, lam).dom[lam] == 1
    monkeypatch.setattr(character, "_INT64_LIMIT", 2**10)
    with pytest.raises(CharacterError, match="overflow int64"):
        uncached(rs, lam)
    monkeypatch.setattr(character, "_freudenthal_box", uncached)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(["character", "G", "2", "2", "1"])
    assert code == cli.EXIT_NUMERIC
    assert err.getvalue().startswith("numeric error:")
    assert err.getvalue().count("\n") == 1


# The spec weights of the benchmark's large-root-branching workload and the
# largest G2 table entry.
_LARGE_WEIGHTS = [
    ("B", 4, (3, 3, 3, 3)), ("C", 4, (3, 3, 3, 3)), ("D", 4, (4, 4, 4, 4)),
    ("F", 4, (2, 1, 1, 1)), ("E", 6, (1, 0, 0, 0, 1, 1)),
    ("B", 3, (6, 6, 6)), ("C", 3, (6, 6, 6)), ("A", 3, (10, 10, 10)),
    ("G", 2, (19, 19)),
]


@pytest.mark.parametrize("fam,rank,lam", _LARGE_WEIGHTS,
                         ids=[f"{f}{r}" for f, r, _ in _LARGE_WEIGHTS])
def test_int64_headroom_check_passes_large_characters(fam, rank, lam):
    rs = build([(fam, rank)])
    lam = Weight(lam)
    character._check_int64_headroom(rs, lam, character._box_kmax(rs, lam))
