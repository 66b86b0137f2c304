import dataclasses
import itertools
import json
import math
import random
from collections import Counter
from functools import lru_cache
from operator import mul
from pathlib import Path

import numpy as np
import pytest

from sl2bounds import (
    BranchingError, CharacterError, Sl2Embedding, Weight, build,
    dominant_character, full_weight_values, principal_embedding,
    root_embedding, sl2_decompose, weyl_dimension,
    weyl_alternating_character, weyl_orbit,
)
from sl2bounds import character, rootsys
from sl2bounds.bounds import _all_simple_types
from sl2bounds.rootsys import (RootSystemError, _inverse_int, _orbit_size,
                                _reflect_to_dominant, weight_to_root_coords)


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


def test_full_weight_values_zero_marks_past_int64():
    # The degree cap bounds nothing on a component whose marks are all 0,
    # so xi there may be near 2^63, or past the range of float64; the Levi
    # factor is its Weyl dimension, computed exactly, and an A1 factor with
    # nonzero marks still walks.
    a2 = build([("A", 2)])
    assert full_weight_values(a2, Weight((10**400, 0)), (0, 0)) == \
        {0: weyl_dimension(a2, Weight((10**400, 0)))}
    lam = Weight((6917529027641081856, 4611686018427387904))
    dim = weyl_dimension(a2, lam)
    assert full_weight_values(a2, lam, (0, 0)) == {0: dim}
    rs = build([("A", 2), ("A", 1)])
    assert full_weight_values(rs, Weight(lam.coords + (3,)), (0, 0, 2)) == \
        {3: dim, 1: dim, -1: dim, -3: dim}


def test_full_weight_values_rejects_bad_marks_length():
    rs = build([("A", 2)])
    with pytest.raises(RootSystemError):
        full_weight_values(rs, Weight((1, 0)), (2,))


def test_dominant_character_rejects_nondominant():
    rs = build([("A", 2)])
    with pytest.raises(RootSystemError):
        dominant_character(rs, Weight((-1, 0)))


def test_only_memo_is_the_sl2_record_of_four_shared_across_builds():
    # Every memo is keyed by sl2: the per-sl2 record, which carries its
    # coset table and its last certified decomposition (one lambda), is
    # the only one, bounded at four records, and a second build of the
    # same root system hits it.
    memos = {name for name, value in vars(character).items()
             if hasattr(value, "cache_info") and not isinstance(value, type)}
    assert memos == {"_sl2"}
    assert character._sl2.cache_info().maxsize == 4
    lam = Weight((4, 3))
    first = full_weight_values(build([("G", 2)]), lam, (1, 0))
    hits = character._sl2.cache_info().hits
    again = full_weight_values(build([("G", 2)]), lam, (1, 0))
    assert again == first
    assert character._sl2.cache_info().hits == hits + 1


@lru_cache(maxsize=None)
def _oracle_expansion(rs, lam):
    """(D q, m) for every weight nu = sum q_i alpha_i (rational q) of
    L(lambda), from the alternating-sum oracle with each dominant weight
    expanded to its Weyl orbit; m is the multiplicity and D a common
    denominator of the q."""
    ch = weyl_alternating_character(rs, lam)
    D = _inverse_int(rs.cartan)[0]
    return D, [([int(x * D) for x in weight_to_root_coords(rs, nu)], m)
               for mu, m in ch.mults.items() for nu in weyl_orbit(rs, mu)]


def _weight_values_from(expansion, marks):
    """Weight-value histogram for the h with alpha_i(h) = marks_i, summed
    as nu(h) = sum q_i marks_i over an oracle expansion, independently of
    the coroot solve in full_weight_values."""
    D, weights = expansion
    out = {}
    for q, m in weights:
        v, rem = divmod(sum(qi * x for qi, x in zip(q, marks)), D)
        assert rem == 0
        out[v] = out.get(v, 0) + m
    return out


def _record(rs, marks):
    """The per-sl2 record that _request reads for these marks: that of h,
    their dominant conjugate."""
    return character._sl2(rs, tuple(_reflect_to_dominant(marks, rs.cartan)[0]))


def _answer(path, rs, lam, marks):
    """What full_weight_values returns when this path answers: the path
    runs on the per-sl2 record of the marks, whose h is their dominant
    conjugate, and its row is read as the histogram lambda(h) - k ->
    row[k]."""
    s = _record(rs, marks)
    lam_h = character._lambda_of_h(rs, lam, s)
    return {lam_h - k: n for k, n in enumerate(path(rs, lam, s).tolist()) if n}


def _handed(rs, lam, s):
    """What _weight_row hands a formula path after lambda and s: the
    pairings, the numerator's length n = c . xi + 1 and the row dtype."""
    pairs = character._pairings(rs, lam.coords)
    dim = character._dimension(rs, pairs)[0]
    n = sum(map(mul, s.c, (x + 1 for x in lam.coords))) + 1
    return pairs, n, np.int64 if dim << s.e_count < 2**63 else object


def _product_row(rs, lam, s):
    return character._by_product(lam, s, *_handed(rs, lam, s))


def _coset_row(rs, lam, s):
    return character._by_cosets(rs, lam, s, *_handed(rs, lam, s))


def _by_product(rs, lam, marks):
    return _answer(_product_row, rs, lam, marks)


def _by_cosets(rs, lam, marks):
    return _answer(_coset_row, rs, lam, marks)


def _orbit_row(rs, lam, s):
    """The orbit expansion's row, with dim L(lambda) as _weight_row hands
    it in."""
    return character._by_orbits(rs, lam, s, weyl_dimension(rs, lam))


def _by_orbits(rs, lam, marks):
    return _answer(_orbit_row, rs, lam, marks)


def _assert_three_ways(rs, lam):
    lam = Weight(lam)
    marks = [2] * rs.rank
    product = _by_product(rs, lam, marks)
    orbits = _by_orbits(rs, lam, marks)
    oracle = _weight_values_from(_oracle_expansion(rs, lam), marks)
    assert product == orbits == oracle, lam
    assert full_weight_values(rs, lam, marks) == product


def test_principal_values_three_ways_g2_box():
    rs = build([("G", 2)])
    for lam in itertools.product(range(8), repeat=2):
        _assert_three_ways(rs, lam)


_SMALL_WEIGHTS = [
    ("A", 1, (5,)), ("A", 2, (2, 1)), ("A", 3, (1, 0, 2)),
    ("A", 4, (1, 0, 1, 0)), ("B", 2, (1, 2)), ("B", 3, (1, 0, 1)),
    ("B", 4, (0, 1, 0, 1)), ("C", 2, (2, 1)), ("C", 3, (0, 1, 1)),
    ("C", 4, (1, 0, 0, 1)), ("D", 3, (1, 1, 0)), ("D", 4, (1, 0, 1, 1)),
    ("F", 4, (0, 0, 0, 1)), ("G", 2, (3, 2)),
]


def _weight_id(v):
    return "".join(map(str, v)) if isinstance(v, tuple) else str(v)


@pytest.mark.parametrize("fam,rank,lam", _SMALL_WEIGHTS, ids=_weight_id)
def test_principal_values_three_ways_simple_types(fam, rank, lam):
    _assert_three_ways(build([(fam, rank)]), lam)


def test_principal_values_three_ways_non_simple():
    rs = build([("A", 1), ("G", 2)])
    for lam in [(0, 0, 0), (1, 1, 0), (2, 0, 1), (1, 2, 1)]:
        _assert_three_ways(rs, lam)


def _assert_root_sl2s_three_ways(rs, lam):
    """Parabolic sum, orbit expansion and alternating-sum oracle agree for
    the sl2 of every positive root.  A simple root's marks, such as
    (2, -1, 0, 0) in B4, are not dominant, so the parabolic sum must first
    conjugate them."""
    lam = Weight(lam)
    oracle = _oracle_expansion(rs, lam)
    for beta in rs.positive_roots:
        marks = root_embedding(rs, beta).marks
        parabolic = _by_cosets(rs, lam, marks)
        assert parabolic == _by_orbits(rs, lam, marks) \
            == _weight_values_from(oracle, marks), (lam, beta)
        assert full_weight_values(rs, lam, marks) == parabolic


@pytest.mark.parametrize("fam,rank,lam", _SMALL_WEIGHTS, ids=_weight_id)
def test_root_sl2_values_two_ways_simple_types(fam, rank, lam):
    _assert_root_sl2s_three_ways(build([(fam, rank)]), lam)


def test_root_sl2_values_two_ways_non_simple():
    rs = build([("A", 1), ("G", 2)])
    for lam in [(0, 0, 0), (1, 1, 0), (2, 0, 1), (1, 2, 1)]:
        _assert_root_sl2s_three_ways(rs, lam)


def test_root_sl2_values_two_ways_g2_box():
    rs = build([("G", 2)])
    for lam in itertools.product(range(8), repeat=2):
        _assert_root_sl2s_three_ways(rs, lam)


def test_marks_conjugate_to_dominant():
    # alpha_1 is a long root of B4, so its sl2 is conjugate to the
    # highest-root sl2, whose marks are dominant; lambda(h) follows the
    # conjugation.
    rs = build([("B", 4)])
    lam = Weight((0, 1, 0, 1))
    s = character._request(rs, lam, (2, -1, 0, 0), "full_weight_values")
    marks = s.h
    assert marks == tuple(root_embedding(rs, (1, 2, 2, 2)).marks) \
        == (0, 1, 0, 0)
    # h - h' = sum k_j alpha_j_vee, so lambda(h') = lambda(h) - k . lambda,
    # with lambda(h') = sum_j q_j alpha_j(h') for lambda = sum_j q_j alpha_j
    k = _reflect_to_dominant((2, -1, 0, 0), rs.cartan)[1]
    q = weight_to_root_coords(rs, lam)
    assert character._lambda_of_h(rs, lam, s) == \
        sum(map(mul, q, (2, -1, 0, 0))) - \
        sum(ki * li for ki, li in zip(k, lam.coords))
    assert full_weight_values(rs, lam, (2, -1, 0, 0)) == \
        _by_cosets(rs, lam, marks) == \
        _weight_values_from(_oracle_expansion(rs, lam), (2, -1, 0, 0))


def test_parabolic_cap_falls_back_to_orbit_expansion():
    # Every positive-root sl2 of the small weights, and the sum of the
    # highest root's and alpha_1's marks (h = theta_vee + alpha_1_vee, not
    # an sl2): the orbit expansion, which answers past the caps, gives the
    # coset sum's histograms, whichever path full_weight_values takes.
    for fam, rank, lam in _SMALL_WEIGHTS:
        rs, lam = build([(fam, rank)]), Weight(lam)
        marks = [root_embedding(rs, b).marks for b in rs.positive_roots]
        alpha_1 = root_embedding(rs, (1,) + (0,) * (rank - 1)).marks
        marks.append(tuple(a + b for a, b in zip(alpha_1, marks[-1])))
        for m in marks:
            if list(m) != [2] * rank:
                assert _by_cosets(rs, lam, m) == _by_orbits(rs, lam, m) \
                    == full_weight_values(rs, lam, m), (lam, m)


def test_one_solve_and_one_conjugation_per_request(monkeypatch):
    # The marks are conjugated once per request, by _request, which looks
    # up the record of their dominant conjugate h, and lambda(h) is solved
    # once, from that record; principal and non-principal requests take
    # the same steps.
    calls = []
    for name in ("_sl2", "_lambda_of_h"):
        real = getattr(character, name)
        monkeypatch.setattr(character, name, lambda *a, _r=real, _n=name:
                            calls.append((_n, getattr(a[-1], "h", a[-1])))
                            or _r(*a))
    rs = build([("B", 3)])
    lam = Weight((1, 0, 1))
    full_weight_values(rs, lam, (2, 2, 2))
    assert calls == [("_sl2", (2, 2, 2)), ("_lambda_of_h", (2, 2, 2))]
    calls.clear()
    marks = root_embedding(rs, (1, 0, 0)).marks
    assert marks != (0, 1, 0)
    full_weight_values(rs, lam, marks)
    assert calls == [("_sl2", (0, 1, 0)), ("_lambda_of_h", (0, 1, 0))]
    # sl2_decompose looks the record up once, and on a hit solves nothing
    for solved in ([("_lambda_of_h", (2, 2, 2))], []):
        calls.clear()
        sl2_decompose(rs, lam, Sl2Embedding((2, 2, 2)))
        assert calls == [("_sl2", (2, 2, 2))] + solved


def test_conjugate_sl2s_share_one_coset_table(answered, builds):
    # alpha_1 is a long root of B4, so its sl2 has the dominant marks of
    # the highest-root sl2: both get one record, and read the one table
    # that it carries.
    rs = build([("B", 4)])
    lam = Weight((0, 1, 0, 1))
    highest = root_embedding(rs, (1, 2, 2, 2)).marks
    simple = root_embedding(rs, (1, 0, 0, 0)).marks
    assert simple == (2, -1, 0, 0)
    assert character._request(rs, lam, highest, "full_weight_values") is \
        character._request(rs, lam, simple, "full_weight_values")
    first = full_weight_values(rs, lam, highest)
    assert full_weight_values(rs, lam, simple) == first
    assert builds == [(0, 1, 0, 0)]
    assert answered == {"_by_cosets": 2}


@pytest.mark.parametrize("fam,rank,lam", [("B", 4, (0, 1, 0, 1)),
                                          ("F", 4, (0, 0, 0, 1))],
                         ids=["B4", "F4"])
def test_root_sl2s_in_turn_build_one_table_per_root_length(builds, fam,
                                                           rank, lam):
    # The memo is keyed by the dominant h, so the root sl2s asked for in
    # turn, most by marks that are not dominant, take two records, one per
    # root length, and build one coset table each.  A memo keyed by the
    # marks as spelled would hold two sl2s in its four entries and build
    # 5 tables for B4's 16 roots, 7 for F4's 24.
    rs, lam = build([(fam, rank)]), Weight(lam)
    for beta in rs.positive_roots:
        full_weight_values(rs, lam, root_embedding(rs, beta).marks)
    assert len(builds) == len(set(builds)) == 2


def test_spellings_that_are_not_dominant_hit_their_records(builds):
    # Three E6 sl2s named by the marks of s_i h, h = omega_i_vee for i =
    # 1, 2, 6, in turn for two rounds: the first round builds each table,
    # the second hits each record.  Keyed by the marks as spelled, every
    # request would take two entries and rebuild its table: 6 builds, no
    # hit.
    rs, lam = build([("E", 6)]), Weight((1, 0, 0, 0, 0, 1))
    marks = [tuple(int(j == i) - a for j, a in enumerate(rs.cartan[i]))
             for i in (0, 1, 5)]
    assert not any(Weight(m).is_dominant for m in marks)
    for _ in range(2):
        for m in marks:
            full_weight_values(rs, lam, m)
    assert builds == [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0),
                      (0, 0, 0, 0, 0, 1)]
    assert character._sl2.cache_info().hits == 3


def test_e7_subregular_coset_sum_matches_orbit_expansion():
    # 1451520 cosets, past the 10^5 that PARABOLIC_CAP used to allow: the
    # coset sum answers under COSET_CAP and agrees with the orbit expansion.
    rs = build([("E", 7)])
    marks = (2, 2, 2, 0, 2, 2, 2)
    assert character._orbit_size(rs, [1, 1, 1, 0, 1, 1, 1]) == 1451520
    for j in (0, 2, 6):
        lam = Weight(tuple(int(i == j) for i in range(7)))
        assert _by_cosets(rs, lam, marks) == _by_orbits(rs, lam, marks), lam


def test_small_weight_past_a_million_cosets_builds_no_table(answered):
    # E8 with J of type A4 + A1 has 2903040 cosets; its 248-dimensional
    # adjoint is answered by the orbit expansion, and no table is built.
    rs = build([("E", 8)])
    marks = (0, 0, 0, 0, 2, 0, 2, 2)
    s = character._sl2(rs, marks)
    assert s.cosets == 2903040
    N = full_weight_values(rs, Weight((0,) * 7 + (1,)), marks)
    assert character._sl2(rs, marks) is s and s.table is None
    assert answered == {"_by_orbits": 1}
    assert all(N[-v] == n for v, n in N.items())
    assert sum(N.values()) == 248


def _path(answered, rs, lam, marks):
    """The one path that answers lambda at these marks, read from the spy."""
    before = answered.copy()
    full_weight_values(rs, lam, marks)
    (name,) = answered - before
    return name


def test_a_lambda_takes_one_path_in_either_order(monkeypatch, answered):
    # The path is a function of lambda and h: the 38 weights that the E6
    # subregular bound restricts (43 restrictions), asked in its order and
    # in reverse, each from an empty memo, take the same path per weight.
    # A rule that sent lambda to the orbits only while h had no table would
    # send its first five to the orbits in its order and none in reverse.
    from sl2bounds import b_bound, sl2branch
    rs, marks = build([("E", 6)]), (2, 2, 2, 0, 2, 2)
    asked, real = [], sl2branch._weight_row
    monkeypatch.setattr(sl2branch, "_weight_row", lambda rs, lam, s:
                        asked.append(lam) or real(rs, lam, s))
    b_bound(rs, Sl2Embedding(marks=marks))
    lams = list(dict.fromkeys(asked))
    assert (len(lams), len(asked)) == (38, 43)
    paths = []
    for order in (lams, lams[::-1]):
        character._sl2.cache_clear()
        paths.append({lam: _path(answered, rs, lam, marks) for lam in order})
    assert paths[0] == paths[1]
    assert Counter(paths[0].values()) == {"_by_orbits": 19, "_by_cosets": 19}


def test_a_small_lambda_takes_one_path_with_or_without_a_table(answered,
                                                              builds):
    # A weight past the 25920 cosets of the E6 subregular h builds its
    # table; L(0) and the adjoint, asked after it and again once four
    # other sl2s have evicted h from the memo, are expanded over their
    # orbits both times and never read the table.
    rs, marks = build([("E", 6)]), (2, 2, 2, 0, 2, 2)
    small = [Weight((0,) * 6), Weight((0, 1, 0, 0, 0, 0))]
    assert _path(answered, rs, Weight((1, 1, 0, 0, 0, 1)), marks) \
        == "_by_cosets"
    assert builds == [marks]
    first = [_path(answered, rs, lam, marks) for lam in small]
    for i in range(4):
        character._sl2(rs, tuple(int(j == i) for j in range(6)))
    assert character._sl2(rs, marks).table is None
    assert [_path(answered, rs, lam, marks) for lam in small] == first \
        == ["_by_orbits"] * 2
    assert builds == [marks]


def test_e6_subregular_coset_sum_matches_orbit_expansion():
    rs = build([("E", 6)])
    marks = (2, 2, 2, 0, 2, 2)
    for lam in [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)]:
        lam = Weight(lam)
        assert _by_cosets(rs, lam, marks) == _by_orbits(rs, lam, marks), lam


def _corrupt_levi_denominator(monkeypatch):
    real = character._coset_table
    monkeypatch.setattr(character, "_coset_table", lambda rs, s:
                        real(rs, s)._replace(den=real(rs, s).den + 1))


def _levi_pairings(rs, lam):
    """<xi, beta_vee> for every beta > 0, xi = lambda + rho, in Python ints
    from the coroots: the reference for the pairings of _by_cosets."""
    xi = [x + 1 for x in lam.coords]
    return [sum(map(mul, c, xi)) for c in rs._np["coroots"].tolist()]


def _largest_levi_product(rs, lam, marks):
    """An upper bound on every coset's product of Levi pairings: the
    largest <xi, beta_vee> to the power |Phi_J+|."""
    vanishing = int((rs._np["roots"] @ marks == 0).sum())
    return max(_levi_pairings(rs, lam)) ** vanishing


@pytest.mark.parametrize("lam,int64", [((0,) * 6, True), ((100,) * 6, False)])
def test_levi_exactness_check_fires_in_both_branches(monkeypatch, lam, int64):
    # The highest-root sl2 of E6: J is A5, |Phi_J+| = 15, 72 cosets.  At
    # lambda = 0 the products run in int64; at 100 rho they are past 2^63
    # and run in Python ints.  A wrong denominator must be caught in
    # either.
    rs = build([("E", 6)])
    lam = Weight(lam)
    marks = root_embedding(rs, rs.positive_roots[-1]).marks
    assert (_largest_levi_product(rs, lam, marks) < 2**63) == int64
    _corrupt_levi_denominator(monkeypatch)
    with pytest.raises(CharacterError, match="Levi dimension .* not integral"):
        _by_cosets(rs, lam, marks)


def test_levi_products_past_int64_stay_exact():
    # xi = 101 rho is far below 2^32, but the products of 15 Levi pairings
    # pass 2^63 (the identity coset's already does), so they must not run
    # in int64.
    rs = build([("E", 6)])
    lam = Weight((100,) * 6)
    emb = root_embedding(rs, rs.positive_roots[-1])
    levi = rs._np["roots"][rs._np["roots"] @ emb.marks == 0]
    assert len(levi) == 15
    assert math.prod(((levi * rs.symmetrizers) @ ([101] * 6)).tolist()) > 2**63
    N = _by_cosets(rs, lam, emb.marks)
    assert all(N[-v] == n for v, n in N.items())
    assert sum(N.values()) == weyl_dimension(rs, lam)
    assert sl2_decompose(rs, lam, emb).dimension() == weyl_dimension(rs, lam)


@pytest.mark.parametrize("lam", [(24, 0, 0, 0, 0, 0, 0),
                                 (0, 0, 0, 12, 0, 0, 0)], ids=_weight_id)
def test_coset_sum_is_bounded_by_its_largest_product(lam):
    # D7 at marks (0,0,0,2,0,0,0): 560 cosets, |Phi_J+| = 12.  560 times
    # max <xi, beta_vee>^12 / den is about 2^64, but 560 times the largest
    # quotient is 2^38 at 24 omega_1 and 2^48 at 12 omega_4, so the sum
    # runs in int64.  It must match the sum in Python ints over the same
    # table, divided by prod (1 - t^e) term by term.
    rs = build([("D", 7)])
    lam = Weight(lam)
    s = character._sl2(rs, (0, 0, 0, 2, 0, 0, 0))
    t = character._coset_table(rs, s)
    assert t.vanish.shape == (560, 12)
    xi = [x + 1 for x in lam.coords]
    pairs = _levi_pairings(rs, lam)
    prods = [math.prod(pairs[b] for b in row) // t.den
             for row in t.vanish.tolist()]
    assert 560 * max(prods) < 2**63 <= 560 * (max(pairs) ** 12 // t.den)
    poly = [0] * (sum(map(mul, s.c, xi)) + 1)
    for row, sign, p in zip(t.K.tolist(), t.signs.tolist(), prods):
        poly[sum(map(mul, row, xi))] += sign * p
    for e, times in s.groups:
        for _ in range(times):
            for i in range(e, len(poly)):
                poly[i] += poly[i - e]
    row = _coset_row(rs, lam, s).tolist()
    assert row == poly[:len(row)] and not any(poly[len(row):])
    assert sum(row) == weyl_dimension(rs, lam)


def test_coset_sum_past_int64_stays_exact():
    # A1+A1+A2 at marks (0,0,2,2): six cosets, each with the product xi_1
    # xi_2 of the two A1 pairings (den = 1), just below 2^63 at xi_1 = xi_2
    # = 3037000499.  The two cosets of length 1 share a degree, so their sum
    # passes 2^63 and must not run in int64.
    rs = build([("A", 1), ("A", 1), ("A", 2)])
    xi = 3037000499
    assert xi**2 < 2**63 <= 2 * xi**2
    lam = Weight((xi - 1, xi - 1, 0, 0))
    assert _by_cosets(rs, lam, (0, 0, 2, 2)) == {0: xi**2}


def test_each_request_forms_its_numbers_once(monkeypatch, answered):
    # The dispatch forms the pairings and dim L(lambda) once per request
    # and hands them to the path that answers, and lambda is checked once,
    # in _request: no path and no second dimension call forms them again.
    # A cold and a warm coset sum at marks (2, 3), where h* != h, the
    # principal sl2 of G2, and E8's adjoint at marks that the orbit
    # expansion answers.  No sl2 has the marks of the first two or of the
    # last, so their restrictions are formed and then refused.
    calls = Counter()
    for module in (rootsys, character):
        for name in ("_pairings", "_dimension", "_check_weight",
                     "weyl_dimension"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, lambda *a, _name=name,
                                    _real=getattr(module, name):
                                    calls.update([_name]) or _real(*a))
    a2, g2, e8 = build([("A", 2)]), build([("G", 2)]), build([("E", 8)])
    adjoint = Weight((0,) * 7 + (1,))
    requests = [
        (a2, Weight((3, 0)), Sl2Embedding((2, 3)), "_by_cosets",
         "not symmetric at 7"),
        (a2, Weight((3, 0)), Sl2Embedding((2, 3)), "_by_cosets",
         "not symmetric at 7"),
        (g2, Weight((4, 3)), principal_embedding(g2), "_by_product", None),
        (e8, adjoint, Sl2Embedding((0, 0, 0, 0, 2, 0, 2, 2)), "_by_orbits",
         "negative multiplicity for V(4)"),
    ]
    for rs, lam, emb, path, refused in requests:
        calls.clear()
        answered.clear()
        try:
            sl2_decompose(rs, lam, emb)
            assert refused is None, emb
        except BranchingError as exc:
            assert refused is not None and refused in str(exc), emb
        assert answered == {path: 1}, emb
        assert calls == {"_pairings": 1, "_dimension": 1,
                         "_check_weight": 1}, emb


def test_principal_degree_cap_boundary(answered):
    # A1 L(n) under the principal sl2: the product formula's polynomial has
    # degree n + 1, so n = 99999 is the last request it answers; past it
    # the orbit expansion does (and refuses L(100000) at the weight cap).
    rs = build([("A", 1)])
    assert full_weight_values(rs, Weight((99999,)), (2,)) == \
        {v: 1 for v in range(-99999, 100000, 2)}
    assert answered == {"_by_product": 1}
    with pytest.raises(CharacterError, match="weight cap"):
        full_weight_values(rs, Weight((100000,)), (2,))
    assert answered == {"_by_product": 1, "_by_orbits": 1}


def test_coset_degree_cap_boundary(answered):
    # A2 under its highest-root sl2, marks (1, 1): the coset sum's
    # polynomial has degree c . xi = 2 (lambda_1 + lambda_2 + 2), so
    # (49998, 0) is the last lambda_1 it answers; past it the orbit
    # expansion does (and refuses L(49999, 0) at the weight cap).
    rs = build([("A", 2)])
    assert tuple(root_embedding(rs, (1, 1)).marks) == (1, 1)
    assert character._sl2(rs, (1, 1)).c == (2, 2)
    lam = Weight((49998, 0))
    assert sum(full_weight_values(rs, lam, (1, 1)).values()) == \
        weyl_dimension(rs, lam)
    assert answered == {"_by_cosets": 1}
    with pytest.raises(CharacterError, match="weight cap"):
        full_weight_values(rs, Weight((49999, 0)), (1, 1))
    assert answered == {"_by_cosets": 1, "_by_orbits": 1}


_SIMPLE_TYPES = ([("A", n) for n in range(1, 9)]
                 + [("B", n) for n in range(2, 9)]
                 + [("C", n) for n in range(3, 9)]
                 + [("D", n) for n in range(4, 9)]
                 + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


@pytest.mark.parametrize("fam,rank", _SIMPLE_TYPES,
                         ids=[f"{f}{r}" for f, r in _SIMPLE_TYPES])
def test_degree_formula_matches_reflection_of_xi(fam, rank):
    # Both caps compare the numerator's degree (xi - w0 xi)(h) = c . xi,
    # with c from the per-sl2 record.  For the principal h, every root
    # sl2, and h = theta_vee + alpha_1_vee (not an sl2; h* != h in type A)
    # it must equal -k . h, k the root coordinates of -xi - xi* from
    # reflecting -xi to dominant.  c is also the largest row of the coset
    # table (the K of w0), which is why _by_cosets may clip xi at
    # PARABOLIC_CAP and stay in int32.
    rs = build([(fam, rank)])
    rng = random.Random(rank)
    marks = [root_embedding(rs, b).marks for b in rs.positive_roots]
    alpha_1 = root_embedding(rs, (1,) + (0,) * (rank - 1)).marks
    marks += [tuple(a + b for a, b in zip(alpha_1, marks[-1])), (2,) * rank]
    columns = tuple(zip(*rs.cartan))
    for m in marks:
        s = _record(rs, m)
        for _ in range(3):
            xi = [rng.randint(1, 50) for _ in range(rank)]
            k = _reflect_to_dominant([-x for x in xi], columns)[1]
            assert sum(map(mul, s.c, xi)) == -sum(map(mul, k, s.h)), (m, xi)
        if s.cosets <= 2000:
            K = character._coset_table(rs, s).K.tolist()
            assert list(s.c) in K, m
            assert [max(col) for col in zip(*K)] == list(s.c), m


def test_conjugates_of_the_principal_marks_take_the_product_formula(
        answered):
    # Marks Weyl-conjugate to (2, ..., 2) have the principal histogram and
    # are answered by the product formula alone.  In E8 the coset sum would
    # need |W(E8)| cosets, past COSET_CAP, and the orbit expansion refuses
    # L(2, 2, 0, ..., 0) at the weight cap.
    g2 = build([("G", 2)])
    box = [Weight(lam) for lam in itertools.product(range(4), repeat=2)]
    principal = [full_weight_values(g2, lam, (2, 2)) for lam in box]
    assert [full_weight_values(g2, lam, (-2, 8)) for lam in box] == principal
    e8 = build([("E", 8)])
    lam = Weight((2, 2, 0, 0, 0, 0, 0, 0))
    N = full_weight_values(e8, lam, (2, 2, 2, 2, 2, 2, 4, -2))
    assert N == full_weight_values(e8, lam, (2,) * 8)
    assert sum(N.values()) == weyl_dimension(e8, lam)
    assert answered == {"_by_product": 2 * len(box) + 2}


def _record_exponents(s):
    """The exponents e of the record's denominator prod (1 - t^e), listed
    from its groups, after checking its sum, max and count."""
    exps = [e for e, times in s.groups for _ in range(times)]
    assert [e for e, _ in s.groups] == sorted({e for e in exps})
    assert (s.e_sum, s.e_max, s.e_count) == (
        sum(exps), max(exps, default=0), len(exps))
    return exps


@pytest.mark.parametrize("fam,rank", _SIMPLE_TYPES,
                         ids=[f"{f}{r}" for f, r in _SIMPLE_TYPES])
def test_product_formula_shares_the_principal_denominator(fam, rank):
    # Kostant: the product formula's exponents 2 ht(alpha_vee) and the
    # alpha(2 rho_vee) = 2 ht(alpha) agree as multisets, since Phi and its
    # dual have the same height partition; the record holds the latter.
    rs = build([(fam, rank)])
    coroot_heights = sorted(2 * sum(c) for c in rs._np["coroots"].tolist())
    root_heights = sorted(2 * sum(a) for a in rs.positive_roots)
    assert coroot_heights == root_heights == \
        _record_exponents(character._sl2(rs, (2,) * rank))
    if fam in "BCFG":   # where roots and coroots differ as coordinates
        assert sorted(rs._np["coroots"].tolist()) != \
            sorted(map(list, rs.positive_roots))


_RANK_6 = [(f, r) for f, r in _SIMPLE_TYPES if r <= 6]


@pytest.mark.parametrize("fam,rank", _RANK_6,
                         ids=[f"{f}{r}" for f, r in _RANK_6])
def test_root_sl2_record_holds_the_positive_root_values(fam, rank):
    # The record's exponents are the alpha(h) > 0 of the dominant h; the
    # multiset {alpha(h) : alpha(h) > 0} is Weyl-invariant, so it is read
    # here from the root's own marks, |alpha(marks)| over alpha > 0.
    rs = build([(fam, rank)])
    for beta in rs.positive_roots:
        marks = root_embedding(rs, beta).marks
        values = (abs(sum(map(mul, a, marks))) for a in rs.positive_roots)
        assert _record_exponents(_record(rs, marks)) == \
            sorted(v for v in values if v), beta


def _reflected_record(rs, marks):
    """The per-sl2 record by reflection, the reference for _sl2: -h
    reflected to dominant gives h* and -h - h* = sum k_j alpha_j_vee, so
    c = -k; the cosets are rootsys._orbit_size of h.  y, den times the
    coroot coordinates of h, is solved from the marks of the coroots and
    checked in integers: alpha_i(sum_j y_j alpha_j_vee) = den h_i."""
    h = tuple(_reflect_to_dominant(marks, rs.cartan)[0])
    k = _reflect_to_dominant([-m for m in h], rs.cartan)[1]
    den = _inverse_int(rs.cartan)[0]
    y = np.linalg.solve(np.array(rs.cartan, float).T, np.array(h) * den)
    y = tuple(int(v) for v in y.round())
    assert [sum(map(mul, col, y)) for col in zip(*rs.cartan)] == \
        [den * x for x in h]
    alpha_h = rs._np["roots"] @ np.array(h, np.int64)
    exps = alpha_h[alpha_h > 0].tolist()
    return character._Sl2(h, y, tuple(-x for x in k), _orbit_size(rs, h),
                          tuple(sorted(Counter(exps).items())), sum(exps),
                          max(exps, default=0), len(exps))


# every simple type of rank <= 4, C2 and D3 included, then D5, E6 and two
# products
_RECORD_TYPES = ([[(s.family, s.rank)] for s in _all_simple_types(4)]
                 + [[("D", 5)], [("E", 6)], [("A", 1), ("G", 2)],
                    [("A", 2), ("B", 2)]])


@pytest.mark.parametrize("comps", _RECORD_TYPES,
                         ids=["+".join(f"{f}{r}" for f, r in c)
                              for c in _RECORD_TYPES])
def test_record_matches_reflection_on_small_marks(comps):
    # c from the node permutation of -w0 and the cosets from the root
    # heights, against the two reflections and _orbit_size, on the
    # dominant conjugate of every marks vector with entries in {-1, 0, 1,
    # 2}, as _request looks it up.
    rs = build(comps)
    zero = Weight((0,) * rs.rank)
    for marks in itertools.product((-1, 0, 1, 2), repeat=rs.rank):
        assert character._request(rs, zero, marks, "full_weight_values") \
            == _reflected_record(rs, marks), marks


def test_record_refuses_a_non_integral_h_plus_h_star(monkeypatch):
    # -w0 swaps A2's nodes; with sigma taken as the identity, h + h* for
    # h = (1, 0) would be 2 omega_1_vee, whose coroot coordinates are
    # (4/3, 2/3).
    rs = build([("A", 2)])
    assert rs._np["sigma"] == (1, 0)
    monkeypatch.setitem(rs._np, "sigma", (0, 1))
    with pytest.raises(CharacterError, match="not integral"):
        character._sl2.__wrapped__(rs, (1, 0))


_RANK_4 = [(f, r) for f, r in _SIMPLE_TYPES if r <= 4]


@pytest.mark.parametrize("fam,rank", _RANK_4,
                         ids=[f"{f}{r}" for f, r in _RANK_4])
def test_product_rows_match_orbit_rows_on_a_seeded_box(fam, rank):
    # The product formula with the record's denominator against the orbit
    # expansion, row for row, including B, C, F and G, where roots and
    # coroots differ.
    rs, h = build([(fam, rank)]), (2,) * rank
    s = character._sl2(rs, h)
    box = list(itertools.product(range(3), repeat=rank))
    for lam in random.Random(rank).sample(box, min(6, len(box))):
        lam = Weight(lam)
        assert np.array_equal(_product_row(rs, lam, s),
                              _orbit_row(rs, lam, s)), lam


def test_principal_values_e6_against_freudenthal():
    # E6's box is past the alternating-sum oracle's cap even at lambda = 0,
    # so E6 is checked against Freudenthal and the Weyl dimension only.
    rs = build([("E", 6)])
    for lam in [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 1)]:
        lam = Weight(lam)
        product = _by_product(rs, lam, [2] * 6)
        assert product == _by_orbits(rs, lam, [2] * 6)
        assert sum(product.values()) == weyl_dimension(rs, lam)


@pytest.mark.parametrize("fam,rank,lam,int64", [
    ("E", 7, (1, 0, 0, 0, 0, 0, 0), False),
    ("E", 7, (0, 0, 0, 0, 0, 0, 1), False),
    ("E", 6, (1, 1, 1, 1, 0, 0), True),     # dim 115287744 < 2^27
    ("E", 6, (0, 0, 0, 2, 0, 2), False),    # dim 136547775 >= 2^27
], ids=["E7-1000000", "E7-0000001", "E6-below", "E6-above"])
def test_product_row_dtype_boundary(answered, fam, rank, lam, int64):
    # The product formula runs in int64 iff dim L(lambda) 2^|Phi+| < 2^63:
    # never in E7 (|Phi+| = 63), and in E6 (|Phi+| = 36) iff dim < 2^27.
    # On either side its row is the orbit expansion's.  The dispatch sets
    # the dtype, so the row is taken through it.
    rs, lam, h = build([(fam, rank)]), Weight(lam), (2,) * rank
    dim = weyl_dimension(rs, lam)
    assert (dim << len(rs.positive_roots) < 2**63) == int64
    s = character._sl2(rs, h)
    product = character._weight_row(rs, lam, s)[1]
    assert answered == {"_by_product": 1}
    assert (product.dtype == np.int64) == int64
    assert np.array_equal(product, _orbit_row(rs, lam, s))
    assert sum(product.tolist()) == dim


def _with_denominator(s, exps):
    """The per-sl2 record s with prod_e (1 - t^e) as its denominator."""
    return s._replace(groups=tuple(sorted(Counter(exps).items())),
                      e_sum=sum(exps), e_max=max(exps), e_count=len(exps))


def test_product_numerator_past_int64_stays_exact(monkeypatch):
    # 70 copies of A1's positive coroot make the numerator (1 - t^4)^70,
    # whose middle terms pass 2^63, and with 70 copies of its denominator
    # (1 - t^2) the row that of (1 + t^2)^70: the dispatch's bound dim
    # 2^|Phi+| must put the numerator in Python ints too.  c is scaled with
    # the coroots, so that c . xi is the numerator's degree, 280.
    rs = build([("A", 1)])
    monkeypatch.setitem(rs._np, "coroots",
                        np.repeat(rs._np["coroots"], 70, axis=0))
    assert math.comb(70, 35) > 2**63
    s = _with_denominator(character._sl2(rs, (2,)), [2] * 70)
    row = character._weight_row(rs, Weight((1,)), s._replace(c=(140,)))[1]
    assert row[::2].tolist() == [math.comb(70, k) for k in range(71)]
    assert not row[1::2].any()


def test_orbit_row_past_int64_stays_exact(monkeypatch):
    # Multiplicities scaled by 2^62 put dim L(lambda) past 2^63, so the
    # orbit expansion must add its counts in Python ints, not wrap int64.
    rs = build([("B", 3)])
    lam, s = Weight((1, 0, 1)), character._sl2(rs, (0, 1, 0))
    want = _orbit_row(rs, lam, s)
    assert want.dtype == np.int64
    real = character._dominant_weights
    monkeypatch.setattr(character, "_dominant_weights", lambda rs, lam: tuple(
        (mu, k, m << 62) for mu, k, m in real(rs, lam)))
    dim = weyl_dimension(rs, lam) << 62
    row = character._by_orbits(rs, lam, s, dim)
    assert row.dtype == object
    assert row.tolist() == [n << 62 for n in want.tolist()]
    assert sum(row.tolist()) == dim


@pytest.mark.parametrize("fam,rank,lam", _SMALL_WEIGHTS, ids=_weight_id)
def test_coset_sum_in_chunks_matches_orbit_expansion(monkeypatch, fam, rank,
                                                     lam):
    # Chunks of 7 rows: the coset sum over every root sl2 of the small
    # weights, table and sum both built in chunks, is the orbit
    # expansion's; from rank 3 on, some table is split with a short last
    # chunk.
    monkeypatch.setattr(character, "COSET_CHUNK", 7)
    rs, lam = build([(fam, rank)]), Weight(lam)
    sizes = set()
    for beta in rs.positive_roots:
        marks = root_embedding(rs, beta).marks
        assert _by_cosets(rs, lam, marks) == _by_orbits(rs, lam, marks), beta
        sizes.add(_record(rs, marks).cosets)
    assert any(n > 7 and n % 7 for n in sizes) or rank <= 2, sizes


def _walked_table(monkeypatch, rs, s):
    """The coset table of the record s built by the half walk and its w0
    images, the construction of every h that is not a coroot."""
    with monkeypatch.context() as m:
        m.setattr(character, "_coroot", lambda rs, h: None)
        return character._coset_table(rs, s)


def test_coset_sum_past_int64_in_a_middle_chunk(monkeypatch, scatter_dtypes):
    # L(omega_2) at D4's highest-root h (J = 3 A1, |Phi_J+| = 3, 24 cosets,
    # den = 1, chunks of 3): pairings scaled by f, through _pairings, stay
    # below 2^53 and every product below 2^62, so each chunk's float64
    # products prove its int64 products; but the running bound passes 2^63
    # in the second chunk, and so does a numerator coefficient: a sum that
    # stayed in int64 would wrap.  The table's den is not scaled, so the
    # row scales by f^3.
    # The rows are in the walk's order, which puts the crossing in the
    # second chunk; the table read off the coroots orders them otherwise.
    monkeypatch.setattr(character, "COSET_CHUNK", 3)
    rs, lam = build([("D", 4)]), Weight((0, 1, 0, 0))
    s = character._sl2(rs, (0, 1, 0, 0))
    s.table = t = _walked_table(monkeypatch, rs, s)
    xi = [x + 1 for x in lam.coords]
    pairs = _levi_pairings(rs, lam)
    prods = [math.prod(pairs[i] for i in v) for v in t.vanish.tolist()]
    numerator = Counter()
    for k, sign, p in zip((t.K @ xi).tolist(), t.signs.tolist(), prods):
        numerator[k] += sign * p
    f = 408808
    bounds = list(itertools.accumulate(
        3 * max(prods[a:a + 3]) for a in range(0, len(prods), 3)))
    assert t.vanish.shape == (24, 3) and t.den == 1
    assert f * max(pairs) < 2**53 and f**3 * max(prods) < 2**62
    assert f**3 * bounds[0] < 2**63 <= f**3 * bounds[1]
    assert f**3 * max(map(abs, numerator.values())) >= 2**63
    real = character._pairings
    monkeypatch.setattr(character, "_pairings",
                        lambda rs, lam: real(rs, lam) * f)
    row = _coset_row(rs, lam, s)
    assert scatter_dtypes == [np.int64] * 8
    assert row.tolist() == [
        f**3 * n for n in _coset_row_in_python_ints(rs, lam, s).tolist()]


def _coset_row_in_python_ints(rs, lam, s):
    """The coset sum over the table of s, every product and sum in Python
    ints: the object-dtype path, against which the int64 proofs of
    _by_cosets are checked."""
    t = s.table
    xi = [x + 1 for x in lam.coords]
    pairs = _levi_pairings(rs, lam)
    n = sum(map(mul, s.c, xi)) + 1
    poly = np.zeros(n + s.e_max, object)
    for k, sign, v in zip((t.K @ xi).tolist(), t.signs.tolist(),
                          t.vanish.tolist()):
        prod, rem = divmod(math.prod(pairs[i] for i in v), t.den)
        assert rem == 0
        poly[k] += sign * prod
    return character._quotient(poly, n, s, lam)


@pytest.fixture
def scatter_dtypes(monkeypatch):
    """The dtype of the values each np.add.at of the character module adds,
    in order: one per chunk of a coset sum."""
    dtypes = []

    class Add:
        def at(self, a, index, values):
            dtypes.append(values.dtype)
            np.add.at(a, index, values)

        def __getattr__(self, name):
            return getattr(np.add, name)

    class Numpy:
        add = Add()

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(character, "np", Numpy())
    return dtypes


# A5 at h = (0, 1, 0, 0, 0): J of type A1 + A3, |Phi_J+| = 7, 15 cosets.
_A5_H = (0, 1, 0, 0, 0)


def _chunk_products(rs, lam, s, size):
    """Per chunk of the table of s, the largest exact product of the
    Levi pairings, and max <xi, beta_vee> ** |Phi_J+|, a bound on them
    all."""
    pairs = _levi_pairings(rs, lam)
    prods = [math.prod(pairs[i] for i in v) for v in s.table.vanish.tolist()]
    return ([max(prods[a:a + size]) for a in range(0, len(prods), size)],
            max(pairs) ** s.table.vanish.shape[1])


def test_one_int64_chunk_for_products_below_2_40_past_the_power_bound(
        scatter_dtypes):
    # lambda = 600 omega_4: the power bound max <xi, beta_vee> ** 7 is past
    # 2^63, but every product is below 2^40, so the one chunk runs in int64.
    rs, lam = build([("A", 5)]), Weight((0, 0, 0, 600, 0))
    s = character._sl2(rs, _A5_H)
    s.table = character._coset_table(rs, s)
    tops, power = _chunk_products(rs, lam, s, character.COSET_CHUNK)
    assert power >= 2**63 and max(tops) < 2**40
    row = _coset_row(rs, lam, s)
    assert scatter_dtypes == [np.int64]
    assert row.tolist() == _coset_row_in_python_ints(rs, lam, s).tolist()
    assert sum(row.tolist()) == weyl_dimension(rs, lam)


def test_coset_products_in_python_ints_in_a_middle_chunk(monkeypatch,
                                                         scatter_dtypes):
    # Chunks of 7 rows: for lambda = (64, 256, 0, 1024, 0) only the middle
    # chunk holds a product past 2^62, and one past 2^63 that int64 would
    # wrap; that chunk alone forms its products in Python ints.
    monkeypatch.setattr(character, "COSET_CHUNK", 7)
    rs, lam = build([("A", 5)]), Weight((64, 256, 0, 1024, 0))
    s = character._sl2(rs, _A5_H)
    s.table = character._coset_table(rs, s)
    tops, guard = _chunk_products(rs, lam, s, 7)
    assert guard >= 2**63 and len(tops) == 3
    assert tops[0] < 2**61 and tops[1] >= 2**63 and tops[2] < 2**61
    row = _coset_row(rs, lam, s)
    assert scatter_dtypes == [np.int64, object, np.int64]
    assert row.tolist() == _coset_row_in_python_ints(rs, lam, s).tolist()
    assert sum(row.tolist()) == weyl_dimension(rs, lam)


def test_levi_certificate_needs_den_below_2_62():
    # Two pairings of 2^50 and den = 2^64: q = 2^36 and the product bound
    # hold, but q den has no int64 form to compare, so the chunk is
    # refused before one is formed.
    pairs = np.array([2**50, 2**50], np.int64)
    v = np.array([[0, 1]], np.uint8)
    prods = pairs.astype(np.float64).take(v).prod(axis=1)
    assert character._levi_quotients(prods, prods.max(), pairs, v,
                                     2**64) is None


# E6 at its highest root's h: J of type A5, |Phi_J+| = 15, 72 cosets in one
# chunk, den = 34560.
_E6_THETA = (0, 1, 0, 0, 0, 0)


def _e6_theta_chunk(lam):
    """E6, lambda, the record of _E6_THETA with its table, and its one
    chunk's largest exact Levi product."""
    rs, lam = build([("E", 6)]), Weight(lam)
    s = character._sl2(rs, _E6_THETA)
    s.table = character._coset_table(rs, s)
    assert s.table.den == 34560 and s.table.vanish.shape == (72, 15)
    return rs, lam, s, _chunk_products(rs, lam, s, character.COSET_CHUNK)[0][0]


def test_levi_quotients_past_2_63_certified_in_int64(scatter_dtypes):
    # lambda = 5 rho: the products reach 2^68.9, past 2^63, but their
    # quotients by den only 2^53.8, so the chunk's quotients are certified
    # and scatter in int64.
    rs, lam, s, top = _e6_theta_chunk((5,) * 6)
    assert top >= 2**63 and top // s.table.den < 2**54
    row = _coset_row(rs, lam, s)
    assert scatter_dtypes == [np.int64]
    assert row.tolist() == _coset_row_in_python_ints(rs, lam, s).tolist()
    assert sum(row.tolist()) == weyl_dimension(rs, lam)


def test_levi_quotients_past_2_62_take_python_ints(scatter_dtypes):
    # lambda = 8 rho: the quotients reach 2^62.6, past the bound that keeps
    # them in int64 with room, so the chunk forms its products in Python
    # ints.
    rs, lam, s, top = _e6_theta_chunk((8,) * 6)
    assert 2**62 <= top // s.table.den and top * 17 < 2**115
    row = _coset_row(rs, lam, s)
    assert scatter_dtypes == [object]
    assert row.tolist() == _coset_row_in_python_ints(rs, lam, s).tolist()


def test_levi_certificate_catches_a_wrong_denominator(monkeypatch):
    # At lambda = 5 rho the chunk is in the certified tier; with den + 1,
    # which divides no product, the certificate fails and the exact path
    # refuses the chunk.
    _corrupt_levi_denominator(monkeypatch)
    with pytest.raises(CharacterError, match="Levi dimension .* not integral"):
        _by_cosets(build([("E", 6)]), Weight((5,) * 6), _E6_THETA)


def test_levi_certificate_refuses_an_off_by_one_rint(monkeypatch,
                                                     scatter_dtypes):
    # A rint that rounds one too high gives q den = p + den, not p modulo
    # 2^64: every certificate fails, and the chunk takes Python ints.
    rs, lam, s, _ = _e6_theta_chunk((5,) * 6)
    real = np.rint
    monkeypatch.setattr(np, "rint", lambda x: real(x) + 1)
    row = _coset_row(rs, lam, s)
    assert scatter_dtypes == [object]
    assert row.tolist() == _coset_row_in_python_ints(rs, lam, s).tolist()


def test_levi_certificate_needs_the_float_bound():
    # A forged chunk of three pairings below 2^53, den = 2^61: the float64
    # product 2^64 fl(xyz) is 2^64 below the exact one, as xyz = 1 mod 64
    # in [2^58, 2^59) rounds to a multiple of 64.  So q = rint(product /
    # den) is below 2^62 and q den equals the product modulo 2^64 but not
    # exactly; only the bound max product (|Phi_J+| + 2) < 2^115 refuses it.
    x = y = 3 * 2**18 + 1
    z = 466049
    assert x * y * z % 64 == 1 and 2**58 <= x * y * z < 2**59
    pairs = np.array([2**22 * x, 2**21 * y, 2**21 * z], np.int64)
    v, den = np.array([[0, 1, 2]], np.uint8), 2**61
    prods = pairs.astype(np.float64).take(v).prod(axis=1)
    q, p = int(np.rint(prods / den)[0]), 2**64 * x * y * z
    assert max(pairs) < 2**53 and q < 2**62 and prods[0] * 5 >= 2**115
    assert (q * den - p) % 2**64 == 0 and q * den != p
    assert character._levi_quotients(prods, prods.max(), pairs, v, den) is None


def test_orbit_row_refuses_a_span_past_the_weight_cap():
    # Marks that are no sl2 can spread few weights over a huge span of
    # values, and the dense row is as long as the span, so a span past
    # twice the weight cap is refused like a character past it.
    rs = build([("A", 2)])
    with pytest.raises(CharacterError, match="weight cap"):
        full_weight_values(rs, Weight((3, 0)), (10**8, 0))


class _Walked(Exception):
    pass


def _refuse_walks(monkeypatch, *names):
    """Make these character functions raise _Walked when called."""
    def walk(*args):
        raise _Walked(args)

    for name in names:
        monkeypatch.setattr(character, name, walk)


def test_span_is_refused_before_any_weight_is_found(monkeypatch):
    # The span c . lambda is known from the record, so a request past it
    # finds no dominant weight and walks no orbit: E8 L(2 omega_7) at
    # marks (10^8, 0, ..., 0) has few weights and a span of 1.6 10^9.
    _refuse_walks(monkeypatch, "_dominant_weights", "_orbit_walk")
    e8 = build([("E", 8)])
    with pytest.raises(CharacterError, match="span past twice the weight"):
        full_weight_values(e8, Weight((0,) * 6 + (2, 0)),
                           (10**8,) + (0,) * 7)


def test_span_at_twice_the_weight_cap_is_expanded(monkeypatch):
    # The A1 row of L(4) at the mark m spans 4 m: with a cap of 10, m = 5
    # spans twice the cap and is expanded, m = 6 is refused.
    monkeypatch.setattr(character, "WEIGHT_CAP", 10)
    rs, lam = build([("A", 1)]), Weight((4,))
    row = character._by_orbits(rs, lam, character._sl2(rs, (5,)), 5)
    assert character._histogram(10, row) == {10: 1, 5: 1, 0: 1, -5: 1, -10: 1}
    with pytest.raises(CharacterError, match="span past twice the weight"):
        character._by_orbits(rs, lam, character._sl2(rs, (6,)), 5)


def test_marks_past_int64_where_no_weight_moves():
    # A mark past 2^64 meets only k_j = 0, so the degrees are those of the
    # other marks: the trivial A2 module, and L(3 omega_2) of A1 x A1,
    # which is trivial on the first factor.
    a2 = build([("A", 2)])
    assert full_weight_values(a2, Weight((0, 0)), (2**70, 0)) == {0: 1}
    a1a1 = build([("A", 1), ("A", 1)])
    assert full_weight_values(a1a1, Weight((0, 3)), (2**70, 2)) == \
        {3: 1, 1: 1, -1: 1, -3: 1}


@pytest.mark.parametrize("fam,rank,lam", _SMALL_WEIGHTS, ids=_weight_id)
def test_every_path_row_sums_to_the_weyl_dimension(fam, rank, lam):
    # The product formula at the principal h; the coset sum and the orbit
    # expansion at the principal h and at the highest root's.
    rs, lam, principal = build([(fam, rank)]), Weight(lam), (2,) * rank
    theta = root_embedding(rs, rs.positive_roots[-1]).marks
    rows = [_product_row(rs, lam, character._sl2(rs, principal))]
    for s in (character._sl2(rs, principal), character._sl2(rs, theta)):
        rows += [_coset_row(rs, lam, s),
                 _orbit_row(rs, lam, s)]
    assert [sum(row.tolist()) for row in rows] == [weyl_dimension(rs, lam)] * 5


def test_principal_values_reject_inexact_quotient(monkeypatch):
    # Without the highest root the product over the remaining positive
    # roots is not a polynomial, nor does it divide by Weyl's denominator;
    # the dispatch's exactness check, the first to see it, must say so.
    rs = build([("G", 2)])
    monkeypatch.setitem(rs._np, "coroots", rs._np["coroots"][:-1])
    with pytest.raises(CharacterError, match="Weyl dimension .* not integral"):
        full_weight_values(rs, Weight((1, 0)), (2, 2))


def _divide_by_loop(poly, exps):
    """Division by prod_e (1 - t^e) as Python running sums, one slice per
    residue class mod e: the reference for character._quotient."""
    poly = list(poly)
    for e in exps:
        for r in range(e):
            poly[r::e] = itertools.accumulate(poly[r::e])
    return poly


def _quotient(poly, exps, dim):
    """character._quotient on a record holding exps, with poly written into
    a buffer of the dtype its callers take for dim L(lambda) = dim."""
    s = _with_denominator(character._sl2(build([("A", 1)]), (2,)), exps)
    buf = np.zeros(len(poly) + s.e_max,
                   np.int64 if dim << s.e_count < 2**63 else object)
    buf[:len(poly)] = poly
    return character._quotient(buf, len(poly), s, Weight((0,)))


def test_division_matches_the_loop_in_int64_and_in_python_ints():
    # dim L(lambda) 2^|exps| below 2^63 divides in int64, past it over
    # Python ints; both match the loop, and both refuse a remainder.
    rng = random.Random(16)
    for _ in range(40):
        quotient = [rng.randint(0, 9) for _ in range(rng.randint(1, 12))]
        exps = [rng.randint(1, 7) for _ in range(rng.randint(1, 9))]
        poly = np.array(quotient)
        for e in exps:
            poly = np.convolve(poly, [1] + [0] * (e - 1) + [-1])
        loop = _divide_by_loop(poly.tolist(), exps)
        assert loop == quotient + [0] * sum(exps)
        for dim in (sum(quotient), 2**62):
            for coeffs in (poly.tolist(), poly):
                assert _quotient(coeffs, exps, dim).tolist() == quotient
        poly[rng.randrange(len(poly))] += 1
        assert any(_divide_by_loop(poly.tolist(), exps)[len(quotient):])
        for dim in (sum(quotient), 2**62):
            with pytest.raises(CharacterError, match="not a polynomial"):
                _quotient(poly, exps, dim)


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
    # Multiplicities are Python ints, so no int64 headroom limits these
    # characters; their orbit expansion must count dim L(lambda) weights.
    rs = build([(fam, rank)])
    lam = Weight(lam)
    s = character._sl2(rs, (0,) * rank)
    assert _orbit_row(rs, lam, s).tolist() == \
        [weyl_dimension(rs, lam)]


# Histograms of the spec weights under their root sl2s (highest root,
# highest short root, alpha_1), frozen from the dense Freudenthal box that
# the orbit expansion replaced.  They are the second algorithm where the
# alternating-sum oracle cannot go (E6 is past its box cap) or is too
# slow for the suite (about 5 s for B4 (3,3,3,3)).
_FROZEN = json.loads(
    (Path(__file__).parent / "data" / "large_root_histograms.json").read_text())


@pytest.mark.parametrize("entry", _FROZEN, ids=[
    "{}{}-{}".format(*e["type"], "".join(map(str, e["root"]))) for e in _FROZEN])
def test_large_root_histograms_match_frozen_box(entry):
    rs = build([tuple(entry["type"])])
    marks = root_embedding(rs, entry["root"]).marks
    assert list(marks) == entry["marks"]
    N = full_weight_values(rs, Weight(entry["lambda"]), marks)
    assert sorted([v, n] for v, n in N.items()) == entry["weight_values"]


@pytest.mark.parametrize("fam,rank", [("B", 5), ("D", 5), ("A", 6)])
def test_oracle_answers_rank_5_and_6_at_zero(fam, rank):
    # Their boxes fit under the box cap, the oracle's only cap.
    rs, lam = build([(fam, rank)]), Weight((0,) * rank)
    assert weyl_alternating_character(rs, lam).mults == \
        dominant_character(rs, lam).mults


def test_oracle_refuses_a_negative_multiplicity(monkeypatch):
    # The partition-function kernel with its sign flipped makes every
    # multiplicity of the box negative, which the oracle must refuse.
    from sl2bounds import semigroup
    real = semigroup._partition_fill
    monkeypatch.setattr(semigroup, "_partition_fill", lambda grid, gens:
                        real(grid, gens) or np.negative(grid, out=grid))
    with pytest.raises(CharacterError,
                       match="^oracle produced negative multiplicity$"):
        weyl_alternating_character(build([("A", 2)]), Weight((1, 1)))


@pytest.mark.parametrize("d,message", [
    ((1, 1), "division not exact"),
    ((2, -1), "produced nonpositive multiplicity"),
], ids=["equal-lengths", "short-node-negated"])
def test_freudenthal_checks_fire_on_a_wrong_form(d, message):
    # B2's vector representation with the symmetrizers (2, 1) of its
    # invariant form replaced: with equal root lengths the recursion's
    # division at mu = 0 leaves a remainder, and with the short node's sign
    # flipped the multiplicity it gives there is not positive.
    rs = dataclasses.replace(build([("B", 2)]), symmetrizers=d)
    with pytest.raises(CharacterError,
                       match=rf"^Freudenthal {message} at mu=\(0, 0\)$"):
        character._dominant_weights(rs, Weight((1, 0)))


def test_coset_table_refuses_a_count_other_than_its_cosets():
    # The walk and its w0 images give the |W| = 6 points of A2's regular
    # h = (1, 1); a record that expects 7 is refused once the walk ends.
    rs = build([("A", 2)])
    s = character._sl2(rs, (1, 1))._replace(cosets=7)
    with pytest.raises(CharacterError,
                       match=r"^orbit of marks \(1, 1\) has 6 points, not 7$"):
        character._coset_table(rs, s)


def _table_rows(t):
    """The rows (K, sign, sorted vanishing roots) of a coset table, sorted,
    so that two tables compare as multisets."""
    rows = np.concatenate([t.K, t.signs[:, None], np.sort(t.vanish, axis=1)],
                          axis=1, dtype=np.int64)
    return rows[np.lexsort(rows.T)]


@pytest.mark.parametrize("types", [[(f, r)] for f, r in _SIMPLE_TYPES]
                         + [[("A", 1), ("G", 2)], [("B", 3), ("A", 2)]],
                         ids=lambda t: "".join(f"{f}{r}" for f, r in t))
def test_root_sl2_tables_read_off_match_the_walk(monkeypatch, types):
    # Every root sl2's table, half read off the coroots, against the half
    # walk over the same record, each with its w0 images: the same rows as
    # multisets, and the same den.  In A1+G2 and B3+A2 the orbit stays in
    # beta's component.
    rs = build(types)
    for beta in rs.positive_roots:
        s = _record(rs, root_embedding(rs, beta).marks)
        assert character._coroot(rs, s.h) is not None, beta
        read, walked = character._coset_table(rs, s), _walked_table(
            monkeypatch, rs, s)
        assert read.den == walked.den, beta
        assert (_table_rows(read) == _table_rows(walked)).all(), beta


@pytest.mark.parametrize("types", [[("A", 1), ("G", 2)], [("B", 3)],
                                   [("C", 3)]])
def test_coroot_test_is_exact(types):
    # Marks are a coroot's exactly when they are a root sl2's marks, and
    # the index found is that root's.
    rs = build(types)
    marks = {root_embedding(rs, b).marks: i
             for i, b in enumerate(rs.positive_roots)}
    for m in itertools.product(range(-2, 3), repeat=rs.rank):
        assert character._coroot(rs, m) == marks.get(m), m


def test_root_sl2_restrictions_walk_no_orbit(monkeypatch, answered, builds):
    # Every root sl2 of F4 answers L(2,1,1,1) by the coset sum over a table
    # read off the coroots, with no step of W; E6's subregular h, no
    # coroot, still walks its orbit for its table.
    walks = []
    real = character._orbit_walk
    monkeypatch.setattr(character, "_orbit_walk",
                        lambda *a: walks.append(a) or real(*a))
    f4 = build([("F", 4)])
    for beta in f4.positive_roots:
        full_weight_values(f4, Weight((2, 1, 1, 1)),
                           root_embedding(f4, beta).marks)
    assert answered == {"_by_cosets": 24} and len(builds) == 2
    assert walks == []
    full_weight_values(build([("E", 6)]), Weight((1, 0, 1, 0, 0, 1)),
                       (2, 2, 2, 0, 2, 2))
    assert answered["_by_cosets"] == 25 and builds[-1] == (2, 2, 2, 0, 2, 2)
    assert len(walks) == 1


def test_oracle_box_past_its_cap_walks_nothing(monkeypatch):
    # The box is sized from xi + xi* before the walk: E6 at lambda = 0
    # has one of 274673981 cells, refused without a step of W.
    _refuse_walks(monkeypatch, "_orbit_walk")
    with pytest.raises(CharacterError, match="274673981 cells"):
        weyl_alternating_character(build([("E", 6)]), Weight((0,) * 6))
