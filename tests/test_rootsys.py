import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2bounds import (
    RootSystemError, SimpleComponent, Weight, build, dominant_representative,
    inner_product, root_to_weight_coords, weyl_dimension, weyl_orbit,
)
from sl2bounds import character, rootsys
from sl2bounds.bounds import _all_simple_types
from sl2bounds.character import (
    dominant_character, full_weight_values, weyl_alternating_character)
from sl2bounds.rootsys import _reflect_to_dominant, simple_reflection
from sl2bounds.sl2branch import root_embedding

ALL_SIMPLE = (
    [("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)] +
    [("C", n) for n in range(2, 9)] + [("D", n) for n in range(3, 9)] +
    [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)

POSROOT_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


def test_build_a1():
    rs = build([("A", 1)])
    assert rs.cartan == ((2,),)
    assert len(rs.positive_roots) == 1


def test_build_a2():
    rs = build([("A", 2)])
    assert rs.cartan == ((2, -1), (-1, 2))
    assert len(rs.positive_roots) == 3


def test_build_g2():
    rs = build([("G", 2)])
    assert len(rs.positive_roots) == 6


@pytest.mark.parametrize("fam,rank", ALL_SIMPLE)
def test_positive_root_counts(fam, rank):
    rs = build([(fam, rank)])
    assert len(rs.positive_roots) == POSROOT_COUNT[fam](rank)


@pytest.mark.parametrize("fam,rank", ALL_SIMPLE)
def test_cartan_shape_invariants(fam, rank):
    rs = build([(fam, rank)])
    A = rs.cartan
    d = rs.symmetrizers
    r = rs.rank
    for i in range(r):
        assert A[i][i] == 2
        for j in range(r):
            if i != j:
                assert A[i][j] <= 0
                assert (A[i][j] == 0) == (A[j][i] == 0)
            assert d[i] * A[i][j] == d[j] * A[j][i]


@pytest.mark.parametrize("fam,rank", ALL_SIMPLE)
def test_simple_roots_present_and_nonnegative(fam, rank):
    rs = build([(fam, rank)])
    roots = set(rs.positive_roots)
    for i in range(rs.rank):
        e = tuple(1 if j == i else 0 for j in range(rs.rank))
        assert e in roots
    for c in roots:
        assert all(x >= 0 for x in c)


def test_build_semisimple_block_diagonal():
    rs = build([("A", 1), ("G", 2)])
    assert rs.rank == 3
    assert len(rs.positive_roots) == 7
    assert rs.cartan[0][1] == rs.cartan[0][2] == 0


@pytest.mark.parametrize("fam,rank,bad", [("A", 0, True), ("B", 1, True),
                                          ("D", 2, True), ("E", 5, True),
                                          ("F", 3, True), ("G", 3, True),
                                          ("H", 2, True)])
def test_invalid_ranks_rejected(fam, rank, bad):
    # the CLI prints these messages
    message = {
        "A": "A rank must be >= 1, got 0",
        "B": "B rank must be >= 2, got 1",
        "D": "D rank must be >= 3, got 2",
        "E": "E rank must be 6, 7 or 8, got 5",
        "F": "F rank must be 4, got 3",
        "G": "G rank must be 2, got 3",
        "H": "unknown family 'H'",
    }[fam]
    with pytest.raises(RootSystemError, match=f"^{message}$"):
        SimpleComponent(fam, rank)


# (cartan, d) written out from Bourbaki, Lie Groups and Lie Algebras VI,
# Plates I-IX, with cartan[i][j] = 2 (alpha_i, alpha_j) / (alpha_i, alpha_i)
BOURBAKI_BLOCKS = {
    ("B", 3): ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], [2, 2, 1]),
    ("C", 3): ([[2, -1, 0], [-1, 2, -2], [0, -1, 2]], [1, 1, 2]),
    ("D", 4): ([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0],
                [0, -1, 0, 2]], [1, 1, 1, 1]),
    ("E", 6): ([[2, 0, -1, 0, 0, 0], [0, 2, 0, -1, 0, 0],
                [-1, 0, 2, -1, 0, 0], [0, -1, -1, 2, -1, 0],
                [0, 0, 0, -1, 2, -1], [0, 0, 0, 0, -1, 2]], [1] * 6),
    ("F", 4): ([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1],
                [0, 0, -1, 2]], [2, 2, 1, 1]),
    ("G", 2): ([[2, -3], [-1, 2]], [1, 3]),
}


@pytest.mark.parametrize("fam,rank", BOURBAKI_BLOCKS)
def test_simple_block_matches_bourbaki_plates(fam, rank):
    rs = build([SimpleComponent(fam, rank)])
    assert ([list(row) for row in rs.cartan], list(rs.symmetrizers)) == \
        BOURBAKI_BLOCKS[(fam, rank)]


# every library entry point that takes a weight, called on a rank-2 type
WEIGHT_ENTRY_POINTS = {
    "weyl_dimension": weyl_dimension,
    "weyl_orbit": weyl_orbit,
    "dominant_representative": dominant_representative,
    "weight_to_root_coords": rootsys.weight_to_root_coords,
    "inner_product_left": lambda rs, mu: inner_product(rs, mu, rs.rho),
    "inner_product_right": lambda rs, mu: inner_product(rs, rs.rho, mu),
    "dominant_character": dominant_character,
    "full_weight_values": lambda rs, mu: full_weight_values(rs, mu, (2, 2)),
    "full_weight_values_root_marks":
        lambda rs, mu: full_weight_values(rs, mu, (0, 1)),
    "weyl_alternating_character": weyl_alternating_character,
}


@pytest.mark.parametrize("name", WEIGHT_ENTRY_POINTS)
@pytest.mark.parametrize("fam", ["A", "G"])
@pytest.mark.parametrize("coords", [(1,), (1, 0, 0), (1, -1, 0)], ids=str)
def test_weight_of_wrong_length_refused(name, fam, coords):
    # each of these once answered a wrong number or failed deep inside
    rs = build([(fam, 2)])
    call = WEIGHT_ENTRY_POINTS[name]
    with pytest.raises(RootSystemError, match="^weight must have length 2$"):
        call(rs, Weight(coords))


def test_root_to_weight_coords_a2():
    rs = build([("A", 2)])
    assert root_to_weight_coords(rs, (1, 0)).coords == (2, -1)
    assert root_to_weight_coords(rs, (1, 1)).coords == (1, 1)


def test_g2_highest_root_is_omega2():
    rs = build([("G", 2)])
    highest = max(rs.positive_roots, key=sum)
    assert root_to_weight_coords(rs, highest).coords == (0, 1)
    # consistency of the labeling: the adjoint representation
    assert weyl_dimension(rs, Weight((0, 1))) == 14


def test_inner_product_a1_normalization():
    rs = build([("A", 1)])
    assert inner_product(rs, Weight((1,)), Weight((1,))) == Fraction(1, 2)


@pytest.mark.parametrize("fam,rank", [("A", 2), ("B", 3), ("G", 2), ("F", 4)])
def test_rho_pairs_to_one_with_simple_coroots(fam, rank):
    rs = build([(fam, rank)])
    rho = rs.rho
    for i in range(rs.rank):
        alpha = root_to_weight_coords(
            rs, tuple(1 if j == i else 0 for j in range(rs.rank)))
        aa = inner_product(rs, alpha, alpha)
        assert 2 * inner_product(rs, rho, alpha) / aa == 1


@given(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
       st.lists(st.integers(-9, 9), min_size=3, max_size=3))
@settings(max_examples=50, deadline=None)
def test_inner_product_symmetric_b3(mu, nu):
    rs = build([("B", 3)])
    assert inner_product(rs, Weight(mu), Weight(nu)) == \
        inner_product(rs, Weight(nu), Weight(mu))


@pytest.mark.parametrize("fam,rank", ALL_SIMPLE)
def test_inner_product_positive_definite(fam, rank):
    rs = build([(fam, rank)])
    gram = [[inner_product(rs,
                           Weight(tuple(int(i == a) for a in range(rs.rank))),
                           Weight(tuple(int(j == a) for a in range(rs.rank))))
             for j in range(rs.rank)] for i in range(rs.rank)]
    # leading principal minors of the Gram matrix of fundamental weights
    for k in range(1, rs.rank + 1):
        sub = [row[:k] for row in gram[:k]]
        assert _det(sub) > 0


def _det(m):
    n = len(m)
    m = [row[:] for row in m]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def test_dominant_representative_examples():
    a1 = build([("A", 1)])
    assert dominant_representative(a1, Weight((-3,))).coords == (3,)
    assert dominant_representative(a1, Weight((3,))).coords == (3,)
    a2 = build([("A", 2)])
    assert dominant_representative(a2, Weight((-1, 2))).coords == (1, 1)


@given(st.lists(st.integers(-12, 12), min_size=2, max_size=2),
       st.lists(st.integers(0, 1), min_size=4, max_size=8))
@settings(max_examples=80, deadline=None)
def test_dominant_representative_weyl_invariant_g2(mu, refls):
    rs = build([("G", 2)])
    w = Weight(mu)
    dom = dominant_representative(rs, w)
    assert dominant_representative(rs, dom) == dom  # idempotent
    img = w
    for j in refls:
        img = simple_reflection(rs, j, img)
    assert dominant_representative(rs, img) == dom


@pytest.mark.parametrize("fam,rank", [("A", 3), ("B", 3), ("G", 2)])
def test_reflect_to_dominant_tracks_root_coordinates(fam, rank):
    # Weights reflect along the columns of the Cartan matrix and marks
    # along its rows; either way x - x' = sum k_j simple[j] and x' is
    # dominant, and for weights x' is the dominant weight of x's orbit.
    rs = build([(fam, rank)])
    cols = tuple(zip(*rs.cartan))
    for x in itertools.product(range(-3, 4), repeat=rank):
        for simple in (cols, rs.cartan):
            dom, k = _reflect_to_dominant(x, simple)
            assert min(dom) >= 0
            assert [a - b for a, b in zip(x, dom)] == [
                sum(kj * s[i] for kj, s in zip(k, simple))
                for i in range(rank)]
        dom = Weight(_reflect_to_dominant(x, cols)[0])
        assert Weight(x) in weyl_orbit(rs, dom)


def test_reflect_to_dominant_is_exact_for_huge_weights():
    # -xi - xi* = -(2^64)(alpha_1 + alpha_2) for xi = 2^64 omega_1 in A2,
    # past int64 and exact.
    a2 = build([("A", 2)])
    assert _reflect_to_dominant([-2**64, 0], tuple(zip(*a2.cartan))) == \
        ([0, 2**64], [-2**64, -2**64])


def test_build_inverts_the_cartan_matrix_once(monkeypatch):
    calls = []
    real = rootsys._inverse_int
    monkeypatch.setattr(rootsys, "_inverse_int",
                        lambda m: calls.append(real(m)) or calls[-1])
    rs = build([("B", 3)])
    assert calls == [rs._np["Ainv_int"]]


def test_integer_inverse_of_the_cartan_matrix():
    # A N = den I with den > 0 and gcd(den, N) = 1 determines (den, N);
    # A1 taken 40 times has det 2^40 but den 2.
    products = [[("A", 1)] * 40, [("A", 1), ("G", 2)], [("A", 2), ("B", 2)],
                [("E", 6), ("D", 5), ("A", 3)]]
    for types in [[s] for s in _all_simple_types(24)] + products:
        rs = build(types)
        den, N = rs._np["Ainv_int"]
        assert den > 0 and math.gcd(den, *itertools.chain(*N)) == 1, types
        product = [[sum(map(mul, row, col)) for col in zip(*N)]
                   for row in rs.cartan]
        assert product == [[den * (i == j) for j in range(rs.rank)]
                           for i in range(rs.rank)], types
    assert build([("A", 1)] * 40)._np["Ainv_int"][0] == 2


# dual Coxeter numbers h_vee (Kac, Infinite-dimensional Lie algebras, 6.1)
_DUAL_COXETER = {"A": lambda n: n + 1, "B": lambda n: 2 * n - 1,
                 "C": lambda n: n + 1, "D": lambda n: 2 * n - 2,
                 "E": {6: 12, 7: 18, 8: 30}.get, "F": lambda n: 9,
                 "G": lambda n: 4}


def test_strange_formula():
    # Freudenthal-de Vries: |rho|^2 = h_vee dim g / 12 when long roots have
    # squared length 2.  Here short roots do, so the form is max(d) times
    # that one.
    norms = {}
    for s in _all_simple_types(16):
        rs = build([s])
        norms[str(s)] = inner_product(rs, rs.rho, rs.rho)
        assert norms[str(s)] == Fraction(max(rs.symmetrizers) * s.dim *
                                         _DUAL_COXETER[s.family](s.rank), 12)
    assert [norms[t] for t in ("E6", "E7", "E8", "F4", "G2")] == [
        78, Fraction(399, 2), 620, 78, 14]


class _Walked(Exception):
    pass


def test_weyl_orbit_refuses_before_walking(monkeypatch):
    # |W(E8)| = 696729600 is past the cap, so the regular orbit of rho is
    # refused from Macdonald's product without a step of the walk.
    def walk(*args):
        raise _Walked(args)

    monkeypatch.setattr(rootsys, "_orbit_walk", walk)
    e8 = build([("E", 8)])
    with pytest.raises(RootSystemError,
                       match="Weyl orbit exceeds cap 10000000"):
        weyl_orbit(e8, e8.rho)


def test_weyl_orbit_sizes():
    a2 = build([("A", 2)])
    assert weyl_orbit(a2, Weight((0, 0))) == {Weight((0, 0))}
    assert len(weyl_orbit(a2, Weight((1, 0)))) == 3
    g2 = build([("G", 2)])
    assert len(weyl_orbit(g2, Weight((1, 0)))) == 6  # short-root orbit
    assert len(weyl_orbit(g2, Weight((1, 1)))) == 12  # regular = |W|


def test_weyl_orbit_size_divides_group_order():
    g2 = build([("G", 2)])
    for mu in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]:
        assert 12 % len(weyl_orbit(g2, Weight(mu))) == 0


RANK_4 = [t for t in ALL_SIMPLE if t[1] <= 4]


@pytest.mark.parametrize("fam,rank", RANK_4)
def test_weyl_orbit_sizes_and_closure(fam, rank):
    # Against Macdonald's product and simple_reflection, neither of which
    # walks: each orbit has |W mu| weights and is W-stable.
    rs = build([(fam, rank)])
    for mu in itertools.product(range(3), repeat=rank):
        orbit = weyl_orbit(rs, Weight(mu))
        assert len(orbit) == rootsys._orbit_size(rs, mu)
        assert all(simple_reflection(rs, j, w) in orbit
                   for w in orbit for j in range(rank))


@pytest.mark.parametrize("fam,rank", RANK_4)
def test_orbit_walk_levels_are_lengths(fam, rank):
    # rho is regular, so the level of w(rho) is l(w): one longest element
    # at level |Phi+|, and sum_w (-1)^l(w) = 0.
    rs = build([(fam, rank)])
    levels = list(rootsys._orbit_walk(rootsys._orbit_rows(rs.rho.coords),
                                      rs._weight_walk))
    sizes = [len(k) for k in levels]
    assert len(sizes) == len(rs.positive_roots) + 1
    assert sizes[-1] == 1
    assert sum((-1) ** n * s for n, s in enumerate(sizes)) == 0


@pytest.mark.parametrize("fam,rank", RANK_4)
def test_coweight_walk_levels_and_stabilizers(fam, rank):
    # The walk over the orbit of a dominant h, with the rows of the Cartan
    # matrix as the step, against Macdonald's product and direct root
    # counts: |W / W_J| distinct h' = h - sum_j K_j alpha_j_vee, each at
    # level #{beta > 0 : beta(h') < 0} and with |Phi_J+| positive roots
    # vanishing on it.
    rs = build([(fam, rank)])
    A, roots = rs._np["A"], rs._np["roots"]
    for marks in itertools.product(range(3), repeat=rank):
        levels = list(rootsys._orbit_walk(rootsys._orbit_rows(marks),
                                          rs._coweight_walk))
        orbit = [np.array(marks) - K @ A for K in levels]
        points = {tuple(h) for h in np.concatenate(orbit).tolist()}
        assert len(points) == sum(map(len, orbit)) == \
            rootsys._orbit_size(rs, [m > 0 for m in marks])
        n_J = int((roots @ marks == 0).sum())
        for level, h in enumerate(orbit):
            values = h @ roots.T            # beta(h') for every beta > 0
            assert ((values < 0).sum(axis=1) == level).all(), marks
            assert ((values == 0).sum(axis=1) == n_J).all(), marks


def test_weyl_orbit_is_exact_past_int64():
    a2 = build([("A", 2)])
    n = 2**64
    assert weyl_orbit(a2, Weight((n, 0))) == {
        Weight((n, 0)), Weight((-n, n)), Weight((0, -n))}


def _reference_walk(rows, simple):
    """The orbit walk one simple reflection j at a time, the children of
    each j concatenated in j order: the oracle for _orbit_walk."""
    rank = len(simple)
    levels = []
    while len(rows):
        levels.append(rows[:, rank:].copy())
        new = []
        for j in range(rank):
            child = rows[rows[:, j] > 0]
            step = child[:, j].copy()
            child[:, :rank] -= step[:, None] * simple[j]
            child[:, rank + j] += step
            new.append(child[(child[:, :j] >= 0).all(axis=1)])
        rows = np.concatenate(new)
    return levels


def _reference_step(simple):
    """The matrices of rootsys._walk_step formed by numpy calls alone: the
    oracle for its plain-Python construction."""
    rank = len(simple)
    bi, bj = np.nonzero(np.triu(simple.T, 1))          # the bonds i < j
    bonds = np.zeros((rank, len(bi)), np.int64)
    bonds[bi, np.arange(len(bi))] = 1
    bonds[bj, np.arange(len(bi))] = -simple[bj, bi]
    to_j = np.concatenate([np.triu(simple.T == 0, 1),
                           np.eye(rank, dtype=bool)[bj]]).astype(np.float32)
    move = np.concatenate([-simple, np.eye(rank, dtype=np.int64)], axis=1)
    return simple, bonds, to_j, move


def _assert_steps_agree(rs):
    A = rs._np["A"]
    for simple in (A.T, A):
        got, want = rootsys._walk_step(simple), _reference_step(simple)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert (g == w).all()


@pytest.mark.parametrize("fam,rank", ALL_SIMPLE)
def test_walk_step_matches_numpy_reference(fam, rank):
    _assert_steps_agree(build([(fam, rank)]))


@pytest.mark.parametrize("types", [[("A", 1), ("G", 2)], [("G", 2), ("B", 3)],
                                   [("A", 1), ("A", 1), ("A", 2)],
                                   [("A", 1)] * 70])
def test_walk_step_matches_numpy_reference_semisimple(types):
    # A1^70 has no bond at all: an empty bond matrix of 70 rows.
    _assert_steps_agree(build(types))


def _assert_walks_agree(rows, simple):
    # identical levels: content, row order and dtype
    got = list(rootsys._orbit_walk(rows, rootsys._walk_step(simple)))
    want = _reference_walk(rows, simple)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert (g == w).all()
    return got


def _stacked(starts, rank):
    """Dominant starts stacked in int32, each with its index as a riding
    column, as _by_orbits walks them."""
    return np.array([(*x, *[0] * rank, n) for n, x in enumerate(starts)],
                    dtype=np.int32)


@pytest.mark.parametrize("types", [[("E", 6)], [("F", 4)],
                                   [("A", 1), ("G", 2)]])
def test_orbit_walk_stops_after_the_first_levels(types):
    # With a level limit the walk returns exactly the first levels of the
    # full reference walk (content, row order and dtype), for int32 rows
    # with a riding column, for object rows past int64, and for a limit
    # at or past the last level.
    rs = build(types)
    big = rootsys._orbit_rows((2**40,) + (1,) * (rs.rank - 1))
    assert big.dtype == object
    for rows in (_stacked(_small_orbit_starts(rs, 3, rs.rank), rs.rank), big,
                 rootsys._orbit_rows(rs.rho.coords)):
        for step in (rs._coweight_walk, rs._weight_walk):
            want = _reference_walk(rows, step.simple)
            for stop in (1, 2, len(want) // 2 + 1, len(want), len(want) + 3):
                got = list(rootsys._orbit_walk(rows, step, stop))
                assert len(got) == min(stop, len(want))
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype and g.shape == w.shape
                    assert (g == w).all()


def _subregular(fam, n):
    """The subregular marks of a simple type (Collingwood and McGovern,
    Nilpotent Orbits in Semisimple Lie Algebras, 5.3 and 8.4): partitions
    (n, 1), (2n-1, 1, 1), (2n-2, 2), (2n-3, 3) in types A to D."""
    if fam == "A":
        side = (2,) * ((n - 1) // 2)
        return side + ((1, 1) if n % 2 == 0 else (0,)) + side
    return {"B": (2,) * (n - 1) + (0,), "C": (2,) * (n - 2) + (0, 2),
            "D": (2,) * (n - 3) + (0, 2, 2), "F": (2, 2, 0, 2), "G": (0, 2),
            "E": (2, 2, 2, 0) + (2,) * (n - 4)}[fam]


def _table_marks(rs, fam):
    """Dominant marks for coset tables: zero, the highest root's and the
    highest short root's sl2, and, where W_J\\W has at most 10^5 cosets,
    the principal and the subregular h."""
    roots = rs.positive_roots
    norms = rs._np["roots_norm"].tolist()
    short = [r for r, n in zip(roots, norms) if n == min(norms)][-1]
    marks = [(0,) * rs.rank, root_embedding(rs, roots[-1]).marks,
             root_embedding(rs, short).marks, (2,) * rs.rank,
             _subregular(fam, rs.rank)]
    for m in marks:
        s = character._sl2(rs, tuple(m))
        if s.cosets <= 10**5:
            yield s


def _assert_mirrored_table(rs, s):
    # The mirrored table against a full reference walk, as multisets of
    # (K row, sign, vanishing roots), and each of its rows against its own
    # h' = h - sum_j K_j alpha_j_vee: sign (-1)^#{beta > 0 : beta(h') < 0}
    # and vanishing roots {beta > 0 : beta(h') = 0}.
    A, roots = rs._np["A"], rs._np["roots"]
    t = character._coset_table(rs, s)
    assert (t.K.dtype, t.signs.dtype) == (np.int32, np.int8)
    assert t.vanish.dtype == np.min_scalar_type(len(roots))
    assert len(t.K) == s.cosets
    vanish = np.zeros((len(t.K), len(roots)), bool)
    vanish[np.arange(len(t.K))[:, None], t.vanish] = True
    assert (vanish.sum(axis=1) == t.vanish.shape[1]).all()
    values = (np.array(s.h) - t.K.astype(np.int64) @ A) @ roots.T
    assert (t.signs == (-1) ** (values < 0).sum(axis=1)).all(), s.h
    assert (vanish == (values == 0)).all(), s.h

    levels = _reference_walk(rootsys._orbit_rows(s.h), A)
    assert len(levels) == s.e_count + 1
    K = np.concatenate(levels)
    signs = np.repeat([(-1) ** n for n in range(len(levels))],
                      [len(k) for k in levels])
    ref = np.concatenate([K, signs[:, None],
                          (np.array(s.h) - K @ A) @ roots.T == 0], axis=1)
    got = np.concatenate([t.K, t.signs[:, None], vanish], axis=1)
    ref, got = (a.astype(np.int64) for a in (ref, got))
    assert (ref[np.lexsort(ref.T)] == got[np.lexsort(got.T)]).all(), s.h


@pytest.mark.parametrize("fam,rank", ALL_SIMPLE)
def test_mirrored_coset_table_matches_full_walk(fam, rank):
    rs = build([(fam, rank)])
    for s in _table_marks(rs, fam):
        _assert_mirrored_table(rs, s)


def test_mirrored_coset_table_parities_and_semisimple_types():
    # Odd and even L = #{beta > 0 : beta(h) > 0}, zero marks (L = 0), and
    # semisimple types, where -w0 acts on each simple factor.
    seen = set()
    d7 = build([("D", 7)])
    s = character._sl2(d7, (0, 0, 0, 2, 0, 0, 0))
    assert s.e_count == 30 and s.cosets == 560
    _assert_mirrored_table(d7, s)
    for types in ([("A", 1), ("G", 2)], [("G", 2), ("B", 3)],
                  [("A", 1), ("A", 1), ("A", 2)]):
        rs = build(types)
        for m in itertools.product(range(3), repeat=rs.rank):
            s = character._sl2(rs, m)
            _assert_mirrored_table(rs, s)
            seen.add("odd" if s.e_count % 2 else "even" if s.e_count
                     else "zero")
    assert seen == {"zero", "odd", "even"}


def test_streamed_table_refuses_a_walk_past_its_cosets(monkeypatch):
    # A walk that yields one row per level and never ends: the build is
    # refused at the first row past the record's 560 cosets, before it
    # writes past them or asks the walk for more.
    d7 = build([("D", 7)])
    s = character._sl2(d7, (0, 0, 0, 2, 0, 0, 0))
    yielded = []

    def walk(rows, step, stop=None):
        while True:
            yielded.append(1)
            yield np.zeros((1, d7.rank), np.int32)

    monkeypatch.setattr(character, "_orbit_walk", walk)
    with pytest.raises(character.CharacterError,
                       match="has more than 560 points"):
        character._coset_table(d7, s)
    assert len(yielded) == 561


@pytest.mark.parametrize("types,marks,chunk", [
    # 1451520 cosets, |Phi_J+| = 1, in 43.5 MB
    ([("E", 7)], (2, 2, 2, 0, 2, 2, 2), character.COSET_CHUNK),
    # 215040 cosets, |Phi_J+| = 6, in 8.4 MB: smaller chunks, as a full
    # chunk's own transient (7.3 MB here) does not grow with the table
    ([("D", 8)], (0, 0, 0, 2, 2, 2, 2, 2), 1024),
])
def test_streamed_table_build_peaks_near_the_table(monkeypatch, types, marks,
                                                   chunk):
    # The levels are written into the table as they are walked, and the -w0
    # images of the vanishing roots are formed a chunk at a time, so the
    # build holds the table and the transients of one level or chunk: not
    # every walked level beside the table, nor the mirrored rows' vanishing
    # roots widened to 8-byte indices, each of which takes these builds past
    # 1.5 times their tables.
    monkeypatch.setattr(character, "COSET_CHUNK", chunk)
    rs = build(types)
    s = character._sl2(rs, marks)
    rs._coweight_walk, rs._neg_w0   # formed first, as the walk's constants
    tracemalloc.start()
    try:
        t = character._coset_table(rs, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = t.K.nbytes + t.signs.nbytes + t.vanish.nbytes
    assert len(t.K) == s.cosets
    assert peak < 1.5 * table, (peak, table)


def _small_orbit_starts(rs, count, seed):
    """count seeded dominant starts in {0,1,2}^r with |W x| <= 10^5, on
    distinct supports where there are that many."""
    rng = random.Random(seed)
    supports = [s for s in itertools.product((0, 1), repeat=rs.rank)
                if rootsys._orbit_size(rs, s) <= 10**5]
    return [tuple(c * rng.choice((1, 2)) for c in s)
            for s in rng.sample(supports, min(count, len(supports)))]


@pytest.mark.parametrize("fam,rank", ALL_SIMPLE)
def test_orbit_walk_matches_reference_walk(fam, rank):
    # Weights (A.T) and marks (A), one start at a time in int64, and all
    # starts at once in int32 with a riding column, as _orbit_degrees walks.
    rs = build([(fam, rank)])
    A = rs._np["A"]
    starts = _small_orbit_starts(rs, 3, seed=rank)
    stacked = _stacked(starts, rank)
    for simple in (A.T, A):
        for x in starts:
            _assert_walks_agree(rootsys._orbit_rows(x), simple)
        _assert_walks_agree(stacked, simple)


@pytest.mark.parametrize("types", [[("A", 1), ("G", 2)],
                                   [("G", 2), ("B", 3)]])
def test_orbit_walk_matches_reference_walk_semisimple(types):
    rs = build(types)
    A = rs._np["A"]
    for x in itertools.product(range(3), repeat=rs.rank):
        for simple in (A.T, A):
            _assert_walks_agree(rootsys._orbit_rows(x), simple)


def test_orbit_walk_matches_reference_walk_past_int64():
    rs = build([("G", 2), ("B", 3)])
    rows = rootsys._orbit_rows((1, 0, 2**40, 0, 1))
    assert rows.dtype == object
    levels = _assert_walks_agree(rows, rs._np["A"].T)
    assert all(k.dtype == object for k in levels)


def test_orbit_walk_past_64_columns():
    # A1^70 with mu = omega_65 + omega_67: two sign flips, so levels of
    # sizes 1, 2, 1.  A 64-bit mask of the negative coordinates would wrap
    # past node 64 and keep or drop the wrong steps.
    rs = build([("A", 1)] * 70)
    mu = [0] * 70
    mu[64] = mu[66] = 1
    levels = _assert_walks_agree(rootsys._orbit_rows(mu), rs._np["A"].T)
    assert [len(k) for k in levels] == [1, 2, 1]


def test_weyl_dimension_examples():
    g2 = build([("G", 2)])
    assert weyl_dimension(g2, Weight((1, 0))) == 7
    assert weyl_dimension(g2, Weight((0, 1))) == 14
    assert weyl_dimension(g2, Weight((0, 0))) == 1
    a2 = build([("A", 2)])
    assert weyl_dimension(a2, Weight((1, 1))) == 8
    e8 = build([("E", 8)])
    assert weyl_dimension(e8, Weight((0, 0, 0, 0, 0, 0, 0, 1))) == 248



def test_weyl_dimension_rejects_a_product_that_does_not_divide(monkeypatch):
    # Coroots that do not match the Weyl denominator (G2 without its
    # highest coroot) leave a remainder, which must be an error rather
    # than a floored dimension.
    rs = build([("G", 2)])
    monkeypatch.setitem(rs._np, "coroots", rs._np["coroots"][:-1])
    with pytest.raises(RootSystemError, match="not integral"):
        weyl_dimension(rs, Weight((1, 0)))

_REFERENCE_TYPES = ([[t] for t in ALL_SIMPLE]
                    + [[("A", 1), ("G", 2)], [("G", 2), ("B", 3)]])
_REFERENCE_IDS = ["+".join(f"{f}{r}" for f, r in c) for c in _REFERENCE_TYPES]


def _weyl_dimension_by_roots(rs, lam):
    """Weyl's formula over root pairings, prod (lambda + rho, alpha) /
    (rho, alpha), with (alpha_i, omega_j) = d_i delta_ij, in Python ints:
    the reference for weyl_dimension, which pairs with coroots."""
    d = rs.symmetrizers
    xi = [di * (x + 1) for di, x in zip(d, lam)]
    num = math.prod(sum(map(mul, c, xi)) for c in rs.positive_roots)
    den = math.prod(sum(map(mul, c, d)) for c in rs.positive_roots)
    dim, rem = divmod(num, den)
    assert rem == 0
    return dim


@pytest.mark.parametrize("comps", _REFERENCE_TYPES, ids=_REFERENCE_IDS)
def test_weyl_dimension_matches_root_pairings(comps):
    # Coroot pairings over prod ht alpha_vee against root pairings over
    # prod (rho, alpha), a ratio that is the same root by root, on small
    # lambda and on lambda + rho on both sides of 2^32, where the
    # pairings leave int64, and past 2^64.
    rs = build(comps)
    rng = random.Random(rs.rank)
    big = (0, 3, 2**32 - 2, 2**32 - 1, 2**40 + 1, 2**64 + 7)
    weights = [(0,) * rs.rank, (1,) * rs.rank]
    weights += [tuple(rng.randint(0, 5) for _ in range(rs.rank))
                for _ in range(4)]
    weights += [tuple(rng.choice(big) for _ in range(rs.rank))
                for _ in range(6)]
    for lam in weights:
        assert weyl_dimension(rs, Weight(lam)) == \
            _weyl_dimension_by_roots(rs, lam), lam


def _orbit_size_by_roots(rs, mu):
    """Macdonald's product a positive root at a time, in Python ints: the
    reference for rootsys._orbit_size."""
    num = den = 1
    for c in rs.positive_roots:
        if any(ci and mi for ci, mi in zip(c, mu)):
            num *= sum(c) + 1
            den *= sum(c)
    return num // den


@pytest.mark.parametrize("comps", _REFERENCE_TYPES, ids=_REFERENCE_IDS)
def test_orbit_size_matches_a_loop_over_roots(comps):
    # Every support of a dominant mu, with entries 1, 2^32, 2^63 or past
    # 2^64: the size reads only which mu_i are positive, so no entry
    # overflows it.
    rs = build(comps)
    rng = random.Random(rs.rank)
    for support in itertools.product((0, 1), repeat=rs.rank):
        mu = tuple(x * rng.choice((1, 2**32, 2**63, 2**64 + 5))
                   for x in support)
        assert rootsys._orbit_size(rs, mu) == _orbit_size_by_roots(rs, mu), mu


def test_root_systems_equal_and_hash_by_components():
    a, b = build([("G", 2)]), build([("G", 2)])
    assert a is not b and a == b and hash(a) == hash(b)
    assert build([("A", 1), ("A", 1)]) == build([("A", 1), ("A", 1)])
    assert build([("A", 2)]) != build([("G", 2)])
    assert build([("B", 3)]) != build([("C", 3)])


def test_build_refuses_an_empty_component_list():
    with pytest.raises(RootSystemError, match="nonempty"):
        build([])


def test_root_to_weight_coords_refuses_a_wrong_length():
    with pytest.raises(RootSystemError, match="length 2"):
        root_to_weight_coords(build([("G", 2)]), (1, 0, 0))


def test_integral_input_is_refused_not_truncated():
    # ints, numpy ints and bools are integers, and become ints
    w = Weight((np.int64(1), True))
    assert w.coords == (1, 1) and all(type(c) is int for c in w.coords)
    with pytest.raises(TypeError):
        Weight((1.9, 0))
    with pytest.raises(TypeError):
        root_to_weight_coords(build([("G", 2)]), (1.5, 0))
