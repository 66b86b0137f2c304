import json
import re
import time
from importlib import resources
from itertools import product

import pytest

from sl2bounds import (
    E_set, SimpleComponent, Weight, b_bound, build, e_value, g0,
    levi_ss_components, m_value, m_values, parabolic_table,
    principal_embedding, root_embedding,
)
from sl2bounds import bounds, character, rootsys
from sl2bounds.bounds import BoundsError, _canonical
from sl2bounds.sl2branch import Sl2Embedding


def _fixture():
    with resources.files("sl2bounds.data").joinpath(
            "parabolic_tables.json").open() as f:
        return json.load(f)


def _parse_levi(s):
    comps = [_canonical(SimpleComponent(f, int(r)))
             for f, r in re.findall(r"([A-G])(\d+)", s)]
    return sorted((c.family, c.rank) for c in comps)


def test_m_values_g2_principal():
    rs = build([("G", 2)])
    emb = principal_embedding(rs)
    assert m_value(rs, emb, 1) == 4
    assert m_value(rs, emb, 2) == 2


def test_m_values_a2_principal():
    rs = build([("A", 2)])
    emb = principal_embedding(rs)
    assert m_values(rs, emb).values == (2, 2)


def test_m_value_sentinel_zero_at_small_cap():
    rs = build([("G", 2)])
    assert m_value(rs, principal_embedding(rs), 1, cap=1) == 0


def test_m_positive_g2_all_embeddings():
    rs = build([("G", 2)])
    short = (1, 0)
    long_ = max(rs.positive_roots, key=sum)
    for emb in (principal_embedding(rs), root_embedding(rs, short),
                root_embedding(rs, long_)):
        mv = m_values(rs, emb, cap=24)
        assert all(m > 0 for m in mv.values), emb


def test_b_bound_g2():
    rs = build([("G", 2)])
    res = b_bound(rs, principal_embedding(rs))
    assert res.b == 8
    assert res.m_values.values == (4, 2)
    assert res.box_max_g0 == 7
    assert res.box_max_weight.coords == (1, 0)


def _e6_subregular_bound():
    rs = build([("E", 6)])
    res = b_bound(rs, Sl2Embedding(marks=(2, 2, 2, 0, 2, 2)))
    assert res.b == 6
    assert res.m_values.values == (2, 2, 2, 1, 2, 2)
    assert res.box_max_weight.coords == (0, 0, 0, 0, 0, 1)


def test_b_bound_walks_the_orbit_of_h_once(answered, builds):
    # The E6 subregular bound restricts 43 weights to one sl2.  Its first
    # five, each with dim L(lambda) at most the 25920 cosets of h, are
    # expanded over their orbits and build no table; the first larger one
    # builds the one coset table, one walk over the orbit of h, and the
    # remaining 37 read it from the sl2's record.
    _e6_subregular_bound()
    assert builds == [(2, 2, 2, 0, 2, 2)]
    assert answered == {"_by_orbits": 5, "_by_cosets": 38}


def test_b_bound_e6_subregular_budget():
    # In process, with a cold coset table; 2 s is a gate, not a target.
    character._sl2.cache_clear()
    start = time.monotonic()
    _e6_subregular_bound()
    assert time.monotonic() - start < 2.0


def _named_sl2s():
    """(root system, embedding) for the principal, highest-root and
    highest-short-root sl2s of every simple type of rank 2-4, each set of
    marks once."""
    for f, n in (("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
                 ("C", 3), ("C", 4), ("D", 4), ("F", 4), ("G", 2)):
        rs = build([(f, n)])
        norms = rs._np["roots_norm"]
        short = [r for r, x in zip(rs.positive_roots, norms)
                 if x == norms.min()]
        embs = (principal_embedding(rs),
                root_embedding(rs, rs.positive_roots[-1]),
                root_embedding(rs, short[-1]))
        yield from ((rs, emb) for emb in {e.marks: e for e in embs}.values())


_NAMED_SL2S = list(_named_sl2s())


def test_named_sl2s_are_29_marks():
    assert len(_NAMED_SL2S) == 29


@pytest.mark.parametrize("rs,emb", _NAMED_SL2S,
                         ids=[f"{rs.fingerprint}-{e}" for rs, e in _NAMED_SL2S])
def test_g0_past_c0_stays_below_b(rs, emb):
    # The paper's theorem: every lambda is some lambda_0 in C0 plus a sum
    # of m_j omega_j, and g0 does not grow along it, so max g0 over the
    # box 2 C0 = {a_i < 2 m_i} is b - 1, as over C0, which it contains.
    res = b_bound(rs, emb)
    box = product(*(range(2 * m) for m in res.m_values.values))
    assert max(g0(rs, Weight(lam), emb) for lam in box) == res.b - 1


def test_principal_b_of_rank_2_to_4():
    b = {rs.fingerprint: b_bound(rs, emb).b
         for rs, emb in _NAMED_SL2S if emb.kind == "principal"}
    assert b == {"A2": 4, "A3": 5, "A4": 6, "B2": 6, "B3": 8, "B4": 10,
                 "C3": 7, "C4": 9, "D4": 4, "F4": 10, "G2": 8}


def test_b_bound_errors_when_m_missing():
    rs = build([("G", 2)])
    with pytest.raises(BoundsError):
        b_bound(rs, principal_embedding(rs), cap=1)


@pytest.mark.parametrize("node,cap,reason", [(0, 4, "out of range"),
                                             (3, 4, "out of range"),
                                             (1, 0, "cap must be >= 1")])
def test_m_value_refuses_a_bad_node_or_cap(node, cap, reason):
    rs = build([("G", 2)])
    with pytest.raises(BoundsError, match=reason):
        m_value(rs, principal_embedding(rs), node, cap)


@pytest.mark.parametrize("node", [0, 3])
def test_levi_components_refuse_a_node_out_of_range(node):
    with pytest.raises(BoundsError, match=f"node {node} out of range for G2"):
        levi_ss_components(SimpleComponent("G", 2), node)


def test_levi_components_examples():
    assert [str(c) for c in levi_ss_components(SimpleComponent("G", 2), 1)] \
        == ["A1"]
    assert [str(c) for c in levi_ss_components(SimpleComponent("E", 6), 2)] \
        == ["A5"]
    assert [str(c) for c in levi_ss_components(SimpleComponent("A", 3), 2)] \
        == ["A1", "A1"]


def test_parabolic_tables_match_golden():
    gold = _fixture()["tables"]
    for tname, tbl in gold.items():
        comp = SimpleComponent(tname[0], int(tname[1:]))
        rows = parabolic_table(comp)
        assert len(rows) == comp.rank
        for row, levi_s, dim_s in zip(rows, tbl["levis"], tbl["dims"]):
            got = sorted((_canonical(c).family, _canonical(c).rank)
                         for c in row.levi_ss_components)
            assert got == _parse_levi(levi_s), (tname, row.node)
            assert row.dim_g_mod_lss == dim_s, (tname, row.node)
            assert row.dim_g_mod_lss % 2 == 1
            assert 2 * row.dim_X == row.dim_g_mod_lss + 1


def test_parabolic_spot_values():
    assert [r.dim_g_mod_lss for r in parabolic_table(SimpleComponent("G", 2))] \
        == [11, 11]
    assert parabolic_table(SimpleComponent("E", 8))[7].dim_g_mod_lss == 115
    assert parabolic_table(SimpleComponent("B", 3))[1].dim_g_mod_lss == 15


def test_e_values_match_golden():
    for name, ev in _fixture()["e_values"].items():
        comp = SimpleComponent(name[0], int(name[1:]))
        assert e_value(comp) == ev, name


def test_type_a_closed_form():
    # for A_n, deleting node p+1 (q = n-1-p) gives
    # dim g/l_ss = dim A_n - dim A_p - dim A_q
    #           = n^2 - p^2 - q^2 + 2n - 2p - 2q
    for n in range(2, 9):
        rows = parabolic_table(SimpleComponent("A", n))
        for p, row in enumerate(rows):
            q = n - 1 - p
            assert row.dim_g_mod_lss == \
                n * n - p * p - q * q + 2 * n - 2 * p - 2 * q


def test_type_a_minimum_is_five_at_a2_only():
    vals = []
    for n in range(2, 9):
        for row in parabolic_table(SimpleComponent("A", n)):
            vals.append((n, row.dim_g_mod_lss))
    assert min(v for _, v in vals) == 5
    assert all(n == 2 for n, v in vals if v == 5)


ALL_SIMPLE = (
    [("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)] +
    [("C", n) for n in range(2, 9)] + [("D", n) for n in range(3, 9)] +
    [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("fam,rank", ALL_SIMPLE)
def test_dim_x_exceeds_three_outside_a1_a2(fam, rank):
    rows = parabolic_table(SimpleComponent(fam, rank))
    if (fam, rank) in (("A", 1), ("A", 2)):
        return
    assert all(row.dim_X > 3 for row in rows)


def test_exclusion_set_sl3():
    got = [str(c) for c in E_set(8)]
    assert got == sorted(_fixture()["exclusion_set_dim8"])
    assert len(got) == 14


def test_exclusion_set_small():
    assert [str(c) for c in E_set(3)] == ["A1", "A2"]
    assert E_set(1) == []


_RANK_12 = list(bounds._all_simple_types(12))


@pytest.mark.parametrize("comp", _RANK_12, ids=str)
def test_e_exceeds_rank(comp):
    # E_set walks only ranks below dim_k, because e(s) >= rank(s) + 1:
    # every node k lies in at least rank(s) positive roots, one per node j.
    # The root count is read off the root system, not the parabolic table.
    assert e_value(comp) >= comp.rank + 1
    roots = build([comp]).positive_roots
    for k in range(comp.rank):
        assert sum(1 for r in roots if r[k]) >= comp.rank, (comp, k + 1)


# The Dynkin walk: an independent reference for the closed forms of
# levi_ss_components, parabolic_table and e_value.  It splits the diagram of
# _block with node k deleted into connected pieces and names each by its
# shape.

def _block(comp):
    """(cartan, d) of one simple type from its Dynkin data alone."""
    fam = rootsys._DYNKIN[comp.family]
    d = fam.d(comp.rank)
    return rootsys._cartan(d, fam.bonds(comp.rank)), d


def _neighbours(cartan):
    """Per node i of a Cartan block, its neighbours in the Dynkin diagram."""
    return tuple(tuple(j for j, a in enumerate(row) if a and j != i)
                 for i, row in enumerate(cartan))


def _identify(d, nbrs, nodes):
    """Simple type of the connected Dynkin subdiagram on ``nodes``, with
    nbrs from _neighbours of the whole block, named by its shape (Bourbaki
    VI, Plates I-IX).  The symmetrizers d give the bonds: a length ratio of
    3 is G2; of 2, B_n with one short node, F4 with two of four, else C_n.
    A simply-laced branch node is D_n's with two or three leaves next to
    it, E_n's with one; anything else is A_n.  So C2 names as B2, D3 as A3."""
    n = len(nodes)
    ds = [d[i] for i in nodes]
    ratio, short = max(ds) // min(ds), ds.count(min(ds))
    if ratio == 3:
        return SimpleComponent("G", 2)
    if ratio == 2:
        return SimpleComponent(
            "B" if short == 1 else "F" if (n, short) == (4, 2) else "C", n)
    inside = set(nodes)
    for i in nodes:
        linked = [j for j in nbrs[i] if j in inside]
        if len(linked) == 3:
            leaves = sum(sum(k in inside for k in nbrs[j]) == 1
                         for j in linked)
            return SimpleComponent("D" if leaves >= 2 else "E", n)
    return SimpleComponent("A", n)


def _walked_levi(comp, k):
    """The Levi type of node k by the walk, sorted by (family, rank)."""
    cartan, d = _block(comp)
    nbrs = _neighbours(cartan)
    rest = set(range(comp.rank)) - {k - 1}
    out = []
    while rest:
        nodes = [rest.pop()]
        for i in nodes:  # nodes grows to the connected component of its head
            linked = [j for j in nbrs[i] if j in rest]
            nodes += linked
            rest.difference_update(linked)
        out.append(_identify(d, nbrs, nodes))
    return sorted(out, key=lambda c: (c.family, c.rank))


def _walked_table(comp):
    """(node, Levi type, dim g/l_ss, dim X) per node, by the walk."""
    rows = []
    for k in range(1, comp.rank + 1):
        levi = _walked_levi(comp, k)
        dml = comp.dim - sum(c.dim for c in levi)
        rows.append((k, tuple(levi), dml, (dml + 1) // 2))
    return rows


def _walked_e(comp):
    """e by the Dynkin walk: the least dim_X of the walked table."""
    return min(dim_x for *_, dim_x in _walked_table(comp))


@pytest.mark.parametrize("comp", list(bounds._all_simple_types(24)), ids=str)
def test_levi_closed_forms_match_the_dynkin_walk(comp):
    rows = [(r.node, r.levi_ss_components, r.dim_g_mod_lss, r.dim_X)
            for r in parabolic_table(comp)]
    assert rows == _walked_table(comp)
    for k in range(1, comp.rank + 1):
        assert levi_ss_components(comp, k) == _walked_levi(comp, k), k


@pytest.mark.parametrize("comp", list(bounds._all_simple_types(16)), ids=str)
def test_e_closed_form_matches_the_dynkin_walk(comp):
    assert e_value(comp) == _walked_e(comp)


def test_e_value_walks_no_diagram(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("e_value walked a Dynkin diagram")

    monkeypatch.setattr(bounds, "parabolic_table", forbidden)
    monkeypatch.setattr(bounds, "levi_ss_components", forbidden)
    assert [e_value(s) for s in map(SimpleComponent, "ABCDEFG",
                                    (5, 5, 5, 5, 7, 4, 2))] == \
        [6, 10, 10, 9, 28, 16, 6]


def test_exclusion_set_matches_every_e_value_to_rank_12():
    # E_set reads the closed forms; the reference takes e from the walk
    e = {s: _walked_e(s) for s in _RANK_12}
    for d in range(1, 13):
        assert E_set(d) == sorted({_canonical(s) for s in _RANK_12
                                   if e[s] <= d},
                                  key=lambda c: (c.family, c.rank)), d


def test_exclusion_set_64_closed_form():
    # e(A_n) = n + 1, e(B_n) = e(C_n) = 2n, e(D_n) = 2n - 1, and e = 17,
    # 28, 58, 16, 6 for E6, E7, E8, F4, G2; C2 = B2 and D3 = A3 are named
    # once.  So E_set(64) holds these 158 types.
    want = ([("A", n) for n in range(1, 64)] +
            [("B", n) for n in range(2, 33)] +
            [("C", n) for n in range(3, 33)] +
            [("D", n) for n in range(4, 33)] +
            [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])
    assert len(want) == 158
    assert [(c.family, c.rank) for c in E_set(64)] == want


def test_levi_classification_needs_no_root_system(monkeypatch):
    # The Levi type depends only on the Cartan block and the symmetrizers;
    # building a root system per node made criterion 5 miss its budget.
    expected_tables = {s: parabolic_table(s)
                       for s in bounds._all_simple_types(8)}
    expected_excl = E_set(8)

    def forbidden(*args, **kwargs):
        raise AssertionError("root system built for a Levi classification")

    monkeypatch.setattr(rootsys, "_positive_roots_closure", forbidden)
    monkeypatch.setattr(rootsys, "_inverse_int", forbidden)
    for s, rows in expected_tables.items():
        assert parabolic_table(s) == rows, s
    assert E_set(8) == expected_excl


def test_all_simple_types_order():
    # e-table prints this order; the names do not depend on it
    assert [str(s) for s in bounds._all_simple_types(4)] == [
        "A1", "A2", "A3", "A4", "B2", "C2", "B3", "C3", "B4", "C4",
        "D3", "D4", "F4", "G2"]


def test_dynkin_shapes_identify_every_simple_type(monkeypatch):
    # Every simple type of rank <= 11 is named from the shape of its
    # _block alone, also with its nodes numbered in reverse; the
    # isomorphic pairs name as B2 = C2 and A3 = D3.
    def forbidden(*args, **kwargs):
        raise AssertionError("root system built for a type identification")

    monkeypatch.setattr(rootsys, "_positive_roots_closure", forbidden)
    monkeypatch.setattr(rootsys, "_inverse_int", forbidden)
    renamed = {"C2": "B2", "D3": "A3"}
    for s in bounds._all_simple_types(11):
        cartan, d = _block(s)
        nodes = range(s.rank)
        want = renamed.get(str(s), str(s))
        assert str(_identify(d, _neighbours(cartan), nodes)) == want
        flipped = [row[::-1] for row in cartan[::-1]]
        assert str(_identify(d[::-1], _neighbours(flipped), nodes)) == want
        assert str(_canonical(s)) == want


def test_levi_types_read_no_cartan_block(monkeypatch):
    # The Levi types come from closed forms, so a spy that refuses every
    # Cartan matrix and every root system changes no answer.
    types = [SimpleComponent("D", 12), SimpleComponent("E", 8)]
    want = {s: _walked_table(s) for s in types}

    def forbidden(*args, **kwargs):
        raise AssertionError("a Cartan matrix was formed for a Levi type")

    for name in ("_cartan", "build"):
        monkeypatch.setattr(rootsys, name, forbidden)
        monkeypatch.setattr(bounds, name, forbidden, raising=False)
    for s in types:
        assert [(r.node, r.levi_ss_components, r.dim_g_mod_lss, r.dim_X)
                for r in parabolic_table(s)] == want[s]
        assert [tuple(levi_ss_components(s, k))
                for k in range(1, s.rank + 1)] == [w[1] for w in want[s]]


# short positive roots of a simple type: e_i in B_n, e_i +- e_j in C_n
_SHORT_ROOTS = {"B": lambda n: n, "C": lambda n: n * (n - 1),
                "F": lambda n: 12, "G": lambda n: 3}


@pytest.mark.parametrize("comp", list(bounds._all_simple_types(8)), ids=str)
def test_levi_components_agree_with_root_closure(comp):
    # Independent check: the positive roots of the Levi subalgebra of node k
    # are the positive roots with k-th simple-root coordinate 0.  Each has
    # its support in one simple component, whose highest root has the
    # largest support.  Per component, |Phi+| and the number of short roots
    # (those shorter than its longest) must agree: B_n and C_n share |Phi+|.
    def support(root):
        return frozenset(i for i, c in enumerate(root) if c)

    rs = build([comp])
    roots = rs.positive_roots
    norms = dict(zip(roots, rs._np["roots_norm"].tolist()))
    for row in parabolic_table(comp):
        k = row.node
        levi_roots = [r for r in roots if r[k - 1] == 0]
        supports = {support(r) for r in levi_roots}
        closure = []
        for part in supports:
            if any(part < other for other in supports):
                continue
            inside = [norms[r] for r in levi_roots if support(r) <= part]
            closure.append((len(inside),
                            sum(x < max(inside) for x in inside)))
        levi = levi_ss_components(comp, k)
        assert sorted(closure) == sorted(
            (c.num_positive_roots, _SHORT_ROOTS.get(c.family, lambda n: 0)(
                c.rank)) for c in levi), (comp, k)
        assert row.dim_g_mod_lss == 1 + 2 * (len(roots) - len(levi_roots)), \
            (comp, k)
