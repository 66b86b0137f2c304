"""Acceptance suite.

Each test covers one release criterion, runs against frozen golden data
(tolerance 0 throughout -- everything here is exact integer arithmetic),
and prints a single PASS/FAIL line so the criteria can be audited from
the test log.  Stated runtime budgets are enforced with wall-clock
checks on the expensive criteria.
"""

import itertools
import json
import re
import time
from importlib import resources

import pytest

from sl2bounds import (E_set, GeneratorSet, SimpleComponent, Weight, b_bound,
                       build, complement, dominant_character, e_value, g0,
                       invariant_dim, parabolic_table, principal_embedding,
                       root_embedding, sl2_decompose,
                       weyl_alternating_character, weyl_dimension)
from sl2bounds.bounds import _canonical
from sl2bounds.character import full_weight_values


def _data(name):
    return json.loads(resources.files("sl2bounds.data").joinpath(name)
                      .read_text())


def _report(name, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}{': ' + detail if detail else ''}")
    assert ok, f"{name} failed: {detail}"


@pytest.fixture(scope="module")
def g2():
    return build([SimpleComponent("G", 2)])


@pytest.fixture(scope="module")
def g2_grids(g2):
    """Full 20x20 invariant-dimension and g0 grids, shared by criteria 1-2."""
    emb = principal_embedding(g2)
    start = time.monotonic()
    inv = [[invariant_dim(g2, Weight((i, j)), emb) for j in range(20)]
           for i in range(20)]
    gg = [[g0(g2, Weight((i, j)), emb) for j in range(20)]
          for i in range(20)]
    return inv, gg, time.monotonic() - start


def test_criterion_1_table1(g2_grids):
    inv, _, elapsed = g2_grids
    golden = _data("g2_invariant_dims.json")["table"]
    mismatches = sum(inv[i][j] != golden[i][j]
                     for i in range(20) for j in range(20))
    ok = mismatches == 0 and elapsed < 60.0
    _report("criterion 1 (invariant-dimension 20x20 grid)", ok,
            f"{400 - mismatches}/400 exact, {elapsed:.1f}s (< 60s budget)")


def test_criterion_2_table2(g2_grids):
    _, gg, _ = g2_grids
    golden = _data("g2_g0.json")["table"]
    mismatches = sum(gg[i][j] != golden[i][j]
                     for i in range(20) for j in range(20))
    _report("criterion 2 (g0 20x20 grid)", mismatches == 0,
            f"{400 - mismatches}/400 exact")


def test_criterion_3_bound(g2):
    res = b_bound(g2, principal_embedding(g2))
    ok = (res.b == 8 and res.m_values == (4, 2)
          and res.box_max_g0 == 7)
    _report("criterion 3 (b = 8, m-values (4, 2), 4x2 box)", ok,
            f"b={res.b}, m={res.m_values}, "
            f"max g0 over box={res.box_max_g0}")


def test_criterion_4_certified_complement(g2):
    start = time.monotonic()
    comp9 = _data("g2_semigroup_complement9.json")
    gs9 = GeneratorSet([tuple(g) for g in comp9["generators"]])
    res9 = complement(gs9, box_bound=64)
    golden_pts = sorted(tuple(p) for p in comp9["points"])
    ok_eprime = (res9.certified and len(res9.points) == 73
                 and sorted(res9.points) == golden_pts)

    exceptions = {tuple(w) for w in _data("g2_exceptions.json")["weights"]}
    emb = principal_embedding(g2)
    computed_exc = {p for p in res9.points
                    if invariant_dim(g2, Weight(p), emb) == 0}
    ok_exc = computed_exc == exceptions and len(exceptions) == 26

    # Complement of the smaller 6-generator set: every element must be a
    # known exception or carry a positive invariant.
    gs6 = GeneratorSet([(0, 2), (0, 17), (4, 0), (15, 0), (5, 1), (1, 3)])
    res6 = complement(gs6, box_bound=64)
    ok_cover = res6.certified and all(
        p in exceptions or invariant_dim(g2, Weight(p), emb) > 0
        for p in res6.points)
    elapsed = time.monotonic() - start
    ok = ok_eprime and ok_exc and ok_cover and elapsed < 120.0
    _report("criterion 4 (certified complement, 73 + 26, 6-gen cover)", ok,
            f"|E'|={len(res9.points)}, |exceptions|={len(computed_exc)}, "
            f"|E|={len(res6.points)}, {elapsed:.1f}s (< 120s budget)")


def _levi_key(components):
    return sorted((_canonical(c).family, _canonical(c).rank)
                  for c in components)


def test_criterion_5_parabolic_tables():
    start = time.monotonic()
    golden = _data("parabolic_tables.json")
    bad = []
    for name, tbl in golden["tables"].items():
        comp = SimpleComponent(name[0], int(name[1:]))
        rows = parabolic_table(comp)
        for row, levi_s, dim_s in zip(rows, tbl["levis"], tbl["dims"]):
            want = _levi_key(SimpleComponent(f, int(r))
                             for f, r in re.findall(r"([A-G])(\d+)", levi_s))
            if (_levi_key(row.levi_ss_components) != want
                    or row.dim_g_mod_lss != dim_s):
                bad.append((name, row.node))
    e_ok = all(e_value(SimpleComponent(n[0], int(n[1:]))) == v
               for n, v in golden["e_values"].items())
    excl = [str(c) for c in E_set(8)]
    excl_ok = excl == sorted(golden["exclusion_set_dim8"])
    elapsed = time.monotonic() - start
    ok = not bad and e_ok and excl_ok and elapsed < 1.0
    _report("criterion 5 (Levi tables, e-values, rank-8 exclusion set)", ok,
            f"{len(golden['tables']) - len(bad)}/{len(golden['tables'])} "
            f"tables, e-row {'ok' if e_ok else 'BAD'}, "
            f"|E|={len(excl)}, {elapsed:.2f}s (< 1s budget)")


def test_criterion_6_property_suite():
    # (a) Freudenthal vs Weyl alternating sum, coordinate sum <= 6.
    oracle_cases = 0
    for fam, rank in (("A", 1), ("A", 2), ("B", 2), ("G", 2)):
        rs = build([SimpleComponent(fam, rank)])
        for lam in itertools.product(range(7), repeat=rank):
            if sum(lam) > 6:
                continue
            w = Weight(lam)
            f = dominant_character(rs, w)
            a = weyl_alternating_character(rs, w)
            assert f.mults == a.mults, (fam, rank, lam)
            oracle_cases += 1

    # (b) dimension conservation on 500+ (lambda, embedding) cases; the
    # decompose call also exercises the symmetry/nonnegativity certificates.
    conserved = 0
    for fam, rank, box in (("A", 2, 10), ("B", 2, 9), ("G", 2, 13)):
        rs = build([SimpleComponent(fam, rank)])
        embs = [principal_embedding(rs)]
        if (fam, rank) == ("G", 2):
            embs.append(root_embedding(rs, (3, 2)))  # highest root
        for emb in embs:
            for lam in itertools.product(range(box), repeat=rank):
                w = Weight(lam)
                dec = sl2_decompose(rs, w, emb)
                assert dec.dimension() == weyl_dimension(rs, w), (fam, lam)
                conserved += 1
    assert conserved >= 500

    # (c) Cartan-Helgason parity: for A2 principal, an invariant exists
    # exactly when the zero weight-value count exceeds the count at 2,
    # and lambda supports a zero value only when lam(h) is even.
    a2 = build([SimpleComponent("A", 2)])
    emb = principal_embedding(a2)
    for lam in itertools.product(range(9), repeat=2):
        w = Weight(lam)
        vals = full_weight_values(a2, w, emb.marks)
        lam_h = 2 * (lam[0] + lam[1])
        assert all((v - lam_h) % 2 == 0 for v in vals)
        assert invariant_dim(a2, w, emb) == vals.get(0, 0) - vals.get(2, 0)

    # (d) semigroup monotonicity: invariant-positive pairs absorb under
    # addition of invariant-positive pairs, checked over the G2 7x7 box.
    g2 = build([SimpleComponent("G", 2)])
    emb = principal_embedding(g2)
    pos = [p for p in itertools.product(range(7), repeat=2)
           if invariant_dim(g2, Weight(p), emb) > 0]
    for a in pos:
        for b in pos:
            s = (a[0] + b[0], a[1] + b[1])
            assert invariant_dim(g2, Weight(s), emb) > 0, (a, b)

    _report("criterion 6 (property suite)", True,
            f"oracle agreement on {oracle_cases} characters, "
            f"{conserved} conservation cases, parity and monotonicity ok")


def test_criterion_7_dim_hypothesis():
    low = []
    for fam in "ABCDEFG":
        ranks = {"A": range(1, 9), "B": range(2, 9), "C": range(2, 9),
                 "D": range(3, 9), "E": (6, 7, 8), "F": (4,),
                 "G": (2,)}[fam]
        for rank in ranks:
            comp = SimpleComponent(fam, rank)
            for row in parabolic_table(comp):
                if row.dim_X <= 3 and (fam, rank) not in (("A", 1), ("A", 2)):
                    low.append((fam, rank, row.node))
    a_min = min(row.dim_g_mod_lss
                for rank in range(2, 9)
                for row in parabolic_table(SimpleComponent("A", rank)))
    a_min_sites = [(rank, row.node)
                   for rank in range(2, 9)
                   for row in parabolic_table(SimpleComponent("A", rank))
                   if row.dim_g_mod_lss == a_min]
    ok = not low and a_min == 5 and a_min_sites == [(2, 1), (2, 2)]
    _report("criterion 7 (dim X > 3 except A1/A2; type-A minimum 5)", ok,
            f"violations={low}, min type-A value={a_min} at {a_min_sites}")
