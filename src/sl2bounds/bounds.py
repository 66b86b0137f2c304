"""Headline quantities: m-values, the uniform branching bound b, and
maximal-parabolic dimension bookkeeping (dim g/l_ss, dim X, e, E).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .rootsys import (FAMILIES, RootSystem, SimpleComponent, Weight, _ranks,
                      _simple_block)
from .sl2branch import Sl2Embedding, g0, invariant_dim

DEFAULT_M_CAP = 64
E_SET_CAP = 64  # dim_k; a higher cap would print more types, not take long


class BoundsError(ValueError):
    pass


@dataclass(frozen=True)
class MValues:
    values: tuple  # per node; 0 means not found within cap
    cap: int


@dataclass(frozen=True)
class ParabolicRow:
    node: int  # 1-based Bourbaki node
    levi_ss_components: tuple
    dim_g_mod_lss: int
    dim_X: int


@dataclass(frozen=True)
class BoundResult:
    b: int
    m_values: MValues
    box_max_weight: Weight  # lambda in C0 achieving the max g0
    box_max_g0: int


def m_value(rs: RootSystem, emb: Sl2Embedding, j: int,
            cap: int = DEFAULT_M_CAP) -> int:
    """Least n in [1, cap] with an invariant in L(n * omega_j), else 0."""
    if not 1 <= j <= rs.rank:
        raise BoundsError(f"node index {j} out of range")
    if cap < 1:
        raise BoundsError("cap must be >= 1")
    for n in range(1, cap + 1):
        lam = Weight(tuple(n if i == j - 1 else 0 for i in range(rs.rank)))
        if invariant_dim(rs, lam, emb) > 0:
            return n
    return 0


def m_values(rs: RootSystem, emb: Sl2Embedding,
             cap: int = DEFAULT_M_CAP) -> MValues:
    return MValues(values=tuple(m_value(rs, emb, j, cap)
                                for j in range(1, rs.rank + 1)), cap=cap)


def b_bound(rs: RootSystem, emb: Sl2Embedding,
            cap: int = DEFAULT_M_CAP) -> BoundResult:
    """b = 1 + max g0(lambda) over the box C0 = {sum a_i omega_i, a_i < m_i}.

    Every irreducible of the ambient algebra then contains an sl2
    irreducible of dimension < b.
    """
    mv = m_values(rs, emb, cap)
    missing = [j + 1 for j, m in enumerate(mv.values) if m == 0]
    if missing:
        raise BoundsError(
            f"m-value not found within cap {cap} for nodes {missing}")
    box = map(Weight, product(*(range(m) for m in mv.values)))
    g, lam = max(((g0(rs, lam, emb), lam) for lam in box),
                 key=lambda pair: pair[0])   # the first of the largest
    return BoundResult(b=g + 1, m_values=mv, box_max_weight=lam, box_max_g0=g)


# ---------------------------------------------------------------------------
# Maximal parabolics


def _neighbours(cartan):
    """Per node i of a Cartan block, its neighbours in the Dynkin diagram:
    one pass over the block."""
    return tuple(tuple(j for j, a in enumerate(row) if a and j != i)
                 for i, row in enumerate(cartan))


def _identify(d, nbrs, nodes) -> SimpleComponent:
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


def _canonical(comp: SimpleComponent) -> SimpleComponent:
    """The name _identify gives a simple type: C2 is B2 and D3 is A3."""
    return {"C2": SimpleComponent("B", 2),
            "D3": SimpleComponent("A", 3)}.get(str(comp), comp)


def levi_ss_components(comp: SimpleComponent, k: int):
    """Simple components of the Dynkin diagram with node k (Bourbaki,
    1-based) deleted: the semisimple Levi type of the k-th maximal
    parabolic.

    Reads only the Cartan block and the symmetrizers of ``comp`` (from
    ``_simple_block``); no root system is built."""
    if not 1 <= k <= comp.rank:
        raise BoundsError(f"node {k} out of range for {comp}")
    cartan, d = _simple_block(comp)
    return _levi(d, _neighbours(cartan), k)


def _levi(d, nbrs, k: int):
    """levi_ss_components of node k, from d and nbrs of its whole block."""
    rest = set(range(len(d))) - {k - 1}
    out = []
    while rest:
        nodes = [rest.pop()]
        for i in nodes:  # nodes grows to the connected component of its head
            linked = [j for j in nbrs[i] if j in rest]
            nodes += linked
            rest.difference_update(linked)
        out.append(_identify(d, nbrs, nodes))
    return sorted(out, key=lambda c: (c.family, c.rank))


def parabolic_table(comp: SimpleComponent):
    """One ParabolicRow per Dynkin node of a simple type, all split from
    one reading of its Cartan block."""
    cartan, d = _simple_block(comp)
    nbrs, rows = _neighbours(cartan), []
    for k in range(1, comp.rank + 1):
        levi = _levi(d, nbrs, k)
        dml = comp.dim - sum(c.dim for c in levi)
        if dml % 2 == 0:
            raise BoundsError(f"dim g/l_ss = {dml} should be odd ({comp}, {k})")
        rows.append(ParabolicRow(node=k, levi_ss_components=tuple(levi),
                                 dim_g_mod_lss=dml, dim_X=(dml + 1) // 2))
    return rows


# e per family at rank n, 1 + the least dim G/P_k (Bourbaki, Lie Groups and
# Lie Algebras VI, Plates I-IX): P_1 gives P^n for A_n, P^{2n-1} for C_n and
# the quadrics of dimension 2n - 1 for B_n and 2n - 2 for D_n, whose spinor
# variety G/P_n, of dimension n(n-1)/2, is smaller at n = 3 (D3 = A3); E6,
# E7, E8, F4 and G2 have least dim G/P_k 16, 27, 57, 15 and 5.
_E_FORMS = {"A": lambda n: n + 1, "B": lambda n: 2 * n, "C": lambda n: 2 * n,
            "D": lambda n: min(2 * n - 1, n * (n - 1) // 2 + 1),
            "E": {6: 17, 7: 28, 8: 58}.get, "F": lambda n: 16,
            "G": lambda n: 6}


def e_value(comp: SimpleComponent) -> int:
    """Minimum highest-weight-orbit dimension over the maximal parabolics,
    min dim_X of parabolic_table, by its closed form per family (Bourbaki,
    Lie Groups and Lie Algebras VI, Plates I-IX); no diagram is walked."""
    return _E_FORMS[comp.family](comp.rank)


def _all_simple_types(rank_cap: int):
    """Every simple type of rank <= rank_cap, B and C interleaved by rank."""
    return sorted((SimpleComponent(f, n) for f in FAMILIES
                   for n in _ranks(f, rank_cap)),
                  key=lambda s: ("B" if s.family == "C" else s.family, s.rank))


def E_set(dim_k: int):
    """All simple types s with e(s) <= dim_k, which an ambient algebra must
    avoid for the dimension count to apply to a subalgebra of dimension
    dim_k.  Ranks >= dim_k have none: e(s) = 1 + min_k dim G/P_k, and each
    Dynkin path from node k sums to a root outside P_k's Levi, so e > rank."""
    if dim_k > E_SET_CAP:
        raise BoundsError(f"dim_k = {dim_k} exceeds cap {E_SET_CAP}")
    return sorted({_canonical(s) for s in _all_simple_types(dim_k - 1)
                   if e_value(s) <= dim_k}, key=lambda c: (c.family, c.rank))
