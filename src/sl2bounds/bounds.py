"""Headline quantities: m-values, the uniform branching bound b, and
maximal-parabolic dimension bookkeeping (dim g/l_ss, dim X, e, E).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .rootsys import (RootSystem, SimpleComponent, Weight,
                      _dynkin_edges, _simple_block)
from .sl2branch import Sl2Embedding, g0, invariant_dim

DEFAULT_M_CAP = 64


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
    best = None
    for a in product(*(range(m) for m in mv.values)):
        lam = Weight(a)
        g = g0(rs, lam, emb)
        if best is None or g > best[1]:
            best = (lam, g)
    return BoundResult(b=best[1] + 1, m_values=mv,
                       box_max_weight=best[0], box_max_g0=best[1])


# ---------------------------------------------------------------------------
# Maximal parabolics


def _classify_component(nodes, edges, dvals):
    """Identify the simple type of a connected Dynkin subdiagram.

    nodes: list of node ids; edges: {frozenset {i,j}: bond multiplicity};
    dvals: node id -> half squared length (relative within the parent).
    Returns a SimpleComponent, with B1/C1 -> A1, C2 -> B2, D3 -> A3.
    """
    n = len(nodes)
    if n == 1:
        return SimpleComponent("A", 1)
    adj = {v: [] for v in nodes}
    for e, mult in edges.items():
        i, j = tuple(e)
        adj[i].append((j, mult))
        adj[j].append((i, mult))
    degs = sorted(len(adj[v]) for v in nodes)
    multiset = sorted(m for _, m in
                      [(e, m) for e, m in edges.items()])
    dset = {dvals[v] for v in nodes}

    if max(multiset) == 3:
        return SimpleComponent("G", 2)
    if max(multiset) == 2:
        # B, C or F4: exactly one double bond on a chain
        if degs[-1] > 2:
            raise BoundsError("unrecognized multiply-laced diagram")
        short = [v for v in nodes if dvals[v] == min(dset)]
        long_ = [v for v in nodes if dvals[v] == max(dset)]
        if n == 2:
            return SimpleComponent("B", 2)
        if len(short) == len(long_) == 2 and n == 4:
            return SimpleComponent("F", 4)
        if len(short) == 1:
            return SimpleComponent("B", n)
        if len(long_) == 1:
            return SimpleComponent("B", 2) if n == 2 else SimpleComponent("C", n)
        raise BoundsError("unrecognized multiply-laced diagram")

    # simply laced: A (path), D (one triple point, two arms of length 1),
    # E (one triple point, arms 1,2,k)
    if degs[-1] <= 2:
        if n == 3:
            return SimpleComponent("A", 3)  # = D3
        return SimpleComponent("A", n)
    if degs[-1] > 3 or degs.count(3) > 1:
        raise BoundsError("unrecognized simply-laced diagram")
    hub = next(v for v in nodes if len(adj[v]) == 3)
    arms = []
    for w, _ in adj[hub]:
        length = 1
        prev, cur = hub, w
        while True:
            nxt = [u for u, _ in adj[cur] if u != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    arms.sort()
    if arms[0] == 1 and arms[1] == 1:
        return SimpleComponent("D", n)
    if arms[:2] == [1, 2] and arms[2] in (2, 3, 4):
        return SimpleComponent("E", n)
    raise BoundsError(f"unrecognized simply-laced diagram with arms {arms}")


def levi_ss_components(comp: SimpleComponent, k: int):
    """Simple components of the Dynkin diagram with node k (Bourbaki,
    1-based) deleted: the semisimple Levi type of the k-th maximal
    parabolic.

    Reads only the Cartan block and the symmetrizers of ``comp`` (from
    ``_simple_block``); no root system is built."""
    if not 1 <= k <= comp.rank:
        raise BoundsError(f"node {k} out of range for {comp}")
    cartan, d = _simple_block(comp)
    keep = [i for i in range(comp.rank) if i != k - 1]
    edges = {}
    for i, j, mult in _dynkin_edges(cartan):
        if i in keep and j in keep:
            edges[frozenset((i, j))] = mult
    # connected components
    seen = set()
    out = []
    for v in keep:
        if v in seen:
            continue
        comp_nodes = [v]
        seen.add(v)
        stack = [v]
        while stack:
            u = stack.pop()
            for e in edges:
                if u in e:
                    w = next(x for x in e if x != u)
                    if w not in seen:
                        seen.add(w)
                        comp_nodes.append(w)
                        stack.append(w)
        sub_edges = {e: m for e, m in edges.items()
                     if all(x in comp_nodes for x in e)}
        dvals = {i: d[i] for i in comp_nodes}
        out.append(_classify_component(comp_nodes, sub_edges, dvals))
    return sorted(out, key=lambda c: (c.family, c.rank))


def parabolic_table(comp: SimpleComponent):
    """One ParabolicRow per Dynkin node of a simple type."""
    rows = []
    for k in range(1, comp.rank + 1):
        levi = levi_ss_components(comp, k)
        dml = comp.dim - sum(c.dim for c in levi)
        if dml % 2 == 0:
            raise BoundsError(f"dim g/l_ss = {dml} should be odd ({comp}, {k})")
        rows.append(ParabolicRow(node=k, levi_ss_components=tuple(levi),
                                 dim_g_mod_lss=dml, dim_X=(dml + 1) // 2))
    return rows


def e_value(comp: SimpleComponent) -> int:
    """Minimum highest-weight-orbit dimension over the maximal parabolics."""
    return min(row.dim_X for row in parabolic_table(comp))


def _canonical(comp: SimpleComponent) -> SimpleComponent:
    if comp.family in ("B", "C") and comp.rank == 1:
        return SimpleComponent("A", 1)
    if comp.family == "C" and comp.rank == 2:
        return SimpleComponent("B", 2)
    if comp.family == "D" and comp.rank == 3:
        return SimpleComponent("A", 3)
    return comp


def _all_simple_types(rank_cap: int):
    for n in range(1, rank_cap + 1):
        yield SimpleComponent("A", n)
    for n in range(2, rank_cap + 1):
        yield SimpleComponent("B", n)
        yield SimpleComponent("C", n)
    for n in range(3, rank_cap + 1):
        yield SimpleComponent("D", n)
    for n in (6, 7, 8):
        if n <= rank_cap:
            yield SimpleComponent("E", n)
    if rank_cap >= 4:
        yield SimpleComponent("F", 4)
    if rank_cap >= 2:
        yield SimpleComponent("G", 2)


def E_set(dim_k: int, rank_cap: int = 10):
    """All simple types s with e(s) <= dim_k, i.e. the types an ambient
    algebra must avoid for the dimension-count argument to apply to a
    subalgebra of dimension dim_k.

    Completeness requires e to keep growing with rank; this is verified
    per family up to rank_cap, and e at rank_cap must exceed dim_k.
    """
    evals = {}
    for s in _all_simple_types(rank_cap):
        evals[(s.family, s.rank)] = e_value(s)
    for fam in "ABCD":
        ranks = sorted(r for f, r in evals if f == fam)
        for a, b in zip(ranks, ranks[1:]):
            if evals[(fam, a)] >= evals[(fam, b)]:
                raise BoundsError(
                    f"e not strictly increasing in rank for family {fam}")
        if ranks and evals[(fam, ranks[-1])] <= dim_k:
            raise BoundsError(
                f"rank_cap {rank_cap} too small: e({fam}{ranks[-1]}) = "
                f"{evals[(fam, ranks[-1])]} <= dim_k = {dim_k}")
    out = {}
    for s in _all_simple_types(rank_cap):
        if evals[(s.family, s.rank)] <= dim_k:
            c = _canonical(s)
            out[(c.family, c.rank)] = c
    return sorted(out.values(), key=lambda c: (c.family, c.rank))
