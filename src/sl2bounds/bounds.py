"""Headline quantities: m-values, the uniform branching bound b, and
maximal-parabolic dimension bookkeeping (dim g/l_ss, dim X, e, E).

The Levi type of each maximal parabolic and e are read off closed forms
per family (Bourbaki, Lie Groups and Lie Algebras VI, Plates I-IX); no
Dynkin diagram is walked and no root system is built for them.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from typing import NamedTuple

from .rootsys import FAMILIES, RootSystem, SimpleComponent, Weight, _ranks
from .sl2branch import Sl2Embedding, g0, invariant_dim

DEFAULT_M_CAP = 64
E_SET_CAP = 64  # dim_k; guards outside input: the listing grows with dim_k


class BoundsError(ValueError):
    pass


class ParabolicRow(NamedTuple):
    node: int  # 1-based Bourbaki node
    levi_ss_components: tuple
    dim_g_mod_lss: int
    dim_X: int


class BoundResult(NamedTuple):
    b: int
    m_values: tuple  # m per node, as m_values gives them
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
             cap: int = DEFAULT_M_CAP) -> tuple:
    """m_value per node, node 1 first; 0 where none is found within cap."""
    return tuple(m_value(rs, emb, j, cap) for j in range(1, rs.rank + 1))


def b_bound(rs: RootSystem, emb: Sl2Embedding,
            cap: int = DEFAULT_M_CAP) -> BoundResult:
    """b = 1 + max g0(lambda) over the box C0 = {sum a_i omega_i, a_i < m_i}.

    Every irreducible of the ambient algebra then contains an sl2
    irreducible of dimension < b.
    """
    mv = m_values(rs, emb, cap)
    missing = [j + 1 for j, m in enumerate(mv) if m == 0]
    if missing:
        raise BoundsError(
            f"m-value not found within cap {cap} for nodes {missing}")
    box = map(Weight, product(*(range(m) for m in mv)))
    g, lam = max(((g0(rs, lam, emb), lam) for lam in box),
                 key=lambda pair: pair[0])   # the first of the largest
    return BoundResult(b=g + 1, m_values=mv, box_max_weight=lam, box_max_g0=g)


# ---------------------------------------------------------------------------
# Maximal parabolics


_RENAMED = {"C2": SimpleComponent("B", 2), "D3": SimpleComponent("A", 3)}


def _canonical(comp: SimpleComponent) -> SimpleComponent:
    """The name a simple type goes by: C2 is B2 and D3 is A3."""
    return _RENAMED.get(str(comp), comp)


def _by_type(levi: str):
    """The SimpleComponents of a Levi type like 'A1+A4', sorted."""
    return tuple(sorted(SimpleComponent(c[0], int(c[1:]))
                        for c in levi.split("+")))


# The Levi types of the exceptional nodes, node 1 first (Bourbaki, Lie
# Groups and Lie Algebras VI, Plates V-IX)
_PLATES = {name: tuple(map(_by_type, levis.split())) for name, levis in {
    "E6": "D5 A5 A1+A4 A1+A2+A2 A1+A4 D5",
    "E7": "D6 A6 A1+A5 A1+A2+A3 A2+A4 A1+D5 E6",
    "E8": "D7 A7 A1+A6 A1+A2+A4 A3+A4 A2+D5 A1+E6 E7",
    "F4": "C3 A1+A2 A1+A2 B3", "G2": "A1 A1"}.items()}


@cache
def _piece(family: str, r: int):
    """The components of the rank-r end of a classical diagram, named as
    _canonical names them: none at rank 0, A1 at rank 1, two A1 for D2."""
    if (family, r) == ("D", 2):
        return _piece("A", 1) * 2
    if r < 2:
        return (SimpleComponent("A", 1),) * r
    return (_canonical(SimpleComponent(family, r)),)


def _levi(comp: SimpleComponent, k: int):
    """levi_ss_components of node k, which is in range."""
    n, fam = comp.rank, comp.family
    if fam in "EFG":
        return _PLATES[str(comp)][k - 1]
    if fam == "D" and k >= n - 1:  # a spin node
        return _piece("A", n - 1)
    return tuple(sorted(_piece("A", k - 1) + _piece(fam, n - k)))


def levi_ss_components(comp: SimpleComponent, k: int):
    """Simple components of the Dynkin diagram with node k (Bourbaki,
    1-based) deleted, sorted: the semisimple Levi type of the k-th maximal
    parabolic, read off Bourbaki, Lie Groups and Lie Algebras VI, Plates
    I-IX.  A_n leaves A_{k-1} + A_{n-k}; B_n, C_n and D_n leave A_{k-1}
    and an end of rank n - k of their own family, but D_n's spin nodes
    n - 1 and n leave A_{n-1}; E6, E7, E8, F4 and G2 read _PLATES."""
    if not 1 <= k <= comp.rank:
        raise BoundsError(f"node {k} out of range for {comp}")
    return list(_levi(comp, k))


def parabolic_table(comp: SimpleComponent):
    """One ParabolicRow per Dynkin node of a simple type, its Levi type by
    the closed forms of levi_ss_components (Bourbaki, Lie Groups and Lie
    Algebras VI, Plates I-IX)."""
    rows = []
    for k in range(1, comp.rank + 1):
        levi = _levi(comp, k)
        dml = comp.dim - sum(c.dim for c in levi)
        if dml % 2 == 0:
            raise BoundsError(f"dim g/l_ss = {dml} should be odd ({comp}, {k})")
        rows.append(ParabolicRow(node=k, levi_ss_components=levi,
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
                   if e_value(s) <= dim_k})
