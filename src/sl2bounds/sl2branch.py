"""Restriction of irreducible characters to sl2-subalgebras.

An sl2-subalgebra is specified (for branching purposes) by its marks, the
integers alpha_i(h) for the standard semisimple element h of the triple.
The restricted character is the histogram N of weight values mu(h), as
the row[j] = N_{lambda(h) - j} of character._weight_row; mult V(k) =
N_k - N_{k+2} gives the row of sl2 irreducibles V(k) (dimension k+1).
sl2_decompose keeps its last certified decomposition on the per-sl2
record of character._sl2, so the same lambda asked of one sl2 (or of a
conjugate one) twice in a row is restricted once; a decomposition may
thus be shared, and nothing a caller is handed can change it.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

import numpy as np

from .rootsys import RootSystem, RootSystemError, Weight
from .character import _histogram, _request, _weight_row


class BranchingError(ArithmeticError):
    """Restriction failed a certificate (marks are not a valid sl2 triple,
    or an internal bug)."""


@dataclass(frozen=True)
class Sl2Embedding:
    marks: tuple  # alpha_i(h)
    kind: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "marks", tuple(map(index, self.marks)))

    def __str__(self):
        return f"{self.kind}{list(self.marks)}"


@dataclass(frozen=True, eq=False)
class Sl2Decomposition:
    row: np.ndarray  # row[j] = N_{lambda(h) - j}, j = 0 .. 2 lambda(h)
    v_row: np.ndarray  # v_row[j] = mult V(lambda(h) - j), j = 0 .. lambda(h)
    # both read-only, and each access of a dict view builds a fresh dict

    @property
    def mults(self) -> dict:  # k -> multiplicity of V(k), dim V(k) = k+1
        return {k: m for k, m in enumerate(self.v_row[::-1].tolist()) if m}

    @property
    def weight_values(self) -> dict:  # the histogram N: mu(h) -> multiplicity
        return _histogram(len(self.v_row) - 1, self.row)

    @property
    def invariant_dim(self) -> int:
        """dim L(lambda)^K = multiplicity of the trivial sl2-module V(0)."""
        return int(self.v_row[-1])

    @property
    def g0(self) -> int:
        """Smallest dimension k+1 of an sl2 irreducible occurring."""
        return len(self.v_row) - int(np.flatnonzero(self.v_row)[-1])

    def dimension(self) -> int:
        return sum((k + 1) * m for k, m in self.mults.items())

    def to_json_dict(self) -> dict:
        return {str(k): m for k, m in self.mults.items()}


def principal_embedding(rs: RootSystem) -> Sl2Embedding:
    """Principal sl2: all marks equal 2."""
    return Sl2Embedding(marks=(2,) * rs.rank, kind="principal")


def root_embedding(rs: RootSystem, beta) -> Sl2Embedding:
    """Root sl2 for a positive root beta (simple-root coordinates):
    marks_i = <alpha_i, beta_vee> = sum_j c_j cartan[j][i] for beta_vee =
    sum_j c_j alpha_j_vee."""
    beta = tuple(map(index, beta))
    if beta not in rs.positive_roots:
        raise RootSystemError(f"{beta} is not a positive root")
    coroot = rs._np["coroots"][rs.positive_roots.index(beta)]
    return Sl2Embedding(marks=tuple((coroot @ rs._np["A"]).tolist()),
                        kind=f"root{beta}")


def sl2_decompose(rs: RootSystem, lam: Weight, emb: Sl2Embedding) -> Sl2Decomposition:
    """Decompose L(lambda) restricted to the sl2 given by emb.

    The single restriction routine: asserts the sl2-character certificate,
    N symmetric under negation and every computed multiplicity nonnegative.
    A decomposition that passes is kept on the record of the sl2 until the
    next one, and a request for the same lambda returns it.
    """
    s = _request(rs, lam, emb.marks)
    if s.last is not None and s.last[0] == lam:
        return s.last[1]
    lam_h, row = _weight_row(rs, lam, s)
    if len(row) != 2 * lam_h + 1 or not (row == row[::-1]).all():
        N = _histogram(lam_h, row)   # its ends are nonzero: some N_j != N_-j
        j = next(j for j, n in N.items() if N.get(-j, 0) != n)
        raise BranchingError(f"weight-value histogram not symmetric at {j} "
                             f"(marks {emb.marks} are not an sl2 triple?)")
    v_row = row[:lam_h + 1].copy()
    v_row[2:] -= row[:lam_h - 1]
    if v_row.min() < 0:
        j = int(np.flatnonzero(v_row < 0)[-1])
        raise BranchingError(
            f"negative multiplicity for V({lam_h - j}) (marks {emb.marks})")
    row.setflags(write=False)
    v_row.setflags(write=False)
    s.last = lam, Sl2Decomposition(row, v_row)
    return s.last[1]


def invariant_dim(rs: RootSystem, lam: Weight, emb: Sl2Embedding) -> int:
    """dim L(lambda)^K = multiplicity of the trivial sl2-module V(0)."""
    return sl2_decompose(rs, lam, emb).invariant_dim


def g0(rs: RootSystem, lam: Weight, emb: Sl2Embedding) -> int:
    """Smallest dimension k+1 of an sl2 irreducible occurring in L(lambda)."""
    return sl2_decompose(rs, lam, emb).g0
