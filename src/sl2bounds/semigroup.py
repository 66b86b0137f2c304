"""Membership and certified finite complements of subsemigroups of N^r.

Membership is read off a box: the indicator of the origin multiplied by
prod_g 1 / (1 - x^g) over the generators g, one running sum per generator
(the same kernel divides by Kostant's partition function in the character
oracle); a box of more than DEFAULT_BOX_CAP cells is refused before it
is allocated.  The complement routine certifies finiteness when each
coordinate axis carries a generator supported on that axis alone and the
outer shell of the box is fully covered (every lattice point beyond the
box is then a member by adding axis generators).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import index
from typing import NamedTuple

import numpy as np

DEFAULT_BOX_CAP = 10**7  # cells of a reach grid or of the character oracle


class SemigroupError(ValueError):
    pass


@dataclass(frozen=True)
class GeneratorSet:
    gens: tuple  # tuples in N^r, nonzero, all of one length r

    def __post_init__(self):
        gens = tuple(tuple(map(index, g)) for g in self.gens)
        object.__setattr__(self, "gens", gens)
        if not gens:
            raise SemigroupError("generator set must be nonempty")
        for g in gens:
            if len(g) != self.r:
                raise SemigroupError(f"generator {g} has wrong dimension")
            if any(x < 0 for x in g):
                raise SemigroupError(f"generator {g} has negative entries")
            if all(x == 0 for x in g):
                raise SemigroupError("zero vector is not a valid generator")

    @property
    def r(self) -> int:
        """The dimension of N^r, the length of the first generator."""
        return len(self.gens[0])


class ComplementResult(NamedTuple):
    points: tuple      # sorted non-members in the box
    certified: bool    # True iff no non-member exists outside points
    box_bound: int


def _partition_fill(grid, gens):
    """Multiply grid in place by prod_g 1 / (1 - x^g), a cell v being the
    coefficient of x^v: for each g, the running sum P(v) += P(v - g) in
    ascending blocks of a = g[ax] rows along g's largest coordinate ax.
    Block [t, t + a) reads only block [t - a, t), which is already final,
    so each block is one slice operation.  On a bool grid += is an or.  A
    generator that does not fit the box adds nothing and is skipped.
    """
    shape = grid.shape
    for g in gens:
        if any(x >= s for x, s in zip(g, shape)):
            continue
        a = max(g)
        ax = g.index(a)
        n = shape[ax]
        dst = [slice(x, None) for x in g]
        src = [slice(None, s - x) for x, s in zip(g, shape)]
        for t in range(a, n, a):
            dst[ax], src[ax] = slice(t, t + a), slice(t - a, min(t, n - a))
            grid[tuple(dst)] += grid[tuple(src)]


def _reach_grid(gs: GeneratorSet, shape):
    """Boolean membership grid over the box prod [0, shape_i)."""
    ncells = math.prod(shape)
    if ncells > DEFAULT_BOX_CAP:
        raise SemigroupError(
            f"box has {ncells} cells, exceeds cap {DEFAULT_BOX_CAP}")
    reach = np.zeros(shape, dtype=bool)
    reach[(0,) * gs.r] = True
    _partition_fill(reach, gs.gens)
    return reach


def member(gs: GeneratorSet, v) -> bool:
    """True iff v is a nonnegative integer combination of the generators."""
    v = tuple(map(index, v))
    if len(v) != gs.r:
        raise SemigroupError(f"vector {v} has wrong dimension")
    if any(x < 0 for x in v):
        raise SemigroupError(f"vector {v} is not in N^r")
    reach = _reach_grid(gs, tuple(x + 1 for x in v))
    return bool(reach[v])


def complement(gs: GeneratorSet, box_bound: int = 64) -> ComplementResult:
    """Non-members of the semigroup inside [0, box_bound]^r, with a
    finiteness certificate.

    Requires an axis generator (supported on one axis) for every axis.
    certified is True iff every point of the outer shell
    {v : some v_i > box_bound - gmax} is a member; induction with the axis
    generators then shows every point outside the box is a member.
    """
    for i in range(gs.r):
        if not any(g[i] > 0 and all(g[j] == 0 for j in range(gs.r) if j != i)
                   for g in gs.gens):
            raise SemigroupError(
                f"no generator supported on axis {i} alone; "
                "finiteness certificate unavailable")
    gmax = max(max(g) for g in gs.gens)
    if box_bound < gmax:
        raise SemigroupError(f"box_bound must be at least gmax = {gmax}")
    shape = (box_bound + 1,) * gs.r
    reach = _reach_grid(gs, shape)
    nonmembers = [tuple(int(x) for x in v) for v in np.argwhere(~reach)]

    shell_ok = all(max(v) <= box_bound - gmax for v in nonmembers)
    return ComplementResult(points=tuple(sorted(nonmembers)),
                            certified=shell_ok, box_bound=box_bound)
