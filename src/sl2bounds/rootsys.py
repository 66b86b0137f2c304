"""Root-system data for semisimple Lie algebras.

Conventions used throughout the package:

* Simple types are named by family letter (A..G) and rank, nodes numbered
  as in Bourbaki.  A simple type is data: one table, _DYNKIN, holds per
  family the accepted ranks, |Phi+|, the symmetrizers d and the bonds
  (i, j) of the Dynkin diagram.  One rule turns (d, bonds) into the
  Cartan matrix: (alpha_i, alpha_i) = 2 d_i, and (alpha_i, alpha_j) =
  -max(d_i, d_j) on a bond, which gives a simple bond for equal d, the
  double bonds of B, C and F4 for d in {1, 2}, and the triple bond of G2.
* Weights are stored in fundamental-weight coordinates: ``coords[i] =
  <mu, alpha_i_vee>``.
* Roots are stored in simple-root coordinates.
* The Cartan matrix is oriented so that ``A @ c`` gives the
  fundamental-weight coordinates of the root with simple-root coordinates
  ``c``; equivalently ``a[j][i] = <alpha_i, alpha_j_vee>``.
* The invariant form is normalized per simple block so short roots have
  squared length 2; the symmetrizers ``d[i] = (alpha_i, alpha_i)/2`` make
  ``diag(d) @ A`` symmetric.
* Weights go to root coordinates N mu / den through one integer inverse
  A N = den I; only weight_to_root_coords and inner_product form Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import index, mul
from typing import Callable, Iterator, NamedTuple

import numpy as np

WEIGHT_CAP = 10**7  # weights of a Weyl orbit, or of L(lambda) over its orbits


def _chain(n):
    return [(i, i + 1) for i in range(n - 1)]


class _Family(NamedTuple):
    """One family's Dynkin data at rank n, nodes numbered from 0."""
    ranks: int | tuple   # the least rank, or the tuple of all ranks
    posroots: Callable   # n -> |Phi+|
    d: Callable          # n -> symmetrizers (alpha_i, alpha_i) / 2
    bonds: Callable      # n -> the edges (i, j) of the Dynkin diagram


# Bourbaki, Lie Groups and Lie Algebras VI, Plates I-IX
_DYNKIN = {
    "A": _Family(1, lambda n: n * (n + 1) // 2, lambda n: [1] * n, _chain),
    "B": _Family(2, lambda n: n * n, lambda n: [2] * (n - 1) + [1], _chain),
    "C": _Family(2, lambda n: n * n, lambda n: [1] * (n - 1) + [2], _chain),
    "D": _Family(3, lambda n: n * (n - 1), lambda n: [1] * n,
                 lambda n: _chain(n - 1) + [(n - 3, n - 1)]),
    # chain 1-3-4-5-...-n, node 2 attached to node 4
    "E": _Family((6, 7, 8), {6: 36, 7: 63, 8: 120}.get, lambda n: [1] * n,
                 lambda n: [(1, 3), (0, 2)] + _chain(n)[2:]),
    "F": _Family((4,), lambda n: 24, lambda n: [2, 2, 1, 1], _chain),
    # alpha_1 short, alpha_2 long, so that dim L(omega_1) = 7
    "G": _Family((2,), lambda n: 6, lambda n: [1, 3], _chain),
}
FAMILIES = tuple(_DYNKIN)


class RootSystemError(ValueError):
    """Invalid root-system input (bad family letter or rank)."""


@dataclass(frozen=True, order=True)
class SimpleComponent:
    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise RootSystemError(f"unknown family {self.family!r}")
        ranks = _DYNKIN[self.family].ranks
        if isinstance(ranks, int):
            if self.rank < ranks:
                raise RootSystemError(
                    f"{self.family} rank must be >= {ranks}, got {self.rank}")
        elif self.rank not in ranks:
            *rest, last = map(str, ranks)
            allowed = f"{', '.join(rest)} or {last}" if rest else last
            raise RootSystemError(
                f"{self.family} rank must be {allowed}, got {self.rank}")

    @property
    def dim(self) -> int:
        """Dimension of the simple Lie algebra of this type."""
        return self.rank + 2 * self.num_positive_roots

    @property
    def num_positive_roots(self) -> int:
        return _DYNKIN[self.family].posroots(self.rank)

    def __str__(self):
        return f"{self.family}{self.rank}"


def _ranks(family: str, rank_cap: int):
    """The ranks <= rank_cap of a family, ascending."""
    ranks = _DYNKIN[family].ranks
    if isinstance(ranks, int):
        return range(ranks, rank_cap + 1)
    return [n for n in ranks if n <= rank_cap]


def _cartan(d, bonds):
    """Cartan matrix, cartan[j][i] = <alpha_i, alpha_j_vee>, of the diagram
    with these symmetrizers and bonds: (alpha_i, alpha_i) = 2 d_i and, on a
    bond, (alpha_i, alpha_j) = -max(d_i, d_j)."""
    n = len(d)
    cartan = [[0] * n for _ in range(n)]
    for i in range(n):
        cartan[i][i] = 2
    for i, j in bonds:
        m = max(d[i], d[j])
        cartan[i][j], cartan[j][i] = -m // d[i], -m // d[j]
    return cartan


@dataclass(frozen=True)
class Weight:
    """Integral weight in fundamental-weight coordinates; a coordinate that
    is not an integer by operator.index raises TypeError, not truncated."""
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(map(index, self.coords)))

    @property
    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.coords)

    def __add__(self, other):
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return Weight(tuple(-a for a in self.coords))

    def __len__(self):
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __str__(self):
        return "(" + ",".join(map(str, self.coords)) + ")"


@dataclass(frozen=True)
class RootSystem:
    """Equal and hashed by components alone; every other field is derived
    from them, so memos keyed by a root system are shared across builds."""
    components: tuple
    rank: int = field(compare=False)
    cartan: tuple = field(compare=False)          # rows: tuple of tuples of int
    symmetrizers: tuple = field(compare=False)    # d[i], positive int
    positive_roots: tuple = field(compare=False)  # simple-root coordinates
    # derived arrays, filled in build()
    _np: dict = field(default_factory=dict, repr=False, compare=False)

    # formed on first use, once per root system: one that walks no orbit
    # and builds no coset table never pays for them

    @cached_property
    def _weight_walk(self) -> "_Step":
        """The _Step of _orbit_walk over the orbits of weights (A.T)."""
        return _walk_step(self._np["A"].T)

    @cached_property
    def _coweight_walk(self) -> "_Step":
        """The _Step of _orbit_walk over the orbits of an h, by its marks
        (A)."""
        return _walk_step(self._np["A"])

    @cached_property
    def _neg_w0(self) -> np.ndarray:
        """-w0 on Phi+, sum c_i alpha_i -> sum c_i alpha_sigma(i), as an
        involution of root indices in the dtype of a coset table's vanish:
        row b[n] of the images is row a[n] of the roots, both sorted."""
        roots = self._np["roots"]
        a, b = (np.lexsort(m.T)
                for m in (roots, roots[:, list(self._np["sigma"])]))
        perm = np.empty(len(roots), np.min_scalar_type(len(roots)))
        perm[b] = a
        return perm

    @property
    def rho(self) -> Weight:
        return Weight((1,) * self.rank)

    @property
    def fingerprint(self) -> str:
        return "+".join(str(c) for c in self.components)

    @property
    def dim(self) -> int:
        return sum(c.dim for c in self.components)

    def summary(self) -> dict:
        """JSON-ready summary (used by the CLI describe command)."""
        return {
            "type": self.fingerprint,
            "rank": self.rank,
            "num_positive_roots": len(self.positive_roots),
            "dim": self.dim,
            "cartan": [list(row) for row in self.cartan],
            "symmetrizers": list(self.symmetrizers),
        }


def _positive_roots_closure(cartan, rank):
    """All positive roots in simple-root coordinates, sorted by height.

    Every positive root that is not simple is s_i of a lower one, so the
    roots are the closure of the simple roots under beta -> s_i beta =
    beta + c alpha_i for c = -<beta, alpha_i_vee> > 0.
    """
    roots = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    seen = set(roots)
    for beta in roots:               # the list grows while it is walked
        for i, row in enumerate(cartan):
            c = -sum(map(mul, row, beta))
            up = beta[:i] + (beta[i] + c,) + beta[i + 1:]
            if c > 0 and up not in seen:
                seen.add(up)
                roots.append(up)
    return sorted(roots, key=lambda c: (sum(c), c))


def _inverse_int(mat):
    """(den, N) with mat @ N = den I, den > 0 and gcd(den, N) = 1, by one
    fraction-free Gauss-Jordan pass over [mat | I] (Bareiss 1968), which
    ends as [det I | adj] with every division exact.  No pivot is zero:
    diag(d) A is positive definite, so every leading minor of A is > 0."""
    last, n = 1, len(mat)
    aug = [[*row, *(int(i == j) for j in range(n))]
           for i, row in enumerate(mat)]
    for k, pivot in enumerate(aug):
        p = pivot[k]
        for i, row in enumerate(aug):
            if i != k:
                f = row[k]
                aug[i] = [(p * x - f * y) // last for x, y in zip(row, pivot)]
        last = p
    g = math.gcd(last, *(x for row in aug for x in row[n:]))
    return last // g, tuple(tuple(x // g for x in row[n:]) for row in aug)


def build(components) -> RootSystem:
    """Construct the root system of a semisimple type.

    ``components`` is a list of SimpleComponent (or (family, rank) pairs).
    The Cartan matrix is block diagonal with Bourbaki numbering inside each
    block; positive roots are the closure of the simple roots under the
    simple reflections that raise height.
    """
    comps = tuple(c if isinstance(c, SimpleComponent) else SimpleComponent(*c)
                  for c in components)
    if not comps:
        raise RootSystemError("component list must be nonempty")
    d, bonds = [], []
    for comp in comps:
        fam = _DYNKIN[comp.family]
        bonds += [(len(d) + i, len(d) + j) for i, j in fam.bonds(comp.rank)]
        d += fam.d(comp.rank)
    rank = len(d)
    cartan = _cartan(d, bonds)

    roots = _positive_roots_closure(cartan, rank)
    expected = sum(c.num_positive_roots for c in comps)
    if len(roots) != expected:
        raise RootSystemError(
            f"positive-root closure produced {len(roots)} roots, "
            f"expected {expected}")

    rs = RootSystem(components=comps, rank=rank,
                    cartan=tuple(tuple(row) for row in cartan),
                    symmetrizers=tuple(d), positive_roots=tuple(roots))
    A = np.array(cartan, dtype=np.int64)
    rootmat = np.array(roots, dtype=np.int64)           # (nroots, rank)
    rs._np["A"] = A
    rs._np["Ainv_int"] = _inverse_int(cartan)
    rs._np["d"] = np.array(d, dtype=np.int64)
    rs._np["roots"] = rootmat
    rs._np["heights"] = rootmat.sum(axis=1)
    rs._np["roots_wc"] = rootmat @ A.T                  # weight coords per root
    # (alpha, mu) = roots_d[alpha] . mu for mu in weight coords, as
    # (alpha_i, omega_j) = d_i delta_ij
    roots_d = rootmat * rs._np["d"]
    rs._np["roots_norm"] = (roots_d * rs._np["roots_wc"]).sum(axis=1)
    # simple-coroot coordinates of alpha_vee = 2 alpha / (alpha, alpha)
    rs._np["coroots"] = 2 * roots_d // rs._np["roots_norm"][:, None]
    # the Weyl denominator: the product of the <rho, alpha_vee> = ht alpha_vee
    rs._np["weyl_den"] = math.prod(rs._np["coroots"].sum(axis=1).tolist())
    # -w0 permutes the nodes, alpha_i -> alpha_sigma(i): the marks -(1, 2,
    # ..., r) reflect to the dominant -w0 (1, 2, ..., r), whose i-th mark
    # is sigma(i) + 1
    rs._np["sigma"] = tuple(x - 1 for x in _reflect_to_dominant(
        range(-1, -rank - 1, -1), cartan)[0])
    return rs


def _check_weight(rs: RootSystem, mu: Weight, caller: str = "") -> None:
    """Refuse mu unless it has length rank, and is dominant for a caller."""
    if len(mu.coords) != rs.rank:
        raise RootSystemError(f"weight must have length {rs.rank}")
    if caller and not mu.is_dominant:
        raise RootSystemError(f"{caller} expects a dominant weight")


def root_to_weight_coords(rs: RootSystem, root) -> Weight:
    """Fundamental-weight coordinates of a vector given in simple-root
    coordinates (transpose-Cartan change of basis)."""
    c = tuple(map(index, root))
    if len(c) != rs.rank:
        raise RootSystemError(f"expected vector of length {rs.rank}")
    return Weight(tuple(sum(map(mul, row, c)) for row in rs.cartan))


def weight_to_root_coords(rs: RootSystem, mu: Weight):
    """Simple-root coordinates of a weight, as exact Fractions."""
    from fractions import Fraction
    _check_weight(rs, mu)
    den, N = rs._np["Ainv_int"]
    return [Fraction(sum(map(mul, row, mu.coords)), den) for row in N]


def inner_product(rs: RootSystem, mu: Weight, nu: Weight):
    """Invariant form on weights, as an exact Fraction.

    (mu, nu) = sum_j c_j d_j mu_j where c = simple-root coordinates of nu.
    """
    _check_weight(rs, mu)
    c = weight_to_root_coords(rs, nu)
    return sum(map(mul, c, map(mul, rs.symmetrizers, mu.coords)))


def simple_reflection(rs: RootSystem, j: int, mu: Weight) -> Weight:
    """s_j(mu) = mu - <mu, alpha_j_vee> * alpha_j, in weight coordinates."""
    m = mu.coords[j]
    if m == 0:
        return mu
    alpha_wc = rs._np["A"][:, j]  # weight coords of alpha_j
    return Weight(tuple(mu.coords[i] - m * int(alpha_wc[i])
                        for i in range(rs.rank)))


def _reflect_to_dominant(x, simple):
    """(x', k): x' the dominant vector in the Weyl orbit of x, and k the
    simple-root coordinates of x - x', in Python ints.

    simple[j] holds the coordinates of the j-th simple root in those of x,
    so that s_j x = x - x_j simple[j]: the columns of the Cartan matrix for
    a weight, its rows for the marks alpha_i(h) of an h.  Reflecting at the
    first negative coordinate shortens the Weyl group element that maps x'
    to x, so there are at most |Phi+| steps.
    """
    x, k = list(x), [0] * len(x)
    while min(x) < 0:
        j = next(i for i, c in enumerate(x) if c < 0)
        c = x[j]
        k[j] += c
        x = [a - c * b for a, b in zip(x, simple[j])]
    return x, k


def dominant_representative(rs: RootSystem, mu: Weight) -> Weight:
    """The unique dominant weight in the Weyl orbit of mu."""
    _check_weight(rs, mu)
    return Weight(_reflect_to_dominant(mu.coords, tuple(zip(*rs.cartan)))[0])


def _orbit_size(rs: RootSystem, mu) -> int:
    """|W mu| for dominant mu: prod over positive alpha with (mu, alpha) > 0
    of (ht alpha + 1) / ht alpha (Macdonald's product for |W| / |W_mu|).
    For dominant mu, (mu, alpha) > 0 iff some mu_i > 0 has alpha_i in the
    support of alpha; that test reads only the signs of mu, so no mu
    overflows it."""
    up = rs._np["roots"] @ np.array([m > 0 for m in mu], np.int64) > 0
    heights = rs._np["heights"][up].tolist()
    return math.prod(x + 1 for x in heights) // math.prod(heights)


class _Step(NamedTuple):
    """The step of _orbit_walk in one basis, and the matrices of its test,
    formed once per root system by _walk_step.  The walk yields its levels
    one at a time, and a coset table is written from them as they come."""
    simple: np.ndarray   # simple[j]: the j-th simple root, as in the rows
    bonds: np.ndarray    # x @ bonds: x_i - x_j simple[j][i], one bond i < j
    to_j: np.ndarray     # which j each failed test fails
    move: np.ndarray     # move[j] = (-simple[j], e_j): the change of (x, k)


def _walk_step(simple) -> _Step:
    """The _Step of _orbit_walk for this basis; each root system keeps one
    for A and one for A.T, so that no walk forms these matrices again.
    They are formed in Python lists, a few dozen entries, and sent to
    numpy once each: in a fresh process that is cheaper than the numpy
    calls that would form them, which the first coset table or orbit of a
    root system would pay."""
    s = simple.tolist()
    rank = len(s)
    pairs = [(i, j) for i in range(rank) for j in range(i + 1, rank)
             if s[j][i]]                                # the bonds i < j
    bonds = [[1 if i == b else -s[j][b] if i == j else 0 for b, j in pairs]
             for i in range(rank)]
    # a negative x_i fails each j > i not bonded to i; a negative bond
    # value fails its j
    to_j = [[j > i and not s[j][i] for j in range(rank)] for i in range(rank)]
    to_j += [[j == jb for j in range(rank)] for _, jb in pairs]
    move = [[-x for x in row] + [int(i == j) for i in range(rank)]
            for j, row in enumerate(s)]
    return _Step(simple, np.array(bonds, np.int64), np.array(to_j, np.float32),
                 np.array(move, np.int64))


def _orbit_walk(rows, step: _Step, stop=None) -> Iterator[np.ndarray]:
    """Walk the Weyl orbits of several dominant vectors at once, level by
    level, and stop after the first stop >= 1 levels (all for None).

    rows has columns (x, k, riding columns...) for dominant x, k the
    coordinates of some lambda - x in the basis of step.simple, which holds
    the step as in _reflect_to_dominant: A.T for weights, A for marks of an
    h (the root system's _weight_walk and _coweight_walk).  The walk goes
    down from each x: s_j with x_j > 0 maps x to x - x_j simple[j] and adds
    x_j to k_j.  A step is kept only if j is the least i with (s_j x)_i <
    0, so each vector is reached once, from the vector that reflecting at
    its first negative coordinate gives back.  A step makes one more
    positive root negative on x, so w(x) is at level l(w) for the shortest
    such w, the minimal coset representative.  Yields, per level, a copy
    of the columns after x, and walks the next level only when asked for
    it, so a caller that writes each level away holds one at a time;
    callers that need every level take list(...).  Callers bound the orbit
    sizes with _orbit_size first.

    Each level takes the same few numpy calls, over all rows and all j at
    once, whatever the rank.  The test needs no s_j x: for i < j not
    bonded to j (simple[j][i] = 0), (s_j x)_i = x_i, so j is kept when
    x_j > 0, no such x_i is negative, and x_i - x_j simple[j][i] >= 0 on
    each bond i < j.  The bond values are one integer product x @ bonds,
    and one 0/1 product with to_j (float32, for BLAS; the counts are
    small integers) counts the failed tests of each j; the kept steps
    change (x, k) by one add of x_j move[j]; both integer products are in
    the dtype of rows (int32 rows bound x, k, the bonds and 3 x_j).
    Forming every s_j x as an (n, r, r) array instead is faster on small
    orbits but slower on large ones, and a bit mask of the negative
    coordinates would not go past 63 of them.  The kept (j, parent) pairs,
    taken j-major with parents in order, give the same rows in the same
    order and dtype as reflecting at one j at a time.
    """
    rank = len(step.simple)
    level = 0
    while len(rows):
        yield rows[:, rank:].copy()
        level += 1
        if level == stop:
            return
        rows = _next_level(rows, step)


def _next_level(rows, step: _Step) -> np.ndarray:
    """The rows of the next level of _orbit_walk; its transients end with
    the call, so that the walk holds only the rows between levels."""
    rank = len(step.simple)
    x = rows[:, :rank]
    bonds = step.bonds.astype(rows.dtype, copy=False)
    fails = np.concatenate([x < 0, x @ bonds < 0], axis=1) @ step.to_j
    j, parent = np.nonzero(((x > 0) & (fails == 0)).T)
    change = step.move.astype(rows.dtype, copy=False).take(j, axis=0)
    change *= x[parent, j][:, None]
    rows = rows.take(parent, axis=0)
    rows[:, :2 * rank] += change
    return rows


def _orbit_rows(mu) -> np.ndarray:
    """The one row (mu, k = 0) of _orbit_walk, in int64 while mu leaves
    headroom and in Python ints past it."""
    return np.array([(*mu, *[0] * len(mu))],
                    dtype=np.int64 if max(mu) < 2**32 else object)


def weyl_orbit(rs: RootSystem, mu: Weight):
    """Full Weyl orbit of a dominant weight, as a set of Weight."""
    _check_weight(rs, mu, "weyl_orbit")
    if _orbit_size(rs, mu.coords) > WEIGHT_CAP:
        raise RootSystemError(f"Weyl orbit exceeds cap {WEIGHT_CAP}")
    K = np.concatenate(list(_orbit_walk(_orbit_rows(mu.coords),
                                         rs._weight_walk)))
    return {Weight(w) for w in (np.array(mu.coords, K.dtype)
                                - K @ rs._np["A"].T).tolist()}


def _pairings(rs: RootSystem, lam) -> np.ndarray:
    """<lambda + rho, alpha_vee> for every alpha > 0, in the order of
    rs.positive_roots: in int64 while lambda + rho is below 2^32 (the
    coordinates of a coroot sum to its height, far below 2^31), and in
    Python ints past it."""
    xi = [x + 1 for x in lam]
    return rs._np["coroots"] @ np.array(
        xi, np.int64 if max(xi) < 2**32 else object)


def _dimension(rs: RootSystem, pairs: np.ndarray) -> tuple[int, int]:
    """dim L(lambda) from its _pairings by Weyl's dimension formula, prod
    <lambda + rho, alpha_vee> / <rho, alpha_vee> over alpha > 0, with the
    division's remainder, which is 0 for consistent coroot and denominator
    tables."""
    return divmod(math.prod(pairs.tolist()), rs._np["weyl_den"])


def weyl_dimension(rs: RootSystem, lam: Weight) -> int:
    """dim L(lambda) by the Weyl dimension formula: _dimension of its
    _pairings <lambda + rho, alpha_vee>, exact, or RootSystemError where
    the product does not divide."""
    _check_weight(rs, lam, "weyl_dimension")
    dim, r = _dimension(rs, _pairings(rs, lam))
    if r:
        raise RootSystemError("Weyl dimension product not integral")
    return dim
