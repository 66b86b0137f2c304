"""Weight multiplicities of irreducible representations.

Production algorithm: Freudenthal's recursion, evaluated level by level
over the dominant weights below the highest weight.  A small-rank
alternating-sum oracle (enumerating the full Weyl group) is kept alongside
for cross-checking.

Internally a character is computed on the integer box of simple-root
coordinate vectors k with lambda - mu = sum k_i alpha_i; the box holds the
multiplicity of *every* weight (dominant or not), which makes both the
recursion's inner sums and the sl2 restriction in sl2branch plain array
operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction

import numpy as np

from .rootsys import (
    RootSystem,
    RootSystemError,
    Weight,
    dominant_representative,
    simple_reflection,
)

DEFAULT_BOX_CAP = 10**7
DEFAULT_WEYL_ORDER_CAP = 1200  # covers all rank <= 4 simple factors (F4: 1152)
# Above the 400 boxes of the G2 20x20 tables, so no benchmark workload evicts.
BOX_MEMO_SIZE = 512


class CharacterError(ArithmeticError):
    """Internal inconsistency (non-exact division, negative multiplicity)."""


@dataclass(frozen=True)
class Character:
    highest_weight: Weight
    mults: dict  # dominant Weight -> positive int

    def dimension(self, rs: RootSystem) -> int:
        from .rootsys import weyl_orbit
        return sum(len(weyl_orbit(rs, mu)) * m for mu, m in self.mults.items())

    def to_json_dict(self) -> dict:
        items = sorted(self.mults.items(), key=lambda kv: kv[0].coords)
        return {
            "lambda": list(self.highest_weight.coords),
            "mults": [[list(mu.coords), m] for mu, m in items],
        }


@dataclass(frozen=True)
class _CharacterBox:
    """Character on the simple-root coordinate box below lambda.

    grid[k] = multiplicity of the weight lambda - sum k_i alpha_i (zero for
    lattice points that are not weights).  dom maps dominant weights to
    their multiplicity.
    """
    lam: Weight
    kmax: tuple
    grid: np.ndarray
    dom: dict


def _exact_int_vector(fr_vec, what):
    out = []
    for x in fr_vec:
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise CharacterError(f"{what} is not integral: {x}")
            x = x.numerator
        out.append(int(x))
    return out


def _root_coords_int(rs: RootSystem, mu: Weight):
    from .rootsys import weight_to_root_coords
    return _exact_int_vector(weight_to_root_coords(rs, mu),
                             "root-coordinate vector")


def _dominant_box_points(rs: RootSystem, lam: Weight):
    """Enumerate dominant mu with mu <= lam (dominance order).

    Returns (kmax, k-vectors array sorted by level, weight-coords array).
    """
    lam_dual = dominant_representative(rs, -lam)
    kmax = _root_coords_int(rs, lam + lam_dual)
    ncells = 1
    for k in kmax:
        ncells *= k + 1
    if ncells > DEFAULT_BOX_CAP:
        raise CharacterError(
            f"character box has {ncells} cells, exceeds cap {DEFAULT_BOX_CAP}")
    grids = np.indices([k + 1 for k in kmax]).reshape(rs.rank, -1).T
    A = rs._np["A"]
    wc = np.asarray(lam.coords, dtype=np.int64) - grids @ A.T
    mask = (wc >= 0).all(axis=1)
    ks = grids[mask]
    wcs = wc[mask]
    order = np.lexsort(tuple(ks.T) + (ks.sum(axis=1),))
    return kmax, ks[order], wcs[order]


def _orbit_fill(rs: RootSystem, grid, kvec, wc, mult):
    """Write mult into every Weyl-orbit cell of the dominant weight wc.

    Orbit tracked jointly in weight coords and root-box coords:
    s_j shifts the k-vector by wc_j * e_j.
    """
    start = (tuple(int(x) for x in wc), tuple(int(x) for x in kvec))
    seen = {start[0]}
    frontier = [start]
    A = rs._np["A"]
    rank = rs.rank
    shape = grid.shape
    while frontier:
        new = []
        for w, k in frontier:
            if all(0 <= k[i] < shape[i] for i in range(rank)):
                grid[k] = mult
            for j in range(rank):
                m = w[j]
                if m == 0:
                    continue
                im = tuple(w[i] - m * int(A[i, j]) for i in range(rank))
                if im not in seen:
                    seen.add(im)
                    k2 = list(k)
                    k2[j] += m
                    new.append((im, tuple(k2)))
        frontier = new


@lru_cache(maxsize=BOX_MEMO_SIZE)
def _freudenthal_box(rs: RootSystem, lam: Weight) -> _CharacterBox:
    if not lam.is_dominant:
        raise RootSystemError("dominant_character expects a dominant weight")
    kmax, ks, wcs = _dominant_box_points(rs, lam)
    rank = rs.rank
    grid = np.zeros([k + 1 for k in kmax], dtype=np.int64)
    dom = {}

    d = rs._np["d"]
    roots = rs._np["roots"]          # (nroots, rank) root coords
    roots_dwc = roots * d            # c_i d_i per root, for pairings
    roots_norm = rs._np["roots_norm"]
    lam_np = np.asarray(lam.coords, dtype=np.int64)
    two_rho = np.full(rank, 2, dtype=np.int64)
    nroots = roots.shape[0]

    # highest weight: multiplicity 1
    dom[lam] = 1
    _orbit_fill(rs, grid, ks[0], wcs[0], 1)

    for idx in range(1, len(ks)):
        kvec = ks[idx]
        wc = wcs[idx]
        rhs = 0
        for a in range(nroots):
            c = roots[a]
            pos = c > 0
            kcap = int((kvec[pos] // c[pos]).min())
            if kcap < 1:
                continue
            mu_dot_a = int(roots_dwc[a] @ wc)      # (mu, alpha)
            aa = int(roots_norm[a])                # (alpha, alpha)
            kk = np.arange(1, kcap + 1)
            cells = kvec[None, :] - kk[:, None] * c[None, :]
            vals = grid[tuple(cells.T)]
            rhs += int(vals @ (mu_dot_a + kk * aa))
        denom = int((kvec * d) @ (lam_np + wc + two_rho))
        num = 2 * rhs
        mult, rem = divmod(num, denom)
        if rem:
            raise CharacterError(
                f"Freudenthal division not exact at mu={tuple(wc)}")
        if mult <= 0:
            raise CharacterError(
                f"Freudenthal produced nonpositive multiplicity at mu={tuple(wc)}")
        w = Weight(tuple(int(x) for x in wc))
        dom[w] = mult
        _orbit_fill(rs, grid, kvec, wc, mult)

    return _CharacterBox(lam=lam, kmax=tuple(kmax), grid=grid, dom=dom)


def dominant_character(rs: RootSystem, lam: Weight) -> Character:
    """Multiplicities of all dominant weights of L(lambda) (Freudenthal)."""
    box = _freudenthal_box(rs, lam)
    return Character(highest_weight=lam, mults=dict(box.dom))


def full_weight_values(rs: RootSystem, lam: Weight, marks) -> dict:
    """Histogram of mu(h) over all weights mu of L(lambda), with
    multiplicity, where h has the given marks alpha_i(h).

    mu(h) = lambda(h) - sum k_i marks_i for lambda - mu = sum k_i alpha_i;
    lambda(h) is solved exactly from the marks via the coroot basis.
    """
    marks = [int(m) for m in marks]
    if len(marks) != rs.rank:
        raise RootSystemError(f"marks must have length {rs.rank}")
    lam_h = _lambda_of_h(rs, lam, marks)
    box = _freudenthal_box(rs, lam)
    ks = np.indices(box.grid.shape).reshape(rs.rank, -1).T
    mults = box.grid.reshape(-1)
    nz = mults > 0
    vals = lam_h - ks[nz] @ np.asarray(marks, dtype=np.int64)
    out = {}
    for v, m in zip(vals.tolist(), mults[nz].tolist()):
        out[v] = out.get(v, 0) + m
    return out


def _lambda_of_h(rs: RootSystem, lam: Weight, marks) -> int:
    """lambda(h) where h is given by marks alpha_i(h).

    h = sum c_j alpha_j_vee with marks = A^T c (coroot-basis coordinates
    solved exactly); then lambda(h) = sum lambda_j c_j.
    """
    AinvT = rs._np["AinvT"]
    c = [sum(AinvT[i][j] * marks[j] for j in range(rs.rank))
         for i in range(rs.rank)]
    val = sum((Fraction(lam.coords[i]) * c[i] for i in range(rs.rank)),
              start=Fraction(0))
    if val.denominator != 1:
        raise CharacterError(f"lambda(h) is not integral: {val}")
    return int(val)


# ---------------------------------------------------------------------------
# Weyl alternating-sum oracle


def _signed_regular_orbit(rs: RootSystem, xi: Weight):
    """Orbit of a regular dominant weight with the sign (-1)^{l(w)}.

    The stabilizer of a regular weight is trivial, so the sign is a
    well-defined function of the orbit element.
    """
    seen = {xi.coords: 1}
    frontier = [xi]
    while frontier:
        new = []
        for w in frontier:
            sgn = seen[w.coords]
            for j in range(rs.rank):
                im = simple_reflection(rs, j, w)
                if im.coords == w.coords:
                    raise CharacterError("weight is not regular")
                if im.coords not in seen:
                    seen[im.coords] = -sgn
                    new.append(im)
                    if len(seen) > DEFAULT_WEYL_ORDER_CAP:
                        raise RootSystemError(
                            f"Weyl group order exceeds cap {DEFAULT_WEYL_ORDER_CAP}")
        frontier = new
    return seen


def weyl_alternating_character(rs: RootSystem, lam: Weight) -> Character:
    """Character of L(lambda) by the alternating sum over the Weyl group,
    divided by the Weyl denominator (exact polynomial division).

    Small-rank oracle for dominant_character; enumerates W explicitly.
    """
    if not lam.is_dominant:
        raise RootSystemError("expects a dominant weight")
    rank = rs.rank
    rho = rs.rho
    xi = lam + rho

    # exponents stored as k with e^nu at k = root coords of (lambda - nu)
    xi_dual = dominant_representative(rs, -xi)
    kmax2 = _root_coords_int(rs, xi + xi_dual)
    ncells = 1
    for k in kmax2:
        ncells *= k + 1
    if ncells > DEFAULT_BOX_CAP:
        raise CharacterError("oracle box exceeds cap")
    shape = [k + 1 for k in kmax2]
    num = np.zeros(shape, dtype=np.int64)

    orbit = _signed_regular_orbit(rs, xi)
    for coords, sgn in orbit.items():
        # numerator term e^{w(xi) - rho}: offset lambda - (w(xi) - rho)
        off = _root_coords_int(rs, lam + rho - Weight(coords))
        num[tuple(off)] = sgn

    # divide by prod (1 - e^{-alpha}): multiply by the geometric series of
    # each positive root via the running sum P(k) += P(k - c), evaluated in
    # ascending order along an axis where the root has a positive entry
    # (cells referenced are then already final).
    for c in rs._np["roots"]:
        c = [int(x) for x in c]
        ax = next(i for i in range(rank) if c[i])
        for t in range(c[ax], shape[ax]):
            dst = tuple(
                t if i == ax else
                (slice(c[i], None) if c[i] else slice(None))
                for i in range(rank))
            src = tuple(
                t - c[ax] if i == ax else
                (slice(None, shape[i] - c[i]) if c[i] else slice(None))
                for i in range(rank))
            num[dst] += num[src]

    mults = {}
    it = np.ndindex(*shape)
    A = rs._np["A"]
    lam_np = np.asarray(lam.coords, dtype=np.int64)
    for k in it:
        m = int(num[k])
        if m == 0:
            continue
        wc = lam_np - A @ np.asarray(k, dtype=np.int64)
        if (wc >= 0).all():
            if m < 0:
                raise CharacterError("oracle produced negative multiplicity")
            mults[Weight(tuple(int(x) for x in wc))] = m
    return Character(highest_weight=lam, mults=mults)
