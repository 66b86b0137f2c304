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

Restriction to the principal sl2 (all marks 2) needs no box: its weight
values are the principal specialization of the character,
prod_{alpha>0} (1 - t^<lambda+rho, alpha_vee>) / (1 - t^<rho, alpha_vee>)
(the q-analogue of Weyl's dimension formula; Kostant 1959), which
full_weight_values evaluates with exact polynomial arithmetic over Python
ints.
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
    _orbit_levels,
    dominant_representative,
    weyl_dimension,
)

DEFAULT_BOX_CAP = 10**7
DEFAULT_WEYL_ORDER_CAP = 1200  # covers all rank <= 4 simple factors (F4: 1152)
# Boxes are built only for dominant_character and non-principal marks, so
# the principal G2 tables leave the memo empty.
BOX_MEMO_SIZE = 512
# The grid and the recursion's per-root dot products are int64.
_INT64_LIMIT = 2**63


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


def _box_kmax(rs: RootSystem, lam: Weight):
    """Root coordinates of lambda - w0(lambda): every weight of L(lambda)
    lies in the box 0 <= k <= kmax."""
    lam_dual = dominant_representative(rs, -lam)
    kmax = _root_coords_int(rs, lam + lam_dual)
    ncells = 1
    for k in kmax:
        ncells *= k + 1
    if ncells > DEFAULT_BOX_CAP:
        raise CharacterError(
            f"character box has {ncells} cells, exceeds cap {DEFAULT_BOX_CAP}")
    return kmax


def _check_int64_headroom(rs: RootSystem, lam: Weight, kmax):
    """Refuse a box whose recursion could overflow int64.

    Every multiplicity is at most dim L(lambda).  A per-root dot product in
    the recursion sums at most K = max(kmax) terms mult * ((mu, alpha) +
    k (alpha, alpha)) with k <= K and 0 <= (mu, alpha) <= P = max over
    positive alpha of (lambda, alpha), since mu is dominant and lies in the
    convex hull of the Weyl orbit of lambda.
    """
    K = max(kmax)
    P = max(int(p) for p in (rs._np["roots"] * rs._np["d"])
            @ np.asarray(lam.coords, dtype=np.int64))
    aa = int(rs._np["roots_norm"].max())
    bound = weyl_dimension(rs, lam) * K * (P + K * aa)
    if bound >= _INT64_LIMIT:
        raise CharacterError(
            f"character of {lam} may overflow int64 "
            f"(dot-product bound {bound} >= {_INT64_LIMIT})")


def _dominant_box_points(rs: RootSystem, lam: Weight, kmax):
    """Enumerate dominant mu with mu <= lam (dominance order).

    Returns (k-vectors array sorted by level, weight-coords array).
    """
    grids = np.indices([k + 1 for k in kmax]).reshape(rs.rank, -1).T
    A = rs._np["A"]
    wc = np.asarray(lam.coords, dtype=np.int64) - grids @ A.T
    mask = (wc >= 0).all(axis=1)
    ks = grids[mask]
    wcs = wc[mask]
    order = np.lexsort(tuple(ks.T) + (ks.sum(axis=1),))
    return ks[order], wcs[order]


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
    kmax = _box_kmax(rs, lam)
    _check_int64_headroom(rs, lam, kmax)
    ks, wcs = _dominant_box_points(rs, lam, kmax)
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
    Principal marks (all 2) are answered by the product formula, any other
    marks from the Freudenthal box.
    """
    marks = [int(m) for m in marks]
    if len(marks) != rs.rank:
        raise RootSystemError(f"marks must have length {rs.rank}")
    if marks == [2] * rs.rank:
        return _principal_weight_values(rs, lam)
    return _box_weight_values(rs, lam, marks)


def _box_weight_values(rs: RootSystem, lam: Weight, marks) -> dict:
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


def _principal_weight_values(rs: RootSystem, lam: Weight) -> dict:
    """Weight-value histogram for the principal sl2 (h = 2 rho_vee).

    mu(h) = lambda(h) - 2 ht(lambda - mu), and the generating function of
    the heights is prod_{alpha>0} (1 - t^a_alpha) / (1 - t^b_alpha) with
    a_alpha = <lambda+rho, alpha_vee>, b_alpha = <rho, alpha_vee>.
    Coefficients are Python ints, so they cannot overflow, and the work
    grows with sum(a_alpha) rather than with a box.
    """
    if not lam.is_dominant:
        raise RootSystemError("dominant_character expects a dominant weight")
    roots_dwc = rs._np["roots"] * rs._np["d"]   # (alpha, mu) = roots_dwc @ mu
    norms = rs._np["roots_norm"].tolist()       # (alpha, alpha)
    lam_rho = np.asarray(lam.coords, dtype=np.int64) + 1
    a = [2 * int(x) // n for x, n in zip(roots_dwc @ lam_rho, norms)]
    b = [2 * int(x) // n for x, n in zip(roots_dwc.sum(axis=1), norms)]
    poly = [1] + [0] * sum(a)
    deg = 0
    for e in a:                  # multiply by (1 - t^e), highest degree first
        deg += e
        for k in range(deg, e - 1, -1):
            poly[k] -= poly[k - e]
    for e in b:                  # divide by (1 - t^e): running sum
        for k in range(e, len(poly)):
            poly[k] += poly[k - e]
    top = sum(a) - sum(b)
    if any(poly[top + 1:]):
        raise CharacterError(
            f"principal specialization of {lam} is not a polynomial")
    lam_h = _lambda_of_h(rs, lam, [2] * rs.rank)
    return {lam_h - 2 * k: c for k, c in enumerate(poly[:top + 1]) if c}


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
    if 0 in xi.coords:
        raise CharacterError("weight is not regular")

    # exponents stored as k with e^nu at k = root coords of (lambda - nu)
    shape = [k + 1 for k in _box_kmax(rs, xi)]
    num = np.zeros(shape, dtype=np.int64)

    # xi is regular, so its orbit is W and the BFS level of w(xi) is l(w)
    orbit = _orbit_levels(rs, xi, DEFAULT_WEYL_ORDER_CAP)
    for coords, length in orbit.items():
        # numerator term e^{w(xi) - rho}: offset lambda - (w(xi) - rho)
        off = _root_coords_int(rs, lam + rho - Weight(coords))
        num[tuple(off)] = (-1) ** length

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
