"""Weight multiplicities of irreducible representations.

Production algorithm: Freudenthal's recursion over the dominant weights of
L(lambda) alone, in Python ints (Moody and Patera, "Fast recursion formula
for weight multiplicities", 1982).  The dominant weights are found from
lambda by subtracting positive roots and keeping the dominant results
(Stembridge, "The partial order of dominant weights", 1998); any weight has
the multiplicity of its dominant Weyl conjugate.  L(lambda) may have at
most WEIGHT_CAP weights, counted over the orbits of its dominant weights,
and at most DOMINANT_CAP dominant weights, both checked while they are
enumerated.  A small-rank alternating-sum oracle (enumerating the full Weyl
group) is kept alongside for cross-checking.

full_weight_values restricts a character to the sl2 with given marks; it
is the one place that picks among three algorithms:

* Principal marks (all 2): the principal specialization
  prod_{alpha>0} (1 - t^<lambda+rho, alpha_vee>) / (1 - t^<rho, alpha_vee>)
  (the q-analogue of Weyl's dimension formula; Kostant 1959).
* Any other marks, while W_J\\W has at most PARABOLIC_CAP cosets (J the
  zero marks once the marks are conjugated to dominant) and the sum's
  polynomial has degree at most PARABOLIC_CAP: the Weyl character
  formula grouped by W_J cosets and evaluated at h (Bourbaki, Lie Groups
  and Lie Algebras VIII 9; Humphreys, Introduction to Lie Algebras and
  Representation Theory 24).
* Past either: each dominant weight expanded over its Weyl orbit,
  tracking the simple-root coordinates k of lambda - mu, so that
  mu(h) = lambda(h) - sum k_i marks_i.

The first two evaluate a quotient of polynomials in t exactly over Python
ints; the third is bounded by WEIGHT_CAP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .rootsys import (
    RootSystem,
    RootSystemError,
    Weight,
    _orbit_levels,
    dominant_representative,
)

WEIGHT_CAP = 10**7  # weights of L(lambda): sum over dominant mu of |W mu|
DOMINANT_CAP = 5 * 10**4  # dominant weights of L(lambda)
PARABOLIC_CAP = 10**5  # cosets W_J\W and degree of the parabolic sum
DEFAULT_BOX_CAP = 10**7  # cells of the alternating-sum oracle's box
DEFAULT_WEYL_ORDER_CAP = 1200  # covers all rank <= 4 simple factors (F4: 1152)


class CharacterError(ArithmeticError):
    """Internal inconsistency (non-exact division, negative multiplicity),
    or a character past WEIGHT_CAP or DOMINANT_CAP."""


@dataclass(frozen=True)
class Character:
    highest_weight: Weight
    mults: dict  # dominant Weight -> positive int

    def dimension(self, rs: RootSystem) -> int:
        return sum(_orbit_size(rs, mu.coords) * m
                   for mu, m in self.mults.items())

    def to_json_dict(self) -> dict:
        items = sorted(self.mults.items(), key=lambda kv: kv[0].coords)
        return {
            "lambda": list(self.highest_weight.coords),
            "mults": [[list(mu.coords), m] for mu, m in items],
        }


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


def _orbit_size(rs: RootSystem, mu) -> int:
    """|W mu| for dominant mu: prod over positive alpha with (mu, alpha) > 0
    of (ht alpha + 1) / ht alpha (Macdonald's product for |W| / |W_mu|)."""
    num = den = 1
    for c in rs.positive_roots:
        if any(ci and mi for ci, mi in zip(c, mu)):
            num *= sum(c) + 1
            den *= sum(c)
    return num // den


@lru_cache(maxsize=512)
def _dominant_weights(rs: RootSystem, lam: Weight) -> tuple:
    """(mu, k, multiplicity) for every dominant weight mu of L(lambda), k
    the simple-root coordinates of lambda - mu, in order of height of k.

    Freudenthal: ((lambda+rho)^2 - (mu+rho)^2) m(mu) =
    2 sum_{alpha>0} sum_{j>=1} m(mu + j alpha) (mu + j alpha, alpha), with
    m(nu) = m(dom(nu)); each root string stops at its first non-weight,
    and its partial sums are kept for the weights below.
    """
    if not lam.is_dominant:
        raise RootSystemError("dominant_character expects a dominant weight")
    rank = rs.rank
    roots_wc = [tuple(int(x) for x in r) for r in rs._np["roots_wc"]]
    found = {lam.coords: (0,) * rank}   # dominant mu -> k
    todo = [lam.coords]
    nweights = 0
    while todo:
        mu = todo.pop()
        nweights += _orbit_size(rs, mu)
        if nweights > WEIGHT_CAP or len(found) > DOMINANT_CAP:
            raise CharacterError(
                f"character of {lam} has more than {WEIGHT_CAP} weights or "
                f"{DOMINANT_CAP} dominant weights (weight cap)")
        for c, a in zip(rs.positive_roots, roots_wc):
            nu = tuple(x - y for x, y in zip(mu, a))
            if min(nu) >= 0 and nu not in found:
                found[nu] = tuple(k + ci for k, ci in zip(found[mu], c))
                todo.append(nu)

    alpha_wc = [tuple(row[j] for row in rs.cartan) for j in range(rank)]
    mult = {lam.coords: 1}   # every weight looked up so far; 0 if none

    def lookup(nu):
        if nu not in mult:
            dom = nu
            while min(dom) < 0:
                j = next(i for i, x in enumerate(dom) if x < 0)
                dom = tuple(x - dom[j] * a for x, a in zip(dom, alpha_wc[j]))
            mult[nu] = mult.get(dom, 0)
        return mult[nu]

    d = rs.symmetrizers
    # per positive root: weight coords, and c_i d_i so that (nu, alpha) =
    # sum c_i d_i nu_i; string[nu] = sum_{j>=0} m(nu + j alpha)(nu + j alpha,
    # alpha), memoized so that each root string is summed once
    roots = [(a, tuple(ci * di for ci, di in zip(c, d)), {})
             for c, a in zip(rs.positive_roots, roots_wc)]

    def string_sum(nu, a, cd, string):
        chain = []
        while nu not in string:
            m = lookup(nu)
            if not m:
                string[nu] = 0
                break
            chain.append((nu, m))
            nu = tuple(x + y for x, y in zip(nu, a))
        total = string[nu]
        for nu, m in reversed(chain):
            total += m * sum(x * y for x, y in zip(cd, nu))
            string[nu] = total
        return total

    order = sorted(found, key=lambda mu: sum(found[mu]))
    out = [(lam.coords, found[lam.coords], 1)]
    for mu in order[1:]:
        rhs = sum(string_sum(tuple(x + y for x, y in zip(mu, a)), a, cd, st)
                  for a, cd, st in roots)
        k = found[mu]
        denom = sum(ki * di * (li + mi + 2)
                    for ki, di, li, mi in zip(k, d, lam.coords, mu))
        m, rem = divmod(2 * rhs, denom)
        if rem:
            raise CharacterError(f"Freudenthal division not exact at mu={mu}")
        if m <= 0:
            raise CharacterError(
                f"Freudenthal produced nonpositive multiplicity at mu={mu}")
        mult[mu] = m
        out.append((mu, k, m))
    return tuple(out)


def dominant_character(rs: RootSystem, lam: Weight) -> Character:
    """Multiplicities of all dominant weights of L(lambda) (Freudenthal)."""
    return Character(highest_weight=lam, mults={
        Weight(mu): m for mu, _, m in _dominant_weights(rs, lam)})


def full_weight_values(rs: RootSystem, lam: Weight, marks) -> dict:
    """Histogram of mu(h) over all weights mu of L(lambda), with
    multiplicity, where h has the given marks alpha_i(h).

    mu(h) = lambda(h) - sum k_i marks_i for lambda - mu = sum k_i alpha_i;
    lambda(h) is solved exactly from the marks via the coroot basis.
    Principal marks (all 2) are answered by the product formula; any other
    marks by the parabolic sum while it has at most PARABOLIC_CAP cosets
    and a polynomial of degree at most PARABOLIC_CAP, and past that by
    expanding the dominant weights over their Weyl orbits.
    """
    marks = [int(m) for m in marks]
    if len(marks) != rs.rank:
        raise RootSystemError(f"marks must have length {rs.rank}")
    if marks == [2] * rs.rank:
        return _principal_weight_values(rs, lam)
    dom, _ = _dominant_marks(rs, lam, marks)
    xi = lam + rs.rho
    # (xi - w0 xi)(h) is the degree of the parabolic sum's polynomial
    degree = _lambda_of_h(rs, xi + dominant_representative(rs, -xi), dom)
    if max(_orbit_size(rs, [int(m > 0) for m in dom]), degree) \
            <= PARABOLIC_CAP:
        return _parabolic_weight_values(rs, lam, marks)
    return _orbit_weight_values(rs, lam, marks)


def _dominant_marks(rs: RootSystem, lam: Weight, marks):
    """(marks of the dominant Weyl conjugate h' of h, lambda(h')).

    alpha_i(s_j h) = marks_i - marks_j cartan[j][i] and lambda(s_j h) =
    (s_j lambda)(h) = lambda(h) - lambda_j marks_j; the weights of L(lambda)
    are W-stable, so h and h' have the same weight-value histogram.
    """
    lam_h = _lambda_of_h(rs, lam, marks)
    marks = list(marks)
    while min(marks) < 0:
        j = next(i for i, m in enumerate(marks) if m < 0)
        lam_h -= lam.coords[j] * marks[j]
        marks = [m - marks[j] * a for m, a in zip(marks, rs.cartan[j])]
    return marks, lam_h


def _parabolic_weight_values(rs: RootSystem, lam: Weight, marks) -> dict:
    """Weight-value histogram from the Weyl character formula grouped by
    the cosets of W_J, J = {i : alpha_i(h) = 0}, for h conjugated to
    dominant:

    sum_mu mult(mu) t^{(lambda-mu)(h)} = sum_w sgn(w) dim_J(w xi - rho)
    t^{(xi - w xi)(h)} / prod_{alpha>0, alpha(h)>0} (1 - t^{alpha(h)}),

    with xi = lambda + rho, w over the minimal representatives of W_J\\W
    (exactly the w with w xi strictly J-dominant), and dim_J(x - rho) =
    prod_{alpha in Phi_J+} (x, alpha) / (rho, alpha) the Levi factor's Weyl
    dimension.  Roots of Phi_J vanish on h, so each coset's Levi character
    collapses to dim_J times one power of t.
    """
    if not lam.is_dominant:
        raise RootSystemError("dominant_character expects a dominant weight")
    marks, lam_h = _dominant_marks(rs, lam, marks)
    rank = rs.rank
    A, d, roots = rs._np["A"], rs._np["d"], rs._np["roots"]
    cartan = np.asarray(rs.cartan, dtype=np.int64)
    xi = np.asarray(lam.coords, dtype=np.int64) + 1
    J = [i for i in range(rank) if marks[i] == 0]
    # Breadth-first by right multiplication w -> w s_j, which lengthens w
    # iff w(alpha_j) > 0.  The representatives are closed under prefixes
    # (Deodhar), so level l holds those of length l; each is reached once,
    # from w s_j for the least j with w(alpha_j) < 0.  Per representative:
    # K = root coordinates of xi - w xi, R[:, :, j] = those of w(alpha_j).
    K = np.zeros((1, rank), dtype=np.int64)
    R = np.eye(rank, dtype=np.int64)[None]
    levels = []
    while len(K):
        levels.append(K)
        new_K, new_R = [], []
        for j in range(rank):
            up = R[:, :, j].sum(axis=1) > 0
            step = R[up, :, j]
            Kj = K[up] + xi[j] * step
            Rj = R[up] - step[:, :, None] * cartan[j]
            ok = (((xi - Kj @ A.T)[:, J] > 0).all(axis=1)
                  & (Rj[:, :, :j].sum(axis=1) > 0).all(axis=1))
            new_K.append(Kj[ok])
            new_R.append(Rj[ok])
        K, R = np.concatenate(new_K), np.concatenate(new_R)
    K = np.concatenate(levels)
    signs = np.repeat([(-1) ** n for n in range(len(levels))],
                      [len(k) for k in levels]).tolist()

    # h is dominant, so Phi_J+ are the positive roots vanishing on h; rows
    # c*d of levi give (x, alpha) = (c*d) @ x, and (rho, alpha) = sum(c*d)
    alpha_h = roots @ marks
    levi = roots[alpha_h == 0] * d
    den = math.prod(levi.sum(axis=1).tolist())
    degrees = (K @ marks).tolist()
    poly = [0] * (max(degrees) + 1)
    for k, sgn, row in zip(degrees, signs,
                           ((xi - K @ A.T) @ levi.T).tolist()):
        dim_j, rem = divmod(math.prod(row), den)
        if rem:
            raise CharacterError(f"Levi dimension of {lam} is not integral")
        poly[k] += sgn * dim_j
    exps = alpha_h[alpha_h > 0].tolist()
    for e in exps:               # divide by (1 - t^e): running sum, stride e
        for r in range(e):
            poly[r::e] = accumulate(poly[r::e])
    top = len(poly) - 1 - sum(exps)
    if top < 0 or any(poly[top + 1:]):
        raise CharacterError(
            f"parabolic character sum of {lam} is not a polynomial")
    return {lam_h - k: c for k, c in enumerate(poly[:top + 1]) if c}


@lru_cache(maxsize=512)
def _weight_orbits(rs: RootSystem, lam: Weight) -> tuple:
    """Root coordinates of every weight of L(lambda), grouped by multiplicity.

    Returns (K, groups): row r of K is the k with lambda - mu = sum k_i
    alpha_i for one weight mu, and groups holds (start, stop, m) for the
    rows of multiplicity m.  All orbits are walked at once, downwards from
    their dominant weights: s_j with mu_j > 0 maps mu to mu - mu_j alpha_j
    and adds mu_j to k_j.  A step is kept only if j is the least i with
    (s_j mu)_i < 0, so each weight is reached once, from the weight that
    reflecting at its first negative coordinate gives back.
    """
    doms = _dominant_weights(rs, lam)
    mults = sorted({m for _, _, m in doms})
    group = {m: g for g, m in enumerate(mults)}
    rank = rs.rank
    A = rs._np["A"]
    # columns: weight coords mu, root coords k, multiplicity group; int32
    # holds them, since WEIGHT_CAP bounds lambda
    rows = np.array([(*mu, *k, group[m]) for mu, k, m in doms], dtype=np.int32)
    levels = []
    while len(rows):
        levels.append(rows[:, rank:].copy())
        new = []
        for j in range(rank):
            child = rows[rows[:, j] > 0]
            step = child[:, j].copy()
            child[:, :rank] -= step[:, None] * A[:, j]
            child[:, rank + j] += step
            new.append(child[(child[:, :j] >= 0).all(axis=1)])
        rows = np.concatenate(new)
    rows = np.concatenate(levels)
    rows = rows[np.argsort(rows[:, -1], kind="stable")]
    K = np.ascontiguousarray(rows[:, :rank])
    K.setflags(write=False)
    bounds = np.searchsorted(rows[:, -1], np.arange(len(mults) + 1)).tolist()
    return K, tuple(zip(bounds[:-1], bounds[1:], mults))


def _orbit_weight_values(rs: RootSystem, lam: Weight, marks) -> dict:
    K, groups = _weight_orbits(rs, lam)
    vals = _lambda_of_h(rs, lam, marks) - K @ np.asarray(marks, dtype=np.int64)
    out = {}
    for start, stop, m in groups:
        v, n = np.unique(vals[start:stop], return_counts=True)
        for x, c in zip(v.tolist(), n.tolist()):
            out[x] = out.get(x, 0) + c * m
    return out


def _principal_weight_values(rs: RootSystem, lam: Weight) -> dict:
    """Weight-value histogram for the principal sl2 (h = 2 rho_vee).

    mu(h) = lambda(h) - 2 ht(lambda - mu), and the generating function of
    the heights is prod_{alpha>0} (1 - t^a_alpha) / (1 - t^b_alpha) with
    a_alpha = <lambda+rho, alpha_vee>, b_alpha = <rho, alpha_vee>.
    Coefficients are Python ints, so they cannot overflow, and the work
    grows with sum(a_alpha) rather than with the number of weights.
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
