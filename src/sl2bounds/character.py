"""Weight multiplicities of irreducible representations.

Production algorithm: Freudenthal's recursion over the dominant weights of
L(lambda) alone, in Python ints (Moody and Patera, "Fast recursion formula
for weight multiplicities", 1982).  The dominant weights are found from
lambda by subtracting positive roots and keeping the dominant results
(Stembridge, "The partial order of dominant weights", 1998); any weight has
the multiplicity of its dominant Weyl conjugate.  L(lambda) may have at
most WEIGHT_CAP weights, counted over the orbits of its dominant weights,
and at most DOMINANT_CAP dominant weights, both checked while they are
enumerated.  A small-rank alternating-sum oracle is kept alongside for
cross-checking: it walks W by rootsys's shared orbit walk and divides by
the Weyl denominator with semigroup's partition-function kernel.

_weight_row restricts a character to the sl2 with given marks alpha_i(h),
and it alone chooses how.  _request validates lambda and the marks and
reads the record of their sl2, whose h is the dominant conjugate;
_weight_row solves lambda(h) in integers and hands lambda and h to one of
three paths, each returning one dense row: row[k] is the multiplicity of
mu(h) = lambda(h) - k, in int64 where a written bound proves that exact
and in Python ints past it.  full_weight_values is its dict view.

* _by_product, for the principal h (all marks 2): the principal
  specialization prod_{alpha>0} (1 - t^<lambda+rho, alpha_vee>) /
  (1 - t^<rho, alpha_vee>), in t^2 (Kostant 1959).
* _by_cosets: the Weyl character formula grouped by the cosets of
  W_J, J the zero marks of h, at h (Bourbaki, Lie Groups and Lie Algebras
  VIII 9; Humphreys, Introduction to Lie Algebras and Representation
  Theory 24), over a table of the Weyl orbit of h, built once per h
  from a walk of its lower half, written level by level as it is walked,
  and the w0 images of that half; its Levi products run in int64 per
  chunk of the table where their float64 products prove them exact.
* _by_orbits: Freudenthal's multiplicities of the dominant weights
  expanded over their Weyl orbits, bounded by WEIGHT_CAP.

Both formulas read the pairings <lambda + rho, alpha_vee> of Weyl's
dimension formula (rootsys._pairings, _dimension), write their numerator
into one zero-padded buffer and divide it there in place by
prod_{alpha(h)>0} (1 - t^alpha(h)), which the per-sl2 record _sl2 holds
(its docstring says why the product formula shares it).
The choice reads sizes the request already has (c . (lambda + rho), the
degree of either numerator, comes from _sl2): the product formula for a
principal h while its degree in t^2 is at most PARABOLIC_CAP; else the
orbit expansion when the degree passes PARABOLIC_CAP, when W_J\\W has
over COSET_CAP cosets (a memory guard), or when h has no coset table yet
and dim L(lambda) is at most its number of cosets; else the coset sum.
So a small lambda builds no table, and the lambda of a bound share one.
The one memo, _sl2, is keyed by the sl2 alone, bounded, and shared across
builds: conjugate sl2s get one record, which carries its coset table and
the last certified decomposition of sl2branch.sl2_decompose, so a lambda
asked for twice in a row (invariant_dim, then g0) is restricted once.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from functools import lru_cache
from itertools import accumulate
from operator import index, mul
from typing import NamedTuple

import numpy as np

from .rootsys import (WEIGHT_CAP, RootSystem, RootSystemError, Weight,
                      _check_weight, _dimension, _orbit_rows, _orbit_size,
                      _orbit_walk, _pairings, _reflect_to_dominant,
                      weyl_dimension)

DOMINANT_CAP = 5 * 10**4  # dominant weights of L(lambda)
PARABOLIC_CAP = 10**5  # degree of either formula
COSET_CAP = 3 * 10**6  # cosets W_J\W in a coset table; |W(E7)| = 2903040
COSET_CHUNK = 2**14  # rows of K paired with all roots at once
DEFAULT_WEYL_ORDER_CAP = 1200  # covers all rank <= 4 simple factors (F4: 1152)


class _Sl2(namedtuple("_Sl2", "h c cosets groups e_sum e_max e_count")):
    table = None   # the _CosetTable of h, set by _by_cosets when first needed
    last = None    # (lambda, Sl2Decomposition), the last decomposition
    #                that sl2branch.sl2_decompose certified at h


class CharacterError(ArithmeticError):
    """Internal inconsistency (non-exact division, negative multiplicity),
    or a character past WEIGHT_CAP or DOMINANT_CAP."""


class Character(NamedTuple):
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


def _dominant_weights(rs: RootSystem, lam: Weight) -> tuple:
    """(mu, k, multiplicity) for every dominant weight mu of L(lambda), k
    the simple-root coordinates of lambda - mu, in order of height of k.

    Freudenthal: ((lambda+rho)^2 - (mu+rho)^2) m(mu) =
    2 sum_{alpha>0} sum_{j>=1} m(mu + j alpha) (mu + j alpha, alpha), with
    m(nu) = m(dom(nu)); each root string stops at its first non-weight,
    and its partial sums are kept for the weights below.
    """
    _check_weight(rs, lam, "dominant_character")
    rank = rs.rank
    roots_wc = [tuple(int(x) for x in r) for r in rs._np["roots_wc"]]
    found = {lam.coords: (0,) * rank}   # dominant mu -> k
    todo = [lam.coords]
    nweights = 0
    # lambda - sum k_i alpha_i is dominant whenever 0 <= 2 k_i <= lambda_i
    least = math.prod(x // 2 + 1 for x in lam.coords)
    while todo:
        mu = todo.pop()
        nweights += _orbit_size(rs, mu)
        if nweights > WEIGHT_CAP or max(len(found), least) > DOMINANT_CAP:
            raise CharacterError(
                f"character of {lam} has more than {WEIGHT_CAP} weights or "
                f"{DOMINANT_CAP} dominant weights (weight cap)")
        for c, a in zip(rs.positive_roots, roots_wc):
            nu = tuple(x - y for x, y in zip(mu, a))
            if min(nu) >= 0 and nu not in found:
                found[nu] = tuple(k + ci for k, ci in zip(found[mu], c))
                todo.append(nu)

    alpha_wc = tuple(zip(*rs.cartan))
    mult = {lam.coords: 1}   # every weight looked up so far; 0 if none

    def lookup(nu):
        if nu not in mult:
            dom = _reflect_to_dominant(nu, alpha_wc)[0]
            mult[nu] = mult.get(tuple(dom), 0)
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
    """Histogram of mu(h) over the weights of L(lambda), h of these marks."""
    return _histogram(*_weight_row(rs, lam, _request(rs, lam, marks)))


def _histogram(lam_h: int, row) -> dict:
    return {lam_h - k: n for k, n in enumerate(row.tolist()) if n}


def _request(rs: RootSystem, lam: Weight, marks) -> _Sl2:
    """The record of the sl2 with these marks, once lambda and the marks
    are checked."""
    marks = tuple(map(index, marks))
    if len(marks) != rs.rank:
        raise RootSystemError(f"marks must have length {rs.rank}")
    _check_weight(rs, lam, "full_weight_values")
    return _sl2(rs, marks)


def _weight_row(rs: RootSystem, lam: Weight, s: _Sl2) -> tuple:
    """(lambda(h), row) for a request checked by _request, s its record, as
    the module docstring describes."""
    lam_h = _lambda_of_h(rs, lam, s.h)
    degree = sum(map(mul, s.c, (x + 1 for x in lam.coords)))
    if s.h == (2,) * rs.rank and degree <= 2 * PARABOLIC_CAP:
        return lam_h, _by_product(rs, lam, s)
    if degree > PARABOLIC_CAP or s.cosets > COSET_CAP or (
            s.table is None and weyl_dimension(rs, lam) <= s.cosets):
        return lam_h, _by_orbits(rs, lam, s.h)
    return lam_h, _by_cosets(rs, lam, s)


@lru_cache(maxsize=4)
def _sl2(rs: RootSystem, marks: tuple) -> _Sl2:
    """The record of the sl2 with these marks; marks not dominant get that
    of their dominant Weyl conjugate h, so conjugate sl2s share one record,
    the coset table and the last certified decomposition it carries, and at
    most four of each are alive.  It holds h, c the coroot coordinates of
    h + h* with h* = -w0 h, cosets = |W_J\\W|, J the zero marks of h, and
    the denominator prod (1 - t^e) over the e = alpha(h) > 0, alpha in
    Phi+: their (e, times) groups, ascending, and their sum, max and
    count.

    The weights of L(lambda) are W-stable, so h and its conjugates have the
    same weight-value histogram.  h* has the marks alpha_i(h*) =
    alpha_sigma(i)(h), sigma the node permutation of -w0, and the coroot
    coordinates of marks m are A^-T m.  |W h| is rootsys._orbit_size, the
    one Macdonald product.  For xi = lambda + rho both formulas' numerators
    have degree (xi - w0 xi)(h) = c . xi in t (c is the largest row of the
    coset table, that of w0: the w0 image of the identity's row K = 0), or
    half that in q = t^2 for the principal h = h*, and both divide by
    prod (1 - t^e): for h = 2 rho_vee the e = 2 ht(alpha) are the
    2 <rho, alpha_vee> = 2 ht(alpha_vee) of the product formula, as Phi
    and its dual have one height partition (Kostant 1959).
    """
    h = tuple(_reflect_to_dominant(marks, rs.cartan)[0])
    if h != marks:
        return _sl2(rs, h)
    den, N = rs._np["Ainv_int"]
    both = [x + h[j] for x, j in zip(h, rs._np["sigma"])]
    c = [sum(map(mul, col, both)) for col in zip(*N)]
    if any(x % den for x in c):
        raise CharacterError(f"h + h* is not integral at marks {h}")
    alpha_h = rs._np["roots"] @ np.array(   # exact in int64 below 2^32
        h, np.int64 if max(h) < 2**32 else object)
    exps = alpha_h[alpha_h > 0].tolist()
    return _Sl2(h, tuple(x // den for x in c), _orbit_size(rs, h),
                tuple(sorted(Counter(exps).items())), sum(exps),
                max(exps, default=0), len(exps))


def _lambda_of_h(rs: RootSystem, lam: Weight, marks) -> int:
    """lambda(h) = sum_j marks_j q_j for lambda = sum_j q_j alpha_j, in
    Python ints: q = N lambda / den, with N = den * A^-1 integral."""
    den, N = rs._np["Ainv_int"]
    val = sum(m * sum(map(mul, row, lam.coords)) for m, row in zip(marks, N))
    if val % den:
        from fractions import Fraction
        raise CharacterError(
            f"lambda(h) is not integral: {Fraction(val, den)}")
    return val // den


def _quotient(buf: np.ndarray, n: int, s: _Sl2, lam: Weight) -> np.ndarray:
    """The row of poly / prod_e (1 - t^e), e the exponents of s and poly the
    first n terms of buf, then s.e_max zeros: in place, one running sum down
    the rows of e terms per factor.  Each partial quotient is the quotient
    (its terms sum to dim L(lambda)) times some (1 - t^e), so its terms are
    at most dim 2^count: callers pass int64 below 2^63, else Python ints."""
    for e, times in s.groups:
        rows = buf[:-(-n // e) * e].reshape(-1, e)
        for _ in range(times):
            np.add.accumulate(rows, axis=0, out=rows)
    top = n - 1 - s.e_sum
    if top < 0 or buf[top + 1:n].any():
        raise CharacterError(
            f"character sum of {lam} at marks {s.h} is not a polynomial")
    return buf[:top + 1]


def _by_product(rs: RootSystem, lam: Weight, s: _Sl2) -> np.ndarray:
    """The row for the principal h = 2 rho_vee, from prod_{alpha>0} (1 -
    t^a_alpha) / (1 - t^alpha(h)) = sum_mu mult(mu) t^{2 ht(lambda - mu)},
    a_alpha = 2 <lambda + rho, alpha_vee>, twice the pairings of Weyl's
    formula; the buffer takes _quotient's dtype, which holds the
    numerator, whose terms are at most 2^|Phi+|."""
    pairs = _pairings(rs, lam)
    a = [2 * x for x in pairs.tolist()]
    n = sum(a) + 1
    num = np.zeros(n + s.e_max, object
                   if _dimension(rs, pairs)[0] << s.e_count >= 2**63
                   else np.int64)
    num[0] = 1
    for deg, e in zip(accumulate(a), a):   # times (1 - t^e), in place
        num[e:deg + 1] -= num[:deg + 1 - e].copy()
    return _quotient(num, n, s, lam)


class _CosetTable(NamedTuple):
    """The lambda-independent half of the coset sum for one dominant h."""
    K: np.ndarray       # int32, coroot coordinates of h - h', one row per coset
    signs: np.ndarray   # int8, (-1)^l(w)
    vanish: np.ndarray  # uint8 (past 255 roots, wider): the |Phi_J+| positive
    #                     roots vanishing on h', one row per coset
    den: int            # prod_{beta in Phi_J+} <rho, beta_vee> = ht beta_vee


def _coset_table(rs: RootSystem, s: _Sl2) -> _CosetTable:
    """The table of the W-orbit of the dominant h of the record s.

    The points h' = w^-1 h are the minimal representatives w of W_J\\W, at
    level l(w) = #{beta > 0 : beta(h') < 0} of _orbit_walk, and the walk's
    k column holds K; the degree cap keeps every K_j below 2^31.  A
    positive root beta vanishes on h' when beta(h - h') = sum_j K_j <beta,
    alpha_j_vee> equals beta(h); that matrix is formed COSET_CHUNK rows at
    a time, and exactly |Phi_J+| roots vanish on each h' (they are w^-1
    Phi_J+ up to sign).

    Only levels 0 to L // 2 are walked, L = s.e_count the level of w0; the
    rest are the w0 images of levels 0 to L - L // 2 - 1, a prefix of the
    walked rows.  -w0 permutes Phi+, so w0 h' is at level L - l(w): its
    sign is (-1)^L times that of h', its vanishing roots are the -w0
    images of those of h', and its K is c - K[sigma] (h - w0 h' = h + h*
    - w0 (h - h'), and -w0 alpha_j_vee = alpha_sigma(j)_vee).  The images
    are written in place after the walked rows; row order is free, as the
    coset sum is a scatter-add.  The table is allocated first, s.cosets
    rows, and each level is written into it as the walk yields it, so the
    build holds the table and one level; a walk that yields more rows than
    that is refused before it writes past them.

    An entry takes 4 rank + 1 + |Phi_J+| bytes per coset, for at most
    COSET_CAP cosets.  Among simple types of rank <= 8 the largest is E8
    with J of type A4 + A1 (2903040 cosets, |Phi_J+| = 11): about 128 MB.
    E7's subregular h (1451520 cosets, |Phi_J+| = 1) takes about 44 MB.
    """
    roots, L = rs._np["roots"], s.e_count
    alpha_h = roots @ s.h
    K = np.empty((s.cosets, len(s.h)), np.int32)
    signs = np.empty(s.cosets, np.int8)
    vanish = np.empty((s.cosets, int((alpha_h == 0).sum())),
                      rs._neg_w0.dtype)
    sizes, walked = [], 0
    # walked in int32, which holds h' and K under the degree cap and
    # halves the transients of each level
    rows = _orbit_rows(s.h).astype(np.int32)
    for k in _orbit_walk(rows, rs._coweight_walk, L // 2 + 1):
        end = walked + len(k)
        if end > s.cosets:
            raise CharacterError(f"orbit of marks {s.h} has more than "
                                 f"{s.cosets} points")
        K[walked:end] = k
        signs[walked:end] = (-1) ** len(sizes)
        walked = end
        sizes.append(len(k))
    mirrored = sum(sizes[:L - L // 2])
    if walked + mirrored != s.cosets:
        raise CharacterError(f"orbit of marks {s.h} has {walked + mirrored} "
                             f"points, not {s.cosets}")
    # in float64 for BLAS, and exact: K >= 0 and K . xi <= PARABOLIC_CAP
    # with xi >= 1, so every partial sum of beta(h - h') is an integer of
    # size at most 3 sum K_j < 2^53
    wc = rs._np["roots_wc"].T.astype(np.float64)
    # the w0 images; mode="clip" (the indices are in range) writes to out
    # without a buffered copy, and the vanishing roots of the images are
    # taken a chunk at a time, as np.take widens its indices to intp
    for a in range(0, walked, COSET_CHUNK):
        b = min(a + COSET_CHUNK, walked)
        hits = np.flatnonzero(K[a:b] @ wc == alpha_h)
        vanish[a:b] = (hits % len(roots)).reshape(b - a, -1)
        if a < mirrored:
            c = min(b, mirrored)
            np.take(rs._neg_w0, vanish[a:c], out=vanish[walked + a:walked + c],
                    mode="clip")
    np.take(K[:mirrored], rs._np["sigma"], axis=1, out=K[walked:], mode="clip")
    np.subtract(np.array(s.c, np.int32), K[walked:], out=K[walked:])
    np.multiply(signs[:mirrored], (-1) ** L, out=signs[walked:])
    den = math.prod(rs._np["coroots"][alpha_h == 0].sum(axis=1).tolist())
    for a in (K, signs, vanish):
        a.setflags(write=False)
    return _CosetTable(K, signs, vanish, den)


def _by_cosets(rs: RootSystem, lam: Weight, s: _Sl2) -> np.ndarray:
    """The row by the coset sum over W_J\\W, J = {i : alpha_i(h) = 0}:

    sum_mu mult(mu) t^{(lambda-mu)(h)} = sum_w sgn(w) dim_J(w xi - rho)
    t^{(xi - w xi)(h)} / prod_{alpha>0, alpha(h)>0} (1 - t^{alpha(h)}),

    with xi = lambda + rho, w over the minimal representatives of W_J\\W,
    and dim_J(x - rho) = prod_{beta in Phi_J+} <x, beta_vee> / <rho,
    beta_vee> the Levi factor's Weyl dimension (roots of Phi_J vanish on
    h, so each coset's Levi character collapses to dim_J times one power
    of t); its denominator is the table's den.  With K the coroot
    coordinates of h - h', h' = w^-1 h, from _coset_table, (xi - w xi)(h)
    = K . xi, and w^-1 maps Phi_J+ onto the positive roots beta vanishing
    on h', keeping root lengths: dim_J(w xi - rho) has numerator prod
    <xi, beta_vee>, one row of a gather of the pairings of Weyl's formula.
    The sum runs COSET_CHUNK rows of the table at a time, so that no
    transient grows with the table.  Products run in int64 only where a
    bound proves that they fit: for pairings below 2^53, a chunk's float64
    products are exact below 2^53 (the factors are integers >= 1, so a
    rounded partial product leaves the product at 2^53 or above), and are
    then its products; below 2^62 they prove each int64 product of the
    chunk below 2^63, as a float64 product of |Phi_J+| exact factors is
    within a factor (1 + 2^-53) ** |Phi_J+| of the exact one.  Every
    other chunk forms its products in Python ints.  The sum runs in int64
    while a running bound, each chunk's length times its largest quotient
    (every pairing is > 0), stays below 2^63; past it, in Python ints.
    """
    if s.table is None:
        s.table = _coset_table(rs, s)
    t = s.table
    xi = [x + 1 for x in lam.coords]
    n = sum(map(mul, s.c, xi)) + 1   # c is the largest row of K (see _sl2)
    # xi_j <= K . xi <= PARABOLIC_CAP wherever some row has K_j > 0, so
    # clipping xi there changes no degree, and int32 holds every partial sum
    clipped = np.array([min(x, PARABOLIC_CAP) for x in xi], np.int32)
    # the degree cap bounds xi only where some mark is nonzero, so the
    # pairings may be Python ints; below 2^53 they are exact in float64
    pairs = _pairings(rs, lam)
    floats = pairs.astype(np.float64) if max(pairs.tolist()) < 2**53 else None
    poly = np.zeros(n + s.e_max, np.int64)
    bound = 0
    for a in range(0, len(t.K), COSET_CHUNK):
        b = a + COSET_CHUNK
        v = t.vanish[a:b]
        # take, not floats[v]: it widens the uint8 rows faster
        prods = None if floats is None else floats.take(v).prod(axis=1)
        top = math.inf if prods is None else prods.max()
        if top >= 2**62:
            prods = pairs.astype(object).take(v).prod(axis=1)
        elif top >= 2**53:
            prods = pairs.astype(np.int64).take(v).prod(axis=1)
        else:
            prods = prods.astype(np.int64)
        if t.den != 1:
            if (prods % t.den).any():
                raise CharacterError(
                    f"Levi dimension at marks {s.h} is not integral")
            prods //= t.den
        bound += len(prods) * int(prods.max())
        if bound >= 2**63:
            poly = poly.astype(object, copy=False)
        np.add.at(poly, t.K[a:b] @ clipped, t.signs[a:b] * prods)
    # the sum's bound set its dtype, and _quotient's sets the division's
    return _quotient(poly.astype(
        np.int64 if _dimension(rs, pairs)[0] << s.e_count < 2**63 else object,
        copy=False), n, s, lam)


def _by_orbits(rs: RootSystem, lam: Weight, marks) -> np.ndarray:
    """The row by the orbit expansion, for dominant marks: row[k] counts
    the weights mu of L(lambda), with multiplicity, at k = (lambda - mu)(h).
    The orbits of all dominant weights are walked at once by _orbit_walk,
    with the index of each row's dominant weight riding along, and one
    scatter-add puts each weight's multiplicity at its degree, in int64
    while dim L(lambda), which bounds every entry, is below 2^63."""
    doms = _dominant_weights(rs, lam)
    # columns: weight coords mu, root coords k, index into doms; int32
    # holds them, since WEIGHT_CAP bounds lambda and the index
    rows = np.array([(*mu, *k, i) for i, (mu, k, _) in enumerate(doms)],
                    dtype=np.int32)
    rows = np.concatenate(list(_orbit_walk(rows, rs._weight_walk)))
    index = rows[:, -1]
    # k is int32 and the marks are dominant, so int64 is exact while
    # sum(marks) < 2^32; past that, Python ints
    degrees = rows[:, :-1] @ np.array(
        marks, np.int64 if sum(marks) < 2**32 else object)
    top = int(degrees.max())   # 2 lambda(h) < 2 WEIGHT_CAP for an sl2
    if top > 2 * WEIGHT_CAP:
        raise CharacterError(f"weight values of {lam} at marks {marks} "
                             f"span past twice the weight cap")
    mults = [m for _, _, m in doms]
    dim = sum(map(mul, np.bincount(index).tolist(), mults))
    mults = np.array(mults, np.int64 if dim < 2**63 else object)
    row = np.zeros(top + 1, mults.dtype)
    np.add.at(row, degrees.astype(np.int64), mults[index])
    return row


# ---------------------------------------------------------------------------
# Weyl alternating-sum oracle


def weyl_alternating_character(rs: RootSystem, lam: Weight) -> Character:
    """Character of L(lambda) by the alternating sum over the Weyl group,
    divided by the Weyl denominator (exact polynomial division).

    Small-rank oracle for dominant_character; enumerates W explicitly.
    """
    from .semigroup import DEFAULT_BOX_CAP, _partition_fill
    _check_weight(rs, lam, "weyl_alternating_character")
    xi = lam + rs.rho
    if _orbit_size(rs, xi.coords) > DEFAULT_WEYL_ORDER_CAP:
        raise RootSystemError(
            f"Weyl orbit exceeds cap {DEFAULT_WEYL_ORDER_CAP}")

    # Exponents are stored as k with e^nu at k = root coords of lambda - nu.
    # xi is regular, so the shared orbit walk visits each w(xi) once, at
    # level l(w), and its k (root coords of xi - w xi) is the offset of the
    # numerator term sgn(w) e^{w(xi) - rho}; the k of w0 is the largest.
    levels = list(_orbit_walk(_orbit_rows(xi.coords), rs._weight_walk))
    shape = np.concatenate(levels).max(axis=0) + 1
    ncells = math.prod(shape.tolist())
    if ncells > DEFAULT_BOX_CAP:
        raise CharacterError(
            f"character box has {ncells} cells, exceeds cap {DEFAULT_BOX_CAP}")
    num = np.zeros(shape.tolist(), dtype=np.int64)
    for length, k in enumerate(levels):
        num[tuple(k.T)] = (-1) ** length

    # divide by prod (1 - e^{-alpha}), i.e. multiply by Kostant's partition
    # function: the semigroup's running-sum kernel, generators the roots
    _partition_fill(num, rs.positive_roots)

    K = np.argwhere(num)
    weights = np.array(lam.coords) - K @ rs._np["A"].T
    dominant = (weights >= 0).all(axis=1)
    m = num[tuple(K[dominant].T)]
    if (m < 0).any():
        raise CharacterError("oracle produced negative multiplicity")
    return Character(highest_weight=lam, mults={
        Weight(w): c for w, c in zip(weights[dominant].tolist(), m.tolist())})
