"""Weight multiplicities of irreducible representations.

Production algorithm: Freudenthal's recursion over the dominant weights of
L(lambda) alone, in Python ints (Moody and Patera, "Fast recursion formula
for weight multiplicities", 1982).  The dominant weights are found from
lambda by subtracting positive roots and keeping the dominant results
(Stembridge, "The partial order of dominant weights", 1998); any weight has
the multiplicity of its dominant Weyl conjugate.  L(lambda) may have at
most WEIGHT_CAP weights, counted over the orbits of its dominant weights,
and at most DOMINANT_CAP dominant weights, both checked while they are
enumerated.  An alternating-sum oracle is kept alongside for
cross-checking: it walks W by rootsys's shared orbit walk into a box of
at most DEFAULT_BOX_CAP cells, sized before the walk, and divides by the
Weyl denominator with semigroup's partition-function kernel.

_weight_row restricts a character to the sl2 with given marks alpha_i(h),
and it alone chooses how.  _request validates lambda and the marks,
conjugates the marks to the dominant h and reads the record of h;
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

_weight_row forms a request's numbers once: the pairings <lambda + rho,
alpha_vee> (rootsys._pairings), dim L(lambda) (rootsys._dimension), which
sets the row dtype and bounds the orbit expansion's entries, and n = c .
(lambda + rho) + 1, c from _sl2, the length of either formula's
numerator.  Both formulas take them, write their numerator into one
zero-padded buffer and divide it there in place by prod_{alpha(h)>0} (1 -
t^alpha(h)), which _sl2 holds (its docstring says why the product
formula shares it).  The choice reads them and h alone, so a lambda
takes one path in any order of requests: the product formula for a
principal h while its degree in t^2 is at most PARABOLIC_CAP; else the
orbit expansion when the degree passes PARABOLIC_CAP, when W_J\\W has
over COSET_CAP cosets (a memory guard), or when dim L(lambda) is at most
its number of cosets; else the coset sum, the one reader of h's table.
The one memo, _sl2, is keyed by the dominant h, bounded, and shared across
builds: conjugate sl2s, however their marks are spelled, get one record,
which carries its coset table and the last certified decomposition of
sl2branch.sl2_decompose, so a lambda asked for twice in a row
(invariant_dim, then g0) is restricted once.
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
                      weight_to_root_coords)

DOMINANT_CAP = 5 * 10**4  # dominant weights of L(lambda)
PARABOLIC_CAP = 10**5  # degree of either formula
COSET_CAP = 3 * 10**6  # cosets W_J\W in a coset table; |W(E7)| = 2903040
COSET_CHUNK = 2**14  # rows of K paired with all roots at once


class _Sl2(namedtuple("_Sl2", "h y c cosets groups e_sum e_max e_count")):
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
    _check_weight(rs, lam, "dominant_character")
    return Character(highest_weight=lam, mults={
        Weight(mu): m for mu, _, m in _dominant_weights(rs, lam)})


def full_weight_values(rs: RootSystem, lam: Weight, marks) -> dict:
    """Histogram of mu(h) over the weights of L(lambda), h of these marks."""
    return _histogram(*_weight_row(
        rs, lam, _request(rs, lam, marks, "full_weight_values")))


def _histogram(lam_h: int, row) -> dict:
    return {lam_h - k: n for k, n in enumerate(row.tolist()) if n}


def _request(rs: RootSystem, lam: Weight, marks, caller: str) -> _Sl2:
    """The record of h, the dominant Weyl conjugate of these marks, which
    keys the memo, once lambda and the marks are checked for caller."""
    marks = tuple(map(index, marks))
    if len(marks) != rs.rank:
        raise RootSystemError(f"marks must have length {rs.rank}")
    _check_weight(rs, lam, caller)
    return _sl2(rs, tuple(_reflect_to_dominant(marks, rs.cartan)[0]))


def _weight_row(rs: RootSystem, lam: Weight, s: _Sl2) -> tuple:
    """(lambda(h), row) for a request checked by _request, s its record, as
    the module docstring says: the numbers formed here and h pick the path."""
    lam_h = _lambda_of_h(rs, lam, s)
    pairs = _pairings(rs, lam.coords)
    dim, rem = _dimension(rs, pairs)
    if rem:
        raise CharacterError(f"Weyl dimension of {lam} is not integral")
    n = sum(map(mul, s.c, (x + 1 for x in lam.coords))) + 1
    dtype = np.int64 if dim << s.e_count < 2**63 else object
    if s.h == (2,) * rs.rank and n <= 2 * PARABOLIC_CAP + 1:
        return lam_h, _by_product(lam, s, pairs, n, dtype)
    if n > PARABOLIC_CAP + 1 or s.cosets > COSET_CAP or dim <= s.cosets:
        return lam_h, _by_orbits(rs, lam, s, dim)
    return lam_h, _by_cosets(rs, lam, s, pairs, n, dtype)


@lru_cache(maxsize=4)
def _sl2(rs: RootSystem, h: tuple) -> _Sl2:
    """The record of the sl2 with the dominant marks h, which _request
    reads for every Weyl conjugate of h: the memo is keyed by h, so
    conjugate sl2s share one record, the coset table and the last
    certified decomposition it carries, and at most four of each are
    alive.  It holds h, y = N^T h (N = den A^-1), den times the coroot
    coordinates of h, c those of h + h* with h* = -w0 h, cosets =
    |W_J\\W|, J the zero marks of h, and the denominator prod (1 - t^e)
    over the e = alpha(h) > 0, alpha in Phi+: their (e, times) groups,
    ascending, and their sum, max and count.

    The weights of L(lambda) are W-stable, so h and its conjugates have the
    same weight-value histogram.  h* has the marks alpha_i(h*) =
    alpha_sigma(i)(h), sigma the node permutation of -w0, which A^-1
    commutes with: c = (y + y o sigma) / den.  |W h| is _orbit_size, the
    one Macdonald product.  For xi = lambda + rho both formulas' numerators
    have degree (xi - w0 xi)(h) = c . xi in t (c is the largest row of the
    coset table, that of w0: the w0 image of the identity's row K = 0), or
    half that in q = t^2 for the principal h = h*, and both divide by
    prod (1 - t^e): for h = 2 rho_vee the e = 2 ht(alpha) are the
    2 <rho, alpha_vee> = 2 ht(alpha_vee) of the product formula, as Phi
    and its dual have one height partition (Kostant 1959).
    """
    den, N = rs._np["Ainv_int"]
    y = tuple(sum(map(mul, col, h)) for col in zip(*N))
    c = [x + y[j] for x, j in zip(y, rs._np["sigma"])]
    if any(x % den for x in c):
        raise CharacterError(f"h + h* is not integral at marks {h}")
    alpha_h = rs._np["roots"] @ np.array(   # exact in int64 below 2^32
        h, np.int64 if max(h) < 2**32 else object)
    exps = alpha_h[alpha_h > 0].tolist()
    return _Sl2(h, y, tuple(x // den for x in c), _orbit_size(rs, h),
                tuple(sorted(Counter(exps).items())), sum(exps),
                max(exps, default=0), len(exps))


def _lambda_of_h(rs: RootSystem, lam: Weight, s: _Sl2) -> int:
    """lambda(h) = y . lambda / den in Python ints, for y = N^T h, den
    times the coroot coordinates of the dominant h of the record s."""
    den = rs._np["Ainv_int"][0]
    val = sum(map(mul, s.y, lam.coords))
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
    at most dim 2^count: buf has the dtype _weight_row sets by that bound."""
    for e, times in s.groups:
        rows = buf[:-(-n // e) * e].reshape(-1, e)
        for _ in range(times):
            np.add.accumulate(rows, axis=0, out=rows)
    top = n - 1 - s.e_sum
    if top < 0 or buf[top + 1:n].any():
        raise CharacterError(
            f"character sum of {lam} at marks {s.h} is not a polynomial")
    return buf[:top + 1]


def _by_product(lam: Weight, s: _Sl2, pairs, n: int, dtype) -> np.ndarray:
    """The row for the principal h = 2 rho_vee, from prod_{alpha>0} (1 -
    t^a_alpha) / (1 - t^alpha(h)) = sum_mu mult(mu) t^{2 ht(lambda - mu)},
    a_alpha = 2 <lambda + rho, alpha_vee>, twice the pairings, of sum
    n - 1 = c . xi (c = 2 sum alpha_vee); the buffer takes the row dtype,
    which holds the numerator, whose terms are at most 2^|Phi+|."""
    a = [2 * x for x in pairs.tolist()]
    num = np.zeros(n + s.e_max, dtype)
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


def _by_cosets(rs: RootSystem, lam: Weight, s: _Sl2, pairs, n: int,
               dtype) -> np.ndarray:
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
    <xi, beta_vee>, one row of a gather of the pairings _weight_row hands
    in with n, the numerator's length, and the row dtype, the quotient's.
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
    # xi_j <= K . xi <= PARABOLIC_CAP wherever some row has K_j > 0, so
    # clipping xi there changes no degree, and int32 holds every partial sum
    clipped = np.array([min(x + 1, PARABOLIC_CAP) for x in lam.coords],
                       np.int32)
    # the degree cap bounds xi only where some mark is nonzero, so the
    # pairings may be Python ints; below 2^53 they are exact in float64
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
    # the sum's bound set its dtype, and the row dtype sets the division's
    return _quotient(poly.astype(dtype, copy=False), n, s, lam)


def _by_orbits(rs: RootSystem, lam: Weight, s: _Sl2, dim: int) -> np.ndarray:
    """The row by the orbit expansion at the dominant h of the record s:
    row[k] counts the weights mu of L(lambda), with multiplicity, at k =
    (lambda - mu)(h) <= (lambda - w0 lambda)(h) = c . lambda, refused past
    twice WEIGHT_CAP before any weight is found.  The orbits of all
    dominant weights are walked at once by _orbit_walk, with the index of
    each row's dominant weight riding along, and one scatter-add puts each
    weight's multiplicity at its degree, in int64 while dim, dim L(lambda)
    from _weight_row, which bounds every entry, is below 2^63."""
    if sum(map(mul, s.c, lam.coords)) > 2 * WEIGHT_CAP:
        raise CharacterError(f"weight values of {lam} at marks {s.h} "
                             f"span past twice the weight cap")
    doms = _dominant_weights(rs, lam)
    # columns: weight coords mu, root coords k, index into doms; int32
    # holds them, since WEIGHT_CAP bounds lambda and the index
    rows = np.array([(*mu, *k, i) for i, (mu, k, _) in enumerate(doms)],
                    dtype=np.int32)
    rows = np.concatenate(list(_orbit_walk(rows, rs._weight_walk)))
    index = rows[:, -1]
    # no degree passes the checked span, so k_j = 0 wherever mark_j does:
    # marks clipped past it give the same degrees, all exact in int64
    degrees = rows[:, :-1] @ np.array(
        [min(m, 2 * WEIGHT_CAP + 1) for m in s.h], np.int64)
    mults = np.array([m for _, _, m in doms],
                     np.int64 if dim < 2**63 else object)
    row = np.zeros(int(degrees.max()) + 1, mults.dtype)
    np.add.at(row, degrees.astype(np.int64), mults[index])
    return row


# ---------------------------------------------------------------------------
# Weyl alternating-sum oracle


def weyl_alternating_character(rs: RootSystem, lam: Weight) -> Character:
    """Character of L(lambda) by the alternating sum over the Weyl group,
    divided by the Weyl denominator (exact polynomial division).

    Oracle for dominant_character; walks W explicitly, bounded by its box.
    """
    from .semigroup import DEFAULT_BOX_CAP, _partition_fill
    _check_weight(rs, lam, "weyl_alternating_character")
    xi = lam + rs.rho
    # Exponents are stored as k with e^nu at k = root coords of lambda - nu.
    # xi is regular, so the shared orbit walk visits each w(xi) once, at
    # level l(w), and its k (root coords of xi - w xi) is the offset of the
    # numerator term sgn(w) e^{w(xi) - rho}.  The k of w0, xi - w0 xi = xi +
    # xi*, is the largest, and distinct w(xi) take distinct cells of its box.
    dual = Weight(tuple(xi.coords[j] for j in rs._np["sigma"]))
    shape = [int(k) + 1 for k in weight_to_root_coords(rs, xi + dual)]
    ncells = math.prod(shape)
    if ncells > DEFAULT_BOX_CAP:
        raise CharacterError(
            f"character box has {ncells} cells, exceeds cap {DEFAULT_BOX_CAP}")
    num = np.zeros(shape, dtype=np.int64)
    levels = _orbit_walk(_orbit_rows(xi.coords), rs._weight_walk)
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
