"""Certified finite complements of affine subsemigroups of N^r.

Run:  python demos/04_semigroups.py
"""

from sl2bounds import (GeneratorSet, SimpleComponent, Weight, build,
                       complement, invariant_dim, member,
                       principal_embedding)

# Classic numerical semigroup <2, 3>: only 1 is missing.
gs = GeneratorSet([(2,), (3,)])
print("<2,3> complement:", complement(gs, box_bound=10).points)
print("member(7):", member(gs, (7,)))

# In rank 2: pairs (i, j) with a principal-sl2 invariant in the G2
# module L(i, j) form a subsemigroup of N^2.  Nine generators observed
# in the 20x20 table are enough to pin down the complement.
gens = [(0, 2), (0, 17), (4, 0), (6, 0), (15, 0), (5, 1), (1, 3), (7, 1),
        (1, 6)]
res = complement(GeneratorSet(gens), box_bound=64)
print(f"9-generator complement: {len(res.points)} points, "
      f"certified={res.certified}")

# The certificate means the complement is provably complete: every
# lattice point outside the search box is reachable.  The exceptional
# weights are the complement elements with no invariant at all.
g2 = build([SimpleComponent("G", 2)])
emb = principal_embedding(g2)
exceptional = [p for p in res.points
               if invariant_dim(g2, Weight(p), emb) == 0]
print(f"{len(exceptional)} of them have dim L(lam)^K = 0:")
print(exceptional)
