"""Restrict irreducibles to an sl2-subalgebra and read off invariants.

Run:  python demos/03_sl2_branching.py
"""

from sl2bounds import (SimpleComponent, Weight, build, g0, invariant_dim,
                       principal_embedding, root_embedding, sl2_decompose)

g2 = build([SimpleComponent("G", 2)])

# An sl2-subalgebra is described by its marks: the values of the simple
# roots on the sl2's semisimple element h.  The principal sl2 has all
# marks equal to 2; its weight values come from the product formula
# prod_{alpha>0} (1 - t^<lam+rho, alpha_vee>) / (1 - t^<rho, alpha_vee>)
# without computing any weight multiplicity.
prin = principal_embedding(g2)
print("principal marks:", prin.marks)

# The 7-dim rep stays irreducible: it restricts to the single V(6).
dec = sl2_decompose(g2, Weight((1, 0)), prin)
print("L(1,0) | principal sl2 =",
      " + ".join(f"{m}*V({k})" for k, m in sorted(dec.mults.items())))

# The adjoint rep of G2 splits as V(10) + V(2) -- the exponents 1, 5.
dec = sl2_decompose(g2, Weight((0, 1)), prin)
print("L(0,1) | principal sl2 =",
      " + ".join(f"{m}*V({k})" for k, m in sorted(dec.mults.items())))

# invariant_dim counts copies of the trivial V(0); g0 is the smallest
# sl2-dimension that occurs.  These drive the golden tables.
for lam in ((0, 0), (2, 0), (0, 3), (19, 19)):
    print(f"lam={lam}: invariants={invariant_dim(g2, Weight(lam), prin)}, "
          f"g0={g0(g2, Weight(lam), prin)}")

# Root sl2s: the subalgebra spanned by a root vector pair.  Marks come
# from pairing the root against the simple coroots.
hr = root_embedding(g2, (3, 2))
print("highest-root sl2 marks:", hr.marks)
print("L(0,1) | root sl2 mults:",
      dict(sorted(sl2_decompose(g2, Weight((0, 1)), hr).mults.items())))
