"""Uniform bounds b(k, g), maximal parabolic tables and exclusion sets.

Run:  python demos/05_bounds_and_tables.py
"""

from sl2bounds import (E_set, SimpleComponent, b_bound, build, e_value,
                       m_values, parabolic_table, principal_embedding)

g2 = build([SimpleComponent("G", 2)])
emb = principal_embedding(g2)

# m(G, H, j) is the least n >= 1 with an H-invariant in L(n w_j); the
# m-values bound a box C0 outside which invariants are guaranteed.
mv = m_values(g2, emb)
print("m-values for G2 principal:", mv)

# b(k, g): every irreducible g-module contains a k-irreducible of
# dimension < b.  For the principal sl2 in G2 the answer is 8, attained
# because g0 <= 7 on the box and invariants exist outside it.
res = b_bound(g2, emb)
print(f"b = {res.b}  (max g0 over the "
      f"{mv[0]}x{mv[1]} box is {res.box_max_g0})")

# Maximal parabolics: delete one Dynkin node, measure dim g/l_ss, and
# halve (plus one) for the dimension of the highest weight orbit X.
print("\nE8 maximal parabolic table:")
for row in parabolic_table(SimpleComponent("E", 8)):
    levi = "+".join(str(c) for c in row.levi_ss_components)
    print(f"  node {row.node}: levi {levi:12s} dim g/l_ss = "
          f"{row.dim_g_mod_lss:3d}  dim X = {row.dim_X}")

# e(g) minimizes dim X over the nodes; E(k) collects the simple types
# whose e-value is at most dim k, i.e. the types that a dimension-count
# argument cannot exclude for a subalgebra of that size.
print("\ne(G2) =", e_value(SimpleComponent("G", 2)))
print("E(sl3) = types with e <= 8:", [str(c) for c in E_set(8)])
