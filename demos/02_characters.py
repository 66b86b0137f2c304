"""Irreducible characters two ways: Freudenthal vs the Weyl alternating sum.

Run:  python demos/02_characters.py
"""

from sl2bounds import (SimpleComponent, Weight, build, dominant_character,
                       weyl_alternating_character)

g2 = build([SimpleComponent("G", 2)])
lam = Weight((1, 1))

# dominant_character runs Freudenthal's recursion over the dominant
# weights only (the Weyl group supplies the rest).
ch = dominant_character(g2, lam)
print(f"L{lam.coords} has {len(ch.mults)} dominant weights, "
      f"dimension {ch.dimension(g2)}")
for mu, m in sorted(ch.mults.items(), key=lambda kv: kv[0].coords):
    print(f"  mult of {mu.coords} = {m}")

# The alternating-sum oracle evaluates the Weyl character formula
# directly.  It is slower but completely independent, so agreement is a
# strong correctness check -- the test suite compares the two on
# hundreds of weights.
oracle = weyl_alternating_character(g2, lam)
print("oracle agrees:", ch.mults == oracle.mults)

# Nothing is cached per highest weight: each call runs the recursion
# again, and its work grows with the number of dominant weights
# (L(19, 19) has 770 of them).
big = dominant_character(g2, Weight((19, 19)))
print("dim L(19, 19) =", big.dimension(g2))
