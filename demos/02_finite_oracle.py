"""Brute-force ground truth on explicit finite groups.

The symbolic layer never gets to be its own referee: anything it claims
about a finite group (layer sizes, purity, isomorphism) can be recomputed
here by enumerating elements.  This script walks through the oracle roughly
in the order the library leans on it.
"""

from sb_abelian.finite_oracle import (
    FiniteAbelianGroup,
    is_pure_subgroup_bruteforce,
    iso_finite_bruteforce,
    realize,
    socle_multiplicities_bruteforce,
    subgroup_closure,
    ulm_bruteforce,
)
from sb_abelian.groupspec import parse_spec

G = FiniteAbelianGroup((2, 8))
print(f"G = Z/2 x Z/8, order {G.order}, exponent {G.exponent}")

print("\nlayer sizes at p=2 (dimension of each height layer of the 2-torsion):")
for i in range(4):
    print(f"  layer {i}: {ulm_bruteforce(G, 2, i)}")

# purity: {0,4} x Z/8 contains (0,4) = 4*(0,1), but (0,4) is not 4 times
# anything inside the subgroup generated by (0,4)
H = subgroup_closure(G, [(0, 4)])
print(f"\nsubgroup generated by (0,4): {sorted(H)}")
print(f"  pure in G? {is_pure_subgroup_bruteforce(G, [(0, 4)])}")
print(f"  the summand generated by (1,0): pure? "
      f"{is_pure_subgroup_bruteforce(G, [(1, 0)])}")

# isomorphism by counting: finite abelian groups are isomorphic exactly when
# they have as many elements of each order (the counts fix every |G[d]|)
a = realize(parse_spec("Z/4 + Z/3"))
b = realize(parse_spec("Z/12"))
c = realize(parse_spec("Z/2 + Z/6"))
for name, group in (("Z/4 + Z/3", a), ("Z/12", b), ("Z/2 + Z/6", c)):
    counts = ", ".join(f"{count} of order {order}" for order, count in group.order_histogram())
    print(f"\n{name}: {counts}")
print(f"\nZ/4 + Z/3 ~ Z/12?  {iso_finite_bruteforce(a, b)}")
print(f"Z/12 ~ Z/2 + Z/6?  {iso_finite_bruteforce(b, c)}")

print(f"\nsocle multiplicities of Z/2 x Z/8: "
      f"{socle_multiplicities_bruteforce(G)}")
