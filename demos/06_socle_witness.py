"""The unbounded-torsion route: witness pairs inside a product of prime blocks.

When the reduced torsion part spreads over infinitely many primes with
bounded exponents, the counterexample lives in the product of one small
block per prime.  Two coordinatewise scalar automorphisms are drawn so that
no small two-variable polynomial relates them at more than a handful of
window primes (a seeded, exhaustively scanned certificate).  Elements are a
rational "tail" over the monomial grid plus finitely many exceptional
coordinates; pseudo-division by n zeroes the blocks at primes dividing n and
divides exactly everywhere else.
"""

import random

from sb_abelian.groupspec import PrimeSet, parse_spec
from sb_abelian.witness_socle import (
    PrimeWindow,
    build_socle_witness,
    product_membership,
    proper_inclusion_check,
    pseudo_divide,
    random_socle_member,
    reduce_unbounded_torsion,
)

window = PrimeWindow(PrimeSet.cofinite([2]), width=10)
w = build_socle_witness(window, seed=0, max_exponent=1, height_bound=1, threshold=2)
print(f"window primes: {w.window.primes}")
print(f"scalar pair at each window prime: "
      f"{[w.scalars.at(p) for p in w.window.primes[:5]]} ...")
print(f"avoidance certificate: {w.certificate.candidates} candidates, "
      f"min survivors {w.certificate.min_count} (threshold "
      f"{w.certificate.threshold}), passed={w.certificate.passed}")

a = w.base_point()
print(f"\nbase point evaluates to {a.evaluate(3)} at p=3, {a.evaluate(7)} at p=7")
print(f"base point in H1: {product_membership(a, 'H1', w)}")
print(f"second scalar applied: in H2? "
      f"{product_membership(a.apply_scalar(2), 'H2', w)} (the shifted monomial leaves the grid)")

# pseudo-division composes on the nose
x = random_socle_member(w, random.Random(5), "H1")
lhs = pseudo_divide(x, 6)
rhs = pseudo_divide(pseudo_divide(x, 3), 2)
print(f"\npseudo-division composes: x/6 == (x/3)/2 -> {lhs == rhs}")
print(f"  x/6 at p=3 (zeroed): {lhs.evaluate(3)}, at p=7: {lhs.evaluate(7)}")

# no small relation rewrites the shifted generator back into the grid
check = proper_inclusion_check(w, max_shift=3)
print(f"\nproper-inclusion rows (shift, surviving primes): "
      f"{[(m, c) for m, c, _ in check.rows]} -> passed={check.passed}")

# the full pipeline from a group description to a witness
spec = parse_spec("sumP(all; Z/p^2) + Z/4^w")
outcome = reduce_unbounded_torsion(
    spec, width=10, max_exponent=1, height_bound=1, threshold=2
)
print(f"\nreduction of {spec}:")
print(f"  split modulus {outcome.modulus}, carried bounded part "
      f"{outcome.carried_bounded}")
print(f"  socle part {outcome.socle_part}")
for entry in outcome.transcript:
    print(f"  step {entry['step']}")
