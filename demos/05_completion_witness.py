"""Building the completion-route witness pair, at small precision.

For a p-adic completion summand, two pure subgroups of the rank-k module are
generated from the monomial grid of a certified-independent unit pair.  Each
scales into the other (so the pair is bi-embeddable), but the certificate
rules out any small relation that would collapse them.  Everything below is
exact: elements store rational coefficients, never truncated residues;
truncation happens only inside the final valuation checks.
"""

import json
import random
from fractions import Fraction

from sb_abelian.padic import PAdicApprox
from sb_abelian.witness_padic import (
    GridElement,
    GridMonomial,
    apply_scalar,
    build_padic_witness,
    elementary_matrix_probe,
    grid_membership,
    random_member,
)

PRECISION = 12

w = build_padic_witness(5, k=2, seed=0, precision=PRECISION)
print(f"unit pair at p=5, precision {PRECISION}:")
print(f"  unit1 = {w.unit1}")
print(f"  unit2 = {w.unit2}")
print(f"  certificate: {w.certificate.candidates} candidate relations, "
      f"passed={w.certificate.passed}")

# the generator e1 sits in both pure closures; unit2*e1 only in the first
e1 = GridElement.of(5, {GridMonomial(0, 0, 1): Fraction(1)})
shifted = apply_scalar(w, "unit2", e1)
print(f"\ne1 in H1: {grid_membership(e1, 'H1', w)},  in H2: {grid_membership(e1, 'H2', w)}")
print(f"unit2*e1 in H1: {grid_membership(shifted, 'H1', w)},  "
      f"in H2: {grid_membership(shifted, 'H2', w)}")

# scaling by unit1 maps H1 into H2 — that's one of the two embeddings
rng = random.Random(11)
x = random_member(w, rng, "H1")
print(f"\na random H1 member has {len(x.support)} grid terms, "
      f"denominator exponent {x.t}")
print(f"  unit1 * x lands in H2: {grid_membership(apply_scalar(w, 'unit1', x), 'H2', w)}")

# exact division: members divisible by p stay members after dividing
r = w.unit1.truncate(1).residue
y = x.shift(1, 0) - x.scale(r)          # (unit1 - r)*x is divisible by 5
fifth = y.scale(Fraction(1, 5))
print(f"  (unit1 - {r})*x / 5 still in H1: {grid_membership(fifth, 'H1', w)}")

# any recorded embedding is a matrix A mod 5^N; the probe inverts a sample
# once and checks that A B and B A are the identity mod 5^n for every n <= N
probe = elementary_matrix_probe(w, seed=3)
print(f"\nmatrix inverse probe: identity at all {probe['levels']} levels: "
      f"{probe['identity_at_all_levels']}")

# rationals with 5-free denominators embed with their divisibility intact
third = PAdicApprox.of_rational(1, 3, 5, 6)
print(f"\n1/3 as a 5-adic integer: {third} "
      f"(times 3: {PAdicApprox.of(3 * third.residue, 5, 6)})")

print("\nwitness descriptor (abridged):")
payload = w.to_json()
payload["certificate"] = {k: payload["certificate"][k] for k in ("passed", "candidates")}
print(json.dumps(payload, indent=2, sort_keys=True))
