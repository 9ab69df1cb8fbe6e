"""The classification pipeline: from a description to a verdict.

Four properties coincide for complete theories of abelian groups: the
Schröder–Bernstein property (bi-embeddable models are isomorphic),
ω-stability, being of the form "bounded torsion ⊕ divisible", and being
superstable with every automorphism of the connected quotient unipotent.
The library computes them through independent code paths; `classify` in the
CLI reports all of them plus the witness route for the negative cases.
"""

from sb_abelian.classify import (
    connected_component_index,
    divisible_plus_bounded,
    has_sb,
    stability_class,
    unipotence_report,
)
from sb_abelian.groupspec import parse_spec

cases = [
    "Z/2^w + Prufer(3)^w + Q",      # bounded torsion + divisible: SB holds
    "Z/12^aleph(1)",                # bounded: SB holds
    "Zhat(5)",                      # completion: superstable, no SB
    "sumP(all\\{2}; Z/p^1)",        # unbounded torsion: superstable, no SB
    "Zhat(2) + Q^w",                # mixed completion: no SB
    "sumK(2; all)",                 # unbounded exponents at one prime
    "sumP(all; Z/p^1)^w",           # infinite multiplicity everywhere
]

for text in cases:
    spec = parse_spec(text)
    verdict = has_sb(spec)
    cls = stability_class(spec)
    route = verdict.route.value if verdict.route else "-"
    print(f"{text:28} sb={verdict.has_sb!s:5} class={cls.value:28} route={route}")
    print(f"{'':28} {verdict.reason}")

# the structural condition and the automorphism condition, separately
print("\nindependent characterizations for Zhat(5):")
spec = parse_spec("Zhat(5)")
print(f"  divisible + bounded-torsion form: {divisible_plus_bounded(spec)}")
report = unipotence_report(spec)
print(f"  connected-quotient index: {connected_component_index(spec)}")
print(f"  all automorphisms unipotent: {report.unipotent_all}")
print(f"  witness family: {report.witness}")
