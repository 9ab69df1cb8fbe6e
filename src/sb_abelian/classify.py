"""Classification of spec theories: stability, the Schroeder-Bernstein
property, and automorphism structure of the connected quotient.

For a complete theory of abelian groups the following are equivalent, and
this module decides each one separately so the agreement itself is testable:

1. any two bi-embeddable models are isomorphic (the theory "has SB");
2. the theory is omega-stable;
3. every model is a direct sum of a divisible group and a torsion group of
   bounded exponent;
4. the theory is superstable and, modulo the intersection of the
   finite-index definable subgroups, every automorphism is unipotent.

Stability and the connected-component index are read off the canonical
Szmielew key of :mod:`.invariants`; condition 3 and the unipotence witness
are read off the summand constructors, so the agreement of the four
conditions compares two independent derivations.  When the SB property
fails, a witness route records which construction produces a bi-embeddable
non-isomorphic pair.
"""

from __future__ import annotations

import enum
import math

from .groupspec import (
    _MAX_DIGITS,
    ALEPH0,
    Cardinal,
    Cyclic,
    CyclicPrimeFamily,
    GroupSpec,
    NotApplicableError,
    PAdicComplete,
    PAdicPrimeFamily,
    PrimeSet,
    Prufer,
    Rationals,
    Record,
    normalize,
)
from .invariants import szmielew_invariants

__all__ = [
    "StabilityClass",
    "WitnessRoute",
    "SbVerdict",
    "BasicPredicates",
    "Continuum",
    "CONTINUUM",
    "NonUnipotentWitness",
    "UnipotenceReport",
    "NotApplicableError",
    "basic_predicates",
    "stability_class",
    "divisible_plus_bounded",
    "has_sb",
    "connected_component_index",
    "unipotence_report",
]

_ZERO = Cardinal.of(0)


class StabilityClass(enum.Enum):
    OMEGA_STABLE = "omega_stable"
    SUPERSTABLE_NOT_OMEGA_STABLE = "superstable_not_omega_stable"
    NOT_SUPERSTABLE = "not_superstable"


class WitnessRoute(enum.Enum):
    EXTERNAL_NON_SUPERSTABLE = "ExternalNonSuperstable"
    PADIC_WITNESS = "PAdicWitness"
    SOCLE_WITNESS = "SocleWitness"


class BasicPredicates(Record):
    divisible: bool
    reduced: bool
    exponent: int | None  # None when unbounded


def basic_predicates(spec: GroupSpec) -> BasicPredicates:
    """Divisibility and reducedness read off the entry list, the exponent off the key.

    A spec is divisible iff every summand is quasicyclic or rational, and
    reduced iff no summand is.  (The trivial group is both.)
    """
    divisible = all(isinstance(fam, (Prufer, Rationals)) for fam, _ in spec.entries)
    reduced = not any(isinstance(fam, (Prufer, Rationals)) for fam, _ in spec.entries)
    exponent = szmielew_invariants(spec).exponent
    return BasicPredicates(divisible=divisible, reduced=reduced, exponent=exponent)


def stability_class(spec: GroupSpec) -> StabilityClass:
    """Place the theory of the spec in the stability hierarchy, read off its key.

    Not superstable: some p has Exp(p) infinite or U(p, k) nonzero at
    infinitely many k (a chain p^k G of infinite indices), or infinitely many
    primes have G/pG infinite (a chain G > p_1 G > p_1 p_2 G > ...).
    Omega-stable: every Exp(p) is 0 and U is nonzero at only finitely many
    (p, k), i.e. divisible plus bounded.  Everything else sits strictly between.
    """
    inv = szmielew_invariants(spec)
    records = [inv.generic, *(rec for _, rec in inv.primes)]
    if (
        any(rec.exp == ALEPH0 or rec.tail != _ZERO for rec in records)
        or any(u == ALEPH0 for _, u in inv.generic.ulm)
    ):
        return StabilityClass.NOT_SUPERSTABLE
    if not inv.generic.ulm and all(rec.exp == _ZERO for rec in records):
        return StabilityClass.OMEGA_STABLE
    return StabilityClass.SUPERSTABLE_NOT_OMEGA_STABLE


def divisible_plus_bounded(spec: GroupSpec) -> bool:
    """Is every model a divisible group plus torsion of bounded exponent?

    Coded directly off the entry constructors, independent of
    :func:`stability_class`: the divisible summands are quasicyclic/rational
    and the torsion ones must be finitely many cyclic singletons.
    """
    for fam, _ in spec.entries:
        if isinstance(fam, (Prufer, Rationals)):
            continue
        if isinstance(fam, Cyclic):
            continue
        return False
    return True


class SbVerdict(Record):
    has_sb: bool
    route: WitnessRoute | None
    reason: str


def has_sb(spec: GroupSpec) -> SbVerdict:
    """Decide the Schroeder-Bernstein property and pick a witness route.

    The decision path runs through the invariant table (unboundedness of the
    reduced part), not the stability case analysis, so that agreement of the
    two is a real check.
    """
    reduced_entries = [
        (fam, mult)
        for fam, mult in spec.entries
        if not isinstance(fam, (Prufer, Rationals))
    ]
    reduced_part = normalize(reduced_entries)
    if szmielew_invariants(reduced_part).bounded:
        return SbVerdict(
            has_sb=True,
            route=None,
            reason="every model is divisible plus torsion of bounded exponent; "
            "bi-embeddable models share all cardinal invariants",
        )
    if stability_class(spec) is StabilityClass.NOT_SUPERSTABLE:
        return SbVerdict(
            has_sb=False,
            route=WitnessRoute.EXTERNAL_NON_SUPERSTABLE,
            reason="the theory is not superstable; witness pairs exist for every "
            "non-superstable theory of abelian groups but are not constructed here",
        )
    if any(isinstance(fam, (PAdicComplete, PAdicPrimeFamily)) for fam, _ in spec.entries):
        return SbVerdict(
            has_sb=False,
            route=WitnessRoute.PADIC_WITNESS,
            reason="a p-adic completion summand admits bi-embeddable non-isomorphic "
            "pure subgroup envelopes built from independent scaling units",
        )
    return SbVerdict(
        has_sb=False,
        route=WitnessRoute.SOCLE_WITNESS,
        reason="unbounded reduced torsion over infinitely many primes reduces to a "
        "socle witness pair built from coordinate scalar automorphisms",
    )


class Continuum:
    """Index value 2**aleph_0 (the connected quotient is not small)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Continuum()"

    def __str__(self) -> str:
        return "2^aleph(0)"


CONTINUUM = Continuum()


def connected_component_index(spec: GroupSpec) -> int | Continuum:
    """Index of the intersection of the finite-index definable subgroups.

    For omega-stable specs it is the product over p of
    p**((k - K_p) * U(p, k)) for k > K_p, where K_p is the largest k with
    U(p, k) infinite (0 if there is none): at each p, G[p**K_p] + p**N G for
    N beyond every finite exponent has that index and lies in every definable
    subgroup of finite index.  Any other theory has index continuum.  An
    index of more than 4300 digits, which could not be printed, raises
    ValueError before it is computed.

    >>> from sb_abelian.groupspec import parse_spec
    >>> connected_component_index(parse_spec("Z/2^3 + Q"))
    8
    >>> connected_component_index(parse_spec("Z/4 + Z/2^w"))
    2
    >>> connected_component_index(parse_spec("Zhat(5)"))
    Continuum()
    """
    if stability_class(spec) is not StabilityClass.OMEGA_STABLE:
        return CONTINUUM
    exponents: dict[int, int] = {}
    for p, rec in szmielew_invariants(spec).primes:
        top = max((k for k, u in rec.ulm if u == ALEPH0), default=0)
        exponents[p] = sum((k - top) * u.value for k, u in rec.ulm if k > top)
    if sum(e * math.log10(p) for p, e in exponents.items()) >= _MAX_DIGITS:
        shown = " * ".join(f"{p}^{e}" for p, e in exponents.items() if e)
        raise ValueError(
            f"connected component index {shown} has more than {_MAX_DIGITS} digits"
        )
    return math.prod(p**e for p, e in exponents.items())


class NonUnipotentWitness(Record):
    """Description of an automorphism of infinite order modulo unipotents."""

    kind: str  # "padic_scalar" | "family_coordinate_scalars"
    p: int | None
    primes: PrimeSet | None
    note: str


class UnipotenceReport(Record):
    index: "int | Continuum"
    unipotent_all: bool
    witness: NonUnipotentWitness | None


def unipotence_report(spec: GroupSpec) -> UnipotenceReport:
    """Are all automorphisms of the connected quotient unipotent?

    Raises :class:`NotApplicableError` on non-superstable specs (the quotient
    analysis presupposes superstability).  When the answer is no, a witness
    is produced: scalar action by a non-algebraic unit on a p-adic completion
    summand, or coordinatewise scalars of order p-1 across an infinite cyclic
    prime family (whose orders are unbounded along the family).
    """
    stability = stability_class(spec)
    if stability is StabilityClass.NOT_SUPERSTABLE:
        raise NotApplicableError("unipotence analysis requires a superstable theory")
    index = connected_component_index(spec)
    if stability is StabilityClass.OMEGA_STABLE:
        return UnipotenceReport(index=index, unipotent_all=True, witness=None)
    for fam, _ in spec.entries:
        if isinstance(fam, PAdicComplete):
            witness = NonUnipotentWitness(
                kind="padic_scalar",
                p=fam.p,
                primes=None,
                note=f"multiplication by a non-algebraic {fam.p}-adic unit on the "
                "completion summand has infinite multiplicative order",
            )
            break
        if isinstance(fam, PAdicPrimeFamily):
            witness = NonUnipotentWitness(
                kind="padic_scalar",
                p=min(fam.primes.first_n(1)),
                primes=fam.primes,
                note="multiplication by a non-algebraic unit on any completion "
                "component of the family has infinite multiplicative order",
            )
            break
        if isinstance(fam, CyclicPrimeFamily):
            witness = NonUnipotentWitness(
                kind="family_coordinate_scalars",
                p=None,
                primes=fam.primes,
                note="choosing a scalar of multiplicative order p-1 on each "
                "component yields an automorphism of unbounded order",
            )
            break
    else:  # pragma: no cover - unreachable: some non-(*) entry must exist
        raise AssertionError("superstable-not-omega-stable spec without witness entry")
    return UnipotenceReport(index=index, unipotent_all=False, witness=witness)
