"""First-order and isomorphism invariants of symbolic group specs.

Two specs denote elementarily equivalent groups exactly when their
Szmielew-style invariants agree after capping every infinite value at
aleph_0: for each prime p the dimensions

* ``alpha(p, k)`` = dim (p^(k-1) G)[p] / (p^k G)[p]  (one per Z/p**k summand),
* ``beta(p)``     = the eventual dimension of p^k G / p^(k+1) G  (one per
  p-adic completion summand),
* ``gamma(p)``    = the eventual dimension of (p^k G)[p]  (one per
  quasicyclic summand),

together with a boundedness flag and a nontriviality flag.  Every value is
a cardinal; first-order logic only sees finite values exactly and "infinite"
beyond that, hence the capping.  The table is validated against the
brute-force oracle on finite groups, where agreement of all alpha values is
the same as isomorphism.

Family entries over cofinite prime sets give the invariant maps finitely
describable infinite support; comparisons work prime-by-prime on the finite
set of "distinguished" primes mentioned by either side and symbolically off
it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping

from .groupspec import (
    ALEPH0,
    Cardinal,
    Cyclic,
    CyclicExponentFamily,
    CyclicPrimeFamily,
    GroupSpec,
    PAdicComplete,
    PAdicPrimeFamily,
    PrimeSet,
    Prufer,
    Rationals,
)

__all__ = [
    "SzmielewInvariants",
    "DivisibleInvariants",
    "UlmTable",
    "ulm_invariant",
    "ulm_table",
    "divisible_invariants",
    "szmielew_invariants",
    "elementarily_equivalent",
    "isomorphic_standard",
]

_ZERO = Cardinal.of(0)


def ulm_invariant(spec: GroupSpec, p: int, i: int) -> Cardinal:
    """Multiplicity of Z/p**(i+1) among the spec's cyclic contributions.

    This matches the brute-force Ulm value dim P_i/P_{i+1} on finite
    p-groups (heights computed exhaustively); symbolically it just reads off
    the i-th layer at p.
    """
    if i < 0:
        raise ValueError(f"Ulm index must be >= 0, got {i}")
    total = _ZERO
    for fam, mult in spec.entries:
        if isinstance(fam, Cyclic) and fam.p == p and fam.k == i + 1:
            total = total + mult
        elif isinstance(fam, CyclicPrimeFamily) and fam.k == i + 1 and fam.primes.contains(p):
            total = total + mult
        elif isinstance(fam, CyclicExponentFamily) and fam.p == p:
            # normalized exponent families cover every k >= 1
            total = total + mult
    return total


@dataclass(frozen=True, eq=False)
class UlmTable:
    """Finite description of all Ulm layers of a spec.

    ``explicit`` maps (p, i) to the multiplicity contributed by singleton
    entries; ``prime_families`` lists (prime set, i, mult) rows covering
    infinitely many primes at once; ``exponent_families`` lists (p, mult)
    rows covering every layer at one prime.
    """

    explicit: Mapping[tuple[int, int], Cardinal]
    prime_families: tuple[tuple[PrimeSet, int, Cardinal], ...]
    exponent_families: tuple[tuple[int, Cardinal], ...]

    def at(self, p: int, i: int) -> Cardinal:
        total = self.explicit.get((p, i), _ZERO)
        for ps, layer, mult in self.prime_families:
            if layer == i and ps.contains(p):
                total = total + mult
        for q, mult in self.exponent_families:
            if q == p:
                total = total + mult
        return total

    def to_json(self) -> dict:
        return {
            "explicit": [
                {"p": p, "i": i, "mult": m.to_json()}
                for (p, i), m in sorted(self.explicit.items())
            ],
            "prime_families": [
                {"primes": ps.to_json(), "i": i, "mult": m.to_json()}
                for ps, i, m in self.prime_families
            ],
            "exponent_families": [
                {"p": p, "mult": m.to_json()} for p, m in self.exponent_families
            ],
        }


def ulm_table(spec: GroupSpec) -> UlmTable:
    explicit: dict[tuple[int, int], Cardinal] = {}
    prime_families: list[tuple[PrimeSet, int, Cardinal]] = []
    exponent_families: list[tuple[int, Cardinal]] = []
    for fam, mult in spec.entries:
        if isinstance(fam, Cyclic):
            key = (fam.p, fam.k - 1)
            explicit[key] = explicit.get(key, _ZERO) + mult
        elif isinstance(fam, CyclicPrimeFamily):
            prime_families.append((fam.primes, fam.k - 1, mult))
        elif isinstance(fam, CyclicExponentFamily):
            exponent_families.append((fam.p, mult))
    return UlmTable(explicit, tuple(prime_families), tuple(exponent_families))


@dataclass(frozen=True, eq=False)
class DivisibleInvariants:
    """Isomorphism invariants of the divisible part: quasicyclic and Q ranks."""

    quasicyclic: Mapping[int, Cardinal]  # p -> multiplicity
    rational_rank: Cardinal

    def to_json(self) -> dict:
        return {
            "quasicyclic": [
                {"p": p, "mult": m.to_json()} for p, m in sorted(self.quasicyclic.items())
            ],
            "rational_rank": self.rational_rank.to_json(),
        }


def divisible_invariants(spec: GroupSpec) -> DivisibleInvariants:
    """Ranks of the divisible summands; they classify the divisible part."""
    quasi: dict[int, Cardinal] = {}
    rank = _ZERO
    for fam, mult in spec.entries:
        if isinstance(fam, Prufer):
            quasi[fam.p] = quasi.get(fam.p, _ZERO) + mult
        elif isinstance(fam, Rationals):
            rank = rank + mult
    return DivisibleInvariants(quasi, rank)


@dataclass(frozen=True, eq=False)
class SzmielewInvariants:
    """The first-order invariant table of a spec.

    ``alpha`` holds singleton cyclic contributions keyed by (p, k);
    ``alpha_prime_families`` rows (S, k, mult) add mult at every p in S;
    ``alpha_exponent_families`` rows (p, mult) add mult at every k.  After
    normalization the family prime sets are cofinite and the exponent
    families cover all k, so evaluation anywhere is a finite sum.
    """

    alpha: Mapping[tuple[int, int], Cardinal]
    alpha_prime_families: tuple[tuple[PrimeSet, int, Cardinal], ...]
    alpha_exponent_families: tuple[tuple[int, Cardinal], ...]
    beta: Mapping[int, Cardinal]
    beta_families: tuple[tuple[PrimeSet, Cardinal], ...]
    gamma: Mapping[int, Cardinal]
    bounded: bool
    exponent: int | None
    nontrivial: bool

    # -- evaluation --------------------------------------------------------

    def alpha_at(self, p: int, k: int) -> Cardinal:
        total = self.alpha.get((p, k), _ZERO)
        for ps, fk, mult in self.alpha_prime_families:
            if fk == k and ps.contains(p):
                total = total + mult
        for fp, mult in self.alpha_exponent_families:
            if fp == p:
                total = total + mult
        return total

    def beta_at(self, p: int) -> Cardinal:
        total = self.beta.get(p, _ZERO)
        for ps, mult in self.beta_families:
            if ps.contains(p):
                total = total + mult
        return total

    def gamma_at(self, p: int) -> Cardinal:
        return self.gamma.get(p, _ZERO)

    # -- comparison --------------------------------------------------------

    def _distinguished_primes(self) -> set[int]:
        out = {p for p, _ in self.alpha}
        out.update(self.beta)
        out.update(self.gamma)
        out.update(p for p, _ in self.alpha_exponent_families)
        for ps, _, _ in self.alpha_prime_families:
            out.update(ps.primes)
        for ps, _ in self.beta_families:
            out.update(ps.primes)
        return out

    def _max_k(self) -> int:
        ks = [k for _, k in self.alpha]
        ks.extend(k for _, k, _ in self.alpha_prime_families)
        return max(ks, default=0)

    def _generic_alpha(self, k: int) -> Cardinal:
        """alpha at (p, k) for any prime p outside every distinguished set."""
        total = _ZERO
        for ps, fk, mult in self.alpha_prime_families:
            if fk == k and ps.complement:
                total = total + mult
        return total

    def _generic_beta(self) -> Cardinal:
        total = _ZERO
        for ps, mult in self.beta_families:
            if ps.complement:
                total = total + mult
        return total

    def _alpha_tail(self, p: int) -> Cardinal:
        """alpha at (p, k) for k beyond every explicitly mentioned layer."""
        total = _ZERO
        for fp, mult in self.alpha_exponent_families:
            if fp == p:
                total = total + mult
        return total

    def equivalent(self, other: "SzmielewInvariants") -> bool:
        """Capped equality of the invariant functions (decidable).

        The two maps can only differ at a prime one of them mentions, at a
        layer one of them mentions, or in their symbolic generic/tail parts;
        each region is compared directly.
        """
        if self.nontrivial != other.nontrivial:
            return False
        if self.bounded != other.bounded:
            return False

        def cap(c: Cardinal) -> Cardinal:
            return c.cap_countable()

        primes = self._distinguished_primes() | other._distinguished_primes()
        max_k = max(self._max_k(), other._max_k())
        for p in primes:
            for k in range(1, max_k + 1):
                if cap(self.alpha_at(p, k)) != cap(other.alpha_at(p, k)):
                    return False
            if cap(self._alpha_tail(p)) != cap(other._alpha_tail(p)):
                return False
            if cap(self.beta_at(p)) != cap(other.beta_at(p)):
                return False
            if cap(self.gamma_at(p)) != cap(other.gamma_at(p)):
                return False
        for k in range(1, max_k + 1):
            if cap(self._generic_alpha(k)) != cap(other._generic_alpha(k)):
                return False
        if cap(self._generic_beta()) != cap(other._generic_beta()):
            return False
        return True

    def to_json(self) -> dict:
        return {
            "alpha": [
                {"p": p, "k": k, "mult": m.to_json()}
                for (p, k), m in sorted(self.alpha.items())
            ],
            "alpha_prime_families": [
                {"primes": ps.to_json(), "k": k, "mult": m.to_json()}
                for ps, k, m in self.alpha_prime_families
            ],
            "alpha_exponent_families": [
                {"p": p, "mult": m.to_json()} for p, m in self.alpha_exponent_families
            ],
            "beta": [{"p": p, "mult": m.to_json()} for p, m in sorted(self.beta.items())],
            "beta_families": [
                {"primes": ps.to_json(), "mult": m.to_json()} for ps, m in self.beta_families
            ],
            "gamma": [{"p": p, "mult": m.to_json()} for p, m in sorted(self.gamma.items())],
            "bounded": self.bounded,
            "exponent": self.exponent,
            "nontrivial": self.nontrivial,
        }


@functools.lru_cache(maxsize=4096)
def szmielew_invariants(spec: GroupSpec) -> SzmielewInvariants:
    """Build the invariant table of a normalized spec.

    Per summand: Z/p**k contributes 1 to alpha(p, k); a p-adic completion
    contributes 1 to beta(p); a quasicyclic group contributes 1 to gamma(p);
    the rationals contribute nothing but unboundedness.  The spec is bounded
    exactly when all entries are cyclic singletons.
    """
    alpha: dict[tuple[int, int], Cardinal] = {}
    alpha_pf: list[tuple[PrimeSet, int, Cardinal]] = []
    alpha_ef: list[tuple[int, Cardinal]] = []
    beta: dict[int, Cardinal] = {}
    beta_f: list[tuple[PrimeSet, Cardinal]] = []
    gamma: dict[int, Cardinal] = {}
    bounded = True
    exponent = 1
    for fam, mult in spec.entries:
        if isinstance(fam, Cyclic):
            key = (fam.p, fam.k)
            alpha[key] = alpha.get(key, _ZERO) + mult
            exponent = math.lcm(exponent, fam.modulus) if exponent is not None else None
        elif isinstance(fam, CyclicPrimeFamily):
            # infinitely many primes with exponent p**k: unbounded
            alpha_pf.append((fam.primes, fam.k, mult))
            bounded, exponent = False, None
        elif isinstance(fam, CyclicExponentFamily):
            alpha_ef.append((fam.p, mult))
            bounded, exponent = False, None
        elif isinstance(fam, PAdicComplete):
            beta[fam.p] = beta.get(fam.p, _ZERO) + mult
            bounded, exponent = False, None
        elif isinstance(fam, PAdicPrimeFamily):
            beta_f.append((fam.primes, mult))
            bounded, exponent = False, None
        elif isinstance(fam, Prufer):
            gamma[fam.p] = gamma.get(fam.p, _ZERO) + mult
            bounded, exponent = False, None
        elif isinstance(fam, Rationals):
            bounded, exponent = False, None
    return SzmielewInvariants(
        alpha=alpha,
        alpha_prime_families=tuple(alpha_pf),
        alpha_exponent_families=tuple(alpha_ef),
        beta=beta,
        beta_families=tuple(beta_f),
        gamma=gamma,
        bounded=bounded,
        exponent=exponent if bounded else None,
        nontrivial=not spec.is_trivial,
    )


def elementarily_equivalent(a: GroupSpec, b: GroupSpec) -> bool:
    """Do the two specs denote elementarily equivalent groups?

    Decided by capped comparison of the invariant tables.  On finite specs
    this coincides with isomorphism (all invariants are finite and determine
    the cyclic decomposition).
    """
    return szmielew_invariants(a).equivalent(szmielew_invariants(b))


def isomorphic_standard(a: GroupSpec, b: GroupSpec) -> bool:
    """Isomorphism of standard forms: equality of normal forms.

    Sound because the multiplicity of every summand family in a standard
    form is an isomorphism invariant (the divisible part by its ranks, the
    reduced part by Ulm values and completion ranks).
    """
    return a == b
