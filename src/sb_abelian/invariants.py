"""The Szmielew invariants of symbolic group specs, as one canonical key.

Two abelian groups are elementarily equivalent exactly when they agree on
whether their exponent is bounded and, for every prime p, on

* ``U(p, k)`` = dim (p^(k-1) G)[p] / (p^k G)[p], the Ulm invariants,
* ``Tor(p)``  = the eventual dimension of (p^k G)[p] as k grows,
* ``Exp(p)``  = the eventual dimension of p^k G / p^(k+1) G,

with every value capped at aleph_0: first-order logic sees finite values
exactly and "infinite" beyond that (W. Szmielew, Fund. Math. 41, 1955;
Eklof-Fisher 1972).

:func:`szmielew_invariants` adds these up from per-summand contributions:
Z/p**k adds to U(p, k), a quasicyclic group to Tor(p), a p-adic completion to
Exp(p), and ``sumK(p; all)`` adds to U(p, k) at every k and makes Tor(p) and
Exp(p) infinite.  The rationals only make the group unbounded.  A family over
a cofinite prime set adds to a generic record that stands for every prime no
entry mentions, and to the record of each mentioned prime it contains.

The result, :class:`SzmielewInvariants`, is canonical: a per-prime record is
kept only where it differs from the generic one, and an Ulm value only where
it differs from the record's tail.  Two specs therefore have equal keys
exactly when their theories are equal, and elementary equivalence is ``==``.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, NamedTuple

from .groupspec import (
    ALEPH0,
    Cardinal,
    Cyclic,
    CyclicExponentFamily,
    CyclicPrimeFamily,
    Entry,
    GroupSpec,
    PAdicComplete,
    PAdicPrimeFamily,
    Prufer,
    Summand,
)
from .primes import ensure_at_least, ensure_prime

__all__ = [
    "PrimeRecord",
    "SzmielewInvariants",
    "ulm_invariant",
    "szmielew_invariants",
    "elementarily_equivalent",
    "isomorphic_standard",
]

_ZERO = Cardinal.of(0)
_FAMILIES = (CyclicPrimeFamily, PAdicPrimeFamily)


class PrimeRecord(NamedTuple):
    """U, Tor and Exp at one prime, each capped at aleph_0.

    U(p, k) is ``u(k)``: ``ulm`` lists, by increasing k, the values that
    differ from ``tail``, which only ``sumK(p; all)`` makes nonzero.
    """

    ulm: tuple[tuple[int, Cardinal], ...]
    tail: Cardinal
    tor: Cardinal
    exp: Cardinal

    def u(self, k: int) -> Cardinal:
        return dict(self.ulm).get(k, self.tail)

    def to_json(self) -> dict:
        return {
            "ulm": [{"k": k, "value": u.to_json()} for k, u in self.ulm],
            "ulm_tail": self.tail.to_json(),
            "tor": self.tor.to_json(),
            "exp": self.exp.to_json(),
        }


class SzmielewInvariants(NamedTuple):
    """The canonical first-order key of a spec.

    ``primes`` holds, by increasing p, the records of the finitely many primes
    whose invariants differ from ``generic``, the record shared by all others.
    """

    primes: tuple[tuple[int, PrimeRecord], ...]
    generic: PrimeRecord
    bounded: bool

    def record(self, p: int) -> PrimeRecord:
        return dict(self.primes).get(ensure_prime(p, "invariant prime"), self.generic)

    def ulm(self, p: int, k: int) -> Cardinal:
        return self.record(p).u(ensure_at_least(k, 1, "Ulm exponent"))

    @property
    def exponent(self) -> int | None:
        """The exponent when bounded: the product of p**(largest k with U(p, k) > 0)."""
        if not self.bounded:
            return None
        return math.prod(p ** rec.ulm[-1][0] for p, rec in self.primes)

    def to_json(self) -> dict:
        return {
            "primes": [{"p": p, **rec.to_json()} for p, rec in self.primes],
            "generic": self.generic.to_json(),
            "bounded": self.bounded,
            "exponent": self.exponent,
        }


def _lives_at(fam: Summand, p: int | None) -> bool:
    """Does the summand contribute at p?  ``None`` stands for a generic prime."""
    if isinstance(fam, _FAMILIES):
        return p is None or fam.primes.contains(p)
    return p is not None and getattr(fam, "p", None) == p


def _mentioned(fam: Summand) -> Iterable[int]:
    if isinstance(fam, _FAMILIES):
        return fam.primes.excluded
    return (fam.p,) if hasattr(fam, "p") else ()


def _record(entries: Iterable[Entry], p: int | None) -> PrimeRecord:
    ulm: dict[int, Cardinal] = {}
    tail = tor = exp = _ZERO
    for fam, mult in entries:
        if not _lives_at(fam, p):
            continue
        if isinstance(fam, (Cyclic, CyclicPrimeFamily)):
            ulm[fam.k] = ulm.get(fam.k, _ZERO) + mult
        elif isinstance(fam, Prufer):
            tor = tor + mult
        elif isinstance(fam, (PAdicComplete, PAdicPrimeFamily)):
            exp = exp + mult
        elif isinstance(fam, CyclicExponentFamily):
            tail, tor, exp = tail + mult, ALEPH0, ALEPH0
    tail = tail.cap_countable()
    values = ((k, (u + tail).cap_countable()) for k, u in sorted(ulm.items()))
    return PrimeRecord(
        ulm=tuple((k, u) for k, u in values if u != tail),
        tail=tail,
        tor=tor.cap_countable(),
        exp=exp.cap_countable(),
    )


@functools.lru_cache(maxsize=4096)
def szmielew_invariants(spec: GroupSpec) -> SzmielewInvariants:
    """The canonical Szmielew key of a normalized spec.

    >>> from sb_abelian.groupspec import parse_spec
    >>> inv = szmielew_invariants(parse_spec("Z/4^aleph(1) + Zhat(3)"))
    >>> inv.ulm(2, 2), inv.record(3).exp, inv.bounded
    (Cardinal.aleph(0), Cardinal.of(1), False)
    """
    generic = _record(spec.entries, None)
    mentioned = sorted({p for fam, _ in spec.entries for p in _mentioned(fam)})
    records = ((p, _record(spec.entries, p)) for p in mentioned)
    return SzmielewInvariants(
        primes=tuple((p, rec) for p, rec in records if rec != generic),
        generic=generic,
        bounded=all(isinstance(fam, Cyclic) for fam, _ in spec.entries),
    )


def ulm_invariant(spec: GroupSpec, p: int, i: int) -> Cardinal:
    """U(p, i+1): the capped multiplicity of Z/p**(i+1), read off the key.

    On finite p-groups this is the brute-force Ulm value dim P_i/P_{i+1}.
    """
    return szmielew_invariants(spec).ulm(p, i + 1)


def elementarily_equivalent(a: GroupSpec, b: GroupSpec) -> bool:
    """Do the two specs denote elementarily equivalent groups?

    On finite specs this coincides with isomorphism (all invariants are
    finite and determine the cyclic decomposition).
    """
    return szmielew_invariants(a) == szmielew_invariants(b)


def isomorphic_standard(a: GroupSpec, b: GroupSpec) -> bool:
    """Isomorphism of standard forms: equality of normal forms.

    Sound because the multiplicity of every summand family in a standard
    form is an isomorphism invariant (the divisible part by its ranks, the
    reduced part by Ulm values and completion ranks).
    """
    return a == b
