"""Seeded random generators for specs, shared by property and acceptance tests."""

from __future__ import annotations

import random
from typing import Sequence

from sb_abelian.groupspec import (
    Cardinal,
    Cyclic,
    CyclicExponentFamily,
    CyclicPrimeFamily,
    Entry,
    GroupSpec,
    PAdicComplete,
    PAdicPrimeFamily,
    PrimeSet,
    Prufer,
    Rationals,
    normalize,
)

_PRIMES = (2, 3, 5, 7, 11, 13)


def random_cardinal(rng: random.Random, allow_zero: bool = True) -> Cardinal:
    roll = rng.random()
    if roll < 0.55:
        return Cardinal.of(rng.randint(0 if allow_zero else 1, 4))
    if roll < 0.9:
        return Cardinal.aleph(0)
    return Cardinal.aleph(rng.randint(1, 2))


def random_prime_set(rng: random.Random, primes: Sequence[int] = _PRIMES) -> PrimeSet:
    if rng.random() < 0.5:
        return PrimeSet.cofinite(rng.sample(primes, rng.randint(0, 2)))
    return PrimeSet.explicit(rng.sample(primes, rng.randint(1, min(3, len(primes)))))


def random_entries(rng: random.Random, max_entries: int = 5,
                   primes: Sequence[int] = _PRIMES) -> list[Entry]:
    """Up to ``max_entries`` summands; every prime they name is in ``primes``."""
    entries: list[Entry] = []
    for _ in range(rng.randint(0, max_entries)):
        kind = rng.randrange(7)
        p = rng.choice(primes)
        if kind == 0:
            fam = Cyclic(p, rng.randint(1, 4))
        elif kind == 1:
            fam = Prufer(p)
        elif kind == 2:
            fam = Rationals()
        elif kind == 3:
            fam = PAdicComplete(p)
        elif kind == 4:
            fam = CyclicPrimeFamily(random_prime_set(rng, primes), rng.randint(1, 3))
        elif kind == 5:
            fam = PAdicPrimeFamily(random_prime_set(rng, primes))
        else:
            exps = None if rng.random() < 0.5 else frozenset(
                rng.sample(range(1, 6), rng.randint(1, 3))
            )
            fam = CyclicExponentFamily(p, exps)
        entries.append((fam, random_cardinal(rng)))
    return entries


def random_spec(rng: random.Random, max_entries: int = 5,
                primes: Sequence[int] = _PRIMES) -> GroupSpec:
    return normalize(random_entries(rng, max_entries, primes))


def random_finite_spec(rng: random.Random, max_order: int = 512) -> GroupSpec:
    entries: list[Entry] = []
    order = 1
    for _ in range(rng.randint(0, 4)):
        p = rng.choice((2, 3, 5, 7))
        k = rng.randint(1, 3)
        mult = rng.randint(1, 3)
        if order * p ** (k * mult) > max_order:
            continue
        order *= p ** (k * mult)
        entries.append((Cyclic(p, k), Cardinal.of(mult)))
    return normalize(entries)
