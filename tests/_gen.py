"""Spec generators shared by property and acceptance tests: seeded random
specs, and every finite abelian group up to an order."""

from __future__ import annotations

import random
from typing import Iterator, Sequence

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
    direct_sum,
    normalize,
)
from sb_abelian.primes import primes

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


def partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n as weakly decreasing tuples (empty for n=0)."""
    if n == 0:
        yield ()
        return

    def rec(remaining: int, maximum: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield prefix
            return
        for part in range(min(remaining, maximum), 0, -1):
            yield from rec(remaining - part, part, prefix + (part,))

    yield from rec(n, n, ())


def finite_abelian_specs(
    max_order: int, prime: int | None = None
) -> Iterator[GroupSpec]:
    """All finite abelian groups of order <= max_order, as normalized specs.

    With ``prime`` given, only p-groups for that prime (including the trivial
    group).  Specs are produced in a deterministic order.
    """

    def p_group_specs(p: int, max_exp: int) -> Iterator[tuple[GroupSpec, int]]:
        for e in range(max_exp + 1):
            for lam in partitions(e):
                entries = [(Cyclic(p, k), Cardinal.of(lam.count(k))) for k in set(lam)]
                yield normalize(entries), p**e

    def max_exp_for(p: int) -> int:
        e = 0
        while p ** (e + 1) <= max_order:
            e += 1
        return e

    if prime is not None:
        for spec, _ in p_group_specs(prime, max_exp_for(prime)):
            yield spec
        return

    per_prime = [list(p_group_specs(p, max_exp_for(p))) for p in iter_primes_upto(max_order)]

    def combine(idx: int, acc_spec: GroupSpec, acc_order: int) -> Iterator[GroupSpec]:
        if idx == len(per_prime):
            yield acc_spec
            return
        for spec, order in per_prime[idx]:
            if acc_order * order <= max_order:
                yield from combine(idx + 1, direct_sum(acc_spec, spec), acc_order * order)

    yield from combine(0, normalize([]), 1)


def iter_primes_upto(bound: int) -> Iterator[int]:
    for p in primes():
        if p > bound:
            return
        yield p
