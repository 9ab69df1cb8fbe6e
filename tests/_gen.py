"""Spec generators shared by property and acceptance tests: seeded random
specs, every finite abelian group up to an order, and every normal form of a
few summands built from small atoms (by default, two over the primes 2 and 3).
Also the readers that only tests need: subgroups of a finite group, a spec's
multiplicity of one summand, and the coefficients of witness elements."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
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
    Summand,
    direct_sum,
    normalize,
    parse_spec,
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


def random_prime_set(rng: random.Random,
                     primes: Sequence[int] = _PRIMES) -> PrimeSet | list[int]:
    """A cofinite set, or the distinct members of a finite one."""
    if rng.random() < 0.5:
        return PrimeSet.cofinite(rng.sample(primes, rng.randint(0, 2)))
    return rng.sample(primes, rng.randint(1, min(3, len(primes))))


def prime_family(ps: PrimeSet | list[int], family, single) -> list[Summand]:
    """``family(ps)`` over a cofinite set; one ``single(p)`` per member of a
    finite one, as the parser writes a finite family out."""
    return [family(ps)] if isinstance(ps, PrimeSet) else [single(p) for p in ps]


def random_entries(rng: random.Random, max_entries: int = 5,
                   primes: Sequence[int] = _PRIMES) -> list[Entry]:
    """Up to ``max_entries`` summands; every prime they name is in ``primes``."""
    entries: list[Entry] = []
    for _ in range(rng.randint(0, max_entries)):
        kind = rng.randrange(7)
        p = rng.choice(primes)
        if kind == 0:
            fams = [Cyclic(p, rng.randint(1, 4))]
        elif kind == 1:
            fams = [Prufer(p)]
        elif kind == 2:
            fams = [Rationals()]
        elif kind == 3:
            fams = [PAdicComplete(p)]
        elif kind == 4:
            ps, k = random_prime_set(rng, primes), rng.randint(1, 3)
            fams = prime_family(ps, lambda s: CyclicPrimeFamily(s, k), lambda q: Cyclic(q, k))
        elif kind == 5:
            fams = prime_family(random_prime_set(rng, primes), PAdicPrimeFamily, PAdicComplete)
        elif rng.random() < 0.5:
            fams = [CyclicExponentFamily(p)]
        else:  # a finite exponent set, written out
            fams = [Cyclic(p, k) for k in rng.sample(range(1, 6), rng.randint(1, 3))]
        mult = random_cardinal(rng)
        entries += [(fam, mult) for fam in fams]
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


def _listed_subsets(items: Sequence[int]) -> list[str]:
    """Each nonempty subset of ``items`` written as a listed set, ``{a,b}``:
    by size, then in order."""
    return ["{" + ",".join(map(str, subset)) + "}"
            for r in range(1, len(items) + 1) for subset in itertools.combinations(items, r)]


def small_atoms(primes: Sequence[int] = (2, 3), max_k: int = 2) -> list[str]:
    """The atoms over ``primes`` with exponents up to ``max_k``: cyclic, Prufer,
    Q and completion summands, and prime and exponent families over every
    finite, full and cofinite set drawn from them."""
    listed = _listed_subsets(primes)
    sets = [*listed, "all", *(f"all\\{s}" for s in listed)]
    exps = _listed_subsets(range(1, max_k + 1))
    return [
        *(f"Z/{p ** k}" for p in primes for k in range(1, max_k + 1)),
        *(f"Prufer({p})" for p in primes), "Q", *(f"Zhat({p})" for p in primes),
        *(f"sumP({s}; Z/p^{k})" for s in sets for k in range(1, max_k + 1)),
        *(f"sumP({s}; Zhat)" for s in sets),
        *(f"sumK({p}; {e})" for p in primes for e in ("all", *exps)),
    ]


def small_spec_texts(primes: Sequence[int] = (2, 3), max_k: int = 2, terms: int = 2) -> list[str]:
    """One spec text per normal form of one to ``terms`` distinct terms, each
    term an atom of ``small_atoms(primes, max_k)`` at multiplicity 1, 2 or w;
    the first text met for each normal form is kept, in a fixed order.  The
    defaults give 3,410 texts."""
    atoms = [atom + mult for atom in small_atoms(primes, max_k) for mult in ("", "^2", "^w")]
    kept: dict[GroupSpec, str] = {}
    for n in range(1, terms + 1):
        for combo in itertools.combinations(atoms, n):
            text = " + ".join(combo)
            kept.setdefault(parse_spec(text), text)
    return list(kept.values())


def scaled_set(group, c: int) -> frozenset:
    """The image c*G of a ``FiniteAbelianGroup``."""
    return frozenset(group.smul(c, g) for g in group.elements())


def torsion_set(group, c: int) -> frozenset:
    """The kernel of multiplication by c on a ``FiniteAbelianGroup``."""
    return frozenset(g for g in group.elements() if group.smul(c, g) == group.zero)


def multiplicity(spec: GroupSpec, family: Summand) -> Cardinal:
    """How often ``family`` occurs in the normal form ``spec``; 0 if it does not."""
    return next((mult for fam, mult in spec.entries if fam == family), Cardinal.of(0))


def grid_coefficient(x, m) -> Fraction:
    """The coefficient of the monomial m in p**t * x, for a ``GridElement`` x."""
    return dict(x.terms).get(m, Fraction(0)) * x.p**x.t


def product_coefficient(x, i: int, j: int) -> Fraction:
    """The tail coefficient of the monomial (i, j) in a ``ProductElement`` x."""
    return dict(x.tail).get((i, j), Fraction(0))


def product_support(x) -> tuple[tuple[int, int], ...]:
    """The monomials (i, j) of a ``ProductElement``'s tail, in order."""
    return tuple(m for m, _ in x.tail)
