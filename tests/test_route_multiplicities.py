"""Pinned per-prime multiplicities that the two witness routes read off a spec.

The socle window, the bounded-split modulus and the completion (p, k) pairs
are hashed over seeded specs and their socles.  The digest was recorded from
the summand-walking implementation, with each refusal read at its exit class
(``NotApplicableError`` where that implementation raised a subclass of it);
any rewrite of how the routes count multiplicities must reproduce every
window, modulus, pair list and error class.  A completion power over a prime
family, once refused, now gives the listed primes' pairs plus one at the least
unlisted prime; the digest moved by exactly those pair lists.
"""

import hashlib
import json
import random
from types import SimpleNamespace

from _gen import prime_family, random_prime_set, random_spec

from sb_abelian import witness_padic, witness_socle
from sb_abelian.groupspec import (
    Cardinal,
    Cyclic,
    CyclicPrimeFamily,
    PAdicComplete,
    PAdicPrimeFamily,
    Prufer,
    Rationals,
    normalize,
    socle,
)

_PRIMES = (2, 3, 5, 7, 11, 13)


def _route_spec(rng: random.Random, kinds: str):
    """Up to four summands drawn from ``kinds``: c(yclic), f(amily),
    s(ocle cyclic), S(ocle family), z (completion), Z (completion family)
    and d(ivisible)."""
    entries = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(kinds)
        p = rng.choice(_PRIMES)
        k = rng.randint(1, 3) if kind in "cf" else 1
        mult = Cardinal.of(rng.randint(1, 3)) if rng.random() < 0.8 else Cardinal.aleph(0)
        if kind in "cs":
            fams = [Cyclic(p, k)]
        elif kind in "fS":
            fams = prime_family(random_prime_set(rng, _PRIMES),
                                lambda s: CyclicPrimeFamily(s, k), lambda q: Cyclic(q, k))
        elif kind == "z":
            fams = [PAdicComplete(p)]
        elif kind == "Z":
            fams = prime_family(random_prime_set(rng, _PRIMES), PAdicPrimeFamily, PAdicComplete)
        else:
            fams, mult = [Rationals() if rng.random() < 0.5 else Prufer(p)], Cardinal.of(1)
        entries += [(fam, mult) for fam in fams]
    return normalize(entries)


def _outcome(call):
    try:
        return call()
    except Exception as err:  # the error class is part of the pinned outcome
        return type(err).__name__


def _modulus(spec, monkeypatch):
    seen = []
    real_split = witness_socle.m_split

    def split(part, m):
        seen.append(m)
        return real_split(part, m)

    stub = SimpleNamespace(certificate=SimpleNamespace(attempt=0, min_count=0, threshold=0))
    monkeypatch.setattr(witness_socle, "m_split", split)
    monkeypatch.setattr(witness_socle, "build_socle_witness", lambda *a, **kw: stub)
    ended = _outcome(lambda: witness_socle.reduce_unbounded_torsion(spec, width=6).modulus)
    return [seen, ended]


def _pairs(spec, monkeypatch):
    monkeypatch.setattr(witness_padic, "multi_prime_witness", lambda pairs, **kw: list(pairs))
    return _outcome(lambda: witness_padic.mixed_group_witness(spec).core)


# sha256 of the outcomes below, recorded before the routes read the Szmielew key
ROUTE_DIGEST = "4b51bd6497cb6e58315f48f227e45555500c1a250aaf27b94f5214a909ec91b5"


def test_route_multiplicities_are_pinned(monkeypatch):
    rows = []
    for seed in range(300):
        rng = random.Random(seed)
        specs = (random_spec(rng), _route_spec(rng, "cfd"), _route_spec(rng, "sSsS"),
                 _route_spec(rng, "zZzcd"))
        for spec in specs:
            with monkeypatch.context() as patch:
                rows.append({
                    "spec": str(spec),
                    "window": _outcome(lambda: witness_socle.window_from_socle(spec, 6).to_json()),
                    "socle_window": _outcome(
                        lambda: witness_socle.window_from_socle(socle(spec), 6).to_json()
                    ),
                    "modulus": _modulus(spec, patch),
                    "pairs": _pairs(spec, patch),
                })
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == ROUTE_DIGEST, digest
