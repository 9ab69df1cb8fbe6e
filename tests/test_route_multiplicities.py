"""Pinned per-prime multiplicities that the two witness routes read off a spec.

The socle window, the bounded-split modulus and the completion (p, k) pairs
are hashed over seeded specs and their socles.  The digest was recorded from
the summand-walking implementation, with each refusal read at its exit class
(``NotApplicableError`` where that implementation raised a subclass of it);
any rewrite of how the routes count multiplicities must reproduce every
window, modulus, pair list and error class.  A completion power over a prime
family, once refused, now gives the listed primes' pairs plus one at the least
unlisted prime; the digest moved by exactly those pair lists.  The rows are
computed in ``_gen``, which ``tests/matrix.py`` also runs under each
interpreter.
"""

from _gen import route_digest

# sha256 of the outcomes, recorded before the routes read the Szmielew key
ROUTE_DIGEST = "4b51bd6497cb6e58315f48f227e45555500c1a250aaf27b94f5214a909ec91b5"


def test_route_multiplicities_are_pinned():
    digest = route_digest()
    assert digest == ROUTE_DIGEST, digest
