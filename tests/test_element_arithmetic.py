"""Pinned element arithmetic of both witness routes.

Seeded operation sequences run on socle product elements and on p-adic grid
elements, and everything an element shows to its callers is hashed: its
tail, exceptions and values at primes (socle), its denominator exponent,
rendering, support, coefficients, memberships and coordinate sums (p-adic).
The digests were recorded before either element type was rewritten; a
rewrite of how elements store or evaluate themselves must reproduce them.  The
sequences are computed in ``_gen``, which ``tests/matrix.py`` also runs under
each interpreter.
"""

from _gen import padic_element_digest, socle_element_digest

# sha256 of the socle sequences, recorded before the element rewrite
SOCLE_DIGEST = "8c9a731885d57015e0361d1be15d3b49de1d2e0eac250a1339d73768eeb91b27"


def test_socle_element_arithmetic_is_pinned():
    digest = socle_element_digest()
    assert digest == SOCLE_DIGEST, digest


# sha256 of the p-adic sequences, recorded before the element rewrite
PADIC_DIGEST = "e74823781c7b4b25858ad33db7bbdb3ccb4fa48e24eb315109d4f904778d2d85"


def test_padic_element_arithmetic_is_pinned():
    digest = padic_element_digest()
    assert digest == PADIC_DIGEST, digest
