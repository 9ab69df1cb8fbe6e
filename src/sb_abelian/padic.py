"""Truncated p-adic integer arithmetic with explicit precision tracking.

Everything here works at a finite precision N: a p-adic integer is only ever
seen through its residue mod p**N.  The classes keep the bookkeeping honest —
valuations are reported as an exact number or as the symbol "at least N",
never guessed past the precision.

* :class:`PAdicApprox` — immutable residue mod p**N with its valuation;
  arithmetic on it is plain integer arithmetic on ``residue``.
* :func:`seeded_unit` — a deterministic pseudorandom unit mod p**N, drawn
  digit by digit from a seeded stream, so it reduces to the same seed's
  unit mod p**n at every n <= N.
* :func:`matrix_inverse_mod` / :func:`matrix_product_mod` — the inverse of
  a square integer matrix mod p**N, lifted from mod p by Newton steps; it
  reduces to the inverse mod p**n at every level n <= N.
* :func:`independence_certificate` — an exhaustive bounded search (run by
  :mod:`.relations`) certifying that two units satisfy no small polynomial
  relation to precision N.
"""

from __future__ import annotations

from typing import Sequence

from .groupspec import Record
from .primes import ensure_prime, p_valuation
from .relations import BudgetExceeded, first_relation, monomials, search_space, seeded_rng, terms

__all__ = [
    "AtLeast",
    "BudgetExceeded",
    "DEFAULT_INDEPENDENCE_BUDGET",
    "IndependenceCertificate",
    "NonUnitError",
    "PAdicApprox",
    "SingularModP",
    "independence_certificate",
    "matrix_inverse_mod",
    "matrix_product_mod",
    "seeded_unit",
    "valuation_at_least",
]


class NonUnitError(ArithmeticError):
    """A value that must be a p-adic unit is divisible by p."""


class SingularModP(ArithmeticError):
    """Matrix is not invertible modulo p."""


class AtLeast(Record):
    """A valuation known only to be >= ``bound`` (the element vanished
    to the full working precision)."""

    bound: int

    def __post_init__(self) -> None:
        if self.bound < 0:
            raise ValueError(f"valuation bound must be >= 0, got {self.bound}")

    def __str__(self) -> str:
        return f">={self.bound}"


def valuation_at_least(v: "int | AtLeast", k: int) -> bool:
    """Is the (possibly truncated) valuation ``v`` at least ``k``?

    For :class:`AtLeast` the answer is decided by the recorded bound, which
    is only sound for ``k`` up to the precision the value was computed at.
    """
    if isinstance(v, AtLeast):
        return v.bound >= k
    return v >= k


# ---------------------------------------------------------------------------
# fixed-precision residues
# ---------------------------------------------------------------------------


class PAdicApprox(Record):
    """A p-adic integer truncated to ``residue`` mod p**precision."""

    p: int
    precision: int
    residue: int

    def __post_init__(self) -> None:
        ensure_prime(self.p, "p-adic base")
        if self.precision < 1:
            raise ValueError("precision must be >= 1")
        if not 0 <= self.residue < self.modulus:
            raise ValueError("residue out of range; use PAdicApprox.of")

    @classmethod
    def of(cls, value: int, p: int, precision: int) -> "PAdicApprox":
        return cls(p, precision, value % p**precision)

    @classmethod
    def of_rational(
        cls, numerator: int, denominator: int, p: int, precision: int
    ) -> "PAdicApprox":
        """numerator/denominator mod p**precision; the denominator must be
        prime to p."""
        ensure_prime(p, "p-adic base")
        if denominator % p == 0:
            raise NonUnitError(f"denominator {denominator} is divisible by {p}")
        return cls.of(numerator * pow(denominator, -1, p**precision), p, precision)

    @property
    def modulus(self) -> int:
        return self.p**self.precision

    def truncate(self, n: int) -> "PAdicApprox":
        """The same value mod p**n, for 1 <= n <= precision."""
        if not 1 <= n <= self.precision:
            raise ValueError(f"cannot truncate to {n} outside 1..{self.precision}")
        return PAdicApprox(self.p, n, self.residue % self.p**n)

    def valuation(self) -> "int | AtLeast":
        """Exact p-valuation when visible, else ``AtLeast(precision)``."""
        if self.residue == 0:
            return AtLeast(self.precision)
        return p_valuation(self.residue, self.p)

    def __str__(self) -> str:
        return f"{self.residue} (mod {self.p}^{self.precision})"


def seeded_unit(p: int, seed: int, precision: int) -> PAdicApprox:
    """Deterministic pseudorandom unit mod p**precision for the given seed.

    The constant digit is drawn nonzero and every later digit uniformly, in
    order from one seeded stream, so the unit at precision n is this one
    reduced mod p**n.
    """
    ensure_prime(p, "p-adic base")
    rng, base = seeded_rng(f"padic-digits:{p}:{seed}"), p
    digits = [1 + rng.randrange(p - 1)] + [rng.randrange(p) for _ in range(precision - 1)]
    while len(digits) > 1:  # pairwise sums keep the operands balanced: Horner's rule is quadratic
        digits = [a + b * base for a, b in zip(digits[::2], digits[1::2] + [0])]
        base *= base
    return PAdicApprox(p, precision, digits[0])


# ---------------------------------------------------------------------------
# matrices mod p**N
# ---------------------------------------------------------------------------


def matrix_product_mod(
    a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], modulus: int
) -> list[list[int]]:
    """The product of two integer matrices, reduced mod ``modulus``."""
    inner, width = len(b), len(b[0]) if b else 0
    if any(len(row) != inner for row in a) or any(len(row) != width for row in b):
        raise ValueError("matrix shapes do not multiply")
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % modulus for col in cols] for row in a]


def matrix_inverse_mod(
    rows: Sequence[Sequence[int]], p: int, precision: int
) -> list[list[int]]:
    """Inverse of a square integer matrix mod p**precision, entries reduced.

    Gauss-Jordan over Z/p gives the inverse mod p (or raises
    :class:`SingularModP`); each Newton step b <- b (2I - ab) then doubles
    the precision.  Reduced mod p**n, the result is the inverse of ``rows``
    mod p**n at every level n <= precision.
    """
    ensure_prime(p, "matrix base")
    if precision < 1:
        raise ValueError("precision must be >= 1")
    k = len(rows)
    if k == 0 or any(len(row) != k for row in rows):
        raise ValueError("matrix must be square and nonempty")
    a = [[e % p for e in row] + [int(i == j) for j in range(k)] for i, row in enumerate(rows)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if a[r][col]), None)
        if pivot is None:
            raise SingularModP(f"matrix has no inverse modulo {p}")
        a[col], a[pivot] = a[pivot], a[col]
        inv = pow(a[col][col], -1, p)
        a[col] = [e * inv % p for e in a[col]]
        for r in range(k):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [(e - factor * c) % p for e, c in zip(a[r], a[col])]
    b = [row[k:] for row in a]
    reached = 1
    while reached < precision:
        reached = min(2 * reached, precision)
        m = p**reached
        ab = matrix_product_mod(rows, b, m)
        b = matrix_product_mod(
            b, [[(2 if i == j else 0) - e for j, e in enumerate(row)] for i, row in enumerate(ab)], m
        )
    return b


# ---------------------------------------------------------------------------
# independence certificates
# ---------------------------------------------------------------------------

DEFAULT_INDEPENDENCE_BUDGET = 10_000_000


class IndependenceCertificate(Record):
    """Outcome of the exhaustive search for a small vanishing relation.

    ``passed`` means: no nonzero integer polynomial with exponents at most
    ``max_exponent`` and coefficients bounded by ``height_bound`` evaluates
    to 0 mod p**precision at the pair.  All downstream claims that rely on
    the pair being unrelated are relative to these three parameters.
    ``violation``, the first relation found, is :func:`~.relations.terms` led by a positive c.
    """

    p: int
    max_exponent: int
    height_bound: int
    precision: int
    sources: tuple[str, str]
    passed: bool
    violation: tuple[tuple[int, int, int], ...] | None
    candidates: int


def independence_certificate(
    g1: PAdicApprox,
    g2: PAdicApprox,
    max_exponent: int,
    height_bound: int,
    sources: tuple[str, str],
    budget: int | None = DEFAULT_INDEPENDENCE_BUDGET,
) -> IndependenceCertificate:
    """Exhaustively search for a small polynomial relation between two units.

    Checks every nonzero q in Z[x, y] with exponents <= max_exponent in each
    variable and coefficients in [-height_bound, height_bound] for
    q(g1, g2) = 0 mod p**N, where p and N are the two residues' own.  The
    monomial count is (d+1)^2 and the candidate count (2B+1)^((d+1)^2); a
    budget smaller than that raises :class:`BudgetExceeded` up front rather
    than certifying a partial search.  ``sources`` names the two units in
    the certificate.
    """
    if (g1.p, g1.precision) != (g2.p, g2.precision):
        raise ValueError("the two values disagree on p or precision")
    if g1.residue % g1.p == 0 or g2.residue % g2.p == 0:
        raise NonUnitError("independence search requires unit inputs")

    pairs = monomials(max_exponent)
    candidates = search_space(len(pairs), height_bound, budget)
    modulus, x, y = g1.modulus, g1.residue, g2.residue
    xs, ys = ([pow(v, i, modulus) for i in range(max_exponent + 1)] for v in (x, y))
    values = [a * b % modulus for a in xs for b in ys]  # ``pairs`` runs i slowest, then j
    found = first_relation(values, height_bound, modulus)
    violation = None if found is None else terms(pairs, found)
    if violation and violation[0][2] < 0:
        violation = tuple((i, j, -c) for i, j, c in violation)
    return IndependenceCertificate(
        p=g1.p,
        max_exponent=max_exponent,
        height_bound=height_bound,
        precision=g1.precision,
        sources=sources,
        passed=violation is None,
        violation=violation,
        candidates=candidates,
    )
