"""Truncated p-adic integer arithmetic with explicit precision tracking.

Everything here works at a finite precision N: a p-adic integer is only ever
seen through its residue mod p**N.  The classes keep the bookkeeping honest —
valuations are reported as an exact number or as the symbol "at least N",
never guessed past the precision.

* :class:`PAdicApprox` — immutable residue mod p**N with its valuation;
  arithmetic on it is plain integer arithmetic on ``residue``.
* :class:`PAdicLazy` — a p-adic integer given by a deterministic digit
  stream (seeded unit, integer, rational, or derived), truncatable to any
  precision.  Digit prefixes are cached.
* :func:`matrix_inverse_mod` / :func:`matrix_product_mod` — the inverse of
  a square integer matrix mod p**N, lifted from mod p by Newton steps; it
  reduces to the inverse mod p**n at every level n <= N.
* :class:`IntPolynomial2` / :func:`independence_certificate` — two-variable
  integer polynomials and an exhaustive bounded search (run by
  :mod:`.relations`) certifying that two units satisfy no small polynomial
  relation to precision N.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .primes import ensure_prime, p_valuation
from .relations import BudgetExceeded, first_relation, monomials, search_space, seeded_rng

__all__ = [
    "AtLeast",
    "BudgetExceeded",
    "DEFAULT_INDEPENDENCE_BUDGET",
    "IndependenceCertificate",
    "IntPolynomial2",
    "NonUnitError",
    "PAdicApprox",
    "PAdicLazy",
    "PrecisionMismatch",
    "SingularModP",
    "independence_certificate",
    "matrix_inverse_mod",
    "matrix_product_mod",
    "valuation_at_least",
]


class PrecisionMismatch(ValueError):
    """Operands live at different primes or precisions."""


class NonUnitError(ArithmeticError):
    """A value that must be a p-adic unit is divisible by p."""


class SingularModP(ArithmeticError):
    """Matrix is not invertible modulo p."""


@dataclass(frozen=True, order=True)
class AtLeast:
    """A valuation known only to be >= ``bound`` (the element vanished
    to the full working precision)."""

    bound: int

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


@dataclass(frozen=True)
class PAdicApprox:
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

    @property
    def modulus(self) -> int:
        return self.p**self.precision

    def valuation(self) -> "int | AtLeast":
        """Exact p-valuation when visible, else ``AtLeast(precision)``."""
        if self.residue == 0:
            return AtLeast(self.precision)
        return p_valuation(self.residue, self.p)

    def __str__(self) -> str:
        return f"{self.residue} (mod {self.p}^{self.precision})"


# ---------------------------------------------------------------------------
# lazy digit streams
# ---------------------------------------------------------------------------


class PAdicLazy:
    """A p-adic integer producible to any precision.

    The digit source is consulted sequentially and the prefix is cached, so
    ``truncate(N)`` and ``truncate(M)`` always agree mod p**min(N, M).  The
    cache is unguarded: an instance must not be extended from two threads.
    """

    def __init__(
        self,
        p: int,
        digit_source: Callable[[int], int],
        description: str,
        seed: int | None = None,
    ):
        ensure_prime(p, "p-adic base")
        self.p = p
        self.description = description
        self.seed = seed
        self._digit_source = digit_source
        self._digits: list[int] = []
        self._prefix: list[int] = [0]  # _prefix[i] = residue mod p**i

    @classmethod
    def from_seed(cls, p: int, seed: int) -> "PAdicLazy":
        """Deterministic pseudorandom unit for the given seed: the constant
        digit is drawn nonzero, every later digit uniformly."""
        rng = seeded_rng(f"padic-digits:{p}:{seed}")

        def digit(i: int) -> int:
            return rng.randrange(p) if i else 1 + rng.randrange(p - 1)

        return cls(p, digit, f"seeded({seed})", seed=seed)

    @classmethod
    def from_int(cls, p: int, n: int) -> "PAdicLazy":
        return cls(p, lambda i: (n // p**i) % p, f"int({n})")

    @classmethod
    def from_rational(cls, p: int, numerator: int, denominator: int) -> "PAdicLazy":
        """Embed numerator/denominator; the denominator must be prime to p."""
        if denominator % p == 0:
            raise NonUnitError(f"denominator {denominator} is divisible by {p}")

        def digit(i: int) -> int:
            modulus = p ** (i + 1)
            residue = numerator * pow(denominator, -1, modulus) % modulus
            return residue // p**i

        return cls(p, digit, f"rational({numerator}/{denominator})")

    @classmethod
    def from_truncations(
        cls, p: int, residue_at: Callable[[int], int], description: str
    ) -> "PAdicLazy":
        """Wrap a coherent residue function N -> value mod p**N.

        Coherence (residue_at(M) = residue_at(N) mod p**N for M >= N) is the
        caller's responsibility; it holds automatically for anything computed
        by ring operations from coherent inputs.
        """
        return cls(
            p, lambda i: (residue_at(i + 1) // p**i) % p, description
        )

    def digit(self, i: int) -> int:
        self._extend(i + 1)
        return self._digits[i]

    def truncate(self, precision: int) -> PAdicApprox:
        if precision < 1:
            raise ValueError("precision must be >= 1")
        self._extend(precision)
        return PAdicApprox(self.p, precision, self._prefix[precision])

    def _extend(self, n: int) -> None:
        while len(self._digits) < n:
            i = len(self._digits)
            d = self._digit_source(i)
            if not 0 <= d < self.p:
                raise ValueError(f"digit source produced {d} at index {i}")
            self._digits.append(d)
            self._prefix.append(self._prefix[i] + d * self.p**i)

    def __repr__(self) -> str:
        return f"PAdicLazy(p={self.p}, {self.description})"


# ---------------------------------------------------------------------------
# matrices mod p**N
# ---------------------------------------------------------------------------


def matrix_product_mod(
    a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], modulus: int
) -> list[list[int]]:
    """The product of two integer matrices, reduced mod ``modulus``."""
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
# small integer polynomials in two variables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntPolynomial2:
    """An integer polynomial in x and y with finite support.

    Terms are kept sorted by (x-exponent, y-exponent) with zero coefficients
    dropped, so equal polynomials compare equal.
    """

    terms: tuple[tuple[tuple[int, int], int], ...]

    @classmethod
    def of(cls, coefficients: Mapping[tuple[int, int], int]) -> "IntPolynomial2":
        cleaned = []
        for (i, j), c in coefficients.items():
            if i < 0 or j < 0:
                raise ValueError("exponents must be nonnegative")
            if c != 0:
                cleaned.append(((i, j), c))
        return cls(tuple(sorted(cleaned)))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def max_exponent(self) -> int:
        """Largest exponent of either variable (0 for the zero polynomial)."""
        return max((max(i, j) for (i, j), _ in self.terms), default=0)

    @property
    def height(self) -> int:
        return max((abs(c) for _, c in self.terms), default=0)

    def canonical_sign(self) -> "IntPolynomial2":
        """Negate if needed so the first term's coefficient is positive."""
        if self.terms and self.terms[0][1] < 0:
            return IntPolynomial2(tuple((ij, -c) for ij, c in self.terms))
        return self

    def evaluate(self, x: PAdicApprox, y: PAdicApprox) -> PAdicApprox:
        if (x.p, x.precision) != (y.p, y.precision):
            raise PrecisionMismatch("evaluation points disagree on p or precision")
        m = x.modulus
        total = 0
        for (i, j), c in self.terms:
            total += c * pow(x.residue, i, m) * pow(y.residue, j, m)
        return PAdicApprox.of(total, x.p, x.precision)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for (i, j), c in self.terms:
            factors = []
            if abs(c) != 1 or (i, j) == (0, 0):
                factors.append(str(abs(c)))
            if i:
                factors.append("x" if i == 1 else f"x^{i}")
            if j:
                factors.append("y" if j == 1 else f"y^{j}")
            term = "*".join(factors)
            parts.append(("- " if c < 0 else "+ ") + term)
        rendered = " ".join(parts)
        return rendered[2:] if rendered.startswith("+ ") else "-" + rendered[2:]

    def to_json(self) -> list[list[int]]:
        return [[i, j, c] for (i, j), c in self.terms]


# ---------------------------------------------------------------------------
# independence certificates
# ---------------------------------------------------------------------------

DEFAULT_INDEPENDENCE_BUDGET = 10_000_000


@dataclass(frozen=True)
class IndependenceCertificate:
    """Outcome of the exhaustive search for a small vanishing relation.

    ``passed`` means: no nonzero integer polynomial with exponents at most
    ``max_exponent`` and coefficients bounded by ``height_bound`` evaluates
    to 0 mod p**precision at the pair.  All downstream claims that rely on
    the pair being unrelated are relative to these three parameters.
    """

    p: int
    max_exponent: int
    height_bound: int
    precision: int
    sources: tuple[str, str]
    passed: bool
    violation: IntPolynomial2 | None
    candidates: int

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "max_exponent": self.max_exponent,
            "height_bound": self.height_bound,
            "precision": self.precision,
            "sources": list(self.sources),
            "passed": self.passed,
            "violation": None if self.violation is None else self.violation.to_json(),
            "candidates": self.candidates,
        }


def independence_certificate(
    g1: PAdicLazy,
    g2: PAdicLazy,
    max_exponent: int,
    height_bound: int,
    precision: int,
    budget: int | None = DEFAULT_INDEPENDENCE_BUDGET,
) -> IndependenceCertificate:
    """Exhaustively search for a small polynomial relation between two units.

    Checks every nonzero q in Z[x, y] with exponents <= max_exponent in each
    variable and coefficients in [-height_bound, height_bound] for
    q(g1, g2) = 0 mod p**precision.  The monomial count is (d+1)^2 and the
    candidate count (2B+1)^((d+1)^2); a budget smaller than that raises
    :class:`BudgetExceeded` up front rather than certifying a partial search.
    """
    if g1.p != g2.p:
        raise PrecisionMismatch("the two values live at different primes")
    if max_exponent < 1 or height_bound < 1 or precision < 1:
        raise ValueError("max_exponent, height_bound, precision must be >= 1")
    if g1.digit(0) == 0 or g2.digit(0) == 0:
        raise NonUnitError("independence search requires unit inputs")

    pairs = monomials(max_exponent)
    candidates = search_space(len(pairs), height_bound, budget)
    modulus = g1.p**precision
    x, y = g1.truncate(precision).residue, g2.truncate(precision).residue
    values = [pow(x, i, modulus) * pow(y, j, modulus) % modulus for i, j in pairs]
    found = first_relation(values, height_bound, modulus)
    violation = None
    if found is not None:
        violation = IntPolynomial2.of(dict(zip(pairs, found))).canonical_sign()
    return IndependenceCertificate(
        p=g1.p,
        max_exponent=max_exponent,
        height_bound=height_bound,
        precision=precision,
        sources=(g1.description, g2.description),
        passed=violation is None,
        violation=violation,
        candidates=candidates,
    )
