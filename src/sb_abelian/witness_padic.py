"""Bi-embeddable, non-isomorphic subgroup pairs inside (completion)^k.

The construction lives in G = (p-adic integers)^k.  Two certified
multiplicatively independent units u1, u2 span a monomial grid
{u1^i u2^j e_s}; two subgroups are cut out by different grid shapes:

* H1 — the pure closure of the span of the full grid {i >= 0, j >= 0};
* H2 — the pure closure of the span of {i >= 1} plus the standard basis
  vectors (the column j-axis above i = 0 is removed, except the origin).

H2 is contained in H1 on the nose, and multiplication by u1 carries H1 into
H2 (its grid shifts one column to the right), so the pair is bi-embeddable.
Elements are kept in exact form — rational coefficients in lowest terms,
whose denominators may carry powers of p — because truncated residues cannot
express "lies in the pure closure" at all.

Membership answers are certificate-relative: a support check plus an exact
valuation check decide membership *given* that no small polynomial relation
rewrites one monomial in terms of others, which is what the independence
certificate rules out up to its degree/height/precision bounds.

The direct-sum assemblers combine per-prime pairs into witnesses for groups
with several completion summands, optionally carrying fixed torsion and
divisible parts along.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .groupspec import (
    Cardinal, GroupSpec, NotApplicableError, PAdicPrimeFamily, PrimeSet, Record, normalize,
    split_reduced_divisible,
)
from .invariants import szmielew_invariants
from .padic import (
    IndependenceCertificate,
    PAdicApprox,
    SingularModP,
    independence_certificate,
    matrix_inverse_mod,
    matrix_product_mod,
    seeded_unit,
)
from .primes import ensure_at_least, ensure_prime, p_valuation
from .relations import GRIDS, check_grid, face_value, first_passing, grid_allows, relation_str

if TYPE_CHECKING:  # a witness pair needs no fractions; its elements import them
    from fractions import Fraction

__all__ = [
    "GridElement",
    "GridMonomial",
    "MixedGroupWitness",
    "MultiPrimeWitness",
    "PAdicWitnessPair",
    "apply_scalar",
    "build_padic_witness",
    "elementary_matrix_probe",
    "grid_membership",
    "mixed_group_witness",
    "multi_prime_witness",
    "random_member",
]


# ---------------------------------------------------------------------------
# exact grid elements
# ---------------------------------------------------------------------------


class GridMonomial(NamedTuple):
    """u1^i * u2^j * e_s; :meth:`GridElement.of` checks i, j >= 0 and s >= 1."""

    i: int
    j: int
    s: int

    def shift(self, di: int, dj: int) -> "GridMonomial":
        return GridMonomial(self.i + di, self.j + dj, self.s)

    def __str__(self) -> str:
        parts = []
        if self.i:
            parts.append("u1" if self.i == 1 else f"u1^{self.i}")
        if self.j:
            parts.append("u2" if self.j == 1 else f"u2^{self.j}")
        parts.append(f"e{self.s}")
        return "*".join(parts)


class GridElement(Record):
    """An exact rational combination of grid monomials.

    Coefficients are fractions in lowest terms, so their denominators may
    carry powers of p; ``t`` reads the least power of p that clears them.
    """

    p: int
    terms: tuple[tuple[GridMonomial, Fraction], ...]

    @classmethod
    def of(cls, p: int, coeffs: Mapping[GridMonomial, "Fraction | int"]) -> "GridElement":
        """The combination ``coeffs``; ``.scale(Fraction(1, p**t))`` divides it by p**t."""
        from fractions import Fraction

        ensure_prime(p, "grid element base")
        for i, j, s in coeffs:
            if i < 0 or j < 0:
                raise ValueError("exponents must be nonnegative")
            if s < 1:
                raise ValueError("coordinate index starts at 1")
        return cls(p, tuple(sorted((GridMonomial(*m), Fraction(c)) for m, c in coeffs.items() if c)))

    @property
    def t(self) -> int:
        """The least t >= 0 such that p**t * x has p-free denominators."""
        return max((p_valuation(c.denominator, self.p) for _, c in self.terms), default=0)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def support(self) -> tuple[GridMonomial, ...]:
        return tuple(m for m, _ in self.terms)

    def __add__(self, other: "GridElement") -> "GridElement":
        if self.p != other.p:
            raise ValueError("cannot add elements at different primes")
        total = dict(self.terms)
        for m, c in other.terms:
            total[m] = total.get(m, 0) + c
        return GridElement.of(self.p, total)

    def __neg__(self) -> "GridElement":
        return GridElement.of(self.p, {m: -c for m, c in self.terms})

    def __sub__(self, other: "GridElement") -> "GridElement":
        return self + (-other)

    def scale(self, q: "Fraction | int") -> "GridElement":
        """Multiply by an exact rational (p in the denominator is fine:
        it raises t)."""
        return GridElement.of(self.p, {m: c * q for m, c in self.terms})

    def shift(self, di: int, dj: int) -> "GridElement":
        return GridElement.of(self.p, {m.shift(di, dj): c for m, c in self.terms})

    def coordinates(self) -> tuple[int, ...]:
        return tuple(sorted({m.s for m, _ in self.terms}))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        t = self.t
        body = " + ".join(
            (f"{c}*{m}" if c != 1 else str(m))
            for m, c in ((m, c * self.p**t) for m, c in self.terms)
        ).replace("+ -", "- ")
        if t:
            return f"{self.p}^-{t} * ({body})"
        return body


# ---------------------------------------------------------------------------
# the witness pair
# ---------------------------------------------------------------------------

class PAdicWitnessPair(Record):
    """Everything needed to probe the pair (H1, H2) at finite precision."""

    p: int
    k: int
    unit1: PAdicApprox
    unit2: PAdicApprox
    precision: int
    certificate: IndependenceCertificate
    attempts: int

    def coordinate_sum(self, x: GridElement, s: int) -> int:
        """Residue of coordinate s of p**t * x at the working precision."""
        lift = self.p**x.t  # the lifted denominators are prime to p: face_value skips no term
        return face_value((((m.i, m.j), c * lift) for m, c in x.terms if m.s == s),
                          self.unit1.residue, self.unit2.residue, self.unit1.modulus)

    def to_json(self) -> dict:
        unit1, unit2 = self.certificate.sources
        return super().to_json() | {"unit1": unit1, "unit2": unit2, "grids": dict(GRIDS)}


def build_padic_witness(
    p: int,
    k: int,
    seed: int = 0,
    max_exponent: int = 2,
    height_bound: int = 2,
    precision: int = 40,
) -> PAdicWitnessPair:
    """Draw and certify a unit pair, with up to :data:`~.relations.RETRIES`
    fresh seeds (:func:`~.relations.first_passing`).

    The returned descriptor fixes (p, k, units, precision, certificate);
    all membership probes are made against it.
    """
    ensure_at_least(k, 1, "coordinate count k")

    def draw(attempt: int) -> tuple[int, PAdicApprox, PAdicApprox, IndependenceCertificate]:
        base = seed + 1_000_003 * attempt
        unit1 = seeded_unit(p, 2 * base, precision)
        unit2 = seeded_unit(p, 2 * base + 1, precision)
        sources = (f"seeded({2 * base})", f"seeded({2 * base + 1})")
        return attempt, unit1, unit2, independence_certificate(
            unit1, unit2, max_exponent, height_bound, sources)

    attempt, unit1, unit2, cert = first_passing(draw, lambda certs: (
        f"no independence certificate after {len(certs)} seed attempts; "
        f"last violation: {relation_str(certs[-1].violation)}"))
    return PAdicWitnessPair(p=p, k=k, unit1=unit1, unit2=unit2, precision=precision,
                            certificate=cert, attempts=attempt + 1)


def grid_membership(x: GridElement, which: str, w: PAdicWitnessPair) -> bool:
    """Does x lie in the designated pure closure, at the pair's precision?

    True iff (a) the support uses only designated grid monomials with
    coordinate index <= k, and (b) every coordinate sum is divisible by
    p**t.  (b) is decided exactly because t < precision; (a) is where the
    independence certificate carries the weight.
    """
    check_grid(which)
    if x.p != w.p:
        raise ValueError("element and witness pair use different primes")
    if x.t >= w.precision:
        raise ValueError(f"denominator exponent {x.t} at precision {w.precision}")
    for m in x.support:
        if m.s > w.k:
            raise ValueError(f"coordinate {m.s} exceeds k={w.k}")
        if not grid_allows(which, m.i, m.j):
            return False
    return all(w.coordinate_sum(x, s) % w.p**x.t == 0 for s in x.coordinates())


def apply_scalar(
    w: PAdicWitnessPair, alpha: "str | int | Fraction", x: GridElement
) -> GridElement:
    """Multiply x by a unit scalar, in exact representation.

    alpha is one of the grid units ("unit1" shifts i by one, "unit2" shifts
    j by one) or an int or Fraction that is a p-adic unit.  Arbitrary p-adic
    scalars, floats among them, have no exact image in the grid and are rejected.
    """
    from fractions import Fraction

    if alpha in ("unit1", "unit2"):
        return x.shift(1, 0) if alpha == "unit1" else x.shift(0, 1)
    if isinstance(alpha, str):
        raise ValueError(f"unknown symbolic scalar {alpha!r}")
    if isinstance(alpha, bool) or not isinstance(alpha, (int, Fraction)):
        raise ValueError(f"{alpha!r} is not 'unit1', 'unit2', an int or a Fraction")
    q = Fraction(alpha)
    if q == 0 or q.numerator % w.p == 0 or q.denominator % w.p == 0:
        raise ValueError(f"{alpha} is not a unit at p={w.p}")
    return x.scale(q)


def random_member(
    w: PAdicWitnessPair, rng: random.Random, which: str = "H1"
) -> GridElement:
    """A seeded random element of H1 or H2 (used by probe transcripts).

    Draws a small integer combination of designated grid monomials, then
    with positive probability upgrades it to a genuine denominator-bearing
    member: (u1 - r) * y is divisible by p**t when r matches u1's
    truncation, so dividing by p**t stays inside the pure closure.
    """
    from fractions import Fraction

    check_grid(which)
    coeffs: dict[GridMonomial, Fraction] = {}
    for _ in range(rng.randint(1, 4)):
        while True:
            m = GridMonomial(rng.randint(0, 3), rng.randint(0, 3), rng.randint(1, w.k))
            if grid_allows(which, m.i, m.j):
                break
        coeffs[m] = coeffs.get(m, Fraction(0)) + rng.randint(-3, 3)
    y = GridElement.of(w.p, coeffs)
    t = rng.randint(0, 3)
    if t == 0 or y.is_zero:
        return y
    r = w.unit1.truncate(t).residue
    lifted = y.shift(1, 0) - y.scale(r)  # (u1 - r) * y, divisible by p**t
    return lifted.scale(Fraction(1, w.p**t))


def elementary_matrix_probe(w: PAdicWitnessPair, seed: int = 0) -> dict:
    """Sample an invertible k x k matrix A mod p^N and verify its inverse B.

    Any finite-precision record of an embedding between the pair is such a
    matrix; this probe checks the machinery on a seeded sample: A B and B A
    must be the identity mod p^n for every n up to the working precision N.
    """
    rng = random.Random(f"matrix-probe:{w.p}:{w.k}:{seed}")
    n, p, k = w.precision, w.p, w.k
    while True:
        a = [[rng.randrange(p**n) for _ in range(k)] for _ in range(k)]
        try:
            b = matrix_inverse_mod(a, p, n)
            break
        except SingularModP:
            continue
    identity = [[int(i == j) for j in range(k)] for i in range(k)]
    checked = all(
        matrix_product_mod(a, b, p**level) == identity == matrix_product_mod(b, a, p**level)
        for level in range(1, n + 1)
    )
    return {
        "p": p,
        "k": k,
        "levels": n,
        "matrix": a,
        "inverse": b,
        "identity_at_all_levels": checked,
    }


# ---------------------------------------------------------------------------
# direct-sum assembly
# ---------------------------------------------------------------------------


class MultiPrimeWitness(Record):
    """Componentwise witness pairs for a direct sum over distinct primes.

    Any group map between such sums is componentwise: a cross-prime image
    would be an element of a reduced group with infinite height at its own
    prime, which only 0 has.
    """

    components: tuple[PAdicWitnessPair, ...]

    def to_json(self) -> dict:
        return super().to_json() | {
            "rationale": (
                "maps between the sums act componentwise: nonzero elements "
                "of a reduced group have finite height at its prime"
            ),
        }


def multi_prime_witness(
    pairs: Sequence[tuple[int, int]], seed: int = 0, **bounds: int
) -> MultiPrimeWitness:
    """Witness pairs for a direct sum of completion powers, one per prime.

    The pair at ``pairs[idx]`` is drawn with ``seed + idx``.  The keywords
    ``max_exponent``, ``height_bound`` and ``precision`` pass unchanged to
    :func:`build_padic_witness`, which defines them and their defaults.
    """
    if not pairs:
        raise ValueError("at least one (prime, power) component is required")
    primes = [p for p, _ in pairs]
    if len(set(primes)) != len(primes):
        raise NotApplicableError(f"repeated primes in {primes}")
    return MultiPrimeWitness(tuple(
        build_padic_witness(p, k, seed=seed + idx, **bounds) for idx, (p, k) in enumerate(pairs)
    ))


class MixedGroupWitness(Record):
    """A completion-part witness carried through fixed torsion/divisible parts.

    For a spec K + C + D (completions, reduced torsion, divisible), the two
    non-isomorphic sides are H1 + R + C + D and H2 + R + C + D, where R is
    the ``completion`` remainder that no component pair covers: an
    isomorphism would restrict to the torsion-free reduced cores and
    identify H1 with H2.
    """

    base: GroupSpec
    torsion: GroupSpec
    divisible: GroupSpec
    completion: GroupSpec
    core: MultiPrimeWitness

    def to_json(self) -> dict:
        shared = {} if self.completion.is_trivial else {"shared_completion": str(self.completion)}
        return shared | {
            "base": str(self.base),
            "shared_torsion": str(self.torsion),
            "shared_divisible": str(self.divisible),
            "core": self.core.to_json(),
            "rationale": (
                "an isomorphism of the sums restricts to the torsion-free "
                "reduced cores, where the componentwise pairs differ"
            ),
        }


def mixed_group_witness(spec: GroupSpec, **bounds: int) -> MixedGroupWitness:
    """Split a spec into completion + torsion + divisible parts and build
    the witness on the completion part.

    The completion powers are the values Exp(p) of the completion part's
    Szmielew key: a component pair is built at each listed prime whose power
    is nonzero.  Where the generic power m is nonzero, the completions range
    over a prime family, and one more pair is built at q, the least prime the
    key does not list, with power m; the rest, R = sumP(all minus the listed
    primes and q; Zhat)^m, is carried unchanged on both sides.  Maps between
    the pair at q and R vanish both ways, so an isomorphism of the sides
    still restricts to the pair at q:

    * the pair at q is reduced at q and divisible by every other prime, and
      R is divisible by q and reduced at each of its own primes;
    * so an image of the pair in R is divisible by every power of each of
      R's primes, and each of its components is 0; an image of R in the pair
      is divisible by every power of q, so it is 0.

    The listed primes are apart from each other and from q and R in the same
    way (:class:`MultiPrimeWitness`).  Requires at least one completion
    summand; an infinite power has no finite descriptor and is rejected.

    The keywords ``seed``, ``max_exponent``, ``height_bound`` and
    ``precision`` pass unchanged to :func:`multi_prime_witness` (which
    defines ``seed``) and on to :func:`build_padic_witness` (the rest).
    """
    k_part, c_part, d_part = split_reduced_divisible(spec)
    if k_part.is_trivial:
        raise NotApplicableError(f"{spec} has no completion summand")
    key = szmielew_invariants(k_part)
    exps = [(p, rec.exp) for p, rec in key.primes]
    remainder = normalize([])
    if key.generic.exp != Cardinal.of(0):
        unlisted = PrimeSet.cofinite(p for p, _ in exps)
        q = unlisted.first_n(1)[0]
        exps.append((q, key.generic.exp))
        remainder = normalize([(PAdicPrimeFamily(unlisted.remove([q])), key.generic.exp)])
    pairs = []
    for p, exp in sorted(exps):
        if not exp.is_finite:
            raise NotApplicableError(
                f"completion power at p={p} has infinite multiplicity; "
                "a concrete witness needs a finite power"
            )
        if exp.value:
            pairs.append((p, exp.value))
    return MixedGroupWitness(base=spec, torsion=c_part, divisible=d_part,
                             completion=remainder, core=multi_prime_witness(pairs, **bounds))
