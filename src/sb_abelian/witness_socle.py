"""Witness pairs inside a product of prime-order blocks over an infinite prime set.

Everything happens in the full product P = prod_{p in S} (Z/p)^{r_p} for an
infinite set of primes S.  Coordinatewise integer scalars act on P, and for
every n >= 1 there is a pseudo-division: divide by n at the primes where n
is invertible and zero out the finitely many components where it is not.
Pseudo-division is exact (composition multiplies the divisors) and fixes the
direct sum's purity structure, so iterating it from finite-support elements
carves out dense pure subgroups of P.

The pair itself is spanned by a two-parameter grid.  Pick per-prime unit
scalars for two commuting automorphisms and a base point with nonzero
projection everywhere; the grid consists of the images of the base point
under monomials in the two automorphisms.  H1 uses the whole grid, H2 drops
the column above the origin (keeping the base point itself), and applying
the first automorphism shifts the grid one column right, carrying H1 into
H2.  Both subgroups contain every finite-support element, so membership is
decided by the *tail* of an element — which grid monomials it needs — never
by its finitely many exceptional coordinates.

The choice of scalars matters: the construction degenerates if some small
integer polynomial relation q(s, t) = 0 holds at almost every prime.  An
infinite genericity assumption is replaced by a finite avoidance search:
over a window of the first W primes of S, every nonzero q with bounded
degree and height is checked to survive (evaluate to something nonzero) at
no fewer than `threshold` window primes.  The resulting certificate travels
with the witness, and every membership or separation verdict downstream is
relative to it.

`reduce_unbounded_torsion` runs the pipeline for group descriptions whose
reduced part has torsion of unbounded order: reject non-superstable input,
split off the finitely many bounded types of infinite multiplicity, take
the socle of what remains, and build the witness pair over that socle.  The
lift back to the original group (the unique pure subgroup with the
constructed socle) is recorded symbolically in the transcript.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .classify import NotApplicableError, StabilityClass, stability_class
from .groupspec import (
    Cyclic,
    CyclicPrimeFamily,
    GroupSpec,
    PrimeSet,
    m_split,
    normalize,
    socle,
    split_reduced_divisible,
)
from .primes import ensure_prime, factorize
from .relations import (
    RETRIES, BudgetExceeded, check_grid, grid_allows, monomials, seeded_rng, survival_scan,
)

__all__ = [
    "AutomorphismPair",
    "AvoidanceCertificate",
    "BasePointError",
    "NonCanonicalError",
    "NotSuperstableError",
    "PrimeWindow",
    "ProductElement",
    "ProperInclusionCheck",
    "ReductionOutcome",
    "ScalarSearchFailed",
    "SocleWitnessPair",
    "build_socle_witness",
    "choose_scalars",
    "product_membership",
    "proper_inclusion_check",
    "pseudo_divide",
    "random_socle_member",
    "reduce_unbounded_torsion",
    "window_from_socle",
]

Vector = tuple[int, ...]


class ScalarSearchFailed(BudgetExceeded):
    """No scalar choice met the avoidance threshold within the retry budget."""

    def __init__(self, attempts: int, best: "AvoidanceCertificate | None", reason: str = ""):
        self.attempts = attempts
        self.best = best
        detail = reason or (
            f"no pair met the threshold after {attempts} attempt(s); "
            f"best minimum count {best.min_count if best else 'n/a'}"
        )
        super().__init__(detail)


class NonCanonicalError(ValueError):
    """A product element was not in canonical (merged, reduced) form."""


class BasePointError(NotApplicableError):
    """A proposed base point fails the everywhere-nonzero projection rule."""


class NotSuperstableError(NotApplicableError):
    """The reduction pipeline rejects input outside the superstable regime."""


# ---------------------------------------------------------------------------
# Prime windows


@dataclass(frozen=True)
class PrimeWindow:
    """The finite face of an infinite prime support.

    ``source`` is the (infinite) set of primes carrying a block, ``primes``
    its first W members.  Block ranks are ``generic_rank`` everywhere except
    the finitely many ``overrides``.

    >>> w = PrimeWindow.over(PrimeSet(True, frozenset({2})), 4)
    >>> w.primes
    (3, 5, 7, 11)
    >>> w.rank(13)
    1
    """

    source: PrimeSet
    primes: tuple[int, ...]
    generic_rank: int = 1
    overrides: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if not self.primes:
            raise ValueError("empty window")
        if self.generic_rank < 1:
            raise ValueError("generic rank must be >= 1")
        last = 0
        for p in self.primes:
            ensure_prime(p)
            if p <= last:
                raise ValueError("window primes must be strictly increasing")
            if not self.source.contains(p):
                raise ValueError(f"window prime {p} lies outside the support")
            last = p
        seen: set[int] = set()
        for p, r in self.overrides:
            if p in seen:
                raise ValueError(f"duplicate rank override at p={p}")
            seen.add(p)
            if r < 1:
                raise ValueError(f"rank override at p={p} must be >= 1")
            if not self.source.contains(p):
                raise ValueError(f"rank override at p={p} outside the support")

    @classmethod
    def over(
        cls,
        source: PrimeSet,
        width: int,
        generic_rank: int = 1,
        overrides: Iterable[tuple[int, int]] = (),
    ) -> "PrimeWindow":
        if source.is_finite:
            raise ValueError("the grid construction needs an infinite prime support")
        if width < 1:
            raise ValueError("window width must be >= 1")
        return cls(source, source.first_n(width), generic_rank, tuple(sorted(overrides)))

    @property
    def width(self) -> int:
        return len(self.primes)

    def rank(self, p: int) -> int:
        for q, r in self.overrides:
            if q == p:
                return r
        return self.generic_rank

    def to_json(self) -> dict:
        return {
            "support": str(self.source),
            "primes": list(self.primes),
            "generic_rank": self.generic_rank,
            "overrides": [[p, r] for p, r in self.overrides],
        }


def window_from_socle(spec: GroupSpec, width: int = 50) -> PrimeWindow:
    """Read a :class:`PrimeWindow` off an exponent-one (socle) description.

    Families over infinite prime sets set the generic rank; explicit cyclic
    summands and family exclusions become finite overrides.  Rejects
    descriptions with exponents above one or infinite multiplicities — those
    must be split off before the grid construction applies.
    """
    spec = normalize(list(spec.entries))
    families: list[tuple[PrimeSet, int]] = []
    singles: dict[int, int] = {}
    for fam, mult in spec.entries:
        if not mult.is_finite:
            raise ValueError(
                "infinite multiplicity in the socle; split off bounded types first"
            )
        if isinstance(fam, Cyclic):
            if fam.k != 1:
                raise ValueError(f"not a socle description: Z/{fam.p}^{fam.k}")
            singles[fam.p] = singles.get(fam.p, 0) + mult.value
        elif isinstance(fam, CyclicPrimeFamily):
            if fam.k != 1:
                raise ValueError(f"not a socle description: {fam}")
            families.append((fam.primes, mult.value))
        else:
            raise ValueError(f"not a socle description: {fam}")
    if not families:
        raise ValueError(
            "torsion at only finitely many primes; the grid construction "
            "needs an infinite support"
        )
    support = families[0][0]
    for ps, _ in families[1:]:
        support = support.union(ps)
    for p in singles:
        support = support.union(PrimeSet(False, frozenset({p})))
    generic = sum(m for _, m in families)
    boundary = set(singles)
    for ps, _ in families:
        if ps.complement:
            boundary.update(ps.primes)
    overrides = []
    for p in sorted(boundary):
        if not support.contains(p):
            continue
        r = singles.get(p, 0) + sum(m for ps, m in families if ps.contains(p))
        if r != generic:
            overrides.append((p, r))
    return PrimeWindow.over(support, width, generic, overrides)


# ---------------------------------------------------------------------------
# Scalar choice and the avoidance certificate


@dataclass(frozen=True)
class AutomorphismPair:
    """Two coordinatewise unit scalars, explicit on the window, seeded beyond.

    ``first[w]`` and ``second[w]`` are the scalars at ``window.primes[w]``.
    Outside the window (but inside the support) the scalars come from a
    deterministic seeded draw with no avoidance guarantee.
    """

    window: PrimeWindow
    seed: int
    attempt: int
    diagonal: bool
    first: tuple[int, ...]
    second: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.first) != self.window.width or len(self.second) != self.window.width:
            raise ValueError("scalar tuples must match the window width")
        for p, s, t in zip(self.window.primes, self.first, self.second):
            if not (0 < s < p and 0 < t < p):
                raise ValueError(f"scalars at p={p} must be units")

    def at(self, p: int) -> tuple[int, int]:
        """The (first, second) scalar pair at any prime of the support."""
        for q, s, t in zip(self.window.primes, self.first, self.second):
            if q == p:
                return s, t
        if not self.window.source.contains(p):
            raise ValueError(f"prime {p} outside the support")
        return _draw_scalars(self.seed, self.attempt, p, self.diagonal)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "attempt": self.attempt,
            "diagonal": self.diagonal,
            "first": dict(zip(map(str, self.window.primes), self.first)),
            "second": dict(zip(map(str, self.window.primes), self.second)),
            "tail_rule": "seeded unit draw per prime (no finite guarantee)",
        }


def _draw_scalars(seed: int, attempt: int, p: int, diagonal: bool) -> tuple[int, int]:
    rng = seeded_rng(f"socle-scalars:{seed}:{attempt}:{p}")
    s = rng.randrange(1, p)
    t = s if diagonal else rng.randrange(1, p)
    return s, t


@dataclass(frozen=True)
class AvoidanceCertificate:
    """Exhaustive small-relation survival counts over the window.

    For every nonzero integer polynomial q(x, y) with both exponents at most
    ``max_exponent`` and coefficients bounded by ``height_bound``, the number
    of window primes where q evaluated at the scalar pair is nonzero was
    counted; ``min_count`` is the worst case and ``histogram`` the full
    distribution (count -> number of polynomials).  ``worst`` records one
    minimizing polynomial as (i, j, coefficient) terms.
    """

    width: int
    max_exponent: int
    height_bound: int
    threshold: int
    seed: int
    attempt: int
    candidates: int
    min_count: int
    histogram: tuple[tuple[int, int], ...]
    worst: tuple[tuple[int, int, int], ...]
    passed: bool

    def to_json(self) -> dict:
        return {
            "width": self.width,
            "max_exponent": self.max_exponent,
            "height_bound": self.height_bound,
            "threshold": self.threshold,
            "seed": self.seed,
            "attempt": self.attempt,
            "candidates": self.candidates,
            "min_count": self.min_count,
            "histogram": {str(count): n for count, n in self.histogram},
            "worst": [[i, j, c] for i, j, c in self.worst],
            "passed": self.passed,
        }


def _monomial_values(
    pairs: Sequence[tuple[int, int]], scalars: AutomorphismPair
) -> list[list[int]]:
    """Residue of first^i second^j at each window prime, per monomial (i, j)."""
    at = list(zip(scalars.window.primes, scalars.first, scalars.second))
    return [[pow(s, i, p) * pow(t, j, p) % p for p, s, t in at] for i, j in pairs]


def choose_scalars(
    window: PrimeWindow,
    *,
    max_exponent: int = 2,
    height_bound: int = 2,
    threshold: int = 5,
    seed: int = 0,
    diagonal_only: bool = False,
) -> tuple[AutomorphismPair, AvoidanceCertificate]:
    """Draw per-prime unit scalar pairs until the avoidance check passes, at
    most :data:`~.relations.RETRIES` times.

    The check is exhaustive: every nonzero q with exponents <= max_exponent
    and |coefficients| <= height_bound must evaluate to something nonzero at
    at least ``threshold`` window primes.  ``diagonal_only`` restricts the
    draw to equal pairs (useful to demonstrate failure: q = x - y then dies
    everywhere).
    """
    if max_exponent < 0:
        raise ValueError("max_exponent must be >= 0")
    if height_bound < 1:
        raise ValueError("height_bound must be >= 1")
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    if threshold > window.width:
        raise ScalarSearchFailed(
            0, None, f"threshold {threshold} exceeds the window width {window.width}"
        )
    # The certificate reports the first minimizer when the highest monomial
    # varies slowest, so the scan runs over the monomials in reverse.
    pairs = monomials(max_exponent)[::-1]
    best: tuple[AutomorphismPair, AvoidanceCertificate] | None = None
    for attempt in range(RETRIES):
        first, second = zip(
            *(_draw_scalars(seed, attempt, p, diagonal_only) for p in window.primes)
        )
        pair = AutomorphismPair(window, seed, attempt, diagonal_only, first, second)
        scan = survival_scan(_monomial_values(pairs, pair), window.primes, height_bound)
        cert = AvoidanceCertificate(
            width=window.width,
            max_exponent=max_exponent,
            height_bound=height_bound,
            threshold=threshold,
            seed=seed,
            attempt=attempt,
            candidates=scan.candidates,
            min_count=scan.min_count,
            histogram=scan.histogram,
            worst=tuple(sorted((i, j, c) for (i, j), c in zip(pairs, scan.argmin) if c)),
            passed=scan.min_count >= threshold,
        )
        if cert.passed:
            return pair, cert
        if best is None or cert.min_count > best[1].min_count:
            best = (pair, cert)
    raise ScalarSearchFailed(RETRIES, best[1] if best else None)


# ---------------------------------------------------------------------------
# Product elements


@dataclass(frozen=True)
class ProductElement:
    """A product element: a grid tail plus finitely many explicit coordinates.

    ``tail`` maps grid monomials (i, j) to rational coefficients; the term
    contributes coefficient * first^i * second^j * base to every coordinate
    whose prime does not divide the coefficient's denominator, and nothing
    where it does (the pseudo-division bookkeeping).  ``exceptions`` are
    explicit per-prime vectors added on top.  Evaluation sums both parts.

    Structural equality of canonical forms is faithful up to the avoidance
    certificate: distinct tails that agree at every prime would need a small
    vanishing relation, which the certificate rules out within its bounds.
    """

    witness: "SocleWitnessPair" = field(repr=False, compare=False)
    tail: tuple[tuple[tuple[int, int], Fraction], ...] = ()
    exceptions: tuple[tuple[int, Vector], ...] = ()

    def is_canonical(self) -> bool:
        prev: tuple[int, int] | None = None
        for (i, j), c in self.tail:
            if i < 0 or j < 0 or c == 0:
                return False
            if prev is not None and (i, j) <= prev:
                return False
            prev = (i, j)
        last = 0
        for p, vec in self.exceptions:
            if p <= last or not self.witness.window.source.contains(p):
                return False
            last = p
            if len(vec) != self.witness.window.rank(p):
                return False
            if not any(vec) or any(not 0 <= c < p for c in vec):
                return False
        return True

    def support(self) -> tuple[tuple[int, int], ...]:
        return tuple(m for m, _ in self.tail)

    def coefficient(self, i: int, j: int) -> Fraction:
        for m, c in self.tail:
            if m == (i, j):
                return c
        return Fraction(0)

    def evaluate(self, p: int) -> Vector:
        return self.witness.evaluate(self, p)

    def __add__(self, other: "ProductElement") -> "ProductElement":
        w = _common_witness(self, other)
        tail = dict(self.tail)
        for m, c in other.tail:
            tail[m] = tail.get(m, Fraction(0)) + c
        return w._assemble(
            tail,
            lambda p: _vec_add(self.evaluate(p), other.evaluate(p), p),
            w._den_primes(self, other),
        )

    def __sub__(self, other: "ProductElement") -> "ProductElement":
        return self + other.scale(-1)

    def __neg__(self) -> "ProductElement":
        return self.scale(-1)

    def scale(self, n: int) -> "ProductElement":
        w = self.witness
        tail = {m: c * n for m, c in self.tail}
        return w._assemble(
            tail,
            lambda p: tuple(n * v % p for v in self.evaluate(p)),
            w._den_primes(self),
        )

    def apply_scalar(self, which: int) -> "ProductElement":
        """Apply the first (which=1) or second (which=2) automorphism."""
        if which not in (1, 2):
            raise ValueError("which must be 1 or 2")
        w = self.witness
        tail = {
            ((i + 1, j) if which == 1 else (i, j + 1)): c for (i, j), c in self.tail
        }

        def moved(p: int) -> Vector:
            u = w.scalars.at(p)[which - 1]
            return tuple(u * v % p for v in self.evaluate(p))

        return w._assemble(tail, moved, w._den_primes(self))

    def pseudo_divide(self, n: int) -> "ProductElement":
        """Divide by n, zeroing the components at support primes dividing n.

        Exact: chaining divisions by a and b equals one division by a*b, on
        the nose.  Multiplying back by n recovers the element away from n's
        primes and leaves zeros at them.
        """
        if not isinstance(n, int) or n < 1:
            raise ValueError("pseudo-division wants an integer n >= 1")
        w = self.witness
        tail = {m: c / n for m, c in self.tail}
        killed = set(factorize(n)) if n > 1 else set()

        def divided(p: int) -> Vector:
            if p in killed:
                return (0,) * w.window.rank(p)
            inv = pow(n, -1, p)
            return tuple(inv * v % p for v in self.evaluate(p))

        return w._assemble(tail, divided, w._den_primes(self) | killed)


def _vec_add(a: Vector, b: Vector, p: int) -> Vector:
    return tuple((x + y) % p for x, y in zip(a, b))


def _common_witness(a: ProductElement, b: ProductElement) -> "SocleWitnessPair":
    if a.witness is not b.witness:
        raise ValueError("elements belong to different witnesses")
    return a.witness


# ---------------------------------------------------------------------------
# The witness pair


@dataclass(frozen=True, eq=False)
class SocleWitnessPair:
    """Descriptors for the pair (H1, H2) plus the data to evaluate elements."""

    window: PrimeWindow
    scalars: AutomorphismPair
    certificate: AvoidanceCertificate
    base_overrides: tuple[tuple[int, Vector], ...] = ()

    def base_vector(self, p: int) -> Vector:
        for q, vec in self.base_overrides:
            if q == p:
                return vec
        return (1,) * self.window.rank(p)

    # -- evaluation ---------------------------------------------------------

    def _tail_value(
        self, tail: Iterable[tuple[tuple[int, int], Fraction]], p: int
    ) -> Vector:
        s, t = self.scalars.at(p)
        total = 0
        for (i, j), c in tail:
            if c.denominator % p == 0:
                continue
            scal = c.numerator * pow(c.denominator, -1, p) % p
            total = (total + scal * pow(s, i, p) * pow(t, j, p)) % p
        return tuple(total * a % p for a in self.base_vector(p))

    def evaluate(self, x: ProductElement, p: int) -> Vector:
        if x.witness is not self:
            raise ValueError("element belongs to a different witness")
        if not self.window.source.contains(p):
            raise ValueError(f"prime {p} outside the support")
        vec = self._tail_value(x.tail, p)
        for q, extra in x.exceptions:
            if q == p:
                vec = _vec_add(vec, extra, p)
        return vec

    def _den_primes(self, *elements: ProductElement) -> set[int]:
        out: set[int] = set()
        for x in elements:
            out.update(p for p, _ in x.exceptions)
            for _, c in x.tail:
                out.update(factorize(c.denominator))
        return out

    def _assemble(
        self,
        tail_map: Mapping[tuple[int, int], Fraction],
        true_value: Callable[[int], Vector],
        probe_primes: Iterable[int],
    ) -> ProductElement:
        """Build the canonical element with the given tail and exact values.

        Wherever the tail's face value disagrees with ``true_value`` (which
        can only happen at the finitely many ``probe_primes`` — denominator
        support, zeroed components, old exceptions), the difference is folded
        into the exception map.
        """
        tail = tuple(sorted((m, c) for m, c in tail_map.items() if c != 0))
        exceptions: list[tuple[int, Vector]] = []
        for p in sorted(set(probe_primes)):
            if not self.window.source.contains(p):
                continue
            want = true_value(p)
            have = self._tail_value(tail, p)
            diff = tuple((w - h) % p for w, h in zip(want, have))
            if any(diff):
                exceptions.append((p, diff))
        return ProductElement(self, tail, tuple(exceptions))

    # -- element constructors ------------------------------------------------

    def zero(self) -> ProductElement:
        return ProductElement(self, (), ())

    def base_point(self) -> ProductElement:
        return ProductElement(self, (((0, 0), Fraction(1)),), ())

    def grid_point(self, i: int, j: int) -> ProductElement:
        """The base point moved by first^i second^j."""
        if i < 0 or j < 0:
            raise ValueError("grid exponents must be >= 0")
        return ProductElement(self, (((i, j), Fraction(1)),), ())

    def from_coordinates(self, coords: Mapping[int, Sequence[int]]) -> ProductElement:
        """The finite-support element with the given explicit coordinates."""
        exceptions = []
        for p in sorted(coords):
            if not self.window.source.contains(p):
                raise ValueError(f"prime {p} outside the support")
            r = self.window.rank(p)
            vec = tuple(int(c) % p for c in coords[p])
            if len(vec) != r:
                raise ValueError(f"coordinate vector at p={p} must have length {r}")
            if any(vec):
                exceptions.append((p, vec))
        return ProductElement(self, (), tuple(exceptions))

    # -- membership ----------------------------------------------------------

    def membership(self, x: ProductElement, which: str) -> bool:
        return product_membership(x, which, self)

    def to_json(self) -> dict:
        return {
            "kind": "socle-witness-pair",
            "window": self.window.to_json(),
            "scalars": self.scalars.to_json(),
            "certificate": self.certificate.to_json(),
            "base_overrides": [[p, list(vec)] for p, vec in self.base_overrides],
            "grids": {
                "H1": "all (i, j)",
                "H2": "i >= 1, plus (0, 0)",
            },
            "reduced": True,
            "note": "memberships and separations are relative to the avoidance certificate",
        }


def product_membership(
    x: ProductElement, which: str, w: SocleWitnessPair | None = None
) -> bool:
    """Whether x lies in H1/H2: the tail must stay on the designated grid.

    Exceptions are irrelevant — both subgroups contain every finite-support
    element — and coefficient denominators are always realizable through
    pseudo-division, so only the monomial support decides.  The answer is
    relative to the avoidance certificate: it assumes no small relation
    rewrites one grid monomial through others.
    """
    check_grid(which)
    if w is not None and w is not x.witness:
        raise ValueError("element belongs to a different witness")
    if not x.is_canonical():
        raise NonCanonicalError("membership wants a canonical element")
    return all(grid_allows(which, i, j) for (i, j), _ in x.tail)


def pseudo_divide(x: ProductElement, n: int) -> ProductElement:
    """Free-function form of :meth:`ProductElement.pseudo_divide`."""
    return x.pseudo_divide(n)


def build_socle_witness(
    window: PrimeWindow,
    *,
    seed: int = 0,
    max_exponent: int = 2,
    height_bound: int = 2,
    threshold: int = 5,
    base_overrides: Mapping[int, Sequence[int]] | None = None,
) -> SocleWitnessPair:
    """Choose certified scalars and assemble the witness pair descriptor.

    The base point defaults to all-ones; ``base_overrides`` replaces its
    vector at chosen primes and must keep every coordinate nonzero.
    """
    checked: list[tuple[int, Vector]] = []
    for p in sorted(base_overrides or {}):
        if not window.source.contains(p):
            raise BasePointError(f"base override at p={p} outside the support")
        vec = tuple(int(c) % p for c in base_overrides[p])
        if len(vec) != window.rank(p):
            raise BasePointError(
                f"base override at p={p} must have length {window.rank(p)}"
            )
        if any(c == 0 for c in vec):
            raise BasePointError(f"base point has a zero projection at p={p}")
        checked.append((p, vec))
    pair, cert = choose_scalars(
        window,
        max_exponent=max_exponent,
        height_bound=height_bound,
        threshold=threshold,
        seed=seed,
    )
    return SocleWitnessPair(window, pair, cert, tuple(checked))


def random_socle_member(
    w: SocleWitnessPair, rng: random.Random, which: str = "H1"
) -> ProductElement:
    """A random element of the designated subgroup, built from public ops."""
    check_grid(which)
    acc = w.zero()
    window = w.window.primes
    dens = [1, 1, 2, window[0], window[1], window[0] * 2]
    for _ in range(rng.randrange(1, 4)):
        if which == "H2" and rng.random() < 0.25:
            i, j = 0, 0
        else:
            i = rng.randrange(1 if which == "H2" else 0, 4)
            j = rng.randrange(0, 4)
        term = w.grid_point(i, j).scale(rng.choice([-3, -2, -1, 1, 2, 3]))
        acc = acc + term.pseudo_divide(rng.choice(dens))
    if rng.random() < 0.5:
        p = rng.choice(window[:4])
        vec = [rng.randrange(p) for _ in range(w.window.rank(p))]
        acc = acc + w.from_coordinates({p: vec})
    return acc


# ---------------------------------------------------------------------------
# Proper inclusion: the shifted column is not spanned by earlier columns


@dataclass(frozen=True)
class ProperInclusionCheck:
    """Certified failure of bounded rewrites of the (1, m+1) grid monomial.

    For each shift m up to ``max_shift``, every integer polynomial q within
    the certificate's bounds whose terms satisfy "second-exponent above m
    forces first-exponent at least 2" was checked against the target value
    first * second^(m+1); ``rows`` holds (m, minimum survival count,
    candidates).  Surviving at >= threshold window primes means no such q
    matches the target, so the shifted base point is not expressible through
    the monomials (1, 0) ... (1, m) — the inclusion H2 in H1 is proper,
    relative to the certificate.
    """

    max_shift: int
    threshold: int
    max_exponent: int
    height_bound: int
    rows: tuple[tuple[int, int, int], ...]
    passed: bool

    def to_json(self) -> dict:
        return {
            "max_shift": self.max_shift,
            "threshold": self.threshold,
            "max_exponent": self.max_exponent,
            "height_bound": self.height_bound,
            "rows": [
                {"shift": m, "min_count": c, "candidates": n} for m, c, n in self.rows
            ],
            "passed": self.passed,
        }


def proper_inclusion_check(w: SocleWitnessPair, max_shift: int = 5) -> ProperInclusionCheck:
    cert = w.certificate
    d, height = cert.max_exponent, cert.height_bound
    rows = []
    for m in range(max_shift + 1):
        allowed = [(i, j) for i, j in monomials(d) if j <= m or i >= 2]
        target = _monomial_values([(1, m + 1)], w.scalars)[0]
        scan = survival_scan(_monomial_values(allowed, w.scalars), w.window.primes, height,
                             target)
        rows.append((m, scan.min_count, scan.candidates))
    passed = all(c >= cert.threshold for _, c, _ in rows)
    return ProperInclusionCheck(
        max_shift, cert.threshold, d, height, tuple(rows), passed
    )


# ---------------------------------------------------------------------------
# The reduction pipeline for unbounded reduced torsion


@dataclass(frozen=True, eq=False)
class ReductionOutcome:
    """Transcript and witness from the unbounded-torsion reduction."""

    spec: GroupSpec
    modulus: int
    carried_bounded: GroupSpec
    carried_divisible: GroupSpec
    socle_part: GroupSpec
    witness: SocleWitnessPair
    transcript: tuple[dict, ...]

    def to_json(self) -> dict:
        return {
            "kind": "unbounded-torsion-reduction",
            "spec": str(self.spec),
            "modulus": self.modulus,
            "carried_bounded": str(self.carried_bounded),
            "carried_divisible": str(self.carried_divisible),
            "socle": str(self.socle_part),
            "witness": self.witness.to_json(),
            "transcript": list(self.transcript),
        }


def reduce_unbounded_torsion(
    spec: GroupSpec,
    *,
    width: int = 50,
    seed: int = 0,
    max_exponent: int = 2,
    height_bound: int = 2,
    threshold: int = 5,
) -> ReductionOutcome:
    """Reduce a superstable description with unbounded reduced torsion to a
    socle witness.

    Steps, all recorded in the transcript: reject non-superstable input;
    carry any divisible summand; split off the finitely many bounded types
    of infinite multiplicity (modulus M); take the socle of the unbounded
    remainder; build the witness pair over its prime window; note the
    symbolic lift back through pure subgroups.
    """
    spec = normalize(list(spec.entries))
    transcript: list[dict] = []
    cls = stability_class(spec)
    if cls is StabilityClass.NOT_SUPERSTABLE:
        raise NotSuperstableError(
            "a fixed prime carries unbounded exponents, or infinitely many "
            "primes carry summands of infinite multiplicity"
        )
    transcript.append(
        {
            "step": "stability-gate",
            "class": cls.value,
            "note": "exponents bounded at every prime; infinite multiplicity "
            "confined to finitely many primes",
        }
    )
    k_part, c_part, d_part = split_reduced_divisible(spec)
    if k_part.entries:
        raise NotApplicableError(
            "completion summands present; use the completion-grid route"
        )
    if not any(isinstance(fam, CyclicPrimeFamily) for fam, _ in c_part.entries):
        raise NotApplicableError(
            "reduced torsion has bounded exponent; nothing to reduce"
        )
    if d_part.entries:
        transcript.append(
            {
                "step": "carried-divisible",
                "part": str(d_part),
                "note": "divisible summand carried through unchanged; torsion "
                "recovery next to a divisible complement is read as: for every "
                "modulus, each torsion-part member is congruent to a torsion "
                "element modulo divisible elements (recorded, not asserted)",
            }
        )
    heavy: dict[int, int] = {}
    for fam, mult in c_part.entries:
        if isinstance(fam, Cyclic) and not mult.is_finite:
            heavy[fam.p] = 0
    for p in heavy:
        for fam, _ in c_part.entries:
            if isinstance(fam, Cyclic) and fam.p == p:
                heavy[p] = max(heavy[p], fam.k)
            elif isinstance(fam, CyclicPrimeFamily) and fam.primes.contains(p):
                heavy[p] = max(heavy[p], fam.k)
    modulus = 1
    for p, k in sorted(heavy.items()):
        modulus *= p**k
    split = m_split(c_part, modulus)
    transcript.append(
        {
            "step": "bounded-split",
            "modulus": modulus,
            "bounded": str(split.torsion),
            "remainder": str(split.complement),
            "trivial": modulus == 1,
        }
    )
    socle_part = socle(split.complement)
    transcript.append({"step": "socle", "socle": str(socle_part)})
    window = window_from_socle(socle_part, width)
    transcript.append({"step": "window", **window.to_json()})
    witness = build_socle_witness(
        window,
        seed=seed,
        max_exponent=max_exponent,
        height_bound=height_bound,
        threshold=threshold,
    )
    transcript.append(
        {
            "step": "witness",
            "attempt": witness.certificate.attempt,
            "min_count": witness.certificate.min_count,
            "threshold": witness.certificate.threshold,
        }
    )
    transcript.append(
        {
            "step": "lift",
            "note": "each grid subgroup lifts to the unique pure subgroup of "
            "the unbounded remainder having it as socle; the lift is recorded "
            "symbolically — the witness pair itself lives in the socle product",
        }
    )
    return ReductionOutcome(
        spec=spec,
        modulus=modulus,
        carried_bounded=split.torsion,
        carried_divisible=d_part,
        socle_part=socle_part,
        witness=witness,
        transcript=tuple(transcript),
    )
