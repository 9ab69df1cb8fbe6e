"""Witness pairs inside a product of prime-order blocks over an infinite prime set.

Everything happens in the full product P = prod_{p in S} (Z/p)^{r_p} for an
infinite set of primes S.  Coordinatewise integer scalars act on P, and for
every n >= 1 there is a pseudo-division: divide by n at the primes where n
is invertible and zero out the finitely many components where it is not.
Pseudo-division is exact (composition multiplies the divisors) and fixes the
direct sum's purity structure, so iterating it from finite-support elements
carves out dense pure subgroups of P.

The pair itself is spanned by a two-parameter grid.  Pick per-prime unit
scalars for two commuting automorphisms and the all-ones base point (any
base point with nonzero projection everywhere gives an isomorphic pair); the
grid consists of the images of the base point under monomials in the two
automorphisms.  H1 uses the whole grid, H2 drops the column above the origin
(keeping the base point itself), and applying the first automorphism shifts
the grid one column right, carrying H1 into H2.  Both subgroups contain
every finite-support element, so membership is decided by the *tail* of an
element — which grid monomials it needs — never by its finitely many
exceptional coordinates.

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
multiplicities it needs (the primes carrying a type of infinite multiplicity,
the block ranks of the socle) are Ulm values read off the Szmielew key.  The
lift back to the original group (the unique pure subgroup with the
constructed socle) is recorded symbolically in the transcript.
"""

from __future__ import annotations

import functools
import math
import random
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from .classify import NotApplicableError, StabilityClass, stability_class
from .groupspec import (
    GroupSpec, PrimeSet, Record, m_split, normalize, socle, split_reduced_divisible,
)
from .invariants import szmielew_invariants
from .primes import ensure_prime, factorize
from .relations import (
    GRIDS, RetriesExhausted, check_grid, first_passing, grid_allows, monomials, search_space,
    seeded_rng, survival_scans, terms,
)

if TYPE_CHECKING:  # a witness pair needs no fractions; its elements import them
    from fractions import Fraction

__all__ = [
    "AutomorphismPair",
    "AvoidanceCertificate",
    "PrimeWindow",
    "ProductElement",
    "ProperInclusionCheck",
    "ReductionOutcome",
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


# ---------------------------------------------------------------------------
# Prime windows


class PrimeWindow(Record):
    """The finite face of an infinite prime support.

    ``source`` is the cofinite set of primes carrying a block, ``primes`` its
    first ``width`` members.  Block ranks are ``generic_rank`` everywhere except
    the ``overrides``, a tuple of (prime, rank) pairs sorted by prime.

    >>> w = PrimeWindow(PrimeSet.cofinite({2}), 4)
    >>> w.primes
    (3, 5, 7, 11)
    >>> w.rank(13)
    1
    """

    source: PrimeSet
    width: int
    generic_rank: int = 1
    overrides: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("window width must be >= 1")
        if self.generic_rank < 1:
            raise ValueError("generic rank must be >= 1")
        last = 0
        for p, r in self.overrides:
            if p <= last:
                raise ValueError(f"rank override at p={p} out of order or duplicated")
            last = p
            if r < 1:
                raise ValueError(f"rank override at p={p} must be >= 1")
            if not self.source.contains(p):
                raise ValueError(f"rank override at p={p} outside the support")
        self.__dict__["primes"] = self.source.first_n(self.width)

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

    The block ranks are the Ulm values U(p, 1) of the Szmielew key: the
    generic record sets the generic rank, the finitely many listed primes
    become rank overrides, or leave the support where their rank is zero.
    Rejects descriptions that are not their own socle or have an infinite
    rank — bounded types of infinite multiplicity must be split off before
    the grid construction applies.
    """
    spec = normalize(list(spec.entries))
    if socle(spec) != spec:
        raise ValueError(f"not a socle description: {spec}")
    key = szmielew_invariants(spec)
    generic = key.generic.u(1)
    ranks = [(p, rec.u(1)) for p, rec in key.primes]
    if not generic.is_finite or not all(r.is_finite for _, r in ranks):
        raise ValueError("infinite multiplicity in the socle; split off bounded types first")
    if not generic.value:
        raise ValueError(
            "torsion at only finitely many primes; the grid construction "
            "needs an infinite support"
        )
    support = PrimeSet.cofinite(p for p, r in ranks if not r.value)
    overrides = tuple((p, r.value) for p, r in ranks if r.value)
    return PrimeWindow(support, width, generic.value, overrides)


# ---------------------------------------------------------------------------
# Scalar choice and the avoidance certificate


class AutomorphismPair(Record):
    """Two coordinatewise unit scalars, drawn per prime from the seed and attempt.

    ``first[w]`` and ``second[w]`` are the scalars at ``window.primes[w]``.
    Outside the window (but inside the support) :meth:`at` draws them the
    same way, with no avoidance guarantee.
    """

    window: PrimeWindow
    seed: int
    attempt: int

    def __post_init__(self) -> None:
        drawn = [_draw_scalars(self.seed, self.attempt, p) for p in self.window.primes]
        self.__dict__["first"], self.__dict__["second"] = zip(*drawn)
        self.__dict__["_explicit"] = dict(zip(self.window.primes, drawn))

    def at(self, p: int) -> tuple[int, int]:
        """The (first, second) scalar pair at any prime of the support."""
        pair = self._explicit.get(p)
        if pair is not None:
            return pair
        if not self.window.source.contains(p):
            raise ValueError(f"prime {p} outside the support")
        ensure_prime(p, "scalar prime")
        return _draw_scalars(self.seed, self.attempt, p)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "attempt": self.attempt,
            "diagonal": False,
            "first": dict(zip(map(str, self.window.primes), self.first)),
            "second": dict(zip(map(str, self.window.primes), self.second)),
            "tail_rule": "seeded unit draw per prime (no finite guarantee)",
        }


def _draw_scalars(seed: int, attempt: int, p: int) -> tuple[int, int]:
    rng = seeded_rng(f"socle-scalars:{seed}:{attempt}:{p}")
    return rng.randrange(1, p), rng.randrange(1, p)


class AvoidanceCertificate(Record):
    """Exhaustive small-relation survival counts over the window.

    For every nonzero integer polynomial q(x, y) with both exponents at most
    ``max_exponent`` and coefficients bounded by ``height_bound``, the number
    of window primes where q evaluated at the scalar pair is nonzero was
    counted; ``min_count`` is the worst case and ``histogram`` the full
    distribution (count -> number of polynomials).  ``worst`` records one
    minimizing polynomial as :func:`~.relations.terms`.
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
        return super().to_json() | {"histogram": {str(count): n for count, n in self.histogram}}


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
) -> tuple[AutomorphismPair, AvoidanceCertificate]:
    """Draw per-prime unit scalar pairs until the avoidance check passes, at
    most :data:`~.relations.RETRIES` times (:func:`~.relations.first_passing`).

    The check is exhaustive: every nonzero q with exponents <= max_exponent
    and |coefficients| <= height_bound must evaluate to something nonzero at
    at least ``threshold`` window primes.
    """
    # The certificate reports the first minimizer when the highest monomial
    # varies slowest, so the scan runs over the monomials in reverse.
    pairs = monomials(max_exponent)[::-1]
    search_space(len(pairs), height_bound, None)  # the bounds, before the threshold
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    if threshold > window.width:
        raise RetriesExhausted(f"threshold {threshold} exceeds the window width {window.width}")

    def draw(attempt: int) -> tuple[AutomorphismPair, AvoidanceCertificate]:
        pair = AutomorphismPair(window, seed, attempt)
        scan = survival_scans(_monomial_values(pairs, pair), window.primes, height_bound, None)[0]
        return pair, AvoidanceCertificate(
            width=window.width,
            max_exponent=max_exponent,
            height_bound=height_bound,
            threshold=threshold,
            seed=seed,
            attempt=attempt,
            candidates=scan.candidates,
            min_count=scan.min_count,
            histogram=scan.histogram,
            worst=terms(pairs, scan.argmin),
            passed=scan.min_count >= threshold,
        )

    return first_passing(draw, lambda certs: (
        f"no pair met the threshold after {len(certs)} attempt(s); "
        f"best minimum count {max(cert.min_count for cert in certs)}"))


# ---------------------------------------------------------------------------
# Product elements


class ProductElement(Record):
    """A product element: a grid tail plus finitely many explicit coordinates.

    ``tail`` maps grid monomials (i, j) to rational coefficients; the term
    contributes coefficient * first^i * second^j * base to every coordinate
    whose prime does not divide the coefficient's denominator, and nothing
    where it does (the pseudo-division bookkeeping).  ``exceptions`` are
    explicit per-prime vectors added on top.  Evaluation sums both parts.

    Equality compares the witness by value, then the canonical form.
    Within one witness it is faithful up to the avoidance certificate:
    distinct tails that agree at every prime would need a small vanishing
    relation, which the certificate rules out within its bounds.
    """

    witness: "SocleWitnessPair"
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

    def evaluate(self, p: int) -> Vector:
        if not self.witness.window.source.contains(p):
            raise ValueError(f"prime {p} outside the support")
        vec = _tail_value(self.witness, self.tail, p)
        for q, extra in self.exceptions:
            if q == p:
                vec = _vec_add(vec, extra, p)
        return vec

    def __add__(self, other: "ProductElement") -> "ProductElement":
        if self.witness != other.witness:
            raise ValueError("elements belong to different witnesses")
        tail = dict(self.tail)
        for m, c in other.tail:
            tail[m] = tail.get(m, 0) + c
        return _assemble(
            self.witness,
            tail,
            lambda p: _vec_add(self.evaluate(p), other.evaluate(p), p),
            _den_primes(self, other),
        )

    def __sub__(self, other: "ProductElement") -> "ProductElement":
        return self + other.scale(-1)

    def __neg__(self) -> "ProductElement":
        return self.scale(-1)

    def scale(self, n: int) -> "ProductElement":
        return self._linear({m: c * n for m, c in self.tail}, lambda p: n)

    def apply_scalar(self, which: int) -> "ProductElement":
        """Apply the first (which=1) or second (which=2) automorphism."""
        if which not in (1, 2):
            raise ValueError("which must be 1 or 2")
        tail = {
            ((i + 1, j) if which == 1 else (i, j + 1)): c for (i, j), c in self.tail
        }
        return self._linear(tail, lambda p: self.witness.scalars.at(p)[which - 1])

    def pseudo_divide(self, n: int) -> "ProductElement":
        """Divide by n, zeroing the components at support primes dividing n.

        Exact: chaining divisions by a and b equals one division by a*b, on
        the nose.  Multiplying back by n recovers the element away from n's
        primes and leaves zeros at them.
        """
        if not isinstance(n, int) or n < 1:
            raise ValueError("pseudo-division wants an integer n >= 1")
        return self._linear(
            {m: c / n for m, c in self.tail}, lambda p: pow(n, -1, p), _prime_factors(n))

    def _linear(
        self, tail: Mapping[tuple[int, int], Fraction], factor: Callable[[int], int],
        killed: frozenset[int] = frozenset(),
    ) -> "ProductElement":
        """The element with ``tail`` whose value at p is ``factor(p)`` times
        this one's, or zero at the ``killed`` primes."""

        def value(p: int) -> Vector:
            if p in killed:
                return (0,) * self.witness.window.rank(p)
            lam = factor(p)
            return tuple(lam * v % p for v in self.evaluate(p))

        return _assemble(self.witness, tail, value, _den_primes(self) | killed)


pseudo_divide = ProductElement.pseudo_divide  # the free-function form, pseudo_divide(x, n)


def _vec_add(a: Vector, b: Vector, p: int) -> Vector:
    return tuple((x + y) % p for x, y in zip(a, b))


def _tail_value(
    w: "SocleWitnessPair", tail: Iterable[tuple[tuple[int, int], Fraction]], p: int
) -> Vector:
    s, t = w.scalars.at(p)
    total = 0
    for (i, j), c in tail:
        if c.denominator % p == 0:
            continue
        scal = c.numerator * pow(c.denominator, -1, p) % p
        total = (total + scal * pow(s, i, p) * pow(t, j, p)) % p
    return (total,) * w.window.rank(p)


def _den_primes(*elements: ProductElement) -> set[int]:
    out: set[int] = set()
    for x in elements:
        out.update(p for p, _ in x.exceptions)
        for _, c in x.tail:
            out.update(_prime_factors(c.denominator))
    return out


@functools.lru_cache(maxsize=4096)
def _prime_factors(n: int) -> frozenset[int]:
    return frozenset(factorize(n))


def _assemble(
    w: "SocleWitnessPair",
    tail_map: Mapping[tuple[int, int], Fraction],
    true_value: Callable[[int], Vector],
    probe_primes: Iterable[int],
) -> ProductElement:
    """Build the canonical element with the given tail and exact values.

    Wherever the tail's face value disagrees with ``true_value`` (which can
    only happen at the finitely many ``probe_primes`` — denominator support,
    zeroed components, old exceptions), the difference is folded into the
    exception map.
    """
    tail = tuple(sorted((m, c) for m, c in tail_map.items() if c != 0))
    exceptions: list[tuple[int, Vector]] = []
    for p in sorted(set(probe_primes)):
        if not w.window.source.contains(p):
            continue
        want = true_value(p)
        have = _tail_value(w, tail, p)
        diff = tuple((a - b) % p for a, b in zip(want, have))
        if any(diff):
            exceptions.append((p, diff))
    return ProductElement(w, tail, tuple(exceptions))


# ---------------------------------------------------------------------------
# The witness pair


class SocleWitnessPair(Record):
    """Descriptors for the pair (H1, H2) plus the data its elements evaluate with."""

    scalars: AutomorphismPair
    certificate: AvoidanceCertificate

    def __post_init__(self) -> None:
        self.__dict__["window"] = self.scalars.window  # a plain attribute for inner loops

    # -- element constructors ------------------------------------------------

    def zero(self) -> ProductElement:
        return ProductElement(self, (), ())

    def base_point(self) -> ProductElement:
        return self.grid_point(0, 0)

    def grid_point(self, i: int, j: int) -> ProductElement:
        """The base point moved by first^i second^j."""
        if i < 0 or j < 0:
            raise ValueError("grid exponents must be >= 0")
        from fractions import Fraction

        return ProductElement(self, (((i, j), Fraction(1)),), ())

    def from_coordinates(self, coords: Mapping[int, Sequence[int]]) -> ProductElement:
        """The finite-support element with the given explicit coordinates."""
        exceptions = []
        for p in sorted(coords):
            ensure_prime(p, "coordinate prime")
            if not self.window.source.contains(p):
                raise ValueError(f"prime {p} outside the support")
            r = self.window.rank(p)
            vec = tuple(int(c) % p for c in coords[p])
            if len(vec) != r:
                raise ValueError(f"coordinate vector at p={p} must have length {r}")
            if any(vec):
                exceptions.append((p, vec))
        return ProductElement(self, (), tuple(exceptions))

    def to_json(self) -> dict:
        return {
            "kind": "socle-witness-pair",
            "window": self.window.to_json(),
            "scalars": self.scalars.to_json(),
            "certificate": self.certificate.to_json(),
            "base_overrides": [],
            "grids": dict(GRIDS),
            "reduced": True,
            "note": "memberships and separations are relative to the avoidance certificate",
        }


def product_membership(x: ProductElement, which: str, w: SocleWitnessPair) -> bool:
    """Whether x lies in H1/H2: the tail must stay on the designated grid.

    Exceptions are irrelevant — both subgroups contain every finite-support
    element — and coefficient denominators are always realizable through
    pseudo-division, so only the monomial support decides.  The answer is
    relative to the avoidance certificate: it assumes no small relation
    rewrites one grid monomial through others.
    """
    check_grid(which)
    if w != x.witness:
        raise ValueError("element belongs to a different witness")
    if not x.is_canonical():
        raise ValueError("membership wants a canonical element")
    return all(grid_allows(which, i, j) for (i, j), _ in x.tail)


def build_socle_witness(
    window: PrimeWindow,
    *,
    seed: int = 0,
    max_exponent: int = 2,
    height_bound: int = 2,
    threshold: int = 5,
) -> SocleWitnessPair:
    """Choose certified scalars and assemble the witness pair descriptor.

    The base point is all-ones.  Any base point with no zero coordinate gives
    an isomorphic pair: scaling each coordinate by a unit is an automorphism
    of the product that commutes with both scalars and carries the all-ones
    grid onto the other one.
    """
    return SocleWitnessPair(*choose_scalars(
        window,
        max_exponent=max_exponent,
        height_bound=height_bound,
        threshold=threshold,
        seed=seed,
    ))


def random_socle_member(
    w: SocleWitnessPair, rng: random.Random, which: str = "H1"
) -> ProductElement:
    """A random element of the designated subgroup, built from public ops."""
    check_grid(which)
    acc = w.zero()
    window = w.window.primes
    dens = [1, 1, 2, *window[:2], window[0] * 2]  # a window may hold one prime
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


class ProperInclusionCheck(Record):
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
        rows = [{"shift": m, "min_count": c, "candidates": n} for m, c, n in self.rows]
        return super().to_json() | {"rows": rows}


def proper_inclusion_check(w: SocleWitnessPair, max_shift: int = 5) -> ProperInclusionCheck:
    """Check the shifts m = 0 .. ``max_shift`` within ``w``'s certificate bounds.

    Shifts that allow the same monomials share one :func:`survival_scans` call,
    one target each.  Every shift from d on allows them all, so this runs at
    most d + 1 scans: three at d = 2.  A scan's T targets split one target's
    block of rows T ways, so it holds no more counters than the avoidance scan.
    """
    if max_shift < 0:
        raise ValueError(f"max_shift must be nonnegative, got {max_shift}")
    cert = w.certificate
    d, height = cert.max_exponent, cert.height_bound
    shifts: dict[tuple, list[int]] = {}  # shifts m >= d all allow every monomial
    for m in range(max_shift + 1):
        shifts.setdefault(tuple((i, j) for i, j in monomials(d) if j <= m or i >= 2), []).append(m)
    rows = []
    for allowed, ms in shifts.items():
        scans = survival_scans(_monomial_values(allowed, w.scalars), w.window.primes, height,
                               _monomial_values([(1, m + 1) for m in ms], w.scalars))
        rows += [(m, scan.min_count, scan.candidates) for m, scan in zip(ms, scans)]
    passed = all(c >= cert.threshold for _, c, _ in rows)
    return ProperInclusionCheck(
        max_shift, cert.threshold, d, height, tuple(sorted(rows)), passed
    )


# ---------------------------------------------------------------------------
# The reduction pipeline for unbounded reduced torsion


class ReductionOutcome(Record):
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
        raise NotApplicableError(
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
    key = szmielew_invariants(c_part)
    if key.bounded:
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
    # past the stability gate only finitely many listed primes carry a type
    # of infinite multiplicity; each is split off up to its largest exponent
    modulus = math.prod(
        p ** rec.ulm[-1][0] for p, rec in key.primes
        if any(not u.is_finite for _, u in rec.ulm)
    )
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
