"""Symbolic descriptions of direct sums of the standard abelian building blocks.

A :class:`GroupSpec` is a finite formal sum of summand families, each with a
cardinal multiplicity.  The available families are the summands that occur in
the structure theory of pure-injective abelian groups:

* ``Cyclic(p, k)``            -- Z/p**k
* ``Prufer(p)``               -- the p-quasicyclic group Z(p**inf)
* ``Rationals()``             -- Q
* ``PAdicComplete(p)``        -- the additive group of the p-adic integers
* ``CyclicPrimeFamily(S, k)`` -- sum of Z/p**k over p in the cofinite prime set S
* ``PAdicPrimeFamily(S)``     -- sum of p-adic integer groups over p in S
* ``CyclicExponentFamily(p)`` -- sum of Z/p**k over every exponent k >= 1

Specs are kept in a normal form: duplicate entries merge by cardinal
addition, zero-multiplicity entries are dropped and the entry list is
canonically sorted.  Equality of normal forms is therefore structural
equality.  The parser writes a finite family out as one singleton per listed
prime or exponent, as it splits a composite cyclic modulus by the Chinese
remainder theorem, so a family always ranges over an infinite index set.

Expressions are parsed from a small ASCII grammar::

    spec     := term ("+" term)*
    term     := atom ["^" mult]
    atom     := "Z/" nat | "Prufer(" p ")" | "Q" | "Zhat(" p ")"
              | "sumP(" primeset ";" "Z/p^" nat ")"
              | "sumP(" primeset ";" "Zhat" ")"
              | "sumK(" p ";" expset ")"
    mult     := nat | "w" | "aleph(" nat ")"
    primeset := "{" p ("," p)* "}" | "all\\{" p ("," p)* "}" | "all"
    expset   := "all" | "{" nat ("," nat)* "}"

As an extension, the single token ``0`` denotes the trivial group (the empty
sum), which the grammar above cannot spell.
"""

from __future__ import annotations

import functools
from typing import Iterable

from .primes import EXACT_BOUND, ensure_prime, factorize, first_primes_excluding

__all__ = [
    "Record",
    "Cardinal",
    "ALEPH0",
    "PrimeSet",
    "ALL_PRIMES",
    "Summand",
    "Cyclic",
    "Prufer",
    "Rationals",
    "PAdicComplete",
    "CyclicPrimeFamily",
    "PAdicPrimeFamily",
    "CyclicExponentFamily",
    "GroupSpec",
    "Entry",
    "SpecSyntaxError",
    "NotApplicableError",
    "BudgetExceeded",
    "MSplitPreconditionError",
    "MSplitResult",
    "parse_spec",
    "normalize",
    "direct_sum",
    "socle",
    "m_split",
    "split_reduced_divisible",
]


class Record:
    """Base of the package's immutable value classes, in place of frozen dataclasses.

    Fields are the class's own annotations; omitted trailing ones default to
    class attributes.  Equality and hash read the tuple of field values.
    """

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        cls, fields = self.__class__, self._fields
        if kwargs or len(args) != len(fields):
            rest = {f: vars(cls)[f] for f in fields[len(args):] if f in vars(cls)} | kwargs
            if len(args) > len(fields) or rest.keys() != set(fields[len(args):]):
                raise TypeError(f"{cls.__name__} takes the fields {', '.join(fields)}")
            args += tuple(rest[f] for f in fields[len(args):])
        self.__dict__.update(zip(fields, args))
        self.__dict__["_values"] = args
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={self.__dict__[f]!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def to_json(self) -> dict:
        """Each field by name: a tuple becomes a list, a record writes its own ``to_json``."""
        return {f: _plain(self.__dict__[f]) for f in self._fields}


def _plain(value):
    if isinstance(value, Record):
        return value.to_json()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# Cardinals
# ---------------------------------------------------------------------------


@functools.total_ordering
class Cardinal(Record):
    """A multiplicity: either a natural number or an aleph.

    ``Cardinal.of(3)`` is the natural number 3, ``Cardinal.aleph(i)`` the
    i-th infinite cardinal.  Addition is ordinary addition on naturals and
    maximum as soon as one operand is infinite.

    >>> Cardinal.of(2) + Cardinal.of(3)
    Cardinal.of(5)
    >>> Cardinal.aleph(0) + Cardinal.of(7)
    Cardinal.aleph(0)
    >>> Cardinal.of(5) < Cardinal.aleph(1)
    True
    """

    kind: str  # "finite" | "aleph"
    value: int

    def __post_init__(self) -> None:
        if self.kind not in ("finite", "aleph") or self.value < 0:
            raise ValueError(f"bad cardinal ({self.kind!r}, {self.value!r})")

    @classmethod
    def of(cls, n: int) -> "Cardinal":
        return cls("finite", n)

    @classmethod
    def aleph(cls, i: int) -> "Cardinal":
        return cls("aleph", i)

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    def _key(self) -> tuple[int, int]:
        return (0 if self.is_finite else 1, self.value)

    def __lt__(self, other: "Cardinal") -> bool:
        return self._key() < other._key()

    def __add__(self, other: "Cardinal") -> "Cardinal":
        if self.is_finite and other.is_finite:
            return Cardinal.of(self.value + other.value)
        return max(self, other)

    def cap_countable(self) -> "Cardinal":
        """Collapse every infinite value to aleph_0 (first-order blindness)."""
        return self if self.is_finite else ALEPH0

    def __str__(self) -> str:
        if self.is_finite:
            return str(self.value)
        return "w" if self.value == 0 else f"aleph({self.value})"

    def __repr__(self) -> str:
        if self.is_finite:
            return f"Cardinal.of({self.value})"
        return f"Cardinal.aleph({self.value})"


ALEPH0 = Cardinal.aleph(0)
_ZERO = Cardinal.of(0)
_ONE = Cardinal.of(1)


# ---------------------------------------------------------------------------
# Prime sets
# ---------------------------------------------------------------------------


class PrimeSet(Record):
    """A cofinite set of primes: every prime except the finitely many ``excluded``.

    A finite set of primes is never a family's index set: the parser writes
    such a family out as one singleton per listed prime.

    >>> PrimeSet.cofinite({2}).contains(3)
    True
    >>> str(PrimeSet.cofinite({3, 2}))
    'all\\\\{2,3}'
    """

    excluded: frozenset[int]

    def __post_init__(self) -> None:
        for p in self.excluded:
            ensure_prime(p, "excluded prime")

    @classmethod
    def cofinite(cls, excluded: Iterable[int] = ()) -> "PrimeSet":
        return cls(frozenset(excluded))

    def contains(self, p: int) -> bool:
        return p not in self.excluded

    def remove(self, ps: Iterable[int]) -> "PrimeSet":
        return PrimeSet(self.excluded | frozenset(ps))

    def first_n(self, n: int) -> tuple[int, ...]:
        """The n smallest members."""
        return first_primes_excluding(n, self.excluded)

    def fingerprint(self) -> str:
        """The excluded primes joined by commas: normal forms order families by it as a string."""
        return ",".join(str(p) for p in sorted(self.excluded))

    def __str__(self) -> str:
        return "all\\{%s}" % self.fingerprint() if self.excluded else "all"


ALL_PRIMES = PrimeSet.cofinite()


# ---------------------------------------------------------------------------
# Summand families
# ---------------------------------------------------------------------------


class Summand(Record):
    """Base class for the summand constructors; instances are immutable."""

    _rank = -1

    def sort_key(self) -> tuple:
        """(rank, p, k, prime set): the order of the entries of a normal form."""
        primes = getattr(self, "primes", None)
        return (self._rank, getattr(self, "p", 0), getattr(self, "k", 0),
                "" if primes is None else primes.fingerprint())


class Cyclic(Summand):
    """Z/p**k for a prime p and k >= 1."""

    p: int
    k: int
    _rank = 0

    def __post_init__(self) -> None:
        ensure_prime(self.p, "Cyclic prime")
        if self.k < 1:
            raise ValueError(f"Cyclic exponent must be >= 1, got {self.k}")

    @property
    def modulus(self) -> int:
        return self.p**self.k

    def __str__(self) -> str:
        return f"Z/{self.modulus}"


class Prufer(Summand):
    """The p-quasicyclic group: the p-power-torsion part of Q/Z."""

    p: int
    _rank = 1

    def __post_init__(self) -> None:
        ensure_prime(self.p, "Prufer prime")

    def __str__(self) -> str:
        return f"Prufer({self.p})"


class Rationals(Summand):
    """The additive rationals."""

    _rank = 2

    def __str__(self) -> str:
        return "Q"


class PAdicComplete(Summand):
    """The additive group of p-adic integers (the completion of Z at p)."""

    p: int
    _rank = 3

    def __post_init__(self) -> None:
        ensure_prime(self.p, "PAdicComplete prime")

    def __str__(self) -> str:
        return f"Zhat({self.p})"


class CyclicPrimeFamily(Summand):
    """Direct sum of Z/p**k over all p in a prime set, fixed exponent k."""

    primes: PrimeSet
    k: int
    _rank = 4

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"family exponent must be >= 1, got {self.k}")

    def __str__(self) -> str:
        return f"sumP({self.primes}; Z/p^{self.k})"


class PAdicPrimeFamily(Summand):
    """Direct sum of the p-adic integer groups over all p in a prime set."""

    primes: PrimeSet
    _rank = 5

    def __str__(self) -> str:
        return f"sumP({self.primes}; Zhat)"


class CyclicExponentFamily(Summand):
    """Direct sum of Z/p**k over every exponent k >= 1 at a single prime."""

    p: int
    _rank = 6

    def __post_init__(self) -> None:
        ensure_prime(self.p, "exponent family prime")

    def __str__(self) -> str:
        return f"sumK({self.p}; all)"


Entry = tuple[Summand, Cardinal]


# ---------------------------------------------------------------------------
# GroupSpec and normalization
# ---------------------------------------------------------------------------


class GroupSpec(Record):
    """A formal direct sum of summand families in normal form.

    Construct via :func:`normalize` (or :func:`parse_spec`); the raw
    constructor assumes already-normalized entries.
    """

    entries: tuple[Entry, ...]

    @property
    def is_trivial(self) -> bool:
        return not self.entries

    def __str__(self) -> str:
        if not self.entries:
            return "0"
        parts = []
        for fam, mult in self.entries:
            if mult == _ONE:
                parts.append(str(fam))
            else:
                parts.append(f"{fam}^{mult}")
        return " + ".join(parts)


def normalize(entries: Iterable[Entry]) -> GroupSpec:
    """Normal form of a formal sum: merge, drop zeros, sort.

    >>> str(normalize([(Cyclic(2, 3), Cardinal.of(1)), (Cyclic(2, 3), Cardinal.of(2))]))
    'Z/8^3'
    >>> normalize([(Rationals(), Cardinal.of(0))]).is_trivial
    True
    """
    merged: dict[Summand, Cardinal] = {}
    for family, mult in entries:
        if not isinstance(mult, Cardinal):
            raise TypeError(f"multiplicity must be a Cardinal, got {mult!r}")
        merged[family] = merged[family] + mult if family in merged else mult
    kept = [(fam, m) for fam, m in merged.items() if m != _ZERO]
    kept.sort(key=lambda e: e[0].sort_key())
    return GroupSpec(tuple(kept))


def direct_sum(*specs: GroupSpec) -> GroupSpec:
    """Formal direct sum; multiplicities of equal families add.

    >>> a = parse_spec("Z/2 + Q")
    >>> str(direct_sum(a, parse_spec("Z/2^w")))
    'Z/2^w + Q'
    """
    entries: list[Entry] = []
    for s in specs:
        entries.extend(s.entries)
    return normalize(entries)


def socle(spec: GroupSpec) -> GroupSpec:
    """The subgroup generated by the elements of prime order, as a spec.

    Torsion-free summands contribute nothing; Z/p**k and the p-quasicyclic
    group contribute one Z/p each; families map componentwise.

    >>> str(socle(parse_spec("Zhat(5) + Z/9 + Prufer(2)")))
    'Z/2 + Z/3'
    """
    out: list[Entry] = []
    for fam, mult in spec.entries:
        if isinstance(fam, Cyclic):
            out.append((Cyclic(fam.p, 1), mult))
        elif isinstance(fam, Prufer):
            out.append((Cyclic(fam.p, 1), mult))
        elif isinstance(fam, CyclicPrimeFamily):
            out.append((CyclicPrimeFamily(fam.primes, 1), mult))
        elif isinstance(fam, CyclicExponentFamily):
            # one Z/p for each of the infinitely many exponents
            out.append((Cyclic(fam.p, 1), mult + ALEPH0))
        # Rationals, PAdicComplete, PAdicPrimeFamily are torsion-free: drop.
    return normalize(out)


class NotApplicableError(ValueError):
    """The requested report or witness does not apply to this spec; the CLI exits 3."""


class BudgetExceeded(RuntimeError):
    """A search space exceeds the configured candidate budget; the CLI exits 4."""


class MSplitPreconditionError(NotApplicableError):
    """A cyclic contribution at a prime of m is not annihilated by m."""

    def __init__(self, p: int, k: int | None, m: int):
        self.p, self.k, self.m = p, k, m
        shown = "unbounded" if k is None else f"p^{k}"
        super().__init__(
            f"m-split precondition violated: contribution {shown} at p={p} does not divide m={m}"
        )


class MSplitResult(Record):
    """Outcome of :func:`m_split`.

    ``torsion`` is the m-torsion part, ``complement`` the part isomorphic to
    m*G.  Quasicyclic summands land in both: their m-torsion shows up in
    ``torsion`` while the full quasicyclic group survives multiplication by
    m.  Without them, ``torsion`` + ``complement`` reassembles the input.
    """

    torsion: GroupSpec
    complement: GroupSpec


def m_split(spec: GroupSpec, m: int) -> MSplitResult:
    """Split off the m-torsion: G = G[m] (+) mG for specs annihilated cleanly.

    Requires every cyclic contribution at a prime p dividing m to satisfy
    p**k | m; quasicyclic and torsion-free summands are unrestricted.

    >>> r = m_split(parse_spec("Z/4 + Z/3 + Q"), 4)
    >>> str(r.torsion), str(r.complement)
    ('Z/4', 'Z/3 + Q')
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    mfact = factorize(m) if m > 1 else {}
    tors: list[Entry] = []
    comp: list[Entry] = []
    for fam, mult in spec.entries:
        if isinstance(fam, Cyclic):
            if fam.p in mfact:
                if fam.k > mfact[fam.p]:
                    raise MSplitPreconditionError(fam.p, fam.k, m)
                tors.append((fam, mult))
            else:
                comp.append((fam, mult))
        elif isinstance(fam, CyclicExponentFamily):
            if fam.p in mfact:
                raise MSplitPreconditionError(fam.p, None, m)
            comp.append((fam, mult))
        elif isinstance(fam, CyclicPrimeFamily):
            inside = [p for p in mfact if fam.primes.contains(p)]
            for p in inside:
                if fam.k > mfact[p]:
                    raise MSplitPreconditionError(p, fam.k, m)
                tors.append((Cyclic(p, fam.k), mult))
            comp.append((CyclicPrimeFamily(fam.primes.remove(inside), fam.k), mult))
        elif isinstance(fam, Prufer):
            if fam.p in mfact:
                # the m-torsion of a quasicyclic group is cyclic of order p^v
                tors.append((Cyclic(fam.p, mfact[fam.p]), mult))
            comp.append((fam, mult))
        else:
            # Rationals, PAdicComplete, PAdicPrimeFamily: torsion-free, and
            # multiplication by m is injective with isomorphic image.
            comp.append((fam, mult))
    return MSplitResult(torsion=normalize(tors), complement=normalize(comp))


def split_reduced_divisible(spec: GroupSpec) -> tuple[GroupSpec, GroupSpec, GroupSpec]:
    """Partition entries into (torsion-free complete part, reduced torsion, divisible).

    Returns ``(k_part, c_part, d_part)`` where ``k_part`` collects the p-adic
    completion summands, ``c_part`` the reduced torsion summands (cyclic
    singletons and families) and ``d_part`` the divisible summands (rationals
    and quasicyclic).  Direct-summing the three parts reassembles the input.
    """
    k_part: list[Entry] = []
    c_part: list[Entry] = []
    d_part: list[Entry] = []
    for fam, mult in spec.entries:
        if isinstance(fam, (PAdicComplete, PAdicPrimeFamily)):
            k_part.append((fam, mult))
        elif isinstance(fam, (Prufer, Rationals)):
            d_part.append((fam, mult))
        else:
            c_part.append((fam, mult))
    return normalize(k_part), normalize(c_part), normalize(d_part)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


# Python's default limit on int-to-str conversions; a longer digit string
# could be parsed but never printed back
_MAX_DIGITS = 4300


class SpecSyntaxError(ValueError):
    """Parse failure; ``position`` is the 0-based offset in the input."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> SpecSyntaxError:
        return SpecSyntaxError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self, literal: str) -> bool:
        return self.text.startswith(literal, self.pos)

    def accept(self, literal: str) -> bool:
        self.skip_ws()
        if self.peek(literal):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str) -> None:
        if not self.accept(literal):
            raise self.error(f"expected {literal!r}")

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a number")
        if self.pos - start > _MAX_DIGITS:
            raise SpecSyntaxError(f"numbers are limited to {_MAX_DIGITS} digits", start)
        return int(self.text[start : self.pos])

    def bounded_nat(self, context: str) -> int:
        """A number below ``EXACT_BOUND``, where primality tests are exact."""
        self.skip_ws()
        at = self.pos
        n = self.nat()
        if n >= EXACT_BOUND:
            raise SpecSyntaxError(f"{context} must be below {EXACT_BOUND}", at)
        return n

    def prime(self, context: str) -> int:
        self.skip_ws()
        at = self.pos
        n = self.bounded_nat(context)
        try:
            return ensure_prime(n, context)
        except ValueError as exc:
            raise SpecSyntaxError(str(exc), at) from None

    def primeset(self) -> PrimeSet | list[int]:
        """A cofinite set, or the increasing members of a finite one."""
        self.skip_ws()
        if self.accept("all"):
            if self.accept("\\{"):
                excluded = [self.prime("excluded prime")]
                while self.accept(","):
                    excluded.append(self.prime("excluded prime"))
                self.expect("}")
                return PrimeSet.cofinite(excluded)
            return ALL_PRIMES
        if self.accept("{"):
            members = [self.prime("prime set member")]
            while self.accept(","):
                members.append(self.prime("prime set member"))
            self.expect("}")
            return sorted(set(members))
        raise self.error("expected a prime set")

    def exponent(self, p: int, context: str = "sumK") -> int:
        """An exponent k with p**k below ``EXACT_BOUND``, the bound on a Z/ modulus."""
        self.skip_ws()
        at = self.pos
        k = self.nat()
        # p >= 2, so an exponent past the bound's bit length overshoots it
        if k >= EXACT_BOUND.bit_length() or p**k >= EXACT_BOUND:
            raise SpecSyntaxError(f"{context} exponent: {p}^k must be below {EXACT_BOUND}", at)
        return k

    def expset(self, p: int) -> list[int] | None:
        """``None`` for ``all``, or the increasing members of a finite set."""
        self.skip_ws()
        if self.accept("all"):
            return None
        if self.accept("{"):
            at = self.pos
            exps = [self.exponent(p)]
            while self.accept(","):
                exps.append(self.exponent(p))
            self.expect("}")
            if any(k < 1 for k in exps):
                raise SpecSyntaxError("exponents must be >= 1", at)
            return sorted(set(exps))
        raise self.error("expected an exponent set")

    def atom(self) -> list[Entry]:
        self.skip_ws()
        if self.accept("Zhat("):
            p = self.prime("Zhat argument")
            self.expect(")")
            return [(PAdicComplete(p), _ONE)]
        if self.accept("Z/"):
            at = self.pos
            n = self.bounded_nat("Z/ modulus")
            if n in (0, 1):
                raise SpecSyntaxError(f"Z/{n} is not a valid modulus", at)
            return [(Cyclic(p, k), _ONE) for p, k in sorted(factorize(n).items())]
        if self.accept("Prufer("):
            p = self.prime("Prufer argument")
            self.expect(")")
            return [(Prufer(p), _ONE)]
        if self.accept("Q"):
            return [(Rationals(), _ONE)]
        if self.accept("sumP("):
            ps = self.primeset()
            listed = not isinstance(ps, PrimeSet)
            self.expect(";")
            self.skip_ws()
            if self.accept("Zhat"):
                self.expect(")")
                if listed:
                    return [(PAdicComplete(p), _ONE) for p in ps]
                return [(PAdicPrimeFamily(ps), _ONE)]
            if self.accept("Z/p^"):
                at = self.pos
                # bounded at the largest listed prime, or the least prime of a cofinite set
                k = self.exponent(ps[-1] if listed else ps.first_n(1)[0], "sumP")
                if k < 1:
                    raise SpecSyntaxError("exponent must be >= 1", at)
                self.expect(")")
                if listed:
                    return [(Cyclic(p, k), _ONE) for p in ps]
                return [(CyclicPrimeFamily(ps, k), _ONE)]
            raise self.error("expected 'Z/p^k' or 'Zhat'")
        if self.accept("sumK("):
            p = self.prime("sumK prime")
            self.expect(";")
            exps = self.expset(p)
            self.expect(")")
            if exps is None:
                return [(CyclicExponentFamily(p), _ONE)]
            return [(Cyclic(p, k), _ONE) for k in exps]
        raise self.error("expected a summand")

    def mult(self) -> Cardinal:
        self.skip_ws()
        if self.accept("aleph("):
            i = self.nat()
            self.expect(")")
            return Cardinal.aleph(i)
        if self.accept("w"):
            return ALEPH0
        return Cardinal.of(self.nat())

    def term(self) -> list[Entry]:
        entries = self.atom()
        if self.accept("^"):
            m = self.mult()
            entries = [(fam, m) for fam, _ in entries]
        return entries

    def spec(self) -> GroupSpec:
        self.skip_ws()
        if self.accept("0"):
            self.skip_ws()
            if self.pos != len(self.text):
                raise self.error("trailing input after '0'")
            return GroupSpec(())
        entries = self.term()
        while self.accept("+"):
            entries.extend(self.term())
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("trailing input")
        return normalize(entries)


def parse_spec(text: str) -> GroupSpec:
    """Parse an expression in the spec grammar and return its normal form.

    >>> str(parse_spec("Z/8^3 + Q^aleph(1)"))
    'Z/8^3 + Q^aleph(1)'
    >>> str(parse_spec("Z/6"))
    'Z/2 + Z/3'
    >>> parse_spec("Zhat(4)")
    Traceback (most recent call last):
        ...
    sb_abelian.groupspec.SpecSyntaxError: Zhat argument: 4 is not a prime number (at position 5)
    """
    return _Parser(text).spec()
