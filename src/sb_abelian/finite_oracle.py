"""Brute-force ground truth on finite abelian groups.

Everything in this module works by enumerating elements, deliberately
independent of the symbolic layer, so it can serve as an oracle for it.
Groups are products of cyclic groups given by a tuple of factor moduli;
elements are coordinate tuples.

No check lists the whole group: for G = Z/n_1 x ... x Z/n_r, G[p] and cG are
the products of the Z/n_j[p] and of the gcd(c, n_j)Z/n_j, so a layer size
|G[p] & cG| is a product of per-factor counts, and h lies in nG exactly when
gcd(n, n_j) divides each coordinate h_j.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Iterable, Iterator, Sequence

from .groupspec import BudgetExceeded, Cyclic, GroupSpec
from .primes import factorize, is_prime, p_valuation

__all__ = [
    "FiniteAbelianGroup",
    "is_pure_subgroup_bruteforce",
    "subgroup_closure",
    "ulm_bruteforce",
    "iso_finite_bruteforce",
    "socle_multiplicities_bruteforce",
    "OrderBoundError",
    "realize",
]

DEFAULT_ORDER_BOUND = 2**16

Element = tuple[int, ...]


class OrderBoundError(BudgetExceeded):
    """The requested group is larger than the enumeration bound."""


class FiniteAbelianGroup:
    """Z/n_1 x ... x Z/n_r with coordinatewise arithmetic.

    Factors need not be prime powers.  The empty factor list is the trivial
    group.

    >>> G = FiniteAbelianGroup((2, 4))
    >>> G.order, G.exponent
    (8, 4)
    >>> G.add((1, 3), (1, 2))
    (0, 1)
    """

    __slots__ = ("factors", "order", "_histogram")

    def __init__(self, factors: Sequence[int], order_bound: int = DEFAULT_ORDER_BOUND):
        factors = tuple(factors)
        if any(type(n) is not int or n < 2 for n in factors):  # a bool, float or str too
            raise ValueError(f"factors must be >= 2, got {factors}")
        self.factors = factors
        self.order = math.prod(factors)
        if self.order > order_bound:
            raise OrderBoundError(f"group order {self.order} exceeds bound {order_bound}")
        # a per-instance memo: a module-level cache would keep every group alive
        self._histogram: tuple[tuple[int, int], ...] | None = None

    @property
    def exponent(self) -> int:
        return math.lcm(*self.factors) if self.factors else 1

    @property
    def zero(self) -> Element:
        return (0,) * len(self.factors)

    def elements(self) -> Iterator[Element]:
        return itertools.product(*(range(n) for n in self.factors))

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % n for x, y, n in zip(a, b, self.factors))

    def smul(self, c: int, a: Element) -> Element:
        return tuple((c * x) % n for x, n in zip(a, self.factors))

    def order_histogram(self) -> tuple[tuple[int, int], ...]:
        """Sorted (order, count) pairs over all elements, memoized per group.

        An element's order is the lcm of its coordinate orders n // gcd(a, n).
        The counts are folded in one factor at a time, over its distinct gcds,
        so the work grows with the sum of the factors, not with their product.

        >>> FiniteAbelianGroup((2, 4)).order_histogram()
        ((1, 1), (2, 3), (4, 4))
        """
        if self._histogram is None:
            counts = Counter({1: 1})
            for n in self.factors:
                gcds = Counter(map(math.gcd, range(n), itertools.repeat(n)))
                step: Counter[int] = Counter()
                for order, count in counts.items():
                    for g, k in gcds.items():
                        step[math.lcm(order, n // g)] += count * k
                counts = step
            self._histogram = tuple(sorted(counts.items()))
        return self._histogram

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteAbelianGroup) and self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def __repr__(self) -> str:
        return f"FiniteAbelianGroup({self.factors})"


# ---------------------------------------------------------------------------
# Purity, Ulm values, isomorphism
# ---------------------------------------------------------------------------


def subgroup_closure(group: FiniteAbelianGroup, generators: Iterable[Element]) -> frozenset[Element]:
    """The subgroup generated by ``generators``."""
    gens = [tuple(g) for g in generators]
    for g in gens:
        if len(g) != len(group.factors):
            raise ValueError(f"element {g} does not live in {group}")
    seen = {group.zero}
    frontier = [group.zero]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                s = group.add(h, g)
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
    return frozenset(seen)


def is_pure_subgroup_bruteforce(
    group: FiniteAbelianGroup, generators: Iterable[Element]
) -> bool:
    """Exhaustive purity test: nG  intersect  H == nH for every n dividing e = exponent.

    Divisors suffice: eG = 0, so nG = gcd(n, e)G and nH = gcd(n, e)H for every n.
    h lies in nG when gcd(n, n_j) divides each coordinate h_j.

    >>> is_pure_subgroup_bruteforce(FiniteAbelianGroup((4,)), [(2,)])
    False
    >>> is_pure_subgroup_bruteforce(FiniteAbelianGroup((2, 4)), [(1, 0)])
    True
    """
    members = subgroup_closure(group, generators)
    e = group.exponent
    for n in (d for d in range(1, e + 1) if e % d == 0):
        steps = [math.gcd(n, m) for m in group.factors]
        in_sub = frozenset(group.smul(n, h) for h in members)
        for h in members:
            if h not in in_sub and all(x % d == 0 for x, d in zip(h, steps)):
                return False
    return True


def _socle_layer_size(group: FiniteAbelianGroup, p: int, c: int) -> int:
    """|G[p] & cG|: Z/n[p] is the multiples of n // gcd(p, n), cZ/n those of gcd(c, n)."""
    size = 1
    for n in group.factors:
        d = math.gcd(c, n)
        size *= sum(1 for x in range(0, n, n // math.gcd(p, n)) if x % d == 0)
    return size


def ulm_bruteforce(group: FiniteAbelianGroup, p: int, i: int) -> int:
    """The i-th Ulm value of a finite abelian group at p.

    With P_i = (p**i G)[p], the elements of order dividing p and height >= i,
    the value is dim_{F_p}(P_i / P_{i+1}).  It counts the Z/p**(i+1) summands
    of the p-part; the other primes' parts meet G[p] only in 0.

    >>> ulm_bruteforce(FiniteAbelianGroup((2, 8)), 2, 0)
    1
    >>> ulm_bruteforce(FiniteAbelianGroup((8,)), 2, 2)
    1
    """
    if i < 0 or not is_prime(p):
        raise ValueError(f"need a prime p and an Ulm index >= 0, got p={p}, i={i}")
    layer = _socle_layer_size(group, p, p**i)
    return p_valuation(layer // _socle_layer_size(group, p, p ** (i + 1)), p)


def iso_finite_bruteforce(g: FiniteAbelianGroup, h: FiniteAbelianGroup) -> bool:
    """Isomorphism of finite abelian groups by counting elements of each order.

    The counts fix |G[d]| for every d, which classifies a finite abelian
    group up to isomorphism.

    >>> iso_finite_bruteforce(FiniteAbelianGroup((6,)), FiniteAbelianGroup((2, 3)))
    True
    >>> iso_finite_bruteforce(FiniteAbelianGroup((4,)), FiniteAbelianGroup((2, 2)))
    False
    """
    return g.order_histogram() == h.order_histogram()


def socle_multiplicities_bruteforce(group: FiniteAbelianGroup) -> dict[int, int]:
    """{p: dim of the p-part of the subgroup generated by prime-order elements}.

    The socle of a finite abelian group is elementary abelian; its p-part
    has dimension log_p |G[p]|.
    """
    return {p: p_valuation(_socle_layer_size(group, p, 1), p) for p in factorize(group.order)}


# ---------------------------------------------------------------------------
# Bridging specs and concrete groups
# ---------------------------------------------------------------------------


def realize(spec: GroupSpec, order_bound: int = DEFAULT_ORDER_BOUND) -> FiniteAbelianGroup:
    """Materialize a finite spec (cyclic entries, finite multiplicities).

    >>> from sb_abelian.groupspec import parse_spec
    >>> realize(parse_spec("Z/4 + Z/3^2")).factors
    (3, 3, 4)
    """
    for fam, mult in spec.entries:
        if not isinstance(fam, Cyclic) or not mult.is_finite:
            raise ValueError(f"spec is not finite: entry {fam}^{mult}")
    # p**k >= 2**(k * (bit length of p - 1)): refuse an order past the bound
    # from these lower bounds, before listing the factors or multiplying them
    bits = sum(mult.value * fam.k * (fam.p.bit_length() - 1) for fam, mult in spec.entries)
    if bits > order_bound.bit_length():
        raise OrderBoundError(f"group order, at least 2^{bits}, exceeds bound {order_bound}")
    factors = [fam.modulus for fam, mult in spec.entries for _ in range(mult.value)]
    return FiniteAbelianGroup(tuple(sorted(factors)), order_bound=order_bound)
