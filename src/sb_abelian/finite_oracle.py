"""Brute-force ground truth on finite abelian groups.

Everything in this module works by exhaustive enumeration or exact integer
linear algebra, deliberately independent of the symbolic layer, so it can
serve as an oracle for it.  Groups are products of cyclic groups given by a
tuple of factor moduli; elements are coordinate tuples.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterable, Iterator, Sequence

from .groupspec import Cardinal, Cyclic, GroupSpec, Record, direct_sum, normalize
from .primes import factorize, primes

__all__ = [
    "FiniteAbelianGroup",
    "SmithNormalForm",
    "smith_normal_form",
    "is_pure_subgroup_bruteforce",
    "subgroup_closure",
    "ulm_bruteforce",
    "iso_finite_bruteforce",
    "socle_multiplicities_bruteforce",
    "NotAPGroupError",
    "OrderBoundError",
    "realize",
    "finite_abelian_specs",
    "partitions",
]

DEFAULT_ORDER_BOUND = 2**16

Element = tuple[int, ...]


class OrderBoundError(ValueError):
    """The requested group is larger than the enumeration bound."""


class NotAPGroupError(ValueError):
    """An element of order not a power of p exists."""


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

    __slots__ = ("factors", "order")

    def __init__(self, factors: Sequence[int], order_bound: int = DEFAULT_ORDER_BOUND):
        factors = tuple(int(n) for n in factors)
        if any(n < 2 for n in factors):
            raise ValueError(f"factors must be >= 2, got {factors}")
        self.factors = factors
        self.order = math.prod(factors)
        if self.order > order_bound:
            raise OrderBoundError(f"group order {self.order} exceeds bound {order_bound}")

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

    def neg(self, a: Element) -> Element:
        return tuple((-x) % n for x, n in zip(a, self.factors))

    def smul(self, c: int, a: Element) -> Element:
        return tuple((c * x) % n for x, n in zip(a, self.factors))

    def scaled_set(self, c: int) -> frozenset[Element]:
        """The image c*G."""
        return frozenset(self.smul(c, g) for g in self.elements())

    def torsion_set(self, c: int) -> frozenset[Element]:
        """The kernel of multiplication by c."""
        zero = self.zero
        return frozenset(g for g in self.elements() if self.smul(c, g) == zero)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteAbelianGroup) and self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def __repr__(self) -> str:
        return f"FiniteAbelianGroup({self.factors})"


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


class SmithNormalForm(Record):
    """U @ A @ V == D with U, V unimodular and D diagonal, d_i | d_{i+1}.

    ``invariant_factors`` lists the diagonal entries > 1; ``free_rank`` is
    the number of zero diagonal entries padded to the row count (the rank of
    the free part of the cokernel when A presents relations on row
    generators).
    """

    diagonal: tuple[int, ...]
    u: tuple[tuple[int, ...], ...]
    v: tuple[tuple[int, ...], ...]
    rows: int
    cols: int

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal if d > 1)

    @property
    def free_rank(self) -> int:
        return self.rows - sum(1 for d in self.diagonal if d != 0)


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    return [
        [sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> SmithNormalForm:
    """Exact Smith normal form over Z with transform tracking.

    >>> smith_normal_form([[2, 0], [0, 3]]).invariant_factors
    (6,)
    >>> smith_normal_form([[4, 2], [0, 2]]).invariant_factors
    (2, 4)
    >>> smith_normal_form([[1, 0], [0, 1]]).invariant_factors
    ()
    """
    a = [list(map(int, row)) for row in matrix]
    if not a or not a[0]:
        raise ValueError("matrix must be nonempty")
    rows, cols = len(a), len(a[0])
    if any(len(row) != cols for row in a):
        raise ValueError("ragged matrix")
    u = _identity(rows)
    v = _identity(cols)

    def row_op(i: int, j: int, q: int) -> None:  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i: int, j: int, q: int) -> None:  # col_i -= q * col_j
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def swap_rows(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(rows, cols):
        # find a pivot of minimal absolute value in the trailing block
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            # clear column t then row t; restart if a remainder pops up
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t] != 0:  # remainder smaller than pivot: promote it
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # pivot must divide every entry of the trailing block
            stray = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % a[t][t] != 0:
                        stray = i
                        break
                if stray is not None:
                    break
            if stray is None:
                break
            # fold the offending row into row t and keep reducing
            a[t] = [x + y for x, y in zip(a[t], a[stray])]
            u[t] = [x + y for x, y in zip(u[t], u[stray])]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    diag = tuple(a[i][i] for i in range(min(rows, cols)))
    snf = SmithNormalForm(
        diagonal=diag,
        u=tuple(tuple(r) for r in u),
        v=tuple(tuple(r) for r in v),
        rows=rows,
        cols=cols,
    )
    # sanity: U A V must reproduce the diagonal
    check = _mat_mul(_mat_mul([list(r) for r in snf.u], [list(map(int, r)) for r in matrix]),
                     [list(r) for r in snf.v])
    for i in range(rows):
        for j in range(cols):
            expect = diag[i] if i == j and i < len(diag) else 0
            if check[i][j] != expect:
                raise AssertionError("Smith reduction produced inconsistent transforms")
    return snf


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
    """Exhaustive purity test: nG  intersect  H == nH for every 1 <= n <= exponent.

    >>> is_pure_subgroup_bruteforce(FiniteAbelianGroup((4,)), [(2,)])
    False
    >>> is_pure_subgroup_bruteforce(FiniteAbelianGroup((2, 4)), [(1, 0)])
    True
    """
    members = subgroup_closure(group, generators)
    for n in range(1, group.exponent + 1):
        in_big = group.scaled_set(n)
        in_sub = frozenset(group.smul(n, h) for h in members)
        for h in members:
            if h in in_big and h not in in_sub:
                return False
    return True


def ulm_bruteforce(group: FiniteAbelianGroup, p: int, i: int) -> int:
    """The i-th Ulm value of a finite abelian p-group at p.

    Computes heights exhaustively: with P_i the set of order-p elements of
    height >= i, the value is dim_{F_p}(P_i / P_{i+1}).  For a direct sum of
    cyclic p-groups this counts the Z/p**(i+1) summands.

    >>> ulm_bruteforce(FiniteAbelianGroup((2, 8)), 2, 0)
    1
    >>> ulm_bruteforce(FiniteAbelianGroup((8,)), 2, 2)
    1
    """
    if i < 0:
        raise ValueError(f"Ulm index must be >= 0, got {i}")
    for n in group.factors:
        fact = factorize(n)
        if any(q != p for q in fact):
            raise NotAPGroupError(f"factor {n} is not a power of {p}")
    order_p = group.torsion_set(p)
    layer = order_p & group.scaled_set(p**i)
    next_layer = order_p & group.scaled_set(p ** (i + 1))
    ratio = len(layer) // len(next_layer)
    dim = 0
    while ratio > 1:
        ratio //= p
        dim += 1
    return dim


@functools.lru_cache(maxsize=None)
def _invariant_factors_cached(group: FiniteAbelianGroup) -> tuple[int, ...]:
    if not group.factors:
        return ()
    n = len(group.factors)
    diag = [[group.factors[i] if i == j else 0 for j in range(n)] for i in range(n)]
    return smith_normal_form(diag).invariant_factors


def iso_finite_bruteforce(g: FiniteAbelianGroup, h: FiniteAbelianGroup) -> bool:
    """Isomorphism of finite abelian groups via Smith normal form.

    The invariant factors of the diagonal presentation matrix classify the
    group up to isomorphism.

    >>> iso_finite_bruteforce(FiniteAbelianGroup((6,)), FiniteAbelianGroup((2, 3)))
    True
    >>> iso_finite_bruteforce(FiniteAbelianGroup((4,)), FiniteAbelianGroup((2, 2)))
    False
    """
    return _invariant_factors_cached(g) == _invariant_factors_cached(h)


def socle_multiplicities_bruteforce(group: FiniteAbelianGroup) -> dict[int, int]:
    """{p: dim of the p-part of the subgroup generated by prime-order elements}.

    The socle of a finite abelian group is elementary abelian; its p-part
    has dimension log_p |G[p]|.
    """
    out: dict[int, int] = {}
    for p in sorted(factorize(group.order)) if group.order > 1 else []:
        size = len(group.torsion_set(p))
        dim = 0
        while size > 1:
            size //= p
            dim += 1
        out[p] = dim
    return out


# ---------------------------------------------------------------------------
# Bridging specs and concrete groups
# ---------------------------------------------------------------------------


def realize(spec: GroupSpec, order_bound: int = DEFAULT_ORDER_BOUND) -> FiniteAbelianGroup:
    """Materialize a finite spec (cyclic entries, finite multiplicities).

    >>> realize(normalize([(Cyclic(2, 2), Cardinal.of(1)), (Cyclic(3, 1), Cardinal.of(2))])).factors
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


def partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n as weakly decreasing tuples (empty for n=0)."""
    if n == 0:
        yield ()
        return

    def rec(remaining: int, maximum: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield prefix
            return
        for part in range(min(remaining, maximum), 0, -1):
            yield from rec(remaining - part, part, prefix + (part,))

    yield from rec(n, n, ())


def finite_abelian_specs(
    max_order: int, prime: int | None = None
) -> Iterator[GroupSpec]:
    """All finite abelian groups of order <= max_order, as normalized specs.

    With ``prime`` given, only p-groups for that prime (including the trivial
    group).  Specs are produced in a deterministic order.
    """

    def p_group_specs(p: int, max_exp: int) -> Iterator[tuple[GroupSpec, int]]:
        for e in range(max_exp + 1):
            for lam in partitions(e):
                entries = [(Cyclic(p, k), Cardinal.of(lam.count(k))) for k in set(lam)]
                yield normalize(entries), p**e

    def max_exp_for(p: int) -> int:
        e = 0
        while p ** (e + 1) <= max_order:
            e += 1
        return e

    if prime is not None:
        for spec, _ in p_group_specs(prime, max_exp_for(prime)):
            yield spec
        return

    per_prime = [list(p_group_specs(p, max_exp_for(p))) for p in iter_primes_upto(max_order)]

    def combine(idx: int, acc_spec: GroupSpec, acc_order: int) -> Iterator[GroupSpec]:
        if idx == len(per_prime):
            yield acc_spec
            return
        for spec, order in per_prime[idx]:
            if acc_order * order <= max_order:
                yield from combine(idx + 1, direct_sum(acc_spec, spec), acc_order * order)

    yield from combine(0, normalize([]), 1)


def iter_primes_upto(bound: int) -> Iterator[int]:
    for p in primes():
        if p > bound:
            return
        yield p
