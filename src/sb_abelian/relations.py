"""Exhaustive search for small polynomial relations, by meet in the middle.

Both witness routes ask which q(x, y) = sum c_ij x^i y^j, with exponents at
most d and |c_ij| <= B, vanish (or hit a target) at given values: the p-adic
route mod p**N, the socle route at each prime of a window.  This is the only
module that enumerates coefficient vectors.  Their order is lexicographic:
the first monomial varies slowest, each coefficient runs from -B to B.

The monomials split into a high and a low half, each half's residues are
tabulated once, and a vector vanishes exactly when its halves satisfy
L = -R (Horowitz-Sahni).  The socle scan counts this for every vector.  It
walks the high halves (rows) in blocks: per prime it joins the low halves' row
masks along a block's rows into one int for bit-sliced counters, tallied and
dropped before the next block; T targets split one target's block T ways, so a
scan of any size holds one single-target block's counters.  The module also
holds :func:`terms` and the RNG, grid shapes and retries both routes share.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache
from typing import NamedTuple, Sequence

from .groupspec import BudgetExceeded

__all__ = [
    "BudgetExceeded", "GRIDS", "RETRIES", "SCAN_BUDGET", "Survival", "check_grid",
    "first_relation", "grid_allows", "monomials", "relation_str", "search_space", "seeded_rng",
    "survival_scan", "survival_scans", "terms",
]

Vector = tuple[int, ...]

SCAN_BUDGET = 100_000_000  # coefficient vectors in one socle scan
_BLOCK_BITS = 1 << 20  # lanes of a block over all targets: ops on larger ints leave the cache
_MEMO_BYTES = 1 << 23  # row masks kept across blocks (8 MB); past it a prime rebuilds its own
GRID_NAMES = ("H1", "H2")
GRIDS = {"H1": "all (i, j)", "H2": "i >= 1, plus (0, 0)"}  # grid_allows, as witnesses print it
RETRIES = 8  # seeded draws a witness route tries before it gives up


@lru_cache(maxsize=None)
def _sha256():
    """The interpreter's own SHA-256, as ``random`` uses its own SHA-512: hashlib loads
    OpenSSL.  Found once, so no draw pays for a failed import."""
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    return sha256


def seeded_rng(label: str) -> random.Random:
    """An RNG seeded by a hash of ``label``, independent of hash randomization."""
    digest = _sha256()(label.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def check_grid(which: str) -> None:
    """Reject a subgroup name other than H1 and H2."""
    if which not in GRID_NAMES:
        raise ValueError(f"which must be one of {GRID_NAMES}, not {which!r}")


def grid_allows(which: str, i: int, j: int) -> bool:
    """Whether subgroup ``which``'s grid holds (i, j): H1 all of it, H2 the
    right half-grid plus the origin (i >= 1, or j == 0)."""
    return which == "H1" or i >= 1 or j == 0


def monomials(max_exponent: int) -> list[tuple[int, int]]:
    """The exponent pairs (i, j), both at most ``max_exponent``, in order.

    >>> monomials(1)
    [(0, 0), (0, 1), (1, 0), (1, 1)]
    """
    return [(i, j) for i in range(max_exponent + 1) for j in range(max_exponent + 1)]


def terms(pairs: Sequence[tuple[int, int]], vector: Sequence[int]) -> tuple[Vector, ...]:
    """The nonzero terms (i, j, c) of sum c_k x^i y^j over (i, j) in ``pairs``, sorted:
    the one form of a relation polynomial in certificates and their JSON."""
    return tuple(sorted((i, j, c) for (i, j), c in zip(pairs, vector) if c))


def relation_str(relation: Sequence[Vector]) -> str:
    """The polynomial of sorted :func:`terms` as text, such as ``1 + y + x + x*y``."""
    if not relation:
        return "0"
    parts = []
    for i, j, c in relation:
        factors = [str(abs(c))] if abs(c) != 1 or i == j == 0 else []
        if i:
            factors.append("x" if i == 1 else f"x^{i}")
        if j:
            factors.append("y" if j == 1 else f"y^{j}")
        parts.append(("- " if c < 0 else "+ ") + "*".join(factors))
    rendered = " ".join(parts)
    return rendered[2:] if rendered.startswith("+ ") else "-" + rendered[2:]


def search_space(positions: int, height: int, budget: int | None) -> int:
    """The size of [-height, height]^positions; raises :class:`BudgetExceeded`
    above ``budget`` (None: unlimited), so no partial search is certified."""
    candidates = (2 * height + 1) ** positions
    if budget is not None and candidates > budget:
        raise BudgetExceeded(
            f"{candidates} candidate polynomials exceed the budget of {budget}"
        )
    return candidates


def _decode(index: int, positions: int, height: int) -> Vector:
    digits = []
    for _ in range(positions):
        index, digit = divmod(index, 2 * height + 1)
        digits.append(digit - height)
    return tuple(reversed(digits))


def _residues(values: Sequence[int], modulus: int, coeffs: range, out: list[int]) -> list[int]:
    """(r + sum c_k values_k) % modulus for r in ``out`` and c_k in ``coeffs``, in order:
    r varies slowest, then c_1, c_2, ..."""
    for v in values:
        steps = [c * v % modulus for c in coeffs]
        out = [(r + s) % modulus for r in out for s in steps]
    return out


def first_relation(values: Sequence[int], height: int, modulus: int) -> Vector | None:
    """The first nonzero c in [-height, height]^n with sum c_k values_k = 0
    mod ``modulus``, or None.  The caller checks the budget first.

    >>> first_relation([1, 1], 1, 7)
    (-1, 1)
    """
    n, split, coeffs = len(values), len(values) // 2, range(-height, height + 1)
    high, low = (_residues(part, modulus, coeffs, [0]) for part in (values[:split], values[split:]))
    high_zero, low_zero = len(high) // 2, len(low) // 2  # the zero vectors
    first: dict[int, int] = {}
    for index, r in enumerate(low):
        first.setdefault(r, index)
    # beside the zero high half, the low half must be nonzero itself
    root = first[0] if first[0] != low_zero else next(
        (k for k in range(low_zero + 1, len(low)) if low[k] == 0), None)
    for index, r in enumerate(high):
        match = root if index == high_zero else first.get(-r % modulus)
        if match is not None:
            return _decode(index, split, height) + _decode(match, n - split, height)
    return None


class Survival(NamedTuple):
    """Survival counts of a scan: ``histogram`` holds (count, vectors) pairs
    with vectors > 0; ``argmin`` is the first vector of minimal count."""

    candidates: int
    min_count: int
    argmin: Vector
    histogram: tuple[tuple[int, int], ...]


def survival_scan(
    values: Sequence[Sequence[int]], primes: Sequence[int], height: int,
    target: Sequence[int] | None = None,
) -> Survival:
    """For every c in [-height, height]^n, count the window primes p_w where
    sum_k c_k values[k][w] - target[w] is nonzero mod p_w.

    Without a target the zero vector is left out; c and -c vanish at the same
    primes, so only the vectors before it are scanned, each counted twice.
    Over :data:`SCAN_BUDGET` vectors raises :class:`BudgetExceeded`.
    """
    return survival_scans(values, primes, height, None if target is None else [target])[0]


def _add(levels: list[list[int]], mask: int) -> None:
    """Add a 0/1 mask into carry-save counters: ``levels[j]`` holds at most two masks
    of weight 2^j, and a full adder folds a third into one and a carry (5 ops)."""
    for level in levels:
        if len(level) < 2:
            level.append(mask)
            return
        a, b = level
        level[:] = [a ^ b ^ mask]
        mask = a & b | (a ^ b) & mask
    levels.append([mask])


def _tally(levels: list[list[int]], lanes: int) -> tuple[dict[int, int], tuple[int, int]]:
    """({count: number of its lanes} within ``lanes``, (largest count, its first lane)).

    The levels are emptied into bit planes as they are added, and the planes
    are walked depth first from the top plane down, the higher count first: at
    most one mask per plane is held, only counts that occur form, and the first
    leaf has the largest count.
    """
    planes, carry = [], 0
    for level in levels:
        a, b, c = (*level, carry, 0, 0)[:3]
        level.clear()
        planes.append(a ^ b ^ c)
        carry = a & b | (a ^ b) & c
    planes.append(carry)
    totals: dict[int, int] = {}
    first = (-1, -1)
    stack = [(len(planes), 0, lanes)] if lanes else []
    while stack:
        j, count, mask = stack.pop()
        if not j:
            if not totals:
                first = (count, (mask & -mask).bit_length() - 1)
            totals[count] = mask.bit_count()
            continue
        one = mask & planes[j - 1]
        if one != mask:
            stack.append((j - 1, count, mask ^ one))
        if one:
            stack.append((j - 1, count | 1 << j - 1, one))
    return totals, first


def survival_scans(
    values: Sequence[Sequence[int]], primes: Sequence[int], height: int,
    targets: Sequence[Sequence[int]] | None,
) -> list[Survival]:
    """:func:`survival_scan` for each target over one value table, sharing
    each prime's residues and row masks; None scans once without a target."""
    # A vector is a (row, lane) pair of its high and smaller low half.  A row's
    # residue is its prefix's plus its suffix's, so a block computes only its own.
    n, width, half = len(values), len(primes), targets is None
    targets = [[0] * width] if half else targets
    candidates = search_space(n, height, SCAN_BUDGET)
    split, coeffs = n - n // 2, range(-height, height + 1)
    cut = split - split // 2  # the prefix's monomials
    n_high, n_low = (2 * height + 1) ** split, (2 * height + 1) ** (n - split)
    n_suffix = (2 * height + 1) ** (split - cut)
    size, bits = (n_low + 7) // 8, [(lane >> 3, 1 << (lane & 7)) for lane in range(n_low)]
    empty, units = bytes(size), [(1 << lane).to_bytes(size, "little") for lane in range(n_low)]
    rows, last = (n_high // 2 + 1, n_low // 2) if half else (n_high, n_low)
    full, tail = (((1 << k) - 1).to_bytes(size, "little") for k in (n_low, last))
    block = max(1, _BLOCK_BITS // len(targets) // (8 * size))  # rows of one block
    memo: dict[int, tuple[list[int], list[int], list]] = {}
    room = _MEMO_BYTES if rows > block else 0
    hist, best = [Counter() for _ in targets], [(-1, 0)] * len(targets)
    for lo in range(0, rows, block):
        hi = min(rows, lo + block)
        start, stop = lo // n_suffix, (hi - 1) // n_suffix + 1
        levels: list[list[list[int]]] = [[] for _ in targets]
        for w, p in enumerate(primes):
            if w in memo:
                prefix, suffix, masks = memo[w]
            else:
                # -residues of the row prefixes (without a target, none past the
                # zero vector) and suffixes, and the low half's mask per residue
                first = [-c * values[0][w] % p for c in (range(-height, 1) if half else coeffs)]
                prefix = _residues([-row[w] for row in values[1:cut]], p, coeffs, first)
                suffix = _residues([-row[w] for row in values[cut:split]], p, coeffs, [0])
                low = _residues([row[w] for row in values[split:]], p, coeffs, [0])
                masks, owned = [empty] * p, 0
                for r, unit, (at, bit) in zip(low, units, bits):
                    mask = masks[r]
                    if mask is empty:  # a residue's first lane shares its unit mask
                        masks[r] = unit
                    else:
                        if mask.__class__ is bytes:
                            mask, owned = bytearray(mask), owned + 1
                            masks[r] = mask
                        mask[at] |= bit
                cost = 8 * p + size * owned
                if cost <= room:
                    memo[w], room = (prefix, suffix, masks), room - cost
            high = [(a + b) % p for a in prefix[start:stop] for b in suffix]
            high = high[lo - start * n_suffix:hi - start * n_suffix]
            for target, counters in zip(targets, levels):
                t = target[w] % p  # lanes whose low residue is t - high residue
                rotated = masks[t:] + masks[:t]
                _add(counters, int.from_bytes(b"".join(map(rotated.__getitem__, high)), "little"))
        lanes = int.from_bytes(full * (hi - lo - 1) + (tail if hi == rows else full), "little")
        for k, counters in enumerate(levels):
            totals, (top, lane) = _tally(counters, lanes)
            hist[k].update(totals)
            if top > best[k][0]:
                best[k] = (top, lo * 8 * size + lane)
    return [
        Survival(candidates - half, width - top,
                 _decode(lane // (8 * size) * n_low + lane % (8 * size), n, height),
                 tuple(sorted((width - v, k * (1 + half)) for v, k in counts.items())))
        for counts, (top, lane) in zip(hist, best)
    ]
