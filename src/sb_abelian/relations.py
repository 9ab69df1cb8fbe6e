"""Exhaustive search for small polynomial relations, by meet in the middle.

Both witness routes ask which q(x, y) = sum c_ij x^i y^j, with exponents at
most d and |c_ij| <= B, vanish (or hit a target) at given values: the p-adic
route mod p**N, the socle route at each prime of a window.  This is the only
module that enumerates coefficient vectors.  Their order is lexicographic:
the first monomial varies slowest, each coefficient runs from -B to B.

The monomials split into a high and a low half, each half's residues are
tabulated once, and a vector vanishes exactly when its halves satisfy
L = -R (Horowitz-Sahni), so the cost is two half tables plus one match per
pair.  The module also holds the seeded RNG, the H1/H2 grid shapes and the
retry count that both witness routes share.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Sequence

__all__ = [
    "BudgetExceeded", "RETRIES", "SCAN_BUDGET", "Survival", "check_grid", "first_relation",
    "grid_allows", "monomials", "search_space", "seeded_rng", "survival_scan",
]

Vector = tuple[int, ...]

SCAN_BUDGET = 100_000_000  # coefficient vectors in one socle scan
_BLOCK = 1 << 20  # elements per comparison buffer in a socle scan
GRID_NAMES = ("H1", "H2")
RETRIES = 8  # seeded draws a witness route tries before it gives up


class BudgetExceeded(RuntimeError):
    """A search space exceeds the configured candidate budget."""


def seeded_rng(label: str) -> random.Random:
    """An RNG seeded by a hash of ``label``, independent of hash randomization."""
    import hashlib  # loaded here: only the witness routes draw seeded values
    digest = hashlib.sha256(label.encode()).digest()
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


def first_relation(values: Sequence[int], height: int, modulus: int) -> Vector | None:
    """The first nonzero c in [-height, height]^n with sum c_k values_k = 0
    mod ``modulus``, or None.  The caller checks the budget first.

    >>> first_relation([1, 1], 1, 7)
    (-1, 1)
    """
    n, split = len(values), len(values) // 2

    def residues(part: Sequence[int]) -> list[int]:
        out = [0]
        for v in part:
            out = [(r + c * v) % modulus for r in out for c in range(-height, height + 1)]
        return out

    high, low = residues(values[:split]), residues(values[split:])
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

    Without a target the zero vector is left out.  Residues are compared as
    unsigned ints wide enough for the largest prime, and the pairs of half
    vectors are taken in blocks, so memory grows with the half tables only.
    Over :data:`SCAN_BUDGET` vectors raises :class:`BudgetExceeded`.
    """
    import numpy as np

    n, split, width = len(values), len(values) // 2, len(primes)
    candidates = search_space(n, height, SCAN_BUDGET)
    pvec = np.asarray(primes, dtype=np.int64)[:, None, None]
    coeffs = np.arange(-height, height + 1, dtype=np.int64)

    def residues(part: Sequence[Sequence[int]], offset: Sequence[int]) -> "np.ndarray":
        # one row per prime, one column per half vector
        out = np.asarray(offset, dtype=np.int64).reshape(width, 1)
        for row in part:
            v = np.asarray(row, dtype=np.int64)[:, None, None]
            out = ((out[:, :, None] + coeffs * v) % pvec).reshape(width, -1)
        return (out % pvec[:, :, 0]).astype(np.min_scalar_type(max(primes)))

    # c survives at p_w unless its high residue equals target - low residue
    high = residues(values[:split], [0] * width)
    need = residues([[-x for x in row] for row in values[split:]],
                    [0] * width if target is None else target)
    n_high, n_low = high.shape[1], need.shape[1]
    skip = n_high // 2 * n_low + n_low // 2 if target is None else -1
    rows = max(1, min(n_high, _BLOCK // n_low))
    equal = np.empty((rows, n_low), dtype=bool)
    matches = np.empty((rows, n_low), dtype=np.min_scalar_type(width + 1))
    hist = np.zeros(width + 2, dtype=np.int64)
    min_count, argmin = width + 1, -1
    for lo in range(0, n_high, rows):
        hi = min(lo + rows, n_high)
        eq, m = equal[: hi - lo], matches[: hi - lo]
        m[:] = 0
        for w in range(width):
            np.equal(high[w, lo:hi, None], need[w, None, :], out=eq)
            m += eq
        counts = (width - m).ravel()
        if lo * n_low <= skip < hi * n_low:
            counts[skip - lo * n_low] = width + 1  # a bin that is dropped
        hist += np.bincount(counts, minlength=width + 2)
        pos = int(counts.argmin())
        if counts[pos] < min_count:
            min_count, argmin = int(counts[pos]), lo * n_low + pos
    high_index, low_index = divmod(argmin, n_low)
    return Survival(
        candidates - (target is None), min_count,
        _decode(high_index, split, height) + _decode(low_index, n - split, height),
        tuple((c, k) for c, k in enumerate(hist[: width + 1].tolist()) if k),
    )
