"""Exhaustive search for small polynomial relations, by meet in the middle.

Both witness routes ask which q(x, y) = sum c_ij x^i y^j, with exponents at
most d and |c_ij| <= B, vanish (or hit a target) at given values: the p-adic
route mod p**N, the socle route at each prime of a window.  This is the only
module that enumerates coefficient vectors.  Their order is lexicographic:
the first monomial varies slowest, each coefficient runs from -B to B.  A
vector and its negative vanish together, so a search without a target looks
only before the zero vector, the middle of that order.

The monomials split into a high and a low half, each half's residues are
tabulated once, and a vector vanishes exactly when its halves satisfy
L = -R (Horowitz-Sahni).  The socle scan counts this for every vector in
bit-sliced counters over Python ints, a row per high half and a lane per low
half.  The rows that share a prefix of the high monomials form a group, whose
mask at a prime depends only on the prefix's residue plus the target: per
block of groups, each prime builds one table of masks, one per residue that a
group or target asks for, and every (group, target) pair adds its lookup into
its own counters.  One depth-first walk of a group's counters' bit planes
yields each count that occurs, the largest first: the scan without a target
adds them all into an exact histogram, and a target scan stops at the first.
Groups and blocks are sized from one lane budget, which T targets split T
ways.  Past the number of targets that hold one group each within it, the
targets are scanned in batches of that many, so a scan of any size holds about
one single-target block's counters.  A scan of several blocks or batches
keeps, within a memo, the smallest primes' low masks and the other primes'
residues across them.  The module also holds :func:`terms` and the RNG, grid
shapes and retry loop both routes share.
"""

from __future__ import annotations

import random
from array import array
from collections import Counter
from functools import lru_cache
from itertools import chain, product
from typing import Callable, Iterator, NamedTuple, Sequence

from .groupspec import BudgetExceeded
from .primes import ensure_at_least

__all__ = [
    "GRIDS", "RETRIES", "RetriesExhausted", "SCAN_BUDGET", "Survival", "check_grid",
    "first_passing", "first_relation", "grid_allows", "monomials", "relation_str", "search_space",
    "seeded_rng", "survival_scans", "terms",
]

Vector = tuple[int, ...]

SCAN_BUDGET = 100_000_000  # coefficient vectors in one socle scan
_BLOCK_BITS = 1 << 20  # lanes of counters one block holds, over all its targets
_LOOKUPS = 8  # a group's mask holds at most 1/_LOOKUPS of a block's lanes
_MEMO_BYTES = 1 << 23  # masks, then residues, kept across blocks (8 MB); past it, per block
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


class RetriesExhausted(BudgetExceeded):
    """No draw of a witness route passed its certificate: ``certificates`` holds
    each attempt's, in order, and ``attempts`` counts them (0 if none was drawn)."""

    def __init__(self, message: str, certificates: Sequence = ()):
        super().__init__(message)
        self.certificates = tuple(certificates)
        self.attempts = len(self.certificates)


def first_passing(draw: Callable[[int], tuple], failure: Callable[[list], str]) -> tuple:
    """The first of ``draw(0)``, ..., ``draw(RETRIES - 1)`` whose certificate, its
    last item, passed; if none did, :class:`RetriesExhausted` with the message
    ``failure(certificates)``."""
    certificates = []
    for attempt in range(RETRIES):
        drawn = draw(attempt)
        if drawn[-1].passed:
            return drawn
        certificates.append(drawn[-1])
    raise RetriesExhausted(failure(certificates), certificates)


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
    span = range(ensure_at_least(max_exponent, 0, "max_exponent") + 1)
    return [(i, j) for i in span for j in span]


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
    above ``budget`` (None: unlimited), so no partial search is certified.

    Every search checks its bounds here: ``ValueError`` for a height below 1
    or no positions, where the search would be empty and certify nothing.
    """
    ensure_at_least(height, 1, "height_bound")
    if positions < 1:
        raise ValueError("a search needs at least one monomial")
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
    search_space(len(values), height, None)
    ensure_at_least(modulus, 1, "modulus")
    n, split, coeffs = len(values), len(values) // 2, range(-height, height + 1)
    high, low = (_residues(part, modulus, coeffs, [0]) for part in (values[:split], values[split:]))
    high_zero, low_zero = len(high) // 2, len(low) // 2  # the zero vectors
    first: dict[int, int] = {}
    for index, r in enumerate(low):
        first.setdefault(r, index)
    # c and -c vanish together, and the one that leads with a negative coefficient
    # comes first, so the first nonzero vanishing vector precedes the zero vector:
    # no high half past the zero one is searched, and beside the zero high half
    # only a low half before the zero low vector counts (first[0] is never past it)
    for index, r in enumerate(high[:high_zero + 1]):
        match = first.get(-r % modulus)
        if match is not None and (index, match) != (high_zero, low_zero):
            return _decode(index, split, height) + _decode(match, n - split, height)
    return None


class Survival(NamedTuple):
    """Survival counts of a scan: ``histogram`` holds (count, vectors) pairs
    with vectors > 0, and is empty for a scan with targets; ``argmin`` is the
    first vector of minimal count."""

    candidates: int
    min_count: int
    argmin: Vector
    histogram: tuple[tuple[int, int], ...]


def _add(levels: list[list[int]], mask: int) -> None:
    """Add a 0/1 mask into carry-save counters: ``levels[j]`` holds at most two masks
    of weight 2^j, and a full adder folds a third into one and a carry (5 ops)."""
    for level in levels:
        if len(level) < 2:
            level.append(mask)
            return
        a, b = level
        ab = a ^ b
        level[:] = [ab ^ mask]
        mask = a & b | ab & mask
    levels.append([mask])


def _planes(levels: list[list[int]]) -> list[int]:
    """Empty carry-save counters into bit planes: a lane's count has bit j set
    exactly where plane j does."""
    planes, carry = [], 0
    for level in levels:
        a, b, c = (*level, carry, 0, 0)[:3]
        level.clear()
        planes.append(a ^ b ^ c)
        carry = a & b | (a ^ b) & c
    planes.append(carry)
    return planes


def _leaves(levels: list[list[int]], lanes: int) -> Iterator[tuple[int, int]]:
    """(count, mask of its lanes) for each count that occurs within ``lanes``, the
    largest first: the planes are walked depth first from the top plane down, the
    higher count first, holding at most one mask per plane."""
    planes = _planes(levels)
    stack = [(len(planes), 0, lanes)] if lanes else []
    while stack:
        j, count, mask = stack.pop()
        if not j:
            yield count, mask
            continue
        one = mask & planes[j - 1]
        if one != mask:
            stack.append((j - 1, count, mask ^ one))
        if one:
            stack.append((j - 1, count | 1 << j - 1, one))


def _prime_residues(
    values: Sequence[Sequence[int]], height: int, split: int, cut: int, w: int, p: int,
) -> tuple[list[int], list[int], list[int]]:
    """The -residues at p = primes[w] of the group prefixes (the first ``cut``
    monomials) and of a group's rows (the rest of the high half), and the
    residues of the low half."""
    coeffs = range(-height, height + 1)
    return (_residues([-row[w] for row in values[:cut]], p, coeffs, [0]),
            _residues([-row[w] for row in values[cut:split]], p, coeffs, [0]),
            _residues([row[w] for row in values[split:]], p, coeffs, [0]))


def _packed(residues: list[int], p: int) -> array:
    """Residues mod p as an array of 16-bit (or, past them, 32-bit) integers."""
    return array("H" if p < 1 << 16 else "I", residues)


def _prime_masks(
    values: Sequence[Sequence[int]], height: int, split: int, cut: int,
    columns: Sequence[tuple[int, int, Sequence | None]],
) -> Iterator[tuple[tuple[Sequence[int], Sequence[int], list], int]]:
    """For each (w, p, found) of ``columns`` in turn: the prime's group prefix and
    row residues, the low half's mask per residue, and the bytes those masks own.
    ``found`` holds the prime's residues if they were kept.  The lane masks are
    built on the first prime and go with the generator."""
    n_low = (2 * height + 1) ** (len(values) - split)
    size = (n_low + 7) // 8
    bits = [(lane >> 3, 1 << (lane & 7)) for lane in range(n_low)]
    empty, units = bytes(size), [(1 << lane).to_bytes(size, "little") for lane in range(n_low)]
    for w, p, found in columns:
        prefix, suffix, low = found or _prime_residues(values, height, split, cut, w, p)
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
        yield (prefix, suffix, masks), 8 * p + size * owned


def survival_scans(
    values: Sequence[Sequence[int]], primes: Sequence[int], height: int,
    targets: Sequence[Sequence[int]] | None,
) -> list[Survival]:
    """For each target t and every c in [-height, height]^n, count the window primes
    p_w where sum_k c_k values[k][w] - t[w] is nonzero mod p_w, sharing each prime's
    residues, masks and tables over one value table.

    None scans once without a target, and then the zero vector is left out; c and
    -c vanish at the same primes, so only the vectors before it are scanned, each
    counted twice, and the histogram is exact.  With targets only the minimum and
    its first vector are found.  Over :data:`SCAN_BUDGET` vectors raises
    :class:`BudgetExceeded`.
    """
    # A vector is a (row, lane) pair of its high and smaller low half.  A group is
    # the rows that share their first ``cut`` coefficients: its mask depends only
    # on that prefix's residue plus the target, so one table per prime and block
    # serves every group and target that asks for the same residue.
    n, width, half = len(values), len(primes), targets is None
    targets = [[0] * width] if half else targets
    candidates = search_space(n, height, SCAN_BUDGET)
    base, split = 2 * height + 1, n - n // 2
    n_low = base ** (n - split)
    size = (n_low + 7) // 8
    row_bits = 8 * size
    rows, last = (base ** split // 2 + 1, n_low // 2) if half else (base ** split, n_low)
    cut = split  # the shortest prefix, of at least one monomial, whose groups are small
    while cut > 1 and base ** (split - cut + 1) * row_bits * _LOOKUPS <= _BLOCK_BITS:
        cut -= 1
    group = base ** (split - cut)  # rows of a group
    n_groups = -(-rows // group)
    # targets whose counters one block holds for at least one group each; more
    # are scanned in batches of that many, and a batch splits a block's lanes
    batch = min(len(targets), max(1, _BLOCK_BITS // (group * row_bits)))
    n_blocks = -(-n_groups // max(1, _BLOCK_BITS // batch // (group * row_bits)))
    block = -(-n_groups // n_blocks)  # groups of a block, as even as they go
    full, tail = (((1 << k) - 1).to_bytes(size, "little") for k in (n_low, last))
    end = rows - (n_groups - 1) * group  # rows of the last group
    lanes = (int.from_bytes(full * group, "little"),
             int.from_bytes(full * (end - 1) + tail, "little"))  # a group's; the last one's
    columns = list(enumerate(primes))
    # A scan of several blocks or batches builds once what the memo holds: the smallest
    # primes' masks, while every later prime's residues still fit, then those
    kept: list = []  # per prime from the first: its masks, then its residues
    n_masks = 0
    if n_blocks > 1 or batch < len(targets):
        room, spare = _MEMO_BYTES, 2 * (base ** cut + group + n_low)  # a prime's residues
        for w, ((prefix, suffix, masks), cost) in enumerate(_prime_masks(
                values, height, split, cut, [(w, p, None) for w, p in columns])):
            if cost + spare * (width - 1 - w) > room:
                break
            kept.append((_packed(prefix, primes[w]), _packed(suffix, primes[w]), masks))
            room -= cost
        n_masks = len(kept)
        for w, p in columns[n_masks:n_masks + room // spare]:
            kept.append([_packed(residues, p)
                         for residues in _prime_residues(values, height, split, cut, w, p)])
    hist, best = [Counter() for _ in targets], [(-1, 0)] * len(targets)
    for first, lo in product(range(0, len(targets), batch), range(0, n_groups, block)):
        ours = targets[first:first + batch]
        counters = [[[] for _ in ours] for _ in range(lo, min(n_groups, lo + block))]
        fresh = (masks for masks, _ in _prime_masks(values, height, split, cut, [
            (w, p, kept[w] if w < len(kept) else None) for w, p in columns[n_masks:]]))
        for (w, p), (prefix, suffix, masks) in zip(columns, chain(kept[:n_masks], fresh)):
            # residue: the mask of a group that asks for it, for whole groups and the last
            kinds = ({}, suffix), ({}, suffix[:end])
            for i, (r, group_counters) in enumerate(zip(prefix[lo:lo + block], counters), lo):
                table, own = kinds[i == n_groups - 1]
                for target, levels in zip(ours, group_counters):
                    s = (r + target[w]) % p  # lanes whose low residue is s - row residue
                    mask = table.get(s)
                    if mask is None:
                        t = s - p  # masks[t + x] is masks[(s + x) % p]
                        mask = table[s] = int.from_bytes(
                            b"".join([masks[t + x] for x in own]), "little")
                    _add(levels, mask)
        for i, group_counters in enumerate(counters, lo):
            within = lanes[i == n_groups - 1]
            for k, levels in enumerate(group_counters, first):
                for top, mask in _leaves(levels, within):  # the first leaf has the top count
                    if top > best[k][0]:
                        best[k] = (top, i * group * row_bits + (mask & -mask).bit_length() - 1)
                    if not half:
                        break
                    hist[k][top] += mask.bit_count()
    return [
        Survival(candidates - half, width - top,
                 _decode(lane // row_bits * n_low + lane % row_bits, n, height),
                 tuple(sorted((width - v, k * (1 + half)) for v, k in counts.items())))
        for counts, (top, lane) in zip(hist, best)
    ]
