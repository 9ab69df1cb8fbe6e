"""The relation engine against a brute-force enumeration of every coefficient vector."""

import hashlib
import random
import sys
import tracemalloc
import types
from collections import Counter
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sb_abelian import relations
from sb_abelian.groupspec import BudgetExceeded, PrimeSet, parse_spec
from sb_abelian.padic import independence_certificate, seeded_unit
from sb_abelian.primes import primes as all_primes
from sb_abelian.relations import (
    RETRIES,
    SCAN_BUDGET,
    RetriesExhausted,
    first_passing,
    first_relation,
    monomials,
    search_space,
    seeded_rng,
    survival_scans,
    terms,
)
from sb_abelian.witness_padic import build_padic_witness
from sb_abelian.witness_socle import (
    PrimeWindow,
    build_socle_witness,
    choose_scalars,
    proper_inclusion_check,
    window_from_socle,
)


def vectors(n, height):
    """Every coefficient vector, in the engine's lexicographic order."""
    return product(range(-height, height + 1), repeat=n)


def brute_first(values, height, modulus):
    for c in vectors(len(values), height):
        if any(c) and sum(a * v for a, v in zip(c, values)) % modulus == 0:
            return c
    return None


def brute_scan(values, primes, height, target=None):
    counts = Counter()
    best = None
    for c in vectors(len(values), height):
        if target is None and not any(c):
            continue
        survived = sum(
            (sum(a * row[w] for a, row in zip(c, values)) - (target[w] if target else 0)) % p
            != 0
            for w, p in enumerate(primes)
        )
        counts[survived] += 1
        if best is None or survived < best[0]:
            best = (survived, c)
    return sum(counts.values()), best[0], best[1], tuple(sorted(counts.items()))


def scanned(values, primes, height, target=None):
    """What a scan reports: brute_scan's, with no histogram for a target."""
    found = brute_scan(values, primes, height, target)
    return found if target is None else (*found[:3], ())


def group_rows(n, height):
    """Rows of a group of survival_scans at the module's lane budget: the rows that
    share the fewest leading coefficients, at least one, whose mask holds at most
    1/_LOOKUPS of the budget's lanes."""
    base, split = 2 * height + 1, n - n // 2
    row_bits = (base ** (n - split) + 7) // 8 * 8
    cut = split
    while cut > 1 and base ** (split - cut + 1) * row_bits * relations._LOOKUPS <= (
            relations._BLOCK_BITS):
        cut -= 1
    return base ** (split - cut)


def random_values(rng, n, primes):
    return [[rng.randrange(p) for p in primes] for _ in range(n)]


# ---------------------------------------------------------------------------
# first_relation: the lexicographically first vanishing vector


@pytest.mark.parametrize("n,height,modulus", [
    (1, 1, 7), (2, 1, 3), (3, 2, 11), (4, 1, 5), (4, 2, 25), (5, 1, 2), (5, 1, 97),
    (6, 1, 8), (4, 3, 125),
])
def test_first_relation_matches_brute_force(n, height, modulus):
    rng = random.Random(f"first:{n}:{height}:{modulus}")
    for _ in range(20):
        values = [rng.randrange(modulus) for _ in range(n)]
        assert first_relation(values, height, modulus) == brute_first(values, height, modulus)


def test_first_relation_never_returns_the_zero_vector():
    # every vector vanishes mod 1; the first one is all -height
    assert first_relation([3, 4, 5], 2, 1) == (-2, -2, -2)
    # only multiples of the modulus vanish: the zero vector does not count
    assert first_relation([1], 2, 7) is None


@pytest.mark.parametrize("p,seed", [(5, 0), (5, 3), (7, 1), (2, 4), (3, 2)])
def test_padic_violation_is_lexicographically_first(p, seed):
    sources = (f"seeded({2 * seed})", f"seeded({2 * seed + 1})")
    for precision, d, height in [(1, 1, 1), (2, 1, 2), (1, 2, 1), (3, 2, 1)]:
        g1, g2 = seeded_unit(p, 2 * seed, precision), seeded_unit(p, 2 * seed + 1, precision)
        cert = independence_certificate(g1, g2, d, height, sources)
        modulus = p**precision
        x, y = g1.residue, g2.residue
        pairs = monomials(d)
        values = [pow(x, i, modulus) * pow(y, j, modulus) % modulus for i, j in pairs]
        expected = brute_first(values, height, modulus)
        assert cert.passed == (expected is None)
        if expected is not None:
            sign = 1 if next(c for c in expected if c) > 0 else -1  # the first term's, as pairs sort
            assert cert.violation == terms(pairs, [sign * c for c in expected])


def test_padic_pigeonhole_relation_is_found():
    # nine monomials take at most four unit residues mod 5, so a relation
    # with coefficients in [-2, 2] always exists at precision 1
    for seed in range(4):
        g1, g2 = seeded_unit(5, 2 * seed, 1), seeded_unit(5, 2 * seed + 1, 1)
        cert = independence_certificate(g1, g2, 2, 2, ("g1", "g2"))
        assert not cert.passed
        assert cert.candidates == 5**9
        m, x, y = g1.modulus, g1.residue, g2.residue
        assert sum(c * pow(x, i, m) * pow(y, j, m) for i, j, c in cert.violation) % m == 0


# ---------------------------------------------------------------------------
# survival_scans: exact histogram (without a target) and first minimizer over a
# prime window


@pytest.mark.parametrize("n,height,primes", [
    (1, 2, (3, 5, 7)),
    (2, 1, (2, 3)),
    (3, 1, (2, 3, 5, 7, 11)),
    (4, 1, (5, 7, 11, 13, 17, 19)),
    (4, 2, (2, 3, 5, 7)),
    (5, 1, (3, 5, 7, 11)),
])
def test_survival_scan_matches_brute_force(n, height, primes):
    rng = random.Random(f"scan:{n}:{height}:{primes}")
    for _ in range(5):
        values = random_values(rng, n, primes)
        scan = survival_scans(values, primes, height, None)[0]
        assert tuple(scan) == brute_scan(values, primes, height)


@pytest.mark.parametrize("block", [1, 7, 50])
def test_survival_scan_is_independent_of_blocking(monkeypatch, block):
    # a small lane budget splits the (group, target) pairs over many chunks: a
    # chunk holds ``block`` rows of one byte, and fewer of two bytes, so a chunk
    # may end within a group's targets.  A group fills the budget once (the
    # largest groups), twice, or many times (single rows); the memo keeps every
    # prime's masks, some primes' masks and the others' residues, or nothing
    monkeypatch.setattr(relations, "_BLOCK_BITS", 8 * block)
    primes = (2, 3, 5, 7)
    zero_later = argmin_later = False
    for lookups, memo in ((1, 1 << 20), (2, 150), (1, 0), (1 << 20, 0)):
        monkeypatch.setattr(relations, "_LOOKUPS", lookups)
        monkeypatch.setattr(relations, "_MEMO_BYTES", memo)
        rng = random.Random(f"block:{block}")
        for n in (3, 4, 5):
            values = random_values(rng, n, primes)
            assert tuple(survival_scans(values, primes, 1, None)[0]) == scanned(values, primes, 1)
            target = [rng.randrange(p) for p in primes]
            assert tuple(survival_scans(values, primes, 1, [target])[0]) == scanned(
                values, primes, 1, target)
            targets = [target, [0] * len(primes), [rng.randrange(p) for p in primes]]
            scans = survival_scans(values, primes, 1, targets)
            assert [tuple(s) for s in scans] == [scanned(values, primes, 1, t) for t in targets]
            # rows are the high halves, numbered in order; the zero vector's is the
            # middle one
            split, first = n - n // 2, group_rows(n, 1)
            zero_later |= 3**split // 2 >= first
            argmin_later |= any(
                sum((c + 1) * 3 ** (split - 1 - k) for k, c in enumerate(s.argmin[:split]))
                >= first for s in scans)
    assert zero_later and argmin_later


def test_survival_scan_primes_beyond_one_byte():
    # residues up to 408 do not fit in uint8
    primes = (2, 251, 257, 263, 401, 409)
    rng = random.Random("wide")
    for _ in range(5):
        values = random_values(rng, 4, primes)
        assert tuple(survival_scans(values, primes, 1, None)[0]) == brute_scan(values, primes, 1)
    # x - y vanishes only at the primes where the two values agree
    values = [[1, 5, 256, 7, 400, 408], [1, 6, 256, 8, 400, 407]]
    scan = survival_scans(values, primes, 1, None)[0]
    assert scan.min_count == 3
    assert scan.argmin == (-1, 1)


def test_survival_scan_with_target():
    primes = (5, 7, 11, 13, 263)
    rng = random.Random("target")
    for n in (1, 3, 4):
        values = random_values(rng, n, primes)
        target = [rng.randrange(p) for p in primes]
        scan = survival_scans(values, primes, 1, [target])[0]
        assert tuple(scan) == scanned(values, primes, 1, target)
        assert scan.candidates == 3**n
    # a target equal to one monomial is hit exactly by that monomial
    scan = survival_scans([[1, 2, 3, 4, 5], [2, 3, 4, 5, 6]], primes, 1, [[2, 3, 4, 5, 6]])[0]
    assert (scan.min_count, scan.argmin) == (0, (0, 1))


def test_survival_scans_equal_one_scan_per_target():
    # one value table, several targets: shared residues and row masks must
    # give each target the scan it would get alone
    primes = (2, 3, 5, 7, 11, 257, 263)
    rng = random.Random("targets")
    for n, height in [(1, 2), (3, 1), (4, 1), (5, 1), (3, 2)]:
        values = random_values(rng, n, primes)
        targets = [[rng.randrange(p) for p in primes] for _ in range(4)]
        targets.append([0] * len(primes))  # the zero target counts the zero vector
        scans = survival_scans(values, primes, height, targets)
        assert scans == [survival_scans(values, primes, height, [t])[0] for t in targets]
        assert [tuple(s) for s in scans] == [
            scanned(values, primes, height, t) for t in targets]


# past 256: primes wider than a byte, and windows whose counts need 9 bits
# (the zero target puts the zero vector at every prime of the window)
@st.composite
def scan_cases(draw):
    n, height = draw(st.sampled_from([(1, 1), (1, 3), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1)]))
    width = draw(st.one_of(st.integers(1, 6), st.integers(250, 262)))
    if width > 6:
        n, height = min(n, 3), 1
    pool = draw(st.sampled_from([(2,), (2, 3, 5, 7), (251, 257, 263, 409, 2)]))
    rng = random.Random(draw(st.integers(0, 2**32)))  # entries from a drawn seed: fast draws
    primes = [rng.choice(pool) for _ in range(width)]
    values = random_values(rng, n, primes)
    kind = draw(st.sampled_from([None, "random", "zero"]))
    target = None if kind is None else [rng.randrange(p) if kind == "random" else 0 for p in primes]
    return values, primes, height, target


@settings(max_examples=40, deadline=None)
@given(scan_cases())
def test_survival_scan_matches_brute_force_on_random_tables(case):
    values, primes, height, target = case
    targets = None if target is None else [target]
    assert tuple(survival_scans(values, primes, height, targets)[0]) == scanned(
        values, primes, height, target)


def test_survival_scan_excludes_only_the_zero_vector():
    primes = (3, 5)
    values = [[0, 0], [1, 1]]
    scan = survival_scans(values, primes, 1, None)[0]
    # (c, 0) vanishes everywhere for every c; the zero vector is not counted
    assert scan.candidates == 8
    assert dict(scan.histogram) == {0: 2, 2: 6}
    assert scan.argmin == (-1, 0)


@pytest.mark.parametrize("search, message", [
    # at height 0 or with no monomial only the zero vector is left, so a
    # search would certify nothing
    (lambda: survival_scans([[1, 2], [3, 4]], [5, 7], 0, None), "height_bound must be >= 1"),
    (lambda: first_relation([1, 2], 0, 7), "height_bound must be >= 1"),
    (lambda: first_relation([1, 2], 1, 0), "modulus must be >= 1"),
    (lambda: first_relation([1, 2], 1, -5), "modulus must be >= 1"),
    (lambda: search_space(-1, 2, None), "at least one monomial"),
    (lambda: survival_scans([], [5, 7], 1, None), "at least one monomial"),
    (lambda: monomials(-1), "max_exponent must be >= 0"),
    # a non-integer bound is refused, not searched or certified against
    (lambda: monomials(1.5), "max_exponent must be >= 0, got 1.5"),
    (lambda: build_padic_witness(5, 1.5), "k must be >= 1, got 1.5"),
    (lambda: build_padic_witness(5, True), "k must be >= 1, got True"),
    (lambda: choose_scalars(PrimeWindow(PrimeSet.cofinite(), 5), threshold=2.5),
     "threshold must be >= 1, got 2.5"),
    (lambda: proper_inclusion_check(
        build_socle_witness(PrimeWindow(PrimeSet.cofinite(), 5), max_exponent=0, height_bound=1,
                            threshold=1), max_shift=1.5), "max_shift must be >= 0, got 1.5"),
], ids=["scan-height-0", "relation-height-0", "modulus-0", "modulus-minus-5",
        "negative-positions", "scan-without-monomials", "negative-degree", "fractional-degree",
        "fractional-power", "boolean-power", "fractional-threshold", "fractional-max-shift"])
def test_every_search_refuses_empty_bounds(search, message):
    with pytest.raises(ValueError, match=message):
        search()


def test_survival_scans_with_no_targets_scan_nothing():
    assert survival_scans([[1, 2], [3, 4]], [5, 7], 1, []) == []


@pytest.mark.parametrize("values, targets", [
    ([[1, 2], [3]], None),
    ([[1, 2], [3, 4, 5]], None),
    ([[1, 2], [3, 4]], [[1]]),
    ([[1, 2], [3, 4]], [[1, 2], [1, 2, 3]]),
], ids=["short-row", "long-row", "short-target", "long-target"])
def test_survival_scans_refuse_rows_and_targets_off_the_window(values, targets):
    # an entry per window prime, no fewer (an index past the row) and no more
    # (an entry the scan would never read)
    with pytest.raises(ValueError, match="one entry per window prime"):
        survival_scans(values, [5, 7], 1, targets)


def test_budgets():
    with pytest.raises(BudgetExceeded, match="exceed the budget of 80"):
        search_space(4, 1, 80)
    assert search_space(4, 1, 81) == 81
    with pytest.raises(BudgetExceeded, match=f"budget of {SCAN_BUDGET}"):
        survival_scans([[1]] * 12, (5,), 4, None)


# ---------------------------------------------------------------------------
# first_passing: the retry loop both witness routes share


def test_first_passing_returns_the_first_passing_draw_whole():
    drawn = []

    def draw(attempt):
        drawn.append((attempt, "pair", types.SimpleNamespace(passed=attempt == 2)))
        return drawn[-1]

    assert first_passing(draw, lambda certificates: "unused") is drawn[2]
    assert [attempt for attempt, _, _ in drawn] == [0, 1, 2]  # no draw after it


def test_first_passing_raises_with_every_certificate_in_order():
    certificates = [types.SimpleNamespace(passed=False, attempt=k) for k in range(RETRIES)]
    seen = []

    def failure(got):
        seen.append(list(got))
        return f"{len(got)} draws failed"

    with pytest.raises(RetriesExhausted, match=f"^{RETRIES} draws failed$") as info:
        first_passing(lambda attempt: ("pair", certificates[attempt]), failure)
    assert info.value.attempts == RETRIES
    assert info.value.certificates == tuple(certificates)
    assert seen == [certificates]
    assert isinstance(info.value, BudgetExceeded)


# ---------------------------------------------------------------------------
# seeded_rng: the same draws whichever SHA-256 implementation hashes the label


def test_seeded_rng_matches_hashlib_sha256():
    labels = [f"socle-scalars:{seed}:{attempt}:{p}"
              for seed in (0, 7, 99) for attempt in range(3) for p in (3, 101, 7919)]
    labels += [f"padic-digits:{p}:{seed}" for p in (2, 5, 101) for seed in range(4)]
    for label in labels:
        digest = hashlib.sha256(label.encode()).digest()
        expected = random.Random(int.from_bytes(digest[:8], "big"))
        assert seeded_rng(label).getstate() == expected.getstate()


def test_seeded_rng_takes_sha256_from_sha2(monkeypatch):
    # Python 3.12 moved the built-in SHA-256 from _sha256 into _sha2: in that
    # layout the draws stay the same, and they come from _sha2
    hashed = []

    def sha256(data):
        hashed.append(data)
        return hashlib.sha256(data)

    stand_in = types.ModuleType("_sha2")
    stand_in.sha256 = sha256
    monkeypatch.setitem(sys.modules, "_sha256", None)
    monkeypatch.setitem(sys.modules, "_sha2", stand_in)
    relations._sha256.cache_clear()
    try:
        labels = ["socle-scalars:3:0:101", "padic-digits:5:2"]
        for label in labels:
            digest = hashlib.sha256(label.encode()).digest()
            expected = random.Random(int.from_bytes(digest[:8], "big"))
            assert seeded_rng(label).getstate() == expected.getstate()
        assert hashed == [label.encode() for label in labels]
    finally:
        relations._sha256.cache_clear()


# ---------------------------------------------------------------------------
# _leaves: each count that occurs with its lanes, largest first, against a
# per-lane sum


@st.composite
def carry_save_levels(draw):
    width = draw(st.integers(0, 70))
    masks = st.integers(0, (1 << width) - 1)
    levels = draw(st.lists(st.lists(masks, min_size=0, max_size=2), max_size=6))
    lanes = draw(st.one_of(st.just((1 << width) - 1), masks))
    return width, levels, lanes


@settings(max_examples=200, deadline=None)
@given(carry_save_levels())
def test_leaves_are_the_occurring_counts_in_descending_order(case):
    width, levels, lanes = case
    counts = {lane: sum((m >> lane & 1) << j for j, level in enumerate(levels) for m in level)
              for lane in range(width) if lanes >> lane & 1}
    expected = [(count, sum(1 << lane for lane, c in counts.items() if c == count))
                for count in sorted(set(counts.values()), reverse=True)]
    assert list(relations._leaves(levels, lanes)) == expected


@settings(max_examples=200, deadline=None)
@given(carry_save_levels())
def test_tally_matches_per_lane_counts(case):
    # the scan without a target: every leaf's lanes added into a histogram
    width, levels, lanes = case
    counts = {lane: sum((m >> lane & 1) << j for j, level in enumerate(levels) for m in level)
              for lane in range(width) if lanes >> lane & 1}
    totals = Counter()
    for count, mask in relations._leaves(levels, lanes):
        totals[count] += mask.bit_count()
    assert totals == Counter(counts.values())


@settings(max_examples=200, deadline=None)
@given(carry_save_levels())
def test_top_matches_per_lane_counts(case):
    # the descent a target scan runs: the first leaf holds the largest count,
    # and its lowest lane is the first lane with that count
    width, levels, lanes = case
    counts = {lane: sum((m >> lane & 1) << j for j, level in enumerate(levels) for m in level)
              for lane in range(width) if lanes >> lane & 1}
    first = next(relations._leaves(levels, lanes), None)
    if not counts:
        assert first is None
        return
    top = max(counts.values())
    count, mask = first
    assert (count, (mask & -mask).bit_length() - 1) == (
        top, min(lane for lane, c in counts.items() if c == top))


def traced_peak(fn, *args, **kwargs):
    """(fn's result, the peak of memory traced during the call)."""
    tracemalloc.start()
    try:
        return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_survival_scan_memory_is_bounded():
    # a W=80, B=2 scan of nine monomials: tallying its counters holds at most
    # one mask per bit plane, not one per distinct survival count
    primes = list(islice(all_primes(), 80))
    rng = random.Random("memory")
    values = random_values(rng, 9, primes)
    _, peak = traced_peak(survival_scans, values, primes, 2, None)
    assert peak <= 3.5 * 2**20


def test_proper_inclusion_check_memory_is_bounded():
    # the certify bounds: W=16, d=B=2, shifts up to 5.  The nine-monomial scan
    # has four targets, and a chunk of (group, target) pairs holds the counters
    # of one lane budget however many targets there are, so the check holds no
    # more than the single-target avoidance scan that builds the witness
    window = window_from_socle(parse_spec("sumP(all; Z/p^1)"), 16)
    witness, build_peak = traced_peak(
        build_socle_witness, window, seed=3, max_exponent=2, height_bound=2, threshold=3)
    check, peak = traced_peak(proper_inclusion_check, witness, max_shift=5)
    assert check.passed
    assert peak <= build_peak <= 3.5 * 2**20
    # at shift 60 that scan has 59 targets, and its chunks hold no more pairs,
    # so its peak stays near the build's
    check, peak = traced_peak(proper_inclusion_check, witness, max_shift=60)
    assert check.passed
    assert peak <= 1.1 * build_peak
