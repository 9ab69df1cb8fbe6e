"""The Szmielew key against brute force on finite truncations.

Nothing here reads the key's construction: the truncations, the measured
invariants and the pp-subgroup lattice are computed element by element with
``finite_oracle``, and the key is only compared with what they show.
"""

from __future__ import annotations

import json
import random
from functools import reduce

from hypothesis import given, settings
from hypothesis import strategies as st

from sb_abelian.classify import (
    StabilityClass,
    connected_component_index,
    divisible_plus_bounded,
    has_sb,
    stability_class,
    unipotence_report,
)
from sb_abelian.finite_oracle import realize, ulm_bruteforce
from sb_abelian.groupspec import (
    Cardinal,
    Cyclic,
    CyclicExponentFamily,
    CyclicPrimeFamily,
    PAdicComplete,
    PAdicPrimeFamily,
    Prufer,
    Rationals,
    normalize,
    parse_spec,
)
from sb_abelian.invariants import elementarily_equivalent, szmielew_invariants

from _gen import random_cardinal, random_entries, random_spec, scaled_set, torsion_set

LEVEL = 2  # every explicit exponent is at most LEVEL
DEPTH = LEVEL + 1  # truncations are read in G[p^DEPTH] and G/p^DEPTH G
SIZES = (1, 2)  # what an infinite multiplicity becomes
ORDER_LIMIT = 3000
NO_BOUND = 2**64  # orders are checked against ORDER_LIMIT before any enumeration


# ---------------------------------------------------------------------------
# U, Tor and Exp on finite truncations
# ---------------------------------------------------------------------------


def _small(entries):
    """Exponents cut to LEVEL and finite multiplicities to 2."""
    out = []
    for fam, mult in entries:
        if isinstance(fam, Cyclic):
            fam = Cyclic(fam.p, min(fam.k, LEVEL))
        elif isinstance(fam, CyclicPrimeFamily):
            fam = CyclicPrimeFamily(fam.primes, min(fam.k, LEVEL))
        out.append((fam, mult if not mult.is_finite else Cardinal.of(min(mult.value, 2))))
    return normalize(out)


def _truncate(spec, size):
    """Finite multiplicities throughout: an infinite one becomes ``size``, a
    cofinite family keeps its first three primes, and sumK(p; all) keeps the
    exponents up to LEVEL + size."""
    out = []
    for fam, mult in spec.entries:
        m = mult.value if mult.is_finite else size
        if isinstance(fam, CyclicPrimeFamily):
            out += [(Cyclic(q, fam.k), m) for q in fam.primes.first_n(3)]
        elif isinstance(fam, PAdicPrimeFamily):
            out += [(PAdicComplete(q), m) for q in fam.primes.first_n(3)]
        elif isinstance(fam, CyclicExponentFamily):  # normalized: every exponent
            out += [(Cyclic(fam.p, k), m) for k in range(1, LEVEL + size + 1)]
        else:
            out.append((fam, m))
    return out


def _kernel_and_quotient(entries, p):
    """G[p^DEPTH] and G/p^DEPTH G of a truncation, as finite groups.

    Z/p^k gives Z/p^min(k, DEPTH) to both.  A quasicyclic group is divisible,
    so it gives Z/p^DEPTH to the kernel only; a completion is torsion-free, so
    it gives Z/p^DEPTH to the quotient only.  Q and every summand at another
    prime give nothing to either.
    """
    kernel, quotient = [], []
    for fam, m in entries:
        if getattr(fam, "p", None) != p:
            continue
        part = Cyclic(p, min(getattr(fam, "k", DEPTH), DEPTH)), Cardinal.of(m)
        if not isinstance(fam, PAdicComplete):
            kernel.append(part)
        if not isinstance(fam, Prufer):
            quotient.append(part)
    return (realize(normalize(kernel), order_bound=NO_BOUND),
            realize(normalize(quotient), order_bound=NO_BOUND))


def _log(n, p):
    dim = 0
    while n > 1:
        n //= p
        dim += 1
    return dim


def _measured(spec, p, size):
    """U(p, 1..LEVEL), dim (p^LEVEL G)[p], dim p^LEVEL G / p^(LEVEL+1) G and
    dim G/pG of a truncation, or None if it is too large to enumerate.

    With every explicit exponent at most LEVEL, the second and third are
    Tor(p) and Exp(p): Z/p^k summands with k > LEVEL come only from
    sumK(p; all), which makes both infinite anyway.
    """
    kernel, quotient = _kernel_and_quotient(_truncate(spec, size), p)
    if max(kernel.order, quotient.order) > ORDER_LIMIT:
        return None
    ulm = [ulm_bruteforce(kernel, p, k - 1) for k in range(1, LEVEL + 1)]
    deep = scaled_set(kernel, p**LEVEL) & torsion_set(kernel, p)
    layer = len(scaled_set(quotient, p**LEVEL)) // len(scaled_set(quotient, p ** (LEVEL + 1)))
    head = quotient.order // len(scaled_set(quotient, p))
    return ulm + [_log(len(deep), p), _log(layer, p), _log(head, p)]


def test_key_matches_truncations():
    """U/Tor/Exp are constant and equal to the key where it is finite, and
    grow where it says infinite.  A chain p^k G of infinite indices (Exp(p)
    growing), or G/pG growing at the generic prime 5 (so at infinitely many
    primes), is exactly what makes the theory not superstable."""
    finite = infinite = unstable = 0
    for seed in range(400):
        spec = _small(random_entries(random.Random(seed), 3, primes=(2, 3)))
        inv = szmielew_invariants(spec)
        chain = measured = 0
        for p in (2, 3, 5):  # 5 is mentioned by no spec: the generic record
            rec = inv.record(p)
            key = [inv.ulm(p, k) for k in range(1, LEVEL + 1)] + [rec.tor, rec.exp]
            small, big = (_measured(spec, p, size) for size in SIZES)
            if big is None:
                continue
            measured += 1
            for want, low, high in zip(key, small, big):
                if want.is_finite:
                    assert low == high == want.value, (str(spec), p, key, small, big)
                    finite += 1
                else:
                    assert high > low, (str(spec), p, key, small, big)
                    infinite += 1
            chain += big[-2] > small[-2] or (p == 5 and big[-1] > small[-1])
        not_superstable = stability_class(spec) is StabilityClass.NOT_SUPERSTABLE
        if chain or measured == 3:
            assert bool(chain) == not_superstable, str(spec)
            unstable += not_superstable
    assert finite > 1000 and infinite > 100 and unstable > 20, (finite, infinite, unstable)


# ---------------------------------------------------------------------------
# connected-component index from the pp-subgroup lattice
# ---------------------------------------------------------------------------


def _meet(a, b):
    return tuple(x & y for x, y in zip(a, b))


def _join(groups, a, b):
    out = []
    for g, x, y in zip(groups, a, b):
        total = set(y)
        for u in x:
            if u not in total:  # a new coset of y
                total.update(g.add(u, v) for v in y)
        out.append(frozenset(total))
    return tuple(out)


def _index_bruteforce(spec):
    """|G : G^0| with G^0 the intersection of the finite-index pp-subgroups.

    Each infinite multiplicity is realized at every size in SIZES; a subgroup
    p^i G  intersect  G[p^j], or any sum or intersection of such, has finite
    index exactly when its index is the same at every size.
    """
    groups = [realize(normalize(
        [(fam, mult if mult.is_finite else Cardinal.of(size))
         for fam, mult in spec.entries if isinstance(fam, Cyclic)]
    )) for size in SIZES]
    top = max((fam.k for fam, _ in spec.entries if isinstance(fam, Cyclic)), default=0)
    primes = sorted({fam.p for fam, _ in spec.entries if isinstance(fam, Cyclic)})
    lattice = {tuple(scaled_set(g, p**i) & torsion_set(g, p**j) for g in groups)
               for p in primes for i in range(top + 1) for j in range(top + 1)}
    lattice.add(tuple(frozenset(g.elements()) for g in groups))
    frontier = list(lattice)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(lattice):
                for c in (_meet(a, b), _join(groups, a, b)):
                    if c not in lattice:
                        lattice.add(c)
                        fresh.append(c)
        frontier = fresh

    def indices(sub):
        return {g.order // len(x) for g, x in zip(groups, sub)}

    core = reduce(_meet, [sub for sub in lattice if len(indices(sub)) == 1])
    (index,) = indices(core)
    return index


def _bounded_spec(rng):
    entries = []
    for p in rng.sample((2, 3), rng.randint(1, 2)):
        for k in rng.sample(range(1, 4), rng.randint(1, 2)):
            mult = rng.choice((Cardinal.of(1), Cardinal.of(2), Cardinal.aleph(0)))
            entries.append((Cyclic(p, k), mult))
    if rng.random() < 0.3:
        entries.append((Rationals(), random_cardinal(rng, allow_zero=False)))
    return normalize(entries)


def test_component_index_matches_pp_lattice():
    named = {"Z/4 + Z/2^w": 2, "Z/2 + Z/4^w": 1, "Z/8 + Z/2^w": 4}
    for text, want in named.items():
        spec = parse_spec(text)
        assert _index_bruteforce(spec) == connected_component_index(spec) == want, text
    checked = 0
    for seed in range(60):
        spec = _bounded_spec(random.Random(seed))
        big = realize(normalize([(fam, mult if mult.is_finite else Cardinal.of(SIZES[-1]))
                                 for fam, mult in spec.entries if isinstance(fam, Cyclic)]),
                      order_bound=NO_BOUND)
        if big.order > 600:
            continue
        assert _index_bruteforce(spec) == connected_component_index(spec), str(spec)
        checked += 1
    assert checked >= 25, checked


# ---------------------------------------------------------------------------
# equivalence is equality of the printed table; the four conditions agree
# ---------------------------------------------------------------------------


def _equivalent_variant(rng, spec):
    """A spec with the same theory, by moves that preserve it: another
    infinite cardinal for each infinite multiplicity, a cofinite family split
    at its least prime, Q beside an unbounded group, and a quasicyclic group
    and a completion at p beside sumK(p; all)."""
    entries = []
    for fam, mult in spec.entries:
        if not mult.is_finite:
            mult = Cardinal.aleph(rng.randint(0, 2))
        if isinstance(fam, (CyclicPrimeFamily, PAdicPrimeFamily)) and rng.random() < 0.5:
            (q,) = fam.primes.first_n(1)
            at_q = Cyclic(q, fam.k) if isinstance(fam, CyclicPrimeFamily) else PAdicComplete(q)
            rest = fam.primes.remove([q])
            fam = type(fam)(rest, fam.k) if isinstance(fam, CyclicPrimeFamily) else type(fam)(rest)
            entries.append((at_q, mult))
        if isinstance(fam, CyclicExponentFamily):
            entries += [(Prufer(fam.p), random_cardinal(rng)), (PAdicComplete(fam.p), random_cardinal(rng))]
        entries.append((fam, mult))
    if any(not isinstance(fam, Cyclic) for fam, _ in spec.entries):
        entries.append((Rationals(), random_cardinal(rng)))
    return normalize(entries)


def _table(spec):
    return json.dumps(szmielew_invariants(spec).to_json(), sort_keys=True)


def _conditions(spec):
    cls = stability_class(spec)
    unipotent = cls is not StabilityClass.NOT_SUPERSTABLE and unipotence_report(spec).unipotent_all
    return {has_sb(spec).has_sb, cls is StabilityClass.OMEGA_STABLE,
            divisible_plus_bounded(spec), unipotent}


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_eq_iff_equal_tables_and_four_conditions_agree(seed):
    rng = random.Random(seed)
    a = random_spec(rng, 4)
    variant = _equivalent_variant(rng, a)
    assert elementarily_equivalent(a, variant), (str(a), str(variant))
    for b in (variant, random_spec(rng, 4)):
        assert elementarily_equivalent(a, b) == (_table(a) == _table(b)), (str(a), str(b))
        assert len(_conditions(b)) == 1, str(b)
