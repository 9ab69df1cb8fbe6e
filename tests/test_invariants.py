import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sb_abelian.finite_oracle import (
    FiniteAbelianGroup,
    iso_finite_bruteforce,
    realize,
    ulm_bruteforce,
)
from sb_abelian.groupspec import ALEPH0, Cardinal, Rationals, direct_sum, parse_spec
from sb_abelian.invariants import (
    elementarily_equivalent,
    isomorphic_standard,
    szmielew_invariants,
    ulm_invariant,
)

from _gen import finite_abelian_specs, multiplicity, random_spec, scaled_set, torsion_set


# ---------------------------------------------------------------------------
# Ulm values
# ---------------------------------------------------------------------------


def test_ulm_symbolic_examples():
    spec = parse_spec("Z/2 + Z/8")
    assert ulm_invariant(spec, 2, 0) == Cardinal.of(1)
    assert ulm_invariant(spec, 2, 1) == Cardinal.of(0)
    assert ulm_invariant(spec, 2, 2) == Cardinal.of(1)
    assert ulm_invariant(parse_spec("sumK(3; all)"), 3, 7) == Cardinal.of(1)
    assert ulm_invariant(parse_spec("sumP(all\\{2}; Z/p^2)^w"), 5, 1) == ALEPH0
    assert ulm_invariant(parse_spec("sumP(all\\{2}; Z/p^2)^w"), 2, 1) == Cardinal.of(0)


def test_ulm_symbolic_refuses_a_non_prime():
    with pytest.raises(ValueError, match="not a prime"):
        ulm_invariant(parse_spec("Z/4"), 4, 0)


def test_ulm_symbolic_matches_oracle_small_sweep():
    for p in (2, 3):
        for spec in finite_abelian_specs(64, prime=p):
            group = realize(spec)
            for i in range(7):
                sym = ulm_invariant(spec, p, i)
                assert sym.is_finite
                assert sym.value == ulm_bruteforce(group, p, i), (str(spec), i)


def test_ulm_table_evaluation():
    inv = szmielew_invariants(parse_spec("Z/4^3 + sumP(all; Z/p^1) + sumK(5; all)^w"))
    assert inv.ulm(2, 2) == Cardinal.of(3)
    assert inv.ulm(2, 1) == Cardinal.of(1)  # from the prime family
    assert inv.ulm(7, 1) == Cardinal.of(1)
    assert inv.ulm(5, 10) == ALEPH0
    assert inv.ulm(3, 5) == Cardinal.of(0)


# ---------------------------------------------------------------------------
# divisible invariants
# ---------------------------------------------------------------------------


def test_divisible_invariants():
    spec = parse_spec("Prufer(2)^w + Prufer(2) + Q^5 + Z/4")
    assert szmielew_invariants(spec).record(2).tor == ALEPH0
    assert multiplicity(spec, Rationals()) == Cardinal.of(5)
    empty = parse_spec("Z/4")
    assert szmielew_invariants(empty).record(2).tor == Cardinal.of(0)
    assert multiplicity(empty, Rationals()) == Cardinal.of(0)


# ---------------------------------------------------------------------------
# the Szmielew key
# ---------------------------------------------------------------------------


def test_table_completion_summand():
    # independent check: [G : 2G] = 2 at every truncation Z/2^N of the
    # 2-adic integers, so the eventual quotient dimension is 1
    for n in range(3, 9):
        g = FiniteAbelianGroup((2**n,))
        assert g.order // len(scaled_set(g, 2)) == 2
    inv = szmielew_invariants(parse_spec("Zhat(2)"))
    assert inv.record(2).exp == Cardinal.of(1)
    assert inv.ulm(2, 1) == Cardinal.of(0)
    assert inv.record(2).tor == Cardinal.of(0)
    assert not inv.bounded


def test_table_bounded_power():
    # finite analog: (Z/4)^n has [2^k G : 2^(k+1) G] collapsing to 1, so no
    # completion-style contribution; the Ulm layer at (2,2) carries it all
    g = FiniteAbelianGroup((4, 4))
    quotients = [
        len(scaled_set(g, 2**k)) // len(scaled_set(g, 2 ** (k + 1))) for k in range(3)
    ]
    assert quotients == [4, 4, 1]
    inv = szmielew_invariants(parse_spec("Z/4^w"))
    assert inv.ulm(2, 2) == ALEPH0
    assert inv.record(2).exp == Cardinal.of(0)
    assert inv.bounded and inv.exponent == 4


def test_table_exponent_is_lcm_of_cyclic_moduli():
    # the finite oracle computes the exponent element by element
    for text in ["Z/4 + Z/3", "Z/9 + Z/8^2", "Z/2 + Z/3 + Z/5", "Z/12 + Z/8"]:
        spec = parse_spec(text)
        assert szmielew_invariants(spec).exponent == realize(spec).exponent, text
    assert szmielew_invariants(parse_spec("Z/4 + Z/3^w")).exponent == 12
    assert szmielew_invariants(parse_spec("Z/4 + Q")).exponent is None


def test_table_quasicyclic():
    # truncations Z/3^N have a stable 3-element bottom layer at every height
    for n in range(2, 7):
        g = FiniteAbelianGroup((3**n,))
        for k in range(n - 1):
            layer = scaled_set(g, 3**k) & torsion_set(g, 3)
            assert len(layer) == 3
    inv = szmielew_invariants(parse_spec("Prufer(3)"))
    assert inv.record(3).tor == Cardinal.of(1)
    assert inv.ulm(3, 1) == Cardinal.of(0)
    assert inv.record(3).exp == Cardinal.of(0)
    assert not inv.bounded


def test_table_rationals_invisible():
    inv = szmielew_invariants(parse_spec("Q^aleph(1)"))
    assert inv.primes == ()
    assert inv.generic == szmielew_invariants(parse_spec("0")).generic
    assert not inv.bounded
    # the bounded flag alone tells Q from the trivial group
    assert inv != szmielew_invariants(parse_spec("0"))


def test_table_exponent_family_fills_tor_and_exp():
    # sumK(p; all) has (p^k G)[p] and p^k G / p^(k+1) G infinite at every k
    inv = szmielew_invariants(parse_spec("sumK(2; all) + Z/4^3"))
    rec = inv.record(2)
    assert (rec.tail, rec.tor, rec.exp) == (Cardinal.of(1), ALEPH0, ALEPH0)
    assert rec.ulm == ((2, Cardinal.of(4)),)
    assert inv.ulm(2, 1) == inv.ulm(2, 9) == Cardinal.of(1)


def test_table_is_canonical():
    # a record equal to the generic one is dropped, and so is an Ulm value
    # equal to the tail
    inv = szmielew_invariants(parse_spec("sumP(all\\{2}; Z/p^1) + Z/2"))
    assert inv.primes == ()
    assert inv == szmielew_invariants(parse_spec("sumP(all; Z/p^1)"))
    inv = szmielew_invariants(parse_spec("sumK(3; all)^w + Z/9^aleph(1) + Prufer(3)"))
    assert inv.record(3).ulm == ()
    assert inv == szmielew_invariants(parse_spec("sumK(3; all)^aleph(2)"))
    assert hash(inv) == hash(szmielew_invariants(parse_spec("sumK(3; all)^w")))
    assert inv != szmielew_invariants(parse_spec("sumK(3; all)"))


# ---------------------------------------------------------------------------
# elementary equivalence
# ---------------------------------------------------------------------------


def test_eq_examples():
    assert not elementarily_equivalent(parse_spec("Z/4"), parse_spec("Z/2 + Z/2"))
    assert not elementarily_equivalent(parse_spec("Zhat(2)"), parse_spec("Zhat(2)^2"))
    assert elementarily_equivalent(parse_spec("Q"), parse_spec("Q^w"))
    assert elementarily_equivalent(parse_spec("Q"), parse_spec("Q^aleph(2)"))


def test_eq_unbounded_absorbs_rationals():
    assert elementarily_equivalent(parse_spec("Zhat(5)"), parse_spec("Zhat(5) + Q"))
    assert not elementarily_equivalent(parse_spec("Z/4"), parse_spec("Z/4 + Q"))


def test_eq_cofinite_family_rearrangement():
    a = parse_spec("sumP(all; Z/p^1)")
    b = parse_spec("sumP(all\\{2}; Z/p^1) + Z/2")
    c = parse_spec("sumP(all\\{2}; Z/p^1)")
    assert elementarily_equivalent(a, b)
    assert not elementarily_equivalent(a, c)
    assert not isomorphic_standard(a, b)


def test_eq_infinite_capping():
    assert elementarily_equivalent(parse_spec("Z/9^w"), parse_spec("Z/9^aleph(3)"))
    assert not elementarily_equivalent(parse_spec("Z/9^2"), parse_spec("Z/9^w"))


def test_eq_exponent_family_absorbs_tor_and_exp():
    # sumK(p; all) already makes Tor(p) and Exp(p) infinite
    base = parse_spec("sumK(2; all)")
    for extra in ("Prufer(2)", "Zhat(2)", "Prufer(2)^w + Zhat(2)^w", "Q^w"):
        assert elementarily_equivalent(base, direct_sum(base, parse_spec(extra))), extra
    assert not elementarily_equivalent(base, direct_sum(base, parse_spec("Z/8")))


def test_eq_trivial_vs_rationals():
    assert not elementarily_equivalent(parse_spec("0"), parse_spec("Q"))
    assert elementarily_equivalent(parse_spec("0"), parse_spec("Q^0"))


def test_eq_matches_iso_on_finite_specs_sample():
    specs = list(finite_abelian_specs(81))
    groups = {s: realize(s) for s in specs}
    for a in specs:
        for b in specs:
            assert elementarily_equivalent(a, b) == iso_finite_bruteforce(
                groups[a], groups[b]
            ), (str(a), str(b))


# ---------------------------------------------------------------------------
# isomorphism of standard forms
# ---------------------------------------------------------------------------


def test_iso_examples():
    assert isomorphic_standard(parse_spec("Z/6"), parse_spec("Z/2 + Z/3"))
    assert not isomorphic_standard(parse_spec("Zhat(2)^w"), parse_spec("Zhat(2)^aleph(1)"))
    assert elementarily_equivalent(parse_spec("Zhat(2)^w"), parse_spec("Zhat(2)^aleph(1)"))


@settings(max_examples=80)
@given(st.integers(0, 10**9))
def test_iso_implies_equivalent(seed):
    rng = random.Random(seed)
    a = random_spec(rng)
    b = random_spec(rng)
    if isomorphic_standard(a, b):
        assert elementarily_equivalent(a, b)
    # and reflexively
    assert elementarily_equivalent(a, a)


@settings(max_examples=60)
@given(st.integers(0, 10**9))
def test_direct_sum_congruence(seed):
    # replacing infinite multiplicities by other infinite multiplicities
    # preserves equivalence, also under direct sums with a common summand
    rng = random.Random(seed)
    a = random_spec(rng)
    b = random_spec(rng)
    a_capped = _cap_alephs(a)
    assert elementarily_equivalent(a, a_capped)
    assert elementarily_equivalent(direct_sum(a, b), direct_sum(a_capped, b))


def _cap_alephs(spec):
    from sb_abelian.groupspec import normalize

    return normalize(
        [
            (fam, mult if mult.is_finite else Cardinal.aleph(0))
            for fam, mult in spec.entries
        ]
    )
