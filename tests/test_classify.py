import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sb_abelian.classify import (
    CONTINUUM,
    Continuum,
    NotApplicableError,
    StabilityClass,
    WitnessRoute,
    basic_predicates,
    connected_component_index,
    divisible_plus_bounded,
    has_sb,
    stability_class,
    unipotence_report,
)
from sb_abelian.finite_oracle import realize
from sb_abelian.groupspec import direct_sum, parse_spec

from _gen import random_spec


# ---------------------------------------------------------------------------
# stability classification
# ---------------------------------------------------------------------------

OMEGA_STABLE_SPECS = [
    "0",
    "Z/4^w + Q^aleph(1)",
    "Prufer(2)^w + Z/9",
    "Q",
    "Z/2 + Z/3 + Z/5",
]

MIDDLE_SPECS = [
    "Zhat(3)",
    "Zhat(2)^3 + Q",
    "sumP(all; Z/p^1)",
    "sumP(all\\{2,3}; Zhat)^5",
    "sumP({2,3,5,7,11}; Z/p^2)^w + Zhat(13)",  # finite family expands, Zhat stays
]

NOT_SUPERSTABLE_SPECS = [
    # 2G > 4G > 8G > ... has every index |G/2G| infinite
    "Zhat(2)^w + Q",
    "sumK(2; all)",
    "sumK(7; all)^aleph(1) + Q",
    "sumP(all; Z/p^1)^w",
    "sumP(all\\{5}; Zhat)^w",
]


@pytest.mark.parametrize("text", OMEGA_STABLE_SPECS)
def test_omega_stable(text):
    assert stability_class(parse_spec(text)) is StabilityClass.OMEGA_STABLE


@pytest.mark.parametrize("text", MIDDLE_SPECS)
def test_superstable_not_omega_stable(text):
    actual = stability_class(parse_spec(text))
    assert actual is StabilityClass.SUPERSTABLE_NOT_OMEGA_STABLE


@pytest.mark.parametrize("text", NOT_SUPERSTABLE_SPECS)
def test_not_superstable(text):
    assert stability_class(parse_spec(text)) is StabilityClass.NOT_SUPERSTABLE


def test_finite_multiplicity_family_is_superstable():
    # an infinite family of completions with *finite* multiplicity stays
    # superstable; only infinite repetition of the family loses it
    assert (
        stability_class(parse_spec("sumP(all; Zhat)^3"))
        is StabilityClass.SUPERSTABLE_NOT_OMEGA_STABLE
    )
    assert (
        stability_class(parse_spec("sumP(all; Zhat)^w"))
        is StabilityClass.NOT_SUPERSTABLE
    )


# ---------------------------------------------------------------------------
# the main dichotomy: three independent predicates agree
# ---------------------------------------------------------------------------


def test_predicate_agreement_spot_checks():
    for text, expected in [
        ("Z/4^w + Q^aleph(1)", True),
        ("Prufer(2)^w", True),
        ("0", True),
        ("Zhat(3)", False),
        ("sumK(2; all)", False),
        ("sumP(all; Z/p^1)", False),
        ("Z/2^w + Prufer(3) + Q", True),
    ]:
        spec = parse_spec(text)
        assert has_sb(spec).has_sb == expected, text
        assert divisible_plus_bounded(spec) == expected, text
        assert (stability_class(spec) is StabilityClass.OMEGA_STABLE) == expected, text


@settings(max_examples=200)
@given(st.integers(0, 10**9))
def test_predicate_agreement_random(seed):
    rng = random.Random(seed)
    spec = random_spec(rng)
    a = has_sb(spec).has_sb
    b = divisible_plus_bounded(spec)
    c = stability_class(spec) is StabilityClass.OMEGA_STABLE
    assert a == b == c, str(spec)


# ---------------------------------------------------------------------------
# monotone sanity of the verdict
# ---------------------------------------------------------------------------


@settings(max_examples=100)
@given(st.integers(0, 10**9))
def test_adding_completion_breaks_sb(seed):
    rng = random.Random(seed)
    spec = direct_sum(random_spec(rng), parse_spec("Zhat(5)"))
    verdict = has_sb(spec)
    assert not verdict.has_sb
    assert verdict.route is not None


@settings(max_examples=100)
@given(st.integers(0, 10**9))
def test_adding_divisible_or_bounded_preserves_sb(seed):
    rng = random.Random(seed)
    spec = random_spec(rng)
    if not has_sb(spec).has_sb:
        return
    extra = parse_spec("Z/8^w + Prufer(3) + Q^aleph(1)")
    assert has_sb(direct_sum(spec, extra)).has_sb


# ---------------------------------------------------------------------------
# witness route selection
# ---------------------------------------------------------------------------


def test_route_for_completions():
    assert has_sb(parse_spec("Zhat(3)")).route is WitnessRoute.PADIC_WITNESS
    assert has_sb(parse_spec("Zhat(3) + Z/4^w")).route is WitnessRoute.PADIC_WITNESS


def test_route_for_unbounded_torsion():
    assert has_sb(parse_spec("sumP(all; Z/p^1)")).route is WitnessRoute.SOCLE_WITNESS
    assert has_sb(parse_spec("sumK(2; all)")).route is WitnessRoute.EXTERNAL_NON_SUPERSTABLE
    assert (
        has_sb(parse_spec("sumP(all; Zhat)^w")).route
        is WitnessRoute.EXTERNAL_NON_SUPERSTABLE
    )


def test_route_none_when_sb_holds():
    verdict = has_sb(parse_spec("Z/4^w + Q"))
    assert verdict.has_sb and verdict.route is None
    assert "bounded" in verdict.reason or "divisible" in verdict.reason


def test_padic_route_preferred_over_socle():
    # when both a completion and unbounded cyclic torsion are present the
    # construction through the completion is used
    verdict = has_sb(parse_spec("Zhat(2) + sumP(all; Z/p^1)"))
    assert verdict.route is WitnessRoute.PADIC_WITNESS


# ---------------------------------------------------------------------------
# connected-component index
# ---------------------------------------------------------------------------


def _index_bruteforce(factors):
    """|G / G*| where G* is the intersection of all nG, computed on elements."""
    g = realize(parse_spec("+".join(f"Z/{n}" for n in factors)))
    component = reduce(
        lambda acc, n: acc & g.scaled_set(n), range(1, g.exponent + 1), set(g.elements())
    )
    return g.order // len(component)


def test_connected_component_index_examples():
    assert connected_component_index(parse_spec("Z/2^3 + Q")) == 8
    assert connected_component_index(parse_spec("Q^5")) == 1
    assert connected_component_index(parse_spec("Prufer(7)^w")) == 1
    assert connected_component_index(parse_spec("Z/4 + Z/2 + Prufer(2)")) == 8
    assert connected_component_index(parse_spec("Zhat(5)")) == CONTINUUM
    assert connected_component_index(parse_spec("sumP(all; Z/p^1)")) == CONTINUUM
    assert isinstance(connected_component_index(parse_spec("Zhat(5)")), Continuum)


def test_connected_component_index_infinite_multiplicity():
    # an infinite power of a bounded cyclic keeps every nG either equal to G
    # or of infinite index, so nothing is cut away: index 1
    assert connected_component_index(parse_spec("Z/9^w")) == 1
    # with Z/2^w present, 2G has infinite index but G[2] has index 2 and lies
    # in every definable subgroup of finite index, so only the height of
    # Z/4 above the infinite layer counts
    assert connected_component_index(parse_spec("Z/4 + Z/2^w")) == 2
    assert connected_component_index(parse_spec("Z/2 + Z/4^w")) == 1
    assert connected_component_index(parse_spec("Z/8 + Z/2^w")) == 4


def test_connected_component_index_brute_force():
    for factors in [(2, 2, 2), (4, 3), (8,), (2, 4, 8), (6, 6)]:
        spec = parse_spec("+".join(f"Z/{n}" for n in factors))
        assert connected_component_index(spec) == _index_bruteforce(factors), factors


def test_connected_component_index_digit_limit():
    # 2^14000 has 4215 digits; 2^20000 has 6021, past the 4300-digit limit
    assert connected_component_index(parse_spec("Z/2^14000")) == 2**14000
    with pytest.raises(ValueError, match=r"2\^20000 has more than 4300 digits"):
        connected_component_index(parse_spec("Z/2^20000"))
    # 10^4300 has 4301 digits
    with pytest.raises(ValueError, match=r"2\^4300 \* 5\^4300"):
        connected_component_index(parse_spec("Z/2^4300 + Z/5^4300"))


def test_continuum_is_not_an_int():
    assert CONTINUUM != 1
    assert CONTINUUM == Continuum()
    assert str(CONTINUUM) == "2^aleph(0)"


# ---------------------------------------------------------------------------
# unipotence of induced automorphisms
# ---------------------------------------------------------------------------


def test_unipotence_omega_stable_cases():
    for text in OMEGA_STABLE_SPECS:
        report = unipotence_report(parse_spec(text))
        assert report.unipotent_all
        assert report.witness is None


def test_unipotence_completion_witness():
    report = unipotence_report(parse_spec("Zhat(3)"))
    assert not report.unipotent_all
    assert report.witness is not None
    assert report.witness.kind == "padic_scalar"
    assert report.witness.p == 3
    assert report.index == CONTINUUM


def test_unipotence_family_witness_orders_unbounded():
    report = unipotence_report(parse_spec("sumP(all\\{2}; Z/p^1)"))
    assert not report.unipotent_all
    witness = report.witness
    assert witness.kind == "family_coordinate_scalars"
    # coordinatewise scalars have multiplicative orders p - 1; for the
    # witness to escape every unipotent power these must be unbounded:
    # for each n there is a family prime whose order p - 1 does not divide n
    primes = witness.primes.first_n(1000)
    for n in range(1, 1001):
        assert any(n % (p - 1) != 0 for p in primes), n


def test_unipotence_not_applicable():
    with pytest.raises(NotApplicableError):
        unipotence_report(parse_spec("sumK(2; all)"))
    with pytest.raises(NotApplicableError):
        unipotence_report(parse_spec("sumP(all; Z/p^1)^w"))
