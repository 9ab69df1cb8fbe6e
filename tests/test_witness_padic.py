import json
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from sb_abelian.cli import MAX_PRECISION
from sb_abelian.groupspec import NotApplicableError, parse_spec
from sb_abelian.relations import RetriesExhausted, check_grid, grid_allows
from sb_abelian.witness_padic import (
    GridElement,
    GridMonomial,
    apply_scalar,
    build_padic_witness,
    elementary_matrix_probe,
    grid_membership,
    mixed_group_witness,
    multi_prime_witness,
    random_member,
)

from _gen import grid_coefficient, probe_digest


@pytest.fixture(scope="module")
def pair():
    return build_padic_witness(5, 2, seed=1, max_exponent=1, height_bound=1, precision=40)


# ---------------------------------------------------------------------------
# grid elements
# ---------------------------------------------------------------------------


def test_monomial_validation():
    with pytest.raises(ValueError, match="exponents must be nonnegative"):
        GridElement.of(5, {GridMonomial(-1, 0, 1): 1})
    with pytest.raises(ValueError, match="exponents must be nonnegative"):
        GridElement.of(5, {GridMonomial(0, 0, 1): 1}).shift(0, -1)
    with pytest.raises(ValueError, match="coordinate index starts at 1"):
        GridElement.of(5, {GridMonomial(0, 0, 0): 1})
    assert str(GridMonomial(2, 1, 1)) == "u1^2*u2*e1"
    assert str(GridMonomial(0, 0, 3)) == "e3"
    assert GridMonomial(1, 2, 1).shift(1, 0) == GridMonomial(2, 2, 1)


def test_plain_tuple_keys_become_grid_monomials(pair):
    x = GridElement.of(5, {(0, 0, 1): 1, (1, 0, 2): Fraction(1, 3)})
    assert x == GridElement.of(5, {GridMonomial(0, 0, 1): 1, GridMonomial(1, 0, 2): Fraction(1, 3)})
    assert all(type(m) is GridMonomial for m in x.support) and x.coordinates() == (1, 2)
    assert grid_membership(x, "H1", pair) and not grid_membership(x.shift(0, 1), "H2", pair)
    assert pair.coordinate_sum(x, 1) == 1


def test_element_canonical_form_absorbs_denominator_p_powers():
    m = GridMonomial(0, 0, 1)
    x = GridElement.of(5, {m: Fraction(3, 50)})  # 3/(2*5^2)
    assert x.t == 2
    assert grid_coefficient(x, m) == Fraction(3, 2)


def test_element_canonical_form_cancels_common_p_factors():
    m = GridMonomial(1, 0, 1)
    x = GridElement.of(5, {m: 25}).scale(Fraction(1, 5))
    assert x.t == 0
    assert grid_coefficient(x, m) == 5
    y = GridElement.of(5, {m: 10, GridMonomial(0, 1, 1): 15}).scale(Fraction(1, 5**3))
    assert y.t == 2  # one factor of 5 cancels, coefficients 2 and 3 remain
    assert grid_coefficient(y, m) == 2


def test_zero_element():
    z = GridElement.of(5, {GridMonomial(0, 0, 1): 0}).scale(Fraction(1, 5**4))
    assert z.is_zero and z.t == 0 and str(z) == "0"


def test_element_arithmetic():
    e1 = GridElement.of(5, {GridMonomial(0, 0, 1): 1})
    e2 = GridElement.of(5, {GridMonomial(0, 0, 2): 1})
    x = e1.scale(3) + e2.scale(Fraction(1, 2))
    assert grid_coefficient(x, GridMonomial(0, 0, 1)) == 3
    assert (x - x).is_zero
    assert x.shift(2, 1).support == (GridMonomial(2, 1, 1), GridMonomial(2, 1, 2))
    # adding elements with different denominators finds the common exponent
    y = e1.scale(Fraction(1, 5)) + e1.scale(Fraction(1, 25))
    assert y.t == 2
    assert grid_coefficient(y, GridMonomial(0, 0, 1)) == 6


def test_element_str():
    x = GridElement.of(
        5, {GridMonomial(1, 0, 1): 1, GridMonomial(0, 0, 2): Fraction(-2, 3)}
    ).scale(Fraction(1, 5))
    assert str(x) == "5^-1 * (-2/3*e2 + u1*e1)"


def test_mismatched_primes_cannot_add():
    e1 = GridMonomial(0, 0, 1)
    with pytest.raises(ValueError):
        GridElement.of(5, {e1: 1}) + GridElement.of(7, {e1: 1})


# ---------------------------------------------------------------------------
# pair construction
# ---------------------------------------------------------------------------


def test_build_validates_arguments():
    with pytest.raises(ValueError):
        build_padic_witness(5, 0)
    with pytest.raises(ValueError):
        build_padic_witness(6, 1)


def test_build_certifies_first_seed(pair):
    assert pair.attempts == 1
    assert pair.certificate.passed
    assert pair.certificate.max_exponent == 1
    assert pair.unit1.residue % 5 != 0 and pair.unit2.residue % 5 != 0
    assert pair.unit1.precision == pair.unit2.precision == pair.precision
    data = pair.to_json()
    assert data["certificate"]["passed"] is True
    json.dumps(data)


def test_build_memory_is_bounded_at_the_precision_cap():
    # each unit is one residue mod p**N; what remains is the certificate's
    # tables of half-relation residues
    tracemalloc.start()
    try:
        pair = build_padic_witness(5, 1, precision=MAX_PRECISION)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pair.certificate.passed and pair.unit1.precision == MAX_PRECISION
    assert peak <= 20 * 2**20


def test_build_fails_when_precision_is_hopeless():
    # at precision 1 every unit satisfies some x - c with |c| <= 2, so no
    # seed can be certified and the retry loop must give up
    with pytest.raises(RetriesExhausted, match="after 8 seed attempts") as exc:
        build_padic_witness(5, 1, seed=0, max_exponent=1, height_bound=2, precision=1)
    assert exc.value.attempts == 8
    assert exc.value.certificates[-1].violation is not None


def test_grid_shapes():
    assert grid_allows("H1", 0, 7)
    assert not grid_allows("H2", 0, 7)
    assert grid_allows("H2", 0, 0)
    assert grid_allows("H2", 1, 7)
    with pytest.raises(ValueError, match=re.escape("('H1', 'H2')")):
        check_grid("H3")
    with pytest.raises(ValueError):  # unhashable: refused, not a TypeError
        check_grid(["H1"])
    # the H2 grid is contained in the H1 grid
    rng = random.Random(5)
    for _ in range(200):
        i, j = rng.randint(0, 6), rng.randint(0, 6)
        if grid_allows("H2", i, j):
            assert grid_allows("H1", i, j)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_basis_vectors_in_both(pair):
    for s in (1, 2):
        e = GridElement.of(5, {GridMonomial(0, 0, s): 1})
        assert grid_membership(e, "H1", pair)
        assert grid_membership(e, "H2", pair)


def test_unit2_times_e1_not_in_h2(pair):
    x = GridElement.of(5, {GridMonomial(0, 0, 1): 1}).shift(0, 1)
    assert not grid_membership(x, "H2", pair)
    assert grid_membership(x, "H1", pair)


def test_exact_division_membership(pair):
    e1 = GridElement.of(5, {GridMonomial(0, 0, 1): 1})
    c = (-pair.unit1.truncate(1).residue) % 5
    good = (e1.shift(1, 0) + e1.scale(c)).scale(Fraction(1, 5))
    assert good.t == 1
    assert grid_membership(good, "H1", pair)
    bad = (e1.shift(1, 0) + e1.scale((c + 1) % 5)).scale(Fraction(1, 5))
    assert not grid_membership(bad, "H1", pair)


def test_deeper_exact_division(pair):
    # (u1 - r) y is divisible by 5^3 when r is u1's three-digit truncation
    e2 = GridElement.of(5, {GridMonomial(0, 0, 2): 1})
    y = e2.scale(7) + e2.shift(2, 1).scale(-2)
    r = pair.unit1.truncate(3).residue
    member = (y.shift(1, 0) - y.scale(r)).scale(Fraction(1, 125))
    assert member.t == 3
    assert grid_membership(member, "H1", pair)


def test_membership_guards(pair):
    e1 = GridElement.of(5, {GridMonomial(0, 0, 1): 1})
    with pytest.raises(ValueError, match="denominator exponent 40 at precision 40"):
        grid_membership(e1.scale(Fraction(1, 5**40)), "H1", pair)
    with pytest.raises(ValueError):
        grid_membership(GridElement.of(7, {GridMonomial(0, 0, 1): 1}), "H1", pair)
    with pytest.raises(ValueError):
        grid_membership(GridElement.of(5, {GridMonomial(0, 0, 3): 1}), "H1", pair)  # k = 2
    with pytest.raises(ValueError):
        grid_membership(e1, "Hx", pair)


def test_purity_closure(pair):
    # whenever a member's coordinate sums are divisible by p^e, dividing by
    # p^e stays inside the pure closure
    e1 = GridElement.of(5, {GridMonomial(0, 0, 1): 1})
    r = pair.unit1.truncate(2).residue
    x = e1.shift(1, 0) - e1.scale(r)  # divisible by 25, still t = 0
    assert grid_membership(x, "H1", pair)
    assert grid_membership(x.scale(Fraction(1, 25)), "H1", pair)


def test_zero_is_member_everywhere(pair):
    z = GridElement.of(5, {})
    assert grid_membership(z, "H1", pair)
    assert grid_membership(z, "H2", pair)


# ---------------------------------------------------------------------------
# scalar action
# ---------------------------------------------------------------------------


def test_sigma_shifts(pair):
    x = GridElement.of(5, {GridMonomial(0, 0, 2): 1}).shift(0, 3)  # u2^3 e2, in H1 only
    assert grid_membership(x, "H1", pair)
    assert not grid_membership(x, "H2", pair)
    shifted = apply_scalar(pair, "unit1", x)
    assert shifted.support == (GridMonomial(1, 3, 2),)
    assert grid_membership(shifted, "H2", pair)
    assert apply_scalar(pair, "unit2", x).support == (GridMonomial(0, 4, 2),)


def test_scalar_one_is_identity(pair):
    x = random_member(pair, random.Random(3))
    assert apply_scalar(pair, 1, x) == x


def test_rational_unit_scalars(pair):
    x = GridElement.of(5, {GridMonomial(0, 0, 1): 1})
    y = apply_scalar(pair, Fraction(3, 2), x)
    assert grid_coefficient(y, GridMonomial(0, 0, 1)) == Fraction(3, 2)
    for bad in (5, Fraction(1, 5), 0, "unit3"):
        with pytest.raises(ValueError, match="is not a unit at p=5|unknown symbolic scalar"):
            apply_scalar(pair, bad, x)
    for bad in (True, False, 1.5, 2.0, None):  # neither an int nor a Fraction
        with pytest.raises(ValueError, match="is not 'unit1', 'unit2', an int or a Fraction"):
            apply_scalar(pair, bad, x)


def test_sigma_commutes_with_exact_division(pair):
    rng = random.Random(17)
    for _ in range(100):
        a = random_member(pair, rng, "H1")
        n = rng.choice([1, 2, 3, 4, 6, 7])  # units at p = 5
        left = apply_scalar(pair, "unit1", a.scale(Fraction(1, n)))
        right = apply_scalar(pair, "unit1", a).scale(Fraction(1, n))
        assert left == right


def test_sigma_linear(pair):
    rng = random.Random(23)
    a = random_member(pair, rng)
    b = random_member(pair, rng)
    assert apply_scalar(pair, "unit1", a + b) == apply_scalar(
        pair, "unit1", a
    ) + apply_scalar(pair, "unit1", b)


def test_sigma_maps_h1_into_h2(pair):
    rng = random.Random(0)
    for _ in range(100):
        x = random_member(pair, rng, "H1")
        assert grid_membership(x, "H1", pair)
        assert grid_membership(apply_scalar(pair, "unit1", x), "H2", pair)


def test_h2_contained_in_h1(pair):
    rng = random.Random(1)
    for _ in range(100):
        x = random_member(pair, rng, "H2")
        assert grid_membership(x, "H2", pair)
        assert grid_membership(x, "H1", pair)


# ---------------------------------------------------------------------------
# matrix probe and assembly
# ---------------------------------------------------------------------------


def test_elementary_matrix_probe(pair):
    probe = elementary_matrix_probe(pair, seed=3)
    assert probe["identity_at_all_levels"] is True
    assert probe["levels"] == 40
    assert elementary_matrix_probe(pair, seed=3) == probe  # deterministic
    json.dumps(probe)


# sha256 of the probe outputs, recorded from the inverse-tower implementation; a
# rewrite of the inverse must keep every draw and result.
PROBE_DIGEST = "485759504c2fdc867026665fe1bd1f696a4093c191a7cc33a5d2ed266a7c9daa"


def test_elementary_matrix_probe_output_is_pinned():
    assert probe_digest() == PROBE_DIGEST


def test_multi_prime_witness():
    mp = multi_prime_witness([(5, 2), (7, 1)], seed=0, precision=20)
    assert [(c.p, c.k) for c in mp.components] == [(5, 2), (7, 1)]
    json.dumps(mp.to_json())


def test_multi_prime_witness_guards():
    with pytest.raises(NotApplicableError, match=r"repeated primes in \[5, 5\]"):
        multi_prime_witness([(5, 1), (5, 2)])
    with pytest.raises(ValueError):
        multi_prime_witness([])


def test_mixed_group_witness():
    mg = mixed_group_witness(parse_spec("Zhat(5) + Z/9 + Prufer(2)"), precision=20)
    assert str(mg.torsion) == "Z/9"
    assert str(mg.divisible) == "Prufer(2)"
    assert [(c.p, c.k) for c in mg.core.components] == [(5, 1)]
    json.dumps(mg.to_json())


def test_mixed_group_witness_pure_completion_power():
    mg = mixed_group_witness(parse_spec("Zhat(5)^2"), precision=20)
    assert mg.torsion.is_trivial and mg.divisible.is_trivial
    assert [(c.p, c.k) for c in mg.core.components] == [(5, 2)]


def test_mixed_group_witness_guards():
    with pytest.raises(NotApplicableError, match="has no completion summand"):
        mixed_group_witness(parse_spec("Z/2^w"))
    with pytest.raises(NotApplicableError, match="p=5 has infinite multiplicity"):
        mixed_group_witness(parse_spec("Zhat(5)^w"))
    with pytest.raises(NotApplicableError, match="p=2 has infinite multiplicity"):
        mixed_group_witness(parse_spec("sumP(all; Zhat)^w"))
    # a finite power over a prime family is built: a pair at the least
    # unlisted prime, and the rest of the family carried on both sides
    mg = mixed_group_witness(parse_spec("sumP(all\\{2}; Zhat)^2 + Zhat(2) + Zhat(7)^3 + Z/9"),
                             precision=20)
    assert [(c.p, c.k) for c in mg.core.components] == [(2, 1), (3, 2), (7, 5)]
    assert str(mg.completion) == "sumP(all\\{2,3,7}; Zhat)^2"
    assert mg.to_json()["shared_completion"] == "sumP(all\\{2,3,7}; Zhat)^2"
    assert str(mg.torsion) == "Z/9"
    # with no prime family there is no remainder, and no key for it
    assert "shared_completion" not in mixed_group_witness(parse_spec("Zhat(5)")).to_json()


@pytest.mark.parametrize("build", [
    lambda **kw: mixed_group_witness(parse_spec("Zhat(5) + Z/9"), **kw),
    lambda **kw: multi_prime_witness([(5, 2), (7, 1)], **kw),
], ids=["mixed_group_witness", "multi_prime_witness"])
def test_forwarded_bounds_reach_build_padic_witness(build):
    # each builds with these bounds, and a misspelt keyword is refused where
    # the bounds are defined, not dropped on the way
    build(precision=20)
    with pytest.raises(TypeError, match=r"build_padic_witness\(\) got an unexpected keyword "
                                        r"argument 'bogus'"):
        build(precision=20, bogus=1)
