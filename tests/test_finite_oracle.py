import itertools
import math

import pytest

from sb_abelian.finite_oracle import (
    FiniteAbelianGroup,
    OrderBoundError,
    is_pure_subgroup_bruteforce,
    iso_finite_bruteforce,
    realize,
    socle_multiplicities_bruteforce,
    subgroup_closure,
    ulm_bruteforce,
)
from sb_abelian.groupspec import parse_spec
from sb_abelian.primes import factorize

from _gen import finite_abelian_specs, partitions, scaled_set, torsion_set


# ---------------------------------------------------------------------------
# group plumbing
# ---------------------------------------------------------------------------


def test_group_basics():
    g = FiniteAbelianGroup((2, 4))
    assert g.order == 8
    assert g.exponent == 4
    assert len(list(g.elements())) == 8
    assert g.add((1, 3), (1, 2)) == (0, 1)
    assert g.smul(3, (1, 3)) == (1, 1)
    assert g == FiniteAbelianGroup([2, 4]) and hash(g) == hash(FiniteAbelianGroup([2, 4]))


def test_trivial_group():
    g = FiniteAbelianGroup(())
    assert g.order == 1
    assert g.exponent == 1
    assert list(g.elements()) == [()]


def test_order_bound_enforced():
    with pytest.raises(OrderBoundError):
        FiniteAbelianGroup((2,) * 17)
    FiniteAbelianGroup((2,) * 17, order_bound=2**17)  # explicit bound is fine


def test_factor_validation():
    with pytest.raises(ValueError):
        FiniteAbelianGroup((1,))
    for bad in ([2.5, 4], ["4"], [4.0], [True, 4]):  # refused, not truncated or parsed
        with pytest.raises(ValueError, match="factors must be >= 2"):
            FiniteAbelianGroup(bad)


# ---------------------------------------------------------------------------
# purity
# ---------------------------------------------------------------------------


def test_purity_counterexample_z4():
    assert not is_pure_subgroup_bruteforce(FiniteAbelianGroup((4,)), [(2,)])


def test_purity_direct_summand():
    assert is_pure_subgroup_bruteforce(FiniteAbelianGroup((2, 4)), [(1, 0)])


def test_purity_full_and_zero():
    g = FiniteAbelianGroup((2, 4))
    assert is_pure_subgroup_bruteforce(g, [(1, 0), (0, 1)])
    assert is_pure_subgroup_bruteforce(g, [])


def test_purity_summands_small_sweep():
    # every coordinate sub-product of factors is a direct summand, hence pure
    for spec in finite_abelian_specs(32):
        group = realize(spec)
        n = len(group.factors)
        for mask in range(1 << n):
            gens = [
                tuple(1 if i == j else 0 for j in range(n))
                for i in range(n)
                if mask >> i & 1
            ]
            assert is_pure_subgroup_bruteforce(group, gens), (spec, mask)


def test_purity_over_divisors_matches_every_n():
    # reference: the definition, with n running over all of 1..exponent
    def pure_for_every_n(group, members, n_big):
        for n in range(1, group.exponent + 1):
            n_sub = {group.smul(n, h) for h in members}
            if any(h in n_big[n] and h not in n_sub for h in members):
                return False
        return True

    impure = 0
    for spec in finite_abelian_specs(64):
        group = realize(spec)
        n_big = {n: {group.smul(n, g) for g in group.elements()}
                 for n in range(1, group.exponent + 1)}
        for sub in {subgroup_closure(group, [g]) for g in group.elements()}:
            expected = pure_for_every_n(group, sub, n_big)
            impure += not expected
            assert is_pure_subgroup_bruteforce(group, sub) == expected, (spec, sorted(sub))
    assert impure > 0  # the sweep exercises both verdicts


def test_subgroup_closure():
    g = FiniteAbelianGroup((4, 2))
    sub = subgroup_closure(g, [(2, 1)])
    assert sub == {(0, 0), (2, 1)}
    with pytest.raises(ValueError):
        subgroup_closure(g, [(0, 0, 0)])


# ---------------------------------------------------------------------------
# Ulm values
# ---------------------------------------------------------------------------


def test_ulm_examples():
    assert ulm_bruteforce(FiniteAbelianGroup((2, 8)), 2, 0) == 1
    assert ulm_bruteforce(FiniteAbelianGroup((2, 8)), 2, 1) == 0
    assert ulm_bruteforce(FiniteAbelianGroup((2, 8)), 2, 2) == 1
    assert ulm_bruteforce(FiniteAbelianGroup((8,)), 2, 2) == 1
    assert ulm_bruteforce(FiniteAbelianGroup(()), 5, 3) == 0


def test_ulm_counts_summand_multiplicity():
    g = FiniteAbelianGroup((3, 3, 9))
    assert ulm_bruteforce(g, 3, 0) == 2
    assert ulm_bruteforce(g, 3, 1) == 1
    assert ulm_bruteforce(g, 3, 2) == 0


def test_ulm_reads_the_p_part_of_a_mixed_group():
    # Z/6 = Z/2 + Z/3: one Z/p summand at each of its primes
    assert ulm_bruteforce(FiniteAbelianGroup((6,)), 2, 0) == 1
    assert ulm_bruteforce(FiniteAbelianGroup((6,)), 3, 0) == 1
    with pytest.raises(ValueError):
        ulm_bruteforce(FiniteAbelianGroup((6,)), 1, 0)


def test_ulm_refuses_a_non_prime():
    with pytest.raises(ValueError, match="need a prime p"):
        ulm_bruteforce(FiniteAbelianGroup((4, 2)), 4, 0)


def test_layer_sizes_match_the_element_sets():
    # reference: |G[p] & p^i G| from the sets of all elements, mixed groups included
    def dim(size, p):
        return next(d for d in itertools.count() if p**d == size)

    checks = 0
    for spec in finite_abelian_specs(128):
        group = realize(spec)
        primes_here = sorted(factorize(group.order)) if group.order > 1 else []
        socle = {}
        for p in primes_here:
            kernel = torsion_set(group, p)
            sizes = [len(kernel & scaled_set(group, p**i))
                     for i in range(math.ceil(math.log(group.order, p)) + 2)]
            socle[p] = dim(sizes[0], p)
            for i in range(len(sizes) - 1):
                expected = dim(sizes[i] // sizes[i + 1], p)
                assert ulm_bruteforce(group, p, i) == expected, (spec, p, i)
                checks += 1
        assert socle_multiplicities_bruteforce(group) == socle, spec
    assert checks > 1000


# ---------------------------------------------------------------------------
# isomorphism
# ---------------------------------------------------------------------------


def test_iso_examples():
    assert iso_finite_bruteforce(FiniteAbelianGroup((6,)), FiniteAbelianGroup((2, 3)))
    assert not iso_finite_bruteforce(FiniteAbelianGroup((4,)), FiniteAbelianGroup((2, 2)))
    assert iso_finite_bruteforce(FiniteAbelianGroup(()), FiniteAbelianGroup(()))


def test_iso_matches_elementary_divisors():
    # reference: the multiset of prime powers p^k obtained by factoring each modulus
    def elementary_divisors(group):
        return sorted(p**k for n in group.factors for p, k in factorize(n).items())

    # each group also appears with its i-th largest p-powers multiplied together,
    # so isomorphic pairs with different factor lists are checked too
    def invariant_factor_form(group):
        powers = {}
        for q in elementary_divisors(group):
            powers.setdefault(min(factorize(q)), []).insert(0, q)
        columns = itertools.zip_longest(*powers.values(), fillvalue=1)
        return FiniteAbelianGroup(sorted(math.prod(c) for c in columns))

    groups = [realize(spec) for spec in finite_abelian_specs(256)]
    groups += [invariant_factor_form(g) for g in groups]
    assert FiniteAbelianGroup((2, 12)) in groups
    divisors = [elementary_divisors(g) for g in groups]
    for i, j in itertools.combinations_with_replacement(range(len(groups)), 2):
        expected = divisors[i] == divisors[j]
        assert iso_finite_bruteforce(groups[i], groups[j]) == expected, (groups[i], groups[j])


def test_iso_reorders_factors():
    assert iso_finite_bruteforce(
        FiniteAbelianGroup((12, 2)), FiniteAbelianGroup((4, 3, 2))
    )


# ---------------------------------------------------------------------------
# enumeration / realization
# ---------------------------------------------------------------------------


def test_partitions():
    assert list(partitions(0)) == [()]
    assert sorted(partitions(4)) == [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]


def test_finite_abelian_specs_counts():
    # number of abelian groups of order exactly n is the product of
    # partition counts of the exponents; a few classic values
    by_order = {}
    for spec in finite_abelian_specs(16):
        order = realize(spec).order
        by_order[order] = by_order.get(order, 0) + 1
    assert by_order[1] == 1
    assert by_order[4] == 2
    assert by_order[8] == 3
    assert by_order[12] == 2
    assert by_order[16] == 5


def test_finite_abelian_specs_unique():
    specs = list(finite_abelian_specs(64))
    assert len(specs) == len(set(specs))


def test_realize_rejects_infinite():
    with pytest.raises(ValueError):
        realize(parse_spec("Q"))
    with pytest.raises(ValueError):
        realize(parse_spec("Z/2^w"))


def test_realize_refuses_an_order_past_the_bound_before_listing():
    # 10**11 factors would not fit in memory; their count alone passes 2**16
    with pytest.raises(OrderBoundError, match="at least 2\\^99999999999, exceeds bound 65536"):
        realize(parse_spec("Z/2^99999999999"))
    assert realize(parse_spec("Z/2^16")).order == 2**16
    # an infinite entry is still reported as such, whatever the finite part's size
    with pytest.raises(ValueError, match="not finite"):
        realize(parse_spec("Z/2^99 + Q"))
    # 300 factors of 2^81: an order of 7316 digits, refused without printing it
    with pytest.raises(OrderBoundError, match="at least 2\\^24300, exceeds bound 10"):
        realize(parse_spec(f"Z/{2**81}^300"), order_bound=10**100)
