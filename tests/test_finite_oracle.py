import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sb_abelian.finite_oracle import (
    FiniteAbelianGroup,
    NotAPGroupError,
    OrderBoundError,
    finite_abelian_specs,
    is_pure_subgroup_bruteforce,
    iso_finite_bruteforce,
    partitions,
    realize,
    smith_normal_form,
    subgroup_closure,
    ulm_bruteforce,
)
from sb_abelian.groupspec import parse_spec


# ---------------------------------------------------------------------------
# group plumbing
# ---------------------------------------------------------------------------


def test_group_basics():
    g = FiniteAbelianGroup((2, 4))
    assert g.order == 8
    assert g.exponent == 4
    assert len(list(g.elements())) == 8
    assert g.add((1, 3), (1, 2)) == (0, 1)
    assert g.neg((1, 3)) == (1, 1)
    assert g.smul(3, (1, 3)) == (1, 1)


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


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def test_snf_examples():
    assert smith_normal_form([[2, 0], [0, 3]]).invariant_factors == (6,)
    assert smith_normal_form([[4, 2], [0, 2]]).invariant_factors == (2, 4)
    assert smith_normal_form([[1, 0], [0, 1]]).invariant_factors == ()


def test_snf_rank_deficient():
    snf = smith_normal_form([[2, 4]])
    assert snf.invariant_factors == (2,)
    assert snf.free_rank == 0
    snf = smith_normal_form([[0, 0], [0, 0]])
    assert snf.diagonal == (0, 0)
    assert snf.free_rank == 2


def test_snf_rejects_empty():
    with pytest.raises(ValueError):
        smith_normal_form([])


def _det(m):
    if len(m) == 1:
        return m[0][0]
    total = 0
    for j in range(len(m)):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


@settings(max_examples=150)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 10**9),
)
def test_snf_properties(rows, cols, seed):
    rng = random.Random(seed)
    matrix = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
    snf = smith_normal_form(matrix)
    # diagonal, nonnegative, divisibility chain
    diag = snf.diagonal
    for a, b in zip(diag, diag[1:]):
        assert a >= 0
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    # transforms are unimodular (construction already checked U A V = D)
    assert abs(_det([list(r) for r in snf.u])) == 1
    assert abs(_det([list(r) for r in snf.v])) == 1


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


def test_ulm_rejects_mixed_group():
    with pytest.raises(NotAPGroupError):
        ulm_bruteforce(FiniteAbelianGroup((6,)), 2, 0)


# ---------------------------------------------------------------------------
# isomorphism
# ---------------------------------------------------------------------------


def test_iso_examples():
    assert iso_finite_bruteforce(FiniteAbelianGroup((6,)), FiniteAbelianGroup((2, 3)))
    assert not iso_finite_bruteforce(FiniteAbelianGroup((4,)), FiniteAbelianGroup((2, 2)))
    assert iso_finite_bruteforce(FiniteAbelianGroup(()), FiniteAbelianGroup(()))


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
