import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sb_abelian.groupspec import (
    ALEPH0,
    ALL_PRIMES,
    Cardinal,
    Cyclic,
    CyclicExponentFamily,
    CyclicPrimeFamily,
    GroupSpec,
    MSplitPreconditionError,
    PAdicComplete,
    PAdicPrimeFamily,
    PrimeSet,
    Prufer,
    Rationals,
    SpecSyntaxError,
    direct_sum,
    m_split,
    normalize,
    parse_spec,
    socle,
    split_reduced_divisible,
)
from sb_abelian.finite_oracle import (
    FiniteAbelianGroup,
    iso_finite_bruteforce,
    realize,
    socle_multiplicities_bruteforce,
)
from sb_abelian.primes import EXACT_BOUND

from _gen import finite_abelian_specs, random_entries, random_spec


# ---------------------------------------------------------------------------
# cardinals
# ---------------------------------------------------------------------------


def test_cardinal_arithmetic_and_order():
    assert Cardinal.of(2) + Cardinal.of(3) == Cardinal.of(5)
    assert Cardinal.of(2) + ALEPH0 == ALEPH0
    assert ALEPH0 + Cardinal.aleph(1) == Cardinal.aleph(1)
    assert Cardinal.of(10**6) < ALEPH0 < Cardinal.aleph(1)
    assert Cardinal.aleph(2).cap_countable() == ALEPH0
    assert Cardinal.of(7).cap_countable() == Cardinal.of(7)


def test_cardinal_rendering():
    assert str(Cardinal.of(3)) == "3"
    assert str(ALEPH0) == "w"
    assert str(Cardinal.aleph(2)) == "aleph(2)"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_basic_roundtrip():
    spec = parse_spec("Z/8^3 + Q^aleph(1)")
    assert str(spec) == "Z/8^3 + Q^aleph(1)"
    assert spec.entries == (
        (Cyclic(2, 3), Cardinal.of(3)),
        (Rationals(), Cardinal.aleph(1)),
    )


def test_parse_crt_decomposition():
    assert parse_spec("Z/6") == parse_spec("Z/2 + Z/3")
    assert parse_spec("Z/12") == parse_spec("Z/4 + Z/3")


def test_parse_families():
    spec = parse_spec("sumP(all\\{2}; Z/p^1)")
    assert spec.entries == ((CyclicPrimeFamily(PrimeSet.cofinite({2}), 1), Cardinal.of(1)),)
    spec = parse_spec("sumP(all; Zhat)^w")
    assert spec.entries == ((PAdicPrimeFamily(ALL_PRIMES), ALEPH0),)
    # finite families expand during normalization
    assert parse_spec("sumP({3,5}; Z/p^2)") == parse_spec("Z/9 + Z/25")
    assert parse_spec("sumK(2; {1,3})") == parse_spec("Z/2 + Z/8")
    assert parse_spec("sumK(2; all)").entries == (
        (CyclicExponentFamily(2, None), Cardinal.of(1)),
    )


def test_parse_trivial_extension():
    assert parse_spec("0").is_trivial
    assert str(parse_spec("0")) == "0"


def test_parse_whitespace_insensitive():
    assert parse_spec(" Z/4 +  Prufer( 3 ) ^ w ") == parse_spec("Z/4+Prufer(3)^w")


@pytest.mark.parametrize(
    "bad",
    [
        "Z/0",
        "Z/1",
        "Zhat(4)",
        "Prufer(6)",
        "sumP(all\\{}; Z/p^1)",
        "sumP({}; Z/p^1)",
        "sumP(all; Z/p^0)",
        "sumK(4; all)",
        "sumK(2; {0})",
        "Z/4 + ",
        "",
        "Q + + Q",
        "Z/4 junk",
    ],
)
def test_parse_errors(bad):
    with pytest.raises(SpecSyntaxError):
        parse_spec(bad)


def test_parse_error_reports_position():
    with pytest.raises(SpecSyntaxError) as exc:
        parse_spec("Z/4 + Zhat(9)")
    assert exc.value.position == 11


def test_overlong_digit_string_reports_its_start():
    for text, at in [("Z/" + "9" * 5000, 2), ("Q^" + "1" * 4301, 2),
                     ("sumK(2; {3, " + "7" * 4400 + "})", 12)]:
        with pytest.raises(SpecSyntaxError, match="limited to 4300 digits") as exc:
            parse_spec(text)
        assert exc.value.position == at, text
    # 4300 digits is still a number (here a multiplicity)
    assert str(parse_spec("Q^" + "1" * 4300)).startswith("Q^111")


def test_sumK_exponent_is_bounded_like_a_modulus():
    # sumK(p; {k}) is Z/p^k, so p^k must stay below EXACT_BOUND
    assert str(parse_spec("sumK(2; {81})")) == f"Z/{2**81}"
    assert str(parse_spec("sumK(3; {1, 51})")) == f"Z/3 + Z/{3**51}"
    for text, at in [("sumK(2; {82})", 9), ("sumK(2; {1000000})", 9),
                     ("sumK(3; {1, 52})", 12), ("sumK(5; {3, 99999999999999999999})", 12)]:
        with pytest.raises(SpecSyntaxError, match=f"must be below {EXACT_BOUND}") as exc:
            parse_spec(text)
        assert exc.value.position == at, text


def test_sumP_exponent_is_bounded_like_a_modulus():
    # the bound holds at each listed prime, and at the least prime of a cofinite set
    assert str(parse_spec("sumP({2, 3}; Z/p^51)")) == f"Z/{2**51} + Z/{3**51}"
    assert str(parse_spec("sumP(all\\{2}; Z/p^51)")) == "sumP(all\\{2}; Z/p^51)"
    assert str(parse_spec("sumP(all; Z/p^81)")) == "sumP(all; Z/p^81)"
    for text, p in [("sumP({2, 3}; Z/p^52)", 3), ("sumP(all\\{2}; Z/p^52)", 3),
                    ("sumP(all; Z/p^82)", 2), ("sumP({2}; Z/p^99999999999)", 2)]:
        with pytest.raises(SpecSyntaxError, match=f"sumP exponent: {p}\\^k must be below") as exc:
            parse_spec(text)
        assert exc.value.position == text.index("^") + 1, text


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_normalize_merges_and_drops():
    spec = normalize(
        [
            (Cyclic(2, 3), Cardinal.of(1)),
            (Cyclic(2, 3), Cardinal.of(2)),
            (Rationals(), Cardinal.of(0)),
        ]
    )
    assert spec.entries == ((Cyclic(2, 3), Cardinal.of(3)),)


def test_normalize_merges_family_with_expanded_singleton():
    a = normalize([(CyclicPrimeFamily(PrimeSet.explicit({5}), 2), ALEPH0)])
    b = normalize([(Cyclic(5, 2), ALEPH0)])
    assert a == b


def test_normalize_infinite_absorbs_finite():
    spec = normalize([(Prufer(3), Cardinal.of(4)), (Prufer(3), ALEPH0)])
    assert spec.entries == ((Prufer(3), ALEPH0),)


@settings(max_examples=100)
@given(st.integers(0, 10**9))
def test_normalize_idempotent_and_order_insensitive(seed):
    import random

    rng = random.Random(seed)
    entries = random_entries(rng)
    spec = normalize(entries)
    assert normalize(spec.entries) == spec
    rng.shuffle(entries)
    assert normalize(entries) == spec


@settings(max_examples=200)
@given(st.integers(0, 10**9))
def test_str_reparses_to_the_same_normal_form(seed):
    import random

    spec = random_spec(random.Random(seed))
    again = parse_spec(str(spec))
    assert again == spec and hash(again) == hash(spec)
    assert str(again) == str(spec)


@settings(max_examples=60)
@given(st.integers(0, 10**9))
def test_direct_sum_commutative_and_adds(seed):
    import random

    rng = random.Random(seed)
    a, b = random_spec(rng), random_spec(rng)
    assert direct_sum(a, b) == direct_sum(b, a)
    for fam, mult in a.entries:
        assert direct_sum(a, b).multiplicity(fam) == mult + b.multiplicity(fam)


def test_direct_sum_identity():
    a = parse_spec("Z/4 + Prufer(3)")
    assert direct_sum(a, GroupSpec(())) == a


# ---------------------------------------------------------------------------
# socle
# ---------------------------------------------------------------------------


def test_socle_examples():
    assert socle(parse_spec("Zhat(5) + Z/9 + Prufer(2)")) == parse_spec("Z/3 + Z/2")
    assert socle(parse_spec("sumP(all; Z/p^2)")) == parse_spec("sumP(all; Z/p^1)")
    assert socle(parse_spec("Q^w")).is_trivial
    assert socle(parse_spec("sumK(3; all)")) == parse_spec("Z/3^w")


def test_socle_merges_same_prime():
    assert socle(parse_spec("Z/2 + Z/4 + Z/8")) == parse_spec("Z/2^3")


def test_socle_against_bruteforce_small_orders():
    # the p-part of the brute-force socle has dimension log_p |G[p]|
    for spec in finite_abelian_specs(128):
        expected = socle_multiplicities_bruteforce(realize(spec))
        got = {fam.p: mult.value for fam, mult in socle(spec).entries}
        assert got == expected, str(spec)


# ---------------------------------------------------------------------------
# m_split
# ---------------------------------------------------------------------------


def test_m_split_example():
    r = m_split(parse_spec("Z/4 + Z/3 + Q"), 4)
    assert r.torsion == parse_spec("Z/4")
    assert r.complement == parse_spec("Z/3 + Q")
    assert r.prufer_overlap.is_trivial
    assert direct_sum(r.torsion_without_overlap, r.complement) == parse_spec("Z/4 + Z/3 + Q")


def test_m_split_rejects_partial_annihilation():
    with pytest.raises(MSplitPreconditionError):
        m_split(parse_spec("Z/8"), 4)
    with pytest.raises(MSplitPreconditionError):
        m_split(parse_spec("sumK(2; all)"), 2)


def test_m_split_trivial_m():
    spec = parse_spec("Z/8 + Zhat(3)")
    r = m_split(spec, 1)
    assert r.torsion.is_trivial
    assert r.complement == spec


def test_m_split_prufer_overlap_flagged():
    r = m_split(parse_spec("Prufer(2)^w + Z/3"), 4)
    assert r.torsion == parse_spec("Z/4^w")
    assert r.prufer_overlap == parse_spec("Z/4^w")
    assert r.complement == parse_spec("Prufer(2)^w + Z/3")
    assert direct_sum(r.torsion_without_overlap, r.complement) == parse_spec(
        "Prufer(2)^w + Z/3"
    )


def test_m_split_family_prime_extraction():
    r = m_split(parse_spec("sumP(all; Z/p^1)"), 6)
    assert r.torsion == parse_spec("Z/2 + Z/3")
    assert r.complement == parse_spec("sumP(all\\{2,3}; Z/p^1)")


def test_m_split_roundtrip_exhaustive_small():
    for spec in finite_abelian_specs(128):
        group = realize(spec)
        exp = group.exponent
        for m in range(1, exp + 1):
            try:
                r = m_split(spec, m)
            except MSplitPreconditionError:
                continue
            combined = direct_sum(r.torsion_without_overlap, r.complement)
            assert combined == spec
            # the torsion part matches the brute-force m-torsion subgroup
            torsion_sub = group.torsion_set(m)
            sub_group = _subgroup_as_group(group, torsion_sub)
            assert iso_finite_bruteforce(realize(r.torsion), sub_group), (str(spec), m)


def _subgroup_as_group(group, members):
    """Isomorphism type of a finite subgroup given as an element set.

    For each prime p, dim (p^k H)[p] counts the cyclic p-summands of H of
    exponent > k, so consecutive differences give the multiplicity of each
    Z/p^(k+1).
    """
    from sb_abelian.primes import factorize

    member_set = frozenset(members)
    if len(member_set) == 1:
        return FiniteAbelianGroup(())
    factors = []
    for p in factorize(len(member_set)):
        dims = []
        k = 0
        while True:
            scaled = frozenset(group.smul(p**k, g) for g in member_set)
            slice_size = sum(1 for g in scaled if group.smul(p, g) == group.zero)
            d = 0
            while slice_size > 1:
                slice_size //= p
                d += 1
            dims.append(d)
            if d == 0:
                break
            k += 1
        for k in range(len(dims) - 1):
            factors.extend([p ** (k + 1)] * (dims[k] - dims[k + 1]))
    return FiniteAbelianGroup(tuple(sorted(factors)))


# ---------------------------------------------------------------------------
# split_reduced_divisible
# ---------------------------------------------------------------------------


def test_split_reduced_divisible_partition():
    spec = parse_spec("Zhat(5) + Z/9 + Prufer(2) + Q^w + sumP(all; Z/p^1)")
    k_part, c_part, d_part = split_reduced_divisible(spec)
    assert k_part == parse_spec("Zhat(5)")
    assert c_part == parse_spec("Z/9 + sumP(all; Z/p^1)")
    assert d_part == parse_spec("Prufer(2) + Q^w")
    assert direct_sum(k_part, c_part, d_part) == spec


@settings(max_examples=60)
@given(st.integers(0, 10**9))
def test_split_reduced_divisible_reassembles(seed):
    import random

    spec = random_spec(random.Random(seed))
    k_part, c_part, d_part = split_reduced_divisible(spec)
    assert direct_sum(k_part, c_part, d_part) == spec
    for fam, _ in k_part.entries:
        assert isinstance(fam, (PAdicComplete, PAdicPrimeFamily))
    for fam, _ in d_part.entries:
        assert isinstance(fam, (Prufer, Rationals))


# ---------------------------------------------------------------------------
# CRT soundness against the oracle
# ---------------------------------------------------------------------------


def test_crt_soundness_all_modulus_up_to_256():
    for n in range(2, 257):
        spec = parse_spec(f"Z/{n}")
        assert iso_finite_bruteforce(realize(spec), FiniteAbelianGroup((n,))), n


def test_prime_set_algebra():
    odd = PrimeSet.cofinite({2})
    assert odd.contains(3) and not odd.contains(2)
    assert odd.remove([3]).primes == frozenset({2, 3})
    assert odd.first_n(3) == (3, 5, 7)
    assert PrimeSet.explicit({5, 3}).first_n(5) == (3, 5)
