import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sb_abelian import groupspec
from sb_abelian.groupspec import (
    ALEPH0,
    ALL_PRIMES,
    Cardinal,
    Cyclic,
    CyclicExponentFamily,
    CyclicPrimeFamily,
    GroupSpec,
    NotApplicableError,
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

from _gen import (
    finite_abelian_specs,
    multiplicity,
    parse_digest,
    random_entries,
    random_spec,
    torsion_set,
)


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
    # the parser writes a finite family out as one singleton per listed member
    assert parse_spec("sumP({3,5}; Z/p^2)") == parse_spec("Z/9 + Z/25")
    assert parse_spec("sumP({5,3}; Zhat)^2") == parse_spec("Zhat(3)^2 + Zhat(5)^2")
    assert parse_spec("sumK(2; {1,3})") == parse_spec("Z/2 + Z/8")
    assert parse_spec("sumP({3,3}; Z/p^1) + sumK(2; {1,1})") == parse_spec("Z/3 + Z/2")
    assert parse_spec("sumK(2; all)").entries == (
        (CyclicExponentFamily(2), Cardinal.of(1)),
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


@pytest.mark.parametrize("text, message, at", [
    ("Z/ 1", "Z/1 is not a valid modulus", 3),
    ("sumP(all; Z/p^ 0)", "exponent must be >= 1", 15),
    ("sumK(2; {3, 0})", "exponents must be >= 1", 12),
    # the exponents are checked left to right: the zero before the overlarge one
    ("sumK(2; {0, 99999999999999999999})", "exponents must be >= 1", 9),
    # numbers are ASCII digits: not a superscript, which int() refuses, nor
    # another script's decimal digit, which int() reads
    ("Z/\u00b2", "expected a number", 2),
    ("Z/\u0663", "expected a number", 2),
    ("Q^\u0663", "expected a number", 2),
])
def test_number_errors_point_at_the_number(text, message, at):
    with pytest.raises(SpecSyntaxError) as exc:
        parse_spec(text)
    assert str(exc.value) == f"{message} (at position {at})"


# sha256 of the normal form, or the error class, message and position, that
# the parser gives each of 20,000 seeded fuzzed texts: valid and mutated texts
# over every grammar form (``_gen.parse_digest``)
PARSE_DIGEST = "cea0087ab33d835ed7de2272969c60bae331e78fa6faa8280dae3be9d416931b"


def test_parse_outcomes_on_fuzzed_texts_are_pinned():
    digest = parse_digest()
    assert digest == PARSE_DIGEST, digest


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
    with pytest.raises(TypeError, match="multiplicity must be a Cardinal, got 1"):
        normalize([(Cyclic(2, 3), 1)])


def test_normalize_merges_family_with_expanded_singleton():
    a = parse_spec("sumP({5}; Z/p^2)^w")
    b = normalize([(Cyclic(5, 2), ALEPH0)])
    assert a == b
    assert parse_spec("sumP({5}; Z/p^2) + Z/25^2") == parse_spec("Z/25^3")


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


def test_random_spec_population_is_pinned():
    # the normal forms of 2,000 seeded draws; a change to how the generator
    # builds its entries must leave every one of them as it is
    import hashlib
    import random

    rng = random.Random(2023)
    text = "\n".join(str(random_spec(rng)) for _ in range(2000))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ce504ae1f89c43ca357b312bfa21b6aa6e9167d696bc8bbc528b92b1a9dec821")


@settings(max_examples=60)
@given(st.integers(0, 10**9))
def test_direct_sum_commutative_and_adds(seed):
    import random

    rng = random.Random(seed)
    a, b = random_spec(rng), random_spec(rng)
    assert direct_sum(a, b) == direct_sum(b, a)
    for fam, mult in a.entries:
        assert multiplicity(direct_sum(a, b), fam) == mult + multiplicity(b, fam)


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
    assert m_split(r.complement, 4).torsion.is_trivial  # no quasicyclic 4-torsion
    assert direct_sum(r.torsion, r.complement) == parse_spec("Z/4 + Z/3 + Q")


def test_m_split_rejects_partial_annihilation():
    with pytest.raises(NotApplicableError, match=r"contribution p\^3 at p=2 does not divide m=4"):
        m_split(parse_spec("Z/8"), 4)
    with pytest.raises(NotApplicableError, match="contribution unbounded at p=2 does not divide m=2"):
        m_split(parse_spec("sumK(2; all)"), 2)
    with pytest.raises(NotApplicableError, match=r"contribution p\^2 at p=2 does not divide m=2"):
        m_split(parse_spec("sumP(all; Z/p^2)"), 2)


def test_m_split_trivial_m():
    spec = parse_spec("Z/8 + Zhat(3)")
    r = m_split(spec, 1)
    assert r.torsion.is_trivial
    assert r.complement == spec


def test_m_split_prufer_overlap_flagged():
    r = m_split(parse_spec("Prufer(2)^w + Z/3"), 4)
    assert r.torsion == parse_spec("Z/4^w")
    # the quasicyclic 4-torsion is counted in both parts: it is the
    # complement's own 4-torsion, and it is all of the torsion part
    assert m_split(r.complement, 4).torsion == parse_spec("Z/4^w")
    assert r.complement == parse_spec("Prufer(2)^w + Z/3")
    assert r.torsion == m_split(r.complement, 4).torsion


def test_m_split_family_prime_extraction():
    r = m_split(parse_spec("sumP(all; Z/p^1)"), 6)
    assert r.torsion == parse_spec("Z/2 + Z/3")
    assert r.complement == parse_spec("sumP(all\\{2,3}; Z/p^1)")
    # a family of exponents at a prime prime to m passes whole into the complement
    r = m_split(parse_spec("sumK(3; all)"), 2)
    assert r.torsion.is_trivial
    assert r.complement == parse_spec("sumK(3; all)")


def test_m_split_roundtrip_exhaustive_small():
    for spec in finite_abelian_specs(128):
        group = realize(spec)
        exp = group.exponent
        for m in range(1, exp + 1):
            try:
                r = m_split(spec, m)
            except NotApplicableError:
                continue
            combined = direct_sum(r.torsion, r.complement)  # no quasicyclic summand
            assert combined == spec
            # the torsion part matches the brute-force m-torsion subgroup
            torsion_sub = torsion_set(group, m)
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
    assert odd.remove([3]).excluded == frozenset({2, 3})
    assert odd.first_n(3) == (3, 5, 7)
    # normal forms order families by the excluded primes as a string
    assert str(parse_spec("sumP(all\\{2}; Zhat) + sumP(all; Zhat) + sumP(all\\{11}; Zhat)")) == (
        "sumP(all; Zhat) + sumP(all\\{11}; Zhat) + sumP(all\\{2}; Zhat)")


def test_first_n_takes_no_prime_for_zero_and_refuses_a_negative_count():
    # a child process turns a hang into a failure
    probe = "\n".join([
        "import sys; sys.path.insert(0, sys.argv[1])",
        "from sb_abelian.groupspec import PrimeSet",
        "print(PrimeSet.cofinite().first_n(0))",
        "try: PrimeSet.cofinite().first_n(-1)",
        "except ValueError as err: print(err)",
    ])
    src = str(Path(groupspec.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", probe, src], capture_output=True, text=True,
                          timeout=10)
    assert (done.returncode, done.stdout) == (0, "()\nprime count must be >= 0, got -1\n"), done.stderr
