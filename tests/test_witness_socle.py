import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sb_abelian.groupspec import NotApplicableError, PrimeSet, parse_spec
from sb_abelian.relations import RetriesExhausted, grid_allows
from sb_abelian.witness_socle import (
    AutomorphismPair,
    PrimeWindow,
    ProductElement,
    build_socle_witness,
    choose_scalars,
    product_membership,
    proper_inclusion_check,
    pseudo_divide,
    random_socle_member,
    reduce_unbounded_torsion,
    window_from_socle,
)

from _gen import product_coefficient, product_support

ODD_PRIMES = PrimeSet.cofinite({2})
ALL_PRIMES = PrimeSet.cofinite()

# One witness shared by most element-level tests.  Small bounds keep the
# exhaustive scan at 80 candidate polynomials, so this is essentially free.
WIT = build_socle_witness(
    PrimeWindow(ODD_PRIMES, 10),
    seed=0,
    max_exponent=1,
    height_bound=1,
    threshold=2,
)


# ---------------------------------------------------------------------------
# prime windows
# ---------------------------------------------------------------------------


def test_window_over_takes_first_primes():
    w = PrimeWindow(ODD_PRIMES, 4)
    assert w.primes == (3, 5, 7, 11)
    assert w.width == 4
    assert w.rank(3) == 1 and w.rank(101) == 1


def test_window_rank_overrides():
    w = PrimeWindow(ODD_PRIMES, 3, generic_rank=2, overrides=((5, 7),))
    assert w.rank(5) == 7
    assert w.rank(3) == 2


def test_window_validation():
    for args, message in [
        ((0,), "width must be >= 1"),
        ((2.5,), "window width must be >= 1, got 2.5"),
        ((2, 0), "generic rank must be >= 1"),
        ((3, 1.5), "generic rank must be >= 1, got 1.5"),
        ((2, 1, ((7, 2), (5, 3))), "p=5 out of order"),
        ((2, 1, ((7, 2), (7, 3))), "p=7 out of order or duplicated"),
        ((2, 1, ((5, 0),)), "p=5 must be >= 1"),
        ((2, 1, ((2, 1),)), "p=2 outside the support"),
        # the support holds every odd number but only odd primes
        ((3, 1, ((4, 2),)), "rank override: 4 is not a prime number"),
        ((3, 1, ((9, 2),)), "rank override: 9 is not a prime number"),
        # a list would give a window unequal to the tuple form, and unhashable
        ((3, 1, [(5, 2)]), "must be a tuple of"),
        ((3, 1, ([5, 2],)), "must be a tuple of"),
    ]:
        with pytest.raises(ValueError, match=message):
            PrimeWindow(ODD_PRIMES, *args)


def test_window_from_socle_single_family():
    w = window_from_socle(parse_spec("sumP(all\\{2}; Z/p^1)"), width=6)
    assert w.source == ODD_PRIMES
    assert w.primes == (3, 5, 7, 11, 13, 17)
    assert w.generic_rank == 1
    assert w.overrides == ()


def test_window_from_socle_overrides_and_union():
    # rank 2 generically, but p=5 picks up an extra cyclic summand and p=3
    # only sits in one of the two families
    spec = parse_spec("sumP(all\\{2}; Z/p^1) + sumP(all\\{2,3}; Z/p^1) + Z/5")
    w = window_from_socle(spec, width=5)
    assert w.source == ODD_PRIMES
    assert w.generic_rank == 2
    assert dict(w.overrides) == {3: 1, 5: 3}


def test_window_from_socle_rejects_non_socle_input():
    with pytest.raises(ValueError, match="socle"):
        window_from_socle(parse_spec("sumP(all; Z/p^2)"), 50)
    with pytest.raises(ValueError, match="socle"):
        window_from_socle(parse_spec("Prufer(3) + sumP(all; Z/p^1)"), 50)
    with pytest.raises(ValueError, match="infinite multiplicity"):
        window_from_socle(parse_spec("sumP(all; Z/p^1)^w"), 50)
    with pytest.raises(ValueError, match="finitely many"):
        window_from_socle(parse_spec("Z/3 + Z/5"), 50)


# ---------------------------------------------------------------------------
# scalar search
# ---------------------------------------------------------------------------


def test_choose_scalars_small_example():
    # five-prime window including 2, tight bounds: still findable
    w = PrimeWindow(ALL_PRIMES, 5)
    assert w.primes == (2, 3, 5, 7, 11)
    pair, cert = choose_scalars(
        w, max_exponent=1, height_bound=1, threshold=2, seed=1
    )
    assert cert.passed
    assert cert.min_count >= 2
    assert cert.candidates == 3**4 - 1
    # histogram covers every nonzero polynomial exactly once
    assert sum(n for _, n in cert.histogram) == cert.candidates
    assert all(count >= cert.min_count for count, _ in cert.histogram)


def test_choose_scalars_deterministic():
    w = PrimeWindow(ODD_PRIMES, 8)
    a = choose_scalars(w, max_exponent=1, height_bound=1, threshold=2, seed=3)
    b = choose_scalars(w, max_exponent=1, height_bound=1, threshold=2, seed=3)
    assert a == b


def test_choose_scalars_unmeetable_threshold_fails():
    # the only units mod 3 are 1 and -1, so x - 1 or x + 1 vanishes at p = 3
    # and no draw survives at all 8 window primes
    w = PrimeWindow(ODD_PRIMES, 8)
    with pytest.raises(RetriesExhausted) as info:
        choose_scalars(w, max_exponent=1, height_bound=1, threshold=8, seed=0)
    assert info.value.attempts == 8
    assert "after 8 attempt(s)" in str(info.value)
    assert max(cert.min_count for cert in info.value.certificates) == 6


def test_choose_scalars_constant_polynomials_trivially_pass():
    w = PrimeWindow(ODD_PRIMES, 5)
    _, cert = choose_scalars(w, max_exponent=0, height_bound=1, threshold=2, seed=0)
    # +-1 never vanishes at any odd prime
    assert cert.min_count == w.width


def test_choose_scalars_threshold_beyond_width():
    w = PrimeWindow(ODD_PRIMES, 3)
    with pytest.raises(RetriesExhausted, match="exceeds the window width") as info:
        choose_scalars(w, threshold=4, max_exponent=1, height_bound=1)
    assert info.value.attempts == 0 and info.value.certificates == ()


def test_choose_scalars_validation():
    w = PrimeWindow(ODD_PRIMES, 3)
    with pytest.raises(ValueError):
        choose_scalars(w, max_exponent=-1)
    with pytest.raises(ValueError):
        choose_scalars(w, height_bound=0)
    with pytest.raises(ValueError):
        choose_scalars(w, threshold=0)


def test_certificate_json():
    data = WIT.certificate.to_json()
    assert data["passed"] is True
    assert data["width"] == 10
    assert data["threshold"] == 2
    assert isinstance(data["histogram"], dict)
    assert all(len(term) == 3 for term in data["worst"])


def test_automorphism_pair_units_and_tail_rule():
    pair = WIT.scalars
    for p, s, t in zip(pair.window.primes, pair.first, pair.second):
        assert 0 < s < p and 0 < t < p
        assert pair.at(p) == (s, t)
    # beyond the window: deterministic seeded units
    s1, t1 = pair.at(541)
    assert (s1, t1) == pair.at(541)
    assert 0 < s1 < 541 and 0 < t1 < 541
    with pytest.raises(ValueError, match="outside the support"):
        pair.at(2)


@pytest.mark.parametrize("call", [
    lambda: WIT.scalars.at(9),
    lambda: WIT.base_point().evaluate(4),
    lambda: WIT.from_coordinates({4: [3]}),
], ids=["at", "evaluate", "from_coordinates"])
def test_non_primes_are_refused_past_the_window(call):
    # 4 and 9 are not excluded from the odd support, but they are not primes
    with pytest.raises(ValueError, match="not a prime"):
        call()


def test_automorphism_pair_validation():
    # the pair holds only its inputs: the window scalars are drawn from them
    w = PrimeWindow(ODD_PRIMES, 6)
    pair = AutomorphismPair(w, 4, 2)
    assert len(pair.first) == len(pair.second) == w.width
    for p, s, t in zip(w.primes, pair.first, pair.second):
        assert 0 < s < p and 0 < t < p
        assert pair.at(p) == (s, t)
    again = AutomorphismPair(w, 4, 2)
    assert pair == again and (pair.first, pair.second) == (again.first, again.second)
    with pytest.raises(TypeError):
        AutomorphismPair(w, 0, 0, (1,) * 6, (1,) * 6)


# ---------------------------------------------------------------------------
# pseudo-division
# ---------------------------------------------------------------------------


def test_pseudo_divide_zeroes_own_prime_and_divides_rest():
    g = WIT.from_coordinates({3: (1,), 5: (2,)})
    h = pseudo_divide(g, 3)
    assert h.evaluate(3) == (0,)
    assert h.evaluate(5) == (4,)  # 3^-1 = 2 mod 5, 2*2 = 4


def test_pseudo_divide_by_unit_modulus():
    # 2 is outside the support: plain exact division everywhere
    g = WIT.from_coordinates({3: (1,), 5: (2,)})
    h = g.pseudo_divide(2)
    assert h.evaluate(3) == (2,)  # 2^-1 = 2 mod 3
    assert h.evaluate(5) == (1,)  # 2^-1 = 3 mod 5, 3*2 = 6 = 1


def test_pseudo_divide_identity():
    g = random_socle_member(WIT, random.Random(11))
    assert g.pseudo_divide(1) == g


def test_pseudo_divide_rejects_bad_modulus():
    g = WIT.base_point()
    with pytest.raises(ValueError):
        g.pseudo_divide(0)
    with pytest.raises(ValueError):
        g.pseudo_divide(-3)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 20), st.integers(1, 20), st.integers(0, 10**9))
def test_pseudo_divide_composition_law(a, b, seed):
    x = random_socle_member(WIT, random.Random(seed))
    assert x.pseudo_divide(a).pseudo_divide(b) == x.pseudo_divide(a * b)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 30), st.integers(0, 10**9))
def test_scale_undoes_pseudo_divide_off_the_modulus(n, seed):
    x = random_socle_member(WIT, random.Random(seed))
    back = x.pseudo_divide(n).scale(n)
    for p in WIT.window.primes[:5]:
        if n % p == 0:
            assert back.evaluate(p) == (0,) * WIT.window.rank(p)
        else:
            assert back.evaluate(p) == x.evaluate(p)


# ---------------------------------------------------------------------------
# element arithmetic and evaluation
# ---------------------------------------------------------------------------


def test_grid_point_evaluation_matches_scalars():
    x = WIT.grid_point(2, 1)
    for p in (3, 5, 7):
        s, t = WIT.scalars.at(p)
        assert x.evaluate(p) == (s * s * t % p,)


def test_addition_is_exact_on_evaluations():
    rng = random.Random(23)
    for _ in range(20):
        x = random_socle_member(WIT, rng)
        y = random_socle_member(WIT, rng)
        z = x + y
        for p in (3, 5, 11):
            want = tuple(
                (a + b) % p for a, b in zip(x.evaluate(p), y.evaluate(p))
            )
            assert z.evaluate(p) == want


def test_subtraction_round_trip():
    rng = random.Random(29)
    x = random_socle_member(WIT, rng)
    y = random_socle_member(WIT, rng)
    assert (x + y) - y == x
    assert x - x == WIT.zero()
    assert -x == x.scale(-1)


def test_fraction_reduction_keeps_evaluations_exact():
    # 3 * (a / 3) has a cancelling tail coefficient; the zeroed component at
    # p=3 must survive the cancellation as an exception entry
    a = WIT.base_point()
    x = a.pseudo_divide(3).scale(3)
    assert product_coefficient(x, 0, 0) == 1
    assert x.evaluate(3) == (0,)
    assert x.evaluate(5) == a.evaluate(5)
    assert x != a  # they differ at p=3, and the forms record it


def test_apply_scalar_shifts_and_multiplies():
    rng = random.Random(31)
    x = random_socle_member(WIT, rng)
    y = x.apply_scalar(1)
    z = x.apply_scalar(2)
    assert product_support(y) == tuple((i + 1, j) for i, j in product_support(x))
    for p in (3, 7, 13):
        s, t = WIT.scalars.at(p)
        assert y.evaluate(p) == tuple(s * v % p for v in x.evaluate(p))
        assert z.evaluate(p) == tuple(t * v % p for v in x.evaluate(p))
    with pytest.raises(ValueError):
        x.apply_scalar(3)


def test_apply_scalar_then_unit_inverse_is_identity_on_evaluations():
    rng = random.Random(37)
    x = random_socle_member(WIT, rng)
    y = x.apply_scalar(1)
    for p in WIT.window.primes:
        inv = pow(WIT.scalars.at(p)[0], -1, p)
        assert tuple(inv * v % p for v in y.evaluate(p)) == x.evaluate(p)


def test_from_coordinates_validation():
    with pytest.raises(ValueError, match="outside the support"):
        WIT.from_coordinates({2: (1,)})
    with pytest.raises(ValueError, match="length"):
        WIT.from_coordinates({3: (1, 1)})
    assert WIT.from_coordinates({3: (0,)}) == WIT.zero()


def test_cross_witness_arithmetic_rejected():
    other = build_socle_witness(
        PrimeWindow(ODD_PRIMES, 10),
        seed=5,
        max_exponent=1,
        height_bound=1,
        threshold=2,
    )
    with pytest.raises(ValueError, match="different witness"):
        WIT.base_point() + other.base_point()
    with pytest.raises(ValueError, match="different witness"):
        product_membership(WIT.base_point(), "H1", other)


def test_evaluate_outside_support_rejected():
    with pytest.raises(ValueError, match="outside the support"):
        WIT.base_point().evaluate(2)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_base_point_in_both_subgroups():
    a = WIT.base_point()
    assert product_membership(a, "H1", WIT)
    assert product_membership(a, "H2", WIT)


def test_finite_support_elements_lie_in_h2():
    g = WIT.from_coordinates({3: (2,), 11: (7,)})
    assert product_membership(g, "H2", WIT)
    assert product_membership(g, "H1", WIT)


def test_second_scalar_moves_base_point_out_of_h2():
    x = WIT.base_point().apply_scalar(2)
    assert product_membership(x, "H1", WIT)
    assert not product_membership(x, "H2", WIT)


def test_first_scalar_embeds_h1_into_h2():
    rng = random.Random(43)
    for _ in range(100):
        x = random_socle_member(WIT, rng, "H1")
        assert product_membership(x.apply_scalar(1), "H2", WIT)


def test_h2_contained_in_h1():
    rng = random.Random(47)
    for _ in range(100):
        x = random_socle_member(WIT, rng, "H2")
        assert product_membership(x, "H2", WIT)
        assert product_membership(x, "H1", WIT)


def test_pseudo_divide_preserves_membership():
    # dividing by window-prime products keeps the tail support unchanged
    rng = random.Random(53)
    for _ in range(20):
        x = random_socle_member(WIT, rng, "H2")
        assert product_membership(x.pseudo_divide(15), "H2", WIT)
        assert product_membership(x.pseudo_divide(21), "H1", WIT)


def test_random_member_on_a_window_of_one_prime():
    # PrimeWindow allows a window of one prime, so the denominators must
    # not need a second
    w = build_socle_witness(PrimeWindow(ALL_PRIMES, 1), max_exponent=0,
                            height_bound=1, threshold=1)
    rng = random.Random(0)
    for which in ("H1", "H2"):
        for _ in range(20):
            assert product_membership(random_socle_member(w, rng, which), which, w)


def test_element_from_json_rejects_non_canonical():
    # The three shapes a JSON element reader would have to reject; with no
    # such reader, membership is the gate that refuses them.
    one = Fraction(1)
    for bad in (
        ProductElement(WIT, (((0, 0), Fraction(0)),), ()),  # zero coefficient
        ProductElement(WIT, (((1, 0), one), ((0, 0), one)), ()),  # unsorted tail
        ProductElement(WIT, (), ((3, (0,)),)),  # zero exception vector
        ProductElement(WIT, (((-1, 0), one),), ()),  # negative grid exponent
        ProductElement(WIT, (), ((3, (3,)),)),  # coordinate not reduced mod p
        ProductElement(WIT, (), ((5, (1,)), (3, (1,)))),  # unsorted exceptions
        ProductElement(WIT, (), ((2, (1,)),)),  # prime outside the support
    ):
        with pytest.raises(ValueError, match="membership wants a canonical element"):
            product_membership(bad, "H1", WIT)


def test_membership_refuses_an_exception_at_a_non_prime():
    bad = ProductElement(WIT, (), ((4, (1,)),))
    for refused in (lambda: bad.evaluate(4), lambda: product_membership(bad, "H1", WIT)):
        with pytest.raises(ValueError, match="4 is not a prime number"):
            refused()


def test_membership_refuses_an_exception_vector_shorter_than_its_block():
    w = build_socle_witness(PrimeWindow(ODD_PRIMES, 10, generic_rank=2), seed=0,
                            max_exponent=1, height_bound=1, threshold=2)
    assert product_membership(ProductElement(w, (), ((3, (1, 0)),)), "H2", w)
    with pytest.raises(ValueError, match="membership wants a canonical element"):
        product_membership(ProductElement(w, (), ((3, (1,)),)), "H2", w)


def test_membership_rejects_non_canonical_elements():
    bad = ProductElement(WIT, (((0, 0), Fraction(0)),), ())
    with pytest.raises(ValueError, match="membership wants a canonical element"):
        product_membership(bad, "H1", WIT)
    with pytest.raises(ValueError, match="one of"):
        product_membership(WIT.base_point(), "H3", WIT)


def test_grid_contains_shapes():
    assert grid_allows("H1", 0, 5)
    assert not grid_allows("H2", 0, 5)
    assert grid_allows("H2", 0, 0)
    assert grid_allows("H2", 4, 2)
    # membership follows the same grids
    assert product_membership(WIT.grid_point(0, 5), "H1", WIT)
    assert not product_membership(WIT.grid_point(0, 5), "H2", WIT)
    assert product_membership(WIT.grid_point(4, 2), "H2", WIT)


# ---------------------------------------------------------------------------
# witness assembly
# ---------------------------------------------------------------------------


def test_witness_json_shape():
    data = WIT.to_json()
    assert data["kind"] == "socle-witness-pair"
    assert data["certificate"]["passed"] is True
    assert data["grids"]["H2"] == "i >= 1, plus (0, 0)"
    assert data["window"]["primes"] == list(WIT.window.primes)
    # the base point is all-ones; the two knobs it once had print as constants
    assert WIT.base_point().evaluate(3) == (1,) and WIT.base_point().evaluate(13) == (1,)
    assert data["base_overrides"] == [] and data["scalars"]["diagonal"] is False


def test_proper_inclusion_check_passes_at_test_scale():
    check = proper_inclusion_check(WIT, max_shift=3)
    assert check.passed
    assert [m for m, _, _ in check.rows] == [0, 1, 2, 3]
    assert all(c >= WIT.certificate.threshold for _, c, _ in check.rows)
    data = check.to_json()
    assert data["passed"] is True
    assert len(data["rows"]) == 4


def test_proper_inclusion_check_refuses_a_negative_max_shift():
    # no shift would be scanned, and an empty check would pass
    w = build_socle_witness(PrimeWindow(ALL_PRIMES, 20), max_exponent=2,
                            height_bound=2, threshold=3)
    with pytest.raises(ValueError, match="max_shift must be >= 0, got -1"):
        proper_inclusion_check(w, max_shift=-1)


@pytest.mark.parametrize("text,seed,counts", [
    ("sumP(all; Z/p^1)", 7, [10, 8, 7, 6, 7, 8]),
    ("sumP(all\\{2}; Z/p^1)", 41, [10, 9, 8, 7, 7, 8]),
])
def test_proper_inclusion_check_at_the_certify_bounds(text, seed, counts):
    # window 16, degree 2, height 2 and shifts 0-5: shifts 2-5 scan all nine
    # monomials, against a different target each
    window = window_from_socle(parse_spec(text), 16)
    w = build_socle_witness(window, seed=seed, max_exponent=2, height_bound=2, threshold=3)
    assert proper_inclusion_check(w, max_shift=5).to_json() == {
        "max_shift": 5, "threshold": 3, "max_exponent": 2, "height_bound": 2,
        "rows": [{"shift": m, "min_count": c, "candidates": 5 ** min(9, 5 + 2 * m)}
                 for m, c in enumerate(counts)],
        "passed": True,
    }


# ---------------------------------------------------------------------------
# the reduction pipeline
# ---------------------------------------------------------------------------


def _reduce(text, **kw):
    kw.setdefault("width", 10)
    kw.setdefault("max_exponent", 1)
    kw.setdefault("height_bound", 1)
    kw.setdefault("threshold", 2)
    return reduce_unbounded_torsion(parse_spec(text), **kw)


@pytest.mark.parametrize("build", [
    lambda **kw: reduce_unbounded_torsion(parse_spec("sumP(all; Z/p^1)"), width=10, **kw),
    lambda **kw: build_socle_witness(PrimeWindow(ODD_PRIMES, 10), **kw),
], ids=["reduce_unbounded_torsion", "build_socle_witness"])
def test_forwarded_bounds_reach_choose_scalars(build):
    # each builds with these bounds, and a misspelt keyword is refused where
    # the bounds are defined, not dropped on the way
    bounds = {"max_exponent": 1, "height_bound": 1, "threshold": 2}
    build(**bounds)
    with pytest.raises(TypeError, match=r"choose_scalars\(\) got an unexpected keyword "
                                        r"argument 'bogus'"):
        build(**bounds, bogus=1)


def test_reduce_plain_family_is_already_a_socle():
    out = _reduce("sumP(all\\{2}; Z/p^1)")
    assert out.modulus == 1
    assert str(out.socle_part) == "sumP(all\\{2}; Z/p^1)"
    assert str(out.carried_bounded) == "0"
    assert str(out.carried_divisible) == "0"
    steps = [t["step"] for t in out.transcript]
    assert steps == [
        "stability-gate",
        "bounded-split",
        "socle",
        "window",
        "witness",
        "lift",
    ]
    split = next(t for t in out.transcript if t["step"] == "bounded-split")
    assert split["trivial"] is True
    assert out.witness.certificate.passed


def test_reduce_splits_off_infinite_multiplicity_bounded_types():
    out = _reduce("sumP(all; Z/p^2) + Z/4^w")
    assert out.modulus == 4
    assert str(out.carried_bounded) == "Z/4^w"
    assert str(out.socle_part) == "sumP(all\\{2}; Z/p^1)"
    split = next(t for t in out.transcript if t["step"] == "bounded-split")
    assert split["trivial"] is False
    assert split["modulus"] == 4


def test_reduce_carries_divisible_summands_with_a_flagged_reading():
    out = _reduce("sumP(all\\{2}; Z/p^1) + Q + Prufer(3)^w")
    assert str(out.carried_divisible) == "Prufer(3)^w + Q"
    step = next(t for t in out.transcript if t["step"] == "carried-divisible")
    assert "recorded, not asserted" in step["note"]


def test_reduce_rejects_unbounded_exponent_at_a_fixed_prime():
    with pytest.raises(NotApplicableError, match="not superstable"):
        _reduce("sumK(3; all)")


def test_reduce_rejects_infinite_multiplicity_over_infinitely_many_primes():
    with pytest.raises(NotApplicableError, match="not superstable"):
        _reduce("sumP(all; Z/p^1)^w")


def test_reduce_rejects_bounded_torsion():
    with pytest.raises(NotApplicableError, match="bounded"):
        _reduce("Z/4^w + Z/9")


def test_reduce_rejects_completion_summands():
    with pytest.raises(NotApplicableError, match="completion"):
        _reduce("Zhat(3) + sumP(all\\{3}; Z/p^1)")


def test_reduce_outcome_json():
    out = _reduce("sumP(all\\{2}; Z/p^1)")
    data = out.to_json()
    assert data["kind"] == "unbounded-torsion-reduction"
    assert data["modulus"] == 1
    assert data["witness"]["kind"] == "socle-witness-pair"
    assert [t["step"] for t in data["transcript"]][0] == "stability-gate"
