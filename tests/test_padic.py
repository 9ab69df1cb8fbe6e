import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sb_abelian.padic import (
    AtLeast,
    BudgetExceeded,
    IntPolynomial2,
    MatrixModPk,
    NonUnitError,
    PAdicApprox,
    PAdicLazy,
    PrecisionMismatch,
    SingularModP,
    independence_certificate,
    matrix_limit_inverse,
    valuation_at_least,
)
from sb_abelian.primes import p_valuation


# ---------------------------------------------------------------------------
# fixed-precision arithmetic
# ---------------------------------------------------------------------------


def test_unit_inverse_example():
    a = PAdicApprox.of(2, 5, 3)
    inv = a.inverse()
    assert inv.residue == 63
    assert (a * inv).residue == 1


def test_valuation_examples():
    assert PAdicApprox.of(50, 5, 5).valuation() == 2
    assert PAdicApprox.of(1, 5, 5).valuation() == 0
    assert PAdicApprox.zero(5, 4).valuation() == AtLeast(4)
    assert str(AtLeast(4)) == ">=4"


def test_wraparound():
    s = PAdicApprox.of(124, 5, 3) + PAdicApprox.one(5, 3)
    assert s.residue == 0


def test_valuation_at_least_helper():
    assert valuation_at_least(3, 2)
    assert not valuation_at_least(1, 2)
    assert valuation_at_least(AtLeast(40), 39)
    assert not valuation_at_least(AtLeast(4), 5)


def test_non_unit_inverse_rejected():
    with pytest.raises(NonUnitError):
        PAdicApprox.of(10, 5, 3).inverse()


def test_precision_mismatch():
    with pytest.raises(PrecisionMismatch):
        PAdicApprox.of(1, 5, 3) + PAdicApprox.of(1, 5, 4)
    with pytest.raises(PrecisionMismatch):
        PAdicApprox.of(1, 5, 3) * PAdicApprox.of(1, 7, 3)


@given(
    st.integers(-1000, 1000),
    st.integers(-1000, 1000),
    st.integers(-1000, 1000),
)
def test_ring_laws(x, y, z):
    p, n = 3, 6
    a, b, c = (PAdicApprox.of(v, p, n) for v in (x, y, z))
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == PAdicApprox.zero(p, n)
    assert (a * b) * c == a * (b * c)
    assert a - b == a + (-b)


@given(st.integers(1, 10**6), st.integers(0, 8))
def test_pow_matches_repeated_product(x, e):
    a = PAdicApprox.of(x, 7, 5)
    expected = PAdicApprox.one(7, 5)
    for _ in range(e):
        expected = expected * a
    assert a**e == expected


def test_negative_pow_of_unit():
    a = PAdicApprox.of(3, 5, 4)
    assert (a**-2) * (a**2) == PAdicApprox.one(5, 4)


@given(st.integers(-10**9, 10**9), st.integers(1, 6))
def test_reduce_to_coherence(x, n):
    full = PAdicApprox.of(x, 5, 7)
    assert full.reduce_to(n).residue == full.residue % 5**n


# ---------------------------------------------------------------------------
# lazy digit streams
# ---------------------------------------------------------------------------


@given(st.integers(0, 2**32), st.integers(1, 30), st.integers(1, 30))
def test_truncation_coherence(seed, n, m):
    if n > m:
        n, m = m, n
    g = PAdicLazy.from_seed(5, seed)
    low, high = g.truncate(n), g.truncate(m)
    assert high.residue % 5**n == low.residue


def test_seed_determinism():
    a = PAdicLazy.from_seed(7, 42)
    b = PAdicLazy.from_seed(7, 42)
    # consume in different orders; the streams must agree
    a.truncate(20)
    assert [a.digit(i) for i in range(12)] == [b.digit(i) for i in range(12)]
    assert PAdicLazy.from_seed(7, 43).truncate(12) != a.truncate(12)


def test_seeded_streams_are_units():
    for seed in range(20):
        assert PAdicLazy.from_seed(3, seed).digit(0) != 0


def test_from_int_digits():
    g = PAdicLazy.from_int(5, 7)  # 7 = 2 + 1*5
    assert [g.digit(0), g.digit(1), g.digit(2)] == [2, 1, 0]
    minus_one = PAdicLazy.from_int(5, -1)
    assert [minus_one.digit(i) for i in range(6)] == [4] * 6
    assert (minus_one.truncate(4) + PAdicApprox.one(5, 4)).residue == 0


def test_from_rational():
    third = PAdicLazy.from_rational(5, 1, 3)
    assert (third.truncate(6).scale(3)).residue == 1
    with pytest.raises(NonUnitError):
        PAdicLazy.from_rational(5, 1, 10)


def test_from_truncations_square_stream():
    g = PAdicLazy.from_seed(5, 11)
    sq = PAdicLazy.from_truncations(
        5, lambda n: pow(g.truncate(n).residue, 2, 5**n), "square"
    )
    for n in (1, 3, 8):
        assert sq.truncate(n) == g.truncate(n) ** 2


@given(st.integers(-500, 500), st.integers(1, 500))
def test_rational_embedding_preserves_divisibility(num, den):
    # divisibility by p**k is decided identically before and after embedding
    p, n = 3, 12
    if den % p == 0:
        den += 1
    g = PAdicLazy.from_rational(p, num, den)
    v = g.truncate(n).valuation()
    for k in range(n):
        assert valuation_at_least(v, k) == (num % p**k == 0)


def test_truncation_is_coherent_in_any_order():
    g = PAdicLazy.from_seed(5, 99)
    order = list(range(1, 25))
    random.Random(7).shuffle(order)
    results = {n: g.truncate(n).residue for n in order}
    top = g.truncate(25).residue
    for n, r in results.items():
        assert top % 5**n == r
    assert top == PAdicLazy.from_seed(5, 99).truncate(25).residue


# ---------------------------------------------------------------------------
# matrix inverse towers
# ---------------------------------------------------------------------------


def test_scalar_tower_example():
    seq = [MatrixModPk.of([[2]], 5, n) for n in range(1, 4)]
    b = matrix_limit_inverse(seq)
    assert [m.rows[0][0] for m in b] == [3, 13, 63]
    for n in range(3):
        assert (seq[n] @ b[n]).is_identity()
        assert (b[n] @ seq[n]).is_identity()


def test_identity_tower():
    seq = [MatrixModPk.identity(3, 7, n) for n in range(1, 6)]
    assert matrix_limit_inverse(seq) == seq


def test_singular_rejected():
    with pytest.raises(SingularModP):
        matrix_limit_inverse([MatrixModPk.of([[5]], 5, 1)])
    with pytest.raises(SingularModP):
        matrix_limit_inverse(
            [MatrixModPk.of([[1, 2], [2, 4]], 3, 1)]
        )


def test_incompatible_sequence_rejected():
    good = MatrixModPk.of([[2]], 5, 1)
    with pytest.raises(ValueError):
        matrix_limit_inverse([good, MatrixModPk.of([[3]], 5, 2)])  # 3 != 2 mod 5
    with pytest.raises(ValueError):
        matrix_limit_inverse([MatrixModPk.of([[2]], 5, 2)])  # missing level 1
    with pytest.raises(ValueError):
        matrix_limit_inverse([])


@settings(max_examples=40)
@given(st.integers(0, 10**9), st.integers(1, 3), st.sampled_from([2, 3, 5]))
def test_random_invertible_towers(seed, k, p):
    import random as _random

    rng = _random.Random(seed)
    depth = 8
    while True:
        top = MatrixModPk.of(
            [[rng.randrange(p**depth) for _ in range(k)] for _ in range(k)],
            p,
            depth,
        )
        try:
            seq = [top.reduce_to(n) for n in range(1, depth + 1)]
            b = matrix_limit_inverse(seq)
            break
        except SingularModP:
            continue
    for n in range(depth):
        assert (seq[n] @ b[n]).is_identity()
        assert (b[n] @ seq[n]).is_identity()
        # the inverse tower is itself reduction-compatible
        assert b[depth - 1].reduce_to(n + 1) == b[n]


def test_matrix_product_shape_checks():
    a = MatrixModPk.identity(2, 5, 3)
    with pytest.raises(PrecisionMismatch):
        a @ MatrixModPk.identity(2, 5, 2)
    with pytest.raises(ValueError):
        a @ MatrixModPk.identity(3, 5, 3)


# ---------------------------------------------------------------------------
# integer polynomials
# ---------------------------------------------------------------------------


def test_polynomial_basics():
    q = IntPolynomial2.of({(1, 0): 1, (0, 1): -1, (2, 2): 0})
    assert q.max_exponent == 1
    assert q.height == 1
    assert not q.is_zero
    assert str(q) == "-y + x"
    assert IntPolynomial2.of({}).is_zero
    assert str(IntPolynomial2.of({})) == "0"


def test_polynomial_rendering():
    q = IntPolynomial2.of({(0, 0): -3, (2, 1): 2, (1, 1): 1})
    assert str(q) == "-3 + x*y + 2*x^2*y"


def test_polynomial_canonical_sign():
    q = IntPolynomial2.of({(1, 0): -2, (0, 1): 1})
    assert q.canonical_sign() == q  # first term (0,1) already positive
    r = IntPolynomial2.of({(0, 1): -1, (1, 0): 2})
    assert r.canonical_sign() == IntPolynomial2.of({(0, 1): 1, (1, 0): -2})


def test_polynomial_evaluate():
    q = IntPolynomial2.of({(2, 0): 1, (0, 1): -1})  # x^2 - y
    x = PAdicApprox.of(3, 5, 4)
    y = PAdicApprox.of(9, 5, 4)
    assert q.evaluate(x, y).residue == 0
    assert q.evaluate(y, x).residue == (81 - 3) % 5**4


def test_polynomial_json_round_trip():
    q = IntPolynomial2.of({(1, 2): -4, (0, 0): 7})
    assert IntPolynomial2.from_json(q.to_json()) == q


def test_polynomial_rejects_negative_exponents():
    with pytest.raises(ValueError):
        IntPolynomial2.of({(-1, 0): 1})


# ---------------------------------------------------------------------------
# independence certificates
# ---------------------------------------------------------------------------


def test_same_stream_fails():
    g = PAdicLazy.from_seed(5, 7)
    cert = independence_certificate(g, g, 1, 1, 10)
    assert not cert.passed
    assert cert.violation == IntPolynomial2.of({(0, 1): 1, (1, 0): -1})  # y - x
    assert cert.candidates == 3**4


def test_square_stream_fails():
    g1 = PAdicLazy.from_seed(5, 11)
    g2 = PAdicLazy.from_truncations(
        5, lambda n: pow(g1.truncate(n).residue, 2, 5**n), "square"
    )
    cert = independence_certificate(g1, g2, 2, 1, 12)
    assert not cert.passed
    q = cert.violation
    assert q is not None and not q.is_zero
    assert q.max_exponent <= 2 and q.height <= 1
    assert q.evaluate(g1.truncate(12), g2.truncate(12)).residue == 0
    # the minimal relation y - x^2 is in the searched space and vanishes
    minimal = IntPolynomial2.of({(0, 1): 1, (2, 0): -1})
    assert minimal.evaluate(g1.truncate(12), g2.truncate(12)).residue == 0


def test_generic_pair_passes():
    g1 = PAdicLazy.from_seed(5, 0)
    g2 = PAdicLazy.from_seed(5, 1)
    cert = independence_certificate(g1, g2, 1, 1, 10)
    assert cert.passed
    assert cert.violation is None
    assert cert.candidates == 81
    assert cert.to_json()["passed"] is True


def test_certificate_monotone_in_bounds():
    g1 = PAdicLazy.from_seed(5, 0)
    g2 = PAdicLazy.from_seed(5, 1)
    if independence_certificate(g1, g2, 2, 2, 12).passed:
        for d, b in [(1, 1), (1, 2), (2, 1)]:
            assert independence_certificate(g1, g2, d, b, 12).passed


def test_budget_guard():
    g1 = PAdicLazy.from_seed(5, 0)
    g2 = PAdicLazy.from_seed(5, 1)
    with pytest.raises(BudgetExceeded):
        independence_certificate(g1, g2, 1, 1, 10, budget=80)
    assert independence_certificate(g1, g2, 1, 1, 10, budget=81).passed


def test_non_unit_inputs_rejected():
    g1 = PAdicLazy.from_int(5, 10)  # divisible by 5
    g2 = PAdicLazy.from_seed(5, 1)
    with pytest.raises(NonUnitError):
        independence_certificate(g1, g2, 1, 1, 5)


def test_mismatched_primes_rejected():
    with pytest.raises(PrecisionMismatch):
        independence_certificate(
            PAdicLazy.from_seed(5, 0), PAdicLazy.from_seed(7, 0), 1, 1, 5
        )


def test_certificate_json_shape():
    g1 = PAdicLazy.from_seed(5, 0)
    cert = independence_certificate(g1, g1, 1, 1, 6)
    data = cert.to_json()
    assert data["p"] == 5
    assert data["passed"] is False
    assert data["violation"] == [[0, 1, 1], [1, 0, -1]]
    assert data["sources"] == ["seeded(0)", "seeded(0)"]
