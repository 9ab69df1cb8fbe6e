import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sb_abelian.padic import (
    AtLeast,
    BudgetExceeded,
    NonUnitError,
    PAdicApprox,
    SingularModP,
    independence_certificate,
    matrix_inverse_mod,
    matrix_product_mod,
    seeded_unit,
    valuation_at_least,
)
from sb_abelian.relations import monomials, relation_str, terms


# ---------------------------------------------------------------------------
# fixed-precision residues
# ---------------------------------------------------------------------------


def test_valuation_examples():
    assert PAdicApprox.of(50, 5, 5).valuation() == 2
    assert PAdicApprox.of(1, 5, 5).valuation() == 0
    assert PAdicApprox.of(0, 5, 4).valuation() == AtLeast(4)
    assert str(AtLeast(4)) == ">=4"
    assert str(PAdicApprox.of(-1, 5, 2)) == "24 (mod 5^2)"


def test_wraparound():
    a = PAdicApprox.of(124, 5, 3)
    assert PAdicApprox.of(a.residue + 1, 5, 3).residue == 0
    with pytest.raises(ValueError):
        PAdicApprox(5, 3, 125)


def test_valuation_at_least_helper():
    assert valuation_at_least(3, 2)
    assert not valuation_at_least(1, 2)
    assert valuation_at_least(AtLeast(40), 39)
    assert not valuation_at_least(AtLeast(4), 5)
    assert valuation_at_least(AtLeast(0), 0)


def test_at_least_refuses_a_negative_bound():
    with pytest.raises(ValueError, match="valuation bound must be >= 0, got -1"):
        AtLeast(-1)


# ---------------------------------------------------------------------------
# seeded units and rational residues
# ---------------------------------------------------------------------------


def _digits(a: PAdicApprox) -> list[int]:
    """The base-p digits of a residue, least significant first."""
    return [a.residue // a.p**i % a.p for i in range(a.precision)]


@given(st.integers(0, 2**32), st.integers(1, 30), st.integers(1, 30))
def test_truncation_coherence(seed, n, m):
    if n > m:
        n, m = m, n
    high = seeded_unit(5, seed, m)
    assert high.residue % 5**n == seeded_unit(5, seed, n).residue
    assert high.truncate(n) == seeded_unit(5, seed, n)


def test_truncate_stays_within_the_precision():
    g = seeded_unit(5, 3, 4)
    assert g.truncate(4) == g
    for n in (0, 5):
        with pytest.raises(ValueError):
            g.truncate(n)


def test_seed_determinism():
    a = seeded_unit(7, 42, 20)
    b = seeded_unit(7, 42, 12)
    assert seeded_unit(7, 42, 12) == b
    assert _digits(a)[:12] == _digits(b)
    assert seeded_unit(7, 43, 12) != b


def test_seeded_streams_are_units():
    for seed in range(20):
        assert seeded_unit(3, seed, 5).residue % 3 != 0


def test_from_int_digits():
    assert _digits(PAdicApprox.of(7, 5, 3)) == [2, 1, 0]  # 7 = 2 + 1*5
    minus_one = PAdicApprox.of(-1, 5, 6)
    assert _digits(minus_one) == [4] * 6
    assert (minus_one.truncate(4).residue + 1) % 5**4 == 0


def test_from_rational():
    third = PAdicApprox.of_rational(1, 3, 5, 6)
    assert third.residue * 3 % 5**6 == 1
    with pytest.raises(NonUnitError):
        PAdicApprox.of_rational(1, 10, 5, 6)


@given(st.integers(-500, 500), st.integers(1, 500))
def test_rational_embedding_preserves_divisibility(num, den):
    # divisibility by p**k is decided identically before and after embedding
    p, n = 3, 12
    if den % p == 0:
        den += 1
    v = PAdicApprox.of_rational(num, den, p, n).valuation()
    for k in range(n):
        assert valuation_at_least(v, k) == (num % p**k == 0)


SEEDED_RESIDUES_SHA256 = "a6bdfd3b8421008b08d201c2ff29124377c2273c4e1dbbf4748c3660bb770453"


def test_seeded_residues_are_pinned():
    # the seeded units' digits, hashed over a grid of primes, seeds and
    # precisions; recorded before the digit stream was replaced
    rows = "".join(
        f"{p}:{s}:{n}:{seeded_unit(p, s, n).residue:x}\n"
        for p in (2, 3, 5, 7, 101)
        for s in range(10)
        for n in (1, 2, 40, 1000)
    )
    assert hashlib.sha256(rows.encode()).hexdigest() == SEEDED_RESIDUES_SHA256


def test_truncation_is_coherent_in_any_order():
    order = list(range(1, 25))
    random.Random(7).shuffle(order)
    results = {n: seeded_unit(5, 99, n).residue for n in order}
    top = seeded_unit(5, 99, 25)
    for n, r in results.items():
        assert top.residue % 5**n == r
        assert top.truncate(n).residue == r


# ---------------------------------------------------------------------------
# matrix inverses mod p**N
# ---------------------------------------------------------------------------


def _is_identity(m):
    return m == [[int(i == j) for j in range(len(m))] for i in range(len(m))]


def test_unit_inverse_example():
    assert matrix_inverse_mod([[2]], 5, 3) == [[63]]
    assert matrix_product_mod([[2]], [[63]], 5**3) == [[1]]


def test_product_refuses_shapes_that_do_not_multiply():
    with pytest.raises(ValueError, match="shapes do not multiply"):
        matrix_product_mod([[1, 2]], [[1]], 5)
    with pytest.raises(ValueError, match="shapes do not multiply"):
        matrix_product_mod([[1, 2]], [[1, 2], [3]], 5)  # a ragged row
    assert matrix_product_mod([[1, 2]], [[1], [3]], 5) == [[2]]


def test_scalar_tower_example():
    # the inverse mod 5^3 reduces to the inverses mod 5 and mod 5^2
    top = matrix_inverse_mod([[2]], 5, 3)[0][0]
    lower = [matrix_inverse_mod([[2]], 5, n)[0][0] for n in (1, 2)]
    assert lower == [top % 5, top % 25] == [3, 13]


def test_identity_tower():
    identity = [[int(i == j) for j in range(3)] for i in range(3)]
    for n in range(1, 6):
        assert matrix_inverse_mod(identity, 7, n) == identity


def test_singular_rejected():
    with pytest.raises(SingularModP):
        matrix_inverse_mod([[5]], 5, 1)
    with pytest.raises(SingularModP):
        matrix_inverse_mod([[1, 2], [2, 4]], 3, 1)
    with pytest.raises(SingularModP):  # invertible over Q, not mod 3
        matrix_inverse_mod([[1, 2], [2, 1]], 3, 4)


def test_non_unit_inverse_rejected():
    # 10 is nonzero mod 5^3 but not a unit
    with pytest.raises(SingularModP):
        matrix_inverse_mod([[10]], 5, 3)


def test_non_square_rejected():
    with pytest.raises(ValueError, match="square"):
        matrix_inverse_mod([[1, 2]], 5, 2)
    with pytest.raises(ValueError, match="square"):
        matrix_inverse_mod([], 5, 2)
    with pytest.raises(ValueError):
        matrix_inverse_mod([[1]], 5, 0)


@settings(max_examples=40)
@given(st.integers(0, 10**9), st.integers(1, 3), st.sampled_from([2, 3, 5]))
def test_random_invertible_towers(seed, k, p):
    rng = random.Random(seed)
    depth = 8
    while True:
        a = [[rng.randrange(p**depth) for _ in range(k)] for _ in range(k)]
        try:
            b = matrix_inverse_mod(a, p, depth)
            break
        except SingularModP:
            continue
    for n in range(1, depth + 1):
        m = p**n
        assert _is_identity(matrix_product_mod(a, b, m))
        assert _is_identity(matrix_product_mod(b, a, m))
        # the inverse at level n is the reduction of the one at the top
        assert matrix_inverse_mod(a, p, n) == [[e % m for e in row] for row in b]


# ---------------------------------------------------------------------------
# relation polynomials as sorted (i, j, c) terms
# ---------------------------------------------------------------------------


def evaluate(relation, x: PAdicApprox, y: PAdicApprox) -> PAdicApprox:
    """Reference evaluation of sorted terms at two residues, one power at a time."""
    if (x.p, x.precision) != (y.p, y.precision):
        raise ValueError("evaluation points disagree on p or precision")
    m = x.modulus
    total = sum(c * pow(x.residue, i, m) * pow(y.residue, j, m) for i, j, c in relation)
    return PAdicApprox.of(total, x.p, x.precision)


def test_polynomial_basics():
    q = terms([(1, 0), (0, 1), (2, 2)], [1, -1, 0])
    assert q == ((0, 1, -1), (1, 0, 1))
    assert max(max(i, j) for i, j, _ in q) == 1
    assert max(abs(c) for _, _, c in q) == 1
    assert relation_str(q) == "-y + x"
    assert terms(monomials(1), [0, 0, 0, 0]) == ()
    assert relation_str(()) == "0"


def test_polynomial_rendering():
    q = terms([(0, 0), (2, 1), (1, 1)], [-3, 2, 1])
    assert relation_str(q) == "-3 + x*y + 2*x^2*y"
    assert relation_str(terms(monomials(1), [1, 1, 1, 1])) == "1 + y + x + x*y"


def test_polynomial_canonical_sign():
    # the search meets -y + x first; the certificate stores it with a positive first term
    g = seeded_unit(5, 7, 10)
    cert = independence_certificate(g, g, 1, 1, ("seeded(7)", "seeded(7)"))
    assert cert.violation == terms([(0, 1), (1, 0)], [1, -1])
    assert relation_str(cert.violation) == "y - x"


def test_polynomial_evaluate():
    q = terms([(2, 0), (0, 1)], [1, -1])  # x^2 - y
    x = PAdicApprox.of(3, 5, 4)
    y = PAdicApprox.of(9, 5, 4)
    assert evaluate(q, x, y).residue == 0
    assert evaluate(q, y, x).residue == (81 - 3) % 5**4


def test_precision_mismatch():
    q = terms([(1, 0)], [1])
    with pytest.raises(ValueError, match="evaluation points disagree on p or precision"):
        evaluate(q, PAdicApprox.of(1, 5, 3), PAdicApprox.of(1, 5, 4))
    with pytest.raises(ValueError, match="evaluation points disagree on p or precision"):
        evaluate(q, PAdicApprox.of(1, 5, 3), PAdicApprox.of(1, 7, 3))


# ---------------------------------------------------------------------------
# independence certificates
# ---------------------------------------------------------------------------

SOURCES = ("seeded(0)", "seeded(1)")


def test_same_stream_fails():
    g = seeded_unit(5, 7, 10)
    cert = independence_certificate(g, g, 1, 1, ("seeded(7)", "seeded(7)"))
    assert not cert.passed
    assert cert.violation == ((0, 1, 1), (1, 0, -1))  # y - x
    assert cert.candidates == 3**4


def test_square_stream_fails():
    g1 = seeded_unit(5, 11, 12)
    g2 = PAdicApprox.of(g1.residue**2, 5, 12)
    cert = independence_certificate(g1, g2, 2, 1, ("seeded(11)", "square"))
    assert not cert.passed
    q = cert.violation
    assert q
    assert all(max(i, j) <= 2 and abs(c) <= 1 for i, j, c in q)
    assert evaluate(q, g1, g2).residue == 0
    # the minimal relation y - x^2 is in the searched space and vanishes
    minimal = terms([(0, 1), (2, 0)], [1, -1])
    assert evaluate(minimal, g1, g2).residue == 0


def test_generic_pair_passes():
    g1, g2 = seeded_unit(5, 0, 10), seeded_unit(5, 1, 10)
    cert = independence_certificate(g1, g2, 1, 1, SOURCES)
    assert cert.passed
    assert cert.violation is None
    assert cert.candidates == 81
    assert cert.precision == 10
    assert cert.to_json()["passed"] is True


def test_degree_zero_searches_the_constants():
    g1, g2 = seeded_unit(5, 0, 10), seeded_unit(5, 1, 10)
    cert = independence_certificate(g1, g2, 0, 2, SOURCES)
    assert cert.passed and cert.candidates == 5
    # at p = 2 and precision 1 the constant 2 vanishes
    g1, g2 = seeded_unit(2, 0, 1), seeded_unit(2, 1, 1)
    cert = independence_certificate(g1, g2, 0, 2, SOURCES)
    assert cert.violation == ((0, 0, 2),)


def test_certificate_bounds_are_checked():
    g1, g2 = seeded_unit(5, 0, 10), seeded_unit(5, 1, 10)
    with pytest.raises(ValueError, match="max_exponent must be >= 0"):
        independence_certificate(g1, g2, -1, 1, SOURCES)
    with pytest.raises(ValueError, match="height_bound must be >= 1"):
        independence_certificate(g1, g2, 1, 0, SOURCES)


def test_certificate_monotone_in_bounds():
    g1, g2 = seeded_unit(5, 0, 12), seeded_unit(5, 1, 12)
    if independence_certificate(g1, g2, 2, 2, SOURCES).passed:
        for d, b in [(1, 1), (1, 2), (2, 1)]:
            assert independence_certificate(g1, g2, d, b, SOURCES).passed


def test_budget_guard():
    g1, g2 = seeded_unit(5, 0, 10), seeded_unit(5, 1, 10)
    with pytest.raises(BudgetExceeded):
        independence_certificate(g1, g2, 1, 1, SOURCES, budget=80)
    assert independence_certificate(g1, g2, 1, 1, SOURCES, budget=81).passed


def test_non_unit_inputs_rejected():
    g1 = PAdicApprox.of(10, 5, 5)  # divisible by 5
    g2 = seeded_unit(5, 1, 5)
    with pytest.raises(NonUnitError):
        independence_certificate(g1, g2, 1, 1, SOURCES)


def test_mismatched_primes_rejected():
    with pytest.raises(ValueError, match="the two values disagree on p or precision"):
        independence_certificate(seeded_unit(5, 0, 5), seeded_unit(7, 0, 5), 1, 1, SOURCES)
    with pytest.raises(ValueError, match="the two values disagree on p or precision"):
        independence_certificate(seeded_unit(5, 0, 5), seeded_unit(5, 1, 6), 1, 1, SOURCES)


def test_certificate_json_shape():
    g1 = seeded_unit(5, 0, 6)
    cert = independence_certificate(g1, g1, 1, 1, ("seeded(0)", "seeded(0)"))
    data = cert.to_json()
    assert data["p"] == 5
    assert data["passed"] is False
    assert data["violation"] == [[0, 1, 1], [1, 0, -1]]
    assert data["sources"] == ["seeded(0)", "seeded(0)"]
