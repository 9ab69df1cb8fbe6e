"""``primes.factorize`` and ``primes.is_prime`` against trial division.

The reference below is the trial-division loop ``factorize`` used before it
moved to Pollard-Brent rho, run over a sieved list of the primes up to 10**6
so that every n below 10**12 is factored in a few milliseconds.  Numbers too
large for it (products of large primes, prime powers) are built from factors
whose primality the reference checks, so the expected answer is known by
construction.
"""

from __future__ import annotations

import random
import re
import subprocess
import sys
from math import isqrt, prod
from pathlib import Path

import pytest

from sb_abelian import primes
from sb_abelian.primes import ensure_at_least, factorize, is_prime, p_valuation

_SIEVE_LIMIT = 10**6


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
    return [i for i, flag in enumerate(flags) if flag]


PRIMES = _sieve(_SIEVE_LIMIT)


def trial_division(n: int) -> dict[int, int]:
    """{prime: exponent} by trial division; exact for n < 10**12."""
    assert 1 <= n < _SIEVE_LIMIT**2
    out: dict[int, int] = {}
    for d in PRIMES:
        if d * d > n:
            break
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _checked_prime(p: int) -> int:
    assert trial_division(p) == {p: 1}, p
    return p


def _primes_in(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``count`` distinct primes in [lo, hi), certified by trial division."""
    out: set[int] = set()
    while len(out) < count:
        n = rng.randrange(lo, hi) | 1
        if trial_division(n) == {n: 1}:
            out.add(n)
    return sorted(out)


def _assert_factors(n: int, expected: dict[int, int]) -> None:
    got = factorize(n)
    assert got == expected, n
    assert list(got) == sorted(got), n


def test_every_n_below_20000():
    for n in range(1, 20_000):
        _assert_factors(n, trial_division(n))


def test_is_prime_matches_the_sieve_below_20000():
    small = set(PRIMES)
    assert [n for n in range(20_000) if is_prime(n)] == [p for p in PRIMES if p < 20_000]
    assert all(is_prime(n) == (n in small) for n in (41, 43, 1681, 1763, 1849))


def test_seeded_random_n_below_10_to_12():
    rng = random.Random(20_240_501)
    for _ in range(2000):
        n = rng.randrange(1, 10**12)
        _assert_factors(n, trial_division(n))


def test_squares_and_cubes_of_large_primes():
    rng = random.Random(7)
    for p in _primes_in(rng, 10**11, 10**12, 6):
        _assert_factors(p * p, {p: 2})
        _assert_factors(30 * p * p, {2: 1, 3: 1, 5: 1, p: 2})
    for p in _primes_in(rng, 10**7, 10**8, 6):
        _assert_factors(p**3, {p: 3})
        _assert_factors(p**3 * 41**2, {41: 2, p: 3})


def test_products_of_two_primes_near_10_to_9():
    rng = random.Random(11)
    ps = _primes_in(rng, 10**9 - 10**5, 10**9 + 10**5, 12)
    for p, q in zip(ps[::2], ps[1::2]):
        _assert_factors(p * q, {p: 1, q: 1})
        _assert_factors(p * q * q, {p: 1, q: 2})


def _chernick(k: int) -> list[int] | None:
    """The prime factors of (6k+1)(12k+1)(18k+1) when all three are prime."""
    factors = [6 * k + 1, 12 * k + 1, 18 * k + 1]
    return factors if all(trial_division(f) == {f: 1} for f in factors) else None


CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041,
              46657, 52633, 62745, 63973, 75361, 101101, 115921, 126217, 162401]


def test_carmichael_numbers():
    for n in CARMICHAEL:
        expected = trial_division(n)
        # Korselt: squarefree, and p - 1 divides n - 1 for every prime p | n
        assert set(expected.values()) == {1} and all((n - 1) % (p - 1) == 0 for p in expected)
        _assert_factors(n, expected)
    chernick = [f for f in map(_chernick, range(1, 400)) if f]
    assert len(chernick) >= 10
    for factors in chernick:
        n = prod(factors)
        assert all((n - 1) % (p - 1) == 0 for p in factors)
        _assert_factors(n, dict.fromkeys(factors, 1))


# The least strong pseudoprime to each of the first k primes, k = 1..12
# (OEIS A014233), with the factors of those beyond the reference's range.
LEAST_STRONG_PSEUDOPRIMES = {
    2047: None, 1373653: None, 25326001: None, 3215031751: None,
    2152302898747: (6763, 10627, 29947), 3474749660383: (1303, 16927, 157543),
    341550071728321: (10670053, 32010157),
    3825123056546413051: (149491, 747451, 34233211),
    318665857834031151167461: (399165290221, 798330580441),
}


def test_least_strong_pseudoprimes_are_composite():
    for n, factors in LEAST_STRONG_PSEUDOPRIMES.items():
        assert not is_prime(n), n
        if factors is None:
            _assert_factors(n, trial_division(n))
        else:
            assert prod(factors) == n
            _assert_factors(n, {_checked_prime(p): 1 for p in factors})


def test_one_and_nonpositive():
    assert factorize(1) == {}
    for n in (0, -1, -12):
        with pytest.raises(ValueError):
            factorize(n)


def test_p_valuation_refuses_a_base_below_two():
    # a child process turns a hang at p = 1 into a failure
    probe = "\n".join([
        "import sys; sys.path.insert(0, sys.argv[1])",
        "from sb_abelian.primes import p_valuation",
        "try: p_valuation(8, 1)",
        "except ValueError as err: print(err)",
    ])
    src = str(Path(primes.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", probe, src], capture_output=True, text=True,
                          timeout=10)
    assert (done.returncode, done.stdout) == (
        0, "valuation needs a base p >= 2, got 1\n"), done.stderr
    with pytest.raises(ValueError, match="got 0"):
        p_valuation(8, 0)
    with pytest.raises(ValueError, match="valuation of 0 is unbounded"):
        p_valuation(0, 2)
    assert p_valuation(24, 2) == 3


@pytest.mark.parametrize("n", [True, 1.5, "3", 2], ids=["bool", "float", "str", "low-minus-1"])
def test_ensure_at_least_refuses_a_non_int_or_a_count_below_low(n):
    with pytest.raises(ValueError, match=f"^{re.escape(f'widget count must be >= 3, got {n!r}')}$"):
        ensure_at_least(n, 3, "widget count")
    assert ensure_at_least(3, 3, "widget count") == 3
