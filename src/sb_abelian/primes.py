"""Small prime-number utilities shared across the package.

Everything here is deterministic.  ``is_prime`` is a Miller-Rabin test with
a fixed witness set that is exact for every number below ``EXACT_BOUND``
(about 3.3 * 10**24); the spec grammar rejects moduli and primes from that
bound on.  ``factorize`` splits with Pollard-Brent rho.
"""

from __future__ import annotations

from itertools import count, islice
from math import gcd
from typing import Iterator

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Miller-Rabin with the first thirteen primes as witnesses is exact below
# this bound, the least strong pseudoprime to all of them (Sorenson & Webster,
# 2015).  The first twelve alone are fooled by 318665857834031151167461 =
# 399165290221 * 798330580441.
EXACT_BOUND = 3_317_044_064_679_887_385_961_981
_MR_WITNESSES = _SMALL_PRIMES + (41,)


def is_prime(n: int) -> bool:
    """Primality; exact below ``EXACT_BOUND``."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def ensure_prime(n: object, context: str = "prime") -> int:
    """Validate that ``n`` is a prime number and return it."""
    if not isinstance(n, int) or isinstance(n, bool) or not is_prime(n):
        raise ValueError(f"{context}: {n!r} is not a prime number")
    return n


def ensure_at_least(n: object, low: int, context: str) -> int:
    """Validate that ``n`` is an int (not a bool) >= ``low`` and return it."""
    if type(n) is not int or n < low:
        raise ValueError(f"{context} must be >= {low}, got {n!r}")
    return n


def primes() -> Iterator[int]:
    """All primes in increasing order."""
    for n in count(2):
        if is_prime(n):
            yield n


def first_primes_excluding(count_: int, excluded: frozenset[int] | set[int]) -> tuple[int, ...]:
    """The first ``count_`` primes not in ``excluded``, in increasing order."""
    ensure_at_least(count_, 0, "prime count")
    return tuple(islice((p for p in primes() if p not in excluded), count_))


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}, keys ascending.

    The small primes are divided out; every remaining part is prime
    (``is_prime``), or a perfect power, or split by Pollard-Brent rho, and the
    pieces go back on the work list.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # every part left is prime or has no prime factor below 41, and each
    # prime found from here on exceeds the keys already in ``out``
    found: list[int] = []
    work = [n] if n > 1 else []
    while work:
        m = work.pop()
        if m < 41 * 41 or is_prime(m):
            found.append(m)
            continue
        root, k = _perfect_power(m)
        if k > 1:
            work += [root] * k
        else:
            d = _brent_factor(m)
            work += [d, m // d]
    for q in sorted(found):
        out[q] = out.get(q, 0) + 1
    return out


def _perfect_power(m: int) -> tuple[int, int]:
    """(r, k) with r**k == m and k > 1 if there is one, else (m, 1).

    Only for m free of primes below 41, so that r >= 41 > 2**5 bounds k.
    Rho would need about sqrt(r) steps to split r**k.
    """
    for k in range(2, m.bit_length() // 5 + 1):
        r = 1 << -(-m.bit_length() // k)  # >= the k-th root; Newton descends
        while (s := ((k - 1) * r + m // r ** (k - 1)) // k) < r:
            r = s
        if r**k == m:
            return r, k
    return m, 1


_GCD_BATCH = 128  # rho steps whose differences share one gcd


def _brent_factor(n: int) -> int:
    """A proper divisor of n: composite, not a perfect power, no prime below 41.

    Brent's cycle finding on x -> x^2 + c mod n, with the differences of a
    batch multiplied together before one gcd (R. P. Brent, BIT 20, 1980).
    The start point and the constants c = 1, 2, ... are fixed, so the result
    is deterministic.
    """
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_GCD_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += _GCD_BATCH
            r *= 2
        if g == n:
            # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def p_valuation(n: int, p: int) -> int:
    """Largest e with p**e dividing n (n != 0, p >= 2)."""
    if n == 0:
        raise ValueError("valuation of 0 is unbounded")
    if p < 2:
        raise ValueError(f"valuation needs a base p >= 2, got {p}")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e
