"""Pinned element arithmetic of both witness routes.

Seeded operation sequences run on socle product elements and on p-adic grid
elements, and everything an element shows to its callers is hashed: its
tail, exceptions and values at primes (socle), its denominator exponent,
rendering, support, coefficients, memberships and coordinate sums (p-adic).
The digests were recorded before either element type was rewritten; a
rewrite of how elements store or evaluate themselves must reproduce them.
"""

import hashlib
import json
import random
from fractions import Fraction

from sb_abelian.groupspec import PrimeSet
from sb_abelian.witness_padic import build_padic_witness, grid_membership, random_member
from sb_abelian.witness_socle import PrimeWindow, build_socle_witness, random_socle_member

from _gen import grid_coefficient


def _digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def _outcome(call):
    try:
        return call()
    except Exception as err:  # the error class is part of the pinned outcome
        return type(err).__name__


# ---------------------------------------------------------------------------
# socle route: product elements

SOCLE = build_socle_witness(
    PrimeWindow.over(PrimeSet.cofinite({2}), 24, overrides=[(5, 2), (13, 3)]),
    seed=3,
    max_exponent=1,
    height_bound=1,
    threshold=2,
)


def _socle_state(x) -> dict:
    primes = sorted(set(SOCLE.window.primes[:20]) | {p for p, _ in x.exceptions})
    return {
        "tail": [[list(m), str(c)] for m, c in x.tail],
        "exceptions": [[p, list(vec)] for p, vec in x.exceptions],
        "values": [[p, list(x.evaluate(p))] for p in primes],
    }


def _socle_step(x, rng: random.Random):
    op = rng.choice(("add", "sub", "scale", "apply_scalar", "pseudo_divide"))
    if op == "add":
        return op, x + random_socle_member(SOCLE, rng, rng.choice(("H1", "H2")))
    if op == "sub":
        return op, x - random_socle_member(SOCLE, rng, rng.choice(("H1", "H2")))
    if op == "scale":
        n = rng.choice((-4, -3, -1, 0, 2, 3, 5, 7, 15))
        return f"scale {n}", x.scale(n)
    if op == "apply_scalar":
        which = rng.choice((1, 2))
        return f"apply_scalar {which}", x.apply_scalar(which)
    n = rng.choice((1, 2, 3, 5, 6, 7, 13, 35, 39))
    return f"pseudo_divide {n}", x.pseudo_divide(n)


# sha256 of the socle sequences below, recorded before the element rewrite
SOCLE_DIGEST = "8c9a731885d57015e0361d1be15d3b49de1d2e0eac250a1339d73768eeb91b27"


def test_socle_element_arithmetic_is_pinned():
    rows = []
    for seed in range(40):
        rng = random.Random(f"socle-elements:{seed}")
        x = random_socle_member(SOCLE, rng, rng.choice(("H1", "H2")))
        rows.append(["start", _socle_state(x)])
        for _ in range(8):
            op, x = _socle_step(x, rng)
            rows.append([op, _socle_state(x)])
    digest = _digest(rows)
    assert digest == SOCLE_DIGEST, digest


# ---------------------------------------------------------------------------
# completion route: grid elements

PADIC = build_padic_witness(5, 2)


def _padic_state(x) -> dict:
    return {
        "t": x.t,
        "str": str(x),
        "support": [str(m) for m in x.support],
        "coefficients": [str(grid_coefficient(x, m)) for m in x.support],
        "H1": _outcome(lambda: grid_membership(x, "H1", PADIC)),
        "H2": _outcome(lambda: grid_membership(x, "H2", PADIC)),
        "sums": [PADIC.coordinate_sum(x, s) for s in range(1, PADIC.k + 1)],
    }


def _padic_step(x, rng: random.Random):
    op = rng.choice(("add", "sub", "shift", "scale"))
    if op == "add":
        return op, x + random_member(PADIC, rng, rng.choice(("H1", "H2")))
    if op == "sub":
        return op, x - random_member(PADIC, rng, rng.choice(("H1", "H2")))
    if op == "shift":
        di, dj = rng.randint(0, 2), rng.randint(0, 2)
        return f"shift {di} {dj}", x.shift(di, dj)
    q = Fraction(rng.choice((-10, -3, 1, 2, 5, 7, 25)), rng.choice((1, 5, 10, 25, 3)))
    return f"scale {q}", x.scale(q)


# sha256 of the p-adic sequences below, recorded before the element rewrite
PADIC_DIGEST = "e74823781c7b4b25858ad33db7bbdb3ccb4fa48e24eb315109d4f904778d2d85"


def test_padic_element_arithmetic_is_pinned():
    rows = []
    for seed in range(60):
        rng = random.Random(f"padic-elements:{seed}")
        x = random_member(PADIC, rng, rng.choice(("H1", "H2")))
        rows.append(["start", _padic_state(x)])
        for _ in range(8):
            op, x = _padic_step(x, rng)
            rows.append([op, _padic_state(x)])
    digest = _digest(rows)
    assert digest == PADIC_DIGEST, digest
