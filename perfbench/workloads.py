"""Seeded generator of the benchmark's workloads.

``schedule(workload, seed)`` returns one cycle of calls.  A run replays the
whole cycle a fixed number of times, derived from ``CYCLE_SECONDS``.

The seed varies what a call asks (specs, primes, seeds, thresholds), never
how much work it does: the cost-driving parameters (call kind, relation
bounds, component count, window width) are fixed per position in the cycle.
Runs with different seeds therefore measure the same amount of work, and a
change in a metric across seeds means a change in the program, not in the mix.

Each call is a dict:

* ``kind``: ``cli`` (argv of one ``sb-abelian`` process) or ``certify`` (argv
  of one ``perfbench/certify.py`` process);
* ``args``: the argv after the program;
* ``code``: the expected exit code;
* whatever the checker needs: ``expect`` (answers known by construction),
  ``route``, ``components`` and ``opts`` (the requested bounds).
"""

from __future__ import annotations

import random

from check import is_prime

WORKLOADS = ("decide", "padic_witness", "socle_witness", "socle_certify")

# Wall seconds of one cycle, set-up slots included, as measured when the
# benchmark was defined (2-vCPU VM, quiet host).  They only turn --seconds
# into a repeat count that stays the same on every commit.
CYCLE_SECONDS = {"decide": 5.0, "padic_witness": 6.5, "socle_witness": 8.0,
                 "socle_certify": 11.0}

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
DEFAULTS = {"degree": 2, "height": 2, "precision": 40, "window": 50, "threshold": 5}


def _cli(*args: str, code: int = 0, **extra) -> dict:
    return {"kind": "cli", "args": list(args), "code": code, **extra}


# ---------------------------------------------------------------------------
# spec text


def _primeset(rng: random.Random) -> str:
    form = rng.randrange(3)
    if form == 0:
        return "all"
    picked = sorted(rng.sample(_SMALL_PRIMES, rng.randint(1, 2)))
    listed = ",".join(map(str, picked))
    return f"all\\{{{listed}}}" if form == 1 else f"{{{listed}}}"


def _mult(rng: random.Random) -> str:
    return rng.choice(["", "", "^2", "^3", "^w", "^aleph(0)", "^aleph(1)"])


def _atom(rng: random.Random) -> str:
    p = rng.choice(_SMALL_PRIMES)
    kind = rng.randrange(7)
    if kind == 0:
        return f"Z/{rng.randint(2, 360)}"
    if kind == 1:
        return f"Prufer({p})"
    if kind == 2:
        return "Q"
    if kind == 3:
        return f"Zhat({p})"
    if kind == 4:
        return f"sumP({_primeset(rng)}; Z/p^{rng.randint(1, 3)})"
    if kind == 5:
        return f"sumP({_primeset(rng)}; Zhat)"
    exps = rng.choice(["all", "{1,3}", "{2}", "{1,2,4}"])
    return f"sumK({p}; {exps})"


def _terms(rng: random.Random, count: int) -> list[str]:
    return [_atom(rng) + _mult(rng) for _ in range(count)]


def _spec(rng: random.Random) -> str:
    return " + ".join(_terms(rng, rng.randint(1, 4)))


def _finite_moduli(rng: random.Random, max_order: int) -> list[int]:
    """Cyclic moduli of a random finite group of order at most max_order."""
    moduli: list[int] = []
    order = 1
    while len(moduli) < 4:
        n = rng.randint(2, 64)
        if order * n > max_order:
            break
        moduli.append(n)
        order *= n
    return moduli or [rng.randint(2, max_order)]


def _p_group(rng: random.Random, max_order: int) -> list[int]:
    p = rng.choice((2, 3, 5))
    moduli: list[int] = []
    order = 1
    while True:
        q = p ** rng.randint(1, 4)
        if order * q > max_order:
            return moduli or [p]
        moduli.append(q)
        order *= q


def _text(moduli: list[int]) -> str:
    return " + ".join(f"Z/{n}" for n in moduli)


def _regroup(rng: random.Random, moduli: list[int]) -> list[int]:
    """An isomorphic presentation: split each modulus into coprime parts."""
    out: list[int] = []
    for n in moduli:
        parts, m, d = [], n, 2
        while d * d <= m:
            if m % d == 0:
                q = 1
                while m % d == 0:
                    q, m = q * d, m // d
                parts.append(q)
            d += 1
        if m > 1:
            parts.append(m)
        out += parts if rng.random() < 0.7 else [n]
    rng.shuffle(out)
    return out


def _large_modulus(rng: random.Random) -> tuple[int, int]:
    """(cofactor, prime) with the product 13 or 14 digits long.

    The prime lies in [2e12, 3e12), so trial division of the product costs
    about the same on every seed, and clearly more than a regular call.
    """
    while True:
        p = rng.randrange(2 * 10**12, 3 * 10**12) | 1
        if is_prime(p):
            return rng.randint(2, 33), p


# ---------------------------------------------------------------------------
# decide


def _finite_pair(rng: random.Random, max_order: int) -> tuple[list[int], list[int]]:
    left = _finite_moduli(rng, max_order)
    if rng.random() < 0.5:
        return left, _regroup(rng, left)
    return left, _finite_moduli(rng, max_order)


def _infinite_pair(rng: random.Random, key: str) -> dict:
    """Two infinite specs whose answer is known by construction."""
    terms = [t for t in _terms(rng, rng.randint(1, 3)) if not t.startswith("Q")]
    terms = terms or [f"Zhat({rng.choice(_SMALL_PRIMES)})"]
    if rng.random() < 0.5:
        shuffled = terms[:]
        rng.shuffle(shuffled)
        left = " + ".join(terms + ["Q"])
        right = " + ".join(shuffled + ["Q"])
        return {"args": (left, right), "expect": {key: True}}
    # Q and Q^(kappa) are elementarily equivalent but not isomorphic, and a
    # common summand without Q keeps both facts.
    base = " + ".join(terms)
    right_mult = rng.choice(["^w", "^2", "^aleph(1)"])
    want = {"equivalent": True, "isomorphic": False}[key]
    return {"args": (f"{base} + Q", f"{base} + Q{right_mult}"), "expect": {key: want}}


def _decide_slot(rng: random.Random, slot: str) -> dict:
    if slot in ("classify", "invariants"):
        return _cli(slot, _spec(rng))
    if slot in ("classify_big", "invariants_big"):
        c, p = _large_modulus(rng)
        extra = rng.choice(["", " + Q", f" + Z/{rng.randint(2, 30)}", " + Prufer(3)"])
        return _cli(slot.split("_")[0], f"Z/{c * p}{extra}")
    command, kind = slot.split("_")
    key = "equivalent" if command == "eq" else "isomorphic"
    if kind == "finite":
        left, right = _finite_pair(rng, 10_000)
        return _cli(command, _text(left), _text(right))
    if kind == "big":
        c, p = _large_modulus(rng)
        return _cli(command, f"Z/{c * p}", f"Z/{p} + Z/{c}")
    if kind == "random":
        return _cli(command, _spec(rng), _spec(rng))
    pair = _infinite_pair(rng, key)
    return _cli(command, *pair["args"], expect=pair["expect"])


def _oracle_slot(rng: random.Random, check: str) -> dict:
    if check == "iso":
        left, right = _finite_pair(rng, 512)
        return _cli("oracle", "iso", _text(left), _text(right))
    if check == "ulm":
        return _cli("oracle", "ulm", _text(_p_group(rng, 512)))
    # purity cost grows fast with the order: at 2^8 it takes 0.2-0.5 s and
    # swings with the partition; at 2^6 or 3^4 it stays below the cost of a
    # large-modulus call, so it never decides the slowest slot
    p, total = rng.choice(((2, 6), (3, 4)))
    return _cli("oracle", "purity", _text([p**k for k in _partition(rng, total)]))


def _partition(rng: random.Random, n: int) -> list[int]:
    parts = []
    while n:
        parts.append(rng.randint(1, n))
        n -= parts[-1]
    return sorted(parts, reverse=True)


# 4 large-modulus slots, 1 purity check and 10 regular slots (the oracle iso
# and ulm checks among them): the median lands on a regular call, and the
# slowest slot is a large-modulus eq or iso, which factors two large moduli.
# A short cycle leaves room for several repeats of each slot in a run.
_DECIDE_CYCLE = (
    "classify", "classify_big", "eq_finite", "iso_infinite", "eq_big",
    "invariants", "oracle_iso", "invariants_big", "eq_infinite", "iso_finite",
    "oracle_purity", "iso_big", "eq_random", "oracle_ulm", "iso_random",
)


def _decide(rng: random.Random) -> list[dict]:
    return [_oracle_slot(rng, slot.removeprefix("oracle_")) if slot.startswith("oracle_")
            else _decide_slot(rng, slot) for slot in _DECIDE_CYCLE]


# ---------------------------------------------------------------------------
# padic_witness


def _carried(rng: random.Random) -> str:
    parts = []
    if rng.random() < 0.5:
        parts.append(rng.choice([f"Z/{rng.randint(2, 60)}", "Z/4^w", "Z/9^2", "Z/2^w"]))
    if rng.random() < 0.5:
        parts.append(rng.choice(["Q", "Q^w", "Prufer(3)", "Prufer(2)^w"]))
    return "".join(" + " + part for part in parts)


# The certificate works on residues mod p^40: at p = 2 they are about a fifth
# cheaper, at p >= 11 they take one more machine word and about a fifth
# dearer.  The default slices draw from {3, 5, 7}, so that a slot costs the
# same on every seed.
_PADIC_PRIMES = (3, 5, 7)


def _padic_call(rng: random.Random, components: int, degree: int, height: int,
                primes: tuple[int, ...], precision: int) -> dict:
    picked = rng.sample(primes, components)
    core = " + ".join(f"Zhat({p})" + rng.choice(["", "^2", "^3"]) for p in picked)
    args = ["witness", core + _carried(rng), "--seed", str(rng.randrange(100))]
    opts = dict(DEFAULTS, degree=degree, height=height, precision=precision)
    for name in ("degree", "height", "precision"):
        if opts[name] != DEFAULTS[name]:
            args += [f"--{name}", str(opts[name])]
    code = 0 if precision > 1 else 4
    return _cli(*args, code=code, route="padic", components=components, opts=opts)


# (components, degree, height, precision) per position: most calls use the
# default bounds, so the median call is a one-component certificate; a
# minority use d=1 or B=1; the precision-1 slot at p in {5, 7} must exit 4,
# because 9 monomials take at most p - 1 unit residues mod p, so a height-1
# relation always exists.
_PADIC_CYCLE = (
    (1, 2, 2, 40), (1, 2, 2, 1), (2, 2, 2, 40), (2, 1, 2, 40), (1, 2, 2, 40),
    (3, 2, 1, 40), (3, 2, 2, 40),
)


def _padic_witness(rng: random.Random) -> list[dict]:
    return [_padic_call(rng, components, degree, height,
                        (5, 7) if precision == 1 else _PADIC_PRIMES, precision)
            for components, degree, height, precision in _PADIC_CYCLE]


# ---------------------------------------------------------------------------
# socle workloads


def _socle_family(rng: random.Random, exponent: int) -> str:
    primes = rng.choice(["all", "all\\{2}", "all\\{3}", "all\\{2,5}"])
    return f"sumP({primes}; Z/p^{exponent})" + rng.choice(["", "^2"])


def _socle_spec(rng: random.Random, exponent: int) -> str:
    """A socle-route spec, with carried bounded and divisible parts."""
    spec = _socle_family(rng, exponent)
    if rng.random() < 0.5:
        spec += rng.choice([" + Z/3^w + Z/9", " + Z/2^w", " + Z/5^w + Z/25^2"])
    if rng.random() < 0.5:
        spec += " + Q"
    return spec


# (window, height) per position: windows span 30-80, and the B=1 call is one
# of three, so the median call is a B=2 scan and the slowest the widest one.
_SOCLE_CYCLE = ((80, 2), (50, 1), (30, 2))


def _socle_witness(rng: random.Random) -> list[dict]:
    calls = []
    for window, height in _SOCLE_CYCLE:
        threshold = rng.randint(3, 5)
        opts = dict(DEFAULTS, window=window, height=height, threshold=threshold)
        args = ["witness", _socle_spec(rng, rng.randint(1, 2)), "--window", str(window),
                "--threshold", str(threshold), "--height", str(height),
                "--seed", str(rng.randrange(100))]
        calls.append(_cli(*args, route="socle", opts=opts))
    return calls


# The bounds of every certify call.  It runs a full B=2 avoidance scan plus
# six proper-inclusion scans; a 16-prime window keeps one call near 4 s, so a
# run holds several calls, while every scan still covers all 1.95M
# coefficient rows.
CERTIFY_OPTS = {"window": 16, "degree": 2, "height": 2, "probes": 200, "max_shift": 5}
_CERTIFY_CALLS = 2


def _socle_certify(rng: random.Random) -> list[dict]:
    calls = []
    for _ in range(_CERTIFY_CALLS):
        threshold, seed = rng.randint(2, 3), rng.randrange(100)
        args = ["--spec", _socle_family(rng, 1), "--seed", str(seed),
                "--threshold", str(threshold)]
        opts = dict(CERTIFY_OPTS, threshold=threshold)
        calls.append({"kind": "certify", "args": args, "code": 0, "opts": opts})
    return calls


_BUILDERS = {
    "decide": _decide,
    "padic_witness": _padic_witness,
    "socle_witness": _socle_witness,
    "socle_certify": _socle_certify,
}


def schedule(workload: str, seed: int) -> list[dict]:
    """One cycle of calls for the workload, determined by the seed."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
