"""Output checker for the benchmark.

It shares no code with ``sb_abelian``: finite groups are compared through
elementary divisors computed here, with a factorizer of its own, and the
certificate arithmetic is redone from the requested bounds.  Every check
returns ``None`` on success or a one-line reason on failure.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter

SCHEMA = "sb-abelian/1"
CERTIFY_SCHEMA = "perfbench-certify/1"

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
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


def _rho(n: int) -> int:
    """A nontrivial factor of the odd composite n (Pollard rho, Floyd cycle)."""
    for c in range(1, n):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"no factor found for {n}")


def factor(n: int) -> Counter:
    """Prime factorization of n >= 1 as a Counter {prime: exponent}."""
    out: Counter = Counter()
    for p in range(2, 1000):
        while n % p == 0:
            out[p] += 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] += 1
        else:
            d = _rho(m)
            stack += [d, m // d]
    return out


_FINITE_TERM = re.compile(r"\s*Z/(\d+)(?:\^(\d+))?\s*$")


def finite_moduli(spec: str) -> list[int] | None:
    """Cyclic moduli of a finite spec ``Z/n[^m] + ...``, or None if infinite."""
    moduli: list[int] = []
    for term in spec.split("+"):
        match = _FINITE_TERM.match(term)
        if match is None:
            return None
        moduli += [int(match.group(1))] * int(match.group(2) or 1)
    return moduli


def elementary_divisors(moduli: list[int]) -> Counter:
    """The multiset of prime-power elementary divisors of a sum of cyclics."""
    out: Counter = Counter()
    for n in moduli:
        for p, e in factor(n).items():
            out[(p, e)] += 1
    return out


def same_finite_group(left: list[int], right: list[int]) -> bool:
    return elementary_divisors(left) == elementary_divisors(right)


def _relation_candidates(degree: int, height: int, monomials: int | None = None) -> int:
    return (2 * height + 1) ** ((degree + 1) ** 2 if monomials is None else monomials)


# ---------------------------------------------------------------------------
# per-command checks


def _check_classify(body: dict, call: dict) -> str | None:
    if body.get("agreement") is not True:
        return "classify.agreement is not true"
    if finite_moduli(call["args"][1]) is not None and body.get("sb") is not True:
        return "a finite group must have the SB property"
    return None


def _check_invariants(body: dict, call: dict) -> str | None:
    if not isinstance(body.get("szmielew"), dict):
        return "invariants output has no szmielew table"
    return None


def _check_pair(body: dict, call: dict, key: str) -> str | None:
    value = body.get(key)
    if not isinstance(value, bool):
        return f"{key} is not a boolean"
    left, right = finite_moduli(call["args"][1]), finite_moduli(call["args"][2])
    if left is not None and right is not None:
        want = same_finite_group(left, right)
        if value != want:
            return f"{key} is {value}, elementary divisors say {want}"
    expected = call.get("expect", {}).get(key)
    if expected is not None and value != expected:
        return f"{key} is {value}, the generator built the pair to be {expected}"
    return None


def _check_oracle(body: dict, call: dict) -> str | None:
    check = call["args"][1]
    if body.get("check") != check:
        return "oracle output names another check"
    moduli = finite_moduli(call["args"][2])
    if moduli is None:
        return "oracle call on an infinite spec"
    if check in ("ulm", "purity") and body.get("order") != math.prod(moduli):
        return f"order {body.get('order')} differs from the product of the moduli"
    if check == "iso":
        want = same_finite_group(moduli, finite_moduli(call["args"][3]))
        if body.get("agree") is not True or body.get("isomorphic_bruteforce") != want:
            return "oracle iso disagrees with the elementary divisors"
    elif check == "ulm":
        if body.get("agree") is not True:
            return "oracle.agree is not true"
        divisors = elementary_divisors(moduli)
        for row in body.get("layers", []):
            want = divisors[(row["p"], row["layer"] + 1)]
            if row["brute"] != want:
                return f"Ulm layer {row['layer']} at p={row['p']} is {row['brute']}, want {want}"
    elif check == "purity":
        if body.get("pure", 0) + body.get("impure", 0) != body.get("cyclic_subgroups"):
            return "pure + impure differs from the cyclic subgroup count"
        if body.get("pure", 0) < 1:
            return "the trivial subgroup must be pure"
    return None


def check_socle_certificate(cert: dict, width: int, degree: int, height: int,
                            threshold: int) -> str | None:
    candidates = _relation_candidates(degree, height) - 1  # the zero row is skipped
    if cert.get("passed") is not True:
        return "socle certificate did not pass"
    if cert.get("candidates") != candidates:
        return f"socle candidates {cert.get('candidates')}, want {candidates}"
    if sum(cert.get("histogram", {}).values()) != candidates:
        return "socle histogram does not sum to the candidate count"
    if min(int(k) for k in cert["histogram"]) != cert.get("min_count"):
        return "socle min_count is not the histogram minimum"
    if cert["min_count"] < threshold:
        return f"socle min_count {cert['min_count']} below threshold {threshold}"
    if cert.get("width") != width:
        return f"socle window width {cert.get('width')}, requested {width}"
    return None


def _check_witness(body: dict, call: dict) -> str | None:
    opts = call["opts"]
    witness = body.get("witness", {})
    if call["route"] == "padic":
        if body.get("route") != "PAdicWitness":
            return f"route {body.get('route')}, want PAdicWitness"
        components = witness.get("core", {}).get("components", [])
        if len(components) != call["components"]:
            return f"{len(components)} components, want {call['components']}"
        want = _relation_candidates(opts["degree"], opts["height"])
        for comp in components:
            cert = comp["certificate"]
            if cert.get("passed") is not True or cert.get("violation") is not None:
                return f"p-adic certificate at p={comp['p']} did not pass"
            if cert.get("candidates") != want:
                return f"p-adic candidates {cert.get('candidates')}, want {want}"
        return None
    if body.get("route") != "SocleWitness":
        return f"route {body.get('route')}, want SocleWitness"
    pair = witness.get("witness", {})
    if len(pair.get("window", {}).get("primes", [])) != opts["window"]:
        return "socle window does not have the requested width"
    return check_socle_certificate(
        pair.get("certificate", {}), opts["window"], opts["degree"], opts["height"],
        opts["threshold"],
    )


def _check_certify(body: dict, call: dict) -> str | None:
    opts = call["opts"]
    if body.get("schema") != CERTIFY_SCHEMA:
        return "certify output has the wrong schema"
    bad = check_socle_certificate(
        body.get("certificate", {}), opts["window"], opts["degree"], opts["height"],
        opts["threshold"],
    )
    if bad:
        return bad
    if body.get("probes") != opts["probes"] or body.get("composition_ok") is not True:
        return "pseudo-division did not compose on every probe"
    if body.get("membership_ok") is not True or body.get("grids_ok") is not True:
        return "membership probes failed"
    inclusion = body.get("inclusion", {})
    if inclusion.get("passed") is not True:
        return "proper inclusion check did not pass"
    rows = inclusion.get("rows", [])
    if [r["shift"] for r in rows] != list(range(opts["max_shift"] + 1)):
        return "proper inclusion rows do not cover every shift"
    d = opts["degree"]
    for row in rows:
        allowed = sum(1 for i in range(d + 1) for j in range(d + 1)
                      if j <= row["shift"] or i >= 2)
        if row["candidates"] != _relation_candidates(d, opts["height"], allowed):
            return f"inclusion row {row['shift']} has the wrong candidate count"
    return None


_CLI_CHECKS = {
    "classify": _check_classify,
    "invariants": _check_invariants,
    "eq": lambda body, call: _check_pair(body, call, "equivalent"),
    "iso": lambda body, call: _check_pair(body, call, "isomorphic"),
    "oracle": _check_oracle,
    "witness": _check_witness,
}


def check_call(call: dict, code: int, stdout: bytes) -> str | None:
    """Check one call's exit code and stdout against what the generator expects."""
    if code != call["code"]:
        return f"exit code {code}, want {call['code']}"
    if code != 0:
        return None if stdout == b"" else "a failed call wrote to stdout"
    try:
        body = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if call["kind"] == "certify":
        return _check_certify(body, call)
    if body.get("schema") != SCHEMA:
        return f"schema {body.get('schema')!r}, want {SCHEMA!r}"
    command = call["args"][0]
    if body.get("command") != command:
        return f"output is for command {body.get('command')!r}"
    return _CLI_CHECKS[command](body, call)
