"""Acceptance gate: eight end-to-end checks, one summary line each.

Each test prints ``[PASS]``/``[FAIL]`` with the population it covered and the
elapsed time (visible under ``pytest -s`` or on failure), then asserts both
the zero-tolerance agreement and the runtime budget.
"""

import random
import time
from fractions import Fraction

from sb_abelian.classify import (
    StabilityClass,
    WitnessRoute,
    divisible_plus_bounded,
    has_sb,
    stability_class,
)
from sb_abelian.finite_oracle import (
    FiniteAbelianGroup,
    is_pure_subgroup_bruteforce,
    iso_finite_bruteforce,
    realize,
    ulm_bruteforce,
)
from sb_abelian.groupspec import PrimeSet, parse_spec
from sb_abelian.invariants import elementarily_equivalent, ulm_invariant
from sb_abelian.padic import PAdicApprox, valuation_at_least
from sb_abelian.primes import factorize, p_valuation
from sb_abelian.witness_padic import (
    GridElement,
    GridMonomial,
    apply_scalar,
    build_padic_witness,
    elementary_matrix_probe,
    grid_membership,
    random_member,
)
from sb_abelian.witness_socle import (
    PrimeWindow,
    build_socle_witness,
    product_membership,
    proper_inclusion_check,
    pseudo_divide,
    random_socle_member,
)

from _gen import finite_abelian_specs, iter_primes_upto, random_spec


def _report(num: int, ok: bool, detail: str, started: float, budget: float) -> float:
    elapsed = time.perf_counter() - started
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] criterion {num}: {detail} ({elapsed:.1f}s, budget {budget:.0f}s)")
    return elapsed


def test_criterion_1_ulm_layers_match_bruteforce_on_all_small_p_groups():
    started = time.perf_counter()
    budget = 60.0
    checked = specs = 0
    bad = None
    for p in iter_primes_upto(1024):
        for spec in finite_abelian_specs(1024, prime=p):
            group = realize(spec)
            if group.order == 1 and p != 2:
                continue  # the trivial group shows up once per prime
            specs += 1
            depth = factorize(group.exponent).get(p, 0)
            for i in range(depth + 1):
                brute = ulm_bruteforce(group, p, i)
                symbolic = ulm_invariant(spec, p, i)
                checked += 1
                if not (symbolic.is_finite and symbolic.value == brute):
                    bad = bad or (str(spec), p, i, brute, str(symbolic))
    ok = bad is None
    detail = f"{checked} layer values over {specs} p-group specs of order <= 1024"
    if not ok:
        detail += f"; first mismatch {bad}"
    elapsed = _report(1, ok, detail, started, budget)
    assert ok, bad
    assert elapsed < budget


def test_criterion_2_equivalence_is_isomorphism_on_finite_pairs():
    started = time.perf_counter()
    budget = 120.0
    specs = list(finite_abelian_specs(512))
    groups = [realize(s) for s in specs]
    pairs = disagreements = 0
    bad = None
    for i in range(len(specs)):
        for j in range(i, len(specs)):
            eq = elementarily_equivalent(specs[i], specs[j])
            iso = iso_finite_bruteforce(groups[i], groups[j])
            pairs += 1
            if eq != iso:
                disagreements += 1
                bad = bad or (str(specs[i]), str(specs[j]), eq, iso)
    ok = disagreements == 0
    detail = f"{pairs} pairs over {len(specs)} finite groups of order <= 512"
    elapsed = _report(2, ok, detail, started, budget)
    assert ok, bad
    assert elapsed < budget


def test_criterion_3_three_characterizations_agree_on_random_specs():
    started = time.perf_counter()
    budget = 10.0
    rng = random.Random("acceptance-3")
    disagreements = 0
    bad = None
    count = 1200
    for _ in range(count):
        spec = random_spec(rng)
        sb = has_sb(spec).has_sb
        omega = stability_class(spec) is StabilityClass.OMEGA_STABLE
        structural = divisible_plus_bounded(spec)
        if not (sb == omega == structural):
            disagreements += 1
            bad = bad or (str(spec), sb, omega, structural)
    ok = disagreements == 0
    detail = f"{count} seeded random specs, {disagreements} disagreements"
    elapsed = _report(3, ok, detail, started, budget)
    assert ok, bad
    assert elapsed < budget


def test_criterion_4_purity_oracle_accepts_summands_rejects_nonpure():
    started = time.perf_counter()
    budget = 60.0
    checked = 0
    bad = None
    for spec in finite_abelian_specs(128):
        group = realize(spec)
        r = len(group.factors)
        basis = [tuple(1 if t == s else 0 for t in range(r)) for s in range(r)]
        for mask in range(2**r):
            generators = [basis[s] for s in range(r) if mask >> s & 1]
            checked += 1
            if not is_pure_subgroup_bruteforce(group, generators):
                bad = bad or (str(spec), mask)
    summands_ok = bad is None
    known_impure = not is_pure_subgroup_bruteforce(FiniteAbelianGroup((4,)), [(2,)])
    ok = summands_ok and known_impure
    detail = (
        f"{checked} coordinate summands (including 0 and G) pure across all "
        f"groups of order <= 128; {{0,2}} in Z/4 rejected: {known_impure}"
    )
    elapsed = _report(4, ok, detail, started, budget)
    assert ok, bad
    assert elapsed < budget


def test_criterion_5_completion_witness_probes():
    started = time.perf_counter()
    budget = 60.0
    w = build_padic_witness(5, 2, seed=0, max_exponent=2, height_bound=2, precision=40)
    cert_ok = w.certificate.passed

    rng = random.Random("acceptance-5")
    inclusion_ok = True
    for _ in range(100):
        x = random_member(w, rng, "H1")
        shifted = apply_scalar(w, "unit1", x)
        inclusion_ok = inclusion_ok and grid_membership(x, "H1", w) and grid_membership(shifted, "H2", w)

    outside = GridElement.of(5, {GridMonomial(0, 1, 1): Fraction(1)})
    exclusion_ok = not grid_membership(outside, "H2", w)

    purity_ok = True
    probes = 0
    while probes < 100:
        x = random_member(w, rng, "H1")
        if x.is_zero:
            continue
        probes += 1
        e = rng.randint(1, 3)
        r = w.unit1.truncate(e).residue
        divisible = x.shift(1, 0) - x.scale(r)  # (unit1 - r) * x, valuation >= e
        quotient = divisible.scale(Fraction(1, 5**e))
        purity_ok = purity_ok and grid_membership(divisible, "H1", w) and grid_membership(quotient, "H1", w)

    probe = elementary_matrix_probe(w, seed=0)
    matrix_ok = probe["identity_at_all_levels"] and probe["levels"] == 40

    ok = cert_ok and inclusion_ok and exclusion_ok and purity_ok and matrix_ok
    detail = (
        f"p=5 k=2 N=40: certificate {cert_ok}, scaling maps 100 H1 members "
        f"into H2 {inclusion_ok}, excluded monomial stays out {exclusion_ok}, "
        f"exact-division closure on 100 members {purity_ok}, inverse tower to "
        f"level 40 {matrix_ok}"
    )
    elapsed = _report(5, ok, detail, started, budget)
    assert ok
    assert elapsed < budget


def test_criterion_6_socle_witness_probes():
    started = time.perf_counter()
    budget = 120.0
    window = PrimeWindow.over(PrimeSet.cofinite([2]), 50)
    w = build_socle_witness(window, seed=0, max_exponent=2, height_bound=2, threshold=5)
    cert_ok = w.certificate.passed and w.certificate.min_count >= 5

    rng = random.Random("acceptance-6")
    composition_ok = True
    for _ in range(1000):
        a, b = rng.randint(1, 20), rng.randint(1, 20)
        x = random_socle_member(w, rng, "H1")
        composition_ok = composition_ok and (
            pseudo_divide(x, a * b) == pseudo_divide(pseudo_divide(x, b), a)
        )

    base = w.base_point()
    grids_ok = product_membership(base, "H1", w) and not product_membership(base.apply_scalar(2), "H2", w)

    inclusion = proper_inclusion_check(w, max_shift=5)

    ok = cert_ok and composition_ok and grids_ok and inclusion.passed
    detail = (
        f"odd primes, width 50, threshold 5: avoidance certificate {cert_ok} "
        f"(min survivors {w.certificate.min_count}), division composes on "
        f"1000 samples {composition_ok}, base point separates the grids "
        f"{grids_ok}, no bounded relation rewrites shifts up to 5 "
        f"{inclusion.passed}"
    )
    elapsed = _report(6, ok, detail, started, budget)
    assert ok
    assert elapsed < budget


def test_criterion_7_embedded_rationals_keep_divisibility_verdicts():
    started = time.perf_counter()
    budget = 10.0
    rng = random.Random("acceptance-7")
    disagreements = 0
    bad = None
    count = 1000
    for _ in range(count):
        p = rng.choice((2, 3, 5))
        e = rng.choice((0, 0, 0, 1, 2, 3, 5, 8, 13, 39, 41))
        num = rng.randint(-999, 999) * p**e
        den = rng.randint(1, 997)
        while den % p == 0:
            den = rng.randint(1, 997)
        embedded = PAdicApprox.of_rational(num, den, p, 40)
        true_valuation = None if num == 0 else p_valuation(num, p)
        for k in range(40):
            truth = num == 0 or true_valuation >= k
            seen = valuation_at_least(embedded.valuation(), k)
            if truth != seen:
                disagreements += 1
                bad = bad or (p, num, den, k, truth, seen)
    ok = disagreements == 0
    detail = f"{count} rationals at precision 40, all k <= 39, p in (2, 3, 5)"
    elapsed = _report(7, ok, detail, started, budget)
    assert ok, bad
    assert elapsed < budget


def test_criterion_8_classifier_spot_checks():
    started = time.perf_counter()
    budget = 1.0
    completions = all(
        has_sb(parse_spec(f"Zhat({p})")).has_sb is False for p in (2, 5, 13)
    )
    unbounded = has_sb(parse_spec("sumP(all\\{2}; Z/p^1)")).has_sb is False
    positive = has_sb(parse_spec("Z/2^w + Prufer(3)^w + Q")).has_sb is True
    unstable_spec = parse_spec("sumK(2; all)")
    unstable = (
        stability_class(unstable_spec) is StabilityClass.NOT_SUPERSTABLE
        and has_sb(unstable_spec).route is WitnessRoute.EXTERNAL_NON_SUPERSTABLE
    )
    ok = completions and unbounded and positive and unstable
    detail = (
        f"completions {completions}, unbounded socle sum {unbounded}, "
        f"omega-stable mix {positive}, non-superstable gate {unstable}"
    )
    elapsed = _report(8, ok, detail, started, budget)
    assert ok
    assert elapsed < budget
