import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from sb_abelian.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    MAX_ORDER_BOUND,
    MAX_PRECISION,
    MAX_WINDOW,
    main,
)
from sb_abelian.finite_oracle import realize, subgroup_closure
from sb_abelian.primes import EXACT_BOUND

from _gen import finite_abelian_specs


def run(capsys, *argv):
    """Invoke the CLI in-process, returning (exit code, stdout, stderr)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# classify / invariants / eq / iso
# ---------------------------------------------------------------------------


def test_classify_padic_completion(capsys):
    body = run_json(capsys, "classify", "Zhat(5)")
    assert body["schema"] == "sb-abelian/1"
    assert body["command"] == "classify"
    assert body["sb"] is False
    assert body["omega_stable"] is False
    assert body["superstable"] is True
    assert body["condition3"] is False
    assert body["condition4"] is False
    assert body["agreement"] is True
    assert body["route"] == "PAdicWitness"
    assert body["stability"] == "superstable_not_omega_stable"


def test_classify_sb_positive(capsys):
    body = run_json(capsys, "classify", "Z/2^w + Prufer(3)^w + Q")
    assert body["sb"] is True
    assert body["omega_stable"] is True
    assert body["condition3"] is True
    assert body["condition4"] is True
    assert body["route"] is None


def test_classify_not_superstable(capsys):
    body = run_json(capsys, "classify", "sumK(2; all)")
    assert body["superstable"] is False
    assert body["condition4"] is False
    assert body["stability"] == "not_superstable"
    assert body["route"] == "ExternalNonSuperstable"
    assert body["connected_component_index"] == "2^aleph(0)"


def test_classify_agreement_holds_on_assorted_specs(capsys):
    for text in ["0", "Q", "Z/12^aleph(1)", "Zhat(2) + Q^w",
                 "sumP(all; Z/p^1)", "Prufer(7)^w + Z/49"]:
        body = run_json(capsys, "classify", text)
        assert body["agreement"] is True, text


def test_invariants_payload(capsys):
    body = run_json(capsys, "invariants", "Zhat(2) + Q")
    (record,) = body["szmielew"]["primes"]
    assert record["p"] == 2 and record["exp"] == {"kind": "finite", "value": 1}
    assert body["szmielew"]["bounded"] is False
    assert body["divisible"] is False
    assert body["spec"] == "Q + Zhat(2)"


def test_exponent_is_lcm_of_cyclic_moduli(capsys):
    assert run_json(capsys, "classify", "Z/4 + Z/3")["exponent"] == 12
    body = run_json(capsys, "invariants", "Z/4 + Z/3")
    assert body["exponent"] == body["szmielew"]["exponent"] == 12
    assert run_json(capsys, "classify", "Z/9 + Z/8^w")["exponent"] == 72


def test_eq_divisible_collapse(capsys):
    body = run_json(capsys, "eq", "Q", "Q^w")
    assert body["equivalent"] is True


def test_eq_negative(capsys):
    body = run_json(capsys, "eq", "Z/4", "Z/2 + Z/2")
    assert body["equivalent"] is False


def test_iso_distinguishes_uncountable_multiplicity(capsys):
    body = run_json(capsys, "iso", "Prufer(2)^w", "Prufer(2)^aleph(1)")
    assert body["isomorphic"] is False
    eq = run_json(capsys, "eq", "Prufer(2)^w", "Prufer(2)^aleph(1)")
    assert eq["equivalent"] is True


# ---------------------------------------------------------------------------
# witness construction
# ---------------------------------------------------------------------------


def test_witness_padic_route(capsys):
    body = run_json(capsys, "witness", "Zhat(5)", "--precision", "20")
    assert body["route"] == "PAdicWitness"
    core = body["witness"]["core"]
    assert core["components"][0]["certificate"]["passed"] is True


def test_witness_socle_route(capsys):
    body = run_json(
        capsys, "witness", "sumP(all\\{2}; Z/p^1)",
        "--window", "10", "--degree", "1", "--height", "1", "--threshold", "2",
    )
    assert body["route"] == "SocleWitness"
    wit = body["witness"]
    assert wit["modulus"] == 1
    steps = [entry["step"] for entry in wit["transcript"]]
    assert steps == ["stability-gate", "bounded-split", "socle", "window", "witness", "lift"]


def test_witness_forced_route_flag(capsys):
    # the route comes only from the classifier: there is no flag to force one
    code, out, err = run(capsys, "witness", "Zhat(5)", "--route", "padic")
    assert code == EXIT_USAGE and out == ""
    assert "--route" in err


def test_witness_refused_when_sb_holds(capsys):
    code, out, err = run(capsys, "witness", "Q^w")
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert "isomorphic" in err


def test_witness_refused_when_not_superstable(capsys):
    code, _, err = run(capsys, "witness", "sumK(2; all)")
    assert code == EXIT_PRECONDITION
    assert "not superstable" in err


def test_witness_budget_exhaustion(capsys):
    # threshold larger than the window is unsatisfiable by construction
    code, _, err = run(
        capsys, "witness", "sumP(all\\{2}; Z/p^1)",
        "--window", "5", "--threshold", "6", "--degree", "1", "--height", "1",
    )
    assert code == EXIT_BUDGET
    assert "threshold" in err


def test_witness_socle_over_budget_exits_4(capsys):
    # 9^9 coefficient vectors: refused before any scan, like the p-adic route
    code, out, err = run(capsys, "witness", "sumP(all; Z/p^1)", "--height", "4")
    assert code == EXIT_BUDGET
    assert out == ""
    assert "387420489 candidate polynomials exceed the budget" in err


def child_env() -> dict:
    """The environment for a child interpreter, with this checkout's ``src`` first."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def loaded_after(imports: str, modules: list[str]) -> str:
    """Which of ``modules`` a fresh interpreter has loaded after ``imports``."""
    probe = f"import sys, {imports}; print([m for m in {modules!r} if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", probe], env=child_env(), capture_output=True,
                          text=True, timeout=60, check=True)
    return done.stdout.strip()


def loaded_after_run(argv: list[str], modules: list[str]) -> tuple[int, str]:
    """The exit code of ``run_cli(argv)`` in a fresh interpreter, and which of
    ``modules`` it has loaded by then."""
    probe = ("import sys; from sb_abelian.cli import run_cli; code = run_cli(sys.argv[1:]); "
             f"print(code, [m for m in {modules!r} if m in sys.modules], file=sys.stderr)")
    done = subprocess.run([sys.executable, "-c", probe, *argv], env=child_env(),
                          capture_output=True, text=True, timeout=60, check=True)
    code, loaded = done.stderr.splitlines()[-1].split(" ", 1)
    return int(code), loaded


def test_cli_import_leaves_numpy_unloaded():
    # decide calls and --help start without numpy and without the witness
    # modules, which load only when ``witness`` runs; the value classes need
    # no dataclasses (and so no inspect, ast, dis or tokenize)
    unloaded = ["numpy", "sb_abelian.witness_padic", "sb_abelian.witness_socle",
                "sb_abelian.padic", "fractions", "dataclasses", "inspect", "ast", "dis",
                "tokenize", "hashlib"]
    assert loaded_after("sb_abelian.cli", unloaded) == "[]"
    # arguments are parsed and reports rendered without argparse (nor the
    # gettext and locale it loads) or json; the finite oracle and the relation
    # search load only for the commands that use them
    startup = ["argparse", "gettext", "locale", "json", "sb_abelian.finite_oracle",
               "sb_abelian.relations"]
    for argv in (["--help"], ["witness", "--help"], ["classify", "Zhat(5)^w + Z/360"],
                 ["eq", "Q", "Q^w", "--format", "text"]):
        assert loaded_after_run(argv, startup) == (EXIT_OK, "[]"), argv
    # the socle scan runs on Python ints, seeded draws on either route hash
    # their labels without hashlib, which would load OpenSSL, and neither
    # route builds an element, so neither loads fractions (nor decimal)
    for argv, module in [(["sumP(all; Z/p^1)", "--window", "30"], "witness_socle"),
                         (["Zhat(5)"], "witness_padic")]:
        modules = [f"sb_abelian.{module}", "numpy", "hashlib", "_hashlib", "fractions", "decimal",
                   *startup[:4]]
        assert loaded_after_run(["witness", *argv, "--out", os.devnull], modules) == (
            EXIT_OK, f"['sb_abelian.{module}']")


def test_witness_import_leaves_dataclasses_unloaded():
    imports = "sb_abelian.witness_padic, sb_abelian.witness_socle"
    assert loaded_after(imports, ["dataclasses", "inspect"]) == "[]"


def test_witness_errors_keep_their_exit_classes():
    # run_cli maps NotApplicableError to 3 and BudgetExceeded to 4 before ValueError to 2
    from sb_abelian import groupspec
    from sb_abelian.classify import NotApplicableError
    from sb_abelian.finite_oracle import OrderBoundError
    from sb_abelian.groupspec import MSplitPreconditionError
    from sb_abelian.relations import BudgetExceeded
    from sb_abelian.witness_padic import (
        CertificateFailed,
        DuplicatePrimeError,
        NoKPartError,
        UnsupportedMultiplicityError,
    )
    from sb_abelian.witness_socle import NotSuperstableError, ScalarSearchFailed

    assert NotApplicableError is groupspec.NotApplicableError
    assert BudgetExceeded is groupspec.BudgetExceeded
    for cls in (NoKPartError, DuplicatePrimeError, UnsupportedMultiplicityError,
                NotSuperstableError, MSplitPreconditionError):
        assert issubclass(cls, NotApplicableError) and issubclass(cls, ValueError)
    for cls in (CertificateFailed, ScalarSearchFailed, OrderBoundError):
        assert issubclass(cls, BudgetExceeded) and issubclass(cls, RuntimeError)
    assert issubclass(OrderBoundError, ValueError)


@pytest.mark.parametrize("argv, needle", [
    (["witness", "sumP(all; Zhat)"], "ranging over a prime family"),
], ids=["UnsupportedMultiplicityError"])
def test_witness_precondition_errors_exit_3(capsys, argv, needle):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_PRECONDITION and out == ""
    assert needle in err


@pytest.mark.parametrize("spec", ["Zhat(5)^w", "sumK(2; all)"])
def test_witness_refuses_non_superstable_theory_on_every_route(capsys, spec):
    # the classifier's verdict is checked before any builder runs, so the
    # refusal does not blame the multiplicity (Zhat(5)^w) or come from the
    # socle builder's own stability gate (sumK(2; all), whose
    # NotSuperstableError stays library-only)
    code, out, err = run(capsys, "witness", spec)
    assert code == EXIT_PRECONDITION and out == ""
    assert err.startswith("sb-abelian: the theory is not superstable")


def test_witness_certificate_failure_exits_4(capsys):
    # at precision 1 the search runs mod 5, where a small relation always vanishes
    code, out, err = run(capsys, "witness", "Zhat(5)", "--precision", "1")
    assert code == EXIT_BUDGET and out == ""
    assert "no independence certificate" in err


# ---------------------------------------------------------------------------
# oracle cross-checks
# ---------------------------------------------------------------------------


def test_oracle_ulm(capsys):
    body = run_json(capsys, "oracle", "ulm", "Z/8 + Z/2")
    assert body["check"] == "ulm"
    assert body["agree"] is True
    rows = {(row["p"], row["layer"]): row["brute"] for row in body["layers"]}
    assert rows[(2, 0)] == 1 and rows[(2, 1)] == 0 and rows[(2, 2)] == 1


def test_oracle_ulm_trivial_group(capsys):
    body = run_json(capsys, "oracle", "ulm", "0")
    assert body["agree"] is True and body["order"] == 1


def test_oracle_iso(capsys):
    body = run_json(capsys, "oracle", "iso", "Z/4 + Z/3", "Z/12")
    assert body["agree"] is True and body["isomorphic_bruteforce"] is True
    body = run_json(capsys, "oracle", "iso", "Z/4", "Z/2 + Z/2")
    assert body["agree"] is True and body["isomorphic_bruteforce"] is False


def test_oracle_purity_finds_known_impure_subgroup(capsys):
    body = run_json(capsys, "oracle", "purity", "Z/4 + Z/2")
    assert body["impure"] == 1
    assert body["impure_examples"][0]["generator"] in ([0, 2], [2, 0])


def test_oracle_rejects_infinite_spec(capsys):
    code, _, err = run(capsys, "oracle", "ulm", "Z/2^w")
    assert code == EXIT_USAGE
    assert "not finite" in err


def test_oracle_order_bound(capsys):
    code, _, err = run(capsys, "oracle", "ulm", "Z/1024^2", "--order-bound", "1000")
    assert code == EXIT_BUDGET
    assert "exceeds bound" in err


def test_oracle_purity_matches_one_closure_per_element(capsys):
    # reference: close every element's subgroup, deduplicate the subgroups by
    # their member sets, and test nG & H == nH from the element sets
    def reference(group):
        e = group.exponent
        divisors = [n for n in range(1, e + 1) if e % n == 0]
        big = {n: group.scaled_set(n) for n in divisors}
        pure, impure, samples, seen = 0, 0, [], set()
        for g in group.elements():
            sub = subgroup_closure(group, [g])
            if sub in seen:
                continue
            seen.add(sub)
            ok = all(sub & big[n] == {group.smul(n, h) for h in sub} for n in divisors)
            pure, impure = pure + ok, impure + (not ok)
            if not ok and len(samples) < 3:
                samples.append({"generator": list(g), "order": len(sub)})
        return pure, impure, samples

    for spec in finite_abelian_specs(64):
        body = run_json(capsys, "oracle", "purity", str(spec))
        got = body["pure"], body["impure"], body["impure_examples"]
        assert got == reference(realize(spec)), spec


def test_oracle_purity_names_its_own_order_cap(capsys):
    # purity realizes at most 512 elements whatever --order-bound allows
    code, out, err = run(capsys, "oracle", "purity", "Z/1024", "--order-bound", "4096")
    assert code == EXIT_BUDGET and out == ""
    assert err == ("sb-abelian: group order 1024 exceeds bound 512, oracle purity's own "
                   "limit whatever --order-bound says\n")
    # below the cap the flag's own bound is the one named
    code, _, err = run(capsys, "oracle", "purity", "Z/8", "--order-bound", "4")
    assert code == EXIT_BUDGET and err == "sb-abelian: group order 8 exceeds bound 4\n"
    assert run_json(capsys, "oracle", "purity", "Z/2^9", "--order-bound", "4096")["order"] == 512


def test_oracle_flags_belong_to_the_check(capsys):
    # the oracle level takes no flags; the check's own flags take effect
    code, out, _ = run(capsys, "oracle", "--order-bound", "4", "ulm", "Z/8")
    assert code == EXIT_USAGE and out == ""
    code, out, err = run(capsys, "oracle", "ulm", "Z/8", "--order-bound", "4")
    assert code == EXIT_BUDGET and out == "" and "exceeds bound" in err
    assert run(capsys, "oracle", "--format", "text", "ulm", "Z/2")[0] == EXIT_USAGE


@pytest.mark.parametrize("check", [["ulm", "Z/4"], ["iso", "Z/4", "Z/2 + Z/2"],
                                   ["purity", "Z/4 + Z/2"]], ids=lambda c: c[0])
def test_oracle_format_and_out_take_effect(tmp_path, capsys, check):
    code, out, _ = run(capsys, "oracle", *check, "--format", "text")
    assert code == EXIT_OK
    lines = dict(line.split(" = ", 1) for line in out.strip().splitlines())
    assert lines["check"] == check[0] and lines["command"] == "oracle"
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "oracle", *check, "--out", str(target))
    assert code == EXIT_OK and out == ""
    assert json.loads(target.read_text())["check"] == check[0]


# ---------------------------------------------------------------------------
# rendering, determinism, argument handling
# ---------------------------------------------------------------------------


def test_json_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "witness", "Zhat(3)", "--precision", "15")
    _, second, _ = run(capsys, "witness", "Zhat(3)", "--precision", "15")
    assert first == second and first


def test_text_format(capsys):
    code, out, _ = run(capsys, "eq", "Q", "Z/2", "--format", "text")
    assert code == EXIT_OK
    lines = dict(line.split(" = ", 1) for line in out.strip().splitlines())
    assert lines["equivalent"] == "False"
    assert lines["schema"] == "sb-abelian/1"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "classify", "Q", "--out", str(target))
    assert code == EXIT_OK and out == ""
    assert json.loads(target.read_text())["sb"] is True


def test_out_to_unwritable_path_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "classify", "Q", "--out", str(target))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith(f"sb-abelian: cannot write {target}")
    assert "Traceback" not in err


def test_window_above_cap_exits_2(capsys):
    code, out, err = run(capsys, "witness", "sumP(all; Z/p^1)",
                         "--window", str(MAX_WINDOW + 1))
    assert code == EXIT_USAGE and out == ""
    assert f"--window must be <= {MAX_WINDOW}" in err


@pytest.mark.parametrize("argv, code, needle", [
    (["oracle", "ulm", "Z/2^99999999999"], EXIT_BUDGET, "exceeds bound 65536"),
    (["eq", "sumP({2}; Z/p^99999999999)", "Q"], EXIT_USAGE, f"must be below {EXACT_BOUND}"),
    (["witness", "sumP(all; Z/p^99999999999) + Z/2^w"], EXIT_USAGE,
     f"must be below {EXACT_BOUND}"),
    (["invariants", "sumP({2}; Z/p^100000)"], EXIT_USAGE, f"must be below {EXACT_BOUND}"),
    (["witness", "Zhat(5)", "--precision", str(MAX_PRECISION + 1)], EXIT_USAGE,
     f"--precision must be <= {MAX_PRECISION}"),
    (["oracle", "ulm", "Z/3^9966", "--order-bound", "1" + "0" * 3000], EXIT_USAGE,
     "--order-bound must be <= 1048576"),
], ids=["oracle-multiplicity", "sumP-explicit", "sumP-cofinite", "sumP-digits", "precision",
        "order-bound"])
def test_oversized_requests_exit_fast_naming_the_bound(capsys, argv, code, needle):
    start = time.perf_counter()
    got, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2.0
    assert got == code and out == "" and needle in err


def test_order_bound_cap(capsys):
    assert MAX_ORDER_BOUND == 2**20
    for check, specs in (("ulm", ["Z/4"]), ("iso", ["Z/4", "Z/2^2"]), ("purity", ["Z/4"])):
        code, out, err = run(capsys, "oracle", check, *specs,
                             "--order-bound", str(MAX_ORDER_BOUND + 1))
        assert code == EXIT_USAGE and out == ""
        assert err.strip().endswith("--order-bound must be <= 1048576")
        body = run_json(capsys, "oracle", check, *specs, "--order-bound", str(MAX_ORDER_BOUND))
        assert body["check"] == check


@pytest.mark.parametrize("argv", [
    ["invariants", "Z/2^99999999999999"],
    ["eq", "Z/2^100000000000000", "Z/2^100000000000000 + Z/2"],
    ["iso", "Z/2^100000000000000", "Z/2^99999999999999"],
    ["witness", "sumP(all; Z/p^1)^99999999999999"],
    ["classify", "Q^" + "9" * 29],
    ["oracle", "ulm", "Z/2^20", "--order-bound", "1048576"],
    ["oracle", "ulm", "Z/1024^2", "--order-bound", "1048576"],
    ["oracle", "ulm", "Z/12 + Z/18"],
    ["oracle", "iso", "Z/1048576", "Z/1048576", "--order-bound", "1048576"],
], ids=["invariants", "eq", "iso", "witness", "classify", "oracle-ulm-2^20",
        "oracle-ulm-1024^2", "oracle-ulm-mixed", "oracle-iso-cyclic-2^20"])
def test_huge_finite_multiplicities_exit_0_fast(capsys, argv):
    # a finite multiplicity is only ever added and compared, never expanded;
    # the oracle counts layer sizes per cyclic factor, never listing the group,
    # and folds element orders over the distinct orders of a factor
    start = time.perf_counter()
    body = run_json(capsys, *argv)
    assert time.perf_counter() - start < 2.0
    assert body["command"] == argv[0] and body.get("agree", True) is True


def test_oracle_ulm_at_the_order_cap_stays_small():
    # one child process with its address space capped at 256 MB
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    done = subprocess.run(
        [sys.executable, "-m", "sb_abelian", "oracle", "ulm", "Z/2^20",
         "--order-bound", str(MAX_ORDER_BOUND)],
        env=child_env(), capture_output=True, text=True, timeout=60, preexec_fn=cap_memory)
    assert done.returncode == EXIT_OK, done.stderr
    body = json.loads(done.stdout)
    assert body["agree"] is True and body["order"] == MAX_ORDER_BOUND


def test_socle_witness_runs_in_a_small_address_space():
    # one child process with its address space capped at 128 MB: the scan
    # needs no native library that reserves memory at import
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (128 << 20, 128 << 20))

    done = subprocess.run(
        [sys.executable, "-m", "sb_abelian", "witness", "sumP(all; Z/p^1)", "--window", "80",
         "--seed", "1"],
        env=child_env(), capture_output=True, text=True, timeout=60, preexec_fn=cap_memory)
    assert done.returncode == EXIT_OK, done.stderr
    assert json.loads(done.stdout)["route"] == "SocleWitness"


def test_sumK_set_size_is_bounded_by_the_exact_bound(capsys):
    # every exponent k needs 2^k below EXACT_BOUND, so at p = 2 a set lists at
    # most 81 exponents
    largest = (EXACT_BOUND - 1).bit_length() - 1
    assert largest == 81
    listed = ",".join(map(str, range(1, largest + 1)))
    start = time.perf_counter()
    body = run_json(capsys, "invariants", f"sumK(2; {{{listed}}})")
    assert time.perf_counter() - start < 2.0
    assert body["spec"].count("+") == largest - 1
    code, out, err = run(capsys, "invariants", f"sumK(2; {{{listed},{largest + 1}}})")
    assert code == EXIT_USAGE and out == "" and f"must be below {EXACT_BOUND}" in err


def test_large_prime_modulus_is_fast(capsys):
    # a 19-digit prime; trial division would need about 10**9 steps
    start = time.perf_counter()
    body = run_json(capsys, "classify", "Z/1000000000000000003")
    assert time.perf_counter() - start < 2.0
    assert body["spec"] == "Z/1000000000000000003" and body["sb"] is True


def test_modulus_at_or_above_the_exact_bound_exits_2(capsys):
    for text in ["Z/" + "1" * 26, f"Z/{EXACT_BOUND}", f"Prufer({EXACT_BOUND + 2})"]:
        code, out, err = run(capsys, "classify", text)
        assert code == EXIT_USAGE and out == ""
        assert str(EXACT_BOUND) in err and "position" in err


def test_unprintable_output_exits_2(capsys):
    # the component index 2^20000 has more than 4300 decimal digits
    code, out, err = run(capsys, "classify", "Z/2^20000")
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("sb-abelian: ") and "Traceback" not in err


def test_component_index_past_the_digit_limit_exits_2(capsys):
    code, out, err = run(capsys, "classify", "Z/2^20000")
    assert code == EXIT_USAGE and out == ""
    assert err == "sb-abelian: connected component index 2^20000 has more than 4300 digits\n"
    index = run_json(capsys, "classify", "Z/2^14000")["connected_component_index"]
    assert index == 2**14000


def test_overlong_number_exits_2_with_position(capsys):
    code, out, err = run(capsys, "classify", "Z/" + "9" * 5000)
    assert code == EXIT_USAGE and out == ""
    assert "limited to 4300 digits" in err and "(at position 2)" in err


def test_eq_and_invariants_tables_agree(capsys):
    pairs = [("sumK(2; all)", "sumK(2; all) + Prufer(2)"), ("Z/4^aleph(1)", "Z/4^w"),
             ("sumP(all; Z/p^1)", "sumP(all\\{2}; Z/p^1) + Z/2"), ("0", "Q"),
             ("Zhat(5)", "Zhat(5)^2")]
    for left, right in pairs:
        same = run_json(capsys, "eq", left, right)["equivalent"]
        tables = [run_json(capsys, "invariants", text)["szmielew"] for text in (left, right)]
        assert same == (tables[0] == tables[1]), (left, right)


def test_bad_grammar_exits_2(capsys):
    code, _, err = run(capsys, "classify", "Z/oops")
    assert code == EXIT_USAGE and "position" in err


@pytest.mark.parametrize("argv", [["classify", "Q"], ["invariants", "Q"], ["eq", "Q", "Q"],
                                  ["iso", "Q", "Q"]], ids=lambda argv: argv[0])
def test_search_flags_are_refused_off_witness(capsys, argv):
    code, out, err = run(capsys, *argv, "--seed", "1")
    assert code == EXIT_USAGE and out == ""
    assert "unrecognized arguments: --seed 1" in err


def test_bad_flag_value_exits_2(capsys):
    assert run(capsys, "classify", "Q", "--precision", "0")[0] == EXIT_USAGE
    assert run(capsys, "eq", "Q", "Q", "--format", "yaml")[0] == EXIT_USAGE
    assert run(capsys, "witness", "Zhat(2)", "--seed", "-3")[0] == EXIT_USAGE


def test_unknown_subcommand_exits_2(capsys):
    assert run(capsys, "solve", "Q")[0] == EXIT_USAGE


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == EXIT_OK


def test_config_validation(capsys):
    argv = ["witness", "sumP(all; Z/p^1)", "--degree", "1", "--height", "1"]
    code, out, err = run(capsys, *argv, "--window", "0")
    assert code == EXIT_USAGE and out == ""
    assert err == "sb-abelian: --window must be >= 1\n"
    assert run(capsys, *argv, "--window", str(MAX_WINDOW))[0] == EXIT_OK
    code, out, err = run(capsys, *argv, "--window", str(MAX_WINDOW + 1))
    assert code == EXIT_USAGE and out == ""
    assert err == f"sb-abelian: --window must be <= {MAX_WINDOW}\n"
    code, out, err = run(capsys, "classify", "Q", "--format", "yaml")
    assert code == EXIT_USAGE and out == ""
    assert "invalid choice: 'yaml'" in err
    # --degree 0 is a valid bound on both routes; the lower bounds are named
    # in the message
    assert run(capsys, *argv, "--window", "10", "--degree", "0")[0] == EXIT_OK
    code, out, _ = run(capsys, "witness", "Zhat(5)", "--degree", "0")
    assert code == EXIT_OK and '"max_exponent": 0' in out
    code, _, err = run(capsys, *argv, "--degree", "-1")
    assert code == EXIT_USAGE and err == "sb-abelian: --degree must be >= 0\n"
    code, _, err = run(capsys, "oracle", "ulm", "Z/2", "--order-bound", "0")
    assert code == EXIT_USAGE and err == "sb-abelian: --order-bound must be >= 1\n"
