"""Golden corpus: fixed argvs whose stdout, stderr and exit code must not change.

Each entry of ``golden_corpus.json`` is replayed in-process through
``run_cli`` and compared byte for byte.  A refactor that keeps behaviour must
leave every entry identical; an entry that changes on purpose is re-recorded
and the change is named in ``CHANGES.md``.

Re-record every entry from the current tree with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from _gen import run_argv

CORPUS = Path(__file__).with_name("golden_corpus.json")

ARGVS = [
    # decide: classification, invariants, equivalence, oracle, grammar errors
    ["classify", "Zhat(5)"],
    ["classify", "Z/4 + Z/3"],
    ["classify", "Z/12", "--format", "text"],
    ["classify", "sumP(all; Z/p^1) + Q"],
    ["invariants", "Z/4 + Z/3"],
    ["invariants", "Z/9 + Z/8^2 + Z/2^w"],
    ["invariants", "Zhat(2) + Q"],
    ["eq", "Q", "Q^w"],
    ["eq", "Z/4 + Z/3", "Z/12"],
    ["iso", "Prufer(2)^w", "Prufer(2)^aleph(1)"],
    ["oracle", "ulm", "Z/8 + Z/2"],
    ["eq", "Z/4 +", "Q"],
    # decide on large moduli: 13-14 digits with a 13-digit prime factor, a
    # product of two 7-digit primes, the cube of a 7-digit prime
    ["classify", "Z/13333773055895"],
    ["invariants", "Z/75062942654997 + Prufer(3)"],
    ["eq", "Z/13333773055895", "Z/2666754611179 + Z/5"],
    ["iso", "Z/75062942654997", "Z/2274634625909 + Z/33"],
    ["invariants", "Z/10000020999973"],
    ["classify", "Z/10000020999973 + Q", "--format", "text"],
    ["invariants", "Z/1000009000027000027"],
    ["eq", "Z/1000009000027000027", "Z/1000003^3"],
    # decide on theories whose verdicts hang on the Szmielew invariants:
    # completions of infinite multiplicity, the Tor/Exp parts of sumK(p; all),
    # component indices of finite-plus-infinite powers, capped multiplicities
    ["classify", "Zhat(2)^w + Q"],
    ["eq", "sumK(2; all)", "sumK(2; all) + Prufer(2)"],
    ["eq", "sumK(2; all)", "sumK(2; all) + Zhat(2)"],
    ["classify", "Z/4 + Z/2^w"],
    ["classify", "Z/2 + Z/4^w"],
    ["classify", "Z/8 + Z/2^w"],
    ["invariants", "Z/4^aleph(1)"],
    ["eq", "0", "Q"],
    # completion route: p-adic independence certificates
    ["witness", "Zhat(5)"],
    ["witness", "Zhat(5)", "--seed", "3"],
    ["witness", "Zhat(7)^2 + Z/4^w + Q", "--seed", "11"],
    ["witness", "Zhat(5)^3 + Zhat(7)", "--height", "1"],
    ["witness", "Zhat(3) + Zhat(5)", "--degree", "1", "--seed", "5"],
    ["witness", "Zhat(2)", "--precision", "3", "--degree", "1", "--height", "1"],
    ["witness", "Zhat(3)", "--format", "text", "--seed", "9"],
    ["witness", "Zhat(5)", "--precision", "1"],
    ["witness", "Zhat(7)", "--precision", "1", "--seed", "2"],
    ["witness", "Zhat(5)", "--height", "3"],
    # socle route: avoidance scans over windows of 30-80 primes
    ["witness", "sumP(all; Z/p^1)", "--window", "30", "--height", "1"],
    ["witness", "sumP(all; Z/p^1)", "--window", "30", "--seed", "4", "--threshold", "3"],
    ["witness", "sumP(all\\{2}; Z/p^1)", "--window", "50", "--seed", "2"],
    ["witness", "sumP(all\\{2,5}; Z/p^2)^2 + Z/3^w + Z/9 + Q", "--window", "50",
     "--height", "1", "--seed", "7"],
    ["witness", "sumP(all; Z/p^2) + Z/2^w", "--window", "80", "--seed", "1"],
    ["witness", "sumP(all\\{3}; Z/p^1)^2 + Z/5^w + Z/25^2", "--window", "80",
     "--height", "1", "--threshold", "4", "--seed", "13"],
    ["witness", "sumP(all; Z/p^1)", "--window", "40", "--degree", "1", "--format", "text"],
    ["witness", "sumP(all; Z/p^1)", "--window", "30", "--degree", "1", "--height", "3",
     "--seed", "5"],
    ["witness", "sumP(all; Z/p^1)", "--window", "30", "--degree", "0"],
    ["witness", "sumP(all; Z/p^1)", "--window", "30", "--threshold", "30"],
    # socle scans at the edges: primes past 256 and survival counts up to 300,
    # and a scan of 7^9 = 40,353,607 vectors
    ["witness", "sumP(all; Z/p^1)", "--window", "300", "--height", "1", "--threshold", "3"],
    ["witness", "sumP(all; Z/p^1)", "--window", "300", "--height", "1", "--threshold", "3",
     "--seed", "2"],
    ["witness", "sumP(all; Z/p^1)", "--window", "50", "--height", "3", "--threshold", "3",
     "--seed", "1"],
    # refusals
    ["witness", "Z/2^w"],
    ["witness", "sumK(2; all)"],
    # flags on the commands that read them, large sumK exponents
    ["oracle", "ulm", "Z/8", "--order-bound", "64"],
    ["oracle", "purity", "Z/4 + Z/2", "--format", "text"],
    ["oracle", "iso", "Z/4", "Z/2 + Z/2"],
    ["classify", "Q", "--seed", "3"],
    ["witness", "Zhat(5)^w"],
    ["witness", "sumP(all; Zhat)"],
    ["classify", "sumK(2; {100})"],
    # the finite oracle on groups whose layers and cyclic subgroups repeat:
    # one cyclic factor, equal factors, mixed exponents, odd primes
    ["oracle", "purity", "Z/512"],
    ["oracle", "purity", "Z/8^3"],
    ["oracle", "purity", "Z/16 + Z/4 + Z/2 + Z/2"],
    ["oracle", "purity", "Z/3 + Z/3 + Z/3 + Z/3"],
    ["oracle", "ulm", "Z/64^2 + Z/8 + Z/2"],
    ["oracle", "ulm", "Z/27 + Z/9^2 + Z/3"],
    # the witness route comes only from the classifier: no flag forces one
    ["witness", "Zhat(5)", "--route", "padic"],
    # degree 0 is in bounds on the completion route too: constants only
    ["witness", "Zhat(5)", "--degree", "0"],
    # usage errors as argparse words them, and the argv forms it accepts:
    # abbreviated flags, --flag=value and a negative number as a value
    [],
    ["solve", "Q"],
    ["classify"],
    ["eq", "Q"],
    ["classify", "Q", "Q"],
    ["classify", "-x", "Q"],
    ["witness", "Zhat(5)", "--window", "x"],
    ["classify", "Q", "--format", "xml"],
    ["witness", "Zhat(5)", "--seed"],
    ["oracle", "ulm", "Z/8", "--o", "5"],
    ["witness", "Zhat(5)", "--thr", "3", "--wind=30"],
    ["witness", "Zhat(5)", "--seed=-3"],
    # help, printed from the command table
    ["--help"],
    ["witness", "--help"],
    # finite families written out: each listed prime or exponent is one
    # singleton, and the grammar errors keep their messages and positions
    ["classify", "sumP({2,3}; Z/p^2)^w + Z/4"],
    ["invariants", "sumK(3; {1,2})^2 + sumP({5}; Zhat)"],
    ["eq", "sumP({5,7}; Zhat)", "Zhat(5) + Zhat(7)"],
    ["iso", "sumP({2}; Z/p^1)^w", "Z/2^w"],
    ["witness", "sumP({5,7}; Zhat) + Z/3"],
    ["classify", "sumP({4}; Z/p^1)"],
    ["classify", "sumP({2,3}; Z/p^0)"],
    # prime families of completions, spelled by their normal form
    ["classify", "sumP(all; Zhat)"],
    ["invariants", "sumP(all\\{5}; Zhat)^2 + Zhat(5)"],
    # witnesses over prime families of completions: a pair at the least
    # unlisted prime, the rest of the family carried as shared_completion
    ["witness", "sumP(all\\{5}; Zhat) + Z/3"],
    ["witness", "sumP(all; Zhat) + Q"],
    # numbers are ASCII digits: a superscript two is not a number
    ["classify", "Z/²"],
    # a final "--" after the command name, and one after its last positional
    ["oracle", "--"],
    ["classify", "Q", "--format", "json", "--"],
]


def replay(argv: list[str]) -> dict:
    """Run one argv in-process; returns its exit code, stdout and stderr."""
    code, stdout, stderr = run_argv(argv)
    return {"argv": argv, "code": code, "stdout": stdout, "stderr": stderr}


def _load() -> list[dict]:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def test_corpus_covers_argvs():
    assert [entry["argv"] for entry in _load()] == ARGVS


@pytest.mark.parametrize("index", range(len(ARGVS)), ids=lambda i: " ".join(ARGVS[i]))
def test_golden_entry(index):
    expected = _load()[index]
    assert replay(expected["argv"]) == expected


@pytest.mark.parametrize("columns", ["40", "200"])
def test_usage_and_help_ignore_the_terminal_width(monkeypatch, columns):
    # usage lines are wrapped at 80 columns whatever the terminal's width
    monkeypatch.setenv("COLUMNS", columns)
    shown = [entry for entry in _load()
             if entry["stderr"].startswith("usage:") or entry["stdout"].startswith("usage:")]
    assert len(shown) == 16
    for expected in shown:
        assert replay(expected["argv"]) == expected


if __name__ == "__main__":
    entries = [replay(argv) for argv in ARGVS]
    CORPUS.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n",
                      encoding="utf-8")
    print(f"recorded {len(entries)} entries to {CORPUS}", file=sys.stderr)
