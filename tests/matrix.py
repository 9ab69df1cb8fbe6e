"""Replay the golden corpus under each of several Python interpreters.

For each interpreter path given, a child process of that interpreter replays
every entry of ``golden_corpus.json`` through ``_gen.run_argv`` and counts
the entries whose exit code, stdout or stderr differ, and recomputes the nine
pinned digests through ``_gen``; each is compared with the constant its test
pins.  Then ``python -m sb_abelian classify Q`` runs as a process of its own,
and its stdout is compared with the child's in-process ``run_cli`` of the same
argv.  It prints one line per interpreter, naming each entry and digest that
differs, and exits 1 if any line shows a difference:

    python tests/matrix.py /usr/bin/python3.10 /usr/bin/python3.13

It imports only the standard library, and its children the package and
``_gen``.  All its work runs under the ``__main__`` check, because the test run
imports every module in ``tests/``.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
ENTRY_ARGV = ["classify", "Q"]
# each pinned digest: the test file that pins it, and the _gen function computing it
DIGESTS = {
    "SOCLE_DIGEST": ("test_element_arithmetic.py", "socle_element_digest"),
    "PADIC_DIGEST": ("test_element_arithmetic.py", "padic_element_digest"),
    "PROBE_DIGEST": ("test_witness_padic.py", "probe_digest"),
    "ROUTE_DIGEST": ("test_route_multiplicities.py", "route_digest"),
    "PARSE_DIGEST": ("test_groupspec.py", "parse_digest"),
    "CLASSIFY_DIGEST": ("test_cli_digests.py", "classify_digest"),
    "INVARIANTS_DIGEST": ("test_cli_digests.py", "invariants_digest"),
    "WITNESS_DIGEST": ("test_cli_digests.py", "witness_digest"),
    "EQ_DIGEST": ("test_cli_digests.py", "eq_digest"),
}


def pinned(name: str, test_file: str) -> str:
    """The string constant ``name`` that ``test_file`` assigns at module level."""
    tree = ast.parse((TESTS / test_file).read_text(encoding="utf-8"))
    return next(node.value.value for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(target, "id", None) for target in node.targets] == [name])


def replay_corpus() -> None:
    """Replay the corpus and recompute the digests in this interpreter; print its
    version, the number of entries, the argvs and digests that differ and
    ``ENTRY_ARGV``'s stdout, as JSON."""
    import _gen

    entries = json.loads((TESTS / "golden_corpus.json").read_text(encoding="utf-8"))
    differ = [entry["argv"] for entry in entries
              if _gen.run_argv(entry["argv"]) != (entry["code"], entry["stdout"], entry["stderr"])]
    digests = [name for name, (test_file, compute) in DIGESTS.items()
               if getattr(_gen, compute)() != pinned(name, test_file)]
    print(json.dumps({"version": sys.version.split()[0], "entries": len(entries),
                      "differ": differ, "digests": digests,
                      "entry_stdout": _gen.run_argv(ENTRY_ARGV)[1]}))


def check(python: str) -> tuple[bool, str]:
    """(whether ``python`` reproduces the corpus and runs the module, its line)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    child = subprocess.run([python, "-c", "import matrix; matrix.replay_corpus()"],
                           env=env, capture_output=True, encoding="utf-8")
    if child.returncode:
        return False, f"{python}: replay exited {child.returncode}: {child.stderr.strip()}"
    found = json.loads(child.stdout)
    entry = subprocess.run([python, "-m", "sb_abelian", *ENTRY_ARGV],
                           env=env, capture_output=True, encoding="utf-8")
    same = entry.returncode == 0 and entry.stdout == found["entry_stdout"]
    line = (f"{python}: Python {found['version']}, {len(found['differ'])} of "
            f"{found['entries']} golden entries differ, {len(found['digests'])} of "
            f"{len(DIGESTS)} digests differ; -m sb_abelian {' '.join(ENTRY_ARGV)} exits "
            f"{entry.returncode}, stdout {'as' if same else 'unlike'} run_cli")
    for argv in found["differ"]:
        line += f"\n  differs: {json.dumps(argv, ensure_ascii=False)}"
    for name in found["digests"]:
        line += f"\n  differs: {name}"
    return not found["differ"] and not found["digests"] and same, line


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(f"usage: python {sys.argv[0]} PYTHON [PYTHON ...]")
    results = [check(python) for python in sys.argv[1:]]
    for _, line in results:
        print(line)
    sys.exit(0 if all(ok for ok, _ in results) else 1)
