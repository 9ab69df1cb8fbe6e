"""List the functions in ``src/`` that no real entry point runs.

It replays every argv of the golden corpus through ``run_cli``, runs the six
demos and one ``perfbench/certify.py`` ``certify()`` call, all in one process
under ``sys.setprofile``, and prints each ``def`` of the package whose code
never started, with its length in lines, then the totals; a line of a nested
``def`` counts once.  A function listed here is reached only by tests, or by
nothing.  The last line is the line count of ``src/``'s Python files, counted
as ``wc -l`` counts it: one line per newline.

    python tests/reach.py

It imports only the standard library and the package.  All its work runs under
the ``__main__`` check, because the test run imports every module in ``tests/``.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import runpy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sb_abelian"


def definitions() -> dict[tuple[str, int], tuple[str, range]]:
    """{(file, first line as the code object counts it): (qualified name, its lines)}
    for every function and method of the package."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = f"{PACKAGE.name}.{path.stem}"

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = f"{prefix}.{child.name}"
                    # a decorated function's code starts at its first decorator
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[str(path), first] = (name, range(child.lineno, child.end_lineno + 1))
                    visit(child, name)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}.{child.name}")

        visit(ast.parse(path.read_text(encoding="utf-8")), module)
    return found


def replay(started: set[tuple[str, int]]) -> None:
    """Run the golden argvs, the demos and one certify() call, noting each
    package code object that starts."""
    prefix = str(PACKAGE)

    def hook(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(prefix):
            started.add((code.co_filename, code.co_firstlineno))

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from sb_abelian import parse_spec
    from sb_abelian import witness_socle as ws
    from sb_abelian.cli import run_cli

    import certify

    corpus = json.loads((ROOT / "tests" / "golden_corpus.json").read_text(encoding="utf-8"))
    sink = io.StringIO()
    sys.setprofile(hook)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for entry in corpus:
                run_cli(list(entry["argv"]))
            for demo in sorted((ROOT / "demos").glob("*.py")):
                runpy.run_path(str(demo), run_name="__main__")
            certify.certify(ws, parse_spec("sumP(all; Z/p^1)"), 7, 3)
    finally:
        sys.setprofile(None)


if __name__ == "__main__":
    started: set[tuple[str, int]] = set()
    replay(started)
    unrun = sorted((name, key[0], lines) for key, (name, lines) in definitions().items()
                   if key not in started)
    for name, _, lines in unrun:
        print(f"{len(lines):4d}  {name}")
    distinct = {(path, n) for _, path, lines in unrun for n in lines}
    print(f"{len(unrun)} functions, {len(distinct)} lines never run")
    size = sum(path.read_bytes().count(b"\n") for path in (ROOT / "src").rglob("*.py"))
    print(f"src/ has {size} lines")
