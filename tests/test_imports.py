"""Every name a module imports is used: in code, in a quoted annotation or in ``__all__``;
the package imports nothing beyond the standard library."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# the built-in SHA-256 is one CPython module, named _sha256 up to 3.11 and _sha2
# from 3.12: each interpreter lists only its own name
STDLIB = sys.stdlib_module_names | {"_sha2", "_sha256"}
FILES = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a quoted annotation, or the names listed in __all__
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return [
        f"line {node.lineno}: {name}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for name in ((a.asname or a.name).split(".")[0] for a in node.names)
        if name not in used
    ]


def test_scan_catches_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["line 1: os"]
    assert unused_imports("from x import (A,\n    B)\n__all__ = ['A']\nv: 'B'\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def foreign_imports(source: str) -> list[str]:
    """Top-level modules imported from outside the standard library and the package."""
    return [
        f"line {node.lineno}: {name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and not node.level)
        for name in (
            [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module])
        if name.split(".")[0] not in STDLIB | {"sb_abelian"}
    ]


def test_scan_catches_a_foreign_import():
    assert foreign_imports("import os, numpy as np\nfrom . import cli\n") == ["line 1: numpy"]
    assert foreign_imports("from scipy.linalg import solve\nfrom sb_abelian import cli\n") == [
        "line 1: scipy.linalg"]


@pytest.mark.parametrize("path", [p for p in FILES if p.is_relative_to(ROOT / "src")],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_package_imports_only_the_standard_library(path):
    # the package has no runtime dependency
    assert foreign_imports(path.read_text(encoding="utf-8")) == []
