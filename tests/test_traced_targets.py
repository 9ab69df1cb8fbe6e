"""Every function the benchmark traces still exists in the library.

``perfbench/spans.py`` refuses a traced run when a target is missing; this
test makes the same check part of the ordinary suite, so deleting or
renaming a traced function fails here first.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_benchmark_targets_exist():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    assert spans.missing_targets() == []
