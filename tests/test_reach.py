"""The functions of ``src/`` that no entry point runs are exactly a known list.

``tests/reach.py`` replays the golden argvs, the demos and one ``certify()``
call under a profiler and names each package function whose code never
started.  This gate runs that replay in-process, so a function that only
tests call, or that nothing calls, fails here until it moves to the tests or
is deleted, or is added below with its reason.
"""

from __future__ import annotations

import sys

import reach

# Dunders that no entry point calls; the guard that refuses writes to a record;
# and the error of an m-split whose precondition no entry point breaks.
UNRUN = {
    "sb_abelian.finite_oracle.FiniteAbelianGroup.__eq__",
    "sb_abelian.finite_oracle.FiniteAbelianGroup.__hash__",
    "sb_abelian.finite_oracle.FiniteAbelianGroup.__repr__",
    "sb_abelian.groupspec.Cardinal.__repr__",
    "sb_abelian.groupspec.MSplitPreconditionError.__init__",
    "sb_abelian.groupspec.Record.__setattr__",
    "sb_abelian.witness_padic.GridElement.__str__",
    "sb_abelian.witness_padic.GridMonomial.__str__",
    "sb_abelian.witness_socle.ProductElement.__neg__",
    "sb_abelian.witness_socle.ProductElement.__sub__",
}


def _package(modules) -> dict:
    return {name: module for name, module in modules.items()
            if name == "sb_abelian" or name.startswith("sb_abelian.")}


def test_only_the_known_functions_go_unrun():
    # The replay imports the package afresh, as ``python tests/reach.py`` does:
    # code that runs at import and calls that earlier tests cached count too.
    # The modules, ``sys.path`` and the profiler are put back afterwards.
    kept, path, profile = _package(sys.modules), list(sys.path), sys.getprofile()
    for name in kept:
        del sys.modules[name]
    started: set[tuple[str, int]] = set()
    try:
        reach.replay(started)
    finally:
        sys.path[:] = path
        sys.setprofile(profile)
        for name in _package(sys.modules):
            del sys.modules[name]
        sys.modules.update(kept)
    unrun = {name for key, (name, _) in reach.definitions().items() if key not in started}
    assert unrun == UNRUN
