"""Span tracing of the library's layers, installed from the benchmark's files.

``Tracer.installed()`` replaces each traced public function by a span wrapper
at every module attribute that holds it (the home module, the package and
each importing module), so callers that look the name up at call time hit
the wrapper.  Spans record name, start, end, parent and call id; they stay in
memory and ``dump`` writes them out at the end of a run.

Every target must exist: ``missing_targets`` names those the tree lacks, and
the benchmark refuses to run a traced run without them, so a renamed or
inlined function changes ``TARGETS`` in the open instead of reading 0.
Layer metrics are self times (a span's duration minus its child spans) and
counters, both averaged per traced call.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

# (span name, module, function): the span name is the metric stem.
TARGETS = (
    ("cli", "cli", "run_cli"),
    ("groupspec.parse", "groupspec", "parse_spec"),
    ("groupspec.split", "groupspec", "split_reduced_divisible"),
    ("groupspec.split", "groupspec", "m_split"),
    ("invariants", "invariants", "szmielew_invariants"),
    ("invariants", "invariants", "elementarily_equivalent"),
    ("invariants", "invariants", "isomorphic_standard"),
    ("invariants", "invariants", "ulm_invariant"),
    ("classify", "classify", "basic_predicates"),
    ("classify", "classify", "stability_class"),
    ("classify", "classify", "divisible_plus_bounded"),
    ("classify", "classify", "has_sb"),
    ("classify", "classify", "connected_component_index"),
    ("classify", "classify", "unipotence_report"),
    ("primes.factorize", "primes", "factorize"),
    ("finite_oracle.realize", "finite_oracle", "realize"),
    ("finite_oracle.bruteforce", "finite_oracle", "ulm_bruteforce"),
    ("finite_oracle.bruteforce", "finite_oracle", "iso_finite_bruteforce"),
    ("finite_oracle.bruteforce", "finite_oracle", "is_pure_subgroup_bruteforce"),
    ("finite_oracle.bruteforce", "finite_oracle", "subgroup_closure"),
    ("padic.certificate", "padic", "independence_certificate"),
    ("witness_padic.assembly", "witness_padic", "mixed_group_witness"),
    ("witness_padic.assembly", "witness_padic", "multi_prime_witness"),
    ("witness_padic.assembly", "witness_padic", "build_padic_witness"),
    ("witness_socle.scan", "witness_socle", "choose_scalars"),
    ("witness_socle.assembly", "witness_socle", "reduce_unbounded_torsion"),
    ("witness_socle.assembly", "witness_socle", "build_socle_witness"),
    ("witness_socle.assembly", "witness_socle", "window_from_socle"),
    ("witness_socle.inclusion", "witness_socle", "proper_inclusion_check"),
    ("witness_socle.element_ops", "witness_socle", "random_socle_member"),
    ("witness_socle.element_ops", "witness_socle", "pseudo_divide"),
    ("witness_socle.element_ops", "witness_socle", "product_membership"),
)

PACKAGE = "sb_abelian"


def missing_targets() -> list[str]:
    """The traced functions this tree does not have, as ``module.function``."""
    return [f"{module}.{attr}" for _, module, attr in TARGETS
            if not hasattr(importlib.import_module(f"{PACKAGE}.{module}"), attr)]


# self-time metric per span name
SELF_METRICS = {
    "cli": "cli.self_s",
    "groupspec.parse": "groupspec.parse_s",
    "groupspec.split": "groupspec.split_s",
    "invariants": "invariants.self_s",
    "classify": "classify.self_s",
    "primes.factorize": "primes.factorize_s",
    "finite_oracle.realize": "finite_oracle.realize_s",
    "finite_oracle.bruteforce": "finite_oracle.bruteforce_s",
    "padic.certificate": "padic.certificate_s",
    "witness_padic.assembly": "witness_padic.assembly_s",
    "witness_socle.scan": "witness_socle.scan_s",
    "witness_socle.assembly": "witness_socle.assembly_s",
    "witness_socle.inclusion": "witness_socle.inclusion_s",
    "witness_socle.element_ops": "witness_socle.element_ops_s",
}

# call-count metric per span name
CALL_METRICS = {
    "groupspec.parse": "groupspec.parse_calls",
    "groupspec.split": "groupspec.split_calls",
    "invariants": "invariants.calls",
    "classify": "classify.calls",
    "primes.factorize": "primes.factorize_calls",
}


def _on_result(name: str, result, counters: Counter) -> None:
    """Counters read off a traced function's return value."""
    if name == "finite_oracle.realize":
        counters["finite_oracle.elements"] += result.order
    elif name == "padic.certificate":
        counters["padic.certificates"] += 1
        counters["padic.candidates"] += result.candidates
        counters["padic.passed"] += result.passed
    elif name == "witness_padic.assembly" and hasattr(result, "core"):
        counters["witness_padic.components"] += len(result.core.components)
    elif name == "witness_socle.scan":
        cert = result[1]
        counters["witness_socle.attempts"] += cert.attempt + 1
        counters["witness_socle.scan_rows"] += cert.candidates * (cert.attempt + 1)
        counters["witness_socle.passes"] += 1
    elif name == "witness_socle.inclusion":
        counters["witness_socle.inclusion_rows"] += sum(n for _, _, n in result.rows)


class Tracer:
    """In-memory spans and counters for the calls of one traced run."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counters: Counter = Counter()
        self.alloc_peak = 0
        self.call_id = -1
        self._stack: list[int] = []

    def new_call(self) -> None:
        self.call_id += 1

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent, self.call_id))
            self._stack.append(index)
            scan = name == "witness_socle.scan"
            if scan:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if scan and hasattr(exc, "attempts"):
                    self.counters["witness_socle.attempts"] += exc.attempts
                raise
            finally:
                end = time.perf_counter()
                if scan:
                    self.alloc_peak = max(self.alloc_peak, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.call_id)
            _on_result(name, result, self.counters)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every traced function for its wrapper, and back on exit."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        swapped = []
        for name, module, attr in TARGETS:
            original = getattr(importlib.import_module(f"{PACKAGE}.{module}"), attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        swapped.append((mod, key, original))
        try:
            yield
        finally:
            for mod, key, original in swapped:
                setattr(mod, key, original)

    def self_times(self) -> dict[str, float]:
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[index]
        return out

    def metrics(self, calls: int, cache_hits: int, cache_misses: int) -> dict[str, float]:
        """Per-call self times and counters over ``calls`` traced calls."""
        selfs = self.self_times()
        counts = Counter(name for name, *_ in self.spans)
        c = self.counters
        out = {metric: selfs.get(name, 0.0) / calls for name, metric in SELF_METRICS.items()}
        out.update({metric: counts[name] / calls for name, metric in CALL_METRICS.items()})
        for key in ("finite_oracle.elements", "padic.certificates", "padic.candidates",
                    "witness_padic.components", "witness_socle.attempts",
                    "witness_socle.scan_rows", "witness_socle.inclusion_rows"):
            out[key] = c[key] / calls
        out["invariants.cache_hit_ratio"] = _ratio(cache_hits, cache_hits + cache_misses)
        out["padic.pass_ratio"] = _ratio(c["padic.passed"], c["padic.certificates"])
        out["witness_socle.pass_ratio"] = _ratio(
            c["witness_socle.passes"], c["witness_socle.attempts"])
        out["witness_socle.alloc_peak_mb"] = self.alloc_peak / 2**20
        return out

    def dump(self, path) -> None:
        rows = [{"name": n, "start": s, "end": e, "parent": p, "call": c}
                for n, s, e, p, c in self.spans]
        path.write_text(json.dumps({"spans": rows, "counters": dict(self.counters)}))


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
