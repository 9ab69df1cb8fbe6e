"""Command-line front end.

Subcommands, with the flags each one reads:

* ``classify SPEC``      — stability class, the equivalent property bundle,
  witness route, connected-quotient data.
* ``invariants SPEC``    — the cardinal invariant table behind equivalence.
* ``eq SPEC SPEC``       — elementary equivalence of two descriptions.
* ``iso SPEC SPEC``      — isomorphism of the standard forms.
* ``witness SPEC``       — construct the bi-embeddable non-isomorphic pair,
  certificates embedded: ``--route auto|padic|socle``, ``--precision``,
  ``--degree``, ``--height``, ``--window``, ``--threshold``, ``--seed``.
* ``oracle ulm|iso|purity ...`` — cross-checks against the brute-force finite
  oracle: ``--order-bound``.

Every subcommand takes ``--format json|text`` and ``--out FILE``; a flag given
to a command that does not read it is an argument error.  Every run is
deterministic for a fixed argv: seeds default to 0 and all searches are
exhaustive or seeded.  JSON output carries a top-level ``schema`` tag.

Exit codes: 0 success, 2 argument/grammar errors (numeric flags below their
lower bounds or above ``MAX_WINDOW``, ``MAX_PRECISION`` and ``MAX_ORDER_BOUND``,
moduli and primes from ``primes.EXACT_BOUND`` on, and an ``--out`` file that
cannot be written among them),
3 precondition or route errors (e.g. asking for a witness of a theory that has
none), 4 exhausted search budgets.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable

from .classify import (
    NotApplicableError,
    StabilityClass,
    WitnessRoute,
    basic_predicates,
    connected_component_index,
    divisible_plus_bounded,
    has_sb,
    stability_class,
    unipotence_report,
)
from .finite_oracle import (
    OrderBoundError,
    is_pure_subgroup_bruteforce,
    iso_finite_bruteforce,
    realize,
    subgroup_closure,
    ulm_bruteforce,
)
from .groupspec import MSplitPreconditionError, parse_spec
from .invariants import (
    elementarily_equivalent,
    isomorphic_standard,
    szmielew_invariants,
    ulm_invariant,
)
from .primes import factorize
from .relations import BudgetExceeded

__all__ = ["main", "run_cli"]

SCHEMA = "sb-abelian/1"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4

# The witness modules load only when ``witness`` runs; their precondition
# errors subclass NotApplicableError and their search failures BudgetExceeded.
_PRECONDITION_ERRORS = (NotApplicableError, MSplitPreconditionError)
_BUDGET_ERRORS = (BudgetExceeded, OrderBoundError)
MAX_WINDOW = 1000  # socle window primes; a scan's memory grows with the width
MAX_PRECISION = 10_000  # p-adic digits; a certificate's time grows with them
MAX_ORDER_BOUND = 2**20  # realized group order; the brute-force checks list every element
PURITY_ORDER_BOUND = 512  # purity closes every element's subgroup; this holds a call near 1 s

# lower bounds of the numeric flags, checked after parsing like the window cap
_LOWER_BOUNDS = (("precision", 1), ("degree", 0), ("height", 1), ("window", 1),
                 ("threshold", 1), ("order_bound", 1), ("seed", 0))


def _leaf(sub, name: str, handler: Callable, summary: str, *positionals: str):
    """A subcommand that runs ``handler`` and takes the rendering flags."""
    p = sub.add_parser(name, help=summary)
    for arg in positionals:
        p.add_argument(arg)
    p.add_argument("--format", choices=("json", "text"), default="json", dest="fmt")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write the report to FILE instead of stdout")
    p.set_defaults(handler=handler)
    return p


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sb-abelian",
        description="Classify complete theories of abelian groups and build "
        "bi-embeddable non-isomorphic witness pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _leaf(sub, "classify", _classify, "stability class, property bundle, witness route", "spec")
    _leaf(sub, "invariants", _invariants, "the cardinal invariant table of a description",
          "spec")
    _leaf(sub, "eq", _eq, "elementary equivalence", "left", "right")
    _leaf(sub, "iso", _iso, "isomorphism of standard forms", "left", "right")

    p = _leaf(sub, "witness", _witness, "construct a bi-embeddable non-isomorphic pair", "spec")
    p.add_argument("--route", choices=("auto", "padic", "socle"), default="auto")
    p.add_argument("--precision", type=int, default=40, metavar="N",
                   help="digits kept for completion arithmetic (default 40)")
    p.add_argument("--degree", type=int, default=2, metavar="D",
                   help="max exponent per variable in relation searches (default 2)")
    p.add_argument("--height", type=int, default=2, metavar="B",
                   help="max |coefficient| in relation searches (default 2)")
    p.add_argument("--window", type=int, default=50, metavar="W",
                   help="number of window primes for socle witnesses (default 50)")
    p.add_argument("--threshold", type=int, default=5,
                   help="survival count demanded by avoidance checks (default 5)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for all randomized draws (default 0)")

    orc = sub.add_parser("oracle", help="cross-check symbolic answers against brute force")
    checks = orc.add_subparsers(dest="check", required=True)
    for name, handler, summary, positionals in (
        ("ulm", _oracle_ulm, "layer sizes on a realized finite group", ["spec"]),
        ("iso", _oracle_iso, "equivalence vs. brute-force isomorphism on finite groups",
         ["left", "right"]),
        ("purity", _oracle_purity, "purity of all cyclic subgroups of a realized finite group",
         ["spec"]),
    ):
        q = _leaf(checks, name, handler, summary, *positionals)
        cap = f"; purity stops at {PURITY_ORDER_BOUND} whatever it says" if name == "purity" else ""
        q.add_argument("--order-bound", type=int, default=2**16, dest="order_bound",
                       help=f"largest finite group the oracle will realize (default 65536{cap})")
    return parser


def _bound_error(args: argparse.Namespace) -> str | None:
    """The first flag outside its bounds, as a message; None if all hold."""
    for name, low in _LOWER_BOUNDS:
        if getattr(args, name, low) < low:
            return f"--{name.replace('_', '-')} must be >= {low}"
    for name, high in (("window", MAX_WINDOW), ("precision", MAX_PRECISION),
                       ("order_bound", MAX_ORDER_BOUND)):
        if getattr(args, name, high) > high:
            return f"--{name.replace('_', '-')} must be <= {high}"
    return None


# ---------------------------------------------------------------------------
# subcommand bodies


def _classify(args: argparse.Namespace) -> dict:
    spec = parse_spec(args.spec)
    verdict = has_sb(spec)
    cls = stability_class(spec)
    omega = cls is StabilityClass.OMEGA_STABLE
    superstable = cls is not StabilityClass.NOT_SUPERSTABLE
    condition3 = divisible_plus_bounded(spec)
    if superstable:
        report = unipotence_report(spec)
        condition4 = report.unipotent_all
        index = report.index
    else:
        condition4 = False
        index = connected_component_index(spec)
    agreement = verdict.has_sb == omega == condition3 == condition4
    preds = basic_predicates(spec)
    return {
        "spec": str(spec),
        "sb": verdict.has_sb,
        "omega_stable": omega,
        "superstable": superstable,
        "condition3": condition3,
        "condition4": condition4,
        "agreement": agreement,
        "stability": cls.value,
        "route": verdict.route.value if verdict.route else None,
        "reason": verdict.reason,
        "connected_component_index": index if isinstance(index, int) else str(index),
        "divisible": preds.divisible,
        "reduced": preds.reduced,
        "exponent": preds.exponent,
    }


def _invariants(args: argparse.Namespace) -> dict:
    spec = parse_spec(args.spec)
    preds = basic_predicates(spec)
    return {
        "spec": str(spec),
        "szmielew": szmielew_invariants(spec).to_json(),
        "divisible": preds.divisible,
        "reduced": preds.reduced,
        "exponent": preds.exponent,
    }


def _eq(args: argparse.Namespace) -> dict:
    left, right = parse_spec(args.left), parse_spec(args.right)
    return {
        "left": str(left),
        "right": str(right),
        "equivalent": elementarily_equivalent(left, right),
    }


def _iso(args: argparse.Namespace) -> dict:
    left, right = parse_spec(args.left), parse_spec(args.right)
    return {
        "left": str(left),
        "right": str(right),
        "isomorphic": isomorphic_standard(left, right),
    }


def _witness(args: argparse.Namespace) -> dict:
    spec = parse_spec(args.spec)
    verdict = has_sb(spec)
    if verdict.has_sb:
        raise NotApplicableError(
            "the theory has the Schroeder-Bernstein property (it is "
            "omega-stable); bi-embeddable models are isomorphic, so no "
            "witness pair exists"
        )
    # checked before the route: a forced --route must not reach a builder
    # that would blame a narrower precondition
    if verdict.route is WitnessRoute.EXTERNAL_NON_SUPERSTABLE:
        raise NotApplicableError(verdict.reason)
    if args.route == "auto":
        route = verdict.route
    else:
        route = WitnessRoute.PADIC_WITNESS if args.route == "padic" else WitnessRoute.SOCLE_WITNESS
    # imported here so that every other command starts without them; the
    # builder is looked up on its module at call time, so that a wrapper
    # installed on the module (a tracer, a test double) applies
    if route is WitnessRoute.PADIC_WITNESS:
        from . import witness_padic

        built = witness_padic.mixed_group_witness(
            spec,
            seed=args.seed,
            max_exponent=args.degree,
            height_bound=args.height,
            precision=args.precision,
        ).to_json()
    else:
        from . import witness_socle

        built = witness_socle.reduce_unbounded_torsion(
            spec,
            width=args.window,
            seed=args.seed,
            max_exponent=args.degree,
            height_bound=args.height,
            threshold=args.threshold,
        ).to_json()
    return {"spec": str(spec), "route": route.value, "witness": built}


def _oracle_ulm(args: argparse.Namespace) -> dict:
    spec = parse_spec(args.spec)
    group = realize(spec, order_bound=args.order_bound)
    checked = []
    agree = True
    for p, depth in sorted(factorize(group.exponent).items()) or [(2, 0)]:
        # layers above the p-valuation of the exponent are all zero; check
        # one of them too as a sanity probe
        for i in range(depth + 1):
            brute = ulm_bruteforce(group, p, i)
            symbolic = ulm_invariant(spec, p, i)
            checked.append({"p": p, "layer": i, "brute": brute,
                            "symbolic": str(symbolic)})
            agree = agree and symbolic.is_finite and symbolic.value == brute
    return {"check": "ulm", "spec": str(spec), "order": group.order, "agree": agree,
            "layers": checked}


def _oracle_iso(args: argparse.Namespace) -> dict:
    left, right = parse_spec(args.left), parse_spec(args.right)
    g = realize(left, order_bound=args.order_bound)
    h = realize(right, order_bound=args.order_bound)
    brute = iso_finite_bruteforce(g, h)
    symbolic = elementarily_equivalent(left, right)
    return {
        "check": "iso",
        "left": str(left),
        "right": str(right),
        "equivalent_symbolic": symbolic,
        "isomorphic_bruteforce": brute,
        "agree": symbolic == brute,
    }


def _oracle_purity(args: argparse.Namespace) -> dict:
    spec = parse_spec(args.spec)
    try:
        group = realize(spec, order_bound=min(args.order_bound, PURITY_ORDER_BOUND))
    except OrderBoundError as big:
        if args.order_bound <= PURITY_ORDER_BOUND:
            raise
        raise OrderBoundError(f"{big}, oracle purity's own limit whatever --order-bound says") \
            from None
    pure, impure, samples = 0, 0, []
    seen: set[frozenset] = set()
    for g in group.elements():
        sub = subgroup_closure(group, [g])
        if sub in seen:
            continue
        seen.add(sub)
        ok = is_pure_subgroup_bruteforce(group, sub)
        pure, impure = pure + ok, impure + (not ok)
        if not ok and len(samples) < 3:
            samples.append({"generator": list(g), "order": len(sub)})
    return {
        "check": "purity",
        "spec": str(spec),
        "order": group.order,
        "cyclic_subgroups": pure + impure,
        "pure": pure,
        "impure": impure,
        "impure_examples": samples,
    }


# ---------------------------------------------------------------------------
# rendering and entry points


def _render_text(payload: dict, prefix: str = "") -> list[str]:
    lines = []
    for key in sorted(payload):
        value = payload[key]
        shown = f"{prefix}{key}"
        if isinstance(value, dict):
            lines.extend(_render_text(value, shown + "."))
        elif isinstance(value, (list, tuple)):
            lines.append(f"{shown} = {json.dumps(value, sort_keys=True)}")
        else:
            lines.append(f"{shown} = {value}")
    return lines


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return "\n".join(_render_text(payload)) + "\n"


def run_cli(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        return EXIT_OK if stop.code in (0, None) else EXIT_USAGE
    refused = _bound_error(args)
    if refused:
        print(f"sb-abelian: {refused}", file=sys.stderr)
        return EXIT_USAGE
    try:
        body = args.handler(args)
        # rendering can fail too: an integer past Python's 4300-digit
        # int-to-str limit raises ValueError, which exits 2 like bad input
        rendered = _render({"schema": SCHEMA, "command": args.command, **body}, args.fmt)
    except _PRECONDITION_ERRORS as bad:
        print(f"sb-abelian: {bad}", file=sys.stderr)
        return EXIT_PRECONDITION
    except _BUDGET_ERRORS as bad:
        print(f"sb-abelian: {bad}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as bad:
        # remaining ValueErrors are malformed inputs (bad primes, bounds, ...)
        print(f"sb-abelian: {bad}", file=sys.stderr)
        return EXIT_USAGE
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as bad:
            print(f"sb-abelian: cannot write {args.out}: {bad.strerror or bad}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(rendered)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    return run_cli(argv)
