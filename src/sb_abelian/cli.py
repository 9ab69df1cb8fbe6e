"""Command-line front end.

Subcommands:

* ``classify SPEC``      — stability class, the equivalent property bundle,
  witness route, connected-quotient data.
* ``invariants SPEC``    — the cardinal invariant table behind equivalence.
* ``eq SPEC SPEC``       — elementary equivalence of two descriptions.
* ``iso SPEC SPEC``      — isomorphism of the standard forms.
* ``witness SPEC``       — construct the bi-embeddable non-isomorphic pair
  (``--route auto|padic|socle``), certificates embedded.
* ``oracle ...``         — cross-checks against the brute-force finite oracle.

Every run is deterministic for a fixed argv: seeds default to 0 and all
searches are exhaustive or seeded.  Output is JSON (default) or flat text;
JSON carries a top-level ``schema`` tag.

Exit codes: 0 success, 2 argument/grammar errors (moduli and primes from
``primes.EXACT_BOUND`` on, ``--window`` above ``MAX_WINDOW`` and an ``--out``
file that cannot be written among them), 3 precondition or route errors (e.g.
asking for a witness of a theory that has none), 4 exhausted search budgets.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Callable, Mapping

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
from .groupspec import MSplitPreconditionError, SpecSyntaxError, parse_spec
from .invariants import (
    elementarily_equivalent,
    isomorphic_standard,
    szmielew_invariants,
    ulm_invariant,
)
from .primes import factorize
from .relations import BudgetExceeded

__all__ = ["CliConfig", "main", "run_cli"]

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


@dataclass(frozen=True)
class CliConfig:
    """Search and rendering knobs shared by every subcommand."""

    precision: int = 40
    degree: int = 2
    height: int = 2
    window: int = 50
    threshold: int = 5
    seed: int = 0
    order_bound: int = 2**16
    fmt: str = "json"
    out: str | None = None

    def validate(self) -> None:
        for name in ("precision", "degree", "height", "window", "threshold", "order_bound"):
            if getattr(self, name) < 1 and not (name == "degree" and self.degree == 0):
                raise ValueError(f"--{name.replace('_', '-')} must be >= 1")
        if self.window > MAX_WINDOW:
            raise ValueError(f"--window must be <= {MAX_WINDOW}")
        if self.seed < 0:
            raise ValueError("--seed must be >= 0")
        if self.fmt not in ("json", "text"):
            raise ValueError("--format must be json or text")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision", type=int, default=40, metavar="N",
                        help="digits kept for completion arithmetic (default 40)")
    common.add_argument("--degree", type=int, default=2, metavar="D",
                        help="max exponent per variable in relation searches (default 2)")
    common.add_argument("--height", type=int, default=2, metavar="B",
                        help="max |coefficient| in relation searches (default 2)")
    common.add_argument("--window", type=int, default=50, metavar="W",
                        help="number of window primes for socle witnesses (default 50)")
    common.add_argument("--threshold", type=int, default=5,
                        help="survival count demanded by avoidance checks (default 5)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for all randomized draws (default 0)")
    common.add_argument("--order-bound", type=int, default=2**16, dest="order_bound",
                        help="largest finite group the oracle will realize (default 65536)")
    common.add_argument("--format", choices=("json", "text"), default="json", dest="fmt")
    common.add_argument("--out", metavar="FILE", default=None,
                        help="write the report to FILE instead of stdout")

    parser = argparse.ArgumentParser(
        prog="sb-abelian",
        description="Classify complete theories of abelian groups and build "
        "bi-embeddable non-isomorphic witness pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common],
                       help="stability class, property bundle, witness route")
    p.add_argument("spec")

    p = sub.add_parser("invariants", parents=[common],
                       help="the cardinal invariant table of a description")
    p.add_argument("spec")

    p = sub.add_parser("eq", parents=[common], help="elementary equivalence")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("iso", parents=[common], help="isomorphism of standard forms")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("witness", parents=[common],
                       help="construct a bi-embeddable non-isomorphic pair")
    p.add_argument("spec")
    p.add_argument("--route", choices=("auto", "padic", "socle"), default="auto")

    p = sub.add_parser("oracle", parents=[common],
                       help="cross-check symbolic answers against brute force")
    orc = p.add_subparsers(dest="check", required=True)
    q = orc.add_parser("ulm", parents=[common], help="layer sizes on a realized finite group")
    q.add_argument("spec")
    q = orc.add_parser("iso", parents=[common],
                       help="equivalence vs. brute-force isomorphism on finite groups")
    q.add_argument("left")
    q.add_argument("right")
    q = orc.add_parser("purity", parents=[common],
                       help="purity of all cyclic subgroups of a realized finite group")
    q.add_argument("spec")
    return parser


# ---------------------------------------------------------------------------
# subcommand bodies


def _classify(args: argparse.Namespace, cfg: CliConfig) -> dict:
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


def _invariants(args: argparse.Namespace, cfg: CliConfig) -> dict:
    spec = parse_spec(args.spec)
    preds = basic_predicates(spec)
    return {
        "spec": str(spec),
        "szmielew": szmielew_invariants(spec).to_json(),
        "divisible": preds.divisible,
        "reduced": preds.reduced,
        "exponent": preds.exponent,
    }


def _eq(args: argparse.Namespace, cfg: CliConfig) -> dict:
    left, right = parse_spec(args.left), parse_spec(args.right)
    return {
        "left": str(left),
        "right": str(right),
        "equivalent": elementarily_equivalent(left, right),
    }


def _iso(args: argparse.Namespace, cfg: CliConfig) -> dict:
    left, right = parse_spec(args.left), parse_spec(args.right)
    return {
        "left": str(left),
        "right": str(right),
        "isomorphic": isomorphic_standard(left, right),
    }


def _witness(args: argparse.Namespace, cfg: CliConfig) -> dict:
    spec = parse_spec(args.spec)
    verdict = has_sb(spec)
    if verdict.has_sb:
        raise NotApplicableError(
            "the theory has the Schroeder-Bernstein property (it is "
            "omega-stable); bi-embeddable models are isomorphic, so no "
            "witness pair exists"
        )
    if args.route == "auto":
        route = verdict.route
    else:
        route = WitnessRoute.PADIC_WITNESS if args.route == "padic" else WitnessRoute.SOCLE_WITNESS
    if route is WitnessRoute.EXTERNAL_NON_SUPERSTABLE:
        raise NotApplicableError(verdict.reason)
    # imported here so that every other command starts without them; the
    # builder is looked up on its module at call time, so that a wrapper
    # installed on the module (a tracer, a test double) applies
    if route is WitnessRoute.PADIC_WITNESS:
        from . import witness_padic

        built = witness_padic.mixed_group_witness(
            spec,
            seed=cfg.seed,
            max_exponent=cfg.degree,
            height_bound=cfg.height,
            precision=cfg.precision,
        ).to_json()
    else:
        from . import witness_socle

        built = witness_socle.reduce_unbounded_torsion(
            spec,
            width=cfg.window,
            seed=cfg.seed,
            max_exponent=cfg.degree,
            height_bound=cfg.height,
            threshold=cfg.threshold,
        ).to_json()
    return {"spec": str(spec), "route": route.value, "witness": built}


def _oracle_ulm(args: argparse.Namespace, cfg: CliConfig) -> dict:
    spec = parse_spec(args.spec)
    group = realize(spec, order_bound=cfg.order_bound)
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
    return {"spec": str(spec), "order": group.order, "agree": agree, "layers": checked}


def _oracle_iso(args: argparse.Namespace, cfg: CliConfig) -> dict:
    left, right = parse_spec(args.left), parse_spec(args.right)
    g = realize(left, order_bound=cfg.order_bound)
    h = realize(right, order_bound=cfg.order_bound)
    brute = iso_finite_bruteforce(g, h)
    symbolic = elementarily_equivalent(left, right)
    return {
        "left": str(left),
        "right": str(right),
        "equivalent_symbolic": symbolic,
        "isomorphic_bruteforce": brute,
        "agree": symbolic == brute,
    }


def _oracle_purity(args: argparse.Namespace, cfg: CliConfig) -> dict:
    spec = parse_spec(args.spec)
    group = realize(spec, order_bound=min(cfg.order_bound, 512))
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
        "spec": str(spec),
        "order": group.order,
        "cyclic_subgroups": pure + impure,
        "pure": pure,
        "impure": impure,
        "impure_examples": samples,
    }


def _oracle(args: argparse.Namespace, cfg: CliConfig) -> dict:
    handlers: Mapping[str, Callable] = {
        "ulm": _oracle_ulm,
        "iso": _oracle_iso,
        "purity": _oracle_purity,
    }
    body = handlers[args.check](args, cfg)
    return {"check": args.check, **body}


_HANDLERS: Mapping[str, Callable[[argparse.Namespace, CliConfig], dict]] = {
    "classify": _classify,
    "invariants": _invariants,
    "eq": _eq,
    "iso": _iso,
    "witness": _witness,
    "oracle": _oracle,
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


def _render(payload: dict, cfg: CliConfig) -> str:
    if cfg.fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return "\n".join(_render_text(payload)) + "\n"


def run_cli(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        return EXIT_OK if stop.code in (0, None) else EXIT_USAGE
    cfg = CliConfig(
        precision=args.precision,
        degree=args.degree,
        height=args.height,
        window=args.window,
        threshold=args.threshold,
        seed=args.seed,
        order_bound=args.order_bound,
        fmt=args.fmt,
        out=args.out,
    )
    try:
        cfg.validate()
    except ValueError as bad:
        print(f"sb-abelian: {bad}", file=sys.stderr)
        return EXIT_USAGE
    try:
        body = _HANDLERS[args.command](args, cfg)
        # rendering can fail too: an integer past Python's 4300-digit
        # int-to-str limit raises ValueError, which exits 2 like bad input
        rendered = _render({"schema": SCHEMA, "command": args.command, **body}, cfg)
    except SpecSyntaxError as bad:
        print(f"sb-abelian: {bad}", file=sys.stderr)
        return EXIT_USAGE
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
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as bad:
            print(f"sb-abelian: cannot write {cfg.out}: {bad.strerror or bad}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(rendered)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    return run_cli(argv)
