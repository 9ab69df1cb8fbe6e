"""Command-line front end.

Subcommands, with the flags each one reads:

* ``classify SPEC``      — stability class, the equivalent property bundle,
  witness route, connected-quotient data.
* ``invariants SPEC``    — the cardinal invariant table behind equivalence.
* ``eq SPEC SPEC``       — elementary equivalence of two descriptions.
* ``iso SPEC SPEC``      — isomorphism of the standard forms.
* ``witness SPEC``       — construct the bi-embeddable non-isomorphic pair on
  the route the classifier names, certificates embedded: ``--precision``,
  ``--degree``, ``--height``, ``--window``, ``--threshold``, ``--seed``.
* ``oracle ulm|iso|purity ...`` — cross-checks against the brute-force finite
  oracle: ``--order-bound``.

Every subcommand takes ``--format json|text`` and ``--out FILE``; a flag given
to a command that does not read it is an argument error.  Every run is
deterministic for a fixed argv: seeds default to 0 and all searches are
exhaustive or seeded.  JSON output carries a top-level ``schema`` tag.

One table, ``COMMANDS``, holds each command's handler, positionals and flags;
parsing, usage lines and ``-h``/``--help`` read only it.  The syntax and the
error messages are argparse's (Python 3.11): options before or after the
positionals, ``--flag=value``, unique prefixes of a flag, negative numbers as
values, ``--`` to end the options, the last of a repeated flag, and help
anywhere, which exits 0.  Usage lines are wrapped as argparse wraps them at
80 columns, whatever the terminal's width.  Reports are rendered byte for
byte as ``json.dumps(..., sort_keys=True)`` would, so no run imports argparse
(nor the gettext and locale it loads) or json.

Exit codes: 0 success, 2 argument/grammar errors (numeric flags below their
lower bounds or above ``MAX_WINDOW``, ``MAX_PRECISION`` and ``MAX_ORDER_BOUND``,
moduli and primes from ``primes.EXACT_BOUND`` on, and an ``--out`` file that
cannot be written among them),
3 precondition or route errors (e.g. asking for a witness of a theory that has
none), 4 exhausted search budgets.
"""

from __future__ import annotations

import math
import sys
from types import SimpleNamespace
from typing import Callable

from .classify import (
    StabilityClass,
    WitnessRoute,
    basic_predicates,
    connected_component_index,
    divisible_plus_bounded,
    has_sb,
    stability_class,
    unipotence_report,
)
from .groupspec import BudgetExceeded, NotApplicableError, Record, parse_spec
from .invariants import (
    elementarily_equivalent,
    isomorphic_standard,
    szmielew_invariants,
    ulm_invariant,
)
from .primes import factorize

__all__ = ["COMMANDS", "main", "run_cli"]

SCHEMA = "sb-abelian/1"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4
MAX_WINDOW = 1000  # socle window primes; a scan's time grows with the width
MAX_PRECISION = 10_000  # p-adic digits; a certificate's time grows with them
MAX_ORDER_BOUND = 2**20  # realized group order; the oracle checks' work grows with it
PURITY_ORDER_BOUND = 512  # purity tests each cyclic subgroup at each divisor of the exponent

# lower bounds of the numeric flags, checked after parsing like the window cap
_LOWER_BOUNDS = (("precision", 1), ("degree", 0), ("height", 1), ("window", 1),
                 ("threshold", 1), ("order_bound", 1), ("seed", 0))


def _bound_error(args: SimpleNamespace) -> str | None:
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


def _classify(args: SimpleNamespace) -> dict:
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


def _invariants(args: SimpleNamespace) -> dict:
    spec = parse_spec(args.spec)
    preds = basic_predicates(spec)
    return {
        "spec": str(spec),
        "szmielew": szmielew_invariants(spec).to_json(),
        "divisible": preds.divisible,
        "reduced": preds.reduced,
        "exponent": preds.exponent,
    }


def _eq(args: SimpleNamespace) -> dict:
    left, right = parse_spec(args.left), parse_spec(args.right)
    return {
        "left": str(left),
        "right": str(right),
        "equivalent": elementarily_equivalent(left, right),
    }


def _iso(args: SimpleNamespace) -> dict:
    left, right = parse_spec(args.left), parse_spec(args.right)
    return {
        "left": str(left),
        "right": str(right),
        "isomorphic": isomorphic_standard(left, right),
    }


def _witness(args: SimpleNamespace) -> dict:
    spec = parse_spec(args.spec)
    verdict = has_sb(spec)
    if verdict.has_sb:
        raise NotApplicableError(
            "the theory has the Schroeder-Bernstein property (it is "
            "omega-stable); bi-embeddable models are isomorphic, so no "
            "witness pair exists"
        )
    if verdict.route is WitnessRoute.EXTERNAL_NON_SUPERSTABLE:
        raise NotApplicableError(verdict.reason)
    # imported here so that every other command starts without them; the
    # builder is looked up on its module at call time, so that a wrapper
    # installed on the module (a tracer, a test double) applies
    if verdict.route is WitnessRoute.PADIC_WITNESS:
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
    return {"spec": str(spec), "route": verdict.route.value, "witness": built}


def _oracle_ulm(args: SimpleNamespace) -> dict:
    from .finite_oracle import realize, ulm_bruteforce

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


def _oracle_iso(args: SimpleNamespace) -> dict:
    from .finite_oracle import iso_finite_bruteforce, realize

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


def _oracle_purity(args: SimpleNamespace) -> dict:
    from .finite_oracle import (
        OrderBoundError,
        is_pure_subgroup_bruteforce,
        realize,
        subgroup_closure,
    )

    spec = parse_spec(args.spec)
    try:
        group = realize(spec, order_bound=min(args.order_bound, PURITY_ORDER_BOUND))
    except OrderBoundError as big:
        if args.order_bound <= PURITY_ORDER_BOUND:
            raise
        raise OrderBoundError(f"{big}, oracle purity's own limit whatever --order-bound says") \
            from None
    pure, impure, samples = 0, 0, []
    known: set = set()  # generators of the cyclic subgroups checked so far
    for g in group.elements():
        if g in known:
            continue
        m = len(subgroup_closure(group, [g]))
        known.update(group.smul(k, g) for k in range(1, m) if math.gcd(k, m) == 1)
        ok = is_pure_subgroup_bruteforce(group, [g])
        pure, impure = pure + ok, impure + (not ok)
        if not ok and len(samples) < 3:
            samples.append({"generator": list(g), "order": m})
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
# the command table, and argparse's syntax and messages read off it


class Flag(Record):
    """An option with one value: ``kind`` is ``int``, ``str`` or the tuple of choices."""

    name: str
    kind: object
    default: object
    help: str
    metavar: str = ""  # the value's name in usage lines, if not the upper-cased ``dest``

    @property
    def dest(self) -> str:
        return self.name[2:].replace("-", "_")


class Command(Record):
    """A row of ``COMMANDS``; a group has no handler, and its positional picks a row."""

    handler: "Callable[[SimpleNamespace], dict] | None"
    summary: str
    positionals: tuple[str, ...]
    flags: tuple[Flag, ...] = ()


_RENDER = (Flag("--format", ("json", "text"), "json", "report format (default json)"),
           Flag("--out", str, None, "write the report to FILE instead of stdout", "FILE"))
_WITNESS = _RENDER + (
    Flag("--precision", int, 40, "digits kept for completion arithmetic (default 40)", "N"),
    Flag("--degree", int, 2, "max exponent per variable in relation searches (default 2)", "D"),
    Flag("--height", int, 2, "max |coefficient| in relation searches (default 2)", "B"),
    Flag("--window", int, 50, "number of window primes for socle witnesses (default 50)", "W"),
    Flag("--threshold", int, 5, "survival count demanded by avoidance checks (default 5)"),
    Flag("--seed", int, 0, "seed for all randomized draws (default 0)"),
)
_REALIZE = "largest finite group the oracle will realize (default 65536"
_ORACLE = _RENDER + (Flag("--order-bound", int, 2**16, _REALIZE + ")"),)
_PURITY = _RENDER + (Flag("--order-bound", int, 2**16,
                          f"{_REALIZE}; purity stops at {PURITY_ORDER_BOUND} whatever it says)"),)
COMMANDS = {
    (): Command(None, "Classify complete theories of abelian groups and build bi-embeddable "
                "non-isomorphic witness pairs.", ("command",)),
    ("classify",): Command(_classify, "stability class, property bundle, witness route",
                           ("spec",), _RENDER),
    ("invariants",): Command(_invariants, "the cardinal invariant table of a description",
                             ("spec",), _RENDER),
    ("eq",): Command(_eq, "elementary equivalence", ("left", "right"), _RENDER),
    ("iso",): Command(_iso, "isomorphism of standard forms", ("left", "right"), _RENDER),
    ("witness",): Command(_witness, "construct a bi-embeddable non-isomorphic pair", ("spec",),
                          _WITNESS),
    ("oracle",): Command(None, "cross-check symbolic answers against brute force", ("check",)),
    ("oracle", "ulm"): Command(_oracle_ulm, "layer sizes on a realized finite group", ("spec",),
                               _ORACLE),
    ("oracle", "iso"): Command(_oracle_iso, "equivalence vs. brute-force isomorphism on finite "
                               "groups", ("left", "right"), _ORACLE),
    ("oracle", "purity"): Command(_oracle_purity, "purity of all cyclic subgroups of a realized "
                                  "finite group", ("spec",), _PURITY),
}
_WIDTH = 78  # argparse's usage width on an 80-column terminal


class _Stop(Exception):
    """Parsing stops at a command key, with an error message, or None for help."""


def _subcommands(key: tuple[str, ...]) -> list[str]:
    return [k[-1] for k in COMMANDS if k and k[:-1] == key]


def _read_option(word: str, names: tuple[str, ...], key: tuple[str, ...]):
    """argparse's reading of a word before ``--``: None for a positional, else
    the option's full name (None if unknown) and its attached value or None."""
    head, eq, value = word.partition("=")
    if not word.startswith("-") or word == "-":
        return None
    if word in names:
        return word, None
    if eq and head in names:
        return head, value
    if word.startswith("--"):  # a unique prefix of a long option
        matches, value = [name for name in names if name.startswith(head)], value if eq else None
    else:  # a short option with its value attached
        matches, value = [name for name in names if name == word[:2]], word[2:]
    if len(matches) > 1:
        raise _Stop(key, f"ambiguous option: {word} could match {', '.join(matches)}")
    if matches:
        return matches[0], value
    # argparse's negative numbers, ^-\d+$|^-\d*\.\d+$ (whose $ passes a final
    # newline), and words with a space are positionals
    whole, dot, part = word[1:].removesuffix("\n").partition(".")
    number = part.isdecimal() and (not whole or whole.isdecimal()) if dot else whole.isdecimal()
    return None if number or " " in word else (None, None)


def _parse(words: list[str], key: tuple[str, ...], values: dict, extras: list[str]) -> tuple:
    """Read the arguments of ``key`` into ``values`` and the words no command
    takes into ``extras``, raising argparse's errors in its order; returns the
    key of the command to run."""
    command = COMMANDS[key]
    flags = {flag.name: flag for flag in command.flags}
    cut = words.index("--") if "--" in words else len(words)
    options = [_read_option(word, ("-h", "--help", *flags), key) for word in words[:cut]]
    positionals = list(command.positionals)
    i = filled = 0  # filled: the index just past the word that filled a positional last
    while i < len(words):
        word, option, i = words[i], options[i] if i < cut else None, i + 1
        if option is None and command.handler is None:  # a group: the word picks a row
            if i == len(words) == cut + 1:  # a final "--" is no word at all
                break
            if key + (word,) not in COMMANDS:
                choices = ", ".join(map(repr, _subcommands(key)))
                raise _Stop(key, f"argument {positionals[0]}: invalid choice: {word!r} "
                            f"(choose from {choices})")
            values[positionals[0]] = word
            return _parse(words[i:], key + (word,), values, extras)
        if option is None:
            if i - 1 == cut:  # the first "--" ends the options; argparse drops it
                if not positionals and filled != cut:  # unless no positional's match takes it
                    extras.append(word)
            elif positionals:
                values[positionals.pop(0)], filled = word, i
            else:
                extras.append(word)
            continue
        name, value = option
        if name is None:
            extras.append(word)
            continue
        if name in ("-h", "--help"):
            raise _Stop(key, None if value is None else
                        f"argument -h/--help: ignored explicit argument {value!r}")
        if value is None:
            if i >= cut or options[i] is not None:
                raise _Stop(key, f"argument {name}: expected one argument")
            value, i = words[i], i + 1
        flag = flags[name]
        if isinstance(flag.kind, tuple) and value not in flag.kind:
            raise _Stop(key, f"argument {name}: invalid choice: {value!r} "
                        f"(choose from {', '.join(map(repr, flag.kind))})")
        try:
            values[flag.dest] = value if isinstance(flag.kind, tuple) else flag.kind(value)
        except ValueError:
            raise _Stop(key, f"argument {name}: invalid {flag.kind.__name__} value: "
                        f"{value!r}") from None
    if positionals:
        raise _Stop(key, f"the following arguments are required: {', '.join(positionals)}")
    return key


def _parse_args(argv: list[str]) -> tuple[Command, SimpleNamespace]:
    values: dict = {}
    extras: list[str] = []
    command = COMMANDS[_parse(argv, (), values, extras)]
    if extras:  # argparse names these from the top, after the command's own checks
        raise _Stop((), f"unrecognized arguments: {' '.join(extras)}")
    return command, SimpleNamespace(**{flag.dest: flag.default for flag in command.flags}
                                    | values)


def _fill(line: str, words, indent: str) -> list[str]:
    """``line`` continued by ``words``, wrapped greedily at ``_WIDTH`` columns."""
    lines = []
    for word in words:
        if len(line) + 1 + len(word) > _WIDTH:
            lines, line = lines + [line], indent + word
        else:
            line += " " + word
    return lines + [line]


def _usage(key: tuple[str, ...]) -> str:
    """The usage line of ``key``, wrapped as argparse wraps it at 80 columns: the
    options follow the program, and the positionals start a line of their own."""
    command, prog = COMMANDS[key], " ".join(("sb-abelian",) + key)
    options = ["[-h]"] + [f"[{_invocation(flag)}]" for flag in command.flags]
    positionals = (["{" + ",".join(_subcommands(key)) + "}", "..."] if command.handler is None
                   else list(command.positionals))
    line = " ".join(["usage:", prog, *options, *positionals])
    if len(line) <= _WIDTH:
        return line
    indent = " " * len(f"usage: {prog} ")
    lines = _fill(f"usage: {prog}", options, indent)
    return "\n".join(lines + _fill(indent + positionals[0], positionals[1:], indent))


def _invocation(flag: Flag) -> str:
    shown = "{" + ",".join(flag.kind) + "}" if isinstance(flag.kind, tuple) else flag.metavar
    return f"{flag.name} {shown or flag.dest.upper()}"


def _help(key: tuple[str, ...]) -> str:
    command = COMMANDS[key]
    if command.handler is None:
        heading = "commands:"
        rows = [(word, COMMANDS[key + (word,)].summary) for word in _subcommands(key)]
    else:
        heading = "options:"
        rows = [("-h, --help", "show this help message and exit")]
        rows += [(_invocation(flag), flag.help) for flag in command.flags]
    width = 4 + max(len(left) for left, _ in rows)
    first, *rest = command.summary.split()
    lines = [_usage(key), "", *_fill(first, rest, ""), "", heading]
    for left, text in rows:
        lines += _fill(f"  {left}".ljust(width - 1), text.split(), " " * width)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# rendering and entry points

_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t", "\b": "\\b",
            "\f": "\\f"}


def _escape(char: str) -> str:
    if char in _ESCAPES or " " <= char <= "~":
        return _ESCAPES.get(char, char)
    units = char.encode("utf-16-be", "surrogatepass").hex()  # one or two UTF-16 units
    return "".join(f"\\u{units[i:i + 4]}" for i in range(0, len(units), 4))


def _quote(text: str) -> str:
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    return '"' + "".join(map(_escape, text)) + '"'


def _json(value, indent: str | None = None, level: str = "") -> str:
    """``json.dumps(value, sort_keys=True)``, or with ``indent=len(indent)``,
    byte for byte, for dicts with str keys, lists, tuples, str, int, bool and
    None; an int past the 4300-digit limit raises ValueError as there."""
    if isinstance(value, str):
        return _quote(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if not isinstance(value, (dict, list, tuple)):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    inner = level + (indent or "")
    if isinstance(value, dict):
        items, ends = [f"{_quote(k)}: {_json(value[k], indent, inner)}" for k in sorted(value)], "{}"
    else:
        items, ends = [_json(v, indent, inner) for v in value], "[]"
    if not items or indent is None:
        return ends[0] + ", ".join(items) + ends[1]
    return f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{level}{ends[1]}"


def _render_text(payload: dict, prefix: str = "") -> list[str]:
    lines = []
    for key in sorted(payload):
        value = payload[key]
        shown = f"{prefix}{key}"
        if isinstance(value, dict):
            lines.extend(_render_text(value, shown + "."))
        elif isinstance(value, (list, tuple)):
            lines.append(f"{shown} = {_json(value)}")
        else:
            lines.append(f"{shown} = {value}")
    return lines


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return _json(payload, "  ") + "\n"
    return "\n".join(_render_text(payload)) + "\n"


def run_cli(argv: list[str] | None = None) -> int:
    try:
        command, args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except _Stop as stop:
        key, message = stop.args
        if message is None:
            sys.stdout.write(_help(key))
            return EXIT_OK
        sys.stderr.write(f"{_usage(key)}\n{' '.join(('sb-abelian',) + key)}: error: {message}\n")
        return EXIT_USAGE
    refused = _bound_error(args)
    if refused:
        print(f"sb-abelian: {refused}", file=sys.stderr)
        return EXIT_USAGE
    try:
        body = command.handler(args)
        # rendering can fail too: an integer past Python's 4300-digit
        # int-to-str limit raises ValueError, which exits 2 like bad input
        rendered = _render({"schema": SCHEMA, "command": args.command, **body}, args.format)
    except NotApplicableError as bad:
        print(f"sb-abelian: {bad}", file=sys.stderr)
        return EXIT_PRECONDITION
    except BudgetExceeded as bad:
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
