"""Hypothesis properties of the CLI contract.

* The spec parser either returns a spec or raises ``SpecSyntaxError`` whose
  position is the end of the input or a character of it that is not
  whitespace.
* The CLI's JSON renderer writes what ``json.dumps(..., sort_keys=True)``
  writes, indented and on one line, or raises the same ``ValueError`` on an
  int too long to print.
* ``run_cli`` on argvs whose flags are drawn per command, with values inside
  and outside each flag's bounds, returns a documented exit code (0, 2, 3 or
  4), never raises and finishes each call within ``CALL_SECONDS``.

Both run in-process and start no processes or threads.  The search bounds
stay small (window at most 40, degree and height at most 2), so a call that
passes the argument checks still runs a real search; the p-adic precision
is drawn up to its cap of 10000 digits, which must also end in time.
"""

from __future__ import annotations

import contextlib
import io
import json
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sb_abelian import cli
from sb_abelian.cli import run_cli
from sb_abelian.groupspec import GroupSpec, SpecSyntaxError, parse_spec

# fragments of the spec grammar, plus stray characters and oversized numbers
TOKENS = (
    "Z/", "Prufer(", "Q", "Zhat(", "Zhat", "sumP(", "sumK(", "Z/p^", "all", "all\\{",
    "{", "}", "(", ")", ",", ";", "^", "+", "w", "aleph(", "0", "1", "2", "3", "4",
    "12", "97", "1" * 30, "9" * 4400, " ", "x", "-", "\\",
)


@settings(max_examples=400, deadline=None)
@given(text=st.lists(st.sampled_from(TOKENS), max_size=12).map("".join))
def test_parse_spec_returns_a_spec_or_points_inside_the_input(text):
    try:
        spec = parse_spec(text)
    except SpecSyntaxError as bad:
        assert 0 <= bad.position <= len(text), (text, bad.position)
        assert bad.position == len(text) or not text[bad.position].isspace(), (text, bad.position)
    else:
        assert isinstance(spec, GroupSpec)


CALL_SECONDS = 2.0

SPECS = (
    "Q", "0", "Z/4 + Z/3", "Z/8 + Z/2", "Z/2^w", "Prufer(2)", "Zhat(5)", "Zhat(3)^2",
    "Zhat(5)^w", "Zhat(7) + Z/4^w + Q", "sumP(all; Z/p^1)", "sumP(all\\{2}; Z/p^1) + Z/3^w",
    "sumP(all; Zhat)", "sumK(2; all)", "Z/1048576", "Z/4 +", "",
)

# the values each flag is drawn from; "@OUT" and "@MISSING" stand for a
# writable file and one in a directory that does not exist
RENDER = {"--format": ("json", "text", "xml"), "--out": ("@OUT", "@MISSING")}
WITNESS = {
    "--precision": ("0", "1", "3", "40", "10000", "10001", "x"),
    "--degree": ("-1", "0", "1", "2"),
    "--height": ("0", "1", "2"),
    "--window": ("0", "1", "5", "40", "1001"),
    "--threshold": ("0", "1", "3", "41"),
    "--seed": ("-1", "0", "7", "1.5"),
}
ORACLE = {"--order-bound": ("0", "1", "64", "4096", str(2**20 + 1), "x")}
COMMANDS = {
    ("classify",): (1, RENDER),
    ("invariants",): (1, RENDER),
    ("eq",): (2, RENDER),
    ("iso",): (2, RENDER),
    ("witness",): (1, {**RENDER, **WITNESS}),
    ("oracle", "ulm"): (1, {**RENDER, **ORACLE}),
    ("oracle", "iso"): (2, {**RENDER, **ORACLE}),
    ("oracle", "purity"): (1, {**RENDER, **ORACLE}),
}


def test_generated_flags_are_the_parsers_flags():
    drawn = {(command, flag) for command, (_, flags) in COMMANDS.items() for flag in flags}
    table = {(key, flag.name) for key, row in cli.COMMANDS.items() for flag in row.flags}
    assert drawn == table
    assert len(drawn) == 25
    assert {key: len(row.positionals) for key, row in cli.COMMANDS.items() if row.handler} == {
        command: arity for command, (arity, _) in COMMANDS.items()}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    arity, flags = COMMANDS[command]
    argv = [*command, *(draw(st.sampled_from(SPECS)) for _ in range(arity))]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=4)):
        argv += [flag, draw(st.sampled_from(flags[flag]))]
    return argv


@pytest.fixture(scope="module")
def out_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-contract")
    return {"@OUT": str(root / "report.out"), "@MISSING": str(root / "missing" / "report.out")}


@settings(max_examples=150, deadline=None)
@given(argv=argvs())
@example(argv=["witness", "Zhat(7)^2 + Zhat(5)", "--precision", "10000"])
def test_run_cli_ends_in_a_documented_code_in_time(out_paths, argv):
    argv = [out_paths.get(arg, arg) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    elapsed = time.perf_counter() - start
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    assert elapsed < CALL_SECONDS, (argv, elapsed)
    assert (code == 0) == (err.getvalue() == ""), (argv, code, err.getvalue())


# JSON values as reports hold them: str keys; strings with quotes, backslashes,
# control characters, DEL, non-ASCII, lone surrogates and astral characters; ints
# past 2**64
TEXT = st.text(st.characters() | st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u00e9",
                                                  chr(0xD800), "\U0001f600"]))
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64) | TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(value=JSON)
@example(value={"a": [1, (2, "x")], "b": {}, "c": [], "d": {"e": None}})
def test_renderer_writes_what_json_dumps_writes(value):
    assert cli._json(value, "  ") == json.dumps(value, sort_keys=True, indent=2)
    assert cli._json(value) == json.dumps(value, sort_keys=True)


def test_renderer_refuses_an_int_past_the_digit_limit_as_json_does():
    huge = {"index": 10**5000}
    with pytest.raises(ValueError) as ours:
        cli._json(huge, "  ")
    with pytest.raises(ValueError) as theirs:
        json.dumps(huge, indent=2)
    assert str(ours.value) == str(theirs.value)
    # a value outside the rendered types is refused with json.dumps' words
    with pytest.raises(TypeError) as ours:
        cli._json({1})
    with pytest.raises(TypeError) as theirs:
        json.dumps({1})
    assert str(ours.value) == str(theirs.value)
