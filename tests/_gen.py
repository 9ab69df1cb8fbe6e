"""Spec generators shared by property and acceptance tests: seeded random
specs, every finite abelian group up to an order, and every normal form of a
few summands built from small atoms (by default, two over the primes 2 and 3).
Also the readers that only tests need: subgroups of a finite group, a spec's
multiplicity of one summand, and the coefficients of witness elements; and
``run_argv``, the one in-process CLI runner of the test tools, and
``cli_row``, the one encoding of a run in a CLI digest.  Last, the
computations of the nine pinned digests (element arithmetic of both routes,
the elementary-matrix probe, the routes' multiplicities, the parser's outcomes
on fuzzed texts, and the ``classify``, ``invariants``, ``witness`` and ``eq``
outputs over the small population): their tests compare them with the pinned
constants, and ``tests/matrix.py`` runs them under each interpreter, so this
module imports only the standard library and the package."""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from fractions import Fraction
from types import SimpleNamespace
from typing import Iterator, Sequence

from sb_abelian import witness_padic, witness_socle
from sb_abelian.classify import StabilityClass, stability_class
from sb_abelian.cli import run_cli
from sb_abelian.groupspec import (
    Cardinal,
    Cyclic,
    CyclicExponentFamily,
    CyclicPrimeFamily,
    Entry,
    GroupSpec,
    PAdicComplete,
    PAdicPrimeFamily,
    PrimeSet,
    Prufer,
    Rationals,
    SpecSyntaxError,
    Summand,
    direct_sum,
    normalize,
    parse_spec,
    socle,
)
from sb_abelian.invariants import SzmielewInvariants, szmielew_invariants
from sb_abelian.primes import primes

_PRIMES = (2, 3, 5, 7, 11, 13)


def random_cardinal(rng: random.Random, allow_zero: bool = True) -> Cardinal:
    roll = rng.random()
    if roll < 0.55:
        return Cardinal.of(rng.randint(0 if allow_zero else 1, 4))
    if roll < 0.9:
        return Cardinal.aleph(0)
    return Cardinal.aleph(rng.randint(1, 2))


def random_prime_set(rng: random.Random,
                     primes: Sequence[int] = _PRIMES) -> PrimeSet | list[int]:
    """A cofinite set, or the distinct members of a finite one."""
    if rng.random() < 0.5:
        return PrimeSet.cofinite(rng.sample(primes, rng.randint(0, 2)))
    return rng.sample(primes, rng.randint(1, min(3, len(primes))))


def prime_family(ps: PrimeSet | list[int], family, single) -> list[Summand]:
    """``family(ps)`` over a cofinite set; one ``single(p)`` per member of a
    finite one, as the parser writes a finite family out."""
    return [family(ps)] if isinstance(ps, PrimeSet) else [single(p) for p in ps]


def random_entries(rng: random.Random, max_entries: int = 5,
                   primes: Sequence[int] = _PRIMES) -> list[Entry]:
    """Up to ``max_entries`` summands; every prime they name is in ``primes``."""
    entries: list[Entry] = []
    for _ in range(rng.randint(0, max_entries)):
        kind = rng.randrange(7)
        p = rng.choice(primes)
        if kind == 0:
            fams = [Cyclic(p, rng.randint(1, 4))]
        elif kind == 1:
            fams = [Prufer(p)]
        elif kind == 2:
            fams = [Rationals()]
        elif kind == 3:
            fams = [PAdicComplete(p)]
        elif kind == 4:
            ps, k = random_prime_set(rng, primes), rng.randint(1, 3)
            fams = prime_family(ps, lambda s: CyclicPrimeFamily(s, k), lambda q: Cyclic(q, k))
        elif kind == 5:
            fams = prime_family(random_prime_set(rng, primes), PAdicPrimeFamily, PAdicComplete)
        elif rng.random() < 0.5:
            fams = [CyclicExponentFamily(p)]
        else:  # a finite exponent set, written out
            fams = [Cyclic(p, k) for k in rng.sample(range(1, 6), rng.randint(1, 3))]
        mult = random_cardinal(rng)
        entries += [(fam, mult) for fam in fams]
    return entries


def random_spec(rng: random.Random, max_entries: int = 5,
                primes: Sequence[int] = _PRIMES) -> GroupSpec:
    return normalize(random_entries(rng, max_entries, primes))


def random_finite_spec(rng: random.Random, max_order: int = 512) -> GroupSpec:
    entries: list[Entry] = []
    order = 1
    for _ in range(rng.randint(0, 4)):
        p = rng.choice((2, 3, 5, 7))
        k = rng.randint(1, 3)
        mult = rng.randint(1, 3)
        if order * p ** (k * mult) > max_order:
            continue
        order *= p ** (k * mult)
        entries.append((Cyclic(p, k), Cardinal.of(mult)))
    return normalize(entries)


def partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n as weakly decreasing tuples (empty for n=0)."""
    if n == 0:
        yield ()
        return

    def rec(remaining: int, maximum: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield prefix
            return
        for part in range(min(remaining, maximum), 0, -1):
            yield from rec(remaining - part, part, prefix + (part,))

    yield from rec(n, n, ())


def finite_abelian_specs(
    max_order: int, prime: int | None = None
) -> Iterator[GroupSpec]:
    """All finite abelian groups of order <= max_order, as normalized specs.

    With ``prime`` given, only p-groups for that prime (including the trivial
    group).  Specs are produced in a deterministic order.
    """

    def p_group_specs(p: int, max_exp: int) -> Iterator[tuple[GroupSpec, int]]:
        for e in range(max_exp + 1):
            for lam in partitions(e):
                entries = [(Cyclic(p, k), Cardinal.of(lam.count(k))) for k in set(lam)]
                yield normalize(entries), p**e

    def max_exp_for(p: int) -> int:
        e = 0
        while p ** (e + 1) <= max_order:
            e += 1
        return e

    if prime is not None:
        for spec, _ in p_group_specs(prime, max_exp_for(prime)):
            yield spec
        return

    per_prime = [list(p_group_specs(p, max_exp_for(p))) for p in iter_primes_upto(max_order)]

    def combine(idx: int, acc_spec: GroupSpec, acc_order: int) -> Iterator[GroupSpec]:
        if idx == len(per_prime):
            yield acc_spec
            return
        for spec, order in per_prime[idx]:
            if acc_order * order <= max_order:
                yield from combine(idx + 1, direct_sum(acc_spec, spec), acc_order * order)

    yield from combine(0, normalize([]), 1)


def iter_primes_upto(bound: int) -> Iterator[int]:
    for p in primes():
        if p > bound:
            return
        yield p


def _listed_subsets(items: Sequence[int]) -> list[str]:
    """Each nonempty subset of ``items`` written as a listed set, ``{a,b}``:
    by size, then in order."""
    return ["{" + ",".join(map(str, subset)) + "}"
            for r in range(1, len(items) + 1) for subset in itertools.combinations(items, r)]


def small_atoms(primes: Sequence[int] = (2, 3), max_k: int = 2) -> list[str]:
    """The atoms over ``primes`` with exponents up to ``max_k``: cyclic, Prufer,
    Q and completion summands, and prime and exponent families over every
    finite, full and cofinite set drawn from them."""
    listed = _listed_subsets(primes)
    sets = [*listed, "all", *(f"all\\{s}" for s in listed)]
    exps = _listed_subsets(range(1, max_k + 1))
    return [
        *(f"Z/{p ** k}" for p in primes for k in range(1, max_k + 1)),
        *(f"Prufer({p})" for p in primes), "Q", *(f"Zhat({p})" for p in primes),
        *(f"sumP({s}; Z/p^{k})" for s in sets for k in range(1, max_k + 1)),
        *(f"sumP({s}; Zhat)" for s in sets),
        *(f"sumK({p}; {e})" for p in primes for e in ("all", *exps)),
    ]


def small_spec_texts(primes: Sequence[int] = (2, 3), max_k: int = 2, terms: int = 2) -> list[str]:
    """One spec text per normal form of one to ``terms`` distinct terms, each
    term an atom of ``small_atoms(primes, max_k)`` at multiplicity 1, 2 or w;
    the first text met for each normal form is kept, in a fixed order.  The
    defaults give 3,410 texts."""
    atoms = [atom + mult for atom in small_atoms(primes, max_k) for mult in ("", "^2", "^w")]
    kept: dict[GroupSpec, str] = {}
    for n in range(1, terms + 1):
        for combo in itertools.combinations(atoms, n):
            text = " + ".join(combo)
            kept.setdefault(parse_spec(text), text)
    return list(kept.values())


def run_argv(argv: Sequence[str]) -> tuple[int, str, str]:
    """Run one argv through ``run_cli`` in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(list(argv))
    return code, out.getvalue(), err.getvalue()


def scaled_set(group, c: int) -> frozenset:
    """The image c*G of a ``FiniteAbelianGroup``."""
    return frozenset(group.smul(c, g) for g in group.elements())


def torsion_set(group, c: int) -> frozenset:
    """The kernel of multiplication by c on a ``FiniteAbelianGroup``."""
    return frozenset(g for g in group.elements() if group.smul(c, g) == group.zero)


def multiplicity(spec: GroupSpec, family: Summand) -> Cardinal:
    """How often ``family`` occurs in the normal form ``spec``; 0 if it does not."""
    return next((mult for fam, mult in spec.entries if fam == family), Cardinal.of(0))


def grid_coefficient(x, m) -> Fraction:
    """The coefficient of the monomial m in p**t * x, for a ``GridElement`` x."""
    return dict(x.terms).get(m, Fraction(0)) * x.p**x.t


def product_coefficient(x, i: int, j: int) -> Fraction:
    """The tail coefficient of the monomial (i, j) in a ``ProductElement`` x."""
    return dict(x.tail).get((i, j), Fraction(0))


def product_support(x) -> tuple[tuple[int, int], ...]:
    """The monomials (i, j) of a ``ProductElement``'s tail, in order."""
    return tuple(m for m, _ in x.tail)


# ---------------------------------------------------------------------------
# pinned digests: each is the sha256 of seeded rows as sorted-key JSON


def _digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def _outcome(call):
    try:
        return call()
    except Exception as err:  # the error class is part of the pinned outcome
        return type(err).__name__


@contextlib.contextmanager
def patched(module, name: str, value):
    """``module.name`` set to ``value`` within the block, and put back after it."""
    original = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, original)


def _socle_state(w, x) -> dict:
    primes = sorted(set(w.window.primes[:20]) | {p for p, _ in x.exceptions})
    return {
        "tail": [[list(m), str(c)] for m, c in x.tail],
        "exceptions": [[p, list(vec)] for p, vec in x.exceptions],
        "values": [[p, list(x.evaluate(p))] for p in primes],
    }


def _socle_step(w, x, rng: random.Random):
    op = rng.choice(("add", "sub", "scale", "apply_scalar", "pseudo_divide"))
    if op == "add":
        return op, x + witness_socle.random_socle_member(w, rng, rng.choice(("H1", "H2")))
    if op == "sub":
        return op, x - witness_socle.random_socle_member(w, rng, rng.choice(("H1", "H2")))
    if op == "scale":
        n = rng.choice((-4, -3, -1, 0, 2, 3, 5, 7, 15))
        return f"scale {n}", x.scale(n)
    if op == "apply_scalar":
        which = rng.choice((1, 2))
        return f"apply_scalar {which}", x.apply_scalar(which)
    n = rng.choice((1, 2, 3, 5, 6, 7, 13, 35, 39))
    return f"pseudo_divide {n}", x.pseudo_divide(n)


def socle_element_digest() -> str:
    """Seeded operation sequences on socle product elements: each element's
    tail, exceptions and values at primes."""
    w = witness_socle.build_socle_witness(
        witness_socle.PrimeWindow(PrimeSet.cofinite({2}), 24, overrides=((5, 2), (13, 3))),
        seed=3, max_exponent=1, height_bound=1, threshold=2,
    )
    rows = []
    for seed in range(40):
        rng = random.Random(f"socle-elements:{seed}")
        x = witness_socle.random_socle_member(w, rng, rng.choice(("H1", "H2")))
        rows.append(["start", _socle_state(w, x)])
        for _ in range(8):
            op, x = _socle_step(w, x, rng)
            rows.append([op, _socle_state(w, x)])
    return _digest(rows)


def _padic_state(w, x) -> dict:
    return {
        "t": x.t,
        "str": str(x),
        "support": [str(m) for m in x.support],
        "coefficients": [str(grid_coefficient(x, m)) for m in x.support],
        "H1": _outcome(lambda: witness_padic.grid_membership(x, "H1", w)),
        "H2": _outcome(lambda: witness_padic.grid_membership(x, "H2", w)),
        "sums": [w.coordinate_sum(x, s) for s in range(1, w.k + 1)],
    }


def _padic_step(w, x, rng: random.Random):
    op = rng.choice(("add", "sub", "shift", "scale"))
    if op == "add":
        return op, x + witness_padic.random_member(w, rng, rng.choice(("H1", "H2")))
    if op == "sub":
        return op, x - witness_padic.random_member(w, rng, rng.choice(("H1", "H2")))
    if op == "shift":
        di, dj = rng.randint(0, 2), rng.randint(0, 2)
        return f"shift {di} {dj}", x.shift(di, dj)
    q = Fraction(rng.choice((-10, -3, 1, 2, 5, 7, 25)), rng.choice((1, 5, 10, 25, 3)))
    return f"scale {q}", x.scale(q)


def padic_element_digest() -> str:
    """Seeded operation sequences on p-adic grid elements: each element's
    denominator exponent, rendering, support, coefficients, memberships and
    coordinate sums."""
    w = witness_padic.build_padic_witness(5, 2)
    rows = []
    for seed in range(60):
        rng = random.Random(f"padic-elements:{seed}")
        x = witness_padic.random_member(w, rng, rng.choice(("H1", "H2")))
        rows.append(["start", _padic_state(w, x)])
        for _ in range(8):
            op, x = _padic_step(w, x, rng)
            rows.append([op, _padic_state(w, x)])
    return _digest(rows)


def probe_digest() -> str:
    """Elementary-matrix probes over a grid of primes, ranks, precisions and
    seeds; a ``ValueError`` if any probe misses the identity at some level."""
    probes = [
        witness_padic.elementary_matrix_probe(SimpleNamespace(p=p, k=k, precision=n), seed=s)
        for p in (2, 3, 5, 7, 101)
        for k in range(1, 5)
        for n in (1, 2, 3, 7, 40)
        for s in range(6)
    ]
    if not all(probe["identity_at_all_levels"] for probe in probes):
        raise ValueError("a probe missed the identity")
    return _digest(probes)


def _route_spec(rng: random.Random, kinds: str) -> GroupSpec:
    """Up to four summands drawn from ``kinds``: c(yclic), f(amily),
    s(ocle cyclic), S(ocle family), z (completion), Z (completion family)
    and d(ivisible)."""
    entries = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(kinds)
        p = rng.choice(_PRIMES)
        k = rng.randint(1, 3) if kind in "cf" else 1
        mult = Cardinal.of(rng.randint(1, 3)) if rng.random() < 0.8 else Cardinal.aleph(0)
        if kind in "cs":
            fams = [Cyclic(p, k)]
        elif kind in "fS":
            fams = prime_family(random_prime_set(rng, _PRIMES),
                                lambda s: CyclicPrimeFamily(s, k), lambda q: Cyclic(q, k))
        elif kind == "z":
            fams = [PAdicComplete(p)]
        elif kind == "Z":
            fams = prime_family(random_prime_set(rng, _PRIMES), PAdicPrimeFamily, PAdicComplete)
        else:
            fams, mult = [Rationals() if rng.random() < 0.5 else Prufer(p)], Cardinal.of(1)
        entries += [(fam, mult) for fam in fams]
    return normalize(entries)


def _modulus(spec: GroupSpec) -> list:
    """The moduli the socle reduction splits ``spec`` by, and the modulus it
    ends with, with the witness build stubbed out."""
    seen = []
    real_split = witness_socle.m_split

    def split(part, m):
        seen.append(m)
        return real_split(part, m)

    stub = SimpleNamespace(certificate=SimpleNamespace(attempt=0, min_count=0, threshold=0))
    with patched(witness_socle, "m_split", split), patched(
            witness_socle, "build_socle_witness", lambda *a, **kw: stub):
        ended = _outcome(lambda: witness_socle.reduce_unbounded_torsion(spec, width=6).modulus)
    return [seen, ended]


def _pairs(spec: GroupSpec):
    """The completion (p, k) pairs the p-adic route reads off ``spec``."""
    with patched(witness_padic, "multi_prime_witness", lambda pairs, **kw: list(pairs)):
        return _outcome(lambda: witness_padic.mixed_group_witness(spec).core)


def route_digest() -> str:
    """The socle windows, bounded-split moduli and completion pairs that the
    two routes read off seeded specs and their socles."""
    rows = []
    for seed in range(300):
        rng = random.Random(seed)
        specs = (random_spec(rng), _route_spec(rng, "cfd"), _route_spec(rng, "sSsS"),
                 _route_spec(rng, "zZzcd"))
        for spec in specs:
            rows.append({
                "spec": str(spec),
                "window": _outcome(lambda: witness_socle.window_from_socle(spec, 6).to_json()),
                "socle_window": _outcome(
                    lambda: witness_socle.window_from_socle(socle(spec), 6).to_json()),
                "modulus": _modulus(spec),
                "pairs": _pairs(spec),
            })
    return _digest(rows)


# spec texts as the fuzz draws them: numbers on both sides of each bound,
# whitespace between tokens and stray characters
_MODULI = ("0", "1", "2", "4", "6", "9", "12", "97", "360", "1" * 30)
_PRIMES_TEXT = ("0", "1", "2", "3", "4", "5", "7", "13", "97", "1" * 30)
_EXPONENTS = ("0", "1", "2", "3", "51", "52", "81", "82", "1" * 30)
_PADDING = ("", "", "", "", "", "", " ", "  ", "\t", "\n")
_EDITS = "Z/^()+{},;\\wQ0123456789 \taelphtusmPKx-"


def _number(rng: random.Random, pool: Sequence[str]) -> str:
    """A member of ``pool``, or now and then a digit string past the digit limit."""
    return "9" * 4301 if rng.random() < 0.002 else rng.choice(pool)


def _members(rng: random.Random, pool: Sequence[str]) -> list[str]:
    """The tokens of a listed set after its opening brace."""
    tokens = [_number(rng, pool)]
    for _ in range(rng.randrange(3)):
        tokens += [",", _number(rng, pool)]
    return tokens + ["}"]


def _term_tokens(rng: random.Random) -> list[str]:
    """One atom of a random grammar form, with a multiplicity or none."""
    form = rng.randrange(8)
    if form == 0:
        tokens = ["Z/", _number(rng, _MODULI)]
    elif form in (1, 2):
        tokens = [("Prufer(", "Zhat(")[form - 1], _number(rng, _PRIMES_TEXT), ")"]
    elif form == 3:
        tokens = ["Q"]
    elif form in (4, 5):
        primes = rng.choice((["all"], ["all", "\\{", *_members(rng, _PRIMES_TEXT)],
                             ["{", *_members(rng, _PRIMES_TEXT)]))
        tail = ["Z/p^", _number(rng, _EXPONENTS)] if form == 4 else ["Zhat"]
        tokens = ["sumP(", *primes, ";", *tail, ")"]
    else:
        exps = ["all"] if form == 6 else ["{", *_members(rng, _EXPONENTS)]
        tokens = ["sumK(", _number(rng, _PRIMES_TEXT), ";", *exps, ")"]
    mult = rng.choice(([], ["^", "2"], ["^", "w"], ["^", "aleph(", "1", ")"],
                       ["^", _number(rng, _MODULI)]))
    return tokens + mult


def fuzzed_spec_text(rng: random.Random) -> str:
    """The trivial group or one to three terms of random grammar forms, padded
    with random whitespace between tokens, then zero to three random
    character insertions, deletions or replacements."""
    tokens = ["0"] if rng.random() < 0.02 else _term_tokens(rng)
    for _ in range(rng.randrange(3)):
        tokens += ["+", *_term_tokens(rng)]
    text = "".join(rng.choice(_PADDING) + token for token in tokens) + rng.choice(_PADDING)
    for _ in range(rng.randrange(4)):
        at, edit = rng.randrange(len(text) + 1), rng.randrange(3)
        if edit == 0 or at == len(text):
            text = text[:at] + rng.choice(_EDITS) + text[at:]
        else:
            text = text[:at] + (rng.choice(_EDITS) if edit == 1 else "") + text[at + 1:]
    return text


def _parse_outcome(text: str) -> str | list:
    """The normal form ``parse_spec`` returns for ``text``, or the class,
    message and position of what it raises."""
    try:
        return str(parse_spec(text))
    except SpecSyntaxError as err:
        return [type(err).__name__, str(err), err.position]


def parse_digest() -> str:
    """20,000 seeded fuzzed texts, each with the parser's outcome on it."""
    rng = random.Random("parse")
    texts = [fuzzed_spec_text(rng) for _ in range(20_000)]
    return _digest([[text, _parse_outcome(text)] for text in texts])


def cli_row(argv: Sequence[str], outcome: tuple[int, str, str]) -> bytes:
    """One run's row in a CLI digest: the argv with its exit code, stdout and stderr."""
    return json.dumps([list(argv), *outcome]).encode()


def cli_digest(argvs) -> str:
    """The sha256 over the row of each argv's in-process run, in order."""
    digest = hashlib.sha256()
    for argv in argvs:
        digest.update(cli_row(argv, run_argv(argv)))
    return digest.hexdigest()


def classify_digest() -> str:
    """``classify`` on each of the 3,410 small spec texts."""
    return cli_digest(["classify", text] for text in small_spec_texts())


def invariants_digest() -> str:
    """``invariants`` on each of the 3,410 small spec texts."""
    return cli_digest(["invariants", text] for text in small_spec_texts())


def witness_digest() -> str:
    """``witness`` with the default flags on every eighth of the 1,453 small
    spec texts that are superstable but not omega-stable: 182 runs, on both
    routes."""
    middle = [text for text in small_spec_texts()
              if stability_class(parse_spec(text)) is StabilityClass.SUPERSTABLE_NOT_OMEGA_STABLE]
    return cli_digest(["witness", text] for text in middle[::8])


def eq_digest() -> str:
    """``eq`` on pairs of the 3,410 small spec texts: the first text of each
    Szmielew-key class against each other text of that class (718 pairs from
    327 classes), then 2,000 seeded random pairs, nearly all inequivalent."""
    texts = small_spec_texts()
    classes: dict[SzmielewInvariants, list[str]] = {}
    for text in texts:
        classes.setdefault(szmielew_invariants(parse_spec(text)), []).append(text)
    rng = random.Random("eq")
    pairs = [(first, other) for first, *rest in classes.values() for other in rest]
    pairs += [rng.sample(texts, 2) for _ in range(2_000)]
    return cli_digest(["eq", *pair] for pair in pairs)
