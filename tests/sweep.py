"""Run ``witness`` on every small normal form that is superstable without SB,
and tally how each run ended.

The population is ``_gen.small_spec_texts(primes, max_k, terms)``: every normal
form of at most ``terms`` summands built from its atoms over ``primes`` with
exponents up to ``max_k``, by default two summands over the primes 2 and 3 with
k <= 2 (3,410 specs).  Each spec that ``classify`` places between superstable
and omega-stable gets one ``witness`` run with the default flags, in-process
through ``run_cli``.  The script prints one line per exit code and stderr
message with its count, then the totals and the wall time, then the witness
digest: the sha256 over the runs' rows as ``_gen.cli_row`` encodes them, the
value ``_gen.cli_digest`` gives over the same argvs.  It is a report, not a
gate.

    python tests/sweep.py
    python tests/sweep.py --primes 2,3,5 --max-k 3 --terms 2

It imports only the standard library, the package and ``_gen``.  All its work
runs under the ``__main__`` check, because the test run imports every module in
``tests/``.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from _gen import cli_row, run_argv, small_spec_texts
    from sb_abelian import parse_spec
    from sb_abelian.classify import StabilityClass, stability_class

    parser = argparse.ArgumentParser(description="witness on every small spec without SB")
    parser.add_argument("--primes", default="2,3", help="comma-separated (default 2,3)")
    parser.add_argument("--max-k", type=int, default=2, help="largest exponent (default 2)")
    parser.add_argument("--terms", type=int, default=2, help="most summands (default 2)")
    args = parser.parse_args()
    population = small_spec_texts(tuple(map(int, args.primes.split(","))), args.max_k, args.terms)
    middle = [text for text in population
              if stability_class(parse_spec(text)) is StabilityClass.SUPERSTABLE_NOT_OMEGA_STABLE]
    tally: Counter[tuple[int, str]] = Counter()
    digest = hashlib.sha256()
    slowest = (0.0, "")
    start = time.perf_counter()
    for text in middle:
        argv = ["witness", text]
        began = time.perf_counter()
        code, out, err = run_argv(argv)
        slowest = max(slowest, (time.perf_counter() - began, text))
        digest.update(cli_row(argv, (code, out, err)))
        tally[code, err.strip()] += 1
    for (code, message), count in sorted(tally.items()):
        print(f"{count:5d}  exit {code}  {message}")
    print(f"{len(middle)} specs in {time.perf_counter() - start:.1f} s; "
          f"slowest {slowest[0]:.2f} s: witness {slowest[1]!r}")
    print(f"witness digest {digest.hexdigest()}")
