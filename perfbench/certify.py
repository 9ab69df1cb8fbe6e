"""Socle-witness certification through the library API, one process per call.

It follows the path of acceptance criterion 6: build a socle witness over
the window of a socle spec, probe pseudo-division and membership on random
members, then run the proper-inclusion scans.  It prints one JSON report on
stdout.

    python perfbench/certify.py --spec "sumP(all; Z/p^1)" --seed 7 --threshold 3

The window width, relation bounds, probe count and shift range are the fixed
``CERTIFY_OPTS`` of ``workloads.py``.

Every library call goes through a module attribute (``ws.name``), so the
benchmark's traced run sees it.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from workloads import CERTIFY_OPTS

SRC = Path(__file__).resolve().parent.parent / "src"
SCHEMA = "perfbench-certify/1"


def certify(ws, spec, seed: int, threshold: int) -> dict:
    """Run the certification on a parsed socle spec; ``ws`` is witness_socle."""
    opts = CERTIFY_OPTS
    window = ws.window_from_socle(spec, opts["window"])
    w = ws.build_socle_witness(
        window, seed=seed, max_exponent=opts["degree"],
        height_bound=opts["height"], threshold=threshold,
    )
    rng = random.Random(f"certify:{seed}")
    composition_ok = membership_ok = True
    for _ in range(opts["probes"]):
        a, b = rng.randint(1, 20), rng.randint(1, 20)
        which = rng.choice(("H1", "H2"))
        x = ws.random_socle_member(w, rng, which)
        composition_ok &= ws.pseudo_divide(x, a * b) == ws.pseudo_divide(
            ws.pseudo_divide(x, b), a)
        membership_ok &= ws.product_membership(x, which, w)
    base = w.base_point()
    grids_ok = ws.product_membership(base, "H1", w) and not ws.product_membership(
        base.apply_scalar(2), "H2", w)
    inclusion = ws.proper_inclusion_check(w, max_shift=opts["max_shift"])
    return {
        "schema": SCHEMA,
        "window": list(window.primes),
        "certificate": w.certificate.to_json(),
        "probes": opts["probes"],
        "composition_ok": composition_ok,
        "membership_ok": membership_ok,
        "grids_ok": grids_ok,
        "inclusion": inclusion.to_json(),
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--threshold", type=int, required=True)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    opts = parse_args(argv)
    sys.path.insert(0, str(SRC))
    import sb_abelian
    from sb_abelian import witness_socle as ws

    if Path(sb_abelian.__file__).resolve().parent.parent != SRC:
        print(f"certify: imported {sb_abelian.__file__}, not the tree at {SRC}",
              file=sys.stderr)
        return 97
    report = certify(ws, sb_abelian.parse_spec(opts.spec), opts.seed, opts.threshold)
    sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
