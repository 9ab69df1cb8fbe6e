"""Pinned CLI outputs over the small population.

Each digest is the sha256 over a list of argvs with the exit code, stdout and
stderr of each, run in-process: ``classify`` and ``invariants`` on every one
of the 3,410 small spec texts, and ``witness`` with the default flags on every
eighth of the 1,453 that are superstable but not omega-stable (182 runs, 99 on
the completion route and 83 on the socle route).  ``eq`` runs on 2,718 pairs
of the small texts: the first text of each Szmielew-key class against each
other text of that class (718 pairs), then 2,000 seeded random pairs, of
which 2 are equivalent.  The digests were recorded before the refactor that
followed them; a change that keeps behaviour must reproduce them, and one that
moves them on purpose maps each moved row in ``CHANGES.md``.  The runs are
computed in ``_gen``, which ``tests/matrix.py`` also runs under each
interpreter.
"""

from _gen import classify_digest, eq_digest, invariants_digest, witness_digest

CLASSIFY_DIGEST = "c9b4757ba9a08fa15622069cb7e8508806b206a77949ed86d95e4ba6a1d8d923"
INVARIANTS_DIGEST = "f97f7ab14a8cca192c99298074ba2212b6f590cf05dca4000bb8e32e989b7cf2"
WITNESS_DIGEST = "65d3a73fb1bb35d2143138bcc3e68cdff966907dda9a9eae8887437a11763c66"
EQ_DIGEST = "ff4af07fadf57e3c6fce6d9afe1d7b87b8acc711ccc0da3c4a6425d672d1b182"


def test_classify_outputs_are_pinned():
    digest = classify_digest()
    assert digest == CLASSIFY_DIGEST, digest


def test_invariants_outputs_are_pinned():
    digest = invariants_digest()
    assert digest == INVARIANTS_DIGEST, digest


def test_witness_outputs_are_pinned():
    digest = witness_digest()
    assert digest == WITNESS_DIGEST, digest


def test_eq_outputs_are_pinned():
    digest = eq_digest()
    assert digest == EQ_DIGEST, digest
