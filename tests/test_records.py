"""The ``Record`` base keeps the semantics of the frozen dataclasses it replaced."""

import copy
import itertools
import operator
import pickle

import pytest

from sb_abelian.groupspec import (
    ALL_PRIMES,
    Cardinal,
    Cyclic,
    CyclicPrimeFamily,
    GroupSpec,
    PAdicComplete,
    PrimeSet,
    Prufer,
    Rationals,
    Record,
    parse_spec,
)
from sb_abelian.padic import AtLeast
from sb_abelian.witness_padic import GridMonomial
from sb_abelian.witness_socle import (
    PrimeWindow,
    ProductElement,
    build_socle_witness,
    product_membership,
    reduce_unbounded_torsion,
)


def test_different_classes_with_equal_fields_differ():
    assert Prufer(2) != PAdicComplete(2)
    assert len({Prufer(2), PAdicComplete(2)}) == 2
    assert Cyclic(2, 3) != (2, 3) and Rationals() != ()


def test_positional_and_keyword_construction_agree():
    assert Cyclic(2, 3) == Cyclic(p=2, k=3) == Cyclic(2, k=3) == Cyclic(k=3, p=2)
    assert hash(Cyclic(2, 3)) == hash(Cyclic(p=2, k=3)) == hash((2, 3))
    assert Rationals() == Rationals() and hash(Rationals()) == hash(())
    assert Cyclic(2, 3) != Cyclic(3, 2)


@pytest.mark.parametrize("args, kwargs", [
    ((2,), {}), ((2, 3, 4), {}), ((2,), {"p": 2}), ((2, 3), {"q": 1}), ((), {"p": 2}),
])
def test_wrong_arguments_raise_type_error(args, kwargs):
    with pytest.raises(TypeError, match="Cyclic takes the fields p, k"):
        Cyclic(*args, **kwargs)


def test_assignment_and_deletion_raise():
    c = Cyclic(2, 3)
    with pytest.raises(AttributeError):
        c.p = 5
    with pytest.raises(AttributeError):
        del c.k
    with pytest.raises(AttributeError):
        c.extra = 1
    assert (c.p, c.k) == (2, 3)


def test_repr_names_the_fields():
    assert repr(Cyclic(2, 3)) == "Cyclic(p=2, k=3)"
    assert repr(Rationals()) == "Rationals()"
    assert repr(PrimeSet.cofinite({3})) == "PrimeSet(excluded=frozenset({3}))"
    # a class's own __repr__ wins over the base's
    assert repr(Cardinal.of(2)) == "Cardinal.of(2)"
    assert repr(GroupSpec(())) == "GroupSpec(entries=())"


@pytest.mark.parametrize("cls, width", [(GridMonomial, 3)])
def test_ordered_records_order_like_field_tuples(cls, width):
    values = [tup for tup in itertools.product((0, 1, 2), repeat=width)
              if cls is not GridMonomial or tup[2] >= 1]
    for a, b in itertools.product(values, repeat=2):
        for op in (operator.lt, operator.le, operator.gt, operator.ge, operator.eq):
            assert op(cls(*a), cls(*b)) == op(a, b), (op, a, b)
    assert sorted(cls(*t) for t in reversed(values)) == [cls(*t) for t in sorted(values)]


def test_order_refuses_other_classes():
    with pytest.raises(TypeError):
        AtLeast(1) < 2
    with pytest.raises(TypeError):
        GridMonomial(0, 0, 1) <= AtLeast(1)
    with pytest.raises(TypeError):
        Cyclic(2, 1) < Cyclic(3, 1)  # records are not ordered


def test_record_takes_no_class_keywords():
    with pytest.raises(TypeError):
        class Loose(Record, eq=False):
            x: int
    with pytest.raises(TypeError):
        class Ordered(Record, order=True):
            x: int


def _socle_witness(seed=0):
    return build_socle_witness(PrimeWindow(PrimeSet.cofinite({2}), 10), seed=seed,
                               max_exponent=1, height_bound=1, threshold=2)


def test_witnesses_built_from_equal_inputs_are_equal():
    a, b = _socle_witness(), _socle_witness()
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a.window is a.scalars.window
    x, y = a.grid_point(1, 0), b.grid_point(0, 1)
    assert x + y == y + x == b.grid_point(0, 1) + a.grid_point(1, 0)
    assert (x + y).evaluate(3) == (sum(a.scalars.at(3)) % 3,)
    assert x == b.grid_point(1, 0) and hash(x) == hash(b.grid_point(1, 0))
    assert product_membership(y, "H1", a) and not product_membership(y, "H2", a)
    r = reduce_unbounded_torsion(parse_spec("sumP(all; Z/p^1)"), width=10, max_exponent=1,
                                 height_bound=1, threshold=2)
    r2 = reduce_unbounded_torsion(parse_spec("sumP(all; Z/p^1)"), width=10, max_exponent=1,
                                  height_bound=1, threshold=2)
    assert r == r2 and hash(r) == hash(r2) and len({r, r2}) == 1


def test_elements_of_two_witnesses_with_one_tail_stay_apart():
    # the witness is a field like any other: equal tails over different
    # scalars are different elements, and a set keeps both
    w1, w2 = _socle_witness(0), _socle_witness(5)
    x, y = w1.grid_point(0, 1), w2.grid_point(0, 1)
    assert (x.tail, x.exceptions) == (y.tail, y.exceptions)
    assert (x.evaluate(3), y.evaluate(3)) == ((2,), (1,))
    assert x != y and len({x, y}) == 2
    assert x == w1.grid_point(0, 1) and hash(x) == hash(w1.grid_point(0, 1))
    assert repr(x).startswith(
        "ProductElement(witness=SocleWitnessPair(scalars=AutomorphismPair(window=")
    with pytest.raises(ValueError, match="different witnesses"):
        x + y
    assert x != ProductElement(w1, x.tail, ((3, (1,)),))


def test_defaults_fill_trailing_fields():
    w = _socle_witness()
    assert ProductElement(w) == ProductElement(w, (), ())
    assert ProductElement(w, exceptions=((3, (1,)),)).tail == ()
    window = PrimeWindow(PrimeSet.cofinite({2}), 2)
    assert (window.generic_rank, window.overrides, window.primes) == (1, (), (3, 5))
    assert PrimeWindow(PrimeSet.cofinite({2}), 2, overrides=((3, 2),)).rank(3) == 2
    with pytest.raises(TypeError):
        PrimeWindow(PrimeSet.cofinite({2}))


def test_post_init_validation_still_runs():
    with pytest.raises(ValueError, match="not a prime"):
        Cyclic(4, 1)
    with pytest.raises(ValueError, match="exponent must be >= 1"):
        Cyclic(p=2, k=0)
    with pytest.raises(ValueError):
        Cardinal("finite", -1)
    # an exponent or a multiplicity is an int: 1.5 would print Z/2.828... and key U(2, 1.5)
    with pytest.raises(ValueError, match="exponent must be >= 1"):
        Cyclic(2, 1.5)
    with pytest.raises(ValueError, match="exponent must be >= 1"):
        CyclicPrimeFamily(ALL_PRIMES, 2.5)
    with pytest.raises(ValueError, match="bad cardinal"):
        Cardinal.of(1.5)
    with pytest.raises(ValueError, match="window width must be >= 1"):
        PrimeWindow(PrimeSet.cofinite(), 0)


def test_fields_are_the_own_annotations():
    assert Cyclic._fields == ("p", "k")
    assert Rationals._fields == ()
    assert ProductElement._fields == ("witness", "tail", "exceptions")

    class Pair(Record):
        left: int
        right: int = 0

    assert Pair(1) == Pair(1, 0) and Pair(1) != Pair(1, 1)
    # to_json writes the same fields: tuples as lists, records through their own to_json
    assert Pair(Cardinal.of(2), ((1, 2), 3)).to_json() == {
        "left": {"kind": "finite", "value": 2}, "right": [[1, 2], 3]}
    assert parse_spec("Z/8") == GroupSpec(((Cyclic(2, 3), Cardinal.of(1)),))


def test_pickle_and_copy_round_trip():
    spec = parse_spec("Z/4 + sumP(all\\{3}; Z/p^2)^w + Q + sumK(2; all)")
    for again in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
        assert again == spec and hash(again) == hash(spec) and str(again) == str(spec)
