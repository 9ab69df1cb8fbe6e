"""The ``Record`` base keeps the semantics of the frozen dataclasses it replaced."""

import copy
import itertools
import operator
import pickle
from fractions import Fraction

import pytest

from sb_abelian.groupspec import (
    Cardinal,
    Cyclic,
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
    ReductionOutcome,
    SocleWitnessPair,
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
    assert repr(PrimeSet.explicit({3})) == "PrimeSet(complement=False, primes=frozenset({3}))"
    # a class's own __repr__ wins over the base's
    assert repr(Cardinal.of(2)) == "Cardinal.of(2)"
    assert repr(GroupSpec(())) == "GroupSpec(entries=())"


@pytest.mark.parametrize("cls, width", [(GridMonomial, 3), (AtLeast, 1)])
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
        Cyclic(2, 1) < Cyclic(3, 1)  # only order=True records are ordered


def test_identity_records_compare_by_identity():
    a, b = SocleWitnessPair(None, None, None), SocleWitnessPair(None, None, None)
    assert a == a and a != b and len({a, b}) == 2
    assert hash(a) == object.__hash__(a)
    r = ReductionOutcome(*[None] * 7)
    assert r == r and r != ReductionOutcome(*[None] * 7)


def test_hidden_field_is_left_out_of_equality_hash_and_repr():
    w1, w2 = SocleWitnessPair(None, None, None), SocleWitnessPair(None, None, None)
    tail = (((0, 1), Fraction(1, 2)),)
    x, y = ProductElement(w1, tail), ProductElement(w2, tail)
    assert x == y and hash(x) == hash(y)
    assert x.witness is w1 and y.witness is w2
    assert repr(x) == "ProductElement(tail=(((0, 1), Fraction(1, 2)),), exceptions=())"
    assert x != ProductElement(w1, tail, ((3, (1,)),))


def test_defaults_fill_trailing_fields():
    w = SocleWitnessPair(None, None, None)
    assert ProductElement(w) == ProductElement(w, (), ())
    assert ProductElement(w, exceptions=((3, (1,)),)).tail == ()
    window = PrimeWindow(PrimeSet.explicit({3, 5}), (3, 5))
    assert (window.generic_rank, window.overrides) == (1, ())
    assert PrimeWindow(PrimeSet.explicit({3, 5}), (3, 5), overrides=((3, 2),)).rank(3) == 2
    with pytest.raises(TypeError):
        PrimeWindow(PrimeSet.explicit({3}))


def test_post_init_validation_still_runs():
    with pytest.raises(ValueError, match="not a prime"):
        Cyclic(4, 1)
    with pytest.raises(ValueError, match="exponent must be >= 1"):
        Cyclic(p=2, k=0)
    with pytest.raises(ValueError):
        Cardinal("finite", -1)
    with pytest.raises(ValueError):
        GridMonomial(0, 0, 0)
    with pytest.raises(ValueError, match="empty window"):
        PrimeWindow(PrimeSet.explicit({3}), ())


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
