"""The value classes' contract: repr, equality, hash, order, immutability, copies."""

from __future__ import annotations

import copy
import math
import pickle

import pytest

from phcalc import (
    Barcode,
    ChainSet,
    FiltrationViolation,
    Gf2Matrix,
    LemmaReport,
    LemmaViolation,
    PersistencePair,
    Simplex,
)
from phcalc.files import FiltrationDocument

# (value, its repr, the tuple of its fields)
VALUES = [
    (Simplex((2, 0, 1)), "Simplex(vertices=(0, 1, 2))", ((0, 1, 2),)),
    (PersistencePair(0, math.inf, 1),
     "PersistencePair(birth=0, death=inf, multiplicity=1)", (0, math.inf, 1)),
    (Barcode(1, (PersistencePair(0, 3, 2),)),
     "Barcode(dimension=1, pairs=(PersistencePair(birth=0, death=3, multiplicity=2),))",
     (1, (PersistencePair(0, 3, 2),))),
    (FiltrationViolation("not-nested", 2, Simplex((3,))),
     "FiltrationViolation(kind='not-nested', level=2, simplex=Simplex(vertices=(3,)))",
     ("not-nested", 2, Simplex((3,)))),
    (FiltrationDocument(((Simplex((0,)),),), "one"),
     "FiltrationDocument(levels=((Simplex(vertices=(0,)),),), name='one', incremental=False)",
     (((Simplex((0,)),),), "one", False)),
    (LemmaViolation("negative-count", 0, 2, 0, -1),
     "LemmaViolation(kind='negative-count', k=0, l=2, expected=0, actual=-1)",
     ("negative-count", 0, 2, 0, -1)),
    (LemmaReport(1, 5, 21, ()),
     "LemmaReport(dimension=1, last_level=5, pairs_checked=21, violations=())", (1, 5, 21, ())),
    (Gf2Matrix(2, 2, (1, 2)), "Gf2Matrix(2x2)", (2, 2, (1, 2))),
    (ChainSet(2, (0, 1)), "ChainSet(ambient_dim=2, members=(0, 1))", (2, (0, 1))),
]
IDS = [type(value).__name__ for value, _, _ in VALUES]
# the other mode of a document, as `parse_filtration(..., incremental=True)` gives it
VALUES.append((
    FiltrationDocument((((0, 1),), ((1, 2),)), None, True),
    "FiltrationDocument(levels=(((0, 1),), ((1, 2),)), name=None, incremental=True)",
    ((((0, 1),), ((1, 2),)), None, True),
))
IDS.append("FiltrationDocument-incremental")


@pytest.mark.parametrize("value, text, fields", VALUES, ids=IDS)
def test_repr_hash_and_equality(value, text, fields):
    assert repr(value) == text
    assert hash(value) == hash(fields)
    assert value == type(value)(*fields)
    assert value != fields
    other = Simplex((0,)) if not isinstance(value, Simplex) else PersistencePair(0, 1, 1)
    assert value.__eq__(other) is NotImplemented


@pytest.mark.parametrize("value, text, fields", VALUES, ids=IDS)
def test_keyword_construction(value, text, fields):
    names = type(value)._fields
    assert type(value)(**dict(zip(names, fields))) == value


@pytest.mark.parametrize("value, text, fields", VALUES, ids=IDS)
def test_assignment_and_deletion_raise(value, text, fields):
    name = type(value)._fields[0]
    with pytest.raises(AttributeError, match="cannot assign"):
        setattr(value, name, fields[0])
    with pytest.raises(AttributeError, match="cannot delete"):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("value, text, fields", VALUES, ids=IDS)
def test_copies_and_pickles_round_trip(value, text, fields):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value
        assert hash(twin) == hash(value)


def test_order_only_where_it_was_declared():
    pairs = [PersistencePair(1, 2, 1), PersistencePair(0, math.inf, 1), PersistencePair(0, 3, 1)]
    assert [str(p) for p in sorted(pairs)] == ["[0,3)", "[0,inf)", "[1,2)"]
    assert PersistencePair(0, 3, 1) <= PersistencePair(0, 3, 2) < PersistencePair(1, 2, 1)
    assert sorted([Simplex((1, 2)), Simplex((0, 3)), Simplex((0,))]) == [
        Simplex((0,)), Simplex((0, 3)), Simplex((1, 2))
    ]
    assert Simplex((2,)) > Simplex((1, 5)) >= Simplex((1, 5))
    with pytest.raises(TypeError):
        Barcode(0, ()) < Barcode(0, ())  # noqa: B015
    with pytest.raises(TypeError):
        PersistencePair(0, 1, 1) < Simplex((0,))  # noqa: B015


def test_defaults_and_missing_arguments():
    doc = FiltrationDocument(levels=((Simplex((0,)),),))
    assert doc.name is None and doc.incremental is False
    with pytest.raises(TypeError, match="multiplicity"):
        PersistencePair(1, 2)


def test_document_filtration_is_kept_but_not_compared():
    doc = FiltrationDocument(((Simplex((0,)),),))
    twin = FiltrationDocument(((Simplex((0,)),),))
    f = doc.to_filtration()
    assert doc.to_filtration() is f
    assert doc == twin and hash(doc) == hash(twin)
    assert copy.copy(doc).to_filtration() is not f


def test_post_init_is_a_class_attribute_the_constructor_calls(monkeypatch):
    calls = []
    original = Simplex.__post_init__

    def counted(self):
        calls.append(1)
        original(self)

    monkeypatch.setattr(Simplex, "__post_init__", counted)
    assert Simplex((1, 0)).vertices == (0, 1)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Simplex(()), "a simplex needs at least one vertex"),
        (lambda: Simplex((1, 1)), "duplicate vertices in (1, 1)"),
        (lambda: Simplex((3, 1, 3, 1)), "duplicate vertices in (1, 1, 3, 3)"),
        (lambda: Simplex((-1,)), "vertex -1 is not a non-negative integer"),
        (lambda: Simplex((True,)), "vertex True is not a non-negative integer"),
        (lambda: Simplex((1, "a")), "vertex 'a' is not a non-negative integer"),
        (lambda: PersistencePair(-1, 2, 1), "negative birth -1"),
        (lambda: PersistencePair(3, 3, 1), "birth 3 not before death 3"),
        (lambda: PersistencePair(0, 1, 0), "multiplicity 0 < 1"),
        (lambda: Gf2Matrix(-1, 2, ()), "negative dimensions: -1x2"),
        (lambda: Gf2Matrix(2, 2, (1,)), "expected 2 row bitsets, got 1"),
        (lambda: Gf2Matrix(1, 2, (4,)), "row bitset out of range for 2 columns"),
        (lambda: ChainSet(-1, (0,)), "negative ambient dimension -1"),
        (lambda: ChainSet(2, (1,)), "a subspace must contain the zero vector"),
        (lambda: ChainSet(2, (0, 1, 2)), "3 members is not a power of two"),
        (lambda: ChainSet(2, (0, 2, 1, 3)), "members must be strictly increasing"),
        (lambda: ChainSet(1, (0, 2)), "member wider than ambient dimension 1"),
    ],
)
def test_validation_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message
