"""The seven value classes: repr, equality and hashing, immutability,
keyword construction, and copies and pickles."""
import copy
import pickle
from fractions import Fraction as F

import pytest

from precubical.complexes import SimplexId
from precubical.core import CubeId, PcsMorphism, Violation, standard_cube
from precubical.dipath import PLNaturalPath, sample, sup_distance
from precubical.homology import GradedAbelianGroup
from precubical.subdivision import Subdivision

K1 = standard_cube(1)
SQUARE = CubeId("**", 2)

# class, its fields, positional arguments, the repr they give (unchanged
# since these classes were dataclasses), and whether the class is frozen and
# compares by value (PcsMorphism is frozen but compares by identity;
# Subdivision is mutable and compares by identity)
ROWS = [
    (CubeId, ("name", "dim"), ("a", 1), "CubeId(name='a', dim=1)", True, True),
    (Violation, ("kind", "cube", "where"), ("missing-face", "c", (1, 0)),
     "Violation(kind='missing-face', cube='c', where=(1, 0))", True, True),
    (SimplexId, ("name", "dim"), ("s", 2), "SimplexId(name='s', dim=2)", True, True),
    (GradedAbelianGroup, ("groups",), ([(1, ()), (0, (2, 4))],),
     "GradedAbelianGroup(groups=((1, ()), (0, (2, 4))))", True, True),
    (PcsMorphism, ("source", "target", "mapping"), (K1, K1, {"0": "0", "1": "1", "x": "x"}),
     "PcsMorphism(source=PrecubicalSet(3 cubes, dim 1), target=PrecubicalSet(3 cubes, dim 1))",
     True, False),
    (PLNaturalPath, ("carrier", "times", "values"),
     (SQUARE, (0, F(1, 2)), ((0, 0), (F(1, 4), F(1, 4)))),
     "PLNaturalPath(carrier=CubeId(name='**', dim=2), times=(Fraction(0, 1), Fraction(1, 2)), "
     "values=((Fraction(0, 1), Fraction(0, 1)), (Fraction(1, 4), Fraction(1, 4))))", True, True),
    (Subdivision, ("order", "complex", "pairs"),
     (1, K1, {"0": ("0", ()), "1": ("1", ()), "x": ("x", (1,))}),
     "Subdivision(order 1, 3 cells)", False, False),
]
IDS = [row[0].__name__ for row in ROWS]


def fields_of(value, fields):
    return [getattr(value, f) for f in fields]


@pytest.mark.parametrize("cls, fields, args, shown, frozen, by_value", ROWS, ids=IDS)
def test_repr_and_keyword_construction(cls, fields, args, shown, frozen, by_value):
    value = cls(*args)
    assert repr(value) == shown
    keyword = cls(**dict(zip(fields, args)))
    assert repr(keyword) == shown and fields_of(keyword, fields) == fields_of(value, fields)


@pytest.mark.parametrize("cls, fields, args, shown, frozen, by_value", ROWS, ids=IDS)
def test_equality_and_hash(cls, fields, args, shown, frozen, by_value):
    a, b = cls(*args), cls(*args)
    assert a == a and hash(a) == hash(a)
    if by_value:
        assert a == b and hash(a) == hash(b) and not a != b
    else:
        assert a != b and fields_of(a, fields) == fields_of(b, fields)
    assert a != args and a != object()


def test_equal_fields_of_another_class_are_unequal():
    assert CubeId("a", 1) != SimplexId("a", 1)
    assert SimplexId("a", 1) != CubeId("a", 1)
    assert CubeId("a", 1) != ("a", 1) and ("a", 1) != CubeId("a", 1)
    assert len({CubeId("a", 1), SimplexId("a", 1), ("a", 1)}) == 3


@pytest.mark.parametrize("cls, fields, args, shown, frozen, by_value", ROWS, ids=IDS)
def test_frozen_classes_refuse_assignment(cls, fields, args, shown, frozen, by_value):
    value = cls(*args)
    for f in fields:
        if frozen:
            with pytest.raises(AttributeError):
                setattr(value, f, getattr(value, f))
            with pytest.raises(AttributeError):
                delattr(value, f)
        else:
            setattr(value, f, getattr(value, f))
    assert fields_of(value, fields) == fields_of(cls(*args), fields)


@pytest.mark.parametrize("cls, fields, args, shown, frozen, by_value", ROWS, ids=IDS)
def test_pickle_and_copies_keep_the_fields(cls, fields, args, shown, frozen, by_value):
    value = cls(*args)
    for dup in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(dup) is cls and repr(dup) == shown
        assert fields_of(dup, fields) == fields_of(value, fields)
        if by_value:
            assert dup == value and hash(dup) == hash(value)


def test_copied_paths_keep_their_points():
    path = sample(3, F(1, 2), 5, 4)
    for dup in (pickle.loads(pickle.dumps(path)), copy.copy(path), copy.deepcopy(path)):
        assert dup == path and dup._points == path._points
        assert sup_distance(dup, path) == 0 and sup_distance(path, dup) == 0
