import copy
import pickle
from fractions import Fraction

import pytest

from stochastihedron.contingency import build_poset, count_cm
from stochastihedron.counting import MetaMatrix, metamatrix
from stochastihedron.errors import DomainError, StructuralError
from stochastihedron.frozen import Frozen
from stochastihedron.identities import DetReport, det_metamatrix
from stochastihedron.partitions import OrderedPartition
from stochastihedron.sheaf import PosetRepresentation
from stochastihedron.strata import (
    FnfLabel,
    MultiplicityPartition,
    PointConfiguration,
    compress,
)
from stochastihedron.topology import HomologyProfile

# each value class, built positionally and by keyword, with its fields in
# constructor order and its repr
CASES = [
    (OrderedPartition((1, 2)), OrderedPartition(parts=[1, True + 1]), ((1, 2),),
     "OrderedPartition((1, 2))"),
    (PointConfiguration(((1, 0), (0, 0))), PointConfiguration(points=[(0, 0), (1, 0)]),
     (((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))),),
     "PointConfiguration(points=((Fraction(0, 1), Fraction(0, 1)), "
     "(Fraction(1, 1), Fraction(0, 1))))"),
    (MultiplicityPartition((2, 1)), MultiplicityPartition(parts=(2, 1)), ((2, 1),),
     "MultiplicityPartition(parts=(2, 1))"),
    (FnfLabel((1, 2), ((1,), (1, 1))),
     FnfLabel(beta=OrderedPartition((1, 2)), gamma=[(1,), (1, 1)]),
     (OrderedPartition((1, 2)), (OrderedPartition((1,)), OrderedPartition((1, 1)))),
     "FnfLabel(beta=OrderedPartition((1, 2)), "
     "gamma=(OrderedPartition((1,)), OrderedPartition((1, 1))))"),
    (metamatrix(2), MetaMatrix(n=2, entries=[[1, 1], [1, 2]]), (2, ((1, 1), (1, 2))),
     "MetaMatrix(n=2, entries=((1, 1), (1, 2)))"),
    (det_metamatrix(2), DetReport(n=2, closed_form=Fraction(1), direct=1, integral=True,
                                  equal=True),
     (2, Fraction(1), 1, True, True),
     "DetReport(n=2, closed_form=Fraction(1, 1), direct=1, integral=True, equal=True)"),
    (HomologyProfile.sphere(1), HomologyProfile(betti=((1, 1),), torsion=()),
     (((1, 1),), ()), "HomologyProfile(betti=((1, 1),), torsion=())"),
]


@pytest.mark.parametrize("made, keyword, fields, text", CASES,
                         ids=[type(case[0]).__name__ for case in CASES])
def test_value_classes_keep_the_frozen_dataclass_contract(made, keyword, fields, text):
    cls = type(made)
    assert made == keyword and not made != keyword
    assert tuple(getattr(made, name) for name in cls.__slots__) == fields
    # the hash of the field tuple, as a frozen dataclass had it
    assert hash(made) == hash(keyword) == hash(fields)
    assert repr(made) == repr(keyword) == text
    assert made != fields and made != object()
    assert cls(*fields) == made
    for name in cls.__slots__ + ("other",):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(made, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(made, name)
    assert not hasattr(made, "__dict__")
    for clone in (pickle.loads(pickle.dumps(made)), copy.copy(made), copy.deepcopy(made)):
        assert type(clone) is cls and clone == made


def test_one_field_is_a_one_tuple():
    # attrgetter of a single name returns the bare value; the field tuple of
    # a one-slot class must still be a tuple
    class One(Frozen):
        __slots__ = ("x",)

        def __init__(self, x):
            object.__setattr__(self, "x", x)

    one = One((1, 2))
    assert One._fields(one) == ((1, 2),)
    assert one.__reduce__() == (One, ((1, 2),))
    assert hash(one) == hash(((1, 2),)) != hash((1, 2))
    assert repr(one) == "One(x=(1, 2))"
    assert one == One((1, 2)) and one != One((1, 3))
    for value in (OrderedPartition((2, 1)), MultiplicityPartition((2, 1))):
        assert value.__reduce__() == (type(value), ((2, 1),))


def test_equal_fields_of_two_classes_are_two_values():
    ordered, multiplicity = OrderedPartition((2, 1)), MultiplicityPartition((2, 1))
    assert hash(ordered) == hash(multiplicity)
    assert ordered != multiplicity and multiplicity != ordered
    assert not ordered == multiplicity
    assert len({ordered, multiplicity}) == 2


# each constructor that takes integers, as a function of one entry, which
# 1 fills validly; and the error it raises for a non-integer entry
INTEGER_INPUTS = {
    "OrderedPartition": (lambda x: OrderedPartition((x, 1)), DomainError),
    "MultiplicityPartition": (lambda x: MultiplicityPartition((x,)), DomainError),
    "compress": (lambda x: compress((0, x, 2)), DomainError),
    "MetaMatrix": (lambda x: MetaMatrix(1, [[x]]), DomainError),
    "PosetRepresentation": (
        lambda x: PosetRepresentation(build_poset(1), [x], {}), StructuralError),
    "FnfLabel": (lambda x: FnfLabel((x,), ((1,),)), DomainError),
    "count_cm": (lambda x: count_cm(alpha=(x, 1)), DomainError),
}


@pytest.mark.parametrize("value", [1.5, "3", Fraction(3), None],
                         ids=["float", "str", "Fraction", "None"])
@pytest.mark.parametrize("name", INTEGER_INPUTS)
def test_constructors_refuse_non_integers(name, value):
    build, error = INTEGER_INPUTS[name]
    build(1)
    with pytest.raises(error, match="entries must be integers"):
        build(value)
