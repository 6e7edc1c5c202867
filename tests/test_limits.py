import ast
import pathlib
from fractions import Fraction

import pytest

from stochastihedron import limits
from stochastihedron.contingency import (
    CmPoset,
    build_poset,
    count_cm,
    count_cm_by_size,
    enumerate_cm,
)
from stochastihedron.errors import CapacityError, DomainError
from stochastihedron.identities import BINOMIAL, structured_matrix
from stochastihedron.partitions import enumerate_ordered_partitions, subset_to_partition
from stochastihedron.sheaf import constant_sheaf
from stochastihedron.strata import anodyne_classes, anodyne_joins, meet_check
from stochastihedron.topology import verify_sphericity

SRC = pathlib.Path(limits.__file__).resolve().parent

# a new cap is a visible decision: it is added here with its default
CAPS = {
    "ENUMERATION_CAP": 7,
    "SPHERICITY_CAP": 6,
    "ANODYNE_CAP": 5,
    "CONSTANT_SHEAF_CAP": 6,
    "SHEAF_DIM_CAP": 8,
    "METAMATRIX_CAP": 40,
    "PARTITION_CAP": 20,
}


def _guarded_names():
    """The names passed to a ``guard`` or ``census_guard`` call in any
    src/ module other than ``limits``."""
    names = set()
    for path in SRC.glob("*.py"):
        if path.name == "limits.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("guard", "census_guard")
            ):
                names.update(a.id for a in node.args if isinstance(a, ast.Name))
    return names


def test_the_caps_and_their_defaults_are_pinned():
    caps = {name: getattr(limits, name) for name in dir(limits) if name.endswith("_CAP")}
    assert caps == CAPS


def test_no_cap_is_dead():
    assert set(CAPS) <= _guarded_names()


def test_the_cli_reads_no_cap():
    # which cap refuses a command is the library guard's decision alone
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    read |= {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not {name for name in read if name.endswith("_CAP")}
    assert not hasattr(limits, "effective_cap")


# ---------------------------------------------------------------------------
# the one entry check of a weight

# every entry point that takes a weight n, called with it
WEIGHT_TAKERS = {
    "build_poset": build_poset,
    "CmPoset": CmPoset,
    "enumerate_cm": enumerate_cm,
    "count_cm": count_cm,
    "count_cm_by_size": count_cm_by_size,
    "verify_sphericity": verify_sphericity,
    "anodyne_classes": anodyne_classes,
    "anodyne_joins": anodyne_joins,
    "meet_check": meet_check,
    "constant_sheaf": lambda n: constant_sheaf(n, 1),
    "enumerate_ordered_partitions": enumerate_ordered_partitions,
    "subset_to_partition": lambda n: subset_to_partition([], n),
    "structured_matrix": lambda n: structured_matrix(BINOMIAL, n),
}
# with no margin given, None leaves the weight of a census undetermined
UNDETERMINED = {"enumerate_cm", "count_cm", "count_cm_by_size"}


@pytest.mark.parametrize("name", WEIGHT_TAKERS)
@pytest.mark.parametrize(
    "n",
    [2.5, "3", Fraction(3), None, 0],
    ids=["float", "str", "Fraction", "None", "zero"],
)
def test_every_weight_taker_refuses_a_weight_that_is_not_a_positive_int(name, n):
    if n == 0:
        message = "^weight must be positive, got 0$"
    elif n is None and name in UNDETERMINED:
        message = "^the weight n is not determined by the arguments$"
    else:
        message = "^weight must be an integer: "
    with pytest.raises(DomainError, match=message):
        WEIGHT_TAKERS[name](n)


@pytest.mark.parametrize(
    "call",
    [
        lambda v: count_cm(3, p=v),
        lambda v: enumerate_cm(3, q=v),
        lambda v: count_cm_by_size(3, p=v),
        lambda v: enumerate_ordered_partitions(3, v),
        lambda v: constant_sheaf(3, v),
    ],
    ids=["count_cm p", "enumerate_cm q", "count_cm_by_size p", "partitions p", "dim"],
)
@pytest.mark.parametrize(
    "value", [2.5, "2", Fraction(2)], ids=["float", "str", "Fraction"]
)
def test_the_other_integer_arguments_are_exact_ints(call, value):
    with pytest.raises(DomainError, match="^entries must be integers: "):
        call(value)


def test_an_exact_int_argument_keeps_its_range_check():
    with pytest.raises(DomainError, match="^entries must be integers: "):
        constant_sheaf(3, None)
    with pytest.raises(DomainError, match=r"^q must satisfy 1 <= q <= 3, got 4$"):
        count_cm(3, q=4)
    with pytest.raises(DomainError, match=r"^length must satisfy 1 <= p <= 3, got 0$"):
        enumerate_ordered_partitions(3, 0)
    assert count_cm(3, p=True) == count_cm(3, p=1) == 4  # the compositions of 3


@pytest.mark.parametrize("call, size", [
    (lambda: build_poset(8), "; |CM_8| = 9,132,865"),
    (lambda: CmPoset(8), "; |CM_8| = 9,132,865"),
    (lambda: enumerate_cm(8), "; |CM_8| = 9,132,865"),
    (lambda: meet_check(8), "; |CM_8| = 9,132,865"),
    (lambda: verify_sphericity(7), "; |CM_7| = 546,193"),
    (lambda: anodyne_classes(6), "; |CM_6| = 37,277"),
    (lambda: anodyne_joins(6), "; |CM_6| = 37,277"),
    (lambda: constant_sheaf(7, 1), "; |CM_7| = 546,193"),
    (lambda: enumerate_cm(8, p=2), ""),
    (lambda: enumerate_cm(alpha=(4, 4)), ""),
    (lambda: count_cm(8), ""),
    (lambda: build_poset(41), ""),
    (lambda: enumerate_ordered_partitions(21), "; 1,048,576 ordered partitions"),
    (lambda: constant_sheaf(6, 9), ""),
    (lambda: enumerate_ordered_partitions(21, 3), "; 190 ordered partitions"),
    (lambda: enumerate_ordered_partitions(41), ""),
])
def test_a_refused_census_names_its_size_in_the_library(call, size):
    with pytest.raises(CapacityError) as info:
        call()
    message = str(info.value)
    assert message.endswith(")" + size)
    assert message.count("|CM_") == ("|CM_" in size)

