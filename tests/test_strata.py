import importlib.util
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from stochastihedron import strata
from stochastihedron.contingency import (
    HORIZONTAL,
    VERTICAL,
    ContingencyMatrix,
    build_poset,
    contract,
    enumerate_cm,
    is_anodyne,
    margins,
)
from stochastihedron.errors import CapacityError, DomainError, StructuralError
from stochastihedron.partitions import OrderedPartition
from stochastihedron.strata import (
    FnfLabel,
    MultiplicityPartition,
    PointConfiguration,
    anodyne_classes,
    anodyne_joins,
    cell_dimensions,
    classify,
    compress,
    contingency_label,
    fnf_closure_leq,
    fnf_label,
    ifnf_label,
    meet_check,
    multiplicity_partition,
)


def cm(rows):
    return ContingencyMatrix(rows)


def config(*pts):
    return PointConfiguration(tuple(pts))


# ---------------------------------------------------------------------------
# classifier

def test_contingency_label_examples():
    assert contingency_label(config((0, 1), (0, -1))).rows == ((1, 1),)
    assert contingency_label(config((-1, 0), (1, 0))).rows == ((1,), (1,))
    assert contingency_label(config((0, 0), (0, 0))).rows == ((2,),)


def test_labels_are_exact_not_float():
    near = config((Fraction(1, 3), 0), (Fraction(33333333, 100000000), 0))
    assert contingency_label(near).rows == ((1,), (1,))
    collided = config((Fraction(1, 3), 0), (Fraction(2, 6), 0))
    assert contingency_label(collided).rows == ((2,),)


def test_classifier_margins_recover_coordinate_multiplicities():
    rng = random.Random(991)
    grid = [Fraction(k, 2) for k in range(-2, 3)]
    for _ in range(200):
        n = rng.randint(1, 6)
        pts = [(rng.choice(grid), rng.choice(grid)) for _ in range(n)]
        z = PointConfiguration(tuple(pts))
        matrix = contingency_label(z)
        _, hor, ver = margins(matrix)
        re_counts = Counter(re for re, _ in z.points)
        im_counts = Counter(im for _, im in z.points)
        assert hor.parts == tuple(re_counts[x] for x in sorted(re_counts))
        assert ver.parts == tuple(im_counts[y] for y in sorted(im_counts))
        mult = multiplicity_partition(matrix)
        assert mult.parts == tuple(sorted(Counter(z.points).values(), reverse=True))


def test_compress_examples():
    assert compress((2, 0, 1, 3, 0, 0)).parts == (2, 1, 3)
    assert compress((5,)).parts == (5,)
    assert compress((0, 1, 0, 1)).parts == (1, 1)
    with pytest.raises(DomainError):
        compress((0, 0))
    with pytest.raises(DomainError):
        compress((1, -1))


def test_fnf_label_examples():
    lab = fnf_label(cm([[1, 0], [0, 1]]))
    assert lab.beta.parts == (1, 1)
    assert tuple(g.parts for g in lab.gamma) == ((1,), (1,))
    assert lab.dimension == 4

    lab = fnf_label(cm([[1], [1]]))
    assert (lab.beta.parts, lab.gamma[0].parts, lab.dimension) == ((2,), (1, 1), 3)

    lab = fnf_label(cm([[2]]))
    assert (lab.beta.parts, lab.gamma[0].parts, lab.dimension) == ((2,), (2,), 2)


def test_ifnf_label_examples():
    lab = ifnf_label(cm([[1, 0], [0, 1]]))
    assert lab.beta.parts == (1, 1)
    assert tuple(g.parts for g in lab.gamma) == ((1,), (1,))

    lab = ifnf_label(cm([[1, 1]]))
    assert (lab.beta.parts, lab.gamma[0].parts) == ((2,), (1, 1))

    lab = ifnf_label(cm([[2]]))
    assert (lab.beta.parts, lab.gamma[0].parts) == ((2,), (2,))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_labels_match_the_compress_route(n):
    for m in enumerate_cm(n):
        transpose = tuple(zip(*m.rows))
        for label, rows in ((fnf_label(m), m.rows), (ifnf_label(m), transpose)):
            beta = OrderedPartition(tuple(sum(col) for col in zip(*rows)))
            gamma = tuple(compress(col) for col in zip(*rows))
            assert label == FnfLabel(beta, gamma)


def test_fnf_label_validation():
    with pytest.raises(DomainError):
        FnfLabel(OrderedPartition((2, 1)), (OrderedPartition((2,)),))
    with pytest.raises(DomainError):
        FnfLabel(OrderedPartition((2,)), (OrderedPartition((1,)),))


def test_multiplicity_examples():
    assert multiplicity_partition(cm([[1, 0], [0, 1]])).parts == (1, 1)
    assert multiplicity_partition(cm([[2, 0], [0, 1]])).parts == (2, 1)
    z = config((0, 0), (0, 0), (1, 5))
    matrix = contingency_label(z)
    assert matrix.rows == ((2, 0), (0, 1))
    assert multiplicity_partition(matrix).parts == (2, 1)
    with pytest.raises(DomainError):
        MultiplicityPartition((1, 2))


def test_classify_bundle():
    out = classify(config((0, 0), (0, 0)))
    assert out["matrix"] == {"rows": [[2]]}
    assert out["fnf"]["beta"] == [2] and out["fnf"]["gamma"] == [[2]]
    assert out["multiplicity"] == [2]
    assert out["dimensions"] == {"contingency": 2, "fnf": 2, "ifnf": 2, "complex": 2}


def test_configuration_json():
    z = PointConfiguration(((Fraction(1, 2), Fraction(-3)),))
    data = z.to_json()
    assert data == {"points": [{"re": "1/2", "im": "-3"}]}
    assert PointConfiguration.from_json(data) == z
    decimal = PointConfiguration.from_json({"points": [{"re": "0.5", "im": "-3"}]})
    assert decimal == z
    with pytest.raises(StructuralError):
        PointConfiguration.from_json({"points": [{"re": "x"}]})
    with pytest.raises(StructuralError):
        PointConfiguration.from_json([1, 2])


@pytest.mark.parametrize("points, message", [
    ((("x", 0),), "coordinates must be ints or Fractions"),
    ((("1/2", 0),), "coordinates must be ints or Fractions"),
    (((None, 0),), "coordinates must be ints or Fractions"),
    (((0.1, 0),), "coordinates must be ints or Fractions"),
    (((0, 1.0),), "coordinates must be ints or Fractions"),
    (((1,),), "a point must be a pair"),
    (((1, 2, 3),), "a point must be a pair"),
    ((1,), "a point must be a pair"),
    (5, "points must be a list of pairs"),
], ids=["str", "fraction-str", "None", "float", "float-im", "one", "three", "bare",
        "not-a-list"])
def test_a_configuration_refuses_inexact_or_malformed_points(points, message):
    # 0.1 is the binary fraction 3602879701896397/36028797018963968, while
    # from_json reads the JSON number 0.1 as 1/10: only ints and Fractions
    # go in as they are
    with pytest.raises(DomainError, match=f"^{message}"):
        PointConfiguration(points)
    assert PointConfiguration.from_json({"points": [{"re": 0.1, "im": 0}]}).points == (
        (Fraction(1, 10), Fraction(0)),
    )


# ---------------------------------------------------------------------------
# closure order on labels

def test_fnf_closure_examples():
    a = FnfLabel((2,), ((1, 1),))
    b = FnfLabel((1, 1), ((1,), (1,)))
    assert fnf_closure_leq(a, b)
    assert not fnf_closure_leq(b, a)
    assert fnf_closure_leq(a, a)
    origin = FnfLabel((2,), ((2,),))
    assert fnf_closure_leq(origin, a)
    with pytest.raises(DomainError):
        fnf_closure_leq(origin, FnfLabel((3,), ((3,),)))


def test_closure_sees_interleaving_of_merged_lines():
    # merging the two lines of [[0,2],[1,0]] puts its simple point to the
    # right of its double point: the limit pattern (2,1) is a shuffle of
    # (1) and (2), not a refinement of their concatenation
    coarse = fnf_label(cm([[2], [1]]))
    fine = fnf_label(cm([[0, 2], [1, 0]]))
    assert coarse.gamma[0].parts == (2, 1)
    assert tuple(g.parts for g in fine.gamma) == ((1,), (2,))
    assert fnf_closure_leq(coarse, fine)


def test_closure_cannot_uncollide_points():
    spread = FnfLabel((3,), ((1, 1, 1),))
    collided = FnfLabel((3,), ((3,),))
    assert fnf_closure_leq(collided, spread)
    assert not fnf_closure_leq(spread, collided)
    # within a single line the order of clusters is rigid
    assert not fnf_closure_leq(FnfLabel((3,), ((2, 1),)), FnfLabel((3,), ((1, 2),)))


def test_closure_is_a_partial_order_on_weight4_labels():
    labels = sorted(
        {fnf_label(m) for m in enumerate_cm(4)}, key=lambda lab: lab.sort_key
    )
    for a in labels:
        assert fnf_closure_leq(a, a)
        for b in labels:
            if fnf_closure_leq(a, b) and fnf_closure_leq(b, a):
                assert a == b
            for c in labels:
                if fnf_closure_leq(a, b) and fnf_closure_leq(b, c):
                    assert fnf_closure_leq(a, c)


def test_dimension_monotone_along_closure():
    seen = {}
    for m in enumerate_cm(4):
        lab = fnf_label(m)
        seen[lab] = lab.dimension
    labels = list(seen)
    for a in labels:
        for b in labels:
            if fnf_closure_leq(a, b):
                assert a.dimension <= b.dimension


def _bench_oracle():
    # the benchmark's reference combinatorics, which import nothing from
    # the library, loaded by path
    path = Path(__file__).resolve().parents[1] / "bench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_closure_order_matches_contractions_of_cm():
    # label a lies in the closure of label b exactly when some matrix over
    # b contracts to a matrix over a: every pair of labels up to n = 5
    oracle = _bench_oracle()
    for n in range(1, 6):
        closure = oracle.fnf_closure(n)
        assert len(closure) == 3 ** (n - 1)
        labels = {key: FnfLabel(*key) for key in closure}
        for a, label_a in labels.items():
            for b, label_b in labels.items():
                assert fnf_closure_leq(label_a, label_b) == (a in closure[b]), (a, b)


def test_covers_respect_fnf_closure():
    for n in range(2, 5):
        poset = build_poset(n)
        for child, parent, _, _ in poset.covers:
            coarse = poset.elements[parent]
            fine = poset.elements[child]
            assert fnf_closure_leq(fnf_label(coarse), fnf_label(fine))
            assert fnf_closure_leq(ifnf_label(coarse), ifnf_label(fine))


def test_anodyne_contractions_preserve_labels():
    for n in range(2, 6):
        for m in enumerate_cm(n):
            for i in range(m.p - 1):
                if is_anodyne(m, HORIZONTAL, i):
                    assert fnf_label(contract(m, HORIZONTAL, i)) == fnf_label(m)
            for j in range(m.q - 1):
                if is_anodyne(m, VERTICAL, j):
                    assert ifnf_label(contract(m, VERTICAL, j)) == ifnf_label(m)


def test_dimension_bookkeeping():
    for n in range(1, 6):
        for m in enumerate_cm(n):
            _, hor, ver = margins(m)
            dims = cell_dimensions(m)
            assert dims["contingency"] == hor.length + ver.length == m.p + m.q
            assert dims["fnf"] >= dims["contingency"]
            assert dims["ifnf"] >= dims["contingency"]
            nonzero = sum(1 for row in m.rows for x in row if x)
            assert dims["fnf"] == m.q + nonzero
            assert (dims["fnf"] == dims["contingency"]) == (nonzero == m.p)


# ---------------------------------------------------------------------------
# anodyne classes and the meet

def test_anodyne_classes_weight2():
    report = anodyne_classes(2)
    elements = enumerate_cm(2)
    by_rows = {m.rows: i for i, m in enumerate(elements)}
    expected = {
        frozenset(
            by_rows[r]
            for r in (((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 1),), ((1,), (1,)))
        ),
        frozenset({by_rows[((2,),)]}),
    }
    assert {frozenset(c) for c in report["classes"]} == expected
    assert report["pass"]


def test_anodyne_classes_counts():
    assert anodyne_classes(1)["class_count"] == 1
    assert anodyne_classes(3)["class_count"] == 3  # one per multiplicity partition
    assert anodyne_classes(4)["class_count"] == 5
    assert anodyne_classes(5)["class_count"] == 7


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_anodyne_classes_match_fibers(n):
    # anodyne_joins shares one poset between the three kind sets
    joins = anodyne_joins(n)
    assert list(joins) == ["both", "horizontal", "vertical"]
    elements = enumerate_cm(n)
    label_maps = {
        "multiplicity": multiplicity_partition,
        "fnf": fnf_label,
        "ifnf": ifnf_label,
    }
    for name, kinds in (
        ("both", (HORIZONTAL, VERTICAL)),
        ("horizontal", (HORIZONTAL,)),
        ("vertical", (VERTICAL,)),
    ):
        report = joins[name]
        assert report == anodyne_classes(n, kinds)
        assert report["pass"]
        # the raw-key fibers the report compares with are the fibers of
        # the label objects
        fiber_name, key = strata._FIBER_KEYS[kinds]
        by_label, by_key = {}, {}
        for i, m in enumerate(elements):
            by_label.setdefault(label_maps[fiber_name](m), []).append(i)
            by_key.setdefault(key(m.rows), []).append(i)
        fibers = sorted(tuple(v) for v in by_label.values())
        assert sorted(tuple(v) for v in by_key.values()) == fibers
        assert report["fiber_label"] == fiber_name
        assert report["fiber_count"] == len(fibers)
        # classes come out ordered by their least element
        assert report["classes"] == fibers


def test_anodyne_class_counts_at_n6(monkeypatch):
    # p(6) multiplicity partitions and 3^5 FNF and dual FNF labels
    monkeypatch.setattr(strata, "ANODYNE_CAP", 6)
    joins = anodyne_joins(6)
    for name, count in (("both", 11), ("horizontal", 243), ("vertical", 243)):
        report = joins[name]
        assert report["class_count"] == report["fiber_count"] == count
        assert report["pass"]


def test_anodyne_capacity():
    with pytest.raises(CapacityError):
        anodyne_classes(6)
    with pytest.raises(CapacityError):
        anodyne_joins(6)


def test_anodyne_classes_rejects_another_poset():
    with pytest.raises(DomainError):
        anodyne_classes(3, poset=build_poset(2))


def test_meet_check_small():
    report = meet_check(2)
    assert report["pass"]
    # the two permutation matrices share both labels: one group of size 2
    sizes = sorted(g["component_count"] for g in report["groups"])
    assert sizes == [1, 1, 1, 2]
    singleton = [g for g in report["groups"] if g["expected_size"] == [1, 1]]
    assert len(singleton) == 1  # the 1x1 matrix (2) is alone in its group
    assert singleton[0]["component_count"] == 1
    pair = [g for g in report["groups"] if g["component_count"] == 2]
    assert pair[0]["expected_size"] == [2, 2]  # the two permutation matrices


@pytest.mark.parametrize("n", [3, 4, 5])
def test_meet_check_sizes_constant(n):
    report = meet_check(n)
    assert report["pass"]
    assert not report["violations"]
    assert sum(g["component_count"] for g in report["groups"]) == len(enumerate_cm(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_meet_groups_match_label_object_grouping(n):
    groups = {}
    for m in enumerate_cm(n):
        groups.setdefault((fnf_label(m), ifnf_label(m)), []).append(m)
    expected = [
        (fnf.to_json(), ifnf.to_json(), len(members),
         sorted({(m.p, m.q) for m in members}))
        for (fnf, ifnf), members in sorted(
            groups.items(), key=lambda kv: (kv[0][0].sort_key, kv[0][1].sort_key)
        )
    ]
    report = meet_check(n)
    assert [
        (g["fnf"], g["ifnf"], g["component_count"], g["sizes"])
        for g in report["groups"]
    ] == expected


def test_meet_check_builds_two_labels_per_group(monkeypatch):
    built = []

    class Counted(FnfLabel):
        def __init__(self, beta, gamma):
            built.append(self)
            super().__init__(beta, gamma)

    monkeypatch.setattr(strata, "FnfLabel", Counted)
    report = meet_check(5)
    assert report["pass"]
    assert len(built) == 2 * report["group_count"]


def test_meet_check_builds_no_contingency_matrix(monkeypatch):
    # meet_check groups the census's raw row tuples
    built = []
    init = ContingencyMatrix.__init__

    def counted(self, rows, check=True):
        built.append(rows)
        init(self, rows, check)

    monkeypatch.setattr(ContingencyMatrix, "__init__", counted)
    report = meet_check(5)
    assert report["pass"] and report["group_count"] > 0
    assert built == []
    enumerate_cm(2)
    assert len(built) == 5
