import json
from decimal import Decimal
from fractions import Fraction
from math import lcm

import pytest

from helpers import (
    fraction_diamond_failures,
    fraction_rank,
    random_matrix,
    rank_functor,
    representation_suite,
    rescaled,
    size_functor,
    skyscraper,
)

import random

from stochastihedron import sheaf
from stochastihedron.contingency import ContingencyMatrix, build_poset
from stochastihedron.errors import DomainError, StructuralError
from stochastihedron.sheaf import (
    STRATIFICATIONS,
    PosetRepresentation,
    constant_sheaf,
    is_constructible,
    validate,
)


@pytest.fixture(scope="module")
def poset2():
    return build_poset(2)


def test_constant_sheaf_shape():
    rep = constant_sheaf(2, 1)
    assert rep.dims == (1, 1, 1, 1, 1)
    assert len(rep.cover_maps) == 6
    assert validate(rep)["pass"]
    for strat in ("cont", "fnf", "ifnf", "complex"):
        assert is_constructible(rep, strat) == (True, None)


def test_constant_sheaf_trivial_cases():
    rep = constant_sheaf(1, 3)
    assert rep.dims == (3,)
    assert not rep.cover_maps
    assert validate(rep)["pass"]
    zero = constant_sheaf(3, 0)
    assert validate(zero)["pass"]
    for strat in ("cont", "fnf", "ifnf", "complex"):
        assert is_constructible(zero, strat) == (True, None)


def test_unvalidated_rep_is_rejected():
    rep = constant_sheaf(2, 1)
    with pytest.raises(StructuralError):
        is_constructible(rep, "fnf")
    with pytest.raises(DomainError):
        validate(rep) and is_constructible(rep, "weird")


def test_broken_diamond_is_caught(poset2):
    rep = constant_sheaf(2, 1)
    maps = {pair: rep.map_for(*pair) for pair in rep.cover_maps}
    child = poset2.element_index(ContingencyMatrix([[1, 0], [0, 1]]))
    parent = poset2.element_index(ContingencyMatrix([[1, 1]]))
    maps[(child, parent)] = [[Fraction(2)]]
    broken = PosetRepresentation(poset2, [1] * 5, maps)
    report = validate(broken)
    assert not report["pass"]
    assert report["diamonds_failing"]
    bad = report["diamonds_failing"][0]
    assert bad["bottom"] == child
    assert bad["top"] == poset2.element_index(ContingencyMatrix([[2]]))


def test_zero_map_counterexample(poset2):
    # zero out the anodyne horizontal cover from the identity matrix, with
    # compensating zeros into the top so the diamonds still commute
    eye = [[Fraction(1)]]
    zero = [[Fraction(0)]]
    idx = poset2.element_index
    top = idx(ContingencyMatrix([[2]]))
    row2 = idx(ContingencyMatrix([[1, 1]]))
    col2 = idx(ContingencyMatrix([[1], [1]]))
    perm_id = idx(ContingencyMatrix([[1, 0], [0, 1]]))
    perm_swap = idx(ContingencyMatrix([[0, 1], [1, 0]]))
    maps = {
        (perm_id, row2): zero,
        (perm_swap, row2): eye,
        (perm_id, col2): eye,
        (perm_swap, col2): eye,
        (row2, top): zero,
        (col2, top): zero,
    }
    rep = PosetRepresentation(poset2, [1] * 5, maps)
    assert validate(rep)["pass"]

    ok, witness = is_constructible(rep, "fnf")
    assert not ok
    assert (witness["from"], witness["to"], witness["kind"]) == (
        perm_id,
        row2,
        "horizontal",
    )
    ok, _ = is_constructible(rep, "complex")
    assert not ok
    assert is_constructible(rep, "cont") == (True, None)
    assert is_constructible(rep, "ifnf") == (True, None)


def test_skyscraper_at_top_is_complex_constructible():
    for n in (2, 3):
        poset = build_poset(n)
        rep = skyscraper(poset, 0)  # the 1x1 matrix (n) comes first
        assert validate(rep)["pass"]
        for strat in ("cont", "fnf", "ifnf", "complex"):
            assert is_constructible(rep, strat) == (True, None)


def test_skyscraper_elsewhere_can_fail():
    # weight 2: put the fiber on a permutation matrix; the anodyne covers
    # out of it get non-square maps (1 -> 0), so fnf must fail
    poset = build_poset(2)
    perm = poset.element_index(ContingencyMatrix([[1, 0], [0, 1]]))
    rep = skyscraper(poset, perm)
    assert validate(rep)["pass"]
    ok, witness = is_constructible(rep, "fnf")
    assert not ok and witness["from"] == perm
    assert is_constructible(rep, "cont") == (True, None)


def saturated_chain_composites(rep, bottom, top):
    """Oracle: compose cover maps along every saturated chain bottom..top."""
    poset = rep.poset
    out = []

    def walk(at, acc):
        if at == top:
            out.append(tuple(tuple(row) for row in acc))
            return
        for parent in poset.up[at]:
            if parent == top or poset.leq(parent, top):
                matrix = rep.map_for(at, parent)
                composed = [
                    [
                        sum(
                            (matrix[i][k] * acc[k][j] for k in range(len(acc))),
                            Fraction(0),
                        )
                        for j in range(len(acc[0]) if acc else 0)
                    ]
                    for i in range(len(matrix))
                ]
                walk(parent, composed)

    identity = [
        [Fraction(1) if i == j else Fraction(0) for j in range(rep.dims[bottom])]
        for i in range(rep.dims[bottom])
    ]
    walk(bottom, identity)
    return out


def test_validate_equals_full_functoriality():
    rng = random.Random(7)
    for n in (2, 3):
        poset = build_poset(n)
        for _ in range(6):
            rep = size_functor(poset, rng)
            assert validate(rep)["pass"]
            for bottom in range(len(poset)):
                for top in range(len(poset)):
                    if bottom != top and poset.leq(bottom, top):
                        composites = set(
                            saturated_chain_composites(rep, bottom, top)
                        )
                        assert len(composites) == 1


def test_broken_rep_fails_both_validators(poset2):
    rep = constant_sheaf(2, 1)
    maps = {pair: rep.map_for(*pair) for pair in rep.cover_maps}
    child = poset2.element_index(ContingencyMatrix([[0, 1], [1, 0]]))
    parent = poset2.element_index(ContingencyMatrix([[1], [1]]))
    maps[(child, parent)] = [[Fraction(-1)]]
    broken = PosetRepresentation(poset2, [1] * 5, maps)
    assert not validate(broken)["pass"]
    composites = set(saturated_chain_composites(broken, child, 0))  # 0 is (2)
    assert len(composites) > 1


def test_random_suite_equivalence():
    suite = representation_suite(40, max_n=3)
    outcomes = set()
    for rep in suite:
        assert validate(rep)["pass"]
        fnf_ok, _ = is_constructible(rep, "fnf")
        ifnf_ok, _ = is_constructible(rep, "ifnf")
        complex_ok, _ = is_constructible(rep, "complex")
        assert complex_ok == (fnf_ok and ifnf_ok)
        assert is_constructible(rep, "cont") == (True, None)
        outcomes.add((fnf_ok, ifnf_ok))
    assert len(outcomes) >= 3  # the suite genuinely varies


def test_invertibility_matches_fraction_rank():
    # rank functors with every space of dimension D: each anodyne cover
    # carries a random square map, singular about half the time
    rng = random.Random(20261018)
    posets = [build_poset(2), build_poset(3)]
    verdicts = set()
    for trial in range(60):
        size = trial % 9
        poset = posets[trial % 2]
        steps = [random_matrix(rng, size, size, singular=rng.random() < 0.5)
                 for _ in range(2 * poset.n - 2)]
        maps = {(c, p): steps[poset.rank(c)] for c, p, _, _ in poset.covers}
        rep = PosetRepresentation(poset, [size] * len(poset), maps)
        assert validate(rep)["valid"]
        for strat, kinds in STRATIFICATIONS.items():
            expected = (True, None)
            for child, parent, kind, pos in poset.anodyne_covers(kinds):
                if fraction_rank(rep.map_for(child, parent)) != size:
                    expected = (False, {"from": child, "to": parent, "kind": kind,
                                        "pos": pos, "dims": [size, size]})
                    break
            assert is_constructible(rep, strat) == expected
            verdicts.add(expected[0])
    assert verdicts == {True, False}


def test_isomorphism_verdicts_match_fraction_rank():
    # square maps with proper fractions, about half of them singular (the
    # last row a rational combination of two others), plus non-square shapes
    rng = random.Random(20261019)

    def entry():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))

    verdicts = set()
    for trial in range(200):
        size = 1 + trial % 8
        m = [[entry() for _ in range(size)] for _ in range(size)]
        if size > 1 and (trial // 8) % 2:
            c, d = entry(), entry()
            m[-1] = [c * x + d * y for x, y in zip(m[0], m[-2])]
        expected = fraction_rank(m) == size
        den = lcm(*(x.denominator for row in m for x in row))
        rows = [[int(x * den) for x in row] for row in m]
        assert sheaf._is_isomorphism(rows, size, size) is expected
        verdicts.add(expected)
    assert verdicts == {True, False}
    assert sheaf._is_isomorphism([[3, 2]], 1, 2) is False
    assert sheaf._is_isomorphism([], 0, 0) is True


def test_shape_mismatch_is_structural():
    poset = build_poset(2)
    maps = {
        (child, parent): [[Fraction(1), Fraction(0)]]
        for child, parent, _, _ in poset.covers
    }
    rep = PosetRepresentation(poset, [1] * 5, maps)
    with pytest.raises(StructuralError):
        validate(rep)


def test_json_round_trip():
    rep = constant_sheaf(2, 2)
    data = rep.to_json()
    again = PosetRepresentation.from_json(json.loads(json.dumps(data)))
    assert again.dims == rep.dims
    assert again.cover_maps == rep.cover_maps

    sky = skyscraper(build_poset(2), 0)
    data = sky.to_json()
    data["maps"] = []  # zero-dimensional endpoints may omit their matrices
    again = PosetRepresentation.from_json(data)
    assert validate(again)["pass"]

    with pytest.raises(StructuralError):
        PosetRepresentation.from_json(
            {"n": 2, "spaces": {str(i): 1 for i in range(5)}, "maps": []}
        )
    with pytest.raises(StructuralError):
        PosetRepresentation.from_json({"spaces": {}})


def _break_one_map(rep, rng):
    """rep with one entry of one nonempty cover map moved by a fraction."""
    covers = sorted(pair for pair, (rows, _) in rep.cover_maps.items()
                    if rows and rows[0])
    target = rng.choice(covers)
    maps = {pair: rep.map_for(*pair) for pair in rep.cover_maps}
    matrix = [list(row) for row in maps[target]]
    i, j = rng.randrange(len(matrix)), rng.randrange(len(matrix[0]))
    matrix[i][j] += Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 7))
    maps[target] = matrix
    return PosetRepresentation(rep.poset, rep.dims, maps)


def test_diamonds_failing_match_fraction_oracle():
    # rescaling keeps functorial reps functorial while giving the maps
    # unequal, non-unit denominators; one moved entry breaks diamonds
    rng = random.Random(20261020)
    verdicts = set()
    denominators = set()
    for rep in representation_suite(16, max_n=4, seed=20261020):
        rep = rescaled(rep, rng)
        denominators.update(den for _, den in rep.cover_maps.values())
        for _ in range(2):
            report = validate(rep)
            assert report["diamonds_failing"] == fraction_diamond_failures(rep)
            verdicts.add(report["valid"])
            if not any(rows and rows[0] for rows, _ in rep.cover_maps.values()):
                break
            rep = _break_one_map(rep, rng)
    assert verdicts == {True, False}
    assert len(denominators) > 5


def test_round_trip_keeps_signs_denominators_and_empty_maps():
    rng = random.Random(20261021)
    poset = build_poset(3)
    rep = rescaled(rank_functor(poset, rng, dims=[0, 2, 1, 3, 0]), rng)
    data = rep.to_json()
    entries = []
    for item in data["maps"]:
        want = rep.map_for(item["from"], item["to"])
        assert item["matrix"] == [[str(x) for x in row] for row in want]
        entries.extend(x for row in want for x in row)
    assert any(x < 0 for x in entries) and any(x.denominator > 1 for x in entries)
    assert any(not m["matrix"] or not m["matrix"][0] for m in data["maps"])
    again = PosetRepresentation.from_json(json.loads(json.dumps(data)))
    assert again.cover_maps == rep.cover_maps
    for child, parent, _, _ in poset.covers:
        assert again.map_for(child, parent) == rep.map_for(child, parent)


@pytest.mark.parametrize("entry, stored", [
    (Fraction(-3, 4), (-3, 4)),
    (2, (2, 1)),
    (True, (1, 1)),
    (Fraction(6, 3), (2, 1)),
], ids=["Fraction", "int", "bool", "integral-Fraction"])
def test_constructor_takes_ints_and_fractions(poset2, entry, stored):
    maps = {(child, parent): [[entry]] for child, parent, _, _ in poset2.covers}
    rep = PosetRepresentation(poset2, [1] * 5, maps)
    numerator, den = stored
    assert set(rep.cover_maps.values()) == {(((numerator,),), den)}
    assert all(type(x) is int for (rows, _) in rep.cover_maps.values()
               for row in rows for x in row)
    child, parent, _, _ = next(iter(poset2.covers))
    assert rep.map_for(child, parent) == ((Fraction(numerator, den),),)


@pytest.mark.parametrize("entry", [
    0.1, -0.75, "1/2", "-0.75", "-75e-2", Decimal("-0.75"), None, 1j, "x",
], ids=["float", "exact-float", "p/q", "decimal", "exponent", "Decimal", "None",
        "complex", "text"])
def test_constructor_refuses_inexact_entries(poset2, entry):
    # a float is never read as its binary value, nor a string parsed:
    # from_json parses text into Fractions before the constructor sees it
    maps = {(child, parent): [[entry]] for child, parent, _, _ in poset2.covers}
    with pytest.raises(StructuralError, match="^map entries must be ints or Fractions"):
        PosetRepresentation(poset2, [1] * 5, maps)


@pytest.mark.parametrize("first, later", [
    (None, None), ([[1]], None), ([[1]], [1]),
], ids=["None-first", "None-later", "row-not-a-list"])
def test_constructor_refuses_a_map_that_is_not_a_grid(poset2, first, later):
    covers = [(child, parent) for child, parent, _, _ in poset2.covers]
    maps = {pair: later for pair in covers}
    maps[covers[0]] = first
    bad = covers[0] if first is None else covers[1]
    with pytest.raises(StructuralError, match=f"^map for cover {bad[0]} -> {bad[1]} "):
        PosetRepresentation(poset2, [1] * 5, maps)
