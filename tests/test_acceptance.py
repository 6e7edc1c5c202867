"""Acceptance suite: one test per criterion, strict tolerances (exact
equality unless a runtime bound is stated).  Run with

    pytest tests/test_acceptance.py -v -s

to see one PASS line per criterion.
"""

import gc
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import factorial

from helpers import colored_lifts, double_coset_count, representation_suite

from stochastihedron import strata
from stochastihedron.contingency import (
    HORIZONTAL,
    VERTICAL,
    ContingencyMatrix,
    build_poset,
    count_cm,
    count_cm_by_size,
    enumerate_cm,
)
from stochastihedron.counting import f_vector, metamatrix, total_count
from stochastihedron.identities import (
    det_metamatrix,
    total_positivity,
    verify_factorizations,
)
from stochastihedron.partitions import enumerate_ordered_partitions
from stochastihedron.sheaf import (
    PosetRepresentation,
    constant_sheaf,
    is_constructible,
    validate,
)
from stochastihedron.strata import (
    PointConfiguration,
    anodyne_classes,
    classify,
    meet_check,
)
from stochastihedron.topology import verify_sphericity


def report(number, label, passed):
    print(f"ACCEPTANCE {number:2d} {'PASS' if passed else 'FAIL'}  {label}")
    assert passed, f"criterion {number}: {label}"


def test_criterion_01_enumeration_census():
    sets_ok = {m.rows for m in enumerate_cm(2)} == {
        ((2,),),
        ((1, 1),),
        ((1,), (1,)),
        ((1, 0), (0, 1)),
        ((0, 1), (1, 0)),
    }
    m3_ok = count_cm(3) == 33
    started = time.monotonic()
    totals_ok = all(count_cm(n) == total_count(n) for n in range(1, 8))
    elapsed = time.monotonic() - started
    report(
        1,
        f"census: |CM_2|=5, m(3)=33, totals=formulas for n<=7 in {elapsed:.1f}s",
        sets_ok and m3_ok and totals_ok and elapsed < 10.0,
    )


def test_criterion_02_metamatrix_3():
    expected = ((1, 2, 1), (2, 8, 6), (1, 6, 6))
    started = time.monotonic()
    ok = (
        metamatrix(3, "enumeration").entries == expected
        and metamatrix(3, "inclusion_exclusion").entries == expected
    )
    elapsed = time.monotonic() - started
    report(2, f"meta-matrix of weight 3, both routes, {elapsed:.2f}s", ok and elapsed < 1.0)


def test_criterion_03_cell_census():
    ok = f_vector(2) == {0: 2, 1: 2, 2: 1}
    ok = ok and f_vector(3) == {0: 6, 1: 12, 2: 10, 3: 4, 4: 1}
    for n in range(1, 7):
        fv = f_vector(n)
        ok = ok and sum((-1) ** d * c for d, c in fv.items()) == 1
    report(3, "stochastihedron f-vectors and Euler sums (n<=6)", ok)


def test_criterion_04_sphericity():
    ok = True
    details = []
    started = time.monotonic()
    for n, cells in ((1, 1), (2, 5), (3, 33), (4, 281), (5, 2961)):
        rep = verify_sphericity(n)
        details.append(f"n={n}:{rep['cells_checked']}")
        ok = ok and rep["pass"] and not rep["violations"]
        ok = ok and rep["cells_checked"] == cells
    elapsed = time.monotonic() - started
    report(
        4,
        f"every lower interval spherical ({', '.join(details)}) in {elapsed:.0f}s",
        ok and elapsed < 600.0,
    )


def test_criterion_05_determinants():
    values = {n: det_metamatrix(n) for n in range(1, 41)}
    ok = values[1].closed_form == 1 and values[4].closed_form == 99
    ok = ok and values[2].closed_form == 1 and values[3].closed_form == 4
    ok = ok and all(rep.equal and rep.integral for rep in values.values())
    report(5, "determinants: d1=1, d2=1, d3=4, d4=99; exact and integral to 40", ok)


def test_criterion_06_factorizations():
    ok = all(verify_factorizations(n)["pass"] for n in range(1, 13))
    report(6, "Pascal/Stirling/Vandermonde factorizations exact for n<=12", ok)


def test_criterion_07_total_positivity():
    started = time.monotonic()
    ok = all(total_positivity(metamatrix(n)) == (True, None) for n in (7, 20, 40))
    elapsed = time.monotonic() - started
    report(
        7,
        f"all solid minors positive (so all minors, Fekete) for n=7, 20, 40 "
        f"in {elapsed:.1f}s",
        ok and elapsed < 60.0,
    )


def test_criterion_08_double_cosets_and_coloring():
    ok = True
    for n in range(1, 6):
        partitions = enumerate_ordered_partitions(n)
        for alpha in partitions:
            for beta in partitions:
                matrices = enumerate_cm(alpha=alpha, beta=beta)
                ok = ok and double_coset_count(alpha.parts, beta.parts) == len(matrices)
                lhs = sum(colored_lifts(m.rows) for m in matrices)
                mult_a = factorial(n)
                for a in alpha.parts:
                    mult_a //= factorial(a)
                mult_b = factorial(n)
                for b in beta.parts:
                    mult_b //= factorial(b)
                ok = ok and lhs == mult_a * mult_b
    report(8, "double cosets and colored-lift sums for all margins, n<=5", ok)


def test_criterion_09_stratification_theorems():
    ok = True
    for n in range(1, 6):
        ok = ok and anodyne_classes(n)["pass"]
        ok = ok and anodyne_classes(n, (HORIZONTAL,))["pass"]
        ok = ok and anodyne_classes(n, (VERTICAL,))["pass"]
    for n in range(1, 7):
        ok = ok and meet_check(n)["pass"]
    report(9, "anodyne classes = label fibers (n<=5); meet groups sized (n<=6)", ok)


def test_criterion_10_classifier_examples():
    cases = [
        (((0, 0), (0, 0)), [2], [[2]]),
        (((-1, 0), (1, 0)), [2], [[1, 1]]),
        (((0, 1), (0, -1)), [1, 1], [[1], [1]]),
    ]
    ok = True
    for pts, beta, gamma in cases:
        out = classify(PointConfiguration(pts))
        ok = ok and out["fnf"]["beta"] == beta and out["fnf"]["gamma"] == gamma
    report(10, "weight-2 configurations hit the three expected FNF labels", ok)


def test_criterion_11_sheaf_corollaries():
    ok = True
    for n in (1, 2, 3):
        rep = constant_sheaf(n, 2)
        ok = ok and validate(rep)["pass"]
        for strat in ("cont", "fnf", "ifnf", "complex"):
            good, _ = is_constructible(rep, strat)
            ok = ok and good

    suite = representation_suite(100, max_n=4)
    counterexamples = 0
    for rep in suite:
        ok = ok and validate(rep)["pass"]
        fnf_ok, _ = is_constructible(rep, "fnf")
        ifnf_ok, _ = is_constructible(rep, "ifnf")
        complex_ok, _ = is_constructible(rep, "complex")
        if complex_ok != (fnf_ok and ifnf_ok):
            counterexamples += 1
    ok = ok and counterexamples == 0

    # the consistent zero-map counterexample on weight 2
    poset = build_poset(2)
    idx = poset.element_index
    eye, zero = [[Fraction(1)]], [[Fraction(0)]]
    maps = {
        (idx(ContingencyMatrix([[1, 0], [0, 1]])), idx(ContingencyMatrix([[1, 1]]))): zero,
        (idx(ContingencyMatrix([[0, 1], [1, 0]])), idx(ContingencyMatrix([[1, 1]]))): eye,
        (idx(ContingencyMatrix([[1, 0], [0, 1]])), idx(ContingencyMatrix([[1], [1]]))): eye,
        (idx(ContingencyMatrix([[0, 1], [1, 0]])), idx(ContingencyMatrix([[1], [1]]))): eye,
        (idx(ContingencyMatrix([[1, 1]])), idx(ContingencyMatrix([[2]]))): zero,
        (idx(ContingencyMatrix([[1], [1]])), idx(ContingencyMatrix([[2]]))): zero,
    }
    rep = PosetRepresentation(poset, [1] * 5, maps)
    ok = ok and validate(rep)["pass"]
    ok = ok and not is_constructible(rep, "fnf")[0]
    ok = ok and not is_constructible(rep, "complex")[0]
    ok = ok and is_constructible(rep, "cont")[0]
    report(
        11,
        f"constant sheaves pass; 100-rep suite: {counterexamples} counterexamples; "
        "zero-map rep rejected for fnf/complex, accepted for cont",
        ok,
    )


def test_criterion_12_label_counts_in_closed_form():
    # the raw keys the label reports group on, counted without the
    # union-find or the label objects: p(n) multiplicity partitions and
    # 3^(n-1) FNF and dual FNF labels
    partition_numbers = (1, 2, 3, 5, 7, 11)
    ok = True
    for n in range(1, 7):
        elements = enumerate_cm(n)
        for kinds, expected in (
            ((HORIZONTAL, VERTICAL), partition_numbers[n - 1]),
            ((HORIZONTAL,), 3 ** (n - 1)),
            ((VERTICAL,), 3 ** (n - 1)),
        ):
            _, key = strata._FIBER_KEYS[kinds]
            ok = ok and len({key(m.rows) for m in elements}) == expected
    report(
        12,
        "distinct label keys: p(n) multiplicities, 3^(n-1) FNF and dual FNF (n<=6)",
        ok,
    )


def test_criterion_13_census_by_size_matches_enumeration():
    ok = all(
        count_cm_by_size(n) == Counter((m.p, m.q) for m in enumerate_cm(n))
        for n in range(1, 7)
    )
    report(13, "memoized census by size = (p, q) tally of the enumeration (n<=6)", ok)


def test_criterion_14_poset_memory():
    # the traced peak of building CM_5 and counting its covers: about
    # 1.5 MB with only up kept, 3.3 MB when down and a cover tuple were
    # built as well, 0.28 MB since the census by size counts the covers
    # and the elements wait for their first read; tracemalloc counts this
    # process's allocations alone
    build_poset(2)
    gc.collect()
    tracemalloc.start()
    try:
        covers = len(build_poset(5).covers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    report(14, f"build_poset(5) and its {covers:,} covers peak at {peak:,} < 2.4 MB traced",
           covers == 15912 and peak < 2_400_000)


def test_criterion_15_order_queries_build_no_cover_record():
    # the traced peak of building CM_5, 1,000 seeded order queries of each
    # kind and counting the covers: about 1.24 MB when none of them builds
    # up, 1.51 MB when build_poset built it
    build_poset(2)
    gc.collect()
    tracemalloc.start()
    try:
        poset = build_poset(5)
        rng = random.Random(15)
        elements = poset.elements
        pairs = [(rng.choice(elements), rng.choice(elements)) for _ in range(1000)]
        answers = [
            query(a, b)
            for query in (poset.cm_leq, poset.cm_leq_horizontal, poset.cm_leq_vertical)
            for a, b in pairs
        ]
        covers = len(poset.covers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    report(15, f"build_poset(5), {len(answers):,} order queries and {covers:,} covers "
               f"peak at {peak:,} < 1.35 MB traced",
           covers == 15912 and "up" not in vars(poset) and peak < 1_350_000)


def test_criterion_16_order_queries_on_matrices_build_no_index():
    # the traced peak of building CM_5, 1,000 seeded order queries of each
    # kind on its matrices and counting the covers: about 1.07 MB with the
    # cut masks kept on the matrices and no rows -> index dict, 1.29 MB
    # when build_poset built that dict and a mask list
    build_poset(2)
    gc.collect()
    tracemalloc.start()
    try:
        poset = build_poset(5)
        rng = random.Random(16)
        elements = poset.elements
        pairs = [(rng.choice(elements), rng.choice(elements)) for _ in range(1000)]
        answers = [
            query(a, b)
            for query in (poset.cm_leq, poset.cm_leq_horizontal, poset.cm_leq_vertical)
            for a, b in pairs
        ]
        covers = len(poset.covers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    built = [name for name in ("index", "up", "down") if name in vars(poset)]
    report(16, f"build_poset(5), {len(answers):,} order queries on matrices and "
               f"{covers:,} covers peak at {peak:,} < 1.15 MB traced, building "
               f"{built or 'none'} of index, up and down",
           covers == 15912 and not built and peak < 1_150_000)
