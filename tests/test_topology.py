import itertools
import random
import re
from math import gcd

import pytest

from helpers import complex_from_simplices, homology, order_complex

from stochastihedron import topology
from stochastihedron.contingency import (
    KINDS,
    ContingencyMatrix,
    build_poset,
    count_cm,
    count_cm_by_size,
)
from stochastihedron.counting import f_vector
from stochastihedron.errors import CapacityError, DomainError
from stochastihedron.exactlinalg import determinant, smith_normal_form
from stochastihedron.topology import (
    FinitePoset,
    HomologyProfile,
    check_sphericity,
    lower_interval,
    verify_sphericity,
)


def profile(betti, torsion=None):
    return HomologyProfile.make(betti, torsion or {})


# ---------------------------------------------------------------------------
# homology on reference complexes

def test_empty_complex_is_minus_one_sphere():
    assert homology([]) == HomologyProfile.sphere(-1)


def test_point_is_acyclic():
    assert homology([[(0,)]]) == HomologyProfile.make({}, {})


def test_two_points():
    assert homology([[(0,), (1,)]]) == HomologyProfile.sphere(0)


def test_four_cycle():
    K = complex_from_simplices(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert homology(K) == HomologyProfile.sphere(1)


def test_solid_triangle():
    K = complex_from_simplices(3, [(0, 1, 2)])
    assert sum(map(len, K)) == 7
    assert homology(K) == HomologyProfile.make({}, {})


def test_boundary_of_tetrahedron():
    K = complex_from_simplices(
        4, list(itertools.combinations(range(4), 3))
    )
    assert homology(K) == HomologyProfile.sphere(2)


def test_projective_plane_torsion():
    triangles = [
        (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
        (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
    ]
    prof = homology(complex_from_simplices(6, triangles))
    assert prof.betti_number(1) == 0
    assert prof.torsion_factors(1) == (2,)
    assert prof.betti_number(2) == 0


def test_torus():
    # 7-vertex torus: triangles {i, i+1, i+3} and {i, i+2, i+3} mod 7
    tris = set()
    for i in range(7):
        tris.add(tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))))
        tris.add(tuple(sorted((i, (i + 2) % 7, (i + 3) % 7))))
    prof = homology(complex_from_simplices(7, sorted(tris)))
    assert prof == profile({1: 2, 2: 1})


def test_disjoint_union_of_sphere_and_point():
    simplices = list(itertools.combinations(range(4), 3)) + [(4,)]
    prof = homology(complex_from_simplices(5, simplices))
    assert prof == profile({0: 1, 2: 1})


# ---------------------------------------------------------------------------
# Smith normal form against the gcd-of-minors ladder

def gcd_of_minors_ladder(rows):
    """Independent oracle: k-th invariant factor = d_k / d_{k-1} where d_k
    is the gcd of all k x k minors."""
    nrows, ncols = len(rows), len(rows[0])
    ladder = []
    prev = 1
    for k in range(1, min(nrows, ncols) + 1):
        g = 0
        for rsel in itertools.combinations(range(nrows), k):
            for csel in itertools.combinations(range(ncols), k):
                minor = determinant([[rows[i][j] for j in csel] for i in rsel])
                g = gcd(g, abs(minor))
        if g == 0:
            break
        ladder.append(g // prev)
        prev = g
    return ladder


def test_snf_against_minors_ladder():
    rng = random.Random(20240817)
    for _ in range(60):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        rows = [
            [rng.randint(-5, 5) for _ in range(ncols)] for _ in range(nrows)
        ]
        factors = smith_normal_form(rows)
        assert factors == gcd_of_minors_ladder(rows)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0


def test_snf_known_values():
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[2, 4], [4, 8]]) == [2]
    assert smith_normal_form([[0, 0], [0, 0]]) == []


# ---------------------------------------------------------------------------
# the reduction pipeline against a naive full-matrix computation

def naive_homology(simplices):
    """Reduced homology straight from dense boundary matrices and SNF,
    with no reduction phase at all."""
    f = [len(level) for level in simplices]
    boundaries = {}
    if f:
        boundaries[0] = [[1] * f[0]]  # augmentation onto the empty simplex
    for d in range(1, len(simplices)):
        index = {s: i for i, s in enumerate(simplices[d - 1])}
        matrix = [[0] * f[d] for _ in range(f[d - 1])]
        for j, s in enumerate(simplices[d]):
            for k in range(d + 1):
                matrix[index[s[:k] + s[k + 1 :]]][j] = 1 if k % 2 == 0 else -1
        boundaries[d] = matrix
    factors = {d: smith_normal_form(m) for d, m in boundaries.items()}
    ranks = {d: len(v) for d, v in factors.items()}
    betti = {-1: 1 - ranks.get(0, 0)}
    torsion = {}
    for d in range(len(simplices)):
        betti[d] = f[d] - ranks.get(d, 0) - ranks.get(d + 1, 0)
        big = [x for x in factors.get(d + 1, ()) if x > 1]
        if big:
            torsion[d] = big
    return HomologyProfile.make(betti, torsion)


def test_pipeline_matches_naive_homology_on_random_complexes():
    rng = random.Random(424242)
    for _ in range(40):
        nv = rng.randint(1, 7)
        n_faces = rng.randint(1, 8)
        maximal = [
            tuple(sorted(rng.sample(range(nv), rng.randint(1, min(4, nv)))))
            for _ in range(n_faces)
        ]
        K = complex_from_simplices(nv, maximal)
        assert homology(K) == naive_homology(K)


def test_pipeline_matches_naive_homology_on_known_spaces():
    rp2 = [(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
           (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5)]
    # 7-vertex torus, as in test_torus
    torus = sorted(
        {tuple(sorted((i, (i + a) % 7, (i + 3) % 7)))
         for i in range(7) for a in (1, 2)}
    )
    for maximal, nv in (
        (rp2, 6),
        ([t + (6,) for t in rp2], 7),                    # cone over RP^2
        (torus, 7),
        (list(itertools.combinations(range(5), 4)), 5),  # the 3-sphere
        ([(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)], 6),   # circle + segment
        (rp2 + [(6, 7), (7, 8), (6, 8)], 10),           # RP^2 + circle + point
        (rp2 + [tuple(v + 6 for v in t) for t in rp2]    # two RP^2 + S^2
         + list(itertools.combinations(range(12, 16), 3)), 16),
    ):
        K = complex_from_simplices(nv, maximal)
        assert homology(K) == naive_homology(K)


def test_disjoint_copies_are_swept_without_snf(monkeypatch):
    # coreductions restart in the second copy, so nothing is left for SNF
    def no_snf(rows):
        raise AssertionError(f"SNF called on {len(rows)} rows")

    monkeypatch.setattr(topology, "smith_normal_form", no_snf)
    poset = build_poset(3)
    K = order_complex(lower_interval(poset, 0, strict=True))
    nv = len(K[0])
    two = [level + [tuple(v + nv for v in s) for s in level] for level in K]
    assert homology(two) == profile({0: 1, 3: 2})


# ---------------------------------------------------------------------------
# order complexes

def test_chain_gives_full_simplex():
    P = FinitePoset("abc", (0b110, 0b100, 0))
    K = order_complex(P)
    assert sum(map(len, K)) == 7
    assert homology(K) == HomologyProfile.make({}, {})


def test_antichain_gives_isolated_vertices():
    P = FinitePoset(("a", "b", "c"), (0, 0, 0))
    K = order_complex(P)
    assert list(map(len, K)) == [3]
    assert homology(K) == profile({0: 2})


def test_cm2_interval_is_a_square_cycle():
    poset = build_poset(2)
    fp = lower_interval(poset, ContingencyMatrix([[2]]), strict=True)
    assert len(fp) == 4
    K = order_complex(fp)
    assert list(map(len, K)) == [4, 4]
    assert homology(K) == HomologyProfile.sphere(1)


def test_interval_below_permutation_matrix_is_empty():
    poset = build_poset(3)
    fp = lower_interval(
        poset, ContingencyMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), strict=True
    )
    assert len(fp) == 0
    assert homology(order_complex(fp)) == HomologyProfile.sphere(-1)


def test_interval_below_tall_column_matrix():
    # the closed interval has 21 elements (1 + 6 + 6 + 1 + 4 + 3 by size
    # block); the strict one drops the matrix itself
    poset = build_poset(3)
    strict = lower_interval(poset, ContingencyMatrix([[2], [1]]), strict=True)
    closed = lower_interval(poset, ContingencyMatrix([[2], [1]]), strict=False)
    assert len(strict) == 20
    assert len(closed) == 21
    assert homology(order_complex(strict)) == HomologyProfile.sphere(2)
    assert homology(order_complex(closed)) == HomologyProfile.make({}, {})


def test_lower_interval_unknown_element():
    poset = build_poset(2)
    with pytest.raises(DomainError):
        lower_interval(poset, ContingencyMatrix([[3]]))


@pytest.mark.parametrize("index", [-1, 5, 99, True, False])
def test_lower_interval_rejects_non_element_indices(index):
    # CM_2 has 5 elements; a bool is not taken as the index 0 or 1
    poset = build_poset(2)
    for strict in (True, False):
        with pytest.raises(DomainError, match="not an element index"):
            lower_interval(poset, index, strict=strict)


# ---------------------------------------------------------------------------
# sphericity and the cell census

@pytest.mark.parametrize("n", [1, 2, 3])
def test_sphericity_small(n):
    report = verify_sphericity(n)
    assert report["pass"]
    assert report["cells_checked"] == count_cm(n)
    assert not report["violations"]


def test_sphericity_report_shape():
    report = verify_sphericity(2)
    row = report["cells"][0]
    assert set(row) >= {"element", "expected_sphere_dim", "homology", "pass"}


def test_sphericity_closed_intervals_are_cones():
    report = verify_sphericity(3)
    assert report["cells_checked"] == 33
    assert all(row["closed_acyclic"] for row in report["cells"])


def test_sphericity_capacity():
    with pytest.raises(CapacityError):
        verify_sphericity(9)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cellular_profiles_match_order_complexes(n):
    # the oracle: every cell's cellular profile equals the homology of the
    # order complex of its strict lower interval
    poset = build_poset(n)
    report = check_sphericity(poset)
    assert report["pass"]
    for i, cell in enumerate(report["cells"]):
        strict = lower_interval(poset, i, strict=True)
        assert cell["homology"] == homology(order_complex(strict)).to_json()


def test_progress_counts_every_cell():
    calls = []
    report = verify_sphericity(3, lambda done, total: calls.append((done, total)))
    assert calls == [(k, 33) for k in range(1, 34)]
    assert report["pass"]


def _element(poset, rows):
    return poset.element_index(ContingencyMatrix(rows))


def _above(poset, y):
    return {m for m in range(len(poset)) if m != y and poset.leq(y, m)}


def _set_down(poset, y, covers):
    poset.down = poset.down[:y] + (tuple(covers),) + poset.down[y + 1 :]


def _violations(report):
    return {tuple(map(tuple, v["element"]["rows"])): v for v in report["violations"]}


def _assert_only_failures(poset, report, y, reason):
    """y fails for ``reason``; every cell above y fails because y did."""
    bad = _violations(report)
    assert not report["pass"]
    assert set(bad) == {poset.elements[m].rows for m in _above(poset, y) | {y}}
    assert re.fullmatch(reason, bad[poset.elements[y].rows]["reason"])
    for m in _above(poset, y):
        row = bad[poset.elements[m].rows]
        assert row["reason"] == "a cell below failed, so its cellular chains do not apply"
        assert row["homology"] is None


def test_flipped_sign_is_a_violation(monkeypatch):
    poset = build_poset(3)
    y = _element(poset, [[2, 0], [0, 1]])
    signs_of = topology._incidence_signs

    def flip_one(poset):
        signs, faults = signs_of(poset)
        signs[y] = (-signs[y][0],) + signs[y][1:]
        return signs, faults

    monkeypatch.setattr(topology, "_incidence_signs", flip_one)
    report = check_sphericity(poset)
    _assert_only_failures(
        poset, report, y, "the incidence signs do not cancel on every diamond"
    )
    # the cell's own interval is still a circle: only its signs are wrong
    assert _violations(report)[((2, 0), (0, 1))]["homology"] == [
        {"degree": 1, "betti": 1, "torsion": []}
    ]


@pytest.mark.parametrize("rows", [[[2, 0], [0, 1]], [[1, 0], [1, 0], [0, 1]]])
def test_dropped_cover_is_a_violation(rows):
    # a rank-2 cell and a rank-1 cell (whose one vertex is left alone)
    poset = build_poset(3)
    y = _element(poset, rows)
    _set_down(poset, y, poset.down[y][1:])
    report = check_sphericity(poset)
    _assert_only_failures(
        poset, report, y, "the incidence signs do not cancel on every diamond"
    )


def test_third_middle_element_is_a_violation():
    poset = build_poset(3)
    y = _element(poset, [[2, 0], [0, 1]])
    vertices = {w for x in poset.down[y] for w in poset.down[x]}
    extra = next(
        x for x in range(len(poset))
        if poset.rank(x) == 1 and not poset.leq(x, y)
        and vertices & set(poset.down[x])
    )
    _set_down(poset, y, poset.down[y] + (extra,))
    report = check_sphericity(poset)
    _assert_only_failures(
        poset, report, y, r"lists a facet .* that is not one of its covers"
    )
    # the walk from y now reaches a cell that is not below it
    assert _violations(report)[((2, 0), (0, 1))]["closed_acyclic"] is False


def test_refused_cover_spoils_closed_acyclic_above_it(monkeypatch):
    # closed_acyclic holds on a cell when M lies above all of P<M, so one
    # cover that leq refuses spoils its cell and every cell above, not one
    # cell alone
    poset = build_poset(3)
    y = _element(poset, [[1, 1], [1, 0]])
    x = poset.down[y][0]
    above = _above(poset, y)
    leq = type(poset).leq

    def refuse_one(self, i, j, kinds=KINDS):
        return (i, j) != (x, y) and leq(self, i, j, kinds)

    monkeypatch.setattr(type(poset), "leq", refuse_one)
    report = check_sphericity(poset)
    spoiled = {m for m, row in enumerate(report["cells"]) if not row["closed_acyclic"]}
    assert len(above) == 3
    assert spoiled == above | {y}


def test_disconnected_facet_graph_is_a_violation():
    # the boundary of y plus that of a bigon with no vertex in common: every
    # vertex still lies on exactly two edges, but the bigon's edges are not
    # covered by y
    poset = build_poset(3)
    y = _element(poset, [[2, 0], [0, 1]])
    other = _element(poset, [[0, 1], [2, 0]])
    _set_down(poset, y, poset.down[y] + poset.down[other])
    report = check_sphericity(poset)
    _assert_only_failures(
        poset, report, y, r"lists a facet .* that is not one of its covers"
    )


def test_closed_form_signs_square_to_zero():
    # every cover is signed, and the boundary of the boundary of every cell
    # vanishes, down to the empty cell below the vertices
    for n in range(1, 6):
        poset = build_poset(n)
        signs, faults = topology._incidence_signs(poset)
        assert not faults
        assert all(len(signs[y]) == len(poset.down[y]) for y in range(len(poset)))
        assert all(
            topology._signs_cancel(poset.down, signs, y) for y in range(len(poset))
        )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_full_poset_is_acyclic(n):
    poset = build_poset(n)
    K = order_complex(lower_interval(poset, 0, strict=False))
    assert homology(K) == HomologyProfile.make({}, {})


def test_f_vector_examples():
    assert f_vector(2) == {0: 2, 1: 2, 2: 1}
    assert f_vector(3) == {0: 6, 1: 12, 2: 10, 3: 4, 4: 1}


def test_f_vector_euler_and_totals():
    for n in range(1, 7):
        fv = f_vector(n)
        assert sum((-1) ** d * c for d, c in fv.items()) == 1
        assert sum(fv.values()) == count_cm(n)


def test_f_vector_total_weight7():
    assert sum(f_vector(7).values()) == 546193


def test_f_vector_is_the_census_by_anti_diagonal():
    # M(n) by inclusion-exclusion against the census of CM_n, summed along
    # p + q = 2n - d
    for n in range(1, 8):
        expected = {}
        for (p, q), c in count_cm_by_size(n).items():
            d = 2 * n - (p + q)
            expected[d] = expected.get(d, 0) + c
        assert f_vector(n) == expected


def test_f_vector_euler_at_the_metamatrix_cap():
    fv = f_vector(40)
    assert list(fv) == list(range(79))
    assert sum((-1) ** d * c for d, c in fv.items()) == 1


def test_homology_profile_json():
    prof = HomologyProfile.make({1: 1}, {0: (2, 4)})
    assert prof.to_json() == [
        {"degree": 0, "betti": 0, "torsion": [2, 4]},
        {"degree": 1, "betti": 1, "torsion": []},
    ]
