import itertools
import random
from fractions import Fraction
from math import comb, factorial

import pytest
from helpers import all_minors_scan, metamatrix_entry

from stochastihedron.contingency import count_cm, enumerate_cm
from stochastihedron.errors import CapacityError, DomainError
from stochastihedron.exactlinalg import determinant
from stochastihedron.counting import (
    MetaMatrix,
    f_vector,
    fubini,
    metamatrix,
    stirling_first,
    stirling_second,
    total_count,
)
from stochastihedron.identities import (
    BINOMIAL,
    det_metamatrix,
    structured_matrix,
    total_positivity,
    verify_factorizations,
)

M3 = ((1, 2, 1), (2, 8, 6), (1, 6, 6))


# ---------------------------------------------------------------------------
# counting primitives

def set_partitions_into(k, p):
    """Brute-force oracle: partitions of {0..k-1} into exactly p blocks."""
    if p == 0:
        return 1 if k == 0 else 0
    count = 0
    for assignment in itertools.product(range(p), repeat=k):
        if len(set(assignment)) != p:
            continue
        # normalize: block labels must appear in first-use order
        order = []
        for a in assignment:
            if a not in order:
                order.append(a)
        if order == sorted(order):
            count += 1
    return count


def test_stirling_first_examples():
    assert [stirling_first(3, k) for k in (1, 2, 3)] == [2, 3, 1]
    assert stirling_first(3, 0) == 0
    assert stirling_first(0, 0) == 1
    assert stirling_first(4, 2) == 11
    # row sums are factorials: evaluate the rising factorial at x = 1
    for n in range(1, 9):
        assert sum(stirling_first(n, k) for k in range(n + 1)) == factorial(n)


def test_stirling_second_against_brute_force():
    for k in range(0, 7):
        for p in range(0, k + 1):
            assert stirling_second(k, p) == set_partitions_into(k, p)
    assert stirling_second(3, 2) == 3
    assert stirling_second(5, 7) == 0


def test_fubini_examples():
    assert [fubini(k) for k in (1, 2, 3)] == [1, 3, 13]
    assert fubini(0) == 1
    assert [fubini(k) for k in (4, 5)] == [75, 541]


def test_generalized_count_examples():
    # B_pq = C(n + pq - 1, n): p x q matrices of weight n, zero rows and
    # columns allowed
    assert structured_matrix(BINOMIAL, 1)[0][0] == 1
    assert structured_matrix(BINOMIAL, 2)[1][1] == 10


def test_generalized_count_vs_weighted_census():
    m2 = metamatrix(2, method="enumeration")
    lhs = sum(
        comb(2, i) * comb(2, j) * m2.entry(i, j)
        for i in (1, 2)
        for j in (1, 2)
    )
    assert lhs == structured_matrix(BINOMIAL, 2)[1][1] == 10
    # sum_ij C(p,i) C(q,j) M_ij = C(n+pq-1, n) on the census route
    for n in range(1, 8):
        m = metamatrix(n, method="enumeration")
        generalized = structured_matrix(BINOMIAL, n)
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                lhs = sum(
                    comb(p, i) * comb(q, j) * m.entry(i, j)
                    for i in range(1, p + 1)
                    for j in range(1, q + 1)
                )
                assert lhs == generalized[p - 1][q - 1]


# ---------------------------------------------------------------------------
# the meta-matrix

def test_metamatrix_3():
    assert metamatrix(3).entries == M3
    assert metamatrix(3, method="enumeration").entries == M3


def test_metamatrix_1():
    assert metamatrix(1).entries == ((1,),)


def test_metamatrix_product_matches_each_entry():
    # S B S^t against the entry-by-entry inclusion-exclusion sum
    for n in range(1, 16):
        assert metamatrix(n).entries == tuple(
            tuple(metamatrix_entry(n, p, q) for q in range(1, n + 1))
            for p in range(1, n + 1)
        )
    m = metamatrix(40)
    for p, q in ((1, 1), (1, 40), (2, 39), (7, 33), (20, 20), (40, 40)):
        assert m.entry(p, q) == metamatrix_entry(40, p, q)


def test_metamatrix_methods_agree():
    for n in range(1, 7):
        assert metamatrix(n).entries == metamatrix(n, "enumeration").entries
    assert metamatrix(4).total() == 281


def test_metamatrix_symmetry_and_corners():
    for n in range(1, 8):
        m = metamatrix(n)
        assert m.entries == tuple(zip(*m.entries))
        assert m.entry(1, 1) == 1
        assert m.entry(n, n) == factorial(n)
    with pytest.raises(DomainError):
        MetaMatrix(2, ((1, 2), (3, 2)))
    with pytest.raises(CapacityError):
        metamatrix(8, method="enumeration")
    with pytest.raises(DomainError):
        metamatrix(3, method="guesswork")


@pytest.mark.parametrize("n", [1.0, "1", None], ids=["float", "str", "None"])
def test_metamatrix_weight_must_be_an_integer(n):
    with pytest.raises(DomainError, match="weight must be an integer"):
        MetaMatrix(n, [[1]])
    assert MetaMatrix(True, [[1]]) == MetaMatrix(1, [[1]])


def test_single_entries_match_census():
    for n in range(1, 6):
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                assert metamatrix_entry(n, p, q) == len(enumerate_cm(n, p=p, q=q))


def test_total_count():
    assert total_count(1) == 1
    assert total_count(3) == 33
    assert total_count(4) == 281
    assert (2 * 1 + 3 * 9 + 1 * 169) // 6 == 33  # the Fubini-square route
    for n in range(1, 8):
        assert total_count(n) == count_cm(n)


# ---------------------------------------------------------------------------
# factorizations and determinants

def test_structured_matrix_shapes():
    p = structured_matrix("pascal", 3)
    assert p == [[1, 0, 0], [2, 1, 0], [3, 3, 1]]
    v = structured_matrix("vandermonde", 3)
    assert v == [[1, 1, 1], [2, 4, 8], [3, 9, 27]]
    s = structured_matrix("stirling_second", 3)
    assert s == [[1, 1, 1], [0, 1, 3], [0, 0, 1]]
    s_star = structured_matrix("stirling_scaled", 3)
    assert s_star[0] == [1, Fraction(1, 2), Fraction(1, 6)]
    with pytest.raises(DomainError):
        structured_matrix("cauchy", 3)
    with pytest.raises(DomainError):
        structured_matrix("diagonal", 3)


@pytest.mark.parametrize("n", list(range(1, 13)))
def test_factorizations_exact(n):
    report = verify_factorizations(n)
    assert report["pass"], report
    assert set(report["identities"]) == {
        "pascal_inverse",
        "pascal_sandwich",
        "stirling_triangular",
        "stirling_diagonal",
        "binomial_diagonalized",
        "meta_diagonalized",
        "vandermonde_gauss",
        "scaled_stirling_gauss",
    }


def test_determinant_sequence():
    values = {n: det_metamatrix(n) for n in range(1, 6)}
    assert [values[n].closed_form for n in (1, 2, 3, 4, 5)] == [1, 1, 4, 99, 20160]
    for n, rep in values.items():
        assert rep.direct == rep.closed_form
        assert rep.equal and rep.integral


def test_pascal_inverse_up_to_20():
    from stochastihedron.exactlinalg import identity, mat_mul

    for n in (5, 13, 20):
        p = structured_matrix("pascal", n)
        p_star = structured_matrix("pascal_inverse", n)
        assert mat_mul(p, p_star) == identity(n)


def test_determinant_direct_and_integrality_ranges():
    # the Bareiss determinant runs at every n up to the meta-matrix cap
    for n in range(1, 41):
        rep = det_metamatrix(n)
        assert rep.direct == rep.closed_form
        assert rep.equal is True and rep.integral
    with pytest.raises(CapacityError, match=r"capped at 40 \(got 41\)"):
        det_metamatrix(41)


@pytest.mark.parametrize(
    "func",
    [metamatrix, total_count, det_metamatrix, verify_factorizations, f_vector],
    ids=lambda f: f.__name__,
)
@pytest.mark.parametrize(
    "n, message",
    [
        (2.5, "weight must be an integer"),
        ("3", "weight must be an integer"),
        (Fraction(3), "weight must be an integer"),
        (None, "weight must be an integer"),
        (0, "weight must be positive, got 0"),
        (-2, "weight must be positive, got -2"),
    ],
    ids=["float", "str", "Fraction", "None", "zero", "negative"],
)
def test_meta_matrix_functions_refuse_a_weight_that_is_not_a_positive_int(
    func, n, message
):
    with pytest.raises(DomainError, match=f"^{message}"):
        func(n)


# ---------------------------------------------------------------------------
# total positivity

def test_total_positivity_metamatrix():
    ok, witness = total_positivity(metamatrix(3))
    assert ok and witness is None
    assert sum(comb(3, k) ** 2 for k in range(1, 4)) == 19  # minors scanned


def test_total_positivity_counterexamples():
    ok, witness = total_positivity([[1, 2], [2, 1]])
    assert not ok
    assert witness == {"rows": (1, 2), "cols": (1, 2), "value": -3}
    ok, witness = total_positivity([[1, 0], [0, 1]])
    assert not ok
    assert witness["value"] == 0 and witness["rows"] == (1,)


def test_total_positivity_guards():
    with pytest.raises(DomainError):
        total_positivity([[1, 2]])
    with pytest.raises(CapacityError, match=r"capped at 40 \(got 41\)"):
        total_positivity([[1] * 41] * 41)
    assert total_positivity([[1] * 40] * 40) == (
        False, {"rows": (1, 2), "cols": (1, 2), "value": 0}
    )


@pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(2), 0.5, 2.0, "2"])
def test_total_positivity_refuses_non_integer_entries(entry):
    # the minors are integer Bareiss determinants: a Fraction would be
    # floor-divided, so any non-integer entry is refused up front
    with pytest.raises(DomainError, match="^entries must be integers"):
        total_positivity([[entry, 1], [1, 1]])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_metamatrix_is_totally_positive(n):
    ok, witness = total_positivity(metamatrix(n))
    assert ok, witness


# ---------------------------------------------------------------------------
# condensation against the all-minors scan

def _same_verdict(grid):
    """Condensation and the scan agree on the verdict and the witness size;
    the witness is a solid block whose determinant is its value, <= 0, and
    it is the scan's own witness whenever that one is solid."""
    got, witness = total_positivity(grid)
    expected, first = all_minors_scan(grid)
    assert got == expected, grid
    if got:
        assert witness is None
        return got
    rows, cols = witness["rows"], witness["cols"]
    assert len(rows) == len(first["rows"]), (grid, witness, first)
    assert rows == tuple(range(rows[0], rows[0] + len(rows)))
    assert cols == tuple(range(cols[0], cols[0] + len(cols)))
    block = [[grid[i - 1][j - 1] for j in cols] for i in rows]
    assert determinant(block) == witness["value"] <= 0
    solid = first["rows"] == tuple(range(first["rows"][0], first["rows"][-1] + 1))
    solid = solid and first["cols"] == tuple(range(first["cols"][0], first["cols"][-1] + 1))
    if solid:
        assert witness == first
    return got


def test_condensation_matches_the_scan_on_metamatrices():
    for n in range(1, 8):
        assert _same_verdict(metamatrix(n).entries)


def test_condensation_matches_the_scan_on_perturbed_metamatrices():
    verdicts = set()
    for n in range(1, 7):
        entries = metamatrix(n).entries
        for p, q in itertools.product(range(n), repeat=2):
            for delta in (1, -1, 100, -100, 10**9, -(10**9)):
                grid = [list(row) for row in entries]
                grid[p][q] += delta
                verdicts.add(_same_verdict(grid))
    assert verdicts == {True, False}


def _random_grid(rng):
    """A small integer grid: uniform entries, a generalized Vandermonde
    grid x_i^y_j (totally positive for increasing x > 0 and y), or one of
    those with one entry moved."""
    n = rng.randint(1, 5)
    kind = rng.randrange(3)
    if kind == 0:
        return [[rng.randint(-1, 6) for _ in range(n)] for _ in range(n)]
    xs = sorted(rng.sample(range(1, 7), n))
    ys = sorted(rng.sample(range(6), n))
    grid = [[x**y for y in ys] for x in xs]
    if kind == 2:
        grid[rng.randrange(n)][rng.randrange(n)] += rng.choice((-20, -5, -1, 1, 5, 20))
    return grid


def test_condensation_matches_the_scan_on_random_grids():
    rng = random.Random(20261020)
    verdicts = [_same_verdict(_random_grid(rng)) for _ in range(1500)]
    assert 300 < sum(verdicts) < 1200
