"""The exact identities of the contingency meta-matrix.

M(n) (see ``counting``) sits inside a web of exact identities tying it to
Pascal, Vandermonde and Stirling matrices:

    P M P^t = B                  with B_pq = C(n+pq-1, n),
    M = (1/n!) Q diag(c) Q^t     with Q = P^{-1} V, Q_pk = p! S(k,p),
    V = P diag(1!..n!) S,
    M = (1/n!) S* diag((k!)^2 c) S*^t,
    det M = n! prod c(n,i) / prod C(n,i)    (i = 1..n-1),

where c(n,k) are unsigned Stirling numbers of the first kind and S(k,p)
of the second kind.  All indices here are 1-based to match the row/column
semantics of the counts; all arithmetic is exact.

M(n) is totally positive: every minor of every size is strictly positive.
By Fekete (1912) it suffices that every solid minor (consecutive rows and
consecutive columns) is, and ``total_positivity`` checks all of them by
Dodgson condensation, each from two sizes below in O(1) big-integer
steps.  Every claim here runs up to the one meta-matrix cap.
"""

from fractions import Fraction
from math import comb, factorial

from .counting import MetaMatrix, metamatrix, stirling_first, stirling_second
from .errors import DomainError, exact_grid, positive_weight
from .exactlinalg import (
    determinant,
    diagonal,
    identity,
    is_upper_triangular,
    mat_eq,
    mat_mul,
    mat_scale,
    mat_transpose,
)
from .frozen import Frozen
from .limits import METAMATRIX_CAP, guard


# ---------------------------------------------------------------------------
# structured matrices

PASCAL = "pascal"
PASCAL_INVERSE = "pascal_inverse"
VANDERMONDE = "vandermonde"
BINOMIAL = "binomial"
STIRLING_SECOND = "stirling_second"
STIRLING_SCALED = "stirling_scaled"


def structured_matrix(kind, n):
    """The named n x n matrix as a list of rows, 1-based indices p, i, k
    in [1, n]:

    pascal          P_pi   = C(p, i)            (unipotent lower triangular)
    pascal_inverse  P*_pi  = (-1)^(p-i) C(p, i)
    vandermonde     V_ik   = i^k
    binomial        B_pq   = C(n + pq - 1, n)   (needs the weight n)
    stirling_second S_pk   = S(k, p)            (unipotent upper triangular)
    stirling_scaled S*_pk  = p! S(k, p) / k!    (rational entries)
    """
    n = positive_weight(n)
    r = range(1, n + 1)
    if kind == PASCAL:
        rows = [[comb(p, i) for i in r] for p in r]
    elif kind == PASCAL_INVERSE:
        # comb(p, i) vanishes above the diagonal; keep the zero an int
        rows = [[(-1) ** abs(p - i) * comb(p, i) for i in r] for p in r]
    elif kind == VANDERMONDE:
        rows = [[i**k for k in r] for i in r]
    elif kind == BINOMIAL:
        rows = [[comb(n + p * q - 1, n) for q in r] for p in r]
    elif kind == STIRLING_SECOND:
        rows = [[stirling_second(k, p) for k in r] for p in r]
    elif kind == STIRLING_SCALED:
        rows = [
            [Fraction(factorial(p) * stirling_second(k, p), factorial(k)) for k in r]
            for p in r
        ]
    else:
        raise DomainError(f"unknown structured matrix kind {kind!r}")
    return rows


# ---------------------------------------------------------------------------
# identity verification

def verify_factorizations(n):
    """Check every factorization identity of M(n) exactly.

    Returns a report dict with one entry per identity; all arithmetic is
    over integers/rationals, so "pass" means exact equality.
    """
    n = positive_weight(n)
    guard(n, METAMATRIX_CAP, "rational identity verification")
    P = structured_matrix(PASCAL, n)
    P_star = structured_matrix(PASCAL_INVERSE, n)
    V = structured_matrix(VANDERMONDE, n)
    B = structured_matrix(BINOMIAL, n)
    S = structured_matrix(STIRLING_SECOND, n)
    S_star = structured_matrix(STIRLING_SCALED, n)
    M = metamatrix(n).entries
    c = [stirling_first(n, k) for k in range(1, n + 1)]
    facts = [factorial(k) for k in range(1, n + 1)]
    inv_nfact = Fraction(1, factorial(n))

    checks = {}
    checks["pascal_inverse"] = mat_eq(mat_mul(P, P_star), identity(n))
    checks["pascal_sandwich"] = mat_eq(mat_mul(mat_mul(P, M), mat_transpose(P)), B)

    Q = mat_mul(P_star, V)
    expected_Q = [
        [factorial(p) * stirling_second(k, p) for k in range(1, n + 1)]
        for p in range(1, n + 1)
    ]
    checks["stirling_triangular"] = is_upper_triangular(Q) and mat_eq(Q, expected_Q)
    checks["stirling_diagonal"] = all(Q[k][k] == facts[k] for k in range(n))

    dc = diagonal(c)
    checks["binomial_diagonalized"] = mat_eq(
        mat_scale(inv_nfact, mat_mul(mat_mul(V, dc), mat_transpose(V))), B
    )
    checks["meta_diagonalized"] = mat_eq(
        mat_scale(inv_nfact, mat_mul(mat_mul(Q, dc), mat_transpose(Q))), M
    )
    checks["vandermonde_gauss"] = mat_eq(
        mat_mul(mat_mul(P, diagonal(facts)), S), V
    )
    d_scaled = diagonal([facts[k] ** 2 * c[k] for k in range(n)])
    checks["scaled_stirling_gauss"] = mat_eq(
        mat_scale(inv_nfact, mat_mul(mat_mul(S_star, d_scaled), mat_transpose(S_star))),
        M,
    )
    return {
        "n": n,
        "identities": {name: bool(ok) for name, ok in checks.items()},
        "pass": all(checks.values()),
    }


class DetReport(Frozen):
    __slots__ = ("n", "closed_form", "direct", "integral", "equal")

    def __init__(self, n, closed_form, direct, integral, equal):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "closed_form", closed_form)
        object.__setattr__(self, "direct", direct)
        object.__setattr__(self, "integral", integral)
        object.__setattr__(self, "equal", equal)


def det_metamatrix(n):
    """det M(n) two ways: the Stirling closed form, and a direct exact
    (Bareiss) determinant of the inclusion-exclusion matrix."""
    n = positive_weight(n)
    guard(n, METAMATRIX_CAP, "meta-matrix determinant (closed form and Bareiss)")
    num = factorial(n)
    for i in range(1, n):
        num *= stirling_first(n, i)
    den = 1
    for i in range(1, n):
        den *= comb(n, i)
    closed = Fraction(num, den)
    direct = determinant([list(r) for r in metamatrix(n).entries])
    return DetReport(
        n=n,
        closed_form=closed,
        direct=direct,
        integral=closed.denominator == 1,
        equal=closed == direct,
    )


def total_positivity(matrix):
    """Strict positivity of every minor, from its solid minors (Fekete).

    Accepts a MetaMatrix or a plain square grid of integers; a float,
    string or Fraction entry raises DomainError.  D_k[i][j], the minor on
    rows i..i+k-1 and columns j..j+k-1, comes from sizes k-1 and k-2 by
    the Desnanot-Jacobi identity (D_0 is all ones):

        D_k[i][j] = (D_{k-1}[i][j] D_{k-1}[i+1][j+1]
                     - D_{k-1}[i][j+1] D_{k-1}[i+1][j]) / D_{k-2}[i+1][j+1].

    Each size is checked whole before the next is built, so every divisor
    is already known positive and each division is exact.  Returns
    (is_tp, witness), the witness the first nonpositive solid minor (size,
    then top row, then left column; 1-based indices).
    """
    grid = exact_grid(matrix.entries if isinstance(matrix, MetaMatrix) else matrix)
    n = len(grid)
    if n == 0 or any(len(r) != n for r in grid):
        raise DomainError("total positivity test needs a square matrix")
    guard(n, METAMATRIX_CAP, "solid-minor positivity by condensation")
    below, minors = [[1] * n] * n, grid
    for k in range(1, n + 1):
        for i, row in enumerate(minors):
            for j, value in enumerate(row):
                if value <= 0:
                    return False, {
                        "rows": tuple(range(i + 1, i + k + 1)),
                        "cols": tuple(range(j + 1, j + k + 1)),
                        "value": value,
                    }
        below, minors = minors, [
            [
                (a * d - b * c) // e
                for a, b, c, d, e in zip(top, top[1:], bottom, bottom[1:], divisors[1:])
            ]
            for top, bottom, divisors in zip(minors, minors[1:], below[1:])
        ]
    return True, None
