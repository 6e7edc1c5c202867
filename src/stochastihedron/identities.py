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
``total_positivity`` verifies this literally by scanning all minors.
"""

import itertools
import operator
from fractions import Fraction
from math import comb, factorial

from .counting import MetaMatrix, metamatrix, stirling_first, stirling_second
from .errors import DomainError
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
from .limits import (
    DET_DIRECT_CAP,
    RATIONAL_IDENTITY_CAP,
    TOTAL_POSITIVITY_CAP,
    effective_cap,
    guard,
)


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
    if n < 1:
        raise DomainError(f"weight must be positive, got {n}")
    guard(n, RATIONAL_IDENTITY_CAP, "rational identity verification")
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
    # direct is an int, or None when the direct route is skipped; equal is
    # a bool, or None when not compared
    __slots__ = ("n", "closed_form", "direct", "integral", "equal")

    def __init__(self, n, closed_form, direct, integral, equal):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "closed_form", closed_form)
        object.__setattr__(self, "direct", direct)
        object.__setattr__(self, "integral", integral)
        object.__setattr__(self, "equal", equal)


def det_metamatrix(n):
    """det M(n) two ways: the Stirling closed form, and a direct exact
    determinant of the inclusion-exclusion matrix (for n within the
    direct cap, which ``CONTINGENCY_MAX_N`` raises)."""
    if n < 1:
        raise DomainError(f"weight must be positive, got {n}")
    guard(n, RATIONAL_IDENTITY_CAP, "meta-matrix determinant (closed form)")
    num = factorial(n)
    for i in range(1, n):
        num *= stirling_first(n, i)
    den = 1
    for i in range(1, n):
        den *= comb(n, i)
    closed = Fraction(num, den)
    direct = None
    equal = None
    if n <= effective_cap(DET_DIRECT_CAP):
        direct = determinant([list(r) for r in metamatrix(n).entries])
        equal = closed == direct
    return DetReport(
        n=n,
        closed_form=closed,
        direct=direct,
        integral=closed.denominator == 1,
        equal=equal,
    )


def guard_positivity_scan(n):
    """Refuse an all-minors scan of an n x n matrix above the cap; callers
    that would build the matrix first call it before building."""
    guard(n, TOTAL_POSITIVITY_CAP, "all-minors positivity scan")


def total_positivity(matrix):
    """Scan every minor of every size; strict positivity of all of them.

    Accepts a MetaMatrix or a plain square grid of integers; a float,
    string or Fraction entry raises DomainError.  Returns (is_tp, witness)
    where witness names the first nonpositive minor in scan order
    (size ascending, then row set, then column set; 1-based indices).
    """
    grid = matrix.entries if isinstance(matrix, MetaMatrix) else matrix
    try:
        grid = [list(map(operator.index, r)) for r in grid]
    except TypeError as exc:
        raise DomainError(f"entries must be integers: {exc}") from exc
    n = len(grid)
    if n == 0 or any(len(r) != n for r in grid):
        raise DomainError("total positivity test needs a square matrix")
    guard_positivity_scan(n)
    idx = range(n)
    for k in range(1, n + 1):
        for rows_sel in itertools.combinations(idx, k):
            for cols_sel in itertools.combinations(idx, k):
                minor = determinant(
                    [[grid[i][j] for j in cols_sel] for i in rows_sel]
                )
                if minor <= 0:
                    witness = {
                        "rows": tuple(i + 1 for i in rows_sel),
                        "cols": tuple(j + 1 for j in cols_sel),
                        "value": minor,
                    }
                    return False, witness
    return True, None
