"""The contingency meta-matrix and its exact identities.

M(n) is the n x n integer matrix whose (p, q) entry counts contingency
matrices of size p x q and weight n.  It sits inside a web of exact
identities tying it to Pascal, Vandermonde and Stirling matrices:

    P M P^t = B                  with B_pq = C(n+pq-1, n),
    M = (1/n!) Q diag(c) Q^t     with Q = P^{-1} V, Q_pk = p! S(k,p),
    V = P diag(1!..n!) S,
    M = (1/n!) S* diag((k!)^2 c) S*^t,
    det M = n! prod c(n,i) / prod C(n,i)    (i = 1..n-1),
    sum M = (1/n!) sum_k c(n,k) F(k)^2,

where c(n,k) are unsigned Stirling numbers of the first kind, S(k,p) of
the second kind, and F the Fubini numbers.  All indices here are 1-based
to match the row/column semantics of the counts; all arithmetic is exact.

M(n) is totally positive: every minor of every size is strictly positive.
``total_positivity`` verifies this literally by scanning all minors.
"""

import itertools
import operator
from fractions import Fraction
from math import comb, factorial

from . import contingency
from .errors import DomainError, exact_ints
from .frozen import Frozen
from .limits import (
    DET_DIRECT_CAP,
    ENUMERATION_CAP,
    METAMATRIX_CAP,
    RATIONAL_IDENTITY_CAP,
    TOTAL_POSITIVITY_CAP,
    guard,
)
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


# ---------------------------------------------------------------------------
# counting primitives

def stirling_first(n, k):
    """Unsigned Stirling number of the first kind, c(n, k).

    Coefficient of x^k in x(x+1)(x+2)...(x+n-1), by polynomial expansion.
    """
    if n < 0 or k < 0:
        raise DomainError("indices must be nonnegative")
    coeffs = [1]  # the empty product
    for m in range(n):
        coeffs = [0] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] += m * coeffs[i + 1]
    return coeffs[k] if k < len(coeffs) else 0


def stirling_second(k, p):
    """Stirling number of the second kind, S(k, p), from the alternating
    sum: sum_i (-1)^(p-i) C(p,i) i^k = S(k,p) p!."""
    if k < 0 or p < 0:
        raise DomainError("indices must be nonnegative")
    if p == 0:
        return 1 if k == 0 else 0
    total = sum((-1) ** (p - i) * comb(p, i) * i**k for i in range(p + 1))
    assert total % factorial(p) == 0
    return total // factorial(p)


def fubini(k):
    """Fubini (ordered Bell) number F(k) = sum_p p! S(k, p)."""
    if k == 0:
        return 1
    return sum(factorial(p) * stirling_second(k, p) for p in range(1, k + 1))


def generalized_count(n, p, q):
    """Matrices of size p x q and weight n with zero rows/columns allowed:
    C(n + pq - 1, n)."""
    if n < 0 or p < 1 or q < 1:
        raise DomainError("need n >= 0 and p, q >= 1")
    return comb(n + p * q - 1, n)


def metamatrix_entry(n, p, q):
    """Count of p x q contingency matrices of weight n by inclusion-exclusion
    over deleted zero rows and columns."""
    return sum(
        (-1) ** (i + j + p + q)
        * comb(p, i)
        * comb(q, j)
        * comb(n + i * j - 1, n)
        for i in range(1, p + 1)
        for j in range(1, q + 1)
    )


# ---------------------------------------------------------------------------
# the meta-matrix itself

class MetaMatrix(Frozen):
    __slots__ = ("n", "entries")  # entries[p-1][q-1], 1-based sizes

    def __init__(self, n, entries):
        entries = tuple(map(exact_ints, entries))
        if len(entries) != n or any(len(row) != n for row in entries):
            raise DomainError(f"meta-matrix of weight {n} must be {n}x{n}")
        if any(entries[i][j] != entries[j][i] for i in range(n) for j in range(i)):
            raise DomainError("meta-matrix must be symmetric")
        if entries[0][0] != 1 or entries[n - 1][n - 1] != factorial(n):
            raise DomainError("corner counts are wrong for a meta-matrix")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", entries)

    def entry(self, p, q):
        """1-based access: the number of p x q matrices."""
        return self.entries[p - 1][q - 1]

    def total(self):
        return sum(sum(row) for row in self.entries)

    def to_csv(self):
        return "\n".join(",".join(str(x) for x in row) for row in self.entries) + "\n"

    def to_json(self):
        return {"n": self.n, "entries": [list(r) for r in self.entries]}


def metamatrix(n, method="inclusion_exclusion"):
    """M(n) by either route; both must agree (tested against each other)."""
    if n < 1:
        raise DomainError(f"weight must be positive, got {n}")
    if method == "inclusion_exclusion":
        guard(n, METAMATRIX_CAP, "meta-matrix by inclusion-exclusion")
        rows = tuple(
            tuple(metamatrix_entry(n, p, q) for q in range(1, n + 1))
            for p in range(1, n + 1)
        )
    elif method == "enumeration":
        guard(n, ENUMERATION_CAP, "meta-matrix by enumeration")
        counts = contingency.count_cm_by_size(n)
        rows = tuple(
            tuple(counts[(p, q)] for q in range(1, n + 1)) for p in range(1, n + 1)
        )
    else:
        raise DomainError(f"unknown method {method!r}")
    return MetaMatrix(n, rows)


def total_count(n):
    """sum over p, q of the (p, q) counts, via Stirling/Fubini numbers.

    Evaluates two independent closed forms and insists they agree:
    (1/n!) sum_k c(n,k) F(k)^2, and the double alternating binomial sum
    obtained by summing the inclusion-exclusion entry formula over all
    p, q <= n, which collapses to u^t B u with u_i = sum_p (-1)^(p-i) C(p,i).
    """
    if n < 1:
        raise DomainError(f"weight must be positive, got {n}")
    by_fubini = sum(
        stirling_first(n, k) * fubini(k) ** 2 for k in range(1, n + 1)
    )
    assert by_fubini % factorial(n) == 0
    by_fubini //= factorial(n)
    u = [
        sum((-1) ** (p - i) * comb(p, i) for p in range(i, n + 1))
        for i in range(1, n + 1)
    ]
    by_alternating = sum(
        u[i - 1] * u[j - 1] * comb(n + i * j - 1, n)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    )
    if by_fubini != by_alternating:
        raise ArithmeticError(
            f"total-count routes disagree at n={n}: {by_fubini} vs {by_alternating}"
        )
    return by_fubini


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
    determinant of the inclusion-exclusion matrix (for n within cap)."""
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
    if n <= DET_DIRECT_CAP:
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
