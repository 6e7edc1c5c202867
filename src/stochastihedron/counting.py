"""The census of contingency matrices by size, in closed form.

M(n) is the n x n integer matrix whose (p, q) entry counts contingency
matrices of size p x q and weight n.  Each entry is an inclusion-exclusion
sum of binomials over the zero rows and columns a p x q grid may have;
all n^2 of them at once are the product S B S^t, with B_ij = C(n+ij-1, n)
and S_pi = (-1)^(p+i) C(p, i), so M(n) takes O(n^3) operations on big
integers.  Its total has a closed form in Stirling and Fubini numbers:

    sum M = (1/n!) sum_k c(n,k) F(k)^2,

where c(n,k) are unsigned Stirling numbers of the first kind and F the
Fubini numbers.  Summed along its anti-diagonals p + q = 2n - d, M(n)
gives the cell census (f-vector) of the stochastihedron.  All indices are
1-based to match the row/column semantics of the counts; all arithmetic
is over the integers.

The factorization identities, the determinant and total positivity of
M(n) live in ``identities``.
"""

from math import comb, factorial
from operator import mul

from .errors import DomainError, exact_grid, positive_weight
from .frozen import Frozen
from .limits import ENUMERATION_CAP, METAMATRIX_CAP, guard


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


# ---------------------------------------------------------------------------
# the meta-matrix itself

class MetaMatrix(Frozen):
    __slots__ = ("n", "entries")  # entries[p-1][q-1], 1-based sizes

    def __init__(self, n, entries):
        n = positive_weight(n)
        entries = exact_grid(entries)
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
    n = positive_weight(n)
    if method == "inclusion_exclusion":
        guard(n, METAMATRIX_CAP, "meta-matrix by inclusion-exclusion")
        # S B S^t; row p of S stops at i = p, as C(p, i) = 0 past it
        r = range(1, n + 1)
        signed = [[(-1) ** (p + i) * comb(p, i) for i in range(1, p + 1)] for p in r]
        columns = [[comb(n + i * j - 1, n) for i in r] for j in r]  # of B
        half = [[sum(map(mul, s, col)) for col in columns] for s in signed]
        rows = tuple(tuple(sum(map(mul, s, h)) for s in signed) for h in half)
    elif method == "enumeration":
        guard(n, ENUMERATION_CAP, "meta-matrix by enumeration")
        from .contingency import count_cm_by_size

        counts = count_cm_by_size(n)
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
    n = positive_weight(n)
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


def f_vector(n):
    """Cell census of the weight-n stochastihedron: how many matrices sit
    in each cell dimension 2n-(p+q), summed off M(n) by inclusion-exclusion
    along the anti-diagonals p + q = 2n - d."""
    entries = metamatrix(n).entries
    out = {}
    for p, row in enumerate(entries, 1):
        for q, c in enumerate(row, 1):
            d = 2 * n - (p + q)
            out[d] = out.get(d, 0) + c
    return dict(sorted(out.items()))
