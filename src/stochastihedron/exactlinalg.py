"""Exact dense linear algebra over the integers and rationals.

Everything here is sign-exact: determinants use fraction-free Bareiss
elimination over the integers, and Smith normal form
works over arbitrary-precision integers with pivoting on the smallest
nonzero entry to keep coefficients from exploding.
"""

import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from .errors import DomainError


def parse_rational(value):
    """An exact rational from a JSON number or string ("3", "-1/2", "1.5e-3").

    A decimal that takes more digits written out (mantissa digits plus
    |exponent|) than Python's int-string limit is refused before
    ``Fraction`` builds its power of ten: a report could not print it, and
    a power like 10**999999999 takes minutes or more.  Raises ValueError
    (or ZeroDivisionError for "1/0") on anything else ``Fraction`` refuses.
    """
    text = str(value)
    try:
        _, digits, exponent = Decimal(text).as_tuple()
    except InvalidOperation:  # fractions such as "1/2"
        digits, exponent = (), 0
    limit = sys.get_int_max_str_digits()
    if isinstance(exponent, int) and limit and len(digits) + abs(exponent) > limit:
        raise ValueError(f"decimal takes more than {limit} digits written out")
    return Fraction(text)


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def diagonal(entries):
    n = len(entries)
    return [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    if not a or not b:
        raise DomainError("cannot multiply empty matrices")
    if len(a[0]) != len(b):
        raise DomainError(f"shape mismatch: {len(a)}x{len(a[0])} times {len(b)}x{len(b[0])}")
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_transpose(a):
    return [list(col) for col in zip(*a)]


def mat_scale(scalar, a):
    return [[scalar * x for x in row] for row in a]


def mat_eq(a, b):
    if len(a) != len(b) or any(len(r) != len(s) for r, s in zip(a, b)):
        return False
    return all(x == y for r, s in zip(a, b) for x, y in zip(r, s))


def is_upper_triangular(a):
    return all(a[i][j] == 0 for i in range(len(a)) for j in range(i))


def determinant(rows):
    """Exact determinant of an integer matrix by fraction-free Bareiss
    elimination; every division is exact by construction."""
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise DomainError("determinant needs a nonempty square matrix")
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def smith_normal_form(rows):
    """Invariant factors of an integer matrix, in divisibility order.

    Pivots on the smallest nonzero absolute value, clears its row and
    column by Euclidean steps, and forces the divisibility chain by
    folding any non-divisible entry into the pivot row.
    """
    if not rows or not rows[0]:
        return []
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0])
    factors = []
    t = 0
    while t < nrows and t < ncols:
        # locate the smallest nonzero entry of the trailing submatrix
        best = None
        for i in range(t, nrows):
            row = m[i]
            for j in range(t, ncols):
                x = row[j]
                if x != 0 and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
                    if best[0] == 1:
                        break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            m[bi], m[t] = m[t], m[bi]
        if bj != t:
            for row in m:
                row[bj], row[t] = row[t], row[bj]

        while True:
            pivot = m[t][t]
            dirty = False
            for i in range(t + 1, nrows):
                if m[i][t] != 0:
                    qv = m[i][t] // pivot
                    if qv:
                        m[i] = [x - qv * y for x, y in zip(m[i], m[t])]
                    if m[i][t] != 0:
                        m[i], m[t] = m[t], m[i]
                        dirty = True
                        pivot = m[t][t]
            for j in range(t + 1, ncols):
                if m[t][j] != 0:
                    qv = m[t][j] // pivot
                    if qv:
                        for row in m:
                            row[j] -= qv * row[t]
                    if m[t][j] != 0:
                        for row in m:
                            row[j], row[t] = row[t], row[j]
                        dirty = True
                        pivot = m[t][t]
            if not dirty:
                break

        pivot = m[t][t]
        offender = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if m[i][j] % pivot:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            m[t] = [x + y for x, y in zip(m[t], m[offender])]
            continue
        factors.append(abs(pivot))
        t += 1
    return factors
