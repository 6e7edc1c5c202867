"""Walk through the census of contingency matrices of small weight.

A contingency matrix is a nonnegative integer grid with no zero row or
column; its weight is the sum of all entries.  This script enumerates
them, shows the margins and the contraction moves, and lists the matrices
of two fixed margins, one for each double coset of the symmetric group.
"""

from stochastihedron import (
    HORIZONTAL,
    VERTICAL,
    contract,
    count_cm,
    enumerate_cm,
    margins,
)


def show(matrix):
    return "[" + "; ".join(" ".join(str(x) for x in row) for row in matrix.rows) + "]"


print("All contingency matrices of weight 2:")
for m in enumerate_cm(2):
    weight, hor, ver = margins(m)
    print(f"  {show(m):24s} margins: rows={hor.parts} cols={ver.parts}")

print("\nContractions of the 2x2 identity matrix:")
m = enumerate_cm(2)[-1]
print(f"  start:            {show(m)}")
print(f"  merge rows 0,1:   {show(contract(m, HORIZONTAL, 0))}")
print(f"  merge cols 0,1:   {show(contract(m, VERTICAL, 0))}")

print("\nCensus sizes (matching the closed formulas, see demo 03):")
for n in range(1, 8):
    print(f"  weight {n}: {count_cm(n):>8,} matrices")

print("\nWith both margins fixed to (2,1) there are exactly two matrices,")
print("one for each double coset of S_2 x S_1 in S_3:")
for m in enumerate_cm(alpha=(2, 1), beta=(2, 1)):
    print(f"  {show(m)}")
print("  (tests/test_contingency.py::test_double_cosets_match_census counts the")
print("  double cosets inside S_n for every margin pair up to n = 4)")
