"""The meta-matrix of census counts and its exact identities.

Entry (p, q) of the weight-n meta-matrix counts the p x q contingency
matrices of weight n.  The matrix factors through Pascal, Vandermonde and
Stirling matrices, its determinant has a closed form, and every minor of
every size is strictly positive.  Every claim runs up to n = 40, the one
meta-matrix cap.  Everything below is exact big-integer or rational
arithmetic.
"""

from stochastihedron import (
    det_metamatrix,
    fubini,
    metamatrix,
    stirling_first,
    total_count,
    total_positivity,
    verify_factorizations,
)

print("The weight-3 meta-matrix, counted two independent ways:")
by_census = metamatrix(3, method="enumeration")
by_formula = metamatrix(3, method="inclusion_exclusion")
for row in by_census.entries:
    print(f"  {row}")
print(f"  routes agree: {by_census.entries == by_formula.entries}")

print("\nTotal counts via Stirling and Fubini numbers:")
print(f"  first-kind Stirling row c(3,k): {[stirling_first(3, k) for k in (1, 2, 3)]}")
print(f"  Fubini numbers F(1..3): {[fubini(k) for k in (1, 2, 3)]}")
print(f"  (2*1^2 + 3*3^2 + 1*13^2)/3! = {total_count(3)}")

print("\nDeterminants (closed form vs direct exact determinant):")
for n in range(1, 7):
    rep = det_metamatrix(n)
    print(f"  n={n}: {rep.closed_form}  direct={rep.direct}  equal={rep.equal}")
rep = det_metamatrix(40)
print(f"  n=40: a {len(str(rep.direct))}-digit integer, equal={rep.equal}")

print("\nFactorization identities, exact up to n = 40:")
for n in (2, 6, 12, 40):
    rep = verify_factorizations(n)
    passing = sum(rep["identities"].values())
    print(f"  n={n}: {passing}/{len(rep['identities'])} identities hold, pass={rep['pass']}")

print("\nTotal positivity by Dodgson condensation of the solid minors:")
for n in (1, 2, 3, 4, 5, 6, 40):
    ok, witness = total_positivity(metamatrix(n))
    print(f"  n={n}: all minors positive: {ok}")
ok, witness = total_positivity([[1, 2], [2, 1]])
print(f"  counterexample [[1,2],[2,1]]: {ok}, witness minor {witness}")
