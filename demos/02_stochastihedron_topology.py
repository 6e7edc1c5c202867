"""The stochastihedron: cell census and sphericity of lower intervals.

The contraction poset of weight-n contingency matrices is the face poset
of a regular cellular ball of dimension 2n-2 (the stochastihedron); the
matrix in position (p, q) labels a cell of dimension 2n-(p+q).  Two
computable consequences are verified here with exact integral homology of
cellular chains, one cell per matrix with its covers as faces: the
boundary of every closed cell is a sphere of the right dimension, and the
census alternates to 1, the Euler characteristic of a ball.
"""

from stochastihedron import (
    ContingencyMatrix,
    build_poset,
    f_vector,
    lower_interval,
    verify_sphericity,
)
from stochastihedron.topology import check_sphericity

print("Cell census by dimension (the weight-2 ball is a bigon):")
for n in (2, 3, 4):
    fv = f_vector(n)
    euler = sum((-1) ** d * c for d, c in fv.items())
    print(f"  n={n}: {fv}   total={sum(fv.values())}  alternating sum={euler}")

# the boundary of the bigon, and of a 3-cell: one hexagon, two squares,
# two bigons, nine edges and six vertices
for n, rows, shape in ((2, [[2]], "a circle"), (3, [[2], [1]], "the 2-sphere")):
    poset = build_poset(n)
    i = poset.element_index(ContingencyMatrix(rows))
    cell = check_sphericity(poset)["cells"][i]
    print(f"\nThe {len(lower_interval(poset, i))} cells below {rows} in weight {n}:")
    print(f"  homology {cell['homology']}  ({shape}: {cell['pass']})")

print("\nFull sphericity sweep by cellular chains for n = 1..4")
print("(`stochastihedron sphericity --n 6` takes under a minute):")
for n in (1, 2, 3, 4):
    rep = verify_sphericity(n)
    print(
        f"  n={n}: {rep['cells_checked']} cells checked, "
        f"violations: {len(rep['violations'])}"
    )
