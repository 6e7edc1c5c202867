"""The stochastihedron: cell census and sphericity of lower intervals.

The contraction poset of weight-n contingency matrices is the face poset
of a regular cellular ball of dimension 2n-2 (the stochastihedron); the
matrix in position (p, q) labels a cell of dimension 2n-(p+q).  Two
computable consequences are verified here with exact integral homology:
the boundary of every closed cell is a sphere of the right dimension,
and the whole complex is contractible.
"""

from stochastihedron import (
    ContingencyMatrix,
    HomologyProfile,
    build_poset,
    f_vector,
    homology,
    lower_interval,
    order_complex,
    verify_sphericity,
)

print("Cell census by dimension (the weight-2 ball is a bigon):")
for n in (2, 3, 4):
    fv = f_vector(n)
    euler = sum((-1) ** d * c for d, c in fv.items())
    print(f"  n={n}: {fv}   total={sum(fv.values())}  alternating sum={euler}")

print("\nThe strict lower interval of the 1x1 matrix (2) is a 4-cycle:")
poset = build_poset(2)
complex_ = order_complex(lower_interval(poset, ContingencyMatrix([[2]])))
sizes = {d: len(level) for d, level in enumerate(complex_.simplices)}
print(f"  f-vector {sizes}")
print(f"  homology {homology(complex_).to_json()}  (a circle)")

print("\nThe interval below [[2],[1]] in weight 3 (a 3-cell with 20 boundary")
print("cells: one hexagon, two squares, two bigons, nine edges, six vertices):")
poset3 = build_poset(3)
strict = lower_interval(poset3, ContingencyMatrix([[2], [1]]), strict=True)
prof = homology(order_complex(strict))
print(f"  {len(strict)} elements below; homology {prof.to_json()}")
print(f"  equals the 2-sphere: {prof == HomologyProfile.sphere(2)}")

print("\nFull sphericity sweep by cellular chains for n = 1..4")
print("(`stochastihedron sphericity --n 6` takes under a minute):")
for n in (1, 2, 3, 4):
    rep = verify_sphericity(n)
    print(
        f"  n={n}: {rep['cells_checked']} cells checked, "
        f"violations: {len(rep['violations'])}"
    )
