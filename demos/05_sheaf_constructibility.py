"""Poset representations and the constructibility criterion.

A representation of the contraction poset assigns a rational vector
space to every matrix and a linear map to every cover, functorially.
Such data is constructible for a coarser stratification exactly when the
maps along the matching anodyne covers are isomorphisms; checking the
complex stratification means checking both kinds at once.
"""

from fractions import Fraction

from stochastihedron import (
    ContingencyMatrix,
    PosetRepresentation,
    build_poset,
    constant_sheaf,
    is_constructible,
    validate,
)

print("The constant sheaf is constructible for every stratification:")
rep = constant_sheaf(2, 1)
print(f"  validation: {validate(rep)['pass']}")
for strat in ("cont", "fnf", "ifnf", "complex"):
    ok, _ = is_constructible(rep, strat)
    print(f"  {strat:8s} -> {ok}")

print("\nA skyscraper at the maximal cell also passes (no anodyne cover")
print("reaches the 1x1 matrix: merged slices there always share support):")
# one dimension at element 0, the 1x1 matrix in canonical order; the JSON
# form leaves out the empty maps at the zero-dimensional spaces
sky = PosetRepresentation.from_json({"n": 3, "spaces": {"0": 1}, "maps": []})
validate(sky)
print(f"  complex-constructible: {is_constructible(sky, 'complex')[0]}")

print("\nZeroing the map along one anodyne horizontal cover (functorially)")
print("kills constructibility for fnf and complex but not for cont:")
poset = build_poset(2)
idx = poset.element_index
eye, zero = [[Fraction(1)]], [[Fraction(0)]]
maps = {
    (idx(ContingencyMatrix([[1, 0], [0, 1]])), idx(ContingencyMatrix([[1, 1]]))): zero,
    (idx(ContingencyMatrix([[0, 1], [1, 0]])), idx(ContingencyMatrix([[1, 1]]))): eye,
    (idx(ContingencyMatrix([[1, 0], [0, 1]])), idx(ContingencyMatrix([[1], [1]]))): eye,
    (idx(ContingencyMatrix([[0, 1], [1, 0]])), idx(ContingencyMatrix([[1], [1]]))): eye,
    (idx(ContingencyMatrix([[1, 1]])), idx(ContingencyMatrix([[2]]))): zero,
    (idx(ContingencyMatrix([[1], [1]])), idx(ContingencyMatrix([[2]]))): zero,
}
rep = PosetRepresentation(poset, [1] * 5, maps)
print(f"  validation: {validate(rep)['pass']}")
for strat in ("cont", "fnf", "ifnf", "complex"):
    ok, witness = is_constructible(rep, strat)
    note = "" if witness is None else f"  witness cover {witness['from']} -> {witness['to']}"
    print(f"  {strat:8s} -> {ok}{note}")
