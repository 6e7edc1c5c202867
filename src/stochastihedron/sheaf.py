"""Representations of the contraction poset and constructibility checks.

A representation assigns a rational vector space to every matrix in CM_n
and a linear map to every cover (single contraction), subject to the
functor condition: around every diamond of covers the two composites
agree.  Longer generalization maps are composites of cover maps, so the
diamond check pins down the whole functor on this graded poset.

Constructibility with respect to a coarser stratification requires the
map along every anodyne cover of the matching kind to be invertible:
horizontal anodyne covers for the FNF stratification, vertical for the
dual one, both for the complex stratification, and nothing at all for
the contingency stratification itself.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm

from .contingency import HORIZONTAL, VERTICAL, CmPoset, build_poset
from .errors import DomainError, StructuralError
from .limits import CONSTANT_SHEAF_CAP, SHEAF_DIM_CAP, guard
from .exactlinalg import determinant, parse_rational

# stratification -> the kinds of anodyne cover whose maps must be invertible
STRATIFICATIONS = {
    "cont": (),
    "fnf": (HORIZONTAL,),
    "ifnf": (VERTICAL,),
    "complex": (HORIZONTAL, VERTICAL),
}


class PosetRepresentation:
    """Spaces (dimensions) per element of a CmPoset, matrices per cover.

    The matrix on a cover (child, parent) has shape dim(parent) x dim(child)
    and maps the child's space to the parent's.  Entries are Fractions.
    """

    def __init__(self, poset, dims, cover_maps):
        if not isinstance(poset, CmPoset):
            raise StructuralError("representation needs a CmPoset base")
        self.poset = poset
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) != len(poset):
            raise StructuralError(
                f"need one dimension per element ({len(poset)}), got {len(self.dims)}"
            )
        if any(d < 0 for d in self.dims):
            raise StructuralError("dimensions must be nonnegative")
        self.cover_maps = {}
        for (child, parent), matrix in cover_maps.items():
            self.cover_maps[(child, parent)] = tuple(
                tuple(Fraction(x) for x in row) for row in matrix
            )
        self.validated = False

    def map_for(self, child, parent):
        try:
            return self.cover_maps[(child, parent)]
        except KeyError:
            raise StructuralError(f"no map stored for cover {child} -> {parent}")

    def to_json(self):
        return {
            "n": self.poset.n,
            "spaces": {str(i): d for i, d in enumerate(self.dims)},
            "maps": [
                {
                    "from": child,
                    "to": parent,
                    "matrix": [[str(x) for x in row] for row in matrix],
                }
                for (child, parent), matrix in sorted(self.cover_maps.items())
            ],
        }

    @classmethod
    def from_json(cls, data, poset=None):
        if not isinstance(data, dict) or "n" not in data or not isinstance(
            data.get("spaces"), dict
        ):
            raise StructuralError('representation JSON needs "n" and a "spaces" object')
        if poset is None:
            poset = build_poset(_json_int(data["n"], '"n"'))
        dims = [0] * len(poset)
        for key, value in data["spaces"].items():
            i = _json_int(key, "space key")
            if not 0 <= i < len(poset):
                raise StructuralError(f"space index {i} out of range")
            dims[i] = _json_int(value, f"dimension of space {i}")
            guard(dims[i], SHEAF_DIM_CAP, f"dimension of space {i}")
        covers = {(child, parent) for child, parent, _, _ in poset.covers}
        items = data.get("maps", [])
        if not isinstance(items, list):
            raise StructuralError('"maps" must be a list')
        maps = {}
        for item in items:
            if not isinstance(item, dict) or {"from", "to", "matrix"} - item.keys():
                raise StructuralError('every map needs "from", "to" and "matrix"')
            pair = _json_int(item["from"], '"from"'), _json_int(item["to"], '"to"')
            if pair not in covers:
                raise StructuralError(f"map {pair[0]} -> {pair[1]} is not on a cover")
            if pair in maps:
                raise StructuralError(f"duplicate map for cover {pair[0]} -> {pair[1]}")
            matrix = item["matrix"]
            if not isinstance(matrix, list) or not all(
                isinstance(row, list) for row in matrix
            ):
                raise StructuralError(
                    f"matrix for map {pair[0]} -> {pair[1]} must be a list of lists"
                )
            try:
                maps[pair] = [[parse_rational(x) for x in row] for row in matrix]
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise StructuralError(f"bad matrix for map {pair}: {exc}") from exc
        # implicit empty matrices wherever one endpoint is 0-dimensional
        for child, parent, _, _ in poset.covers:
            if (child, parent) not in maps:
                if dims[child] == 0 or dims[parent] == 0:
                    maps[(child, parent)] = [[] for _ in range(dims[parent])]
                else:
                    raise StructuralError(f"missing map for cover {child} -> {parent}")
        return cls(poset, dims, maps)


def _json_int(value, what):
    """An integer from JSON; object keys arrive as decimal strings."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise StructuralError(f"{what} must be an integer, got {value!r}")


def constant_sheaf(n, dim):
    """Every space of the same dimension, every cover map the identity."""
    guard(n, CONSTANT_SHEAF_CAP, "constant sheaf construction")
    if dim < 0:
        raise DomainError("dimension must be nonnegative")
    guard(dim, SHEAF_DIM_CAP, "constant sheaf dimension")
    poset = build_poset(n)
    eye = [
        [Fraction(1) if i == j else Fraction(0) for j in range(dim)]
        for i in range(dim)
    ]
    maps = {(child, parent): eye for child, parent, _, _ in poset.covers}
    return PosetRepresentation(poset, [dim] * len(poset), maps)


def skyscraper(poset, at_index, dim=1):
    """dim at one element, zero elsewhere; empty matrices everywhere."""
    dims = [0] * len(poset)
    dims[at_index] = dim
    maps = {}
    for child, parent, _, _ in poset.covers:
        maps[(child, parent)] = [
            [Fraction(0)] * dims[child] for _ in range(dims[parent])
        ]
    return PosetRepresentation(poset, dims, maps)


def _compose(a, b, rows_n, inner_n, cols_n):
    """Matrix product a . b with explicit shapes, so zero-dimensional
    spaces still produce correctly shaped (empty or zero) composites."""
    return tuple(
        tuple(
            sum((a[i][k] * b[k][j] for k in range(inner_n)), Fraction(0))
            for j in range(cols_n)
        )
        for i in range(rows_n)
    )


def validate(rep):
    """Shape and diamond checks; marks the representation validated.

    Reports every cover whose matrix has the wrong shape and every
    diamond (two cover paths across the same length-2 interval) whose
    composites differ.
    """
    poset = rep.poset
    dims = rep.dims
    shape_failures = []
    for child, parent, _, _ in poset.covers:
        matrix = rep.map_for(child, parent)
        if len(matrix) != dims[parent] or any(
            len(row) != dims[child] for row in matrix
        ):
            shape_failures.append(
                {
                    "from": child,
                    "to": parent,
                    "want": [dims[parent], dims[child]],
                }
            )
    if shape_failures:
        raise StructuralError(f"cover maps with wrong shapes: {shape_failures}")

    diamond_failures = []
    for bottom in range(len(poset)):
        ups = [(a, set(poset.up[a])) for a in poset.up[bottom]]
        for (a, tops_a), (b, tops_b) in combinations(ups, 2):
            for top in sorted(tops_a & tops_b):
                via_a = _compose(
                    rep.map_for(a, top), rep.map_for(bottom, a),
                    dims[top], dims[a], dims[bottom],
                )
                via_b = _compose(
                    rep.map_for(b, top), rep.map_for(bottom, b),
                    dims[top], dims[b], dims[bottom],
                )
                if via_a != via_b:
                    diamond_failures.append(
                        {"bottom": bottom, "top": top, "via": [a, b]}
                    )
    rep.validated = not diamond_failures
    return {
        "n": poset.n,
        "diamonds_failing": diamond_failures,
        "valid": rep.validated,
        "pass": rep.validated,
    }


def _is_isomorphism(matrix, dim_to, dim_from):
    if dim_to != dim_from:
        return False
    if dim_to == 0:
        return True
    # scaling a row by a nonzero integer keeps the determinant (non)zero;
    # the lcm of its denominators makes the row integral, and integer
    # Bareiss is far cheaper than Bareiss on Fractions
    integral = []
    for row in matrix:
        scale = lcm(*(x.denominator for x in row))
        integral.append([x.numerator * (scale // x.denominator) for x in row])
    return determinant(integral) != 0


def is_constructible(rep, strat):
    """Whether a validated representation is constructible for the given
    stratification; returns (ok, witness), the witness naming the first
    anodyne cover whose map fails to be invertible."""
    if strat not in STRATIFICATIONS:
        raise DomainError(f"stratification must be one of {tuple(STRATIFICATIONS)}")
    if not rep.validated:
        raise StructuralError("validate() the representation first")
    for child, parent, kind, pos in rep.poset.anodyne_covers(STRATIFICATIONS[strat]):
        matrix = rep.map_for(child, parent)
        if not _is_isomorphism(matrix, rep.dims[parent], rep.dims[child]):
            witness = {
                "from": child,
                "to": parent,
                "kind": kind,
                "pos": pos,
                "dims": [rep.dims[child], rep.dims[parent]],
            }
            return False, witness
    return True, None
