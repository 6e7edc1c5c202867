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

Each cover map is stored once, as a primitive integer matrix with one
positive denominator: the rational matrix A/d, with d the lcm of its
entries' denominators.  Diamonds are compared by cross-multiplication and
invertibility by integer Bareiss elimination, so no ``Fraction`` is built
on the hot paths; ``map_for`` gives the rational matrix back.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm
from numbers import Rational
from operator import mul

from .contingency import CmPoset, build_poset
from .errors import DomainError, StructuralError, exact_ints
from .limits import CONSTANT_SHEAF_CAP, SHEAF_DIM_CAP, STRATIFICATIONS, census_guard, guard
from .exactlinalg import determinant, parse_rational


class PosetRepresentation:
    """Spaces (dimensions) per element of a CmPoset, matrices per cover.

    The matrix on a cover (child, parent) has shape dim(parent) x dim(child)
    and maps the child's space to the parent's.  The constructor takes
    exact entries only, each an int or a Fraction (``numbers.Rational``): a
    float, string or None raises ``StructuralError``, and ``from_json``
    parses text into Fractions first.  ``cover_maps`` holds each map
    as ``(rows, den)``, a tuple of integer row tuples and the positive lcm
    of the entries' denominators, so equal rational maps are stored equal.
    ``map_for`` returns the map as a matrix of Fractions.
    """

    def __init__(self, poset, dims, cover_maps):
        if not isinstance(poset, CmPoset):
            raise StructuralError("representation needs a CmPoset base")
        self.poset = poset
        self.dims = exact_ints(dims, StructuralError)
        if len(self.dims) != len(poset):
            raise StructuralError(
                f"need one dimension per element ({len(poset)}), got {len(self.dims)}"
            )
        if any(d < 0 for d in self.dims):
            raise StructuralError("dimensions must be nonnegative")
        # runs of covers often share one matrix object (constant_sheaf
        # passes one for all of them): convert it once, store it shared
        self.cover_maps = {}
        last = object()  # no map is this one: the first map is converted
        for pair, matrix in cover_maps.items():
            if matrix is not last:
                last, stored = matrix, _integral(matrix, pair)
            self.cover_maps[pair] = stored
        self.validated = False

    def _stored(self, child, parent):
        try:
            return self.cover_maps[(child, parent)]
        except KeyError:
            raise StructuralError(f"no map stored for cover {child} -> {parent}")

    def map_for(self, child, parent):
        """The map on a cover as a tuple of Fraction row tuples."""
        rows, den = self._stored(child, parent)
        return tuple(tuple(Fraction(x, den) for x in row) for row in rows)

    def to_json(self):
        return {
            "n": self.poset.n,
            "spaces": {str(i): d for i, d in enumerate(self.dims)},
            "maps": [
                {
                    "from": child,
                    "to": parent,
                    "matrix": _texts(rows, den),
                }
                for (child, parent), (rows, den) in sorted(self.cover_maps.items())
            ],
        }

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict) or "n" not in data or not isinstance(
            data.get("spaces"), dict
        ):
            raise StructuralError('representation JSON needs "n" and a "spaces" object')
        poset = build_poset(_json_int(data["n"], '"n"'))
        dims = [0] * len(poset)
        for key, value in data["spaces"].items():
            i = _json_int(key, "space key", key=True)
            if not 0 <= i < len(poset):
                raise StructuralError(f"space index {i} out of range")
            dims[i] = _json_int(value, f"dimension of space {i}")
            guard(dims[i], SHEAF_DIM_CAP, f"dimension of space {i}")
        items = data.get("maps", [])
        if not isinstance(items, list):
            raise StructuralError('"maps" must be a list')
        maps = {}
        parsed = {}  # entry text -> Fraction; matrices repeat few entries
        for item in items:
            if not isinstance(item, dict) or {"from", "to", "matrix"} - item.keys():
                raise StructuralError('every map needs "from", "to" and "matrix"')
            child = _json_int(item["from"], '"from"')
            parent = _json_int(item["to"], '"to"')
            pair = child, parent
            # the range check first: a negative child would index from the end
            if not 0 <= child < len(poset) or parent not in poset.up[child]:
                raise StructuralError(f"map {child} -> {parent} is not on a cover")
            if pair in maps:
                raise StructuralError(f"duplicate map for cover {child} -> {parent}")
            matrix = item["matrix"]
            if not isinstance(matrix, list) or not all(
                isinstance(row, list) for row in matrix
            ):
                raise StructuralError(
                    f"matrix for map {child} -> {parent} must be a list of lists"
                )
            try:
                maps[pair] = [[_parse(x, parsed) for x in row] for row in matrix]
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise StructuralError(f"bad matrix for map {pair}: {exc}") from exc
        # implicit empty matrices wherever one endpoint is 0-dimensional
        for child, parents in enumerate(poset.up):
            for parent in parents:
                if (child, parent) in maps:
                    continue
                if dims[child] and dims[parent]:
                    raise StructuralError(f"missing map for cover {child} -> {parent}")
                maps[(child, parent)] = [[] for _ in range(dims[parent])]
        return cls(poset, dims, maps)


def _parse(value, parsed):
    """parse_rational(value), once per distinct text."""
    text = str(value)
    if text not in parsed:
        parsed[text] = parse_rational(text)
    return parsed[text]


def _exact(x):
    """An entry that is not an int or a Fraction: another
    ``numbers.Rational`` as a Fraction; anything else is refused."""
    if isinstance(x, Rational):
        return Fraction(x)
    raise StructuralError(f"map entries must be ints or Fractions, got {x!r}")


def _integral(matrix, pair):
    """(rows, den) with rows / den equal to the matrix on the cover pair;
    den is the lcm of the entries' denominators, so the pair is primitive.
    A matrix that is not a grid of rows raises ``StructuralError``."""
    try:
        entries = [
            [x if isinstance(x, (int, Fraction)) else _exact(x) for x in row]
            for row in matrix
        ]
    except TypeError:
        raise StructuralError(
            f"map for cover {pair[0]} -> {pair[1]} must be a grid of rows"
        ) from None
    den = lcm(*[x.denominator for row in entries for x in row])
    rows = tuple(
        [tuple([x.numerator * (den // x.denominator) for x in row]) for row in entries]
    )
    return rows, den


def _texts(rows, den):
    """The entries of rows / den as the strings of their Fractions."""
    if den == 1:
        return [list(map(str, row)) for row in rows]
    return [[str(Fraction(x, den)) for x in row] for row in rows]


def _json_int(value, what, key=False):
    """An integer from JSON: an int that is not a bool, or, for an object
    ``key``, which JSON writes as a string, also a decimal string."""
    if isinstance(value, (int, str) if key else int) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise StructuralError(f"{what} must be an integer, got {value!r}")


def constant_sheaf(n, dim):
    """Every space of the same dimension, every cover map the identity."""
    n = census_guard(n, CONSTANT_SHEAF_CAP, "constant sheaf construction")
    (dim,) = exact_ints((dim,))
    if dim < 0:
        raise DomainError("dimension must be nonnegative")
    guard(dim, SHEAF_DIM_CAP, "constant sheaf dimension")
    poset = build_poset(n)
    eye = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    maps = {(c, p): eye for c, parents in enumerate(poset.up) for p in parents}
    return PosetRepresentation(poset, [dim] * len(poset), maps)


def _product(a, b, cols_n):
    """Integer product a . b; cols_n keeps the shape when b has no rows."""
    if not b:
        return tuple((0,) * cols_n for _ in a)
    columns = list(zip(*b))
    return tuple([tuple([sum(map(mul, row, col)) for col in columns]) for row in a])


def _differ(left, left_scale, right, right_scale):
    """Whether left / left_scale and right / right_scale differ, compared
    as right_scale * left against left_scale * right."""
    if left_scale == right_scale:
        return left != right
    return any(
        right_scale * x != left_scale * y
        for row_l, row_r in zip(left, right)
        for x, y in zip(row_l, row_r)
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
    for child, parents in enumerate(poset.up):
        for parent in parents:
            rows, _ = rep._stored(child, parent)
            if len(rows) != dims[parent] or any(len(r) != dims[child] for r in rows):
                want = [dims[parent], dims[child]]
                shape_failures.append({"from": child, "to": parent, "want": want})
    if shape_failures:
        raise StructuralError(f"cover maps with wrong shapes: {shape_failures}")

    maps = rep.cover_maps
    diamond_failures = []
    for bottom in range(len(poset)):
        ups = [(a, set(poset.up[a])) for a in poset.up[bottom]]
        for (a, tops_a), (b, tops_b) in combinations(ups, 2):
            for top in sorted(tops_a & tops_b):
                a1, d1 = maps[(a, top)]
                b1, e1 = maps[(bottom, a)]
                a2, d2 = maps[(b, top)]
                b2, e2 = maps[(bottom, b)]
                cols_n = dims[bottom]
                if _differ(
                    _product(a1, b1, cols_n), d1 * e1,
                    _product(a2, b2, cols_n), d2 * e2,
                ):
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


def _is_isomorphism(rows, dim_to, dim_from):
    """Whether a stored map is invertible; its denominator does not matter,
    so integer Bareiss runs on its integer rows."""
    if dim_to != dim_from:
        return False
    return dim_to == 0 or determinant(rows) != 0


def is_constructible(rep, strat):
    """Whether a validated representation is constructible for the given
    stratification; returns (ok, witness), the witness naming the first
    anodyne cover whose map fails to be invertible.  The walk over the
    anodyne covers stops at that witness."""
    if strat not in STRATIFICATIONS:
        raise DomainError(f"stratification must be one of {tuple(STRATIFICATIONS)}")
    if not rep.validated:
        raise StructuralError("validate() the representation first")
    for child, parent, kind, pos in rep.poset.anodyne_covers(STRATIFICATIONS[strat]):
        rows, _ = rep._stored(child, parent)
        if not _is_isomorphism(rows, rep.dims[parent], rep.dims[child]):
            witness = {
                "from": child,
                "to": parent,
                "kind": kind,
                "pos": pos,
                "dims": [rep.dims[child], rep.dims[parent]],
            }
            return False, witness
    return True, None
