"""Classifying exact point configurations into the four stratifications.

A point of the n-th symmetric product of the plane is a multiset of n
points with rational coordinates.  Reading off which real parts and which
imaginary parts coincide yields its contingency matrix; coarser labels
forget part of that information:

  contingency cell   the matrix itself                dimension p + q
  FNF cell           [beta : gamma], beta the column  dimension l(beta)
                     margin, gamma the compressed       + l(gamma)
                     columns (per imaginary line)
  dual FNF cell      same with the roles of the axes swapped
  complex stratum    the multiset of nonzero entries  complex dimension
                     (multiplicities of the points)     = number of points

Anodyne contractions never change the multiset of nonzero entries, and
chains of them sweep out exactly the fibers of these labels; the
``anodyne_classes`` and ``meet_check`` reports verify that combinatorially.
Both group CM_n on raw tuple keys read off the row tuples (``_line_key``
and ``_multiplicity_key``), never on label objects; ``meet_check`` builds
its two checked labels once per group, and ``fnf_label`` and
``ifnf_label`` are built from the same keys.

All coordinates are exact rationals: collision detection is equality of
fractions, never a floating-point tolerance.
"""

import itertools
from fractions import Fraction
from numbers import Rational

from .contingency import (
    HORIZONTAL,
    VERTICAL,
    ContingencyMatrix,
    _cm_rows,
    build_poset,
)
from .errors import DomainError, StructuralError, exact_ints
from .exactlinalg import parse_rational
from .frozen import Frozen
from .limits import ANODYNE_CAP, ANODYNE_KINDS, ENUMERATION_CAP, census_guard
from .partitions import OrderedPartition, as_partition, block_bounds


def _exact_point(point):
    """A point (re, im) as a pair of Fractions, a Fraction kept as it is.
    Each coordinate must be an int or a Fraction (``numbers.Rational``): a
    float, string or None raises ``DomainError``, as does a point that is
    not a pair."""
    try:
        re, im = point
    except (TypeError, ValueError):
        raise DomainError(f"a point must be a pair (re, im), got {point!r}") from None
    if not (isinstance(re, Rational) and isinstance(im, Rational)):
        raise DomainError(f"coordinates must be ints or Fractions, got {point!r}")
    if type(re) is not Fraction:
        re = Fraction(re)
    if type(im) is not Fraction:
        im = Fraction(im)
    return re, im


class PointConfiguration(Frozen):
    """A multiset of points (re, im) with exact rational coordinates, each
    an int or a Fraction; ``from_json`` parses text into Fractions first."""

    __slots__ = ("points",)  # tuple of (Fraction, Fraction), stored sorted

    def __init__(self, points):
        try:
            pts = tuple(sorted(map(_exact_point, points)))
        except TypeError:  # points is not iterable
            raise DomainError(f"points must be a list of pairs, got {points!r}") from None
        if not pts:
            raise DomainError("a configuration needs at least one point")
        object.__setattr__(self, "points", pts)

    def to_json(self):
        return {
            "points": [
                {"re": str(re), "im": str(im)} for re, im in self.points
            ]
        }

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict) or not isinstance(data.get("points"), list):
            raise StructuralError('configuration JSON must look like {"points": [...]}')
        pts = []
        for item in data["points"]:
            try:
                pts.append((parse_rational(item["re"]), parse_rational(item["im"])))
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                raise StructuralError(f"bad point entry {item!r}: {exc}") from exc
        return cls(tuple(pts))


class MultiplicityPartition(Frozen):
    """Point multiplicities, sorted non-increasingly; labels a complex stratum."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = exact_ints(parts)
        if not parts or any(a < 1 for a in parts):
            raise DomainError(f"parts must be positive, got {parts}")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise DomainError(f"parts must be non-increasing, got {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def weight(self):
        return sum(self.parts)

    @property
    def length(self):
        return len(self.parts)

    def to_json(self):
        return list(self.parts)


class FnfLabel(Frozen):
    """[beta : gamma]: line multiplicities bottom-to-top, and the
    left-to-right coincidence pattern on each line."""

    # an OrderedPartition, and a tuple of OrderedPartition with
    # gamma[j].weight == beta.parts[j]
    __slots__ = ("beta", "gamma")

    def __init__(self, beta, gamma):
        beta = as_partition(beta)
        gamma = tuple(as_partition(g) for g in gamma)
        if len(gamma) != beta.length:
            raise DomainError("need one pattern per line")
        for j, g in enumerate(gamma):
            if g.weight != beta.parts[j]:
                raise DomainError(
                    f"pattern {g.parts} on line {j} must have weight {beta.parts[j]}"
                )
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)

    @property
    def weight(self):
        return self.beta.weight

    @property
    def dimension(self):
        return self.beta.length + sum(g.length for g in self.gamma)

    @property
    def sort_key(self):
        return (self.beta.parts, tuple(g.parts for g in self.gamma))

    def to_json(self):
        return {
            "beta": self.beta.to_json(),
            "gamma": [g.to_json() for g in self.gamma],
            "dimension": self.dimension,
        }


# ---------------------------------------------------------------------------
# label maps

def compress(values):
    """Drop zero components, keeping order: the op() of a count vector."""
    values = exact_ints(values)
    if any(x < 0 for x in values):
        raise DomainError(f"counts must be nonnegative, got {values}")
    parts = tuple(x for x in values if x > 0)
    if not parts:
        raise DomainError("a count vector needs at least one positive entry")
    return OrderedPartition(parts)


def contingency_label(config):
    """The contingency matrix of a configuration: rows indexed by distinct
    real parts in increasing order, columns by distinct imaginary parts."""
    xs = sorted({re for re, _ in config.points})
    ys = sorted({im for _, im in config.points})
    xi = {x: i for i, x in enumerate(xs)}
    yi = {y: j for j, y in enumerate(ys)}
    grid = [[0] * len(ys) for _ in xs]
    for re, im in config.points:
        grid[xi[re]][yi[im]] += 1
    return ContingencyMatrix(grid, check=False)


def _line_key(lines):
    """The raw key of an FNF label read along ``lines``: the line sums, and
    each line with its zeros dropped.  ``FnfLabel(*key)`` is the label;
    equal keys mean equal labels, and keys sort as ``FnfLabel.sort_key``."""
    gamma = tuple(tuple(filter(None, line)) for line in lines)
    return tuple(map(sum, gamma)), gamma


def _fnf_key(rows):
    return _line_key(zip(*rows))


def _multiplicity_key(rows):
    return tuple(sorted((x for row in rows for x in row if x), reverse=True))


def fnf_label(matrix):
    """[beta : gamma] containing the contingency cell: beta is the vertical
    margin, gamma[j] compresses column j in row order (left to right along
    the j-th line)."""
    return FnfLabel(*_fnf_key(matrix.rows))


def ifnf_label(matrix):
    """The dual label, i.e. the FNF label after swapping the two axes:
    the horizontal margin plus the compressed rows."""
    return FnfLabel(*_line_key(matrix.rows))


def multiplicity_partition(matrix):
    """Nonzero entries sorted non-increasingly: the complex-stratum label."""
    return MultiplicityPartition(_multiplicity_key(matrix.rows))


def _dimensions(matrix, fnf, ifnf, multiplicity):
    """Real dimensions of the four cells/strata, read off the labels."""
    return {
        "contingency": matrix.p + matrix.q,
        "fnf": fnf.dimension,
        "ifnf": ifnf.dimension,
        "complex": 2 * multiplicity.length,
    }


def cell_dimensions(matrix):
    """Real dimensions of the four cells/strata through a matrix's cell."""
    labels = fnf_label(matrix), ifnf_label(matrix), multiplicity_partition(matrix)
    return _dimensions(matrix, *labels)


def classify(config):
    """Full classification bundle for one configuration; each label is
    built once."""
    matrix = contingency_label(config)
    fnf, ifnf, multiplicity = labels = (
        fnf_label(matrix), ifnf_label(matrix), multiplicity_partition(matrix)
    )
    return {
        "configuration": config.to_json(),
        "matrix": matrix.to_json(),
        "fnf": fnf.to_json(),
        "ifnf": ifnf.to_json(),
        "multiplicity": multiplicity.to_json(),
        "dimensions": _dimensions(matrix, *labels),
    }


def _shuffle_merge_reachable(target, sources):
    """Whether `target` arises by interleaving the source sequences (each
    keeping its internal order) and then summing adjacent runs.

    When several lines merge, the points of different lines interleave
    freely along the merged line while the order within each line is
    preserved; clusters of the limit pattern are sums of consecutive runs
    of the interleaving.  So a depth-first walk over how far each source
    has been read takes one source's next cluster at a time, unless the
    running sum would step over a cut point (a partial sum) of `target`.
    """
    sources = tuple(tuple(s) for s in sources)
    if sum(target) != sum(map(sum, sources)):
        return False
    # next_cut[s]: the least cut point above the running sum s
    next_cut = []
    for cut in itertools.accumulate(target):
        next_cut.extend([cut] * (cut - len(next_cut)))
    end = tuple(map(len, sources))
    start = (0,) * len(sources)
    seen = {start}
    stack = [(start, 0)]
    while stack:
        state, total = stack.pop()
        if state == end:
            return True
        for t, k in enumerate(state):
            if k < end[t] and total + sources[t][k] <= next_cut[total]:
                step = state[:t] + (k + 1,) + state[t + 1 :]
                if step not in seen:
                    seen.add(step)
                    stack.append((step, total + sources[t][k]))
    return False


def fnf_closure_leq(a, b):
    """Closure order on FNF labels, more degenerate labels smaller.

    a <= b iff a.beta coarsens b.beta by merging consecutive blocks of
    lines, and on each merged line a's pattern is a contraction of some
    shuffle of the patterns of the lines merged into it.  Plain refinement
    of the flattened patterns is not enough: merging lines interleaves
    their points.
    """
    if a.weight != b.weight:
        raise DomainError(f"weights differ: {a.weight} vs {b.weight}")
    blocks = block_bounds(a.beta, b.beta)
    if blocks is None:
        return False
    for j, (start, end) in enumerate(blocks):
        if not _shuffle_merge_reachable(
            a.gamma[j].parts, [g.parts for g in b.gamma[start:end]]
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# anodyne equivalence classes and the meet/join reports

class _UnionFind:
    def __init__(self, size):
        self.parent = list(range(size))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)


# the raw key of each label map, read on row tuples
_FIBER_KEYS = {
    (HORIZONTAL, VERTICAL): ("multiplicity", _multiplicity_key),
    (HORIZONTAL,): ("fnf", _fnf_key),
    (VERTICAL,): ("ifnf", _line_key),
}


def anodyne_classes(n, kinds=(HORIZONTAL, VERTICAL), poset=None):
    """Equivalence classes of CM_n under anodyne contractions of the given
    kinds, with the fiber comparison this class structure must reproduce:
    both kinds -> multiplicity partitions, horizontal only -> FNF labels,
    vertical only -> dual FNF labels.

    ``poset`` is ``build_poset(n)``, built here when not given.  Each
    anodyne cover is unioned as ``poset.anodyne_covers`` yields it.
    Classes are reported as tuples of canonical element indices, ordered
    by their least element; the fibers are collected the same way, in
    element order, so the two lists compare as they stand.
    """
    n = census_guard(n, ANODYNE_CAP, "anodyne equivalence classes")
    kinds = tuple(sorted(set(kinds)))
    if kinds not in _FIBER_KEYS:
        raise DomainError(
            f"kinds must be horizontal, vertical, or both; got {kinds}"
        )
    fiber_name, fiber_key = _FIBER_KEYS[kinds]
    if poset is None:
        poset = build_poset(n)
    elif poset.n != n:
        raise DomainError(f"the poset is CM_{poset.n}, not CM_{n}")
    elements = poset.elements
    uf = _UnionFind(len(elements))
    for child, parent, _, _ in poset.anodyne_covers(kinds):
        uf.union(child, parent)
    classes = {}
    for i in range(len(elements)):
        classes.setdefault(uf.find(i), []).append(i)
    class_list = [tuple(v) for v in classes.values()]

    fibers = {}
    for i, m in enumerate(elements):
        fibers.setdefault(fiber_key(m.rows), []).append(i)
    matches = class_list == [tuple(v) for v in fibers.values()]
    return {
        "n": n,
        "kinds": list(kinds),
        "classes": class_list,
        "class_count": len(class_list),
        "fiber_label": fiber_name,
        "fiber_count": len(fibers),
        "classes_match_fibers": matches,
        "pass": matches,
    }


def anodyne_joins(n):
    """``anodyne_classes`` for each entry of ``ANODYNE_KINDS``, keyed by
    its name in sorted order, on one build of CM_n."""
    n = census_guard(n, ANODYNE_CAP, "anodyne equivalence classes")
    poset = build_poset(n)
    return {
        name: anodyne_classes(n, kinds, poset)
        for name, kinds in sorted(ANODYNE_KINDS.items())
    }


def meet_check(n):
    """Group CM_n by the pair (FNF label, dual FNF label) and verify that
    each group determines the matrix size (p, q); group sizes are reported
    as observed component counts of the pairwise intersections.

    The row tuples of CM_n are grouped on the raw label keys, with no
    ContingencyMatrix built; the two labels are built, and checked, once
    per group."""
    n = census_guard(n, ENUMERATION_CAP, "label-pair grouping")
    groups = {}
    for rows in _cm_rows(n):
        key = (_fnf_key(rows), _line_key(rows))
        size = (len(rows), len(rows[0]))
        group = groups.get(key)
        if group is None:
            groups[key] = [1, {size}]
        else:
            group[0] += 1
            group[1].add(size)
    rows = []
    violations = []
    for (fnf_key, ifnf_key), (count, sizes) in sorted(groups.items()):
        fnf, ifnf = FnfLabel(*fnf_key), FnfLabel(*ifnf_key)
        expected = (ifnf.beta.length, fnf.beta.length)
        ok = sizes == {expected}
        row = {
            "fnf": fnf.to_json(),
            "ifnf": ifnf.to_json(),
            "component_count": count,
            "sizes": sorted(sizes),
            "expected_size": list(expected),
            "pass": ok,
        }
        rows.append(row)
        if not ok:
            violations.append(row)
    return {
        "n": n,
        "group_count": len(rows),
        "groups": rows,
        "violations": violations,
        "pass": not violations,
    }
