"""Order complexes of finite posets and their reduced integral homology.

The homology pipeline is built for the lower intervals of the contraction
poset, whose order complexes are barycentric subdivisions of cells and
spheres: a chain of weight n can involve up to 2n-1 matrices, and the
strict interval below the 1x1 matrix already has 159,056 simplices at
n = 4.  Plain Smith normal form on boundary matrices of that size is
hopeless, so ``homology`` first shrinks the complex by coreductions
(Mrozek and Batko, "Coreduction homology algorithm", Discrete Comput.
Geom. 41, 2009): a cell b with exactly one remaining face a is retired
together with a.  The pair is homology-neutral, and the boundary of every
other cell is just its original face list restricted to the surviving
cells, so this phase does no matrix arithmetic at all.  On the lower
intervals of CM_n up to n = 4 coreductions leave one cell of each sphere
and nothing of the cone over the whole poset; whatever is left is
finished off by dense Smith normal form over the integers, one degree at
a time.

Reduced homology conventions: the empty simplex is a genuine cell in
degree -1, the empty complex is the (-1)-sphere with betti(-1) = 1, and a
cone (any poset with a maximum or minimum) is acyclic.
"""

from dataclasses import dataclass

from . import contingency
from .errors import DomainError
from .exactlinalg import smith_normal_form
from .limits import SPHERICITY_CAP, guard


# ---------------------------------------------------------------------------
# homology profiles

@dataclass(frozen=True)
class HomologyProfile:
    """Reduced integral homology: nonzero Betti numbers and torsion factors
    per degree, degrees from -1 up."""

    betti: tuple      # sorted tuple of (degree, rank), rank > 0
    torsion: tuple    # sorted tuple of (degree, (factors > 1, ...))

    @classmethod
    def make(cls, betti_by_degree, torsion_by_degree):
        betti = tuple(sorted((d, b) for d, b in betti_by_degree.items() if b))
        torsion = tuple(
            sorted((d, tuple(f)) for d, f in torsion_by_degree.items() if f)
        )
        return cls(betti, torsion)

    @classmethod
    def sphere(cls, d):
        """S^d: one Z in degree d; S^(-1) is the empty complex."""
        if d < -1:
            raise DomainError(f"sphere dimension must be >= -1, got {d}")
        return cls.make({d: 1}, {})

    @classmethod
    def trivial(cls):
        return cls.make({}, {})

    def betti_number(self, d):
        return dict(self.betti).get(d, 0)

    def torsion_factors(self, d):
        return dict(self.torsion).get(d, ())

    def to_json(self):
        degrees = sorted(set(dict(self.betti)) | set(dict(self.torsion)))
        return [
            {
                "degree": d,
                "betti": self.betti_number(d),
                "torsion": list(self.torsion_factors(d)),
            }
            for d in degrees
        ]


# ---------------------------------------------------------------------------
# finite posets and simplicial complexes

def _bits(mask):
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


class FinitePoset:
    """A finite strict order on labels, encoded by 'strictly above' bitmasks
    over local indices.  Used for lower intervals of the contraction poset
    and for the ad-hoc posets in tests."""

    def __init__(self, labels, above):
        self.labels = tuple(labels)
        self.above = tuple(above)
        if len(self.labels) != len(self.above):
            raise DomainError("labels and above-masks must have equal length")

    def __len__(self):
        return len(self.labels)

    @classmethod
    def from_leq(cls, labels, leq):
        """Build from a <= predicate (reflexivity ignored); quadratic scan,
        intended for small explicit posets."""
        labels = tuple(labels)
        m = len(labels)
        above = []
        for i in range(m):
            mask = 0
            for j in range(m):
                if i != j and leq(labels[i], labels[j]):
                    if leq(labels[j], labels[i]):
                        raise DomainError(
                            f"antisymmetry fails on {labels[i]!r}, {labels[j]!r}"
                        )
                    mask |= 1 << j
            above.append(mask)
        for i in range(m):
            acc = above[i]
            for j in _bits(above[i]):
                acc |= above[j]
            if acc != above[i]:
                raise DomainError("relation is not transitive")
        return cls(labels, above)


class SimplicialComplex:
    """Vertices plus simplices grouped by dimension.

    Simplices are strictly increasing tuples of vertex indices; the family
    must be closed under taking faces.
    """

    def __init__(self, vertices, simplices_by_dim, check=True):
        self.vertices = tuple(vertices)
        self.simplices = tuple(
            tuple(tuple(s) for s in level) for level in simplices_by_dim
        )
        while self.simplices and not self.simplices[-1]:
            self.simplices = self.simplices[:-1]
        if check:
            self._check()

    def _check(self):
        nv = len(self.vertices)
        seen = [set(level) for level in self.simplices]
        if nv and not self.simplices:
            raise DomainError("vertices present but no dimension-0 simplices")
        if self.simplices and sorted(self.simplices[0]) != [(i,) for i in range(nv)]:
            raise DomainError("dimension-0 simplices must list every vertex once")
        for d, level in enumerate(self.simplices):
            for s in level:
                if len(s) != d + 1:
                    raise DomainError(f"simplex {s} listed in dimension {d}")
                if any(not 0 <= v < nv for v in s):
                    raise DomainError(f"vertex index out of range in {s}")
                if any(a >= b for a, b in zip(s, s[1:])):
                    raise DomainError(f"simplex {s} is not strictly increasing")
                if d > 0:
                    for k in range(d + 1):
                        if s[:k] + s[k + 1 :] not in seen[d - 1]:
                            raise DomainError(f"face of {s} is missing")

    def f_vector(self):
        return {d: len(level) for d, level in enumerate(self.simplices)}

    def simplex_count(self):
        return sum(len(level) for level in self.simplices)

    @classmethod
    def from_simplices(cls, vertex_count, simplices):
        """Close an arbitrary family of simplices (vertex-index tuples)
        under faces; vertices not covered stay as isolated 0-simplices."""
        levels = {}
        stack = [tuple(sorted(set(s))) for s in simplices]
        stack.extend((v,) for v in range(vertex_count))
        seen = set()
        while stack:
            s = stack.pop()
            if s in seen or not s:
                continue
            seen.add(s)
            levels.setdefault(len(s) - 1, set()).add(s)
            if len(s) > 1:
                stack.extend(s[:k] + s[k + 1 :] for k in range(len(s)))
        top = max(levels) if levels else -1
        by_dim = [sorted(levels.get(d, ())) for d in range(top + 1)]
        return cls(tuple(range(vertex_count)), by_dim)


def order_complex(poset):
    """The complex of chains of a finite poset: r-simplices are chains of
    r+1 distinct comparable elements."""
    m = len(poset)
    # linear extension: anything above i has a strictly smaller above-set
    order = sorted(range(m), key=lambda i: (-poset.above[i].bit_count(), i))
    pos = [0] * m
    for new, old in enumerate(order):
        pos[old] = new
    vertices = tuple(poset.labels[old] for old in order)
    up = [sorted(pos[j] for j in _bits(poset.above[old])) for old in order]

    levels = []

    def extend(chain, last):
        d = len(chain) - 1
        if d == len(levels):
            levels.append([])
        levels[d].append(chain)
        for v in up[last]:
            extend(chain + (v,), v)

    for v0 in range(m):
        extend((v0,), v0)
    return SimplicialComplex(vertices, levels, check=False)


# ---------------------------------------------------------------------------
# homology

def homology(complex_):
    """Reduced integral homology by coreductions, then exact dense SNF.

    Coreductions retire each cell that has exactly one live face together
    with that face; the surviving cells keep their original boundaries,
    restricted to live faces with sign (-1)^k for face k, and each degree's
    boundary matrix goes to Smith normal form.  Coreductions start from the
    empty simplex and restart from one vertex of every further connected
    component, which counts towards betti(0).

    Raises RuntimeError if the Euler characteristics of the input and of
    the computed profile disagree (an internal consistency cross-check).
    """
    simplices = complex_.simplices

    # global cell ids; id 0 is the empty simplex in degree -1
    dim_of = [-1]
    cells = [()]
    index_by_dim = []
    for d, level in enumerate(simplices):
        idx = {}
        for s in level:
            idx[s] = len(cells)
            dim_of.append(d)
            cells.append(s)
        index_by_dim.append(idx)

    n_cells = len(cells)
    faces = [()] * n_cells
    cofaces = [[] for _ in range(n_cells)]
    for g in range(1, n_cells):
        s = cells[g]
        d = dim_of[g]
        if d == 0:
            fs = (0,)
        else:
            lookup = index_by_dim[d - 1]
            fs = tuple(lookup[s[:k] + s[k + 1 :]] for k in range(d + 1))
        faces[g] = fs
        for f in fs:
            cofaces[f].append(g)

    # coreductions: a cell with exactly one live face goes with that face
    live = bytearray([1]) * n_cells
    nface = [len(fs) for fs in faces]
    work = [g for g in range(n_cells) if nface[g] == 1]

    def retire(*gs):
        for g in gs:
            live[g] = 0
        for g in gs:
            for e in cofaces[g]:
                if live[e]:
                    nface[e] -= 1
                    if nface[e] == 1:
                        work.append(e)

    # when the work list runs dry every live edge has 0 or 2 live faces, so
    # a live vertex with no live face spans a free summand of H_0: set it
    # aside as a generator and coreduce again from its cofaces
    generators = 0
    n_vertices = len(simplices[0]) if simplices else 0  # cells 1..n_vertices
    isolated = (g for g in range(1, 1 + n_vertices) if live[g] and not nface[g])
    while True:
        while work:
            b = work.pop()
            if live[b] and nface[b] == 1:
                retire(next(f for f in faces[b] if live[f]), b)
        v = next(isolated, None)
        if v is None:
            break
        generators += 1
        retire(v)

    # dense Smith normal form, degree by degree, on the surviving cells
    by_dim = {}
    for g in range(n_cells):
        if live[g]:
            by_dim.setdefault(dim_of[g], []).append(g)
    ranks = {}
    torsion_by_degree = {}
    for d, cells_d in sorted(by_dim.items()):
        below = by_dim.get(d - 1)
        if not below:
            continue
        row_pos = {f: i for i, f in enumerate(below)}
        matrix = [[0] * len(cells_d) for _ in below]
        for j, g in enumerate(cells_d):
            for k, f in enumerate(faces[g]):
                if live[f]:
                    matrix[row_pos[f]][j] = 1 if k % 2 == 0 else -1
        factors = smith_normal_form(matrix)
        ranks[d] = len(factors)
        big = [f for f in factors if f > 1]
        if big:
            torsion_by_degree[d - 1] = big

    betti = {}
    for d, cells_d in by_dim.items():
        betti[d] = len(cells_d) - ranks.get(d, 0) - ranks.get(d + 1, 0)
    betti[0] = betti.get(0, 0) + generators

    euler_complex = -1 + sum(
        (-1) ** d * len(level) for d, level in enumerate(simplices)
    )
    euler_homology = sum((-1) ** d * b for d, b in betti.items())
    if euler_complex != euler_homology:
        raise RuntimeError(
            f"Euler characteristic mismatch: complex {euler_complex}, "
            f"homology {euler_homology}"
        )
    return HomologyProfile.make(betti, torsion_by_degree)


# ---------------------------------------------------------------------------
# intervals of the contraction poset

def lower_interval(poset, matrix, strict=True):
    """The induced sub-poset on everything below a matrix in CM_n.

    Labels are the canonical element indices of the ambient poset.
    """
    i = poset.element_index(matrix) if not isinstance(matrix, int) else matrix
    below = frontier = {i}
    while frontier:
        frontier = {c for g in frontier for c, _, _ in poset.down[g]} - below
        below = below | frontier
    members = sorted(below - {i} if strict else below)
    pos = {g: k for k, g in enumerate(members)}
    # canonical order lists parents before children: one ascending sweep
    above = []
    for g in members:
        acc = 0
        for parent, _, _ in poset.up[g]:
            k = pos.get(parent)
            if k is not None:
                acc |= above[k] | (1 << k)
        above.append(acc)
    return FinitePoset(tuple(members), above)


def verify_sphericity(n):
    """Check, for every M in CM_n, that the strict lower interval P<M has
    the reduced homology of a sphere of dimension 2n-(p+q)-1.

    The closed interval P<=M is the cone over P<M with apex M, so it is
    acyclic for any poset; instead of computing its homology, each cell
    checks by the block-sum rule that M lies above every member of P<M,
    which also cross-checks the cover walk in ``lower_interval``.
    """
    guard(n, SPHERICITY_CAP, "sphericity verification")
    poset = contingency.build_poset(n)
    results = [_check_cell(poset, i) for i in range(len(poset))]
    violations = [r for r in results if not r["pass"]]
    return {
        "n": n,
        "cells_checked": len(results),
        "cells": results,
        "violations": violations,
        "pass": not violations,
    }


def _check_cell(poset, i):
    d_exp = poset.rank(i) - 1
    strict = lower_interval(poset, i, strict=True)
    strict_profile = homology(order_complex(strict))
    sphere_ok = strict_profile == HomologyProfile.sphere(d_exp)
    acyclic_ok = all(poset.leq(g, i) for g in strict.labels)
    return {
        "element": poset.elements[i].to_json(),
        "expected_sphere_dim": d_exp,
        "homology": strict_profile.to_json(),
        "closed_acyclic": acyclic_ok,
        "pass": sphere_ok and acyclic_ok,
    }


def f_vector(n):
    """Cell census of the weight-n stochastihedron: how many matrices sit
    in each cell dimension 2n-(p+q)."""
    counts = contingency.count_cm_by_size(n)
    out = {}
    for (p, q), c in counts.items():
        d = 2 * n - (p + q)
        out[d] = out.get(d, 0) + c
    return dict(sorted(out.items()))
