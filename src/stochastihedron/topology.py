"""Reduced integral homology of the cellular chains of the contraction
poset.

One core, ``chain_homology``, takes a chain complex given as cells with
degrees and signed face lists.  ``check_sphericity`` feeds it CM_n itself:
one cell per element, in the degree of its rank 2n-(p+q), with its covers
as faces.  CM_n is the face poset of a regular CW ball, so the strict lower
interval P<M should be a sphere of dimension rank(M)-1.  By Bjorner
("Posets, regular CW complexes and Bruhat order", Europ. J. Combin. 5,
1984), once every P<y with y < M is a homology sphere of dimension
rank(y)-1, P<M has the homology of its cellular chain complex under any
+-1 incidences whose boundary of a boundary is zero.  That route is valid
only in rank order, so a cell with a failed cell below it fails, as does a
cell that lists a facet which is not one of its covers or whose signs do
not cancel.

The incidences have a closed form.  The contingency cell of a p x q matrix
is a product of two chambers, x_1 < ... < x_p times y_1 < ... < y_q.  In
the coordinates x_1, the gaps x_(i+1) - x_i, y_1 and the gaps
y_(j+1) - y_j it is an open orthant, and merging rows i, i+1 (from 0) sets
coordinate k = i+1 to zero, merging columns j, j+1 coordinate k = p+j+1.
Give that face the sign (-1)^(k+1), which is (-1)^j for y at index j of
``up[x]`` (row merges come first) and (-1)^(j+1) for a column merge.  Two
merges drop coordinates k < l either as k then l-1 or as l then k, so the
two paths through every diamond cancel; the stochastihedron is the dual
ball and reads the same incidences upwards.  Below a vertex, an n x n
permutation matrix, lies the empty cell.  The two vertices of an edge split
one line of the edge in the two orders, so they differ by one adjacent
transposition; multiplying each vertex's incidences by the sign of its
permutation makes the pair cancel, and leaves every diamond above the
vertices cancelling.  ``_signs_cancel`` still checks every cell, so a poset
that is not a CW poset fails there or in its homology.

The cellular route is what makes sphericity reach n = 6: the order complex
is a barycentric subdivision, with 159,056 simplices in the strict interval
below the 1x1 matrix at n = 4 and 92.5M at n = 5, while the cellular
complex of the same interval has one cell per element.

The core first shrinks the complex by coreductions (Mrozek and Batko,
"Coreduction homology algorithm", Discrete Comput. Geom. 41, 2009): a
cell b with exactly one remaining face a is retired together with a.  The
incidence is +-1, so the pair is homology-neutral, and the boundary of
every other cell is just its original face list restricted to the
surviving cells, so this phase does no matrix arithmetic at all.  On the
lower intervals of CM_n up to n = 6 coreductions leave one cell of each
sphere; whatever is left is finished off by dense Smith normal form over
the integers, one degree at a time.

Reduced homology conventions: the empty cell is a genuine cell in degree
-1, the empty complex is the (-1)-sphere with betti(-1) = 1, and a cone
(any poset with a maximum or minimum) is acyclic.
"""

import itertools
from collections import deque

from . import contingency
from .errors import DomainError
from .exactlinalg import smith_normal_form
from .frozen import Frozen
from .limits import SPHERICITY_CAP, census_guard


# ---------------------------------------------------------------------------
# homology profiles

class HomologyProfile(Frozen):
    """Reduced integral homology: nonzero Betti numbers and torsion factors
    per degree, degrees from -1 up."""

    # betti: sorted tuple of (degree, rank), rank > 0
    # torsion: sorted tuple of (degree, (factors > 1, ...))
    __slots__ = ("betti", "torsion")

    def __init__(self, betti, torsion):
        object.__setattr__(self, "betti", betti)
        object.__setattr__(self, "torsion", torsion)

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
# finite posets

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


# ---------------------------------------------------------------------------
# homology

def chain_homology(dims, faces, signs):
    """Reduced integral homology of a finite chain complex by coreductions,
    then exact dense SNF.

    Cell c has degree dims[c]; its boundary is sum(signs[c][k] * faces[c][k])
    over distinct faces in degree dims[c] - 1, every coefficient +1 or -1.
    Cell 0 is the empty cell in degree -1 and the one face of every vertex.

    Coreductions retire each cell that has exactly one live face together
    with that face; the surviving cells keep their original boundaries,
    restricted to live faces, and each degree's boundary matrix goes to
    Smith normal form.  Coreductions start from the empty cell and restart
    from one vertex of every further connected component, which counts
    towards betti(0).

    Raises RuntimeError if the Euler characteristics of the input and of
    the computed profile disagree (an internal consistency cross-check).
    """
    n_cells = len(dims)
    cofaces = [[] for _ in range(n_cells)]
    for g, fs in enumerate(faces):
        for f in fs:
            cofaces[f].append(g)

    # coreductions: a cell with exactly one live face goes with that face;
    # first in, first out, so they spread from the empty cell breadth-first
    # (last in, first out left thousands of cells for SNF in some n = 6
    # intervals)
    live = bytearray([1]) * n_cells
    nface = [len(fs) for fs in faces]
    work = deque(g for g in range(n_cells) if nface[g] == 1)

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
    isolated = (g for g in range(n_cells) if dims[g] == 0 and live[g] and not nface[g])
    while True:
        while work:
            b = work.popleft()
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
            by_dim.setdefault(dims[g], []).append(g)
    ranks = {}
    torsion_by_degree = {}
    for d, cells_d in sorted(by_dim.items()):
        below = by_dim.get(d - 1)
        if not below:
            continue
        row_pos = {f: i for i, f in enumerate(below)}
        matrix = [[0] * len(cells_d) for _ in below]
        for j, g in enumerate(cells_d):
            for f, s in zip(faces[g], signs[g]):
                if live[f]:
                    matrix[row_pos[f]][j] = s
        factors = smith_normal_form(matrix)
        ranks[d] = len(factors)
        big = [f for f in factors if f > 1]
        if big:
            torsion_by_degree[d - 1] = big

    betti = {}
    for d, cells_d in by_dim.items():
        betti[d] = len(cells_d) - ranks.get(d, 0) - ranks.get(d + 1, 0)
    betti[0] = betti.get(0, 0) + generators

    euler_complex = sum(-1 if d % 2 else 1 for d in dims)
    euler_homology = sum((-1) ** d * b for d, b in betti.items())
    if euler_complex != euler_homology:
        raise RuntimeError(
            f"Euler characteristic mismatch: complex {euler_complex}, "
            f"homology {euler_homology}"
        )
    return HomologyProfile.make(betti, torsion_by_degree)


# ---------------------------------------------------------------------------
# intervals of the contraction poset

def _below(down, i):
    """The set of elements strictly below element i."""
    members, stack = set(), [i]
    while stack:
        for x in down[stack.pop()]:
            if x not in members:
                members.add(x)
                stack.append(x)
    return members


def lower_interval(poset, matrix, strict=True):
    """The induced sub-poset on everything below a matrix in CM_n.

    ``matrix`` is an element or its canonical index.  Labels are the
    canonical element indices of the ambient poset.  Raises DomainError for
    a matrix that is not an element, for an int outside
    ``range(len(poset))`` and for a bool.
    """
    i = matrix if isinstance(matrix, int) else poset.element_index(matrix)
    if isinstance(i, bool) or not 0 <= i < len(poset):
        raise DomainError(f"{matrix!r} is not an element index of CM_{poset.n}")
    below = _below(poset.down, i)
    members = sorted(below if strict else below | {i})
    pos = {g: k for k, g in enumerate(members)}
    # canonical order lists parents before children: one ascending sweep
    above = []
    for g in members:
        acc = 0
        for parent in poset.up[g]:
            k = pos.get(parent)
            if k is not None:
                acc |= above[k] | (1 << k)
        above.append(acc)
    return FinitePoset(tuple(members), above)


def verify_sphericity(n, progress=None):
    """Check, for every M in CM_n, that the strict lower interval P<M has
    the reduced homology of a sphere of dimension 2n-(p+q)-1.

    ``progress``, if given, is called as progress(done, total) after each
    cell.  See ``check_sphericity``.
    """
    n = census_guard(n, SPHERICITY_CAP, "sphericity verification")
    return check_sphericity(contingency.build_poset(n), progress)


def check_sphericity(poset, progress=None):
    """Sphericity of every strict lower interval of a built CmPoset, by
    cellular chains.

    Cells are visited in rank order.  Each cell's boundary is signed by
    ``_incidence_signs``; the homology of P<M is that of the cellular chain
    complex on its elements only when every cell below M has passed, so a
    cell with a failed cell below it fails without a homology run.  A cell
    also fails when it lists a facet that is not one of its covers, or when
    its signs do not cancel on every diamond below it.

    The closed interval P<=M is the cone over P<M with apex M, so it is
    acyclic for any poset; instead of computing its homology, each cell
    checks that M lies above every member of P<M: every cover on the walk
    down from M holds by the cut masks of ``CmPoset.leq``, and the order
    is transitive.  The walk down from M is M's covers followed by the
    walks down from its facets, so a cell passes this check when each of
    its facets lies below it and passed it.  This also cross-checks the
    covers the walk follows.
    """
    rank = [poset.rank(i) for i in range(len(poset))]
    order = sorted(range(len(poset)), key=rank.__getitem__)
    signs, faults = _incidence_signs(poset)
    results = [None] * len(poset)
    for done, i in enumerate(order, 1):
        results[i] = _check_cell(poset, rank, signs, faults, results, i)
        if progress is not None:
            progress(done, len(order))
    violations = [r for r in results if not r["pass"]]
    return {
        "n": poset.n,
        "cells_checked": len(results),
        "cells": results,
        "violations": violations,
        "pass": not violations,
    }


def _incidence_signs(poset):
    """A sign +1 or -1 on every cover, in closed form.

    The sign of facet x of y depends on y's place j in ``up[x]``, whose
    row merges come first: (-1)^j for a row merge, (-1)^(j+1) for a
    column merge, times sgn(sigma) when x is the permutation matrix of
    sigma; the module docstring shows why these cancel.  Returns (signs,
    faults): signs[y] is aligned with down[y], or None when y lists a facet
    x that does not have y among its covers; faults[y] says so.
    """
    elements, up = poset.elements, poset.up
    signs = [None] * len(poset.down)
    faults = {}
    for y, facets in enumerate(poset.down):
        sign = []
        for x in facets:
            try:
                j = up[x].index(y)
            except ValueError:
                faults[y] = (
                    f"lists a facet {elements[x].rows} that is not one of its covers"
                )
                break
            if j >= elements[x].p - 1:
                j += 1
            sign.append(-1 if j % 2 else 1)
            if poset.rank(x) == 0:
                sign[-1] *= _permutation_sign(elements[x].rows)
        else:
            signs[y] = tuple(sign)
    return signs, faults


def _permutation_sign(rows):
    """sgn(sigma) for the permutation matrix of sigma."""
    sigma = [row.index(1) for row in rows]
    inversions = sum(a > b for a, b in itertools.combinations(sigma, 2))
    return -1 if inversions % 2 else 1


def _boundary(down, signs, x):
    """(face, sign) pairs of cell x; a vertex has the empty cell (-1)."""
    return zip(down[x], signs[x]) if down[x] else ((-1, 1),)


def _signs_cancel(down, signs, y):
    """Whether the boundary of the boundary of y is zero."""
    total = {}
    for x, s in zip(down[y], signs[y]):
        for w, t in _boundary(down, signs, x):
            total[w] = total.get(w, 0) + s * t
    return not any(total.values())


def _cellular_chains(down, rank, signs, members):
    """The cellular chain complex of the cells in ``members`` (closed under
    going down) plus the empty cell 0, in ``chain_homology``'s form."""
    local = {g: k for k, g in enumerate(members, 1)}
    dims = [-1]
    faces = [()]
    cell_signs = [()]
    for g in members:
        dims.append(rank[g])
        if down[g]:
            faces.append(tuple(local[x] for x in down[g]))
            cell_signs.append(signs[g])
        else:
            faces.append((0,))
            cell_signs.append((1,))
    return dims, faces, cell_signs


def _check_cell(poset, rank, signs, faults, results, i):
    """The report of cell i; ``results`` holds the reports of its facets."""
    d_exp = rank[i] - 1
    members = _below(poset.down, i)
    acyclic_ok = all(
        poset.leq(x, i) and results[x]["closed_acyclic"] for x in poset.down[i]
    )
    cell = {
        "element": poset.elements[i].to_json(),
        "expected_sphere_dim": d_exp,
        "homology": None,
        "closed_acyclic": acyclic_ok,
    }
    if not all(results[x]["pass"] for x in poset.down[i]):
        cell["reason"] = "a cell below failed, so its cellular chains do not apply"
    else:
        profile = chain_homology(*_cellular_chains(poset.down, rank, signs, members))
        cell["homology"] = profile.to_json()
        if i in faults:
            cell["reason"] = faults[i]
        elif not _signs_cancel(poset.down, signs, i):
            cell["reason"] = "the incidence signs do not cancel on every diamond"
        elif profile != HomologyProfile.sphere(d_exp):
            cell["reason"] = "not a homology sphere of the expected dimension"
    cell["pass"] = acyclic_ok and "reason" not in cell
    return cell

