"""Shared builders and oracles for the test suites.

Random per-cover matrices almost never satisfy the diamond condition, so
the suites are built from functor-shaped data that commutes by
construction while still letting individual maps be singular:

* rank functors: the space depends only on the cell rank, every cover at
  that rank carries the same matrix;
* size functors: the space depends only on the row count p, horizontal
  covers carry a matrix H_p, vertical covers a scalar multiple of the
  identity; the two kinds commute because scalars do.
"""

import os
import pathlib
import random
from fractions import Fraction
from itertools import accumulate, chain, combinations, permutations
from math import comb, factorial
from operator import add

from stochastihedron.contingency import HORIZONTAL, KINDS, VERTICAL, build_poset
from stochastihedron.exactlinalg import determinant
from stochastihedron.sheaf import PosetRepresentation
from stochastihedron.topology import chain_homology

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def cli_env(env_extra=None):
    """The environment of a child process that imports the library from
    this checkout's src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    if env_extra:
        env.update(env_extra)
    return env


def random_matrix(rng, rows, cols, singular=False):
    """A rows x cols Fraction matrix; optionally forced non-invertible."""
    if singular and rows == cols and rows > 0:
        # rank-deficient: last row a multiple of the first
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]
        scale = Fraction(rng.randint(-2, 2))
        m[-1] = [scale * x for x in m[0]]
        return m
    if rows == cols:
        # random invertible: start from identity, apply shear rows
        m = [
            [Fraction(1) if i == j else Fraction(0) for j in range(cols)]
            for i in range(rows)
        ]
        for _ in range(rows * 2):
            i, j = rng.randrange(rows), rng.randrange(rows)
            if i != j:
                factor = Fraction(rng.randint(-2, 2))
                m[i] = [x + factor * y for x, y in zip(m[i], m[j])]
        return m
    return [[Fraction(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]


def fraction_rank(rows):
    """Rank over the rationals by Gauss-Jordan elimination: the oracle
    for the library's invertibility test, which uses Bareiss determinants."""
    if not rows:
        return 0
    m = [[Fraction(x) for x in row] for row in rows]
    nrows, ncols = len(m), len(m[0])
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if m[i][col] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == nrows:
            break
    return r


def fraction_compose(a, b, rows_n, inner_n, cols_n):
    """Fraction matrix product a . b with explicit shapes, so zero-dimensional
    spaces still produce correctly shaped (empty or zero) composites."""
    return tuple(
        tuple(
            sum((a[i][k] * b[k][j] for k in range(inner_n)), Fraction(0))
            for j in range(cols_n)
        )
        for i in range(rows_n)
    )


def fraction_diamond_failures(rep):
    """The diamond check on Fraction matrices, in validate's order: the
    oracle for its cross-multiplied integer check."""
    poset, dims = rep.poset, rep.dims
    failures = []
    for bottom in range(len(poset)):
        ups = [(a, set(poset.up[a])) for a in poset.up[bottom]]
        for (a, tops_a), (b, tops_b) in combinations(ups, 2):
            for top in sorted(tops_a & tops_b):
                via_a = fraction_compose(
                    rep.map_for(a, top), rep.map_for(bottom, a),
                    dims[top], dims[a], dims[bottom],
                )
                via_b = fraction_compose(
                    rep.map_for(b, top), rep.map_for(bottom, b),
                    dims[top], dims[b], dims[bottom],
                )
                if via_a != via_b:
                    failures.append({"bottom": bottom, "top": top, "via": [a, b]})
    return failures


def _merge_blocks(lines, targets):
    """Add consecutive lines (row tuples) into blocks summing to `targets`,
    of equal grand total; None if impossible.  Sums are positive: one way."""
    blocks = []
    lines = iter(lines)
    for target in targets:
        block = next(lines)
        total = sum(block)
        while total < target:
            line = next(lines)
            block = tuple(map(add, block, line))
            total += sum(line)
        if total != target:
            return None
        blocks.append(block)
    return blocks


def block_sum_leq(a, b, kinds=KINDS):
    """Matrix a <= matrix b by the block-sum rule: the oracle for the cut
    masks of ``CmPoset.leq``.

    b is a with consecutive rows added into blocks with b's row sums, then
    consecutive columns into blocks with b's column sums.  The
    horizontal-only order keeps the columns, the vertical-only order keeps
    the rows.
    """
    rows_ok = b.p == a.p or (b.p < a.p and HORIZONTAL in kinds)
    columns_ok = b.q == a.q or (b.q < a.q and VERTICAL in kinds)
    if not (rows_ok and columns_ok):
        return False
    rows = _merge_blocks(a.rows, list(map(sum, b.rows)))
    if rows is None:
        return False
    columns = list(zip(*b.rows))
    return _merge_blocks(zip(*rows), list(map(sum, columns))) == columns


def all_minors_scan(grid):
    """Every minor of every size, each by its own Bareiss determinant: the
    oracle for ``identities.total_positivity``, which reads the solid minors
    only.  Returns (is_tp, witness), the witness the first nonpositive minor
    in scan order (size, then row set, then column set; 1-based indices)."""
    idx = range(len(grid))
    for k in range(1, len(grid) + 1):
        for rows in combinations(idx, k):
            for cols in combinations(idx, k):
                minor = determinant([[grid[i][j] for j in cols] for i in rows])
                if minor <= 0:
                    return False, {
                        "rows": tuple(i + 1 for i in rows),
                        "cols": tuple(j + 1 for j in cols),
                        "value": minor,
                    }
    return True, None


def metamatrix_entry(n, p, q):
    """Count of p x q contingency matrices of weight n by inclusion-exclusion
    over deleted zero rows and columns, one entry on its own: the reference
    for ``counting.metamatrix``, which takes all n^2 entries as one product."""
    return sum(
        (-1) ** (i + j + p + q)
        * comb(p, i)
        * comb(q, j)
        * comb(n + i * j - 1, n)
        for i in range(1, p + 1)
        for j in range(1, q + 1)
    )


# ---------------------------------------------------------------------------
# the S_n oracle: plain tuples in, counts out, nothing of the library read

def colored_lifts(rows):
    """n! / prod m_ij!: the colored matrices over the matrix with these rows."""
    lifts = factorial(sum(map(sum, rows)))
    for x in chain.from_iterable(rows):
        lifts //= factorial(x)
    return lifts


def double_coset_count(alpha, beta):
    """|S_alpha \\ S_n / S_beta| for two compositions of n given as tuples,
    by orbit search inside S_n: the oracle for the double-coset census of
    CM_n(alpha, beta).  S_alpha acts on the values of a permutation (swap
    k and k+1 inside a block of alpha), S_beta on its positions."""
    n = sum(alpha)

    def swaps(parts):
        # k such that k and k+1 lie in one block of parts
        cuts = set(accumulate(parts))
        return [k for k in range(n - 1) if k + 1 not in cuts]

    left, right = swaps(alpha), swaps(beta)
    seen = set()
    orbits = 0
    for g in permutations(range(n)):
        if g in seen:
            continue
        orbits += 1
        seen.add(g)
        stack = [g]
        while stack:
            h = stack.pop()
            images = [
                tuple(k + 1 if x == k else k if x == k + 1 else x for x in h)
                for k in left
            ]
            images += [h[:k] + (h[k + 1], h[k]) + h[k + 2 :] for k in right]
            for image in images:
                if image not in seen:
                    seen.add(image)
                    stack.append(image)
    return orbits


# ---------------------------------------------------------------------------
# representations

def skyscraper(poset, at_index):
    """Dimension one at one element, zero elsewhere; empty matrices
    everywhere."""
    dims = [0] * len(poset)
    dims[at_index] = 1
    maps = {}
    for child, parents in enumerate(poset.up):
        for parent in parents:
            maps[(child, parent)] = [[0] * dims[child] for _ in range(dims[parent])]
    return PosetRepresentation(poset, dims, maps)


def rescaled(rep, rng):
    """The cover map c -> p times s_p / s_c for random nonzero fractions s:
    functorial exactly when rep is, with unequal, non-unit denominators."""
    scalars = [
        Fraction(rng.choice([k for k in range(-9, 10) if k]), rng.randint(1, 12))
        for _ in range(len(rep.poset))
    ]
    maps = {}
    for child, parent in rep.cover_maps:
        ratio = scalars[parent] / scalars[child]
        maps[(child, parent)] = [
            [ratio * x for x in row] for row in rep.map_for(child, parent)
        ]
    return PosetRepresentation(rep.poset, rep.dims, maps)


def bits(mask):
    """The indices of the set bits of mask, lowest first."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def complex_from_simplices(vertex_count, simplices):
    """The sorted simplices by dimension of the closure of a family of vertex
    tuples under faces, with every vertex in range(vertex_count)."""
    faces = {(v,) for v in range(vertex_count)}
    for s in simplices:
        s = sorted(set(s))
        faces.update(f for k in range(1, len(s) + 1) for f in combinations(s, k))
    top = max(map(len, faces), default=0)
    return [sorted(f for f in faces if len(f) == d + 1) for d in range(top)]


def order_complex(poset):
    """The chains of a finite poset given by its ``above`` masks, such as a
    ``lower_interval``, by dimension, each chain listed upwards: the oracle
    for the cellular chains of ``check_sphericity``."""
    levels, chains = [], [(v,) for v in range(len(poset.above))]
    while chains:
        levels.append(chains)
        chains = [c + (v,) for c in chains for v in bits(poset.above[c[-1]])]
    return levels


def homology(levels):
    """Reduced homology of simplices by dimension, each listed in an order
    that its faces keep, by ``chain_homology``: the empty simplex is cell 0,
    and face k has sign (-1)^k."""
    cells = [()] + [s for level in levels for s in level]
    index = {s: c for c, s in enumerate(cells)}
    faces = [tuple(index[s[:k] + s[k + 1 :]] for k in range(len(s))) for s in cells]
    signs = [tuple((-1) ** k for k in range(len(s))) for s in cells]
    return chain_homology([len(s) - 1 for s in cells], faces, signs)


def rank_functor(poset, rng, dims=None):
    """Space dimension depends only on the rank; one matrix per rank step."""
    n = poset.n
    top_rank = 2 * n - 2
    if dims is None:
        dims = [rng.randint(0, 3) for _ in range(top_rank + 1)]
    steps = {}
    for r in range(top_rank):
        steps[r] = random_matrix(
            rng, dims[r + 1], dims[r], singular=rng.random() < 0.3
        )
    maps = {}
    for child, parent, _, _ in poset.covers:
        maps[(child, parent)] = steps[poset.rank(child)]
    return PosetRepresentation(
        poset, [dims[poset.rank(i)] for i in range(len(poset))], maps
    )


def size_functor(poset, rng):
    """Space dimension depends only on the row count p; horizontal covers
    carry H_p, vertical covers a scalar.  Lets one stratification fail
    while the other passes."""
    n = poset.n
    dims = {p: rng.randint(1, 3) for p in range(1, n + 1)}
    h_maps = {
        p: random_matrix(rng, dims[p - 1], dims[p], singular=rng.random() < 0.4)
        for p in range(2, n + 1)
    }
    v_scalars = {q: Fraction(rng.choice((0, 1, 2, -1))) for q in range(2, n + 1)}
    maps = {}
    for child, parent, kind, _ in poset.covers:
        m = poset.elements[child]
        if kind == HORIZONTAL:
            maps[(child, parent)] = h_maps[m.p]
        else:
            scalar = v_scalars[m.q]
            maps[(child, parent)] = [
                [scalar if i == j else Fraction(0) for j in range(dims[m.p])]
                for i in range(dims[m.p])
            ]
    return PosetRepresentation(
        poset, [dims[poset.elements[i].p] for i in range(len(poset))], maps
    )


def representation_suite(count, max_n=4, seed=20240901):
    """A deterministic mixed suite of functorial representations."""
    rng = random.Random(seed)
    posets = {n: build_poset(n) for n in range(1, max_n + 1)}
    suite = []
    while len(suite) < count:
        n = rng.randint(1, max_n)
        poset = posets[n]
        if rng.random() < 0.5:
            suite.append(rank_functor(poset, rng))
        else:
            suite.append(size_functor(poset, rng))
    return suite
