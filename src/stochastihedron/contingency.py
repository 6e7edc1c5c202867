"""Contingency matrices of fixed weight and their contraction order.

A contingency matrix is a p x q grid of nonnegative integers with no zero
row and no zero column.  Adding two adjacent rows (a *horizontal*
contraction, it lowers p) or two adjacent columns (a *vertical* one, it
lowers q) yields another contingency matrix of the same weight.  CM_n is
made into a poset by declaring the contracted matrix larger, so the 1x1
matrix (n) is the unique maximum and the n! permutation matrices are the
minimal elements.

Axis convention: the first index runs over rows (distinct real parts of a
point configuration), the second over columns (distinct imaginary parts).
``kind="horizontal"`` merges adjacent rows, ``kind="vertical"`` merges
adjacent columns.  Canonical element order is lexicographic on
(p, q, row-flattened entries), which fixes every report byte-for-byte.
"""

from functools import cached_property
from itertools import accumulate, chain, count, repeat
from operator import add, lshift

from .errors import DomainError, exact_grid, exact_ints, positive_weight
from .frozen import Frozen
from .limits import (
    ENUMERATION_CAP,
    HORIZONTAL,
    VERTICAL,
    census_guard,
    guard,
)
from .partitions import OrderedPartition, as_partition, enumerate_ordered_partitions

KINDS = (HORIZONTAL, VERTICAL)


class ContingencyMatrix(Frozen):
    """Immutable p x q nonnegative integer grid, no zero row or column.

    The default ``check=True`` takes each entry through ``operator.index``
    (a float, string or Fraction raises DomainError) and validates the
    grid; a row that is already a tuple of exact ints is kept as it is,
    any other row is copied.  ``check=False`` trusts the caller to pass a
    valid grid of integer entries and only turns the rows into tuples,
    reusing row tuples as they are.

    A matrix is an element of CM_n exactly when its weight is n, so the
    order queries of ``CmPoset`` take it as it is.  Its cut mask
    (``_cut_mask``), which decides the contraction order, is made from its
    rows on the first order query that reads it and kept in the ``_mask``
    slot; 0 means not made yet, since bit 0 of a cut mask is always set.
    A matrix is its rows alone: ``p``, ``q`` and ``weight`` are read off
    them and the mask is a cache, so ``==``, ``hash``, ``repr`` and a copy
    see only the rows.
    """

    __slots__ = ("rows", "p", "q", "weight", "_mask")

    def __init__(self, rows, check=True):
        if check:
            rows = exact_grid(rows)
            if not rows or not rows[0]:
                raise DomainError("matrix must have at least one row and column")
            if len(set(map(len, rows))) != 1:
                raise DomainError("rows must all have the same length")
            if min(map(min, rows)) < 0:
                raise DomainError("entries must be nonnegative")
            if not all(map(any, rows)):
                raise DomainError(f"zero row in {rows}")
            if not all(map(any, zip(*rows))):
                j = next(j for j, column in enumerate(zip(*rows)) if not any(column))
                raise DomainError(f"zero column {j} in {rows}")
        else:
            rows = tuple(map(tuple, rows))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "p", len(rows))
        object.__setattr__(self, "q", len(rows[0]))
        object.__setattr__(self, "weight", sum(map(sum, rows)))
        object.__setattr__(self, "_mask", 0)

    def __reduce__(self):
        # the rows alone: a copy makes its own cut mask
        return ContingencyMatrix, (self.rows, False)

    def _made_mask(self):
        """The cut mask, made from the rows and kept; read ``_mask`` first."""
        mask = _cut_mask(self.rows, self.weight)
        object.__setattr__(self, "_mask", mask)
        return mask

    def __eq__(self, other):
        return isinstance(other, ContingencyMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"ContingencyMatrix({[list(r) for r in self.rows]})"

    def to_json(self):
        return {"rows": [list(r) for r in self.rows]}

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict) or "rows" not in data:
            raise DomainError('matrix JSON must look like {"rows": [[...]]}')
        return cls(data["rows"])


def margins(matrix):
    """(weight, horizontal margin = row sums, vertical margin = column sums)."""
    hor = OrderedPartition(tuple(sum(row) for row in matrix.rows))
    ver = OrderedPartition(tuple(sum(col) for col in zip(*matrix.rows)))
    return matrix.weight, hor, ver


def _check_position(matrix, kind, i):
    if kind == HORIZONTAL:
        if not 0 <= i <= matrix.p - 2:
            raise DomainError(f"row merge index {i} out of range for p={matrix.p}")
    elif kind == VERTICAL:
        if not 0 <= i <= matrix.q - 2:
            raise DomainError(f"column merge index {i} out of range for q={matrix.q}")
    else:
        raise DomainError(f"unknown contraction kind {kind!r}")


def _merge_rows(rows, i):
    """The row tuples after adding rows i and i+1; the caller vouches for
    the range."""
    return rows[:i] + (tuple(map(add, rows[i], rows[i + 1])),) + rows[i + 2 :]


def contract(matrix, kind, i):
    """Merge rows i, i+1 (horizontal) or columns i, i+1 (vertical).

    The result is built with ``check=False``, which trusts integer
    entries: sums of a valid matrix's entries form a valid matrix.
    """
    _check_position(matrix, kind, i)
    if kind == HORIZONTAL:
        return ContingencyMatrix(_merge_rows(matrix.rows, i), check=False)
    # merging columns is merging the transpose's rows, transposed back
    columns = _merge_rows(tuple(zip(*matrix.rows)), i)
    return ContingencyMatrix(tuple(zip(*columns)), check=False)


def is_anodyne(matrix, kind, i):
    """True iff the two merged slices have disjoint supports.

    An anodyne contraction preserves the multiset of nonzero entries, hence
    the complex stratum of every configuration in the cell.
    """
    _check_position(matrix, kind, i)
    rows = matrix.rows
    if kind == HORIZONTAL:
        return all(a == 0 or b == 0 for a, b in zip(rows[i], rows[i + 1]))
    return all(r[i] == 0 or r[i + 1] == 0 for r in rows)


# ---------------------------------------------------------------------------
# enumeration

def _bounded_compositions(total, budgets, memo):
    """All tuples x with x[j] in [0, budgets[j]] and sum(x) == total.

    Generated in lexicographic order.  ``memo`` belongs to one census: the
    same (total, budgets) states recur across its margin pairs, and it is
    dropped with the census.  It also keys each tuple made here by itself,
    so that equal tuples of one census are one object; a tuple of ints
    cannot meet a (total, budgets) key, whose second item is a tuple.
    """
    capped = tuple(b if b < total else total for b in budgets)
    key = (total, capped)
    hit = memo.get(key)
    if hit is not None:
        return hit
    share = memo.setdefault
    if len(capped) == 1:
        result = (share((total,), (total,)),) if total <= capped[0] else ()
    else:
        rest = capped[1:]
        rest_sum = sum(rest)
        lo = total - rest_sum
        if lo < 0:
            lo = 0
        acc = []
        for x in range(lo, min(total, capped[0]) + 1):
            for tail in _bounded_compositions(total - x, rest, memo):
                row = (x,) + tail
                acc.append(share(row, row))
        result = tuple(acc)
    memo[key] = result
    return result


def _iter_fixed_margins(alpha, beta, memo):
    """Raw matrices (tuples of row tuples) with the given margins.

    Row sums alpha and column sums beta force every row and column to be
    nonzero, so the fill is backtrack-free: each intermediate state extends
    to at least one matrix.  The last row is the column budgets left; it
    is looked up in the census ``memo`` like the rows that
    ``_bounded_compositions`` makes, so each distinct row of a census is
    one tuple object.
    """
    p = len(alpha)
    share = memo.setdefault

    def rec(i, budgets, prefix):
        if i == p - 1:
            yield prefix + (share(budgets, budgets),)
            return
        ai = alpha[i]
        for row in _bounded_compositions(ai, budgets, memo):
            rem = tuple(b - r for b, r in zip(budgets, row))
            yield from rec(i + 1, rem, prefix + (row,))

    yield from rec(0, tuple(beta), ())


def _count_fixed_margins(alpha, beta, memo):
    """Number of matrices with the given margins, walking the same tree as
    _iter_fixed_margins but summing leaf counts instead of building rows.

    The count of each state (row margins still to fill, column budgets
    left) goes into the census ``memo``, keyed by that pair of tuples so it
    cannot meet a ``_bounded_compositions`` key, which starts with an int.
    """
    p = len(alpha)
    if p == 1:
        return 1

    def rec(i, budgets):
        if i == p - 2:
            return len(_bounded_compositions(alpha[i], budgets, memo))
        key = (alpha[i:], budgets)
        total = memo.get(key)
        if total is None:
            total = 0
            for row in _bounded_compositions(alpha[i], budgets, memo):
                total += rec(i + 1, tuple(b - r for b, r in zip(budgets, row)))
            memo[key] = total
        return total

    return rec(0, tuple(beta))


def _resolve_constraints(n, p, q, alpha, beta):
    p, q = (x if x is None else exact_ints((x,))[0] for x in (p, q))
    if alpha is not None:
        alpha = as_partition(alpha)
        if p is not None and p != alpha.length:
            raise DomainError(f"p={p} contradicts len(alpha)={alpha.length}")
        p = alpha.length
        if n is not None and n != alpha.weight:
            raise DomainError(f"n={n} contradicts weight(alpha)={alpha.weight}")
        n = alpha.weight
    if beta is not None:
        beta = as_partition(beta)
        if q is not None and q != beta.length:
            raise DomainError(f"q={q} contradicts len(beta)={beta.length}")
        q = beta.length
        if n is not None and n != beta.weight:
            raise DomainError(f"n={n} contradicts weight(beta)={beta.weight}")
        n = beta.weight
    if n is None:
        raise DomainError("the weight n is not determined by the arguments")
    n = positive_weight(n)
    for name, value in (("p", p), ("q", q)):
        if value is not None and not 1 <= value <= n:
            raise DomainError(f"{name} must satisfy 1 <= {name} <= {n}, got {value}")
    return n, p, q, alpha, beta


def _margin_pairs(n, p, q, alpha, beta):
    ps = (p,) if p is not None else tuple(range(1, n + 1))
    qs = (q,) if q is not None else tuple(range(1, n + 1))
    for pp in ps:
        alphas = (alpha,) if alpha is not None else enumerate_ordered_partitions(n, pp)
        for qq in qs:
            betas = (beta,) if beta is not None else enumerate_ordered_partitions(n, qq)
            yield pp, qq, alphas, betas


def _cm_rows(n=None, p=None, q=None, alpha=None, beta=None):
    """The row tuples of ``enumerate_cm``, in its canonical order, one
    (p, q) block at a time; the guard trips at the first ``next``.  With
    no size or margin given it is all of CM_n, and a refusal names |CM_n|."""
    census = all(x is None for x in (p, q, alpha, beta))
    n, p, q, alpha, beta = _resolve_constraints(n, p, q, alpha, beta)
    check = census_guard if census else guard
    check(n, ENUMERATION_CAP, "contingency matrix enumeration")
    memo = {}
    for _, _, alphas, betas in _margin_pairs(n, p, q, alpha, beta):
        block = []
        for a in alphas:
            for b in betas:
                block.extend(_iter_fixed_margins(a.parts, b.parts, memo))
        block.sort()
        yield from block


def enumerate_cm(n=None, p=None, q=None, alpha=None, beta=None):
    """All contingency matrices meeting the constraints, canonically ordered.

    Order is lexicographic on (p, q, row-flattened entries).  Margins may be
    given as OrderedPartition or plain tuples; n is inferred from them.
    """
    return [ContingencyMatrix(r, check=False) for r in _cm_rows(n, p, q, alpha, beta)]


def count_cm_by_size(n=None, p=None, q=None, alpha=None, beta=None):
    """dict (p, q) -> count of matrices of that size meeting the constraints."""
    n, p, q, alpha, beta = _resolve_constraints(n, p, q, alpha, beta)
    guard(n, ENUMERATION_CAP, "contingency matrix enumeration")
    memo = {}
    return {
        (pp, qq): sum(
            _count_fixed_margins(a.parts, b.parts, memo)
            for a in alphas
            for b in betas
        )
        for pp, qq, alphas, betas in _margin_pairs(n, p, q, alpha, beta)
    }


def count_cm(n=None, p=None, q=None, alpha=None, beta=None):
    """Census size |CM_n(p, q)| etc., summed over the sizes it allows."""
    return sum(count_cm_by_size(n, p, q, alpha, beta).values())


# ---------------------------------------------------------------------------
# the contraction poset

def _cut_mask(rows, n):
    """The cut mask of a matrix of weight n, read off its rows.

    Bit (R*(n+1) + C)*(n+1) + S is set for each row cut R (a prefix sum of
    the row sums, 0 and n included), each column cut C, and the weight S
    of the entries in the rows above R and the columns left of C.
    """
    base = n + 1
    # the bit positions of one row cut, one per column cut; R = 0 first
    plane = [c * base for c in accumulate(map(sum, zip(*rows)), initial=0)]
    positions = plane[:]
    for row in rows:
        # the next row cut: R grows by the row's sum, each S by a prefix sum
        plane = list(map(add, plane, accumulate(row, initial=sum(row) * base * base)))
        positions += plane
    return sum(map(lshift, repeat(1), positions))


class _CoverView:
    """A read-only view of every cover as (child, parent, kind, position),
    read off ``up`` through ``_walk``; it stores no cover.  Its length is
    counted from the meta-matrix, so counting builds no ``up``."""

    __slots__ = ("_poset",)

    def __init__(self, poset):
        self._poset = poset

    def __len__(self):
        return self._poset._cover_count

    def __iter__(self):
        return chain.from_iterable(self._poset._walk())


def _order_query(horizontal, vertical):
    """The order generated by contractions of the kinds named, as a method
    on two elements of CM_n: the one order test of ``CmPoset``.

    A matrix of weight n is an element as it stands; anything else goes
    through ``element_index``.  A <= B exactly when every bit of B's cut
    mask (``_cut_mask``) is one of A's.  If A <= B, B is A with
    consecutive rows added into blocks and consecutive columns added into
    blocks.  Adding keeps the cumulative sums at the cuts it keeps, so
    every (R, C, S) of B is one of A's.  Conversely, if every (R, C, S) of
    B is one of A's, then B's row and column cuts are among A's, and A has
    B's cumulative sums S at B's cuts.  By inclusion-exclusion, each entry
    of B is the sum of A's entries between two consecutive row cuts and
    two consecutive column cuts of B, so B is A's block sum.  The
    horizontal-only order keeps the columns and the vertical-only order
    keeps the rows, which the test of p and q adds.
    """

    def query(self, small, large):
        """small <= large in this order (``_order_query``)."""
        n = self.n
        if not (isinstance(small, ContingencyMatrix) and small.weight == n):
            small = self.elements[self.element_index(small)]
        if not (isinstance(large, ContingencyMatrix) and large.weight == n):
            large = self.elements[self.element_index(large)]
        if large.p != small.p and not (horizontal and large.p < small.p):
            return False
        if large.q != small.q and not (vertical and large.q < small.q):
            return False
        mask = large._mask or large._made_mask()
        return (small._mask or small._made_mask()) & mask == mask

    return query


# the order test for each (horizontal, vertical) pair of kinds allowed
_ORDERS = {
    (horizontal, vertical): _order_query(horizontal, vertical)
    for horizontal in (False, True)
    for vertical in (False, True)
}


class CmPoset:
    """CM_n with its covers (single contractions) and the contraction order.

    ``CmPoset(n)`` counts CM_n and its covers by size at once, off the
    meta-matrix ``counting.metamatrix(n)``, and enumerates ``elements``,
    CM_n in canonical order, on first read.  CM_n is closed under
    contraction and transposition, which ``up`` relies on.
    ``up[i]``, the one record of the covers, holds the indices of i's
    parents: first contract(i, "horizontal", pos) for pos = 0, 1, ..., then
    contract(i, "vertical", pos), so a parent's place in ``up[i]`` gives the
    kind and position of its cover; ``_walk`` alone reads that layout,
    ``covers`` and ``anodyne_covers`` read ``_walk``, and the exports read
    ``covers``.  ``up`` is built on first read and kept, and so is
    ``down[i]``, i's children in element order, derived from ``up``; only
    lower intervals and the sphericity check read ``down``.  ``index``,
    the ``rows -> index`` dict, is built on first read by ``up`` or
    ``element_index``.

    The contracted matrix is the larger.  The order predicates ``cm_leq``,
    ``cm_leq_horizontal`` and ``cm_leq_vertical`` take two matrices or raw
    row lists; a matrix of weight n is an element as it stands, so a query
    on matrices hashes nothing and builds none of ``elements``, ``index``
    and ``up``.  ``leq(i, j, kinds)`` runs the same test on two elements.
    Each decides the order by the cut masks that the matrices keep
    (``ContingencyMatrix``), each made from its own rows, never from a
    cover, so that a check of the covers by the order is a check.
    """

    def __init__(self, n):
        # the meta-matrix, M(n)[p-1][q-1] = |CM_n(p, q)| in closed form,
        # counts CM_n and its covers without enumerating it: a p x q element
        # has p - 1 row merges and q - 1 column merges, all distinct and all
        # in CM_n, so p + q of them with 0-based p and q
        from .counting import metamatrix

        n = census_guard(n, ENUMERATION_CAP, "contingency poset construction")
        sizes = metamatrix(n).entries
        self.n = n
        self._size = sum(map(sum, sizes))
        self._cover_count = sum(
            (p + q) * k for p, row in enumerate(sizes) for q, k in enumerate(row)
        )

    @cached_property
    def elements(self):
        """CM_n in canonical order, enumerated on first read."""
        return tuple(enumerate_cm(self.n))

    @cached_property
    def index(self):
        """``index[rows]``: the element index of the matrix with these rows."""
        return {m.rows: i for i, m in enumerate(self.elements)}

    @cached_property
    def up(self):
        """``up[i]``: i's parents, row merges first, then column merges."""
        elements, index = self.elements, self.index
        up = [
            tuple([index[_merge_rows(m.rows, pos)] for pos in range(m.p - 1)])
            for m in elements
        ]
        # merging columns i, i+1 of A is merging rows i, i+1 of A's
        # transpose, transposed back; up[t] begins with t's row merges
        transpose = [index[tuple(zip(*m.rows))] for m in elements]
        for child, t in enumerate(transpose):
            columns = up[t][: elements[child].q - 1]
            up[child] += tuple([transpose[x] for x in columns])
        return tuple(up)

    @cached_property
    def down(self):
        """``down[i]``: i's children in element order, built from ``up``."""
        down = [[] for _ in self.up]
        for child, parents in enumerate(self.up):
            for parent in parents:
                down[parent].append(child)
        return tuple(map(tuple, down))

    def _walk(self, kinds=KINDS):
        """For each element, and each of these kinds with horizontal first,
        the zip of that kind's covers as (child, parent, kind, position),
        read off the element's slice of ``up``."""
        horizontal, vertical = HORIZONTAL in kinds, VERTICAL in kinds
        for child, (m, parents) in enumerate(zip(self.elements, self.up)):
            rows_up = m.p - 1
            if horizontal:
                yield zip(repeat(child), parents[:rows_up], repeat(HORIZONTAL), count())
            if vertical:
                yield zip(repeat(child), parents[rows_up:], repeat(VERTICAL), count())

    @property
    def covers(self):
        """Every cover as (child, parent, kind, position), with parent =
        contract(child, kind, position): children in element order, then
        horizontal before vertical, then by position.  A sized view over
        ``up``: its length is counted from the elements' shapes and its
        covers are made as it is iterated, so no cover tuple is kept."""
        return _CoverView(self)

    def __len__(self):
        return self._size

    def element_index(self, matrix):
        """The index of this matrix or raw row list; DomainError for
        anything that is not an element of CM_n."""
        rows = matrix
        try:
            if isinstance(matrix, ContingencyMatrix):
                rows = matrix.rows
            else:
                rows = tuple(map(tuple, matrix))
            return self.index[rows]
        except (KeyError, TypeError):
            raise DomainError(f"matrix {rows} is not an element of CM_{self.n}") from None

    def rank(self, i):
        m = self.elements[i]
        return 2 * self.n - (m.p + m.q)

    def leq(self, i, j, kinds=KINDS):
        """Element i <= element j, following contractions of these kinds;
        the test is ``_order_query``'s."""
        order = _ORDERS[HORIZONTAL in kinds, VERTICAL in kinds]
        return order(self, self.elements[i], self.elements[j])

    cm_leq = _ORDERS[True, True]
    cm_leq_horizontal = _ORDERS[True, False]
    cm_leq_vertical = _ORDERS[False, True]

    def anodyne_covers(self, kinds=KINDS):
        """Yield the anodyne covers of these kinds in ``covers`` order, as
        the walk reaches them; nothing lists them.  A merge only adds
        entries, so a cover is anodyne (``is_anodyne``: the merged slices
        have disjoint supports) exactly when the parent has as many nonzero
        entries, points, as the child.
        """
        points = [sum(map(bool, chain.from_iterable(m.rows))) for m in self.elements]
        for slots in self._walk(kinds):
            for cover in slots:
                if points[cover[1]] == points[cover[0]]:
                    yield cover


def build_poset(n):
    """CM_n; its covers are recorded when ``up`` is first read."""
    return CmPoset(n)


def poset_covers_json(poset):
    """The covers as JSON objects, one at a time, in cover order."""
    for child, parent, kind, pos in poset.covers:
        yield {"from": child, "to": parent, "kind": kind, "pos": pos}


def poset_to_dot(poset):
    """Graphviz DOT of the Hasse diagram; arrows follow contractions."""
    lines = [f"digraph cm_{poset.n} {{", "  rankdir=LR;", "  node [shape=box];"]
    for i, m in enumerate(poset.elements):
        label = "|".join(" ".join(str(x) for x in row) for row in m.rows)
        lines.append(f'  e{i} [label="{label}"];')
    for child, parent, kind, pos in poset.covers:
        lines.append(f'  e{child} -> e{parent} [label="{kind[0]}{pos}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
