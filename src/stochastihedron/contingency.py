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

import itertools
import operator
from math import factorial
from operator import add

from .errors import DomainError
from .limits import DOUBLE_COSET_CAP, ENUMERATION_CAP, POSET_CAP, guard
from .partitions import OrderedPartition, as_partition, enumerate_ordered_partitions

HORIZONTAL = "horizontal"
VERTICAL = "vertical"
KINDS = (HORIZONTAL, VERTICAL)


class ContingencyMatrix:
    """Immutable p x q nonnegative integer grid, no zero row or column.

    The default ``check=True`` takes each entry through ``operator.index``
    (a float, string or Fraction raises DomainError) and validates the
    grid.  ``check=False`` trusts the caller to pass a valid grid of
    integer entries and only turns the rows into tuples, reusing row
    tuples as they are.
    """

    __slots__ = ("rows", "p", "q", "weight")

    def __init__(self, rows, check=True):
        if check:
            try:
                rows = tuple(tuple(map(operator.index, row)) for row in rows)
            except TypeError as exc:
                raise DomainError(f"entries must be integers: {exc}") from exc
            if not rows or not rows[0]:
                raise DomainError("matrix must have at least one row and column")
            width = len(rows[0])
            if any(len(row) != width for row in rows):
                raise DomainError("rows must all have the same length")
            if any(x < 0 for row in rows for x in row):
                raise DomainError("entries must be nonnegative")
            if any(not any(row) for row in rows):
                raise DomainError(f"zero row in {rows}")
            for j in range(width):
                if not any(row[j] for row in rows):
                    raise DomainError(f"zero column {j} in {rows}")
        else:
            rows = tuple(map(tuple, rows))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "p", len(rows))
        object.__setattr__(self, "q", len(rows[0]))
        object.__setattr__(self, "weight", sum(map(sum, rows)))

    def __setattr__(self, name, value):
        raise AttributeError("ContingencyMatrix is immutable")

    def __eq__(self, other):
        return isinstance(other, ContingencyMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"ContingencyMatrix({[list(r) for r in self.rows]})"

    def column(self, j):
        return tuple(row[j] for row in self.rows)

    def transpose(self):
        return ContingencyMatrix(tuple(zip(*self.rows)), check=False)

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


def _contracted_rows(rows, kind, i):
    """The row tuples after merging rows i, i+1 (horizontal) or columns
    i, i+1 (any other kind); the caller vouches for kind and range."""
    if kind == HORIZONTAL:
        return rows[:i] + (tuple(map(add, rows[i], rows[i + 1])),) + rows[i + 2 :]
    return tuple([r[:i] + (r[i] + r[i + 1],) + r[i + 2 :] for r in rows])


def contract(matrix, kind, i):
    """Merge rows i, i+1 (horizontal) or columns i, i+1 (vertical).

    The result is built with ``check=False``, which trusts integer
    entries: sums of a valid matrix's entries form a valid matrix.
    """
    _check_position(matrix, kind, i)
    return ContingencyMatrix(_contracted_rows(matrix.rows, kind, i), check=False)


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
    dropped with the census.
    """
    capped = tuple(b if b < total else total for b in budgets)
    key = (total, capped)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if len(capped) == 1:
        result = ((total,),) if total <= capped[0] else ()
    else:
        rest = capped[1:]
        rest_sum = sum(rest)
        lo = total - rest_sum
        if lo < 0:
            lo = 0
        acc = []
        for x in range(lo, min(total, capped[0]) + 1):
            for tail in _bounded_compositions(total - x, rest, memo):
                acc.append((x,) + tail)
        result = tuple(acc)
    memo[key] = result
    return result


def _iter_fixed_margins(alpha, beta, memo):
    """Raw matrices (tuples of row tuples) with the given margins.

    Row sums alpha and column sums beta force every row and column to be
    nonzero, so the fill is backtrack-free: each intermediate state extends
    to at least one matrix.
    """
    p = len(alpha)

    def rec(i, budgets, prefix):
        if i == p - 1:
            yield prefix + (budgets,)
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
    if n < 1:
        raise DomainError(f"weight must be positive, got {n}")
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
    (p, q) block at a time; the guard trips at the first ``next``."""
    n, p, q, alpha, beta = _resolve_constraints(n, p, q, alpha, beta)
    guard(n, ENUMERATION_CAP, "contingency matrix enumeration")
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


def colored_lift_count(matrix):
    """n! / prod (m_ij)!: the number of colored matrices over this one."""
    n = matrix.weight
    denom = 1
    for row in matrix.rows:
        for x in row:
            if x > 1:
                denom *= factorial(x)
    return factorial(n) // denom


def double_coset_count(alpha, beta):
    """|S_alpha \\ S_n / S_beta| by literal orbit enumeration inside S_n.

    This is the independent oracle for the double-coset description of
    CM_n(alpha, beta); it never consults the matrix enumeration.
    """
    alpha = as_partition(alpha)
    beta = as_partition(beta)
    if alpha.weight != beta.weight:
        raise DomainError(f"weights differ: {alpha.weight} vs {beta.weight}")
    n = alpha.weight
    guard(n, DOUBLE_COSET_CAP, "double-coset orbit enumeration")

    def block_transpositions(partition):
        gens = []
        offset = 0
        for part in partition.parts:
            for k in range(offset, offset + part - 1):
                t = list(range(n))
                t[k], t[k + 1] = t[k + 1], t[k]
                gens.append(tuple(t))
            offset += part
        return gens

    left = block_transpositions(alpha)
    right = block_transpositions(beta)
    seen = set()
    orbits = 0
    for g in itertools.permutations(range(n)):
        if g in seen:
            continue
        orbits += 1
        stack = [g]
        seen.add(g)
        while stack:
            h = stack.pop()
            for a in left:
                img = tuple(a[h[i]] for i in range(n))
                if img not in seen:
                    seen.add(img)
                    stack.append(img)
            for b in right:
                img = tuple(h[b[i]] for i in range(n))
                if img not in seen:
                    seen.add(img)
                    stack.append(img)
    return orbits


# ---------------------------------------------------------------------------
# the contraction poset

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


class CmPoset:
    """CM_n with its covers (single contractions) and the contraction order.

    ``covers``, the one record of kind and position, lists (child, parent,
    kind, position) with parent = contract(child, kind, position), children
    in element order, then horizontal before vertical, then by position;
    ``up[i]`` and ``down[i]`` hold i's parent and child indices in that
    order.  The contracted matrix is the larger; ``leq`` decides the order by
    the block-sum rule.  ``elements`` must be closed under contraction.
    """

    def __init__(self, n, elements):
        self.n = n
        self.elements = tuple(elements)
        self.index = index = {m.rows: i for i, m in enumerate(self.elements)}
        covers = []
        up = []
        down = [[] for _ in self.elements]
        for child, m in enumerate(self.elements):
            parents = []
            for kind, limit in ((HORIZONTAL, m.p - 1), (VERTICAL, m.q - 1)):
                for pos in range(limit):
                    parent = index[_contracted_rows(m.rows, kind, pos)]
                    covers.append((child, parent, kind, pos))
                    parents.append(parent)
                    down[parent].append(child)
            up.append(tuple(parents))
        self.covers = tuple(covers)
        self.up = tuple(up)
        self.down = tuple(map(tuple, down))

    def __len__(self):
        return len(self.elements)

    def element_index(self, matrix):
        rows = matrix.rows if isinstance(matrix, ContingencyMatrix) else tuple(
            tuple(r) for r in matrix
        )
        try:
            return self.index[rows]
        except KeyError:
            raise DomainError(f"matrix {rows} is not an element of CM_{self.n}")

    def rank(self, i):
        m = self.elements[i]
        return 2 * self.n - (m.p + m.q)

    def leq(self, i, j, kinds=KINDS):
        """Element i <= element j, following contractions of these kinds.

        Block-sum rule: A <= B exactly when B is A with consecutive rows
        added into blocks with B's row sums, then consecutive columns into
        blocks with B's column sums.  The horizontal-only order keeps the
        columns, the vertical-only order keeps the rows.
        """
        a, b = self.elements[i], self.elements[j]
        rows_ok = b.p == a.p or (b.p < a.p and HORIZONTAL in kinds)
        columns_ok = b.q == a.q or (b.q < a.q and VERTICAL in kinds)
        if not (rows_ok and columns_ok):
            return False
        rows = _merge_blocks(a.rows, list(map(sum, b.rows)))
        if rows is None:
            return False
        columns = list(zip(*b.rows))
        return _merge_blocks(zip(*rows), list(map(sum, columns))) == columns

    def cm_leq(self, small, large):
        """The order generated by contractions of both kinds."""
        return self.leq(self.element_index(small), self.element_index(large))

    def cm_leq_horizontal(self, small, large):
        return self.leq(
            self.element_index(small), self.element_index(large), (HORIZONTAL,)
        )

    def cm_leq_vertical(self, small, large):
        return self.leq(
            self.element_index(small), self.element_index(large), (VERTICAL,)
        )

    def anodyne_covers(self, kinds=KINDS):
        """The covers of these kinds whose two merged slices have disjoint
        supports (``is_anodyne``), in cover order."""
        return [
            (child, parent, kind, pos)
            for child, parent, kind, pos in self.covers
            if kind in kinds and is_anodyne(self.elements[child], kind, pos)
        ]

    def maximum(self):
        """Index of the 1x1 matrix (n)."""
        return self.element_index(ContingencyMatrix(((self.n,),), check=False))


def build_poset(n):
    """Enumerate CM_n and record every single-contraction cover."""
    guard(n, POSET_CAP, "contingency poset construction")
    return CmPoset(n, enumerate_cm(n))


def poset_to_json(poset):
    return {
        "n": poset.n,
        "elements": [m.to_json() for m in poset.elements],
        "covers": [
            {"from": child, "to": parent, "kind": kind, "pos": pos}
            for child, parent, kind, pos in poset.covers
        ],
    }


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
