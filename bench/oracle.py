"""Reference combinatorics written on the benchmark side.

Nothing here imports the library under test.  The generator uses these
routines to build seeded inputs, and the checker uses them to judge the
library's answers by meaning.  They follow the definitions, not the
library's algorithms:

* CM_n is listed by brute force in the library's documented canonical
  order, lexicographic on (p, q, row-flattened entries);
* covers are single merges of adjacent rows or columns;
* the order test is the block-sum rule: A <= B exactly when B is the
  block sum of A over a consecutive grouping of the rows into p_B blocks
  and of the columns into q_B blocks (rows only for the horizontal
  order, columns only for the vertical one);
* a lower interval is everything reached from M by repeated splits of
  one row or one column into two nonzero consecutive parts;
* the FNF closure order is read off CM_n: label a lies in the closure of
  label b when some matrix over b contracts to a matrix over a.
"""

import itertools


def _vectors(total, length):
    """All nonnegative integer vectors of the given length and sum."""
    if length == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _vectors(total - head, length - 1):
            yield (head,) + tail


def cm_elements(n):
    """CM_n as tuples of row tuples, in canonical order."""
    out = []
    for p in range(1, n + 1):
        for q in range(1, n + 1):
            block = []

            def rec(rows, left):
                if len(rows) == p:
                    if left == 0 and all(any(r[j] for r in rows) for j in range(q)):
                        block.append(tuple(rows))
                    return
                rows_left = p - len(rows)
                for s in range(1, left - rows_left + 2):
                    for row in _vectors(s, q):
                        rec(rows + [row], left - s)

            rec([], n)
            block.sort()
            out.extend(block)
    return out


def merge(rows, kind, i):
    """Contract rows i, i+1 (kind "horizontal") or columns i, i+1."""
    if kind == "horizontal":
        merged = tuple(a + b for a, b in zip(rows[i], rows[i + 1]))
        return rows[:i] + (merged,) + rows[i + 2 :]
    return tuple(r[:i] + (r[i] + r[i + 1],) + r[i + 2 :] for r in rows)


def cm_covers(elements):
    """(child, parent) index pairs of every single contraction."""
    index = {m: i for i, m in enumerate(elements)}
    covers = []
    for child, m in enumerate(elements):
        for i in range(len(m) - 1):
            covers.append((child, index[merge(m, "horizontal", i)]))
        for i in range(len(m[0]) - 1):
            covers.append((child, index[merge(m, "vertical", i)]))
    return covers


def _blocks(fine_sums, coarse_sums):
    """Consecutive blocks of fine_sums summing to coarse_sums, or None.

    All sums are positive, so the grouping is unique when it exists."""
    blocks = []
    k = 0
    for target in coarse_sums:
        start, acc = k, 0
        while acc < target and k < len(fine_sums):
            acc += fine_sums[k]
            k += 1
        if acc != target:
            return None
        blocks.append((start, k))
    return blocks if k == len(fine_sums) else None


def block_sum_leq(small, large, kind="both"):
    """The block-sum rule for small <= large (large is coarser)."""
    row_blocks = _blocks([sum(r) for r in small], [sum(r) for r in large])
    col_blocks = _blocks(
        [sum(c) for c in zip(*small)], [sum(c) for c in zip(*large)]
    )
    if row_blocks is None or col_blocks is None:
        return False
    if kind == "horizontal" and len(col_blocks) != len(small[0]):
        return False
    if kind == "vertical" and len(row_blocks) != len(small):
        return False
    for bi, (r0, r1) in enumerate(row_blocks):
        for bj, (c0, c1) in enumerate(col_blocks):
            total = sum(small[i][j] for i in range(r0, r1) for j in range(c0, c1))
            if total != large[bi][bj]:
                return False
    return True


def _row_splits(rows):
    for i, row in enumerate(rows):
        for upper in itertools.product(*(range(x + 1) for x in row)):
            lower = tuple(x - u for x, u in zip(row, upper))
            if any(upper) and any(lower):
                yield rows[:i] + (upper, lower) + rows[i + 1 :]


def strictly_below(rows):
    """Every matrix strictly below `rows`, by repeated single splits."""
    seen = set()
    stack = [rows]
    while stack:
        m = stack.pop()
        transposed = tuple(zip(*m))
        children = list(_row_splits(m))
        children += [tuple(zip(*t)) for t in _row_splits(transposed)]
        for child in children:
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return seen


# ---------------------------------------------------------------------------
# labels of point configurations and of matrices

def compress(values):
    return tuple(x for x in values if x)


def fnf_key(rows):
    """(beta, gamma) of the FNF label: column sums, compressed columns."""
    cols = tuple(zip(*rows))
    return tuple(sum(c) for c in cols), tuple(compress(c) for c in cols)


def ifnf_key(rows):
    return fnf_key(tuple(zip(*rows)))


def multiplicity(rows):
    return tuple(sorted((x for r in rows for x in r if x), reverse=True))


def config_matrix(points):
    """Contingency label of a configuration of (re, im) Fractions."""
    xs = sorted({re for re, _ in points})
    ys = sorted({im for _, im in points})
    xi = {x: i for i, x in enumerate(xs)}
    yi = {y: j for j, y in enumerate(ys)}
    grid = [[0] * len(ys) for _ in xs]
    for re, im in points:
        grid[xi[re]][yi[im]] += 1
    return tuple(tuple(r) for r in grid)


def fnf_closure(n):
    """dict label -> set of labels in its closure, from CM_n contractions."""
    elements = cm_elements(n)
    # canonical order lists coarser shapes first, so parents come before
    # children and one sweep over the list in order fills every up-set
    up_labels = {}
    for m in elements:
        acc = {fnf_key(m)}
        for i in range(len(m) - 1):
            acc |= up_labels[merge(m, "horizontal", i)]
        for i in range(len(m[0]) - 1):
            acc |= up_labels[merge(m, "vertical", i)]
        up_labels[m] = acc
    closure = {}
    for m in elements:
        closure.setdefault(fnf_key(m), set()).update(up_labels[m])
    return closure
