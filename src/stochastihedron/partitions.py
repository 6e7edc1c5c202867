"""Ordered partitions (compositions) of a positive integer.

An ordered partition of n is a sequence of positive parts summing to n.
Merging two adjacent parts is a contraction; the inverse relation,
splitting parts into consecutive blocks, is refinement.  Everything the
contingency-matrix machinery does in two dimensions has its shadow here.

Indexing is 0-based: ``contract_partition(alpha, i)`` merges parts i and
i+1.  Enumeration is in lexicographic order of the parts sequence.
"""

from math import comb

from .errors import DomainError, exact_ints, positive_weight
from .frozen import Frozen
from .limits import PARTITION_CAP, guard


class OrderedPartition(Frozen):
    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = exact_ints(parts)
        if not parts:
            raise DomainError("an ordered partition needs at least one part")
        if any(a < 1 for a in parts):
            raise DomainError(f"parts must be positive, got {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def weight(self):
        return sum(self.parts)

    @property
    def length(self):
        return len(self.parts)

    def to_json(self):
        return list(self.parts)

    @classmethod
    def from_json(cls, data):
        return cls(tuple(data))

    def __repr__(self):
        return f"OrderedPartition({self.parts!r})"


def as_partition(value):
    """Coerce a tuple/list/OrderedPartition to OrderedPartition."""
    if isinstance(value, OrderedPartition):
        return value
    return OrderedPartition(tuple(value))


def enumerate_ordered_partitions(n, p=None):
    """All ordered partitions of n (of length p if given), lexicographic.

    There are C(n-1, p-1) of length p and 2^(n-1) in total, so n is capped
    at PARTITION_CAP; a refusal of an n within the meta-matrix cap ends
    with that number, '; N ordered partitions', as a refused census names
    |CM_n| (``limits.guard``).
    """
    n = positive_weight(n)
    if p is not None:
        (p,) = exact_ints((p,))
        if not 1 <= p <= n:
            raise DomainError(f"length must satisfy 1 <= p <= {n}, got {p}")

    def size(n):
        count = 2 ** (n - 1) if p is None else comb(n - 1, p - 1)
        return f"{count:,} ordered partitions"

    guard(n, PARTITION_CAP, "ordered partition enumeration", size)
    out = []

    def rec(remaining, length_left, prefix):
        if length_left == 1:
            out.append(prefix + (remaining,))
            return
        # ascending first part keeps the output lexicographic
        for a in range(1, remaining - (length_left - 2)):
            rec(remaining - a, length_left - 1, prefix + (a,))

    def rec_free(remaining, prefix):
        if remaining == 0:
            out.append(prefix)
            return
        for a in range(1, remaining + 1):
            rec_free(remaining - a, prefix + (a,))

    if p is None:
        rec_free(n, ())
    else:
        rec(n, p, ())
    return [OrderedPartition(t) for t in out]


def contract_partition(alpha, i):
    """Merge parts i and i+1 of alpha (0-based)."""
    alpha = as_partition(alpha)
    if not 0 <= i <= alpha.length - 2:
        raise DomainError(
            f"contraction index {i} out of range for length {alpha.length}"
        )
    parts = alpha.parts
    return OrderedPartition(
        parts[:i] + (parts[i] + parts[i + 1],) + parts[i + 2 :]
    )


def block_bounds(coarse, fine):
    """The (start, end) index pairs that split fine.parts into consecutive
    blocks summing, in order, to the parts of coarse; None when coarse
    does not coarsen fine."""
    fparts = fine.parts
    bounds = []
    k = 0
    for part in coarse.parts:
        start = k
        acc = 0
        while acc < part and k < len(fparts):
            acc += fparts[k]
            k += 1
        if acc != part:
            return None
        bounds.append((start, k))
    return bounds if k == len(fparts) else None


def refines(coarse, fine):
    """True iff consecutive blocks of `fine` sum, in order, to the parts of
    `coarse`; equivalently `coarse` arises from `fine` by contractions."""
    coarse = as_partition(coarse)
    fine = as_partition(fine)
    if coarse.weight != fine.weight:
        raise DomainError(
            f"weights differ: {coarse.weight} vs {fine.weight}"
        )
    return block_bounds(coarse, fine) is not None


def partition_to_subset(alpha):
    """The cut-point set I(alpha): partial sums of alpha, excluding n."""
    alpha = as_partition(alpha)
    cuts = []
    acc = 0
    for a in alpha.parts[:-1]:
        acc += a
        cuts.append(acc)
    return frozenset(cuts)


def subset_to_partition(cuts, n):
    """Inverse of partition_to_subset: rebuild alpha from cut points."""
    n = positive_weight(n)
    cuts = sorted(cuts)
    if cuts and (cuts[0] < 1 or cuts[-1] >= n):
        raise DomainError(f"cut points must lie in [1, {n - 1}], got {cuts}")
    bounds = [0] + cuts + [n]
    return OrderedPartition(
        tuple(b - a for a, b in zip(bounds, bounds[1:]))
    )
