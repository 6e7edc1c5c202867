import copy
import pickle
import random
from fractions import Fraction
from math import factorial

import pytest
from helpers import bits, block_sum_leq, colored_lifts, double_coset_count

from stochastihedron import contingency
from stochastihedron.contingency import (
    HORIZONTAL,
    KINDS,
    VERTICAL,
    ContingencyMatrix,
    build_poset,
    contract,
    count_cm,
    count_cm_by_size,
    enumerate_cm,
    is_anodyne,
    margins,
    poset_covers_json,
    poset_to_dot,
)
from stochastihedron.errors import CapacityError, DomainError
from stochastihedron.partitions import OrderedPartition, enumerate_ordered_partitions
from stochastihedron.topology import lower_interval


def cm(rows):
    return ContingencyMatrix(rows)


def all_contractions(m):
    for i in range(m.p - 1):
        yield HORIZONTAL, i
    for i in range(m.q - 1):
        yield VERTICAL, i


def test_validation():
    # each refusal of the checked constructor, with its message
    cases = [
        ([[1, 2.5]], "entries must be integers: "
         "'float' object cannot be interpreted as an integer"),
        ([], "matrix must have at least one row and column"),
        ([[]], "matrix must have at least one row and column"),
        ([[1], [1, 2]], "rows must all have the same length"),
        ([[1, 2], []], "rows must all have the same length"),
        ([[1, -1], [0, 1]], "entries must be nonnegative"),
        ([[0, -1], [1, 1]], "entries must be nonnegative"),
        ([[0, 0], [1, 1]], "zero row in ((0, 0), (1, 1))"),
        ([[1, 0], [1, 0]], "zero column 1 in ((1, 0), (1, 0))"),
        ([[0, 1, 0], [0, 1, 1]], "zero column 0 in ((0, 1, 0), (0, 1, 1))"),
    ]
    for rows, message in cases:
        with pytest.raises(DomainError) as caught:
            cm(rows)
        assert str(caught.value) == message, rows


@pytest.mark.parametrize("entry", [1.5, 1.0, "x", "1", Fraction(1, 2), Fraction(1), None])
def test_checked_constructor_refuses_non_integer_entries(entry):
    with pytest.raises(DomainError, match="entries must be integers"):
        cm([[1, entry]])


def test_unchecked_constructor_matches_checked():
    checked = cm([[1, 0], [2, 1]])
    unchecked = ContingencyMatrix([[1, 0], [2, 1]], check=False)
    assert unchecked == checked
    assert hash(unchecked) == hash(checked)
    assert unchecked.rows == ((1, 0), (2, 1))
    assert (unchecked.p, unchecked.q, unchecked.weight) == (2, 2, 4)
    rows = ((1, 0), (0, 1))
    assert all(a is b for a, b in zip(ContingencyMatrix(rows, check=False).rows, rows))


def test_checked_constructor_keeps_exact_int_tuple_rows():
    row = (1, 0)
    m = cm((row, [2, 1]))
    assert m.rows[0] is row
    assert m.rows == ((1, 0), (2, 1))
    # rows given as lists are copied into tuples
    rows = [[1, 0], [2, 1]]
    m = cm(rows)
    assert all(type(r) is tuple for r in m.rows)
    rows[0][0] = 5
    assert m.rows == ((1, 0), (2, 1))
    # a tuple holding a bool is not a tuple of exact ints: it is copied
    row = (True, 0)
    m = cm((row, (0, 1)))
    assert m.rows[0] is not row and type(m.rows[0][0]) is int
    assert type(cm([[True, 0], [0, 1]]).rows[0][0]) is int
    for rows in (((1, 0), (2, 1)), [[1, 0], [2, 1]], [(True, 0), (2, 1)]):
        checked, unchecked = cm(rows), ContingencyMatrix(((1, 0), (2, 1)), check=False)
        assert checked == unchecked and hash(checked) == hash(unchecked)


@pytest.mark.parametrize("copy_of", [
    lambda m: pickle.loads(pickle.dumps(m)), copy.copy, copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_matrix_copies_are_equal_and_make_their_own_mask(copy_of):
    poset = build_poset(2)
    m = cm([[1, 0], [0, 1]])
    assert poset.cm_leq(m, cm([[2]])) and m._mask
    twin = copy_of(m)
    assert type(twin) is ContingencyMatrix
    assert twin == m and hash(twin) == hash(m) and repr(twin) == repr(m)
    assert (twin.p, twin.q, twin.weight) == (2, 2, 2)
    # the mask is not carried over; the copy makes the same one
    assert twin._mask == 0
    assert poset.cm_leq(twin, cm([[2]])) and twin._mask == m._mask


def test_matrix_fields_cannot_be_set_or_deleted():
    m = cm([[1, 0], [0, 1]])
    for name in ("rows", "p", "weight", "_mask"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(m, name, 0)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(m, name)
    assert m.rows == ((1, 0), (0, 1)) and m._mask == 0


def test_margins_examples():
    w, hor, ver = margins(cm([[1, 0], [0, 1]]))
    assert (w, hor.parts, ver.parts) == (2, (1, 1), (1, 1))
    w, hor, ver = margins(cm([[1, 1], [1, 0]]))
    assert (w, hor.parts, ver.parts) == (3, (2, 1), (2, 1))
    w, hor, ver = margins(cm([[2]]))
    assert (w, hor.parts, ver.parts) == (2, (2,), (2,))


def test_contract_examples():
    assert contract(cm([[1, 0], [0, 1]]), HORIZONTAL, 0).rows == ((1, 1),)
    assert contract(cm([[1, 0], [0, 1]]), VERTICAL, 0).rows == ((1,), (1,))
    assert contract(cm([[1, 1], [1, 0]]), HORIZONTAL, 0).rows == ((2, 1),)
    with pytest.raises(DomainError):
        contract(cm([[1, 1]]), HORIZONTAL, 0)
    with pytest.raises(DomainError):
        contract(cm([[1, 1]]), VERTICAL, 1)
    with pytest.raises(DomainError):
        contract(cm([[1, 1]]), VERTICAL, -1)
    with pytest.raises(DomainError):
        contract(cm([[1, 1]]), "diagonal", 0)


def test_is_anodyne_examples():
    assert is_anodyne(cm([[1, 0], [0, 1]]), HORIZONTAL, 0)
    assert not is_anodyne(cm([[1, 1], [1, 0]]), HORIZONTAL, 0)
    assert not is_anodyne(cm([[2], [1]]), HORIZONTAL, 0)
    with pytest.raises(DomainError):
        is_anodyne(cm([[1], [1]]), VERTICAL, 0)


def test_enumerate_cm_weight2():
    got = enumerate_cm(2)
    assert [m.rows for m in got] == [
        ((2,),),
        ((1, 1),),
        ((1,), (1,)),
        ((0, 1), (1, 0)),
        ((1, 0), (0, 1)),
    ]


def test_enumerate_cm_blocks():
    assert len(enumerate_cm(3, p=2, q=2)) == 8
    perms = enumerate_cm(3, p=3, q=3)
    assert len(perms) == 6
    assert all(sorted(sum(m.rows, ())) == [0] * 6 + [1] * 3 for m in perms)


def test_enumerate_fixed_margins():
    got = {m.rows for m in enumerate_cm(alpha=(2, 1), beta=(2, 1))}
    assert got == {((2, 0), (0, 1)), ((1, 1), (1, 0))}


def test_enumerate_inconsistent_constraints():
    with pytest.raises(DomainError):
        enumerate_cm(3, p=3, alpha=(2, 1))
    with pytest.raises(DomainError):
        enumerate_cm(4, alpha=(2, 1))
    with pytest.raises(DomainError):
        enumerate_cm()
    with pytest.raises(CapacityError):
        count_cm(8)


def test_census_leaves_no_module_level_memo():
    def container_sizes():
        return {
            name: len(value)
            for name, value in vars(contingency).items()
            if isinstance(value, (dict, list, set))
        }

    before = container_sizes()
    enumerate_cm(5)
    count_cm_by_size(5)
    assert container_sizes() == before
    assert not hasattr(contingency, "_COMP_MEMO")


def test_margins_constrain_enumeration():
    for alpha_parts in ((2, 1), (1, 1, 2), (4,)):
        alpha = OrderedPartition(alpha_parts)
        for m in enumerate_cm(alpha=alpha):
            assert margins(m)[1] == alpha


def test_contraction_preserves_validity_and_weight():
    for n in range(1, 7):
        for m in enumerate_cm(n):
            for kind, i in all_contractions(m):
                result = contract(m, kind, i)
                ContingencyMatrix(result.rows)  # re-validate from scratch
                assert result.weight == m.weight


def test_bisimplicial_identities():
    # same-kind: d_i d_j = d_{j-1} d_i for i < j; mixed kinds commute
    for n in range(2, 6):
        for m in enumerate_cm(n):
            for kind, limit in ((HORIZONTAL, m.p - 1), (VERTICAL, m.q - 1)):
                for i in range(limit):
                    for j in range(i + 1, limit):
                        assert contract(contract(m, kind, j), kind, i) == contract(
                            contract(m, kind, i), kind, j - 1
                        )
            for i in range(m.p - 1):
                for j in range(m.q - 1):
                    assert contract(contract(m, HORIZONTAL, i), VERTICAL, j) == contract(
                        contract(m, VERTICAL, j), HORIZONTAL, i
                    )


def test_margin_equivariance():
    from stochastihedron.partitions import contract_partition

    for n in range(2, 6):
        for m in enumerate_cm(n):
            _, hor, ver = margins(m)
            for i in range(m.p - 1):
                _, hor2, ver2 = margins(contract(m, HORIZONTAL, i))
                assert ver2 == ver
                assert hor2 == contract_partition(hor, i)
            for j in range(m.q - 1):
                _, hor2, ver2 = margins(contract(m, VERTICAL, j))
                assert hor2 == hor
                assert ver2 == contract_partition(ver, j)


def test_colored_lift_examples():
    assert colored_lifts(cm([[1, 0], [0, 1]]).rows) == 2
    assert colored_lifts(cm([[2]]).rows) == 1
    assert colored_lifts(cm([[1, 1], [1, 0]]).rows) == 6


def multinomial(partition):
    n = partition.weight
    denom = 1
    for a in partition.parts:
        denom *= factorial(a)
    return factorial(n) // denom


def test_coloring_identity():
    for n in range(1, 6):
        for alpha in enumerate_ordered_partitions(n):
            for beta in enumerate_ordered_partitions(n):
                total = sum(
                    colored_lifts(m.rows) for m in enumerate_cm(alpha=alpha, beta=beta)
                )
                assert total == multinomial(alpha) * multinomial(beta)


def test_double_coset_examples():
    for n in range(1, 5):
        ones = (1,) * n
        assert double_coset_count(ones, ones) == factorial(n)
        for beta in enumerate_ordered_partitions(n):
            assert double_coset_count((n,), beta.parts) == 1
    assert double_coset_count((2, 1), (2, 1)) == 2


def test_double_cosets_match_census():
    for n in range(1, 5):
        for alpha in enumerate_ordered_partitions(n):
            for beta in enumerate_ordered_partitions(n):
                assert double_coset_count(alpha.parts, beta.parts) == len(
                    enumerate_cm(alpha=alpha, beta=beta)
                )


def test_poset_extremes():
    for n in range(1, 6):
        poset = build_poset(n)
        top = 0  # canonical order puts the 1x1 matrix first
        assert poset.elements[top].rows == ((n,),)
        assert all(
            poset.leq(i, top) for i in range(len(poset))
        )
        minimal = [i for i in range(len(poset)) if not poset.down[i]]
        assert len(minimal) == factorial(n)
        for i in minimal:
            m = poset.elements[i]
            assert m.p == n and m.q == n
            assert sorted(sum(m.rows, ())) == [0] * (n * n - n) + [1] * n


def test_covers_are_the_single_contractions():
    for n in range(1, 6):
        poset = build_poset(n)
        elements = poset.elements
        for child, parent, kind, pos in poset.covers:
            assert elements[parent] == contract(elements[child], kind, pos)
        # in cover order: children in element order, then horizontal
        # before vertical, then by position
        assert list(poset.covers) == sorted(
            {
                (child, poset.element_index(contract(m, kind, pos)), kind, pos)
                for child, m in enumerate(elements)
                for kind, pos in all_contractions(m)
            },
            key=lambda cover: (cover[0], KINDS.index(cover[2]), cover[3]),
        )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_order_queries_and_cover_counts_do_not_build_up(n):
    # a matrix of weight n is an element as it stands: queries on matrices
    # build neither the rows -> index dict nor up, and the counts come
    # from the census by size, so they enumerate nothing either
    poset = build_poset(n)
    elements = tuple(enumerate_cm(n))
    assert poset.cm_leq(elements[-1], elements[0])
    assert poset.cm_leq_vertical(elements[0], elements[-1]) == (n == 1)
    assert len(poset) == len(elements)
    assert len(poset.covers) == sum(m.p + m.q - 2 for m in elements)
    for built in ("elements", "index", "up", "down"):
        assert built not in vars(poset)
    rng = random.Random(n)
    elements = poset.elements
    for _ in range(200):
        a, b = rng.choice(elements), rng.choice(elements)
        poset.cm_leq(a, b)
        poset.cm_leq_horizontal(a, b)
        poset.cm_leq_vertical(a, b)
    assert poset.cm_leq(elements[-1], elements[0])
    assert len(poset.covers) == sum(m.p + m.q - 2 for m in elements)
    for built in ("up", "down", "index"):
        assert built not in vars(poset)
    # a raw row list is looked up, which builds the index and nothing more
    assert poset.cm_leq(list(map(list, elements[-1].rows)), elements[0].rows)
    assert "index" in vars(poset)
    assert "up" not in vars(poset) and "down" not in vars(poset)


class _CountedRows(tuple):
    """Rows that count how often they are hashed."""

    hashes = 0

    def __hash__(self):
        _CountedRows.hashes += 1
        return tuple.__hash__(self)


def test_order_queries_on_matrices_hash_nothing():
    poset = build_poset(4)
    rng = random.Random(300)
    matrices = []
    for m in rng.sample(poset.elements, 40):
        m = ContingencyMatrix(m.rows, check=False)
        object.__setattr__(m, "rows", _CountedRows(m.rows))
        matrices.append(m)
    _CountedRows.hashes = 0
    queries = (poset.cm_leq, poset.cm_leq_horizontal, poset.cm_leq_vertical)
    answers = [rng.choice(queries)(rng.choice(matrices), rng.choice(matrices))
               for _ in range(300)]
    assert _CountedRows.hashes == 0
    assert any(answers) and not all(answers)
    assert "index" not in vars(poset)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_order_queries_on_fresh_matrices_match_block_sums(n):
    # checked copies made from list rows, not the poset's own elements:
    # each predicate agrees with the block-sum oracle and with leq
    poset = build_poset(n)
    fresh = [cm(list(map(list, m.rows))) for m in poset.elements]
    predicates = (
        (poset.cm_leq, KINDS),
        (poset.cm_leq_horizontal, (HORIZONTAL,)),
        (poset.cm_leq_vertical, (VERTICAL,)),
    )
    for i, a in enumerate(fresh):
        assert a is not poset.elements[i] and a == poset.elements[i]
        for j, b in enumerate(fresh):
            for query, kinds in predicates:
                want = block_sum_leq(a, b, kinds)
                assert query(a, b) == want == poset.leq(i, j, kinds), (kinds, a, b)
    assert "index" not in vars(poset)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_poset_of_n_is_cm_n(n):
    # the constructor counts CM_n and its covers by size and enumerates
    # CM_n itself on first read; its covers are the checked contractions
    poset = contingency.CmPoset(n)
    assert poset.n == n
    size, cover_count = len(poset), len(poset.covers)
    assert poset.elements == tuple(enumerate_cm(n))
    assert size == len(poset.elements) == count_cm(n)
    assert cover_count == sum(m.p + m.q - 2 for m in poset.elements)
    if n <= 4:
        assert poset.up == _eager_up(poset)


def test_poset_of_7_is_counted_without_the_walk():
    # the sizes come off the meta-matrix in closed form; the walk-census by
    # size is the second route they must agree with, and nothing is listed
    poset = contingency.CmPoset(7)
    sizes = count_cm_by_size(7)
    assert len(poset) == 546193 == sum(sizes.values())
    assert len(poset.covers) == 4500300 == sum(
        (p + q - 2) * k for (p, q), k in sizes.items()
    )
    assert set(vars(poset)) == {"n", "_size", "_cover_count"}


def test_poset_refuses_a_bad_weight_at_once():
    # the census refuses it in the constructor, before any element is read
    with pytest.raises(DomainError, match="^weight must be positive, got 0$"):
        contingency.CmPoset(0)
    with pytest.raises(CapacityError, match="capped at 7"):
        contingency.CmPoset(8)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_up_and_down_are_the_covers_as_indices(n):
    # up is the one record of the covers; covers is a view over it, and up
    # and down hold the parents and children of each element, in cover
    # order, as plain ints
    poset = build_poset(n)
    assert "covers" not in vars(poset)
    for i in range(len(poset)):
        assert poset.up[i] == tuple(p for c, p, _, _ in poset.covers if c == i)
        assert poset.down[i] == tuple(c for c, p, _, _ in poset.covers if p == i)
        for j in poset.up[i] + poset.down[i]:
            assert type(j) is int


def _walked_covers(poset):
    return tuple(cover for slots in poset._walk() for cover in slots)


def _down_from_walk(poset):
    down = [[] for _ in range(len(poset))]
    for child, parent, _, _ in _walked_covers(poset):
        down[parent].append(child)
    return tuple(map(tuple, down))


def _poset(n):
    # None: CM_4 from the constructor itself, with no guard in front
    return contingency.CmPoset(4) if n is None else build_poset(n)


def _eager_up(poset):
    # each element's parents by the checked contraction, row merges first
    return tuple(
        tuple(poset.element_index(contract(m, kind, pos)) for kind, pos in all_contractions(m))
        for m in poset.elements
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, None])
def test_up_is_built_on_first_read(n):
    poset = _poset(n)
    assert "up" not in vars(poset)
    want = _eager_up(poset)
    assert poset.up == want
    assert vars(poset)["up"] is poset.up
    elements = poset.elements
    for slots in poset._walk():
        for child, parent, kind, pos in slots:
            a, b = elements[child], elements[parent]
            assert block_sum_leq(a, b, (kind,)) and not block_sum_leq(b, a)
            assert poset.rank(parent) == poset.rank(child) + 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, None])
def test_cover_count_from_shapes_matches_up(n):
    # distinct merges of one matrix give distinct parents, all elements of
    # CM_n, so each merge counted from the census is one entry of up
    poset = _poset(n)
    count = len(poset.covers)
    assert "up" not in vars(poset)
    assert count == sum(map(len, poset.up))


@pytest.mark.parametrize("n", [1, 2, 3, 4, None])
def test_down_is_built_on_first_read(n):
    poset = _poset(n)
    assert "down" not in vars(poset)
    want = _down_from_walk(poset)
    assert poset.down == want
    assert vars(poset)["down"] is poset.down


@pytest.mark.parametrize("n", [1, 2, 3, 4, None])
def test_covers_is_a_sized_view_of_the_walk(n):
    poset = _poset(n)
    want = _walked_covers(poset)
    covers = poset.covers
    assert len(covers) == len(want) == sum(map(len, poset.up))
    assert tuple(covers) == want
    assert bool(covers) == bool(want) == (n != 1)
    assert "covers" not in vars(poset)
    # the count is read off the shapes: no cover is made to count them
    poset._walk = None
    assert len(poset.covers) == len(want) and bool(poset.covers) == bool(want)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_each_distinct_row_is_one_tuple(n):
    rows = [row for m in enumerate_cm(n) for row in m.rows]
    assert len({id(row) for row in rows}) == len(set(rows))


def test_anodyne_covers_keep_the_nonzero_entries():
    # anodyne read off the entries: the contraction keeps the multiset of
    # nonzero entries, i.e. no two nonzero entries are added
    for n in range(1, 6):
        poset = build_poset(n)
        nonzero = [sorted(filter(None, sum(m.rows, ()))) for m in poset.elements]
        for kinds in ((), (HORIZONTAL,), (VERTICAL,), KINDS, (VERTICAL, HORIZONTAL)):
            found = list(poset.anodyne_covers(kinds))
            assert found == [
                (child, parent, kind, pos)
                for child, parent, kind, pos in poset.covers
                if kind in kinds and nonzero[child] == nonzero[parent]
            ]
            # the one-contraction predicate as a second oracle
            assert found == [
                (child, parent, kind, pos)
                for child, parent, kind, pos in poset.covers
                if kind in kinds and is_anodyne(poset.elements[child], kind, pos)
            ]


def test_anodyne_covers_are_walked_not_listed():
    # a caller reads each anodyne cover as the walk reaches it
    poset = build_poset(3)
    for kinds in ((), (HORIZONTAL,), (VERTICAL,), KINDS):
        found = poset.anodyne_covers(kinds)
        assert iter(found) is found


def test_poset_n1_and_n2():
    poset = build_poset(1)
    assert len(poset) == 1 and not poset.covers
    poset = build_poset(2)
    assert len(poset) == 5
    assert len(poset.covers) == 6


def _transitive_closure(above):
    """Close 'strictly above' bitmasks under transitivity, to a fixpoint."""
    above = list(above)
    changed = True
    while changed:
        changed = False
        for i, mask in enumerate(above):
            acc = mask
            for j in bits(mask):
                acc |= above[j]
            if acc != mask:
                above[i] = acc
                changed = True
    return above


def _reachability_oracle(poset, kinds):
    """Per element, a bitmask of everything strictly above it, closed
    from the covers of the given kinds alone."""
    above = [0] * len(poset)
    for child, parent, kind, _ in poset.covers:
        if kind in kinds:
            above[child] |= 1 << parent
    return _transitive_closure(above)


def test_order_is_closure_of_both_single_kind_orders():
    # oracle: reachability along the recorded covers, independent of the
    # cut masks that CmPoset.leq reads
    for n in range(1, 5):
        poset = build_poset(n)
        size = len(poset)
        oracle = {
            kinds: _reachability_oracle(poset, kinds)
            for kinds in ((HORIZONTAL,), (VERTICAL,), (HORIZONTAL, VERTICAL))
        }
        for kinds, above in oracle.items():
            for i in range(size):
                for j in range(size):
                    want = i == j or bool(above[i] >> j & 1)
                    assert poset.leq(i, j, kinds) == want, (n, kinds, i, j)
        union = _transitive_closure(
            h | v for h, v in zip(oracle[(HORIZONTAL,)], oracle[(VERTICAL,)])
        )
        mixed = oracle[(HORIZONTAL, VERTICAL)]
        assert union == mixed
        for top in range(size):
            for strict in (True, False):
                interval = lower_interval(poset, top, strict=strict)
                members = [
                    i for i in range(size)
                    if mixed[i] >> top & 1 or (i == top and not strict)
                ]
                assert list(interval.labels) == members
                for k, g in enumerate(members):
                    assert set(bits(interval.above[k])) == {
                        kh for kh, h in enumerate(members) if mixed[g] >> h & 1
                    }


def _kind_walk(poset, rng, i, kinds):
    """A random walk up the covers of these kinds (row merges come first
    in ``up``), of random length."""
    for _ in range(rng.randrange(2 * poset.n)):
        m = poset.elements[i]
        ups = poset.up[i]
        ups = (ups[: m.p - 1] if HORIZONTAL in kinds else ()) + (
            ups[m.p - 1 :] if VERTICAL in kinds else ()
        )
        if not ups:
            break
        i = rng.choice(ups)
    return i


@pytest.mark.parametrize("n", [5, 6])
def test_leq_matches_block_sum_rule(n):
    # 100,000 seeded pairs: half uniform, half a random walk up the covers
    # of one kind set, so that both answers occur for every kind set
    poset = build_poset(n)
    elements = poset.elements
    rng = random.Random(f"leq-{n}")
    kind_sets = ((HORIZONTAL,), (VERTICAL,), (HORIZONTAL, VERTICAL))
    seen = set()
    for _ in range(100_000):
        i = rng.randrange(len(poset))
        if rng.random() < 0.5:
            j = rng.randrange(len(poset))
        else:
            j = _kind_walk(poset, rng, i, rng.choice(kind_sets))
        if rng.random() < 0.25:
            i, j = j, i
        for kinds in kind_sets:
            want = block_sum_leq(elements[i], elements[j], kinds)
            assert poset.leq(i, j, kinds) == want, (kinds, elements[i], elements[j])
            seen.add((kinds, want))
    assert len(seen) == 6


def _cut_bits(rows, n):
    """The bits of a cut mask, straight from its definition."""
    base = n + 1
    bits = set()
    for a in range(len(rows) + 1):
        for b in range(len(rows[0]) + 1):
            R = sum(map(sum, rows[:a]))
            C = sum(sum(row[:b]) for row in rows)
            S = sum(sum(row[:b]) for row in rows[:a])
            bits.add((R * base + C) * base + S)
    return bits


def test_cut_mask_matches_its_definition():
    assert contingency._cut_mask(((1, 0), (0, 1)), 2) == sum(
        1 << k for k in (0, 3, 6, 9, 13, 16, 18, 22, 26)
    )
    for n in range(1, 5):
        for m in enumerate_cm(n):
            mask = contingency._cut_mask(m.rows, n)
            assert mask == sum(1 << k for k in _cut_bits(m.rows, n)), m


def test_cut_mask_is_injective():
    for n in range(1, 7):
        masks = {contingency._cut_mask(rows, n) for rows in contingency._cm_rows(n)}
        assert len(masks) == count_cm(n)


def test_order_is_read_off_the_rows_not_the_covers():
    # check_sphericity's cover check is a check only if no mask is derived
    # from a cover: scramble every cover record before the first query
    poset = build_poset(4)
    size = len(poset)
    perm = list(range(size))
    random.Random(4).shuffle(perm)
    up, down = [None] * size, [None] * size
    for i in range(size):
        up[perm[i]] = tuple(perm[x] for x in poset.up[i])
        down[perm[i]] = tuple(perm[x] for x in poset.down[i])
    poset.up, poset.down = tuple(up), tuple(down)
    elements = poset.elements
    for kinds in ((HORIZONTAL,), (VERTICAL,), (HORIZONTAL, VERTICAL)):
        for i in range(size):
            for j in range(size):
                want = block_sum_leq(elements[i], elements[j], kinds)
                assert poset.leq(i, j, kinds) == want


def test_leq_direction():
    poset = build_poset(2)
    fine = cm([[1, 0], [0, 1]])
    assert poset.cm_leq(fine, cm([[2]]))
    assert not poset.cm_leq(cm([[2]]), fine)
    assert poset.cm_leq_horizontal(fine, cm([[1, 1]]))
    assert not poset.cm_leq_horizontal(fine, cm([[1], [1]]))
    assert poset.cm_leq_vertical(fine, cm([[1], [1]]))
    assert poset.cm_leq(fine, fine)
    # raw row lists are accepted, and a non-member is named in the error
    assert poset.cm_leq_horizontal([[1, 0], [0, 1]], ((1, 1),))
    assert not poset.cm_leq_vertical([[2]], [[1], [1]])
    missing = r"matrix \(\(3,\),\) is not an element of CM_2"
    for query in (poset.cm_leq, poset.cm_leq_horizontal, poset.cm_leq_vertical):
        for small, large in ((cm([[3]]), cm([[2]])), (cm([[2]]), [[3]])):
            with pytest.raises(DomainError, match=missing):
                query(small, large)
        # a matrix of the wrong weight, a raw list that is not an element
        # and a ragged list, on either side
        for bad, rows in (
            (cm([[1, 0], [0, 2]]), r"\(1, 0\), \(0, 2\)"),
            ([[0, 1], [1, 1]], r"\(0, 1\), \(1, 1\)"),
            ([[1, 1], [0]], r"\(1, 1\), \(0,\)"),
        ):
            for small, large in ((bad, fine), (fine, bad)):
                with pytest.raises(DomainError, match=rf"matrix \({rows}\) is not an element"):
                    query(small, large)


def test_non_elements_are_domain_errors():
    poset = build_poset(2)
    m = cm([[2]])
    for query in (poset.cm_leq, poset.cm_leq_horizontal, poset.cm_leq_vertical):
        for bad, shown in ((5, "5"), (None, "None"), ([[1, [2]]], r"\(\(1, \[2\]\),\)")):
            for small, large in ((bad, m), (m, bad)):
                with pytest.raises(DomainError,
                                   match=rf"^matrix {shown} is not an element of CM_2$"):
                    query(small, large)
    for bad, shown in ((1.5, "1.5"), (None, "None"), ([[1, [2]]], r"\(\(1, \[2\]\),\)")):
        with pytest.raises(DomainError, match=rf"^matrix {shown} is not an element of CM_2$"):
            lower_interval(poset, bad)
        with pytest.raises(DomainError, match=rf"^matrix {shown} is not an element of CM_2$"):
            poset.element_index(bad)


def test_json_and_dot_exports():
    m = cm([[1, 0], [0, 1]])
    assert ContingencyMatrix.from_json(m.to_json()) == m
    assert m.to_json() == {"rows": [[1, 0], [0, 1]]}
    poset = build_poset(2)
    covers = list(poset_covers_json(poset))
    assert len(poset.elements) == 5 and len(covers) == len(poset.covers)
    assert {"from": 4, "to": 1, "kind": "horizontal", "pos": 0} in covers
    dot = poset_to_dot(poset)
    assert dot == poset_to_dot(build_poset(2))  # deterministic
    assert 'label="1 0|0 1"' in dot
    assert dot.startswith("digraph")
