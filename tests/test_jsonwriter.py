import enum
import json
import math
from collections import OrderedDict, namedtuple

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from stochastihedron.jsonwriter import PIECE, write_json


def stdlib(value):
    return json.dumps(value, indent=2, sort_keys=True)


def written(value):
    parts = []
    write_json(value, parts.append)
    return "".join(parts)


# ---------------------------------------------------------------------------
# oracle: over report values, the writer's text is the standard encoder's

# quotes, control characters, non-ASCII and non-BMP text need escapes
escaped = st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80é \uffff😀\U0010ffff')
texts = st.text(escaped | st.characters(), max_size=6)
ints = st.integers() | st.integers(-(10**40), 10**40) | st.sampled_from([0, -1, 2**63])
scalars = st.none() | st.booleans() | ints | texts
# rows of ints and bools side by side: (1, 0) == (True, False) in Python
rows = st.lists(st.integers(-2, 2) | st.booleans(), max_size=3).map(tuple)


def containers(inner):
    return (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.lists(rows, max_size=3).map(tuple)
        | st.dictionaries(texts, inner, max_size=4)
    )


values = st.recursive(scalars | rows, containers, max_leaves=16)

oracle_settings = settings(
    max_examples=400,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@oracle_settings
@given(values)
@example([(1, 0), (True, False)])
@example({"a": [(1, 0), (True, False), [1, 0], [True, False]]})
@example([((1, 0), (0, 1)), ((True, False), (False, True))])
@example({"é": "😀", "\x00": ['"', "\\"], "big": [2**64, -(10**40)]})
@example(([], {}, (), [[]], {"k": {}}))
def test_writer_matches_the_standard_encoder(value):
    assert written(value) == stdlib(value)


# ---------------------------------------------------------------------------
# refusals: a value outside the report space raises TypeError


class Level(enum.IntEnum):
    LOW = 1


class Text(str):
    pass


Pair = namedtuple("Pair", "x y")

# floats; int, float, bool and None keys; sets and complex numbers; and
# subclasses of report types, which json.dumps writes as their base types
outside = (
    st.floats()
    | st.sampled_from([-0.0, math.nan, math.inf])
    | st.dictionaries(st.integers() | st.floats() | st.booleans() | st.none(),
                      scalars, min_size=1, max_size=2)
    | st.sets(st.integers(), max_size=2)
    | st.complex_numbers()
    | st.sampled_from([Level.LOW, Text("t"), Pair(1, 0), OrderedDict(b=1, a=2)])
)


def report_around(leaf):
    """A report value with the leaf somewhere inside it."""
    return st.recursive(
        st.just(leaf),
        lambda inner: st.lists(inner, min_size=1, max_size=2)
        | st.lists(inner, min_size=1, max_size=2).map(tuple)
        | st.tuples(inner, values).map(list)
        | st.dictionaries(texts, inner, min_size=1, max_size=2),
        max_leaves=4,
    )


@oracle_settings
@given(outside.flatmap(report_around))
@example([1, 0.5])
@example({"a": {1: "x"}})
@example((Level.LOW, Pair(1, 0)))
def test_a_value_outside_the_report_space_raises_type_error(value):
    with pytest.raises(TypeError):
        written(value)


@pytest.mark.parametrize(
    "value",
    # no JSON type; keys that cannot be sorted; a key of no JSON type
    [object(), [1, {2, 3}], {"a": 1, 2: 3}, {None: 1, "a": 2}, {(1, 2): 3}, {Text("k"): 1}],
)
def test_refused_values_raise_type_error(value):
    with pytest.raises(TypeError):
        written(value)


def test_a_callable_is_called_once_where_it_is_reached():
    writes = []
    calls = []

    def late():
        calls.append("".join(writes))
        return {"seen": [True, None]}

    # "a" and "b" sort before "c"; "b" spans several batches of writes
    value = {"c": late, "b": [str(i) for i in range(5000)], "a": "x"}
    write_json(value, writes.append)
    text = stdlib({**value, "c": {"seen": [True, None]}})
    assert "".join(writes) == text
    assert len(calls) == 1
    # the keys before "c" were written, at least in part, when it was called
    assert text.startswith(calls[0])
    assert '"4000"' in calls[0] and '"c"' not in calls[0]


# ---------------------------------------------------------------------------
# streaming: iterators as arrays, bounded writes

def test_iterators_encode_as_arrays():
    value = {
        "rows": iter([(1, 0), (0, 1)]),
        "gen": (i for i in range(3)),
        "none": iter(()),
    }
    expected = {"rows": [(1, 0), (0, 1)], "gen": [0, 1, 2], "none": []}
    assert written(value) == stdlib(expected)


def test_a_long_array_is_written_as_it_is_made():
    writes = []
    drawn = []

    def items():
        for i in range(20_000):
            drawn.append(len(writes))
            yield {"from": i, "to": i + 1, "kind": "horizontal", "pos": 0}

    write_json({"covers": items()}, lambda text: writes.append(len(text)))
    # the first items were written before the last one was made
    assert drawn[-1] > 1
    assert max(writes) <= PIECE


def test_a_long_string_is_written_in_pieces():
    parts = []
    write_json(["x" * (3 * PIECE)], parts.append)
    assert max(map(len, parts)) <= PIECE
    assert "".join(parts) == stdlib(["x" * (3 * PIECE)])
