import json
import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from stochastihedron.jsonwriter import PIECE, write_json


def stdlib(value, default=None):
    return json.JSONEncoder(indent=2, sort_keys=True, default=default).encode(value)


def written(value, default=None):
    parts = []
    write_json(value, parts.append, default)
    return "".join(parts)


def outcome(encode, value):
    """The text, or the type of the error raised."""
    try:
        return encode(value)
    except (TypeError, ValueError) as exc:
        return type(exc)


# ---------------------------------------------------------------------------
# oracle: the writer's text and errors are the standard encoder's

# quotes, control characters, non-ASCII and non-BMP text need escapes
escaped = st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80é ￿😀\U0010ffff')
texts = st.text(escaped | st.characters(), max_size=6)
floats = st.floats() | st.sampled_from(
    [-0.0, math.nan, math.inf, -math.inf, 1e300, 5e-324]
)
ints = st.integers() | st.integers(-(10**40), 10**40) | st.sampled_from([0, -1, 2**63])
scalars = st.none() | st.booleans() | ints | floats | texts
# rows of ints and bools side by side: (1, 0) == (True, False) in Python
rows = st.lists(st.integers(-2, 2) | st.booleans(), max_size=3).map(tuple)
keys = st.sampled_from(
    [texts, st.integers(), st.floats(), st.booleans(), st.none(), scalars]
)


def containers(inner):
    return (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.lists(rows, max_size=3).map(tuple)
        | keys.flatmap(lambda key: st.dictionaries(key, inner, max_size=4))
    )


values = st.recursive(scalars | rows, containers, max_leaves=16)
# leaves the encoder refuses, among the rest
hostile = st.recursive(
    scalars | rows | st.sets(st.integers(), max_size=2) | st.complex_numbers(),
    lambda inner: containers(inner)
    | st.dictionaries(st.tuples(st.integers()), inner, max_size=2),
    max_leaves=10,
)

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
@example({"é": "😀", "\x00": ['"', "\\"], 1: -0.0, 2.5: math.nan})
@example(([], {}, (), [[]], {"k": {}}))
def test_writer_matches_the_standard_encoder(value):
    assert outcome(written, value) == outcome(stdlib, value)


@oracle_settings
@given(hostile)
def test_writer_raises_what_the_standard_encoder_raises(value):
    assert outcome(written, value) == outcome(stdlib, value)


@pytest.mark.parametrize(
    "value",
    # unserializable; keys that cannot be sorted; a key of no JSON type
    [object(), [1, {2, 3}], {"a": 1, 2: 3}, {None: 1, "a": 2}, {(1, 2): 3}],
)
def test_refused_values_raise_type_error(value):
    with pytest.raises(TypeError):
        written(value)
    with pytest.raises(TypeError):
        stdlib(value)


def test_circular_reference_raises_value_error():
    loop = [1]
    loop.append(loop)
    nested = {"x": []}
    nested["x"].append(nested)
    for value in (loop, nested):
        with pytest.raises(ValueError, match="Circular reference"):
            written(value)
    # a default that hands back its argument is a cycle too
    with pytest.raises(ValueError, match="Circular reference"):
        written(object(), default=lambda o: o)


def test_default_is_encoded_where_it_is_reached():
    marker = object()
    value = {"b": [marker, (1, 2)], "a": marker}

    def swap(o):
        return {"seen": [True, None]}

    assert written(value, swap) == stdlib(value, swap)


def test_subclasses_encode_as_their_base_types():
    import enum
    from collections import OrderedDict, namedtuple

    class Level(enum.IntEnum):
        LOW = 1

    class Text(str):
        pass

    Pair = namedtuple("Pair", "x y")
    value = [Level.LOW, Text("t"), Pair(1, 0), OrderedDict(b=1, a=2), [Pair(True, 0)]]
    assert written(value) == stdlib(value)


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
