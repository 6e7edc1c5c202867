"""One streaming JSON writer for the CLI's reports.

``write_json(value, write, default)`` writes exactly the text of
``json.JSONEncoder(indent=2, sort_keys=True, default=default).encode(value)``
as it encodes, through ``write(text)`` calls of at most ``PIECE``
characters each, so a large array goes out in batches and the whole text
is never held.  It raises what that encoder raises: ``TypeError`` for an
object ``default`` cannot serialize or for keys that cannot be sorted or
used, ``ValueError`` for a circular reference.

Beyond what the encoder takes, an iterator encodes as an array of its
items, so a caller can hand over a long array one item at a time.

It dispatches on exact types and joins an array of ints in one call; a
subclass of str, int, float, list, tuple or dict is encoded as its base
type, as the encoder does.  The text of a tuple of ints met again at the
same depth is reused.
"""

from collections.abc import Iterator
from itertools import chain
from json.encoder import encode_basestring_ascii as _string

PIECE = 65536  # most characters in one write
_BATCH = 1024  # pieces of text kept before they are written
_INTS = {int}
_TUPLES = {tuple}
_INF = float("inf")


def _float(x):
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


_SCALARS = {
    str: _string,
    int: int.__repr__,
    float: _float,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _key(key):
    """A non-str dict key as the encoder turns it into a str."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
    )


def _ints(seq, level):
    """The text of a non-empty array of ints at this depth."""
    inner = "\n" + "  " * (level + 1)
    return "[" + inner + ("," + inner).join(map(int.__repr__, seq)) + inner[:-2] + "]"


def write_json(value, write, default=None):
    """Write value as ``json.JSONEncoder(indent=2, sort_keys=True,
    default=default)`` encodes it, through ``write(str)`` calls of at most
    ``PIECE`` characters, as it goes."""
    parts = []  # text encoded and not yet written, in order
    markers = {}  # id -> container being encoded, to detect a cycle
    memos = {}  # depth -> {tuple of ints: its text}

    def flush():
        text = "".join(parts)
        parts.clear()
        for start in range(0, len(text), PIECE):
            write(text[start:start + PIECE])

    def ints(seq, level):
        """The text of a non-empty array of ints at this depth; a tuple's
        text is kept for the next equal tuple at the same depth."""
        if type(seq) is not tuple:
            return _ints(seq, level)
        memo = memos.setdefault(level, {})
        text = memo.get(seq)
        if text is None:
            text = memo[seq] = _ints(seq, level)
        return text

    def enter(container):
        key = id(container)
        if key in markers:
            raise ValueError("Circular reference detected")
        markers[key] = container
        return key

    def put(o, level, prefix):
        """Append prefix, then o's text at this depth."""
        kind = type(o)
        scalar = _SCALARS.get(kind)
        if scalar is not None:
            parts.append(prefix + scalar(o))
        elif kind is dict:
            obj(o, level, prefix)
        elif kind is tuple or kind is list:
            sequence(o, level, prefix)
        elif isinstance(o, str):
            parts.append(prefix + _string(o))
        elif isinstance(o, int):
            parts.append(prefix + int.__repr__(o))
        elif isinstance(o, float):
            parts.append(prefix + _float(o))
        elif isinstance(o, (list, tuple)):
            sequence(o, level, prefix)
        elif isinstance(o, dict):
            obj(o, level, prefix)
        elif isinstance(o, Iterator):
            array(o, level, prefix)
        else:
            key = enter(o)
            if default is None:
                name = o.__class__.__name__
                raise TypeError(f"Object of type {name} is not JSON serializable")
            put(default(o), level, prefix)
            del markers[key]

    def sequence(seq, level, prefix):
        # exact ints only, before any memo is read: (1, 0) == (True, False)
        if seq and _INTS.issuperset(map(type, seq)):
            parts.append(prefix + ints(seq, level))
        elif (
            seq
            and _TUPLES.issuperset(map(type, seq))
            and all(seq)
            and _INTS.issuperset(map(type, chain.from_iterable(seq)))
        ):
            # rows of a matrix: one line per row, each row's text reused
            memo = memos.setdefault(level + 1, {})
            texts = list(map(memo.get, seq))
            if None in texts:
                texts = [ints(row, level + 1) for row in seq]
            newline = "\n" + "  " * (level + 1)
            rows = ("," + newline).join(texts)
            parts.append(f"{prefix}[{newline}{rows}{newline[:-2]}]")
        else:
            array(seq, level, prefix)

    def array(items, level, prefix):
        key = enter(items)
        level += 1
        newline = "\n" + "  " * level
        separator = "," + newline
        outer, prefix = prefix, prefix + "[" + newline
        for x in items:
            put(x, level, prefix)
            prefix = separator
            if len(parts) >= _BATCH:
                flush()
        parts.append(newline[:-2] + "]" if prefix is separator else outer + "[]")
        del markers[key]

    def obj(dct, level, prefix):
        if not dct:
            parts.append(prefix + "{}")
            return
        key = enter(dct)
        level += 1
        newline = "\n" + "  " * level
        separator = "," + newline
        prefix += "{" + newline
        for name, x in sorted(dct.items()):
            if type(name) is not str:
                name = _key(name)
            scalar = _SCALARS.get(type(x))
            if scalar is not None:
                parts.append(f"{prefix}{_string(name)}: {scalar(x)}")
            else:
                put(x, level, f"{prefix}{_string(name)}: ")
            prefix = separator
            if len(parts) >= _BATCH:
                flush()
        parts.append(newline[:-2] + "}")
        del markers[key]

    put(value, 0, "")
    flush()
