"""One streaming JSON writer for the CLI's reports.

``write_json(value, write)`` writes exactly the text of
``json.dumps(value, indent=2, sort_keys=True)`` as it encodes, through
``write(text)`` calls of at most ``PIECE`` characters each, so a large
array goes out in batches and the whole text is never held.

It takes report values only: None, bool, int and str; a list or tuple of
report values; a dict with str keys; an iterator, written as an array of
its items, so a long array can be handed over one item at a time; and a
callable, called with no argument where the writer reaches it and its
result written in its place, so a value can be read late.  Anything else,
a float, a subclass of one of these types, or a key that is not a str,
raises ``TypeError``: a report writes a time as integer milliseconds.

It dispatches on exact types and joins an array of ints in one call.  The
text of a tuple of ints met again at the same depth is reused.
"""

from collections.abc import Iterator
from itertools import chain
from json.encoder import encode_basestring_ascii as _string

PIECE = 65536  # most characters in one write
_BATCH = 1024  # pieces of text kept before they are written
_INTS = {int}
_TUPLES = {tuple}
_SCALARS = {
    str: _string,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _ints(seq, level):
    """The text of a non-empty array of ints at this depth."""
    inner = "\n" + "  " * (level + 1)
    return "[" + inner + ("," + inner).join(map(int.__repr__, seq)) + inner[:-2] + "]"


def write_json(value, write):
    """Write value as ``json.dumps(value, indent=2, sort_keys=True)``
    encodes it, through ``write(str)`` calls of at most ``PIECE``
    characters, as it goes."""
    parts = []  # text encoded and not yet written, in order
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
        elif isinstance(o, Iterator):
            array(o, level, prefix)
        elif callable(o):
            put(o(), level, prefix)
        else:
            raise TypeError(f"Object of type {kind.__name__} is not a report value")

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

    def obj(dct, level, prefix):
        level += 1
        newline = "\n" + "  " * level
        separator = "," + newline
        outer, prefix = prefix, prefix + "{" + newline
        # keys that cannot be sorted raise TypeError here
        for name, x in sorted(dct.items()):
            if type(name) is not str:
                raise TypeError(f"keys must be str, not {type(name).__name__}")
            scalar = _SCALARS.get(type(x))
            if scalar is not None:
                parts.append(f"{prefix}{_string(name)}: {scalar(x)}")
            else:
                put(x, level, f"{prefix}{_string(name)}: ")
            prefix = separator
            if len(parts) >= _BATCH:
                flush()
        parts.append(newline[:-2] + "}" if prefix is separator else outer + "{}")

    put(value, 0, "")
    flush()
